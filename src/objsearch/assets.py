"""Bundled data files: word vectors, generation tables, golden scenarios."""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import AssetError, EmbeddingLookupError
from .knowledge import GenerationTable, WordVectorStore
from .matching import TextEmbeddingStore
from .world import ScenarioSpec

WORD_VECTOR_FILE = "word_vectors.txt"
GENERATION_TABLE_FILE = "generations.json"
WEB_TABLE_FILE = "generations_web.json"


@dataclass
class AssetContext:
    """Loaded knowledge assets shared (read-only) by every episode."""

    words: WordVectorStore
    generations: GenerationTable

    @classmethod
    def load(cls, root: Path | None = None, table_file: str = GENERATION_TABLE_FILE) -> "AssetContext":
        if root is None:  # the package's own assets
            root = Path(str(resources.files("objsearch").joinpath("assets")))
        return cls(
            words=WordVectorStore.load(root / WORD_VECTOR_FILE),
            generations=GenerationTable.load(root / table_file),
        )

    def text_store_for(self, scenario: ScenarioSpec) -> TextEmbeddingStore:
        """Embed every phrase an episode will look up; fails fast on gaps."""
        try:
            return TextEmbeddingStore.from_word_vectors(self.words, scenario.entity_names())
        except EmbeddingLookupError as exc:
            raise AssetError(f"scenario references unembeddable phrase: {exc}") from exc
