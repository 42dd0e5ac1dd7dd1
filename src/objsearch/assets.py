"""Bundled data files: word vectors, generation tables, golden scenarios.

The packaged assets directory can be overridden with the ``OBJSEARCH_ASSETS``
environment variable, which is handy for suites that ship their own word
vectors or generation tables.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import AssetError, EmbeddingLookupError
from .knowledge import GenerationTable, WordVectorStore
from .matching import TextEmbeddingStore
from .world import ScenarioSpec

ASSET_ENV_VAR = "OBJSEARCH_ASSETS"
WORD_VECTOR_FILE = "word_vectors.txt"
GENERATION_TABLE_FILE = "generations.json"
WEB_TABLE_FILE = "generations_web.json"


def default_asset_root() -> Path:
    override = os.environ.get(ASSET_ENV_VAR)
    if override:
        root = Path(override)
        if not root.is_dir():
            raise AssetError(f"{ASSET_ENV_VAR}={override} is not a directory")
        return root
    return Path(str(resources.files("objsearch").joinpath("assets")))


@dataclass
class AssetContext:
    """Loaded knowledge assets shared (read-only) by every episode."""

    words: WordVectorStore
    generations: GenerationTable

    @classmethod
    def load(cls, root: Path | None = None, table_file: str = GENERATION_TABLE_FILE) -> "AssetContext":
        root = root if root is not None else default_asset_root()
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
