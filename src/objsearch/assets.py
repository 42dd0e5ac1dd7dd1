"""Bundled data files: word vectors, generation tables, golden scenarios."""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .errors import AssetError, EmbeddingLookupError
from .knowledge import GenerationTable, WordVectorStore, cooccurrence
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
    # (target, landmark) -> co-occurrence score, filled by ``cooccurrence``.
    _scores: dict = field(default_factory=dict, init=False, compare=False, repr=False)

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

    def cooccurrence(self, target: str, landmark: str) -> float:
        """:func:`~objsearch.knowledge.cooccurrence` of the pair under these
        assets, remembered once scored.  Only scores are remembered, so a
        pair that raises :class:`EmbeddingLookupError` raises on every call."""
        key = (target, landmark)
        score = self._scores.get(key)
        if score is None:
            score = self._scores[key] = cooccurrence(target, landmark, self.generations,
                                                     self.words)
        return score
