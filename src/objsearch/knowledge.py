"""Knowledge prior: word vectors and the location-generation co-occurrence score.

The generation table is a static file of up to 20 plausible-location phrases
per target name, standing in for a generative commonsense model.  Scoring a
landmark against a target takes the best cosine similarity between the
landmark's phrase vector and any generated location phrase.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AssetError, EmbeddingLookupError, SchemaError
from .world import parse_json

MAX_GENERATIONS = 20
FALLBACK_COOCCURRENCE = 0.5  # the score of every landmark for a target the table lacks


def _read_asset(path, what: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise AssetError(f"cannot read {what} from {path}: {exc}") from exc


class WordVectorStore:
    """Read-only map from lowercase word to a fixed-dimension real vector."""

    def __init__(self, vectors: dict[str, np.ndarray]):
        if not vectors:
            raise AssetError("word vector store is empty")
        dims = {v.shape for v in vectors.values()}
        if len(dims) != 1:
            raise AssetError(f"word vectors have inconsistent shapes: {sorted(dims)}")
        ((self.dim,),) = dims
        self._vectors = {w.lower(): np.asarray(v, dtype=np.float64) for w, v in vectors.items()}
        for word, vec in self._vectors.items():
            if not np.isfinite(vec).all():
                raise AssetError(f"word vector for {word!r} contains non-finite values")

    def __contains__(self, word: str) -> bool:
        return word.lower() in self._vectors

    def __len__(self) -> int:
        return len(self._vectors)

    def get(self, word: str) -> np.ndarray:
        try:
            return self._vectors[word.lower()]
        except KeyError:
            raise EmbeddingLookupError(f"word {word!r} not in vocabulary") from None

    @classmethod
    def loads(cls, text: str) -> "WordVectorStore":
        """Parse the ``word v1 v2 ... vD`` line format."""
        vectors: dict[str, np.ndarray] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise AssetError(f"word vector line {lineno}: expected word plus values")
            try:
                vec = np.array([float(p) for p in parts[1:]], dtype=np.float64)
            except ValueError as exc:
                raise AssetError(f"word vector line {lineno}: {exc}") from exc
            vectors[parts[0]] = vec
        return cls(vectors)

    @classmethod
    def load(cls, path) -> "WordVectorStore":
        return cls.loads(_read_asset(path, "word vectors"))


def phrase_vector(phrase: str, store: WordVectorStore) -> np.ndarray:
    """Unit-norm mean of the phrase's in-vocabulary word vectors."""
    words = phrase.lower().split()
    vecs = [store.get(w) for w in words if w in store]
    if not vecs:
        raise EmbeddingLookupError(f"no word of phrase {phrase!r} is in the vocabulary")
    mean = np.mean(vecs, axis=0)
    norm = float(np.linalg.norm(mean))
    if norm == 0.0 or not math.isfinite(norm):
        raise EmbeddingLookupError(f"phrase {phrase!r} has a degenerate mean vector")
    return mean / norm


class GenerationTable:
    """Map from target phrase to its generated location phrases (1..20 each)."""

    def __init__(self, entries: dict[str, list[str]]):
        for target, gens in entries.items():
            if not isinstance(gens, list) or not all(isinstance(g, str) for g in gens):
                raise SchemaError(f"generation table entry {target!r}: expected a list of phrases")
            if not 1 <= len(gens) <= MAX_GENERATIONS:
                raise SchemaError(
                    f"generation table entry {target!r}: expected 1..{MAX_GENERATIONS} "
                    f"phrases, got {len(gens)}"
                )
        self._entries = {t.lower(): list(gens) for t, gens in entries.items()}

    def __contains__(self, target: str) -> bool:
        return target.lower() in self._entries

    def get(self, target: str) -> list[str]:
        try:
            return list(self._entries[target.lower()])
        except KeyError:
            raise EmbeddingLookupError(f"target {target!r} not in generation table") from None

    def targets(self) -> list[str]:
        return sorted(self._entries)

    @classmethod
    def loads(cls, text: str) -> "GenerationTable":
        doc = parse_json(text, "generation table")
        if not isinstance(doc, dict):
            raise SchemaError("generation table: expected an object of target -> phrases")
        return cls(doc)

    @classmethod
    def load(cls, path) -> "GenerationTable":
        return cls.loads(_read_asset(path, "generation table"))


def cooccurrence(
    target: str,
    landmark: str,
    table: GenerationTable,
    store: WordVectorStore,
) -> float:
    """Best cosine between the landmark and any generated location of the target.

    Targets missing from the table score :data:`FALLBACK_COOCCURRENCE` so
    unlisted objects stay searchable; callers can test membership to flag the
    fallback.
    Raises :class:`EmbeddingLookupError` if the landmark (or every generation)
    is fully out of vocabulary; the landmark is looked up first.
    """
    landmark_vec = phrase_vector(landmark, store)
    if target not in table:
        return FALLBACK_COOCCURRENCE
    best = max(float(np.dot(landmark_vec, gen_vec))
               for gen_vec in _generation_vectors(target, table, store))
    return min(1.0, max(-1.0, best))


def _generation_vectors(
    target: str, table: GenerationTable, store: WordVectorStore
) -> list[np.ndarray]:
    """Phrase vectors of the target's generations that have one, in table order."""
    vecs = []
    for gen in table.get(target):
        try:
            vecs.append(phrase_vector(gen, store))
        except EmbeddingLookupError:
            continue
    if not vecs:
        raise EmbeddingLookupError(
            f"no generation of {target!r} has an in-vocabulary phrase vector"
        )
    return vecs
