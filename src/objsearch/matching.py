"""Embedding-space matching: scores, name probabilities, entropy.

Text and patch embeddings share one space; phrases are encoded by averaging
word vectors (see :mod:`objsearch.knowledge`) so a text store can be derived
from any word-vector file.  All scores live on the 100 x cosine scale, which
makes the matching threshold ``m_t`` a threshold on cosine similarity / 100.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DomainError, EmbeddingLookupError
from .knowledge import WordVectorStore, phrase_vector

UNKNOWN_LABEL = "unknown"
UNIT_NORM_TOL = 1e-6
SCORE_SCALE = 100.0


def unit(v: np.ndarray) -> np.ndarray:
    """Return v scaled to unit L2 norm."""
    v = np.asarray(v, dtype=np.float64)
    norm = float(np.linalg.norm(v))
    if norm == 0.0 or not np.isfinite(norm):
        raise DomainError("cannot normalize a zero or non-finite vector")
    return v / norm


def _require_unit(v: np.ndarray, what: str) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise DomainError(f"{what}: expected a 1-D vector")
    if abs(float(np.linalg.norm(v)) - 1.0) > UNIT_NORM_TOL:
        raise DomainError(f"{what}: vector is not unit-norm")
    return v


class TextEmbeddingStore:
    """Deterministic phrase -> unit embedding lookup (the text encoder)."""

    def __init__(self, embeddings: dict[str, np.ndarray]):
        self._embeddings = {p.lower(): unit(v) for p, v in embeddings.items()}

    def get(self, phrase: str) -> np.ndarray:
        try:
            return self._embeddings[phrase.lower()]
        except KeyError:
            raise EmbeddingLookupError(f"phrase {phrase!r} not in embedding store") from None

    @classmethod
    def from_word_vectors(
        cls, store: WordVectorStore, phrases: Sequence[str]
    ) -> "TextEmbeddingStore":
        """Encode phrases by their unit-normalized mean word vector."""
        return cls({p: phrase_vector(p, store) for p in phrases})


def matching_score(text: np.ndarray, patch: np.ndarray) -> float:
    """Text-image matching score: 100 x cosine of two unit vectors."""
    text = _require_unit(text, "text embedding")
    patch = _require_unit(patch, "patch embedding")
    return float(SCORE_SCALE * np.dot(patch, text))


def landmark_probability(
    patch: np.ndarray,
    names: Sequence[str],
    store: TextEmbeddingStore,
    temperature: float,
) -> np.ndarray:
    """Softmax distribution of the patch over candidate landmark names."""
    if not names:
        raise DomainError("landmark_probability needs at least one name")
    if not temperature > 0.0:
        raise DomainError("temperature must be positive")
    scores = np.array([matching_score(store.get(n), patch) for n in names])
    z = scores / temperature
    shifted = np.exp(z - z.max())
    return shifted / shifted.sum()


def semantic_uncertainty(prob: np.ndarray) -> float:
    """Shannon entropy (nats) of a name distribution; 0 log 0 counts as 0."""
    prob = np.asarray(prob, dtype=np.float64)
    if prob.ndim != 1 or prob.size == 0:
        raise DomainError("expected a non-empty 1-D probability vector")
    if (prob < 0.0).any():
        raise DomainError("probabilities must be non-negative")
    if abs(float(prob.sum()) - 1.0) > 1e-6:
        raise DomainError("probabilities must sum to 1")
    positive = prob[prob > 0.0]
    return float(-(positive * np.log(positive)).sum())


def best_landmark_match(
    patch: np.ndarray, names: Sequence[str], store: TextEmbeddingStore
) -> tuple[str, float]:
    """Highest-scoring landmark name for a patch; first name wins ties."""
    if not names:
        raise DomainError("no landmark names to match against")
    best_name, best_score = names[0], matching_score(store.get(names[0]), patch)
    for name in names[1:]:
        score = matching_score(store.get(name), patch)
        if score > best_score:
            best_name, best_score = name, score
    return best_name, best_score
