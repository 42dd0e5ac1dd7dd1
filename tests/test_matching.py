import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from objsearch.errors import DomainError, EmbeddingLookupError
from objsearch.matching import (
    TextEmbeddingStore,
    UNKNOWN_LABEL,
    best_landmark_match,
    landmark_probability,
    matching_score,
    semantic_uncertainty,
    unit,
)


def rand_unit(rng, dim=64):
    return unit(rng.standard_normal(dim))


def store_of(vecs: dict) -> TextEmbeddingStore:
    return TextEmbeddingStore(vecs)


class TestMatchingScore:
    def test_identical_vectors(self):
        v = rand_unit(np.random.default_rng(0))
        assert matching_score(v, v) == pytest.approx(100.0)

    def test_orthogonal_vectors(self):
        a = np.zeros(8)
        a[0] = 1.0
        b = np.zeros(8)
        b[3] = 1.0
        assert matching_score(a, b) == pytest.approx(0.0)

    def test_threshold_scale(self):
        # m_t = 29 corresponds to cosine 0.29 on the 100x scale
        a = np.array([1.0, 0.0])
        b = unit(np.array([0.29, math.sqrt(1 - 0.29**2)]))
        assert matching_score(a, b) == pytest.approx(29.0, abs=1e-9)

    def test_rejects_unnormalized(self):
        with pytest.raises(DomainError):
            matching_score(np.array([2.0, 0.0]), np.array([1.0, 0.0]))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_symmetry_and_sign_flip(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rand_unit(rng, 16), rand_unit(rng, 16)
        assert matching_score(a, b) == pytest.approx(matching_score(b, a), abs=1e-12)
        assert matching_score(-a, -b) == pytest.approx(matching_score(a, b), abs=1e-12)
        assert -100.0 - 1e-9 <= matching_score(a, b) <= 100.0 + 1e-9


class TestLandmarkProbability:
    def test_single_name(self):
        rng = np.random.default_rng(1)
        v = rand_unit(rng)
        store = store_of({"desk": v})
        p = landmark_probability(rand_unit(rng), ["desk"], store, 1.0)
        np.testing.assert_allclose(p, [1.0])

    def test_equidistant_uniform(self):
        dim = 10
        vecs = {f"n{i}": np.eye(dim)[i] for i in range(6)}
        patch = np.zeros(dim)
        patch[9] = 1.0
        p = landmark_probability(patch, list(vecs), store_of(vecs), 1.0)
        np.testing.assert_allclose(p, np.full(6, 1 / 6), atol=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(2)
        names = [f"n{i}" for i in range(5)]
        store = store_of({n: rand_unit(rng, 32) for n in names})
        for _ in range(25):
            p = landmark_probability(rand_unit(rng, 32), names, store, 7.0)
            assert abs(p.sum() - 1.0) < 1e-9
            assert (p >= 0).all()

    def test_temperature_flattens(self):
        rng = np.random.default_rng(3)
        names = ["a", "b", "c"]
        store = store_of({n: rand_unit(rng, 16) for n in names})
        patch = rand_unit(rng, 16)
        hot = landmark_probability(patch, names, store, 1.0)
        cold = landmark_probability(patch, names, store, 10000.0)
        assert semantic_uncertainty(cold) > semantic_uncertainty(hot)
        np.testing.assert_allclose(cold, np.full(3, 1 / 3), atol=1e-2)

    def test_shift_invariance(self):
        # adding a constant to all similarities = rotating the patch so that
        # every name picks up the same extra dot product; emulate directly
        # by shifting the score vector fed to a reference softmax
        rng = np.random.default_rng(4)
        scores = rng.uniform(-100, 100, size=6)
        for shift in (0.0, 13.7, -55.0):
            z = (scores + shift) / 3.0
            e = np.exp(z - z.max())
            p = e / e.sum()
            z0 = scores / 3.0
            e0 = np.exp(z0 - z0.max())
            p0 = e0 / e0.sum()
            np.testing.assert_allclose(p, p0, atol=1e-12)

    def test_invalid_inputs(self):
        rng = np.random.default_rng(5)
        store = store_of({"a": rand_unit(rng)})
        with pytest.raises(DomainError):
            landmark_probability(rand_unit(rng), [], store, 1.0)
        with pytest.raises(DomainError):
            landmark_probability(rand_unit(rng), ["a"], store, 0.0)


class TestSemanticUncertainty:
    def test_one_hot_is_zero(self):
        assert semantic_uncertainty(np.array([0.0, 1.0, 0.0])) == 0.0

    def test_uniform_is_log_n(self):
        p = np.full(6, 1 / 6)
        assert semantic_uncertainty(p) == pytest.approx(math.log(6), abs=1e-12)

    def test_hand_computed_value(self):
        p = np.array([0.5, 0.25, 0.25])
        assert semantic_uncertainty(p) == pytest.approx(1.5 * math.log(2), abs=1e-12)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 12))
    @settings(max_examples=80, deadline=None)
    def test_permutation_invariant_and_bounded(self, seed, n):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(n))
        h = semantic_uncertainty(p)
        assert 0.0 <= h <= math.log(n) + 1e-12
        shuffled = rng.permutation(p)
        assert semantic_uncertainty(shuffled) == pytest.approx(h, abs=1e-12)

    def test_maximized_exactly_at_uniform(self):
        rng = np.random.default_rng(11)
        n = 5
        top = semantic_uncertainty(np.full(n, 1 / n))
        for _ in range(100):
            p = rng.dirichlet(np.ones(n))
            if np.allclose(p, 1 / n):
                continue
            assert semantic_uncertainty(p) <= top

    def test_invalid_distributions(self):
        with pytest.raises(DomainError):
            semantic_uncertainty(np.array([0.5, 0.4]))
        with pytest.raises(DomainError):
            semantic_uncertainty(np.array([1.2, -0.2]))


class TestIdentifyUnknown:
    def test_exact_match_recovers_name(self, ctx):
        store = TextEmbeddingStore.from_word_vectors(ctx.words, ["desk", "bed", "sofa"])
        name, score = best_landmark_match(store.get("desk"), ["desk", "bed", "sofa"], store)
        assert name == "desk"
        assert score == pytest.approx(100.0)

    def test_tie_breaks_by_list_order(self):
        v = np.array([1.0, 0.0])
        store = store_of({"first": v, "second": v})
        name, _ = best_landmark_match(np.array([0.0, 1.0]), ["first", "second"], store)
        assert name == "first"

    def test_scaling_does_not_change_argmax(self):
        rng = np.random.default_rng(9)
        names = [f"n{i}" for i in range(4)]
        store = store_of({n: rand_unit(rng, 16) for n in names})
        for _ in range(20):
            patch = rand_unit(rng, 16)
            by_score, _ = best_landmark_match(patch, names, store)
            by_cosine = max(names, key=lambda n: float(np.dot(store.get(n), patch)))
            assert by_score == by_cosine


class TestTextEmbeddingStore:
    def test_loader_normalizes(self):
        store = TextEmbeddingStore({"desk": np.array([3.0, 0.0, 0.0, 4.0])})
        np.testing.assert_allclose(store.get("desk"), [0.6, 0.0, 0.0, 0.8])

    def test_missing_phrase_raises(self):
        store = store_of({"desk": np.array([1.0, 0.0])})
        with pytest.raises(EmbeddingLookupError):
            store.get("sofa")

    def test_unknown_label_constant(self):
        assert UNKNOWN_LABEL == "unknown"
