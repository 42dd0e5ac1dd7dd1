import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from objsearch.errors import AssetError, EmbeddingLookupError, SchemaError
from objsearch.knowledge import (
    GenerationTable,
    WordVectorStore,
    cooccurrence,
    phrase_vector,
)


def toy_store(**vectors):
    return WordVectorStore({w: np.asarray(v, dtype=float) for w, v in vectors.items()})


class TestWordVectorStore:
    def test_parses_line_format(self):
        store = WordVectorStore.loads("desk 1.0 0.0\nbed 0.0 2.0\n")
        np.testing.assert_allclose(store.get("desk"), [1.0, 0.0])
        assert "bed" in store
        assert store.dim == 2

    def test_lookup_is_case_insensitive(self):
        store = toy_store(Desk=[1.0, 0.0])
        np.testing.assert_allclose(store.get("DESK"), [1.0, 0.0])

    def test_missing_word(self):
        store = toy_store(desk=[1.0, 0.0])
        with pytest.raises(EmbeddingLookupError):
            store.get("bed")

    def test_inconsistent_dims_rejected(self):
        with pytest.raises(AssetError):
            WordVectorStore({"a": np.array([1.0]), "b": np.array([1.0, 2.0])})

    def test_nonfinite_rejected(self):
        with pytest.raises(AssetError):
            toy_store(a=[np.inf, 0.0])

    def test_dump_roundtrip(self, tmp_path):
        p = tmp_path / "words.txt"
        p.write_text("# comment\nbed 3.000000 0.000000\n\ndesk 0.250000 -1.500000\n",
                     encoding="utf-8")
        loaded = WordVectorStore.load(p)
        assert len(loaded) == 2 and loaded.dim == 2
        np.testing.assert_allclose(loaded.get("desk"), [0.25, -1.5], atol=1e-6)
        np.testing.assert_allclose(loaded.get("bed"), [3.0, 0.0], atol=1e-6)


class TestPhraseVector:
    def test_single_word_is_normalized_vector(self):
        store = toy_store(desk=[3.0, 4.0])
        np.testing.assert_allclose(phrase_vector("desk", store), [0.6, 0.8])

    def test_two_word_mean(self):
        store = toy_store(coffee=[1.0, 0.0], table=[0.0, 1.0])
        v = phrase_vector("coffee table", store)
        np.testing.assert_allclose(v, [math.sqrt(0.5), math.sqrt(0.5)], atol=1e-12)

    def test_oov_words_skipped(self):
        store = toy_store(table=[0.0, 1.0])
        np.testing.assert_allclose(phrase_vector("zorp table", store), [0.0, 1.0])

    def test_fully_oov_phrase_errors(self):
        store = toy_store(table=[0.0, 1.0])
        with pytest.raises(EmbeddingLookupError):
            phrase_vector("zorp blarg", store)

    def test_unit_norm(self, ctx):
        for phrase in ("desk", "coffee table", "tv monitor", "remote control"):
            assert np.linalg.norm(phrase_vector(phrase, ctx.words)) == pytest.approx(
                1.0, abs=1e-9
            )


class TestGenerationTable:
    def test_load_and_lookup(self):
        table = GenerationTable.loads('{"book": ["desk", "library"]}')
        assert "book" in table
        assert table.get("book") == ["desk", "library"]

    def test_length_limits(self):
        with pytest.raises(SchemaError):
            GenerationTable({"book": []})
        with pytest.raises(SchemaError):
            GenerationTable({"book": ["x"] * 21})

    def test_case_insensitive(self):
        table = GenerationTable({"Book": ["desk"]})
        assert "BOOK" in table

    def test_bad_json(self):
        with pytest.raises(SchemaError):
            GenerationTable.loads("[1,2]")


class TestCooccurrence:
    def test_exact_phrase_match_scores_one(self):
        store = toy_store(desk=[1.0, 0.0], shelf=[0.0, 1.0])
        table = GenerationTable({"book": ["desk", "shelf"]})
        assert cooccurrence("book", "desk", table, store) == pytest.approx(1.0)

    def test_orthogonal_generations_score_zero(self):
        store = toy_store(desk=[1.0, 0.0], shelf=[0.0, 1.0])
        table = GenerationTable({"book": ["shelf"]})
        assert cooccurrence("book", "desk", table, store) == pytest.approx(0.0, abs=1e-12)

    def test_toy_two_dim_enumeration(self):
        store = toy_store(desk=[1.0, 0.0], a=[1.0, 0.0], b=[0.0, 1.0])
        table = GenerationTable({"thing": ["a", "b"]})
        # cosines are 1 and 0; the max is 1
        assert cooccurrence("thing", "desk", table, store) == pytest.approx(1.0)

    def test_missing_target_uses_fallback(self):
        store = toy_store(desk=[1.0, 0.0])
        table = GenerationTable({"book": ["desk"]})
        assert cooccurrence("flux capacitor", "desk", table, store) == 0.5
        assert cooccurrence("flux capacitor", "desk", table, store, p_fallback=0.25) == 0.25

    def test_oov_landmark_errors(self):
        store = toy_store(desk=[1.0, 0.0])
        table = GenerationTable({"book": ["desk"]})
        with pytest.raises(EmbeddingLookupError):
            cooccurrence("book", "qwertyuiop", table, store)

    def test_oov_generations_skipped(self):
        store = toy_store(desk=[1.0, 0.0], shelf=[0.0, 1.0])
        table = GenerationTable({"book": ["zorp", "shelf"]})
        assert cooccurrence("book", "desk", table, store) == pytest.approx(0.0, abs=1e-12)

    def test_all_generations_oov_errors(self):
        store = toy_store(desk=[1.0, 0.0])
        table = GenerationTable({"book": ["zorp"]})
        with pytest.raises(EmbeddingLookupError):
            cooccurrence("book", "desk", table, store)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_generation_list(self, seed):
        rng = np.random.default_rng(seed)
        words = {f"w{i}": rng.standard_normal(6) for i in range(8)}
        store = WordVectorStore(words)
        gens = [f"w{i}" for i in range(1, 8)]
        base = None
        for k in range(1, len(gens) + 1):
            table = GenerationTable({"t": gens[:k]})
            score = cooccurrence("t", "w0", table, store)
            if base is not None:
                assert score >= base - 1e-12
            base = score

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_permutation_and_scaling_invariance(self, seed):
        rng = np.random.default_rng(seed)
        words = {f"w{i}": rng.standard_normal(5) for i in range(6)}
        gens = [f"w{i}" for i in range(1, 6)]
        score = cooccurrence(
            "t", "w0", GenerationTable({"t": gens}), WordVectorStore(words)
        )
        perm = [gens[i] for i in rng.permutation(len(gens))]
        score_perm = cooccurrence(
            "t", "w0", GenerationTable({"t": perm}), WordVectorStore(words)
        )
        assert score_perm == pytest.approx(score, abs=1e-12)
        scale = float(rng.uniform(0.1, 9.0))
        scaled = WordVectorStore({w: v * scale for w, v in words.items()})
        score_scaled = cooccurrence("t", "w0", GenerationTable({"t": gens}), scaled)
        assert score_scaled == pytest.approx(score, abs=1e-9)

    def test_range_bounds(self, ctx):
        for target in ("book", "cup", "pillow"):
            for landmark in ("desk", "bed", "sofa", "armchair", "coffee table"):
                v = cooccurrence(target, landmark, ctx.generations, ctx.words)
                assert -1.0 <= v <= 1.0


class TestShippedAssets:
    def test_vocabulary_size_and_dim(self, ctx):
        assert 900 <= len(ctx.words) <= 1100
        assert ctx.words.dim == 50

    def test_every_generation_phrase_embeddable(self, ctx):
        for target in ctx.generations.targets():
            for gen in ctx.generations.get(target):
                phrase_vector(gen, ctx.words)

    def test_entity_names_nearly_orthogonal(self, ctx):
        # distinct object/landmark names must not cross the match threshold
        objects = [
            "book", "cup", "laptop", "cellphone", "remote control",
            "alarm clock", "bowl", "pillow", "teddy bear", "spray bottle",
        ]
        landmarks = [
            "tv monitor", "sofa", "dining table", "armchair", "side table",
            "coffee table", "desk", "bed", "drawer",
        ]
        for obj in objects:
            ov = phrase_vector(obj, ctx.words)
            for lm in landmarks:
                cos = float(np.dot(ov, phrase_vector(lm, ctx.words)))
                assert abs(cos) < 0.29, (obj, lm, cos)
        for i, a in enumerate(objects):
            for b in objects[i + 1 :]:
                cos = float(np.dot(phrase_vector(a, ctx.words), phrase_vector(b, ctx.words)))
                assert abs(cos) < 0.29, (a, b, cos)
