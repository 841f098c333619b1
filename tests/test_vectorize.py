"""Tests for TF-IDF vectors, cosine similarity, and their invariances."""

import math
import random
from collections import Counter

import pytest

from zhstance.vectorize import (
    SparseVector,
    TfidfVectorizer,
    VectorizerError,
    cosine_similarity,
    dot,
    fit_vectorizer,
)


def random_documents(rng, n_docs=20, vocab_size=12):
    vocab = [f"t{i:02d}" for i in range(vocab_size)]
    docs = []
    for _ in range(n_docs):
        length = rng.randrange(5, 30)
        docs.append(Counter([rng.choice(vocab) for _ in range(length)]))
    return docs


class TestSparseVector:
    def test_norm(self):
        v = SparseVector({"a": 3.0, "b": 4.0})
        assert v.norm == 5.0
        assert len(v) == 2

    def test_zero_vector(self):
        assert SparseVector({}).norm == 0.0

    def test_zero_weights_not_stored(self):
        weights = {"a": 1.0, "zero": 0.0, "b": -0.0}
        v = SparseVector(weights)
        assert v.weights == {"a": 1.0} and len(v) == 1
        assert weights == {"a": 1.0, "zero": 0.0, "b": -0.0}  # the caller's dict is not changed
        kept = {"a": 1.0}
        assert SparseVector(kept).weights is kept

    def test_stored_zero_leaves_cosine_bit_identical(self):
        # with the zero stored, the 4-term vector and the 4-term query tie
        # on length, dot walks the query instead, and the sum's order
        # moved the last bit: 0.8480900561049907 against ...904
        query = SparseVector({"a": 2.2, "b": 2.7, "c": 2.1, "d": 1.5})
        plain = SparseVector({"c": 0.4, "b": 1.4, "a": 1.9})
        padded = SparseVector({"c": 0.4, "b": 1.4, "a": 1.9, "zero": 0.0})
        assert cosine_similarity(query, padded) == cosine_similarity(query, plain) == 0.8480900561049907
        assert cosine_similarity(padded, query) == cosine_similarity(plain, query)


class TestDotAndCosine:
    def test_dot_known_value(self):
        u = SparseVector({"a": 1.0, "b": 2.0})
        v = SparseVector({"b": 3.0, "c": 4.0})
        assert dot(u, v) == 6.0

    def test_cosine_known_value(self):
        u = SparseVector({"a": 1.0})
        v = SparseVector({"a": 1.0, "b": 1.0})
        assert cosine_similarity(u, v) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_symmetry(self):
        rng = random.Random(7)
        for _ in range(50):
            u = SparseVector({f"t{i}": rng.uniform(0, 5) for i in range(rng.randrange(0, 6))})
            v = SparseVector({f"t{i}": rng.uniform(0, 5) for i in range(rng.randrange(0, 6))})
            assert abs(cosine_similarity(u, v) - cosine_similarity(v, u)) <= 1e-12

    def test_bounds_for_nonnegative_weights(self):
        rng = random.Random(8)
        for _ in range(100):
            u = SparseVector({f"t{i}": rng.uniform(0, 5) for i in range(rng.randrange(1, 8))})
            v = SparseVector({f"t{i}": rng.uniform(0, 5) for i in range(rng.randrange(1, 8))})
            sim = cosine_similarity(u, v)
            assert -1e-12 <= sim <= 1.0 + 1e-12

    def test_self_similarity_is_one(self):
        rng = random.Random(9)
        for _ in range(50):
            u = SparseVector({f"t{i}": rng.uniform(0.1, 5) for i in range(rng.randrange(1, 8))})
            assert cosine_similarity(u, u) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_support_is_exactly_zero(self):
        u = SparseVector({"a": 1.0, "b": 2.0})
        v = SparseVector({"c": 3.0})
        assert cosine_similarity(u, v) == 0.0

    def test_zero_norm_is_zero_similarity(self):
        z = SparseVector({})
        u = SparseVector({"a": 1.0})
        assert cosine_similarity(z, u) == 0.0
        assert cosine_similarity(u, z) == 0.0
        assert cosine_similarity(z, z) == 0.0


class TestFitVectorizer:
    def test_document_frequencies(self):
        vec = fit_vectorizer([Counter(["a", "a", "b"]), Counter(["b", "c"]), Counter(["b"])])
        assert vec.document_frequency == {"a": 1, "b": 3, "c": 1}
        assert vec.corpus_size == 3

    def test_empty_corpus_rejected(self):
        with pytest.raises(VectorizerError):
            fit_vectorizer([])

    def test_empty_documents_contribute_nothing(self):
        vec = fit_vectorizer([Counter(), Counter(["a"])])
        assert vec.document_frequency == {"a": 1}
        assert vec.corpus_size == 2

    @pytest.mark.parametrize("kwargs", [
        {"tf_mode": "binary"},
        {"log_base": 1.0},
        {"log_base": 0.5},
    ])
    def test_invalid_configuration_rejected(self, kwargs):
        with pytest.raises(VectorizerError):
            fit_vectorizer([Counter(["a"])], **kwargs)


class TestIdf:
    # a term seen once has weight 1 * idf under raw tf
    def test_values(self):
        vec = fit_vectorizer([Counter(["a"]), Counter(["a", "b"]), Counter(["c"]), Counter(["c"])])
        weights = vec.transform(Counter(["a", "b", "missing"])).weights
        assert weights == pytest.approx({"a": math.log(4 / 2), "b": math.log(4 / 1)}, abs=1e-15)

    def test_log_base(self):
        vec = fit_vectorizer([Counter(["a"]), Counter(["b"])], log_base=10.0)
        assert vec.transform(Counter(["a"])).weights["a"] == pytest.approx(math.log10(2), abs=1e-15)

    def test_universal_term_has_zero_idf(self):
        # a zero weight is not stored
        vec = fit_vectorizer([Counter(["a", "b"]), Counter(["a"])])
        assert vec.transform(Counter(["a", "b"])).weights == {"b": math.log(2)}


class TestTransform:
    def test_raw_counts(self):
        vec = fit_vectorizer([Counter(["a", "b"]), Counter(["b"])])
        v = vec.transform(Counter(["a", "a", "b"]))
        assert v.weights == {"a": pytest.approx(2 * math.log(2))}

    def test_relative_counts(self):
        vec = fit_vectorizer([Counter(["a", "b"]), Counter(["b"])], tf_mode="relative")
        v = vec.transform(Counter(["a", "a", "b", "b"]))
        assert v.weights == {"a": pytest.approx(0.5 * math.log(2))}

    def test_out_of_vocabulary_dropped(self):
        vec = fit_vectorizer([Counter(["a"]), Counter(["b"])])
        assert vec.transform(Counter(["zzz", "a"])).weights == {"a": pytest.approx(math.log(2))}

    def test_zero_weights_not_stored(self):
        # 'b' appears in every training document, so its idf is 0 and it
        # must not appear in the sparse weights at all
        vec = fit_vectorizer([Counter(["a", "b"]), Counter(["b"])])
        v = vec.transform(Counter(["a", "b"]))
        assert "b" not in v.weights

    def test_empty_tokens(self):
        vec = fit_vectorizer([Counter(["a"]), Counter(["b"])])
        v = vec.transform(Counter())
        assert v.weights == {}
        assert v.norm == 0.0


class TestRankingInvariance:
    """Cosine rankings are invariant to TF normalization (per-document
    positive scaling) and to the IDF log base (global positive scaling)."""

    CONFIGS = (
        {"tf_mode": "raw", "log_base": None},
        {"tf_mode": "raw", "log_base": 10.0},
        {"tf_mode": "relative", "log_base": None},
        {"tf_mode": "relative", "log_base": 10.0},
    )

    @staticmethod
    def ranking(documents, query, **kwargs):
        vec = fit_vectorizer(documents, **kwargs)
        q = vec.transform(query)
        sims = []
        for i, tokens in enumerate(documents):
            sims.append((-cosine_similarity(q, vec.transform(tokens)), i))
        return [i for _, i in sorted(sims)], sorted(s for s, _ in sims)

    def test_rankings_agree_across_configs(self):
        rng = random.Random(2024)
        for _ in range(5):
            documents = random_documents(rng)
            query = Counter([rng.choice([f"t{i:02d}" for i in range(12)]) for _ in range(15)])
            base_order, base_sims = self.ranking(documents, query, **self.CONFIGS[0])
            # the check is only meaningful when the baseline ranking has
            # no near-ties that rounding could reorder
            gaps = [b - a for a, b in zip(base_sims, base_sims[1:])]
            assert all(g > 1e-9 or g == 0.0 for g in gaps)
            for config in self.CONFIGS[1:]:
                order, _ = self.ranking(documents, query, **config)
                assert order == base_order
