"""Tests for the k-NN classifier and the two reference baselines.

knn_predict is checked against an exhaustive oracle that re-sorts all
training vectors by similarity and re-applies the documented tie-break
chain from scratch.
"""

import math
import random
from collections import Counter

import pytest

from zhstance.classify import (
    ClassifierError,
    KnnIndex,
    Neighbor,
    Prediction,
    TermSetIndex,
    _LANES,
    baseline0_predict,
    baseline1_predict,
    knn_predict,
    top_k_terms,
    vote_weight,
)
from zhstance.vectorize import SparseVector, TfidfVectorizer, cosine_similarity


def vec(**weights):
    return SparseVector({k: float(v) for k, v in weights.items()})


def unit_idf(terms):
    """A vectorizer with IDF 1.0 (log(2) / log(2)) for every term: raw TF
    weighs a count w as w / 1 * 1.0 == w."""
    return TfidfVectorizer(dict.fromkeys(terms, 1), 2, log_base=2)


def knn_index(train):
    """KnnIndex over hand-made (account_id, label, vector) triples, each
    vector stated as counts under unit_idf, so it is scored as written."""
    unit = unit_idf({term for _, _, v in train for term in v.weights})
    return KnnIndex([(account_id, label, v.weights) for account_id, label, v in train], unit)


def oracle_knn(query, train, k, weighting):
    """Reference prediction: full sort, then the documented vote rules."""
    ranked = sorted(
        ((cosine_similarity(query, v), account_id, label) for account_id, label, v in train),
        key=lambda t: (-t[0], t[1]),
    )[:k]
    votes, sim_sum = {}, {}
    for sim, _, label in ranked:
        votes[label] = votes.get(label, 0.0) + vote_weight(sim, weighting)
        sim_sum[label] = sim_sum.get(label, 0.0) + sim
    top = max(votes.values())
    tied = [lab for lab, v in votes.items() if v == top]
    if len(tied) > 1:
        best = max(sim_sum[lab] for lab in tied)
        tied = [lab for lab in tied if sim_sum[lab] == best]
    label = min(tied)
    neighbor_ids = [account_id for _, account_id, _ in ranked]
    return label, neighbor_ids, votes


def random_knn_instance(rng):
    vocab = [f"t{i}" for i in range(6)]
    labels = ["L0", "L1", "L2"]
    train = []
    for i in range(rng.randrange(1, 13)):
        weights = {t: rng.uniform(0.1, 3.0) for t in rng.sample(vocab, rng.randrange(1, 5))}
        train.append((f"a{i:02d}", rng.choice(labels), SparseVector(weights)))
    q = SparseVector({t: rng.uniform(0.1, 3.0) for t in rng.sample(vocab, rng.randrange(1, 5))})
    k = rng.randrange(1, len(train) + 1)
    weighting = rng.choice(["uniform", "inverse"])
    return q, train, k, weighting


class TestVoteWeight:
    def test_uniform(self):
        assert vote_weight(0.3, "uniform") == 1.0

    def test_inverse(self):
        assert vote_weight(0.5, "inverse") == pytest.approx(1.0 / (0.5 + 1e-9))
        # inverse weighting stays finite at similarity 1
        assert vote_weight(1.0, "inverse") == pytest.approx(1e9)

    def test_unknown_rejected(self):
        with pytest.raises(ClassifierError):
            vote_weight(0.5, "softmax")


class TestKnnPredict:
    TRAIN = [
        ("a1", "X", vec(a=1)),
        ("a2", "X", vec(a=1, b=1)),
        ("a3", "Y", vec(b=1)),
    ]

    def test_basic(self):
        p = knn_predict([vec(a=1)], knn_index(self.TRAIN), k=2)[0]
        assert p.label == "X"
        assert [nb.account_id for nb in p.neighbors] == ["a1", "a2"]
        assert p.neighbors[0].similarity == pytest.approx(1.0)
        assert p.votes == {"X": 2.0}

    def test_similarity_tie_broken_by_id(self):
        train = [("z9", "X", vec(a=1)), ("a1", "Y", vec(a=2))]
        p = knn_predict([vec(a=1)], knn_index(train), k=2)[0]
        assert [nb.account_id for nb in p.neighbors] == ["a1", "z9"]

    def test_vote_tie_prefers_larger_summed_similarity(self):
        # one vote each; Y's neighbor is more similar (2/sqrt5 vs 1/sqrt5),
        # and Y winning shows the similarity tier fires before the
        # lexicographic one
        train = [("a1", "X", vec(a=1)), ("a2", "Y", vec(b=1))]
        p = knn_predict([vec(a=1, b=2)], knn_index(train), k=2)[0]
        assert p.votes == {"X": 1.0, "Y": 1.0}
        assert p.label == "Y"

    def test_full_tie_prefers_smaller_label(self):
        train = [("a1", "Y", vec(a=1)), ("a2", "X", vec(b=1))]
        p = knn_predict([vec(a=1, b=1)], knn_index(train), k=2)[0]
        assert p.neighbors[0].similarity == pytest.approx(p.neighbors[1].similarity)
        assert p.label == "X"

    def test_inverse_weighting_favors_close_neighbor(self):
        train = [
            ("a1", "X", vec(a=1)),
            ("a2", "Y", vec(b=1, c=9)),
            ("a3", "Y", vec(c=1, b=9)),
        ]
        q = vec(a=9, b=1)
        assert knn_predict([q], knn_index(train), k=3, weighting="uniform")[0].label == "Y"
        assert knn_predict([q], knn_index(train), k=3, weighting="inverse")[0].label == "X"

    def test_k_bounds(self):
        with pytest.raises(ClassifierError):
            knn_predict([vec(a=1)], knn_index(self.TRAIN), k=0)
        with pytest.raises(ClassifierError):
            knn_predict([vec(a=1)], knn_index(self.TRAIN), k=4)

    def test_unknown_weighting(self):
        with pytest.raises(ClassifierError):
            knn_predict([vec(a=1)], knn_index(self.TRAIN), k=1, weighting="softmax")

    def test_matches_exhaustive_oracle(self):
        rng = random.Random(500)
        for _ in range(100):
            q, train, k, weighting = random_knn_instance(rng)
            p = knn_predict([q], knn_index(train), k=k, weighting=weighting)[0]
            label, neighbor_ids, votes = oracle_knn(q, train, k, weighting)
            assert p.label == label
            assert [nb.account_id for nb in p.neighbors] == neighbor_ids
            assert p.votes == pytest.approx(votes)

    def test_uniform_votes_sum_to_k(self):
        rng = random.Random(600)
        for _ in range(50):
            q, train, k, _ = random_knn_instance(rng)
            p = knn_predict([q], knn_index(train), k=k, weighting="uniform")[0]
            assert sum(p.votes.values()) == float(k)

    def test_invariant_under_training_permutation(self):
        rng = random.Random(700)
        for _ in range(50):
            q, train, k, weighting = random_knn_instance(rng)
            p1 = knn_predict([q], knn_index(train), k=k, weighting=weighting)[0]
            shuffled_train = list(train)
            rng.shuffle(shuffled_train)
            p2 = knn_predict([q], knn_index(shuffled_train), k=k, weighting=weighting)[0]
            assert p1.label == p2.label
            assert p1.neighbors == p2.neighbors
            assert p1.votes == p2.votes


def oracle_neighbors(query, train, k):
    """Reference neighbors: every similarity computed, then a full sort."""
    ranked = sorted(
        (Neighbor(account_id, label, cosine_similarity(query, v)) for account_id, label, v in train),
        key=lambda nb: (-nb.similarity, nb.account_id),
    )
    return ranked[:k]


def assert_exact(query, train, k):
    """Neighbors, similarities (==, not approx), label and votes all equal
    the exhaustive oracle's, for every weighting and training order."""
    want = oracle_neighbors(query, train, k)
    assert knn_index(train).nearest([query], k) == [want]
    for weighting in ("uniform", "inverse"):
        label, _, votes = oracle_knn(query, train, k, weighting)
        for order in (train, train[::-1]):
            p = knn_predict([query], knn_index(order), k, weighting)[0]
            assert list(p.neighbors) == want
            assert p.label == label
            assert p.votes == votes


class TestKnnIndexEdgeCases:
    def test_duplicate_vectors_in_different_insertion_orders(self):
        # The query has a term no training vector has, so the exact dot
        # product walks each training dict in its own insertion order:
        # (0.1 + 0.2) + 0.3 and (0.3 + 0.2) + 0.1 can differ by an ulp.
        # The accumulated scores are identical, so only the exact
        # re-score can order the copies.
        query = vec(a=1, b=1, c=1, d=1)
        forward = SparseVector({"a": 0.1, "b": 0.2, "c": 0.3})
        backward = SparseVector({"c": 0.3, "b": 0.2, "a": 0.1})
        train = [("d1", "X", forward), ("d0", "Y", backward),
                 ("d2", "X", SparseVector(dict(backward.weights))),
                 ("d3", "Y", SparseVector(dict(forward.weights))),
                 ("z", "Y", vec(e=1))]
        for k in range(1, len(train) + 1):
            assert_exact(query, train, k)

    def test_near_duplicates_straddling_the_margin(self):
        # Copies of one vector, each weight nudged by a few ulps and the
        # terms shuffled: their exact scores lie closer together than the
        # re-score margin, on both sides of the k-th best.
        rng = random.Random(11)
        for _ in range(200):
            base = {f"t{i}": rng.uniform(0.1, 3.0) for i in range(rng.randrange(2, 40))}
            query = SparseVector({**{t: rng.uniform(0.1, 3.0) for t in base}, "extra": 1.0})
            train = []
            for j in range(rng.randrange(2, 10)):
                items = [(t, w if rng.random() < 0.5 else math.nextafter(w, 4.0 * rng.random()))
                         for t, w in base.items()]
                rng.shuffle(items)
                train.append((f"n{rng.randrange(100):02d}{j}", rng.choice("XY"), SparseVector(dict(items))))
            assert_exact(query, train, rng.randrange(1, len(train) + 1))

    def test_empty_query_picks_smallest_ids_at_zero(self):
        train = [("c", "X", vec(a=1)), ("a", "Y", vec(b=2)), ("b", "X", vec(a=1, b=1))]
        for k in (1, 2, 3):
            got = knn_index(train).nearest([SparseVector({})], k)[0]
            assert got == [Neighbor(i, lab, 0.0) for i, lab in (("a", "Y"), ("b", "X"), ("c", "X"))][:k]
            assert_exact(SparseVector({}), train, k)

    def test_zero_norm_training_vectors(self):
        train = [("a", "X", SparseVector({})), ("b", "Y", vec(p=0)),
                 ("c", "Y", SparseVector({"p": 1e-200})),  # its norm underflows to 0
                 ("d", "X", vec(p=1, q=1)), ("e", "Y", vec(q=3))]
        for k in range(1, 6):
            assert_exact(vec(p=2, q=1), train, k)
            assert_exact(vec(r=1), train, k)

    def test_k_exceeds_overlapping_accounts(self):
        train = [(f"a{i}", "XY"[i % 2], vec(**{f"t{i}": 1})) for i in range(6)]
        train.append(("b0", "X", vec(t1=1, t3=2)))
        for k in range(1, 8):
            assert_exact(vec(t1=1, t3=1), train, k)

    def test_rescore_slack_is_not_halved(self):
        # x sits on the query's 64 "s" terms and y on its one "t" term, so
        # every quantised weight of x errs upwards by a whole unit, or
        # nearly: x's lane beats y's by more than half the slack, while y's
        # cosine is the larger. Half the slack would leave y out.
        query = SparseVector({**{f"s{i}": 1.0 for i in range(64)}, "t": 8.0001})
        x = SparseVector({f"s{i}": 1.0 for i in range(64)})
        y = vec(t=1)

        def lane(v):
            return sum((int(w * 2 ** 15 / v.norm) + 1) * (int(query.weights[t] * 2 ** 15 / query.norm) + 1)
                       for t, w in v.weights.items())
        n = len(query)
        slack = (2 * math.isqrt(n) + 3) * 2 ** 15 + 2 * (n + 4)
        assert slack / 2 < lane(x) - lane(y) <= slack
        assert cosine_similarity(query, y) > cosine_similarity(query, x)
        assert_exact(query, [("x", "X", x), ("y", "Y", y)], 1)

    @pytest.mark.parametrize("counts, terms, dot", [
        ({"a": 10 ** 16, "b": 1, "c": 1, "d": 1}, "bca", 1e16 + 2),  # over the query's terms
        ({"a": 10 ** 16, "b": 1, "c": 1, "u": 3}, "bca", 1e16 + 2),  # as long: the query's still
        ({"a": 10 ** 16, "b": 1, "c": 1, "u": 3}, "bcax", 1e16),  # over the account's counts
    ], ids=["query-shorter", "as-long", "query-longer"])
    def test_rescore_adds_in_dots_order(self, counts, terms, dot):
        # 1e16 + 1 rounds back to 1e16, so (1e16 + 1) + 1 and (1 + 1) + 1e16
        # differ: the re-score must add in dot()'s order. u's IDF is 0, so
        # u's weight is absent and the account has three nonzero weights,
        # against the query's three or four.
        vectorizer = TfidfVectorizer({"a": 1, "b": 1, "c": 1, "d": 1, "u": 2}, 2, log_base=2)
        query = SparseVector(dict.fromkeys(terms, 1.0))
        vector = vectorizer.transform(counts)
        got = KnnIndex([("x", "X", counts)], vectorizer).nearest([query], 1)[0][0].similarity
        assert got == dot / (query.norm * vector.norm) == cosine_similarity(query, vector)

    def test_negative_weights_rejected(self):
        with pytest.raises(ClassifierError):
            knn_index([("a", "X", vec(p=-1))])
        with pytest.raises(ClassifierError):
            knn_predict([vec(p=-1)], knn_index([("a", "X", vec(p=1))]), k=1)


def random_batch(rng):
    """A training set and a batch of 1-40 queries mixing every edge the
    lanes have: empty, zero-norm and disjoint queries, duplicates, weights
    whose normalised value is subnormal, and near-ties inside the slack."""
    vocab = [f"t{i}" for i in range(6)]
    base = {f"t{i}": rng.uniform(0.1, 3.0) for i in range(rng.randrange(2, 6))}
    train = []
    for i in range(rng.randrange(1, 14)):
        if rng.random() < 0.4:
            # test_near_duplicates_straddling_the_margin's recipe
            items = [(t, w if rng.random() < 0.5 else math.nextafter(w, 4.0 * rng.random()))
                     for t, w in base.items()]
            rng.shuffle(items)
            weights = dict(items)
        else:
            weights = {t: rng.uniform(0.1, 3.0) for t in rng.sample(vocab, rng.randrange(0, 4))}
        if rng.random() < 0.3:
            weights[rng.choice(["tiny", "t0"])] = rng.randrange(1, 10**6) * 5e-324
        if rng.random() < 0.1:
            weights["zero"] = 0.0
        train.append((f"a{rng.randrange(100):02d}{i}", rng.choice("XYZ"), SparseVector(weights)))
    queries = []
    for _ in range(rng.randrange(1, 41)):
        kind = rng.randrange(8)
        if kind == 0:
            weights = rng.choice([{}, {"t0": 0.0}, {"t1": 1e-200}])  # norm 0
        elif kind == 1:
            weights = {"unseen": rng.uniform(0.1, 3.0)}
        elif kind == 2 and queries:
            queries.append(rng.choice(queries))
            continue
        elif kind == 3:
            weights = {"tiny": rng.uniform(0.1, 3.0), rng.choice(vocab): rng.uniform(0.1, 3.0) * 1e-310}
        elif kind in (4, 5):
            weights = {**{t: rng.uniform(0.1, 3.0) for t in base}, "extra": 1.0}
        else:
            weights = {t: rng.uniform(0.1, 3.0) for t in rng.sample(vocab, rng.randrange(1, 5))}
        queries.append(SparseVector(weights))
    return train, queries


class TestNearestMany:
    def test_batches_match_the_oracle_and_single_queries(self):
        rng = random.Random(1300)
        for _ in range(40):
            train, queries = random_batch(rng)
            index = knn_index(train)
            for k in range(1, len(train) + 1):
                got = index.nearest(queries, k)
                assert len(got) == len(queries)
                for query, neighbors in zip(queries, got):
                    want = oracle_neighbors(query, train, k)
                    assert neighbors == want
                    assert index.nearest([query], k) == [want]

    def test_batches_across_pass_boundaries(self):
        # A full pass, one query over it (two passes of equal size), and
        # two passes' worth plus one (three passes): every query still gets
        # the oracle's neighbours, whichever pass and lane it lands in.
        rng = random.Random(1800)
        for size in (_LANES, _LANES + 1, 2 * _LANES + 1):
            for _ in range(3):
                train, queries = random_batch(rng)
                batch = [queries[j % len(queries)] for j in range(size)]
                rng.shuffle(batch)
                index = knn_index(train)
                for k in {1, len(train) // 2 + 1, len(train)}:
                    got = index.nearest(batch, k)
                    assert len(got) == size
                    assert got == [oracle_neighbors(query, train, k) for query in batch]

    def test_rescores_from_counts_with_no_transform(self, monkeypatch):
        # Three passes: every candidate is re-scored from the index's counts,
        # so no training account is transformed, and one account is still
        # re-scored for queries of two passes with the oracle's similarity.
        def refused(self, counts):
            raise AssertionError("a training account was transformed")

        train, queries = random_batch(random.Random(2500))  # 8 accounts, 20 queries
        batch = [queries[j % len(queries)] for j in range(2 * _LANES + 1)]
        index = knn_index(train)
        monkeypatch.setattr(TfidfVectorizer, "transform", refused)
        got = index.nearest(batch, 3)
        assert got == [oracle_neighbors(query, train, 3) for query in batch]
        third = len(batch) // 3  # the size of each pass
        first, last = ({nb.account_id for nbs in got[part] for nb in nbs if nb.similarity > 0.0}
                       for part in (slice(0, third), slice(2 * third, None)))
        assert first & last  # some account is re-scored for queries of two passes

    def test_self_matches_fill_a_lane_without_carrying(self):
        # A query equal to a training vector puts about 2**30 in that
        # account's lane, the most a lane holds: were lanes narrower than
        # that, it would spill into the next query's lane or past the top.
        rng = random.Random(18)
        train = []
        for i in range(20):
            weights = {f"t{rng.randrange(12)}": rng.uniform(0.1, 3.0) for _ in range(rng.randrange(1, 6))}
            train.append((f"a{i:02d}", "XY"[i % 2], SparseVector(weights)))
        queries = [v for _, _, v in train]
        rng.shuffle(queries)
        got = knn_index(train).nearest(queries, 3)
        assert got == [oracle_neighbors(query, train, 3) for query in queries]
        assert all(neighbors[0].similarity > 0.999 for neighbors in got)

    def test_subnormal_normalised_weights_outrank_zero(self):
        # The shared term's products are subnormal, but positive: each
        # quantised weight is at least 1, so the lane is not zero.
        train = [("a", "X", vec(p=1)), ("b", "Y", SparseVector({"q": 1.0, "r": 1e-310})),
                 ("c", "X", SparseVector({"p": 1.0, "r": 5e-324}))]
        got = knn_index(train).nearest([vec(r=1), SparseVector({"p": 1e-310, "s": 1.0})], 2)
        assert [[nb.account_id for nb in nbs] for nbs in got] == [["b", "c"], ["a", "c"]]
        assert 0.0 < got[0][0].similarity < 1e-300

    def test_knn_predict_takes_a_batch(self):
        train = [(f"a{i}", "XY"[i % 2], vec(**{f"t{i % 3}": i + 1})) for i in range(6)]
        queries = [vec(t0=1), vec(), vec(t1=2, t2=1)]
        index = knn_index(train)
        for weighting in ("uniform", "inverse"):
            assert knn_predict(queries, index, 3, weighting) == [
                knn_predict([q], index, 3, weighting)[0] for q in queries]

    @pytest.mark.parametrize("index, predict, query", [
        (knn_index([("a", "X", vec(p=1))]), knn_predict, vec(p=1)),
        (TermSetIndex([("a", "X", frozenset({"p"}))]), baseline1_predict, frozenset({"p"})),
    ], ids=["knn", "baseline1"])
    def test_empty_batch_checks_nothing(self, index, predict, query):
        assert index.nearest([], 1000) == []
        assert predict([], index, 1000) == []
        with pytest.raises(ClassifierError):
            index.nearest([query], 2)

    def test_norms_outside_the_lane_range_rejected(self):
        for weights in ({"p": 1e-160}, {"p": 1e140}):
            with pytest.raises(ClassifierError, match="norm"):
                knn_index([("a", "X", SparseVector(weights))])
            with pytest.raises(ClassifierError, match="norm"):
                knn_index([("a", "X", vec(p=1))]).nearest([SparseVector(weights)], 1)


class TestBaseline0:
    def test_majority(self):
        p = baseline0_predict(["X", "Y", "X"])
        assert p.label == "X"
        assert p.votes == {"X": 2.0, "Y": 1.0}
        assert p.neighbors == ()

    def test_tie_prefers_smaller_label(self):
        assert baseline0_predict(["Y", "X"]).label == "X"

    def test_empty_rejected(self):
        with pytest.raises(ClassifierError):
            baseline0_predict([])


class TestTopKTerms:
    def test_frequency_ranking(self):
        tokens = ["b", "a", "b", "c", "b", "a"]
        assert top_k_terms(Counter(tokens), 2) == ("b", "a")

    def test_frequency_ties_break_lexicographically(self):
        assert top_k_terms(Counter(["b", "a", "c"]), 3) == ("a", "b", "c")

    def test_stopwords_removed_before_ranking(self):
        tokens = ["the", "the", "the", "a", "b"]
        assert top_k_terms(Counter(tokens), 2, stopwords=frozenset({"the"})) == ("a", "b")

    def test_short_documents_yield_all_terms(self):
        assert top_k_terms(Counter(["a", "b"]), 25) == ("a", "b")
        assert top_k_terms(Counter(), 5) == ()

    def test_bad_n_rejected(self):
        with pytest.raises(ClassifierError):
            top_k_terms(Counter(["a"]), 0)


class TestBaseline1:
    def test_predict_orders_by_distance_then_id(self):
        train = [
            ("a3", "X", frozenset({"p", "q"})),
            ("a1", "Y", frozenset({"p", "q", "r", "s"})),
            ("a2", "X", frozenset({"p", "q"})),
        ]
        p = baseline1_predict([("p", "q")], TermSetIndex(train), k=2)[0]
        assert [nb.account_id for nb in p.neighbors] == ["a2", "a3"]
        assert p.label == "X"
        assert p.neighbors[0].similarity == 1.0  # distance 0

    def test_similarity_is_reciprocal_distance(self):
        train = [("a1", "X", frozenset({"p", "q", "r"}))]
        p = baseline1_predict([("p",)], TermSetIndex(train), k=1)[0]
        assert p.neighbors[0].similarity == pytest.approx(1.0 / 3.0)

    def test_vote_tie_prefers_closer_neighbor(self):
        train = [
            ("a1", "Y", frozenset({"p"})),
            ("a2", "X", frozenset({"p", "q", "r"})),
        ]
        p = baseline1_predict([("p",)], TermSetIndex(train), k=2)[0]
        assert p.votes == {"Y": 1.0, "X": 1.0}
        assert p.label == "Y"  # distance 0 beats distance 2

    def test_k_bounds(self):
        train = [("a1", "X", frozenset({"p"}))]
        with pytest.raises(ClassifierError):
            baseline1_predict([("p",)], TermSetIndex(train), k=0)
        with pytest.raises(ClassifierError):
            baseline1_predict([("p",)], TermSetIndex(train), k=2)

    def test_counts_above_255_widen_the_lanes(self):
        # 300 shared terms do not fit an 8-bit lane: a count that wrapped
        # would give a distance above 0, and its carry would move the next
        # query's count for the same account.
        wide = frozenset(f"t{i}" for i in range(300))
        index = TermSetIndex([("a1", "X", wide), ("a2", "Y", frozenset({"p", "q"}))])
        p = baseline1_predict([wide], index, k=2)[0]
        assert [(nb.account_id, nb.similarity) for nb in p.neighbors] == [("a1", 1.0), ("a2", 1.0 / 303.0)]
        alone = baseline1_predict([("p",)], index, k=2)[0]
        assert baseline1_predict([wide, frozenset({"p"})], index, k=2) == [p, alone]
