"""Stance predictors: cosine k-NN plus two reference baselines.

All predictors are pure functions over an immutable training snapshot.
k-NN and baseline1 take a list of queries and return one Prediction per
query; baseline0 takes none. A Prediction carries the chosen label, the
consulted neighbors, and the per-label vote tallies. Tie-breaks are
content-based throughout, so shuffling the training list never changes a
prediction.
"""

from __future__ import annotations

import heapq
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from math import isqrt, sqrt

from .vectorize import SparseVector, TfidfVectorizer, cosine_similarity  # perfbench/spans.py counts its calls

WEIGHTINGS = ("uniform", "inverse")
EPSILON = 1e-9
_BITS = 15  # a unit weight becomes about 2**15 in the k-NN lanes
_LANE_BYTES = 448  # of lanes per accumulator: each stays within CPython's 512-byte small objects
_MIN_NORM = 2.0 ** -450

KnnExample = tuple[str, str, dict[str, int]]  # (account_id, label, term counts)
SetExample = tuple[str, str, frozenset[str]]


class ClassifierError(ValueError):
    """Raised for invalid classifier arguments."""


@dataclass(frozen=True)
class Neighbor:
    account_id: str
    label: str
    similarity: float


@dataclass(frozen=True)
class Prediction:
    label: str
    neighbors: tuple[Neighbor, ...]
    votes: dict[str, float]


def vote_weight(similarity: float, weighting: str) -> float:
    """1 per neighbor, or 1/(1 - similarity + eps) to favor near neighbors."""
    if weighting == "uniform":
        return 1.0
    if weighting == "inverse":
        return 1.0 / (1.0 - similarity + EPSILON)
    raise ClassifierError(f"unknown weighting {weighting!r}")


def _check_k(k: int, train_size: int):
    if k < 1:
        raise ClassifierError(f"k must be at least 1, got {k}")
    if k > train_size:
        raise ClassifierError(f"k={k} exceeds training set size {train_size}")


def _vote(neighbors: list[Neighbor], weighting: str) -> Prediction:
    votes: dict[str, float] = {}
    sim_sum: dict[str, float] = {}
    for nb in neighbors:
        votes[nb.label] = votes.get(nb.label, 0.0) + vote_weight(nb.similarity, weighting)
        sim_sum[nb.label] = sim_sum.get(nb.label, 0.0) + nb.similarity
    top = max(votes.values())
    tied = [label for label, v in votes.items() if v == top]
    if len(tied) > 1:
        top_sim = max(sim_sum[label] for label in tied)
        tied = [label for label in tied if sim_sum[label] == top_sim]
    return Prediction(min(tied), tuple(neighbors), votes)


def _check_vector(negative: bool, norm: float):
    if negative:
        raise ClassifierError("k-NN vectors must have non-negative weights")
    if norm and not _MIN_NORM <= norm <= 1.0 / _MIN_NORM:
        raise ClassifierError(f"k-NN vector norm {norm!r} is outside [2**-450, 2**450]")


def _width(top: int) -> tuple[int, str]:
    """The narrowest of 1, 2, 4 or 8 bytes that holds `top`, and its memoryview format."""
    return next((w, f) for w, f in ((1, "B"), (2, "H"), (4, "I"), (8, "Q")) if top < 256 ** w)


def _lanes(m: int, top: int):
    """Query j's shift among m lanes of one int, each _width(top) bytes, in
    the byte order memoryview.cast reads; and a reader that turns such ints,
    one per account, into per-query columns."""
    width, fmt = _width(top)

    def columns(acc: Iterable[int]):
        joined = bytearray()  # grown in place: no list of parts beside it
        for a in acc:
            joined += a.to_bytes(width * m, sys.byteorder)
        view = memoryview(joined).cast(fmt)
        return (view[j::m].tolist() for j in range(m))
    return [8 * width * (j if sys.byteorder == "little" else m - 1 - j) for j in range(m)], columns


def _passes(queries: list, top: int, lane_ints, accumulate):
    """Each query and its column, in order, from passes of equal size with at most _LANE_BYTES
    of lanes for `top` per accumulator. A pass ORs each (term, V) of lane_ints(query) into one lane
    dict, dropped once accumulate(lanes.get) is decoded; the next starts once its last column is taken."""
    m = len(queries)
    step = -(-m // -(-m // (_LANE_BYTES // _width(top)[0])))
    for start in range(0, m, step):
        batch = queries[start:start + step]
        shifts, columns = _lanes(len(batch), top)
        lanes = {}  # {term: lane int}, then the pass's columns
        for shift, query in zip(shifts, batch):
            for term, v in lane_ints(query):
                lanes[term] = lanes.get(term, 0) | v << shift
        lanes = columns(accumulate(lanes.get))
        yield from zip(batch, lanes)


class KnnIndex:
    """Training accounts in account_id order, each kept as its term counts,
    its TF-IDF norm under the fitted vectorizer (transform's weights, added
    left to right) and its number of nonzero weights. No training vector
    is built: a candidate is re-scored from its counts.

    Weights must be non-negative, as TF-IDF weights are, and a nonzero
    norm must lie in [2**-450, 2**450], which keeps under- and overflow
    out of the bounds below. Zero weights and zero-norm accounts are never
    scored: they add nothing to any dot product."""

    def __init__(self, train: Iterable[KnnExample], vectorizer: TfidfVectorizer):
        examples = sorted(train, key=lambda e: e[0])
        self.ids = [account_id for account_id, _, _ in examples]
        self.labels = [label for _, label, _ in examples]
        self.vectorizer, idf_of = vectorizer, vectorizer.idf.get
        self.accounts = []  # (counts, tf_divisor(counts), norm, nonzero weights, 2**B / norm or 0.0)
        for _, _, counts in examples:
            total, squares, negative, size = vectorizer.tf_divisor(counts), 0.0, False, len(counts)
            for term, count in counts.items():
                w = count / total * idf_of(term, 0.0)  # 0.0 outside the vocabulary, which adds nothing
                if w <= 0.0:  # a zero is no weight of transform's vector; a negative fails below
                    size -= 1
                    negative = negative or w < 0.0
                squares += w * w
            norm = sqrt(squares)
            _check_vector(negative, norm)
            self.accounts.append((counts, total, norm, size, 2.0 ** _BITS / norm if norm else 0.0))

    def nearest(self, queries: list[SparseVector], k: int) -> list[list[Neighbor]]:
        """For each query, the first k accounts by (-cosine_similarity(query,
        vec), account_id), scored together in _passes of at most 112 queries
        (4-byte lanes) over the training accounts; no queries need no valid k.

        With B = 15 and u = 2**-53, a positive weight w of a vector of norm
        N becomes U = floor(w * (2**B / N)) + 1 >= 1, both operations
        rounded, so a * 2**B * (1 - 2u) <= U <= a * 2**B * (1 + 3u) + 1 for
        a = w / N. Each query's V sits in its own 32-bit lane of one int
        per term, and each account's int is the sum of U * lanes[term] over
        its terms in that lane dict; lane j of account i is L = sum U * V
        over their n' <= n = len(query) shared terms. Let r = sum a * b there.
        For vectors of under 2**29 terms the norms are within 2**-13 of
        exact, so sum a**2 <= 1 + 2**-11, and by Cauchy-Schwarz
        L <= (2**B * (1 + 2**-11) + sqrt(n'))**2 < 2**32: no lane carries.
        Likewise r * (1 - 4u) <= L / 2**2B <= r * (1 + 7u)
        + 2 * sqrt(n) * (1 + 2**-11) * 2**-B + n * 2**-2B, r <= 1 + 2**-11,
        and cosine_similarity's c adds the same products: |c - r| <=
        (n + 2) * 2**-51. In lane units both lane errors plus twice |c - r|
        come to at most 2**(B+1) * sqrt(n) + 2**(B-10) * sqrt(n) + n
        + (n + 4) * 2**-20, where the floats' share is 11u * (1 + 2**-11)
        * 2**2B < 2**-19 plus 2 * (n + 2) * 2**-51 * 2**2B. slack =
        (2 * isqrt(n) + 3) * 2**B + (n + 4) * 2 exceeds that sum, since
        2 * isqrt(n) + 3 >= 2 * sqrt(n) + 1, 2**(B-10) * sqrt(n) <= n / 2
        + 512 and (n + 4) * 2**-20 < n / 2 + 8. So an account whose lane is
        more than slack below the k-th best has k accounts with a larger c.
        The rest are re-scored from their counts, as cosine_similarity
        would (_similarity), and sorted on (-c, account_id), except that a
        zero lane (no shared term positive on both sides) scores exactly
        0.0. So every similarity, and the order, is the exhaustive sort's.
        """
        if not queries:
            return []
        _check_k(k, len(self.ids))
        for query in queries:
            _check_vector(bool(query.weights) and min(query.weights.values()) < 0.0, query.norm)
        found = []
        for query, col in _passes(queries, 2 ** 32 - 1, self._lane_ints, self._accumulate):
            n = len(query)
            line = heapq.nlargest(k, col)[-1] - ((2 * isqrt(n) + 3 << _BITS) + (n + 4 << 1))
            pairs = []  # (similarity, position) of each candidate
            for i, lane in enumerate(col):
                if lane >= line:
                    pairs.append((self._similarity(query, i) if lane else 0.0, i))
            pairs.sort(key=lambda si: (-si[0], si[1]))
            found.append([Neighbor(self.ids[i], self.labels[i], sim) for sim, i in pairs[:k]])
        return found

    def _similarity(self, query: SparseVector, i: int) -> float:
        """cosine_similarity(query, transform(account i's counts)) to the bit, from the counts."""
        counts, d, norm, size, _ = self.accounts[i]
        idf_of, total = self.vectorizer.idf.get, 0.0
        if len(query) <= size:
            get = counts.get
            for term, qw in query.weights.items():
                if count := get(term):
                    total += qw * (count / d * idf_of(term, 0.0))
        else:
            get = query.weights.get
            for term, count in counts.items():
                if qw := get(term):
                    total += count / d * idf_of(term, 0.0) * qw
        return total / (query.norm * norm)

    @staticmethod
    def _lane_ints(query: SparseVector):
        """(term, V) for each of the query's weights; none for a zero norm."""
        r = 2.0 ** _BITS / query.norm if query.norm else 0.0
        return ((term, int(qw * r) + 1) for term, qw in query.weights.items() if r)

    def _accumulate(self, get) -> Iterator[int]:
        """Each account's sum of U * lanes[term] over its terms, in position order."""
        idf = self.vectorizer.idf
        for counts, total, _, _, scale in self.accounts:
            a = 0
            if scale:
                for term, count in counts.items():
                    lane = get(term)
                    if lane and (w := count / total * idf.get(term, 0.0)):
                        a += (int(w * scale) + 1) * lane
            yield a


def knn_predict(queries: list[SparseVector], index: KnnIndex, k: int = 5,
                weighting: str = "uniform") -> list[Prediction]:
    """For each query, a vote among the k training vectors most
    cosine-similar to it; the queries are scored together.

    Similarity ties are broken by ascending account_id; vote ties by
    larger summed similarity, then by the lexicographically smaller label.
    """
    if weighting not in WEIGHTINGS:
        raise ClassifierError(f"unknown weighting {weighting!r}")
    return [_vote(neighbors, weighting) for neighbors in index.nearest(queries, k)]


def baseline0_predict(train_labels: list[str]) -> Prediction:
    """Constant classifier: a uniform vote of every training label, so the
    majority label, ties going to the lexicographically smaller label. No
    neighbors are kept."""
    if not train_labels:
        raise ClassifierError("empty training labels")
    vote = _vote([Neighbor("", label, 0.0) for label in train_labels], "uniform")
    return Prediction(vote.label, (), vote.votes)


def top_k_terms(counts: dict[str, int], n: int, stopwords: frozenset[str] = frozenset()) -> tuple[str, ...]:
    """The n most frequent terms of {term: count} outside the stopwords, most
    frequent first, ties lexicographically: short documents yield them all."""
    if n < 1:
        raise ClassifierError(f"term-list size must be at least 1, got {n}")
    ranked = sorted([(-count, term) for term, count in counts.items() if term not in stopwords])
    return tuple(term for _, term in ranked[:n])


class TermSetIndex:
    """Training top-term sets in account_id order. Sets Q and M differ in
    |Q| + |M| - 2|Q & M| terms, and lanes of 0/1 query vectors wide enough
    for the largest |Q| count every |Q & M| exactly, with no carry."""

    def __init__(self, train: Iterable[SetExample]):
        examples = sorted(((a, label, frozenset(terms)) for a, label, terms in train), key=lambda e: e[0])
        self.ids = [account_id for account_id, _, _ in examples]
        self.labels = [label for _, label, _ in examples]
        self.sets = [terms for _, _, terms in examples]
        # |M| * n + position: with -2|Q & M| * n added, it orders by distance, then by account_id
        self.base_keys = [len(terms) * len(examples) + i for i, terms in enumerate(self.sets)]

    def nearest(self, queries: list, k: int) -> list[list[Neighbor]]:
        """For each query's terms, the first k accounts by (symmetric-difference
        distance, account_id), each with similarity 1/(1 + distance), scored
        together in _passes, as KnnIndex scores: each set's accumulator is the
        sum of its terms' lane ints (None: in no query). No queries need no valid k."""
        if not queries:
            return []
        n = len(self.ids)
        _check_k(k, n)
        sets = [frozenset(terms) for terms in queries]
        ids, labels, found = self.ids, self.labels, []
        for terms, col in _passes(sets, max(map(len, sets)), lambda terms: ((term, 1) for term in terms),
                                  lambda get: (sum(filter(None, map(get, terms))) for terms in self.sets)):
            keys = heapq.nsmallest(k, [key - 2 * n * c for key, c in zip(self.base_keys, col)])
            found.append([Neighbor(ids[i], labels[i], 1.0 / (1.0 + len(terms) + d))
                          for d, i in (divmod(key, n) for key in keys)])
        return found


def baseline1_predict(queries: list, index: TermSetIndex, k: int = 5) -> list[Prediction]:
    """For each query's terms, a uniform vote among the k training accounts
    whose top-term lists are closest by symmetric difference, ties by
    ascending account_id; the queries are scored together. A distance d
    counts as similarity 1/(1 + d), so the vote tie-break favors the closer."""
    return [_vote(neighbors, "uniform") for neighbors in index.nearest(queries, k)]
