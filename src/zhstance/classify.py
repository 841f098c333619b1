"""Stance predictors: cosine k-NN plus two reference baselines.

All predictors are pure functions over an immutable training snapshot and
return a Prediction carrying the chosen label, the consulted neighbors,
and the per-label vote tallies. Tie-breaks are content-based throughout,
so shuffling the training list never changes a prediction.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable
from dataclasses import dataclass

from .vectorize import SparseVector, cosine_similarity, term_counts

WEIGHTINGS = ("uniform", "inverse")
EPSILON = 1e-9

KnnExample = tuple[str, str, SparseVector]  # (account_id, label, vector)
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


def _check_non_negative(vec: SparseVector):
    if vec.weights and min(vec.weights.values()) < 0.0:
        raise ClassifierError("k-NN vectors must have non-negative weights")


class KnnIndex:
    """Training vectors in account_id order plus an inverted index over
    them: term -> [position, weight, position, weight, ...], one flat list
    per term, built once per training set.

    Weights must be non-negative, as TF-IDF weights are. Accounts with a
    zero-norm vector are left out of the postings: their cosine with any
    query is exactly 0.0, like that of an account sharing no term with it.
    """

    def __init__(self, train: Iterable[KnnExample]):
        examples = sorted(train, key=lambda e: e[0])
        self.ids = [account_id for account_id, _, _ in examples]
        self.labels = [label for _, label, _ in examples]
        self.vectors = [vec for _, _, vec in examples]
        self.norms = [vec.norm for vec in self.vectors]
        self.postings: dict[str, list] = {}
        for i, vec in enumerate(self.vectors):
            _check_non_negative(vec)
            if vec.norm == 0.0:
                continue
            for term, w in vec.weights.items():
                entry = self.postings.get(term)
                if entry is None:
                    self.postings[term] = [i, w]
                else:
                    entry.append(i)
                    entry.append(w)

    def nearest(self, query: SparseVector, k: int) -> list[Neighbor]:
        """The first k accounts by (-cosine_similarity(query, vec), account_id).

        Accumulating over the postings of the query's terms gives every
        account an approximate score. It adds the same non-negative
        products q_t * w_t as the exact dot product, in another order, and
        divides by the same |q| * |v|. Barring underflow, each of the two
        sums is within gamma_n * P of the true sum P of the n <= len(query)
        products, where u = 2**-53 and gamma_n = n*u / (1 - n*u); that holds
        for any order of addition, and for compensated summation such as
        the sum() of Python 3.12+. By Cauchy-Schwarz P <= |q| * |v|, so
        after the division the two scores differ by at most
        (2 * gamma_n + 2u) * (1 + 2**-28), the last factor for the
        rounding of the stored norms. That is below
        margin = (n + 2) * 2**-50.

        An account whose approximate score is more than 2 * margin below
        the k-th best has k accounts whose exact scores beat its own, so
        only the accounts above that line are re-scored exactly, with
        cosine_similarity, and sorted on (-similarity, account_id). A zero
        sum means every product was zero: such an account, including one
        sharing no term with the query, scores exactly 0.0 without a
        re-score. Every reported similarity, and so the order, is the one
        the exhaustive sort gives, bit for bit.
        """
        _check_k(k, len(self.ids))
        _check_non_negative(query)
        acc = [0.0] * len(self.ids)
        qnorm = query.norm
        if qnorm != 0.0:
            postings = self.postings
            for term, qw in query.weights.items():
                entry = postings.get(term)
                if entry is not None:
                    it = iter(entry)
                    for i, w in zip(it, it):
                        acc[i] += qw * w
        norms = self.norms
        approx = [s / (qnorm * norms[i]) if s else 0.0 for i, s in enumerate(acc)]
        margin = (len(query) + 2) * 2.0 ** -50
        floor = sorted(approx, reverse=True)[k - 1] - 2.0 * margin
        vectors = self.vectors
        scored = [(cosine_similarity(query, vectors[i]) if acc[i] else 0.0, i)
                  for i, a in enumerate(approx) if a >= floor]
        ids = self.ids
        scored.sort(key=lambda si: (-si[0], ids[si[1]]))
        return [Neighbor(ids[i], self.labels[i], sim) for sim, i in scored[:k]]


def knn_predict(query: SparseVector, index: KnnIndex, k: int = 5,
                weighting: str = "uniform") -> Prediction:
    """Vote among the k training vectors most cosine-similar to the query.

    Similarity ties are broken by ascending account_id; vote ties by
    larger summed similarity, then by the lexicographically smaller label.
    """
    if weighting not in WEIGHTINGS:
        raise ClassifierError(f"unknown weighting {weighting!r}")
    return _vote(index.nearest(query, k), weighting)


def baseline0_predict(train_labels: list[str]) -> Prediction:
    """Constant classifier: the training majority label, ties going to the
    lexicographically smaller label."""
    if not train_labels:
        raise ClassifierError("empty training labels")
    counts: dict[str, float] = {}
    for label in train_labels:
        counts[label] = counts.get(label, 0.0) + 1.0
    top = max(counts.values())
    winner = min(label for label, c in counts.items() if c == top)
    return Prediction(winner, (), counts)


def top_k_terms(tokens: list[str], n: int, stopwords: frozenset[str] = frozenset()) -> tuple[str, ...]:
    """The n most frequent terms, most frequent first; frequency ties break
    lexicographically. Short documents yield all their distinct terms."""
    if n < 1:
        raise ClassifierError(f"term-list size must be at least 1, got {n}")
    counts = term_counts([t for t in tokens if t not in stopwords])
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return tuple(term for term, _ in ranked[:n])


class TermSetIndex:
    """Training top-term sets in account_id order, each stored as an int bit
    mask: every distinct training term gets one bit in `term_bits`.

    The symmetric difference of two sets is then the popcount of the XOR of
    their masks, exact integer arithmetic; a query term that no training
    set holds adds exactly 1 to every distance.
    """

    def __init__(self, train: Iterable[SetExample]):
        examples = sorted(train, key=lambda e: e[0])
        self.ids = [account_id for account_id, _, _ in examples]
        self.labels = [label for _, label, _ in examples]
        self.term_bits: dict[str, int] = {}
        self.masks: list[int] = []
        for _, _, terms in examples:
            mask = 0
            for term in terms:
                bit = self.term_bits.get(term)
                if bit is None:
                    bit = self.term_bits[term] = 1 << len(self.term_bits)
                mask |= bit
            self.masks.append(mask)

    def nearest(self, query_terms, k: int) -> list[Neighbor]:
        """The first k accounts by (symmetric-difference distance, account_id),
        each with similarity 1/(1 + distance)."""
        n = len(self.ids)
        _check_k(k, n)
        query, outside = 0, 0
        term_bits = self.term_bits
        for term in frozenset(query_terms):
            bit = term_bits.get(term)
            if bit is None:
                outside += 1
            else:
                query |= bit
        # distance * n + position orders by distance, then by account_id
        keys = heapq.nsmallest(k, [((query ^ mask).bit_count() + outside) * n + i
                                   for i, mask in enumerate(self.masks)])
        ids, labels = self.ids, self.labels
        return [Neighbor(ids[i], labels[i], 1.0 / (1.0 + d))
                for d, i in (divmod(key, n) for key in keys)]


def baseline1_predict(query_terms, index: TermSetIndex, k: int = 5) -> Prediction:
    """Uniform vote among the k training accounts whose top-term lists are
    closest by symmetric difference (ties by ascending account_id).

    A distance d is recorded as similarity 1/(1 + d) so the shared vote
    tie-break still favors the closer neighbors.
    """
    return _vote(index.nearest(query_terms, k), "uniform")
