"""TF-IDF document vectors and cosine similarity over sparse dicts.

A vectorizer is fit on a training corpus of term counts, {term: count}
per document, and then maps any such counts to a sparse weight vector.
Terms outside the fitted vocabulary are dropped; weights of zero are
never stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

TF_MODES = ("raw", "relative")


class VectorizerError(ValueError):
    """Raised for invalid vectorizer configuration or misuse."""


@dataclass(frozen=True)
class SparseVector:
    weights: dict[str, float]
    norm: float = field(init=False)

    def __post_init__(self):
        if 0.0 in self.weights.values():  # copied only when a zero is to go
            object.__setattr__(self, "weights", {t: w for t, w in self.weights.items() if w})
        # Added left to right, like dot(), and for the same reason.
        squares = 0.0
        for w in self.weights.values():
            squares += w * w
        object.__setattr__(self, "norm", math.sqrt(squares))

    def __len__(self):
        return len(self.weights)


def dot(u: SparseVector, v: SparseVector) -> float:
    """Added left to right over the shorter vector's terms. The loop is
    written out because sum() is compensated from Python 3.12 on: it can
    move a result by an ulp, and that reorders mathematically tied
    neighbours between interpreter versions."""
    small, large = (u, v) if len(u) <= len(v) else (v, u)
    get = large.weights.get
    total = 0.0
    for t, w in small.weights.items():
        total += w * get(t, 0.0)
    return total


def cosine_similarity(u: SparseVector, v: SparseVector) -> float:
    """dot(u, v) / (|u| * |v|), defined as 0.0 when either norm is zero."""
    if u.norm == 0.0 or v.norm == 0.0:
        return 0.0
    return dot(u, v) / (u.norm * v.norm)


@dataclass(frozen=True)
class TfidfVectorizer:
    document_frequency: dict[str, int]
    corpus_size: int
    tf_mode: str = "raw"
    log_base: float | None = None  # None means natural log
    idf: dict[str, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.tf_mode not in TF_MODES:
            raise VectorizerError(f"unknown tf_mode {self.tf_mode!r}")
        if self.log_base is not None and self.log_base <= 1.0:
            raise VectorizerError(f"log base must exceed 1, got {self.log_base!r}")
        if self.corpus_size < 1:
            raise VectorizerError("vectorizer fit on an empty corpus")
        # One log per distinct document frequency; terms sharing a
        # frequency share the float object.
        by_df: dict[int, float] = {}
        for df in self.document_frequency.values():
            if df not in by_df:
                value = math.log(self.corpus_size / df)
                if self.log_base is not None:
                    value /= math.log(self.log_base)
                by_df[df] = value
        object.__setattr__(self, "idf", {
            term: by_df[df] for term, df in self.document_frequency.items()})

    @property
    def vocabulary(self) -> frozenset[str]:
        return frozenset(self.document_frequency)

    def tf_divisor(self, counts: dict[str, int]) -> int:
        """d in a term's weight count / d * idf[term]: the counts' total under
        relative TF, 1 under raw TF (count / 1 is float(count) exactly)."""
        return sum(counts.values()) if self.tf_mode == "relative" else 1

    def without(self, documents: list[dict[str, int]]) -> TfidfVectorizer:
        """fit_vectorizer's result on the fitted corpus less these documents,
        by subtraction: work per document term, not per vocabulary term."""
        df = dict(self.document_frequency)
        for counts in documents:
            for term in counts:
                df[term] -= 1
                if not df[term]:
                    del df[term]
        return TfidfVectorizer(df, self.corpus_size - len(documents), self.tf_mode, self.log_base)

    def transform(self, counts: dict[str, int]) -> SparseVector:
        idf, total = self.idf, self.tf_divisor(counts)
        weights: dict[str, float] = {}
        for term, count in counts.items():
            term_idf = idf.get(term)
            if term_idf is None:
                continue
            w = count / total * term_idf
            if w != 0.0:
                weights[term] = w
        return SparseVector(weights)


def fit_vectorizer(
    documents: list[dict[str, int]],
    tf_mode: str = "raw",
    log_base: float | None = None,
) -> TfidfVectorizer:
    """Collect document frequencies from the training term counts."""
    df: dict[str, int] = {}
    for counts in documents:
        for term in counts:
            df[term] = df.get(term, 0) + 1
    return TfidfVectorizer(df, len(documents), tf_mode, log_base)
