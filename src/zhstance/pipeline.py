"""End-to-end orchestration: configuration, per-account tokenization,
training, prediction, and the cross-validation harness.

Every run is a pure function of (corpus file, resource files, config,
and any test id file); the only randomness is the seeded fold shuffle,
so a report is reproducible byte for byte from those inputs.
"""

from __future__ import annotations

import os
import pickle
import re
import signal
import threading
from collections import Counter
from collections.abc import Callable, Iterator, Sequence
from contextlib import suppress
from dataclasses import dataclass
from datetime import date

from .classify import (
    KnnIndex,
    Neighbor,
    TermSetIndex,
    baseline0_predict,
    baseline1_predict,
    knn_predict,
    top_k_terms,
    WEIGHTINGS,
)
from .corpus import AccountRecord, Corpus, DateWindow, kfold_splits
from .evaluate import ConfusionMatrix, confusion_matrix, mean_std, metric_report
from .resources import Resources
from .segmenter import segment
from .textfile import check_int, check_keys
from .vectorize import TF_MODES, SparseVector, TfidfVectorizer, fit_vectorizer
from .zh_convert import to_simplified

MODELS = ("knn", "baseline0", "baseline1")

_WINDOW_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")  # date.fromisoformat takes more from 3.11 on

# Each config field and its place in the config echo, which is also the
# shape of a config file.
CONFIG_SCHEMA = {
    "corpus": ("paths", "corpus"),
    "dictionary": ("paths", "dictionary"),
    "hmm": ("paths", "hmm"),
    "table": ("paths", "table"),
    "stopwords": ("paths", "stopwords"),
    "min_followers": ("filters", "min_followers"),
    "min_tweets": ("filters", "min_tweets"),
    "window_start": ("filters", "window", "start"),
    "window_end": ("filters", "window", "end"),
    "clean": ("clean",),
    "model": ("model", "kind"),
    "k": ("model", "k"),
    "weighting": ("model", "weighting"),
    "top_n": ("model", "top_n"),
    "tf": ("model", "tf"),
    "folds": ("folds",),
    "seed": ("seed",),
}
_FIELD_AT = {place: name for name, place in CONFIG_SCHEMA.items()}
# the rules of the fields that are not paths, clean or window dates
CHOICES = {"model": MODELS, "weighting": WEIGHTINGS, "tf": TF_MODES}
_INT_MINIMUMS = {"min_followers": 0, "min_tweets": 0, "k": 1, "top_n": 1, "folds": 2, "seed": None}


class ConfigError(ValueError):
    """Raised for invalid or unknown configuration values."""


class PipelineError(ValueError):
    """Raised when a run's inputs cannot support the requested operation."""


def _checked(name: str, value):
    """value, if config field `name` can hold it; errors name its key path."""
    where = ".".join(CONFIG_SCHEMA[name])
    if name in CHOICES and value not in CHOICES[name]:
        raise ConfigError(f"{where} must be one of {CHOICES[name]}, got {value!r}")
    if name in _INT_MINIMUMS:
        check_int(value, ConfigError, where, _INT_MINIMUMS[name])
    if where.startswith("paths.") and value is not None and not isinstance(value, str):
        raise ConfigError(f"{where} must be a string or null, got {value!r}")
    if name == "clean" and not isinstance(value, bool):
        raise ConfigError(f"clean must be true or false, got {value!r}")
    if where.startswith("filters.window."):
        try:
            date.fromisoformat(value if _WINDOW_DATE.fullmatch(value) else "")
        except (TypeError, ValueError):
            raise ConfigError(f"invalid date {value!r} for {where}") from None
    return value


@dataclass(frozen=True)
class PipelineConfig:
    corpus: str | None = None
    dictionary: str | None = None
    hmm: str | None = None
    table: str | None = None
    stopwords: str | None = None
    min_followers: int = 10000
    min_tweets: int = 10
    window_start: str = "2021-01-01"
    window_end: str = "2021-04-15"
    clean: bool = True
    model: str = "knn"
    k: int = 5
    weighting: str = "uniform"
    top_n: int = 25
    tf: str = "raw"
    folds: int = 5
    seed: int = 0

    def __post_init__(self):
        for name in CONFIG_SCHEMA:
            _checked(name, getattr(self, name))
        if self.window_start > self.window_end:  # ISO dates order as their strings do
            raise ConfigError(f"window start {self.window_start} is after end {self.window_end}")

    @property
    def window(self) -> DateWindow:
        """The collection window the two dates bound."""
        return DateWindow(date.fromisoformat(self.window_start), date.fromisoformat(self.window_end))

    def to_echo(self) -> dict:
        """The config as the nested JSON shape embedded in every report;
        the same shape is accepted back as a config file."""
        echo: dict = {}
        for name, (*sections, key) in CONFIG_SCHEMA.items():
            node = echo
            for section in sections:
                node = node.setdefault(section, {})
            node[key] = getattr(self, name)
        return echo


def config_values(doc, section: tuple = ()) -> dict:
    """{field: value} of an echo-shaped config document, or of its object at
    section; each value is checked as it is read, and unknown keys rejected."""
    keys = {place[len(section)] for place in _FIELD_AT if place[:len(section)] == section}
    values = {}
    for key, value in check_keys(doc, ConfigError, ".".join(("config", *section)), keys).items():
        place = (*section, key)
        if place in _FIELD_AT:
            values[_FIELD_AT[place]] = _checked(_FIELD_AT[place], value)
        else:
            values.update(config_values(value, place))
    return values


@dataclass(frozen=True)
class AccountPrediction:
    account_id: str
    label: str | None
    predicted: str
    neighbors: tuple[Neighbor, ...]
    votes: dict[str, float]


@dataclass(frozen=True)
class ScoredRun:
    """One scored run, a cross-validation fold or the held-out test: the
    predictions in account_id order, their confusion matrix (labels in the
    label set's order) and metrics (metric_report's dict)."""
    confusion: ConfusionMatrix
    metrics: dict
    predictions: tuple[AccountPrediction, ...]

    @property
    def validation_ids(self) -> tuple[str, ...]:
        """The scored accounts' ids, in account_id order."""
        return tuple(p.account_id for p in self.predictions)


@dataclass(frozen=True)
class CrossValResult:
    label_set: tuple[str, ...]
    folds: tuple[ScoredRun, ...]  # fold n is folds[n]
    aggregate: dict


def _require_labeled(corpus: Corpus, role: str):
    unlabeled = [a.account_id for a in corpus.accounts if a.label is None]
    if unlabeled:
        raise PipelineError(f"{role} accounts without labels: {sorted(unlabeled)}")


def _on_cpus(items: Sequence, work: Callable) -> Iterator:
    """work(item) of each item, in order. The items are cut in order into one chunk per usable CPU
    (one where fork is missing, beside another thread, or for one item): this process works the
    first, a forked child each other and sends one pickle per result, and this process what none sent."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    parts = 1 if not hasattr(os, "fork") or threading.active_count() > 1 else min(cpus, len(items)) or 1
    chunks = [items[i * len(items) // parts:(i + 1) * len(items) // parts] for i in range(parts)]
    children = []  # (pid, read end) per chunk after the first
    try:
        for chunk in chunks[1:]:
            r, w = os.pipe()
            if not (pid := os.fork()):
                try:
                    os.close(r)  # so that a write fails, not blocks, once the parent is gone
                    with open(w, "wb") as pipe:  # all worked, then sent: a full pipe would stall the work
                        pipe.writelines(map(pickle.dumps, [work(item) for item in chunk]))
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(w)
            children.append((pid, open(r, "rb")))
        yield from map(work, chunks[0])
        for (_, pipe), chunk in zip(children, chunks[1:]):
            sent = 0
            with suppress(EOFError, pickle.UnpicklingError):  # a failed child sends short
                while sent < len(chunk):
                    yield pickle.load(pipe)
                    sent += 1
            yield from map(work, chunk[sent:])  # so that an error is the sequential one
    finally:  # a child that has sent its results has nothing left to do
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


class Pipeline:
    """Caches per-account term counts and runs the configured predictor.

    Term counts (conversion + segmentation + counting) and an account's
    top-term set (top_n and the stopwords are fixed per Pipeline) depend on
    that account alone, so both caches are shared safely across folds;
    everything fitted on data (the IDF model, the k-NN index, the top-term
    index) is rebuilt per training set. Counted terms are interned per
    Pipeline, so a term shared across accounts is one string object.
    """

    def __init__(self, resources: Resources, config: PipelineConfig):
        self.resources = resources
        self.config = config
        self._counts: dict[AccountRecord, Counter[str]] = {}
        self._interned: dict[str, str] = {}
        self._top_terms: dict[AccountRecord, frozenset[str]] = {}

    def account_tokens(self, account: AccountRecord) -> list[str]:
        """The account's tokens, tweet after tweet. The tweets are converted
        and segmented as one text joined with newlines: no conversion key
        holds one, and no segmentation piece crosses whitespace."""
        res = self.resources
        text = to_simplified("\n".join(tweet.text for tweet in account.tweets), res.table)
        return segment(text, res.token_lexicon, res.hmm, self.config.clean)

    def account_counts(self, account: AccountRecord) -> Counter[str]:
        """{term: count} over the account's tokens in first-occurrence
        order; each account is segmented once per Pipeline."""
        cached = self._counts.get(account)
        if cached is None:
            tokens = self.account_tokens(account)
            cached = self._counts[account] = Counter(map(self._interned.setdefault, tokens, tokens))
        return cached

    def count_batch(self, accounts: Sequence[AccountRecord]) -> list[Counter[str]]:
        """account_counts of each account, the uncached ones counted _on_cpus."""
        todo = list(dict.fromkeys(a for a in accounts if a not in self._counts))
        for account in todo[:1]:  # before any fork: the children inherit the tables it derives
            self.account_counts(account)
        for account, counts in zip(todo, _on_cpus(todo, self.account_counts), strict=True):
            if account not in self._counts:  # a child's: its terms are interned here
                self._counts[account] = counted = Counter()
                dict.update(counted, zip(map(self._interned.setdefault, counts, counts), counts.values()))
        return [self.account_counts(a) for a in accounts]

    def top_terms(self, account: AccountRecord) -> frozenset[str]:
        """The account's top_n terms after stopword removal, as a set."""
        cached = self._top_terms.get(account)
        if cached is None:
            cached = self._top_terms[account] = frozenset(top_k_terms(
                self.account_counts(account), self.config.top_n, self.resources.token_stopwords))
        return cached

    def fit_transform(self, corpus: Corpus) -> tuple[TfidfVectorizer, list[SparseVector]]:
        """TF-IDF fitted on the corpus's accounts, and each of their
        vectors under it, in corpus order (for `zhstance vectorize`)."""
        docs = self.count_batch(corpus.accounts)
        vectorizer = fit_vectorizer(docs, tf_mode=self.config.tf)
        return vectorizer, [vectorizer.transform(doc) for doc in docs]

    def predict(self, train: Corpus, queries: Corpus,
                vectorizer: TfidfVectorizer | None = None) -> list[AccountPrediction]:
        """Train the configured model on `train` and predict every query account, returned
        sorted by account_id. k-NN fits a vectorizer on `train` unless given one."""
        if not train.accounts:
            raise PipelineError("no labeled training accounts")
        _require_labeled(train, "training")
        cfg = self.config
        ordered = sorted(queries.accounts, key=lambda a: a.account_id)
        if cfg.model == "baseline0":
            preds = [baseline0_predict([a.label for a in train.accounts])] * len(ordered)
        else:
            docs = self.count_batch(train.accounts + queries.accounts)[:len(train.accounts)]
            if cfg.model == "baseline1":
                index = TermSetIndex((a.account_id, a.label, self.top_terms(a)) for a in train.accounts)
                preds = baseline1_predict([self.top_terms(q) for q in ordered], index, cfg.k)
            else:
                vectorizer = vectorizer or fit_vectorizer(docs, tf_mode=cfg.tf)
                index = KnnIndex(((a.account_id, a.label, c) for a, c in zip(train.accounts, docs)), vectorizer)
                preds = knn_predict([vectorizer.transform(self.account_counts(q)) for q in ordered],
                                    index, cfg.k, cfg.weighting)
        return [AccountPrediction(q.account_id, q.label, p.label, p.neighbors, dict(p.votes))
                for q, p in zip(ordered, preds)]

    def score(self, train: Corpus, queries: Corpus, vectorizer: TfidfVectorizer | None = None) -> ScoredRun:
        """Train on `train`, predict every query account and score the
        predictions against the queries' labels."""
        preds = self.predict(train, queries, vectorizer)
        m = confusion_matrix([p.label for p in preds], [p.predicted for p in preds], queries.label_set)
        return ScoredRun(m, metric_report(m), tuple(preds))

    def cross_validate(self, corpus: Corpus) -> CrossValResult:
        """k-fold cross-validation, the folds scored _on_cpus; each fold's model (IDF and
        all) is fitted on that fold's training accounts only, k-NN's document
        frequencies by subtraction from the whole corpus's (see without)."""
        _require_labeled(corpus, "cross-validation")
        cfg, whole = self.config, None
        if cfg.model == "knn":
            whole = fit_vectorizer(self.count_batch(corpus.accounts), tf_mode=cfg.tf)
        elif cfg.model == "baseline1":  # counted and ranked before the fork: no fold ranks again
            self.count_batch(corpus.accounts)
            list(map(self.top_terms, corpus.accounts))
        folds = list(_on_cpus(kfold_splits(corpus, cfg.folds, cfg.seed), lambda split: self.score(
            *split, whole and whole.without([self.account_counts(a) for a in split[1].accounts]))))
        return CrossValResult(corpus.label_set, tuple(folds), _aggregate(folds, corpus.label_set))

    def evaluate_test_set(self, non_test: Corpus, test: Corpus) -> ScoredRun:
        """Train once on all of non_test and score the held-out test set."""
        _require_labeled(test, "test")
        return self.score(non_test, test)


def _aggregate(folds: list[ScoredRun], label_set: tuple[str, ...]) -> dict:
    def stats(values: list[float]) -> dict:
        mean, std = mean_std(values)
        return {"mean": mean, "std": std}

    return {
        "accuracy": stats([f.metrics["accuracy"] for f in folds]),
        "per_label": {label: {metric: stats([f.metrics["per_label"][label][metric] for f in folds])
                              for metric in ("precision", "recall", "f1")}
                      for label in label_set},
    }
