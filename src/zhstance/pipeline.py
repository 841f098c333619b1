"""End-to-end orchestration: configuration, per-account tokenization,
training, prediction, and the cross-validation harness.

Every run is a pure function of (corpus file, resource files, config);
the only randomness is the seeded fold shuffle, so reports are
reproducible byte for byte from their embedded config echo.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from datetime import date

from .classify import (
    KnnIndex,
    Neighbor,
    Prediction,
    TermSetIndex,
    baseline0_predict,
    baseline1_predict,
    knn_predict,
    top_k_terms,
    WEIGHTINGS,
)
from .corpus import AccountRecord, Corpus, DateWindow, kfold_splits
from .evaluate import ConfusionMatrix, MetricReport, confusion_matrix, mean_std, metric_report
from .resources import Resources
from .segmenter import segment
from .vectorize import TF_MODES, fit_vectorizer
from .zh_convert import to_simplified

MODELS = ("knn", "baseline0", "baseline1")

DEFAULT_WINDOW = DateWindow(date(2021, 1, 1), date(2021, 4, 15))

_PATH_KEYS = ("corpus", "dictionary", "hmm", "table", "stopwords")


class ConfigError(ValueError):
    """Raised for invalid or unknown configuration values."""


class PipelineError(ValueError):
    """Raised when a run's inputs cannot support the requested operation."""


@dataclass(frozen=True)
class PipelineConfig:
    corpus: str | None = None
    dictionary: str | None = None
    hmm: str | None = None
    table: str | None = None
    stopwords: str | None = None
    min_followers: int = 10000
    min_tweets: int = 10
    window: DateWindow = DEFAULT_WINDOW
    clean: bool = True
    model: str = "knn"
    k: int = 5
    weighting: str = "uniform"
    top_n: int = 25
    tf: str = "raw"
    folds: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.model not in MODELS:
            raise ConfigError(f"unknown model {self.model!r} (choose from {MODELS})")
        if self.weighting not in WEIGHTINGS:
            raise ConfigError(f"unknown weighting {self.weighting!r} (choose from {WEIGHTINGS})")
        if self.tf not in TF_MODES:
            raise ConfigError(f"unknown tf variant {self.tf!r} (choose from {TF_MODES})")
        for name in _PATH_KEYS:
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise ConfigError(f"path {name} must be a string or null, got {value!r}")
        for name in ("min_followers", "min_tweets", "k", "top_n", "folds", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.clean, bool):
            raise ConfigError(f"clean must be true or false, got {self.clean!r}")
        if self.k < 1:
            raise ConfigError(f"k must be at least 1, got {self.k}")
        if self.top_n < 1:
            raise ConfigError(f"top_n must be at least 1, got {self.top_n}")
        if self.folds < 2:
            raise ConfigError(f"folds must be at least 2, got {self.folds}")
        if self.min_followers < 0 or self.min_tweets < 0:
            raise ConfigError("filter thresholds must be non-negative")

    def to_echo(self) -> dict:
        """The config as the nested JSON shape embedded in every report;
        the same shape is accepted back as a config file."""
        return {
            "paths": {
                "corpus": self.corpus,
                "dictionary": self.dictionary,
                "hmm": self.hmm,
                "table": self.table,
                "stopwords": self.stopwords,
            },
            "filters": {
                "min_followers": self.min_followers,
                "min_tweets": self.min_tweets,
                "window": {
                    "start": self.window.start.isoformat(),
                    "end": self.window.end.isoformat(),
                },
            },
            "clean": self.clean,
            "model": {
                "kind": self.model,
                "k": self.k,
                "weighting": self.weighting,
                "top_n": self.top_n,
                "tf": self.tf,
            },
            "folds": self.folds,
            "seed": self.seed,
        }

    def merged(self, overrides: dict) -> "PipelineConfig":
        """A new config with the echo-shaped overrides applied; unknown
        keys are rejected rather than ignored."""
        fields = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        for section, value in overrides.items():
            if section == "paths":
                for key, path in _items(section, value):
                    if key not in _PATH_KEYS:
                        raise ConfigError(f"unknown config key paths.{key}")
                    fields[key] = path
            elif section == "filters":
                for key, v in _items(section, value):
                    if key == "window":
                        fields["window"] = _merge_window(fields["window"], v)
                    elif key in ("min_followers", "min_tweets"):
                        fields[key] = v
                    else:
                        raise ConfigError(f"unknown config key filters.{key}")
            elif section == "model":
                for key, v in _items(section, value):
                    if key == "kind":
                        fields["model"] = v
                    elif key in ("k", "weighting", "top_n", "tf"):
                        fields[key] = v
                    else:
                        raise ConfigError(f"unknown config key model.{key}")
            elif section in ("clean", "folds", "seed"):
                fields[section] = value
            else:
                raise ConfigError(f"unknown config key {section!r}")
        return PipelineConfig(**fields)


def _items(section: str, value) -> list:
    if not isinstance(value, dict):
        raise ConfigError(f"config section {section!r} must be an object")
    return list(value.items())


def _merge_window(current: DateWindow, value: dict) -> DateWindow:
    if not isinstance(value, dict):
        raise ConfigError("config key filters.window must be an object")
    start, end = current.start, current.end
    for key, raw in value.items():
        if key not in ("start", "end"):
            raise ConfigError(f"unknown config key filters.window.{key}")
        try:
            parsed = date.fromisoformat(raw)
        except (TypeError, ValueError):
            raise ConfigError(f"invalid date {raw!r} for filters.window.{key}") from None
        if key == "start":
            start = parsed
        else:
            end = parsed
    try:
        return DateWindow(start, end)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


@dataclass(frozen=True)
class AccountPrediction:
    account_id: str
    label: str | None
    predicted: str
    neighbors: tuple[Neighbor, ...]
    votes: dict[str, float]


@dataclass(frozen=True)
class FoldResult:
    fold: int
    validation_ids: tuple[str, ...]
    confusion: ConfusionMatrix
    report: MetricReport
    predictions: tuple[AccountPrediction, ...]
    vocabulary: frozenset[str]


@dataclass(frozen=True)
class CrossValResult:
    label_set: tuple[str, ...]
    folds: tuple[FoldResult, ...]
    aggregate: dict


@dataclass(frozen=True)
class TestResult:
    label_set: tuple[str, ...]
    confusion: ConfusionMatrix
    report: MetricReport
    predictions: tuple[AccountPrediction, ...]
    vocabulary: frozenset[str]


def _require_labeled(corpus: Corpus, role: str):
    unlabeled = [a.account_id for a in corpus.accounts if a.label is None]
    if unlabeled:
        raise PipelineError(f"{role} accounts without labels: {sorted(unlabeled)}")


class Pipeline:
    """Caches per-account token streams and runs the configured predictor.

    Tokenization (conversion + segmentation) and an account's top-term set
    (top_n and the stopwords are fixed per Pipeline) depend on that account
    alone, so both caches are shared safely across folds; everything fitted
    on data (the IDF model, the k-NN index, the top-term index) is rebuilt
    per training set. Cached tokens are interned per Pipeline, so a term
    repeated across tweets and accounts is one string object.
    """

    def __init__(self, resources: Resources, config: PipelineConfig):
        self.resources = resources
        self.config = config
        self._tokens: dict[AccountRecord, list[str]] = {}
        self._interned: dict[str, str] = {}
        self._top_terms: dict[AccountRecord, frozenset[str]] = {}

    def account_tokens(self, account: AccountRecord) -> list[str]:
        """The account's tokens, tweet after tweet. The tweets are converted
        and segmented as one text joined with newlines: no conversion key
        holds one, and segmentation splits on whitespace first."""
        cached = self._tokens.get(account)
        if cached is None:
            res = self.resources
            text = to_simplified("\n".join(tweet.text for tweet in account.tweets), res.table)
            intern = self._interned.setdefault
            cached = self._tokens[account] = [
                intern(t, t) for t in segment(text, res.token_lexicon, res.hmm, self.config.clean)]
        return cached

    def top_terms(self, account: AccountRecord) -> frozenset[str]:
        """The account's top_n terms after stopword removal, as a set."""
        cached = self._top_terms.get(account)
        if cached is None:
            cached = self._top_terms[account] = frozenset(top_k_terms(
                self.account_tokens(account), self.config.top_n, self.resources.token_stopwords))
        return cached

    def predict(self, train: Corpus, queries: Corpus) -> tuple[list[AccountPrediction], frozenset[str]]:
        """Train the configured model on `train` and predict every query
        account, returned sorted by account_id along with the vocabulary
        the model was fitted on."""
        _require_labeled(train, "training")
        cfg = self.config
        ordered = sorted(queries.accounts, key=lambda a: a.account_id)
        if cfg.model == "baseline0":
            shared = baseline0_predict([a.label for a in train.accounts])
            return [self._wrap(q, shared) for q in ordered], frozenset()
        if cfg.model == "baseline1":
            index = TermSetIndex(
                (a.account_id, a.label, self.top_terms(a)) for a in train.accounts)
            out = [self._wrap(q, baseline1_predict(self.top_terms(q), index, cfg.k))
                   for q in ordered]
            return out, frozenset(index.term_bits)
        docs = [self.account_tokens(a) for a in train.accounts]
        vectorizer = fit_vectorizer(docs, tf_mode=cfg.tf)
        index = KnnIndex(
            (a.account_id, a.label, vectorizer.transform(doc))
            for a, doc in zip(train.accounts, docs)
        )
        out = []
        for q in ordered:
            query_vec = vectorizer.transform(self.account_tokens(q))
            out.append(self._wrap(q, knn_predict(query_vec, index, cfg.k, cfg.weighting)))
        return out, vectorizer.vocabulary

    @staticmethod
    def _wrap(account: AccountRecord, pred: Prediction) -> AccountPrediction:
        return AccountPrediction(account.account_id, account.label,
                                 pred.label, pred.neighbors, dict(pred.votes))

    def cross_validate(self, corpus: Corpus) -> CrossValResult:
        """k-fold cross-validation; each fold's model (IDF and all) is
        fitted on that fold's training accounts only."""
        _require_labeled(corpus, "cross-validation")
        results = []
        for i, (train, validation) in enumerate(kfold_splits(corpus, self.config.folds, self.config.seed)):
            preds, vocabulary = self.predict(train, validation)
            m = confusion_matrix([p.label for p in preds], [p.predicted for p in preds],
                                 corpus.label_set)
            results.append(FoldResult(i, tuple(sorted(validation.account_ids)), m,
                                      metric_report(m), tuple(preds), vocabulary))
        return CrossValResult(corpus.label_set, tuple(results),
                              _aggregate(results, corpus.label_set))

    def evaluate_test_set(self, non_test: Corpus, test: Corpus) -> TestResult:
        """Train once on all of non_test and score the held-out test set."""
        _require_labeled(test, "test")
        preds, vocabulary = self.predict(non_test, test)
        m = confusion_matrix([p.label for p in preds], [p.predicted for p in preds],
                             test.label_set)
        return TestResult(test.label_set, m, metric_report(m), tuple(preds), vocabulary)


def _aggregate(folds: list[FoldResult], label_set: tuple[str, ...]) -> dict:
    def stats(values: list[float]) -> dict:
        mean, std = mean_std(values)
        return {"mean": mean, "std": std}

    per_label = {}
    for label in label_set:
        per_label[label] = {
            metric: stats([getattr(f.report.per_label[label], metric) for f in folds])
            for metric in ("precision", "recall", "f1")
        }
    return {
        "accuracy": stats([f.report.accuracy for f in folds]),
        "per_label": per_label,
    }
