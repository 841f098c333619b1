"""Tests for the pipeline: configuration, orchestration, and hygiene."""

import dataclasses
from collections import Counter
from datetime import date

import pytest

import zhstance.pipeline
from zhstance.corpus import AccountRecord, Corpus, DateWindow, Tweet, kfold_splits, parse_timestamp
from zhstance.pipeline import (
    ConfigError,
    Pipeline,
    PipelineConfig,
    PipelineError,
    ScoredRun,
    config_values,
)
from zhstance.resources import Resources, load_resources
from zhstance.segmenter import load_lexicon
from zhstance.vectorize import TfidfVectorizer

WHEN = parse_timestamp("2021-02-01T00:00:00Z")

# disjoint topic vocabularies; every account carries its label's core
# pair, so any train/validation split keeps the classes separable
BEIJING_TWEETS = (
    "统一稳定 祖国发展",
    "统一稳定 繁荣富强",
    "统一稳定 复兴团结",
    "统一稳定 爱国和谐",
)
DEMOCRACY_TWEETS = (
    "民主自由 选举人权",
    "民主自由 法治普选",
    "民主自由 抗争罢工",
    "民主自由 公义集会",  # 集会 appears only here, for leakage checks
)


def account(account_id, label, text):
    return AccountRecord(account_id, 20000, label, (Tweet(text, WHEN),))


def make_corpus():
    accounts = []
    for i in range(4):
        accounts.append(account(f"b{i}", "Beijing", BEIJING_TWEETS[i]))
        accounts.append(account(f"d{i}", "Democracy", DEMOCRACY_TWEETS[i]))
    return Corpus(("Beijing", "Democracy"), tuple(accounts))


@pytest.fixture(scope="module")
def resources():
    return load_resources()


@pytest.fixture
def pipeline(resources):
    return Pipeline(resources, PipelineConfig(k=3, folds=2))


class TestPipelineConfig:
    def test_defaults(self):
        cfg = PipelineConfig()
        assert cfg.min_followers == 10000
        assert cfg.min_tweets == 10
        assert cfg.window == DateWindow(date(2021, 1, 1), date(2021, 4, 15))
        assert cfg.model == "knn"
        assert cfg.k == 5
        assert cfg.weighting == "uniform"
        assert cfg.top_n == 25
        assert cfg.tf == "raw"
        assert cfg.folds == 5
        assert cfg.seed == 0
        assert cfg.clean is True

    @pytest.mark.parametrize("kwargs", [
        {"model": "svm"},
        {"weighting": "softmax"},
        {"tf": "binary"},
        {"k": 0},
        {"top_n": 0},
        {"folds": 1},
        {"min_followers": -1},
        {"min_tweets": -1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            PipelineConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"k": "5"},
        {"k": 2.5},
        {"top_n": True},
        {"seed": 1.5},
        {"folds": None},
        {"min_followers": 1e4},
        {"clean": "no"},
        {"clean": 1},
        {"corpus": 5},
        {"table": b"t2s.tsv"},
    ])
    def test_value_types(self, kwargs):
        with pytest.raises(ConfigError, match=next(iter(kwargs))):
            PipelineConfig(**kwargs)

    def test_echo_merge_roundtrip(self):
        cfg = PipelineConfig(corpus="c.jsonl", k=7, model="baseline1",
                             window_start="2021-02-01", window_end="2021-03-01",
                             seed=11, clean=False)
        assert PipelineConfig(**config_values(cfg.to_echo())) == cfg

    def test_merged_is_partial(self):
        cfg = PipelineConfig(**config_values({"model": {"k": 9}}))
        assert cfg.k == 9
        assert cfg.model == "knn"
        assert cfg.folds == 5

    def test_merged_window_is_partial(self):
        cfg = PipelineConfig(**config_values({"filters": {"window": {"start": "2021-02-03"}}}))
        assert cfg.window.start == date(2021, 2, 3)
        assert cfg.window.end == date(2021, 4, 15)

    def test_merged_kind_selects_model(self):
        assert PipelineConfig(**config_values({"model": {"kind": "baseline0"}})).model == "baseline0"

    @pytest.mark.parametrize("overrides", [
        {"mystery": 1},
        {"paths": {"mystery": "x"}},
        {"filters": {"mystery": 1}},
        {"model": {"mystery": 1}},
        {"filters": {"window": {"mystery": "2021-01-01"}}},
        {"filters": {"window": {"start": "not a date"}}},
        {"filters": {"window": {"start": "20210101"}}},
        {"filters": {"window": {"end": "2021-W01-1"}}},
        {"filters": "not an object"},
        {"model": {"kind": "svm"}},
        {"model": {"k": 0}},
    ])
    def test_merged_rejects_bad_overrides(self, overrides):
        with pytest.raises(ConfigError):
            PipelineConfig(**config_values(overrides))


class TestAccountTokens:
    def test_conversion_then_segmentation(self, pipeline):
        acct = account("t", None, "支持臺灣民主")
        assert pipeline.account_tokens(acct) == ["支持", "台湾", "民主"]

    def test_cache_returns_same_object(self, pipeline):
        acct = account("t", None, "支持民主")
        assert pipeline.account_counts(acct) is pipeline.account_counts(acct)

    def test_counts_in_first_occurrence_order(self, pipeline):
        acct = AccountRecord("t", 0, None,
                             (Tweet("反对统一 支持民主", WHEN), Tweet("支持统一", WHEN)))
        counts = pipeline.account_counts(acct)
        assert counts == Counter(pipeline.account_tokens(acct))
        assert list(counts.items()) == [("反对", 1), ("统一", 2), ("支持", 2), ("民主", 1)]

    def test_counted_terms_are_shared_across_accounts(self, pipeline):
        first = pipeline.account_counts(account("a", None, "民主"))
        second = pipeline.account_counts(account("b", None, "民主"))
        assert next(iter(first)) is next(iter(second))

    def test_tweets_concatenate_in_order(self, pipeline):
        acct = AccountRecord("t", 0, None,
                             (Tweet("支持民主", WHEN), Tweet("反对统一", WHEN)))
        assert pipeline.account_tokens(acct) == ["支持", "民主", "反对", "统一"]

    def test_clean_flag_respected(self, resources):
        raw = Pipeline(resources, PipelineConfig(clean=False))
        acct = account("t", None, "#民主")
        assert raw.account_tokens(acct) == ["#", "民主"]


class TestPredict:
    def test_knn_separates_topics(self, pipeline):
        corpus = make_corpus()
        queries = Corpus(corpus.label_set, (
            account("q1", None, "统一富强 繁荣爱国"),
            account("q0", None, "民主抗争 普选罢工"),
        ))
        preds, vocabulary = pipeline.predict(corpus, queries)
        assert [p.account_id for p in preds] == ["q0", "q1"]  # sorted
        assert preds[0].predicted == "Democracy"
        assert preds[1].predicted == "Beijing"
        assert all(len(p.neighbors) == 3 for p in preds)
        assert "民主" in vocabulary

    def test_knn_transforms_each_query_and_only_rescored_accounts(self, resources, monkeypatch):
        # Ten of the twelve training accounts share no term with any query,
        # so their lanes are 0: they are never re-scored and never get a
        # vector. b0 is re-scored for two queries and transformed once. q3
        # shares no term with training, so every lane of it is 0 and every
        # account is a candidate at similarity 0.0, still with no vector.
        transform = TfidfVectorizer.transform
        calls = []

        def counting(vectorizer, counts):
            calls.append(counts)
            return transform(vectorizer, counts)

        monkeypatch.setattr(TfidfVectorizer, "transform", counting)
        unrelated = tuple(account(f"t{i}", ("Beijing", "Democracy")[i % 2], f"alpha{i} beta{i} gamma{i}")
                          for i in range(10))
        b0, d0 = account("b0", "Beijing", BEIJING_TWEETS[0]), account("d0", "Democracy", DEMOCRACY_TWEETS[0])
        train = Corpus(("Beijing", "Democracy"), unrelated + (b0, d0))
        queries = Corpus(train.label_set, (account("q0", None, "统一稳定 繁荣富强"),
                                           account("q1", None, "统一稳定 复兴团结"),
                                           account("q2", None, "民主自由 法治普选"),
                                           account("q3", None, "zeta")))
        pipe = Pipeline(resources, PipelineConfig(k=1))
        preds, _ = pipe.predict(train, queries)
        assert [(p.account_id, p.predicted) for p in preds] == [
            ("q0", "Beijing"), ("q1", "Beijing"), ("q2", "Democracy"), ("q3", "Beijing")]
        assert [id(c) for c in calls[:4]] == [id(pipe.account_counts(q)) for q in queries.accounts]
        assert sorted(map(id, calls[4:])) == sorted(id(pipe.account_counts(a)) for a in (b0, d0))

    def test_vocabulary_is_train_only(self, pipeline):
        corpus = make_corpus()
        queries = Corpus(corpus.label_set, (account("q", None, "中华人民共和国民主"),))
        _, vocabulary = pipeline.predict(corpus, queries)
        assert "中华人民共和国" not in vocabulary

    def test_unlabeled_train_rejected(self, pipeline):
        corpus = Corpus(("B",), (account("a", None, "民主"),))
        with pytest.raises(PipelineError, match="training"):
            pipeline.predict(corpus, corpus)

    def test_baseline0_is_constant(self, resources):
        pipe = Pipeline(resources, PipelineConfig(model="baseline0"))
        corpus = make_corpus()
        extra = Corpus(corpus.label_set,
                       corpus.accounts + (account("b9", "Beijing", "统一"),))
        preds, vocabulary = pipe.predict(extra, corpus)
        assert {p.predicted for p in preds} == {"Beijing"}
        assert all(p.neighbors == () for p in preds)
        assert vocabulary == frozenset()

    def test_baseline1_separates_topics(self, resources):
        pipe = Pipeline(resources, PipelineConfig(model="baseline1", k=3))
        corpus = make_corpus()
        queries = Corpus(corpus.label_set, (
            account("q0", None, "民主抗争 普选罢工"),
            account("q1", None, "统一富强 繁荣爱国"),
        ))
        preds, vocabulary = pipe.predict(corpus, queries)
        assert preds[0].predicted == "Democracy"
        assert preds[1].predicted == "Beijing"
        assert "民主" in vocabulary
        # every neighbor similarity is the reciprocal set distance
        for p in preds:
            for nb in p.neighbors:
                assert 0.0 < nb.similarity <= 1.0

    def test_baseline1_traditional_stopword_removes_simplified_token(self, resources, tmp_path):
        path = tmp_path / "stopwords.txt"
        path.write_text("國家\n", encoding="utf-8")
        acct = account("a", "B", "我們的國家")
        plain = Pipeline(resources, PipelineConfig(model="baseline1"))
        assert "国家" in plain.top_terms(acct)
        pipe = Pipeline(load_resources(stopwords=str(path)), PipelineConfig(model="baseline1"))
        assert pipe.top_terms(acct) == plain.top_terms(acct) - {"国家"}

    def test_traditional_lexicon_word_segments_converted_text(self, resources, tmp_path):
        path = tmp_path / "lexicon.txt"
        path.write_text("國家 100\n", encoding="utf-8")
        res = Resources(resources.table, load_lexicon(path), None, frozenset())
        pipe = Pipeline(res, PipelineConfig())
        assert pipe.account_tokens(account("a", "B", "我們的國家")) == ["我", "们", "的", "国家"]


class TestCrossValidate:
    def test_folds_partition_and_separate(self, pipeline):
        corpus = make_corpus()
        result = pipeline.cross_validate(corpus)
        assert len(result.folds) == 2
        seen = [i for f in result.folds for i in f.validation_ids]
        assert sorted(seen) == sorted(corpus.account_ids)
        for fold in result.folds:
            assert list(fold.validation_ids) == sorted(fold.validation_ids)
            assert fold.metrics["accuracy"] == 1.0
        assert result.aggregate["accuracy"] == {"mean": 1.0, "std": 0.0}

    def test_aggregate_shape(self, pipeline):
        result = pipeline.cross_validate(make_corpus())
        agg = result.aggregate
        assert set(agg) == {"accuracy", "per_label"}
        for label in ("Beijing", "Democracy"):
            assert set(agg["per_label"][label]) == {"precision", "recall", "f1"}
            for stats in agg["per_label"][label].values():
                assert set(stats) == {"mean", "std"}

    def test_no_validation_terms_leak_into_fold_vocabulary(self, pipeline):
        # 集会 is unique to d3, so whenever d3 is held out the fitted
        # vocabulary must not contain it
        cfg = pipeline.config
        held_out = [pipeline.predict(train, validation)[1]
                    for train, validation in kfold_splits(make_corpus(), cfg.folds, cfg.seed)
                    if "d3" in validation.account_ids]
        assert held_out
        for vocabulary in held_out:
            assert "集会" not in vocabulary

    def test_unlabeled_rejected(self, pipeline):
        corpus = Corpus(("B",), (account("a", None, "民主"), account("b", "B", "统一")))
        with pytest.raises(PipelineError):
            pipeline.cross_validate(corpus)

    def test_scored_run_keeps_no_model_state(self):
        # a fold's vocabulary is read from Pipeline.predict, not kept per run
        assert [f.name for f in dataclasses.fields(ScoredRun)] == ["confusion", "metrics", "predictions"]

    def test_baseline1_top_terms_once_per_account(self, resources, monkeypatch):
        top_k_terms = zhstance.pipeline.top_k_terms
        calls = []

        def counting(*args):
            calls.append(args)
            return top_k_terms(*args)

        monkeypatch.setattr(zhstance.pipeline, "top_k_terms", counting)
        pipe = Pipeline(resources, PipelineConfig(model="baseline1", k=3, folds=4))
        corpus = make_corpus()
        splits = kfold_splits(corpus, pipe.config.folds, pipe.config.seed)
        vocabularies = [pipe.predict(train, validation)[1] for train, validation in splits]
        assert len(calls) == len(corpus.accounts)
        # each fold's vocabulary is the union of its training top-term sets
        for (train, _), vocabulary in zip(splits, vocabularies):
            assert vocabulary == frozenset().union(*map(pipe.top_terms, train.accounts))

    def test_knn_segments_each_account_once(self, resources, monkeypatch):
        segment = zhstance.pipeline.segment
        calls = []

        def counting(*args):
            calls.append(args)
            return segment(*args)

        monkeypatch.setattr(zhstance.pipeline, "segment", counting)
        corpus = make_corpus()
        Pipeline(resources, PipelineConfig(k=3, folds=4)).cross_validate(corpus)
        assert len(calls) == len(corpus.accounts)


class TestEvaluateTestSet:
    def test_separable_split(self, pipeline):
        corpus = make_corpus()
        test = Corpus(corpus.label_set, tuple(a for a in corpus.accounts
                                              if a.account_id in ("b0", "d0")))
        train = Corpus(corpus.label_set, tuple(a for a in corpus.accounts
                                               if a.account_id not in ("b0", "d0")))
        result = pipeline.evaluate_test_set(train, test)
        assert result.confusion.counts == ((1, 0), (0, 1))
        assert result.metrics["accuracy"] == 1.0
        assert [p.account_id for p in result.predictions] == ["b0", "d0"]

    def test_unlabeled_test_rejected(self, pipeline):
        corpus = make_corpus()
        test = Corpus(corpus.label_set, (account("q", None, "民主"),))
        with pytest.raises(PipelineError, match="test"):
            pipeline.evaluate_test_set(corpus, test)
