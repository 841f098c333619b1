"""Tests for the pipeline: configuration, orchestration, and hygiene."""

import dataclasses
import itertools
import os
import pickle
import threading
import time
from collections import Counter
from datetime import date

import pytest

import zhstance.pipeline
from zhstance.classify import KnnIndex, TermSetIndex
from zhstance.corpus import (
    AccountRecord,
    Corpus,
    DateWindow,
    filter_accounts,
    kfold_splits,
    labeled_accounts,
    load_corpus,
)
from zhstance.pipeline import (
    MODELS,
    ConfigError,
    Pipeline,
    PipelineConfig,
    PipelineError,
    ScoredRun,
    config_values,
)
from zhstance.report import crossval_report, dumps_report
from zhstance.resources import Resources, load_resources
from zhstance.segmenter import load_lexicon
from zhstance.vectorize import TfidfVectorizer, fit_vectorizer

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
    return AccountRecord(account_id, 20000, label, (text,))


def make_corpus():
    accounts = []
    for i in range(4):
        accounts.append(account(f"b{i}", "Beijing", BEIJING_TWEETS[i]))
        accounts.append(account(f"d{i}", "Democracy", DEMOCRACY_TWEETS[i]))
    return Corpus(("Beijing", "Democracy"), tuple(accounts))


def record_indexes(monkeypatch, log):
    """log (a SharedLog), to which each KnnIndex and TermSetIndex that zhstance.pipeline
    builds from now on is appended, in this process or in a forked child."""
    for build in (KnnIndex, TermSetIndex):
        def recording(*args, build=build):
            index = build(*args)
            log.append(index)
            return index
        monkeypatch.setattr(zhstance.pipeline, build.__name__, recording)
    return log


def by_fold(records, splits, train_ids) -> list:
    """The record of each split's fold, in split order. Folds scored in several processes
    are recorded in no set order, so each record is found by its fold's training ids,
    train_ids(record); there must be exactly one per fold."""
    keyed = {frozenset(train_ids(record)): record for record in records}
    assert len(keyed) == len(records) == len(splits)
    return [keyed[frozenset(train.account_ids)] for train, _ in splits]


def fitted_terms(index) -> frozenset[str]:
    """The terms an index was fitted on: a KnnIndex's document frequency
    keys, or the union of a TermSetIndex's training sets."""
    if isinstance(index, KnnIndex):
        return frozenset(index.vectorizer.document_frequency)
    return frozenset().union(*index.sets)


def one_table(vectorizer) -> bool:
    """Whether the vectorizer holds one dict of its vocabulary's size, and
    beside it none with more than one entry per distinct document frequency."""
    df = vectorizer.document_frequency
    sizes = [len(value) for value in vars(vectorizer).values() if isinstance(value, dict)]
    return sizes.count(len(df)) == 1 and all(n <= len(set(df.values())) for n in sizes if n != len(df))


def use_cpus(monkeypatch, cpus):
    """Make count_batch see `cpus` usable CPUs, so that it cuts that many chunks."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)


def assert_no_child_left():
    """No child of this process is running or waiting to be reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def segment_calls(monkeypatch, shared_log):
    """The number of segment calls so far, made here or in a forked child:
    each call appends a record to one SharedLog."""
    segment, log = zhstance.pipeline.segment, shared_log()

    def counting(*args):
        log.append(None)
        return segment(*args)

    monkeypatch.setattr(zhstance.pipeline, "segment", counting)
    return lambda: len(log.records())


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
        acct = AccountRecord("t", 0, None, ("反对统一 支持民主", "支持统一"))
        counts = pipeline.account_counts(acct)
        assert counts == Counter(pipeline.account_tokens(acct))
        assert list(counts.items()) == [("反对", 1), ("统一", 2), ("支持", 2), ("民主", 1)]

    def test_counted_terms_are_shared_across_accounts(self, pipeline):
        first = pipeline.account_counts(account("a", None, "民主"))
        second = pipeline.account_counts(account("b", None, "民主"))
        assert next(iter(first)) is next(iter(second))

    def test_tweets_concatenate_in_order(self, pipeline):
        acct = AccountRecord("t", 0, None, ("支持民主", "反对统一"))
        assert pipeline.account_tokens(acct) == ["支持", "民主", "反对", "统一"]

    def test_clean_flag_respected(self, resources):
        raw = Pipeline(resources, PipelineConfig(clean=False))
        acct = account("t", None, "#民主")
        assert raw.account_tokens(acct) == ["#", "民主"]


class TestCountBatch:
    @pytest.fixture
    def accounts(self, synthetic_corpus_path):
        # the fixture corpus's accounts, each with its in-window texts, and accounts with
        # traditional text, out-of-lexicon Han runs and terms shared with its first and last
        extra = (account("t1", None, "支持臺灣民主 香港的統一都繁榮 嘰哩咕嚕"),
                 account("t2", None, "民主自由 國家發展 咕嚕嘰哩 abc 123"))
        return filter_accounts(load_corpus(synthetic_corpus_path), 0, 0, PipelineConfig().window).accounts + extra

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_equals_sequential_counting(self, resources, accounts, monkeypatch, segment_calls, cpus):
        use_cpus(monkeypatch, cpus)
        fork, forks = os.fork, []
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        pipe = Pipeline(resources, PipelineConfig())
        cached = pipe.account_counts(accounts[3])
        batch = pipe.count_batch(accounts + accounts[:2])
        assert len(forks) == cpus - 1
        assert segment_calls() == len(accounts)  # each once, the cached one before the batch
        assert batch[3] is cached
        assert batch[-2:] == batch[:2] and batch[-1] is batch[1]
        terms = {}
        for acct, counts in zip(accounts, batch):
            assert type(counts) is Counter
            assert list(counts.items()) == list(Counter(pipe.account_tokens(acct)).items())
            for term in counts:  # one object per term, whichever process counted it
                assert terms.setdefault(term, term) is term
        assert len(terms) < sum(map(len, batch[:len(accounts)]))  # some terms are shared
        assert_no_child_left()

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("bad", [["b01"], ["t2"], ["d05", "t2"]],
                             ids=["parent-chunk", "last-child-chunk", "two-children"])
    def test_error_is_the_sequential_one(self, resources, accounts, monkeypatch, cpus, bad):
        tokens = Pipeline.account_tokens

        def failing(self, acct):
            if acct.account_id in bad:
                raise ValueError(f"cannot tokenise {acct.account_id}")
            return tokens(self, acct)

        monkeypatch.setattr(Pipeline, "account_tokens", failing)
        errors = []
        for n in (1, cpus):
            use_cpus(monkeypatch, n)
            with pytest.raises(ValueError) as caught:
                Pipeline(resources, PipelineConfig()).count_batch(accounts)
            errors.append((type(caught.value), str(caught.value)))
            assert_no_child_left()
        assert errors[0] == errors[1] == (ValueError, f"cannot tokenise {bad[0]}")

    def test_error_here_kills_the_children(self, resources, accounts, monkeypatch):
        use_cpus(monkeypatch, 2)
        parent, tokens = os.getpid(), Pipeline.account_tokens

        def stalling(self, acct):
            if os.getpid() != parent and acct is accounts[-1]:
                time.sleep(10)
            elif acct is accounts[1]:  # the first is counted before the fork
                raise ValueError("cannot tokenise")
            return tokens(self, acct)

        monkeypatch.setattr(Pipeline, "account_tokens", stalling)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="cannot tokenise"):
            Pipeline(resources, PipelineConfig()).count_batch(accounts)
        assert time.perf_counter() - start < 5  # the stalled child was killed, not waited for
        assert_no_child_left()

    def test_failed_child_is_counted_here(self, resources, accounts, monkeypatch):
        # Three chunks of eight accounts. The second chunk's child exits
        # nonzero and sends nothing; the third's sends its last account's
        # pickle cut short. This process counts what did not arrive.
        use_cpus(monkeypatch, 3)
        parent, tokens, dumps = os.getpid(), Pipeline.account_tokens, pickle.dumps
        counted_here = []

        def dying(self, acct):
            if os.getpid() == parent:
                counted_here.append(acct)
            elif acct.account_id == "d05":
                os._exit(3)
            return tokens(self, acct)

        def truncating(obj, *args):
            data = dumps(obj, *args)
            return data[:len(data) // 2] if os.getpid() != parent and "abc" in obj else data

        monkeypatch.setattr(Pipeline, "account_tokens", dying)
        monkeypatch.setattr(pickle, "dumps", truncating)
        pipe = Pipeline(resources, PipelineConfig())
        batch = pipe.count_batch(accounts)
        monkeypatch.undo()
        assert counted_here == [*accounts[:16], accounts[-1]]
        assert [list(c.items()) for c in batch] == [list(Counter(pipe.account_tokens(a)).items())
                                                   for a in accounts]
        assert_no_child_left()

    def test_no_fork_beside_another_thread(self, resources, accounts, monkeypatch):
        def refused():
            raise AssertionError("forked beside another thread")

        use_cpus(monkeypatch, 3)
        monkeypatch.setattr(os, "fork", refused)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            batch = Pipeline(resources, PipelineConfig()).count_batch(accounts)
        finally:
            release.set()
            thread.join()
        assert [list(c.items()) for c in batch] == [list(Counter(a).items()) for a in map(
            Pipeline(resources, PipelineConfig()).account_tokens, accounts)]


class TestPredict:
    def test_knn_separates_topics(self, pipeline, monkeypatch, shared_log):
        built = record_indexes(monkeypatch, shared_log())
        corpus = make_corpus()
        queries = Corpus(corpus.label_set, (
            account("q1", None, "统一富强 繁荣爱国"),
            account("q0", None, "民主抗争 普选罢工"),
        ))
        preds = pipeline.predict(corpus, queries)
        assert [p.account_id for p in preds] == ["q0", "q1"]  # sorted
        assert preds[0].predicted == "Democracy"
        assert preds[1].predicted == "Beijing"
        assert all(len(p.neighbors) == 3 for p in preds)
        [index] = built.records()
        assert isinstance(index, KnnIndex) and "民主" in fitted_terms(index)

    def test_knn_vectorizer_holds_one_table(self, pipeline, monkeypatch):
        # after predict, the fitted vectorizer's frequencies have become its
        # IDF in place: one dict of vocabulary size, read back as the fit's
        seen = []

        def recording(train, vectorizer):
            seen.append(vectorizer)
            return KnnIndex(train, vectorizer)

        monkeypatch.setattr(zhstance.pipeline, "KnnIndex", recording)
        corpus = make_corpus()
        train = Corpus(corpus.label_set, corpus.accounts[2:])
        pipeline.predict(train, Corpus(corpus.label_set, corpus.accounts[:2]))
        [vectorizer] = seen
        want = fit_vectorizer([pipeline.account_counts(a) for a in train.accounts])
        assert one_table(vectorizer)
        assert vectorizer.document_frequency == want.document_frequency
        assert vectorizer.idf == want.idf and vectorizer == want

    def test_knn_transforms_each_query_and_no_training_account(self, resources, monkeypatch):
        # Ten of the twelve training accounts share no term with any query,
        # so their lanes are 0 and they are never re-scored. b0 is re-scored
        # for two queries and d0 for one, both from their counts. q3 shares
        # no term with training, so every lane of it is 0 and every account
        # is a candidate at similarity 0.0. Only the queries are transformed.
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
        preds = pipe.predict(train, queries)
        assert [(p.account_id, p.predicted) for p in preds] == [
            ("q0", "Beijing"), ("q1", "Beijing"), ("q2", "Democracy"), ("q3", "Beijing")]
        assert [p.neighbors[0].account_id for p in preds] == ["b0", "b0", "d0", "b0"]
        assert [id(c) for c in calls] == [id(pipe.account_counts(q)) for q in queries.accounts]

    @pytest.mark.parametrize("model", ["knn", "baseline1"])
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_query_sharing_a_training_id_is_counted_on_its_own(self, resources, monkeypatch, model, cpus):
        # the caches key on the whole record, so a query that reuses b0's
        # account_id with Democracy tweets is not read as the training b0
        use_cpus(monkeypatch, cpus)
        train = make_corpus()
        query = account("b0", None, DEMOCRACY_TWEETS[1])
        pipe = Pipeline(resources, PipelineConfig(model=model, k=3))
        b0 = train.accounts[0]
        assert b0.account_id == query.account_id and b0 != query
        counted = pipe.count_batch([b0, query])
        assert counted == [Counter(pipe.account_tokens(b0)), Counter(pipe.account_tokens(query))]
        assert counted[0] != counted[1]
        preds = pipe.predict(train, Corpus(train.label_set, (query,)))
        assert [(p.account_id, p.predicted) for p in preds] == [("b0", "Democracy")]
        assert_no_child_left()

    def test_vocabulary_is_train_only(self, resources, monkeypatch, shared_log):
        # the query's 中华人民共和国 is in no training account, so neither
        # index predict builds holds it; each holds exactly its training terms
        built = record_indexes(monkeypatch, shared_log())
        corpus = make_corpus()
        queries = Corpus(corpus.label_set, (account("q", None, "中华人民共和国民主"),))
        for model in ("knn", "baseline1"):
            pipe = Pipeline(resources, PipelineConfig(model=model, k=3))
            pipe.predict(corpus, queries)
            assert "中华人民共和国" in pipe.account_counts(queries.accounts[0])
            terms_of = pipe.account_counts if model == "knn" else pipe.top_terms
            assert fitted_terms(built.records()[-1]) == frozenset().union(*map(terms_of, corpus.accounts))
        assert [type(index).__name__ for index in built.records()] == ["KnnIndex", "TermSetIndex"]

    def test_unlabeled_train_rejected(self, pipeline):
        corpus = Corpus(("B",), (account("a", None, "民主"),))
        with pytest.raises(PipelineError, match="training"):
            pipeline.predict(corpus, corpus)

    def test_baseline0_is_constant(self, resources, monkeypatch, shared_log):
        built = record_indexes(monkeypatch, shared_log())
        pipe = Pipeline(resources, PipelineConfig(model="baseline0"))
        corpus = make_corpus()
        extra = Corpus(corpus.label_set,
                       corpus.accounts + (account("b9", "Beijing", "统一"),))
        preds = pipe.predict(extra, corpus)
        assert {p.predicted for p in preds} == {"Beijing"}
        assert all(p.neighbors == () for p in preds)
        assert built.records() == []  # no index, so no vocabulary

    def test_baseline1_separates_topics(self, resources, monkeypatch, shared_log):
        built = record_indexes(monkeypatch, shared_log())
        pipe = Pipeline(resources, PipelineConfig(model="baseline1", k=3))
        corpus = make_corpus()
        queries = Corpus(corpus.label_set, (
            account("q0", None, "民主抗争 普选罢工"),
            account("q1", None, "统一富强 繁荣爱国"),
        ))
        preds = pipe.predict(corpus, queries)
        assert preds[0].predicted == "Democracy"
        assert preds[1].predicted == "Beijing"
        [index] = built.records()
        assert not isinstance(index, KnnIndex) and "民主" in fitted_terms(index)
        # every neighbor similarity is the reciprocal set distance
        for p in preds:
            for nb in p.neighbors:
                assert 0.0 < nb.similarity <= 1.0

    def test_top_terms_are_exactly_top_n(self, resources):
        # six distinct terms: the stopword 的 is the most frequent and goes;
        # 统一 and 自由 tie for second place, and the smaller term takes it
        res = Resources(resources.table, resources.lexicon, resources.hmm, frozenset({"的"}))
        pipe = Pipeline(res, PipelineConfig(model="baseline1", top_n=2))
        acct = account("a", "B", "民主 民主 民主 的 的 的 的 统一 统一 自由 自由 人权 法治")
        assert len(pipe.account_counts(acct)) == 6
        assert pipe.top_terms(acct) == {"民主", "统一"}

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

    def test_no_validation_terms_leak_into_fold_vocabulary(self, resources, monkeypatch, shared_log):
        # 集会 is unique to d3, so the index of each fold that holds d3 out,
        # as cross_validate builds it, must not contain it, and each other must
        corpus = make_corpus()
        for model, cpus in itertools.product(("knn", "baseline1"), (1, 2)):  # folds here, then forked too
            use_cpus(monkeypatch, cpus)
            built = record_indexes(monkeypatch, shared_log())
            pipe = Pipeline(resources, PipelineConfig(model=model, k=3, folds=4))
            pipe.cross_validate(corpus)
            splits = kfold_splits(corpus, pipe.config.folds, pipe.config.seed)
            for (_, validation), index in zip(splits, by_fold(built.records(), splits, lambda ix: ix.ids)):
                assert ("集会" in fitted_terms(index)) is ("d3" not in validation.account_ids)

    @pytest.mark.parametrize("tf", ["raw", "relative"])
    def test_fold_vectorizers_equal_a_fit_on_the_fold(self, resources, monkeypatch, shared_log, tf):
        # cross_validate hands each fold a vectorizer taken by subtraction
        # from the whole corpus's (without); it must be the fit on that
        # fold's training counts, and predict(train, validation) alone,
        # which fits afresh, would not show it
        def recording(train, vectorizer):
            train = list(train)
            index = KnnIndex(train, vectorizer)  # built first: it reads the IDF
            seen.append(([account_id for account_id, _, _ in train], vectorizer, one_table(vectorizer)))
            return index

        monkeypatch.setattr(zhstance.pipeline, "KnnIndex", recording)
        corpus = make_corpus()
        for cpus in (1, 2):  # every fold scored here, then folds scored in forked children too
            use_cpus(monkeypatch, cpus)
            seen = shared_log()
            pipe = Pipeline(resources, PipelineConfig(k=3, folds=4, tf=tf))
            pipe.cross_validate(corpus)
            splits = kfold_splits(corpus, pipe.config.folds, pipe.config.seed)
            for (train, _), (ids, got, alone) in zip(splits, by_fold(seen.records(), splits, lambda r: r[0])):
                assert ids == [a.account_id for a in train.accounts]
                assert alone  # one table, checked where the fold was scored
                want = fit_vectorizer([pipe.account_counts(a) for a in train.accounts], tf_mode=tf)
                assert got.document_frequency == want.document_frequency
                assert got.corpus_size == want.corpus_size == len(train.accounts)
                assert got.idf == want.idf and got.tf_mode == tf

    def test_unlabeled_rejected(self, pipeline):
        corpus = Corpus(("B",), (account("a", None, "民主"), account("b", "B", "统一")))
        with pytest.raises(PipelineError):
            pipeline.cross_validate(corpus)

    def test_whole_corpus_vectorizer_builds_no_idf(self, resources, monkeypatch):
        # the folds read the whole corpus's fit only through without, so its
        # frequencies are never turned into IDF
        fits = []

        def recording(*args, **kwargs):
            fits.append(fit_vectorizer(*args, **kwargs))
            return fits[-1]

        monkeypatch.setattr(zhstance.pipeline, "fit_vectorizer", recording)
        use_cpus(monkeypatch, 1)
        Pipeline(resources, PipelineConfig(k=3, folds=4)).cross_validate(make_corpus())
        [whole] = fits
        [table] = [value for value in vars(whole).values() if isinstance(value, dict)]
        assert {type(v) for v in table.values()} == {int} and len(table) == len(whole.document_frequency)

    def test_scored_run_keeps_no_model_state(self):
        # a fold's model is not kept per run
        assert [f.name for f in dataclasses.fields(ScoredRun)] == ["confusion", "metrics", "predictions"]

    def test_baseline1_top_terms_once_per_account(self, resources, monkeypatch, shared_log):
        top_k_terms = zhstance.pipeline.top_k_terms

        def counting(*args):
            calls.append(args)
            return top_k_terms(*args)

        monkeypatch.setattr(zhstance.pipeline, "top_k_terms", counting)
        corpus = make_corpus()
        for cpus in (1, 2):  # every fold scored here, then folds scored in forked children too
            use_cpus(monkeypatch, cpus)
            calls, built = shared_log(), record_indexes(monkeypatch, shared_log())
            pipe = Pipeline(resources, PipelineConfig(model="baseline1", k=3, folds=4))
            pipe.cross_validate(corpus)
            assert len(calls.records()) == len(corpus.accounts)
            # each fold's index holds its training accounts' top-term sets, in account_id order
            splits = kfold_splits(corpus, pipe.config.folds, pipe.config.seed)
            for (train, _), index in zip(splits, by_fold(built.records(), splits, lambda ix: ix.ids)):
                ordered = sorted(train.accounts, key=lambda a: a.account_id)
                assert index.ids == [a.account_id for a in ordered]
                assert index.sets == [pipe.top_terms(a) for a in ordered]

    @pytest.mark.parametrize("model", MODELS)
    def test_report_is_the_same_bytes_on_any_cpu_count(self, resources, synthetic_corpus_path, monkeypatch,
                                                       model):
        cfg = PipelineConfig(model=model)
        corpus = labeled_accounts(filter_accounts(load_corpus(synthetic_corpus_path),
                                                  cfg.min_followers, cfg.min_tweets, cfg.window))
        fork, forks, reports = os.fork, [], set()
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        for cpus in (1, 2, 3, 6):  # 6 CPUs are more than the 5 folds
            use_cpus(monkeypatch, cpus)
            del forks[:]
            reports.add(dumps_report(crossval_report(Pipeline(resources, cfg).cross_validate(corpus), cfg)))
            # one child per fold chunk after the first, and per count chunk after the first
            assert len(forks) == min(cpus, cfg.folds) - 1 + (model != "baseline0") * (cpus - 1)
            assert_no_child_left()
        assert len(reports) == 1

    def test_fold_error_is_the_sequential_one(self, resources, monkeypatch):
        # folds 2 and 3 of 4 fail: at 2 CPUs a child scores both, at 3 one
        # child scores both, at 6 a child scores each; fold 2's error wins
        corpus, cfg = make_corpus(), PipelineConfig(k=3, folds=4)
        fold_of = {tuple(v.account_ids): n for n, (_, v) in enumerate(kfold_splits(corpus, cfg.folds, cfg.seed))}
        predict, errors = Pipeline.predict, set()

        def failing(self, train, queries, vectorizer=None):
            if fold_of[tuple(queries.account_ids)] >= 2:
                raise ArithmeticError(f"cannot score fold {fold_of[tuple(queries.account_ids)]}")
            return predict(self, train, queries, vectorizer)

        monkeypatch.setattr(Pipeline, "predict", failing)
        for cpus in (1, 2, 3, 6):
            use_cpus(monkeypatch, cpus)
            with pytest.raises(ArithmeticError) as caught:
                Pipeline(resources, cfg).cross_validate(corpus)
            errors.add((type(caught.value), str(caught.value)))
            assert_no_child_left()
        assert errors == {(ArithmeticError, "cannot score fold 2")}

    def test_failed_child_has_its_folds_scored_here(self, resources, monkeypatch):
        # Four folds in three chunks: this process scores fold 0, one child
        # fold 1, another folds 2 and 3. That child scores fold 2, then exits
        # nonzero while building fold 3's index, so it sends nothing, and
        # this process scores folds 2 and 3 itself.
        corpus, cfg = make_corpus(), PipelineConfig(k=3, folds=4)
        expected = Pipeline(resources, cfg).cross_validate(corpus)
        splits = kfold_splits(corpus, cfg.folds, cfg.seed)
        fold_of = {tuple(v.account_ids): n for n, (_, v) in enumerate(splits)}
        parent, score, scored_here = os.getpid(), Pipeline.score, []

        def recording(self, train, queries, vectorizer=None):
            if os.getpid() == parent:
                scored_here.append(fold_of[tuple(queries.account_ids)])
            return score(self, train, queries, vectorizer)

        def dying(train, vectorizer):
            train = list(train)
            if os.getpid() != parent and {a for a, _, _ in train} == set(splits[3][0].account_ids):
                os._exit(3)
            return KnnIndex(train, vectorizer)

        monkeypatch.setattr(Pipeline, "score", recording)
        monkeypatch.setattr(zhstance.pipeline, "KnnIndex", dying)
        use_cpus(monkeypatch, 3)
        assert Pipeline(resources, cfg).cross_validate(corpus) == expected
        assert scored_here == [0, 2, 3]
        assert_no_child_left()

    def test_knn_segments_each_account_once(self, resources, monkeypatch, segment_calls):
        corpus = make_corpus()
        for cpus in (1, 2, 3):  # one chunk, then forked children
            use_cpus(monkeypatch, cpus)
            before = segment_calls()
            Pipeline(resources, PipelineConfig(k=3, folds=4)).cross_validate(corpus)
            assert segment_calls() - before == len(corpus.accounts)


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
