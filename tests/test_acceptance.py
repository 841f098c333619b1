"""Acceptance gate: eight release criteria, one test per criterion.

The conftest terminal summary prints one PASS/FAIL line per criterion so
the gate can be read at a glance. Each criterion is self-contained: the
brute-force oracles are written out here in full rather than imported
from the unit-test modules, so this file alone documents what every
criterion means.
"""

import json
import math
import random
import time
from collections import Counter
from types import SimpleNamespace

import pytest

import zhstance.pipeline
from zhstance.classify import KnnIndex, knn_predict, vote_weight
from zhstance.cli import main
from zhstance.corpus import (
    AccountRecord,
    Corpus,
    Tweet,
    filter_accounts,
    kfold_splits,
    labeled_accounts,
    load_corpus,
    parse_timestamp,
)
from zhstance.evaluate import ConfusionMatrix, metric_report, round_half_up
from zhstance.pipeline import Pipeline, PipelineConfig
from zhstance.report import crossval_report, dumps_report
from zhstance.resources import load_resources
from zhstance.segmenter import (
    ALLOWED_TRANS,
    FINAL_STATES,
    NEG_INF,
    STATES,
    HmmModel,
    Lexicon,
    max_prob_route,
    viterbi,
)
from zhstance.vectorize import TfidfVectorizer, cosine_similarity, fit_vectorizer


# ----------------------------------------------------------------------
# criterion 1: reference metric triples reproduced from confusion matrices
# ----------------------------------------------------------------------

def check_table(counts, accuracy, f1_by_label):
    report = metric_report(ConfusionMatrix(("Beijing", "Democracy"), counts))
    assert round_half_up(report["accuracy"]) == accuracy
    for label, want in f1_by_label.items():
        assert round_half_up(report["per_label"][label]["f1"]) == want


def test_criterion_1_metric_reproduction():
    started = time.monotonic()
    # majority baseline: everything called Democracy
    check_table(((0, 10), (0, 11)), 0.52, {"Beijing": 0.0, "Democracy": 0.69})
    # top-term set-distance baseline
    check_table(((10, 0), (5, 6)), 0.76, {"Beijing": 0.8, "Democracy": 0.71})
    # full pipeline; (9, 1 / 0, 11) is the only binary confusion whose
    # metrics round to the reference 0.95 / 0.95 / 0.96 triple
    check_table(((9, 1), (0, 11)), 0.95, {"Beijing": 0.95, "Democracy": 0.96})
    assert time.monotonic() - started < 1.0


# ----------------------------------------------------------------------
# criterion 2: Viterbi agrees with exhaustive search over tag paths
# ----------------------------------------------------------------------

def valid_paths(length):
    """Every BMES path that respects the transition structure."""

    def extend(prefix):
        if len(prefix) == length:
            if prefix[-1] in FINAL_STATES:
                yield tuple(prefix)
            return
        for nxt in ALLOWED_TRANS[prefix[-1]]:
            prefix.append(nxt)
            yield from extend(prefix)
            prefix.pop()

    for state in STATES:
        yield from extend([state])


def path_score(path, observations, hmm):
    score = hmm.start_logp.get(path[0], NEG_INF)
    for prev, state in zip(path, path[1:]):
        score += hmm.trans_logp.get((prev, state), NEG_INF)
    for state, ch in zip(path, observations):
        score += hmm.emit_logp.get(state, {}).get(ch, hmm.floor_logp)
    return score


def random_hmm(rng, full_coverage):
    """Random toy model. With full_coverage a finite-score path always
    exists; without it, models may admit no valid path at all."""
    alphabet = "xyz"
    if full_coverage:
        starters = {"B", "S"}
    else:
        starters = set(rng.sample(STATES, rng.randrange(1, 5)))
    start = {s: math.log(rng.uniform(0.05, 1.0)) for s in starters}
    trans = {}
    for src in STATES:
        for dst in ALLOWED_TRANS[src]:
            if full_coverage or rng.random() < 0.8:
                trans[(src, dst)] = math.log(rng.uniform(0.05, 1.0))
    emit = {}
    for s in STATES:
        emit[s] = {ch: math.log(rng.uniform(0.05, 1.0))
                   for ch in alphabet if rng.random() < 0.6}
    return HmmModel(start, trans, emit, floor_logp=math.log(1e-6)), alphabet


def test_criterion_2_viterbi_oracle():
    started = time.monotonic()
    rng = random.Random(822)
    for trial in range(220):
        hmm, alphabet = random_hmm(rng, full_coverage=trial % 2 == 0)
        obs = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 9)))
        path = viterbi(obs, hmm)
        got = path_score(path, obs, hmm)
        want = max(path_score(p, obs, hmm) for p in valid_paths(len(obs)))
        if want == NEG_INF:
            assert got == NEG_INF
        else:
            assert got == pytest.approx(want, abs=1e-9)
            # a finite-score path must also be structurally legal: it
            # starts in a state the model licenses and ends a word
            assert path[0] in hmm.start_logp
            assert path[-1] in FINAL_STATES
            for prev, cur in zip(path, path[1:]):
                assert cur in ALLOWED_TRANS[prev]
    assert time.monotonic() - started < 10.0


# ----------------------------------------------------------------------
# criterion 3: dictionary segmentation agrees with cut enumeration
# ----------------------------------------------------------------------

def enumerate_cuts(sentence):
    n = len(sentence)
    for mask in range(1 << (n - 1)):
        tokens, start = [], 0
        for i in range(n - 1):
            if (mask >> i) & 1:
                tokens.append(sentence[start:i + 1])
                start = i + 1
        tokens.append(sentence[start:])
        yield tokens


def oracle_best_cut_score(sentence, lex):
    """Best route score over all cuts whose multi-character tokens are
    dictionary words; summed right to left to match the DP exactly."""
    log_total = math.log(lex.total)
    best = None
    for tokens in enumerate_cuts(sentence):
        if any(len(t) > 1 and t not in lex.entries for t in tokens):
            continue
        score = 0.0
        for tok in reversed(tokens):
            freq = lex.entries.get(tok)
            logp = (math.log(freq) if freq is not None else 0.0) - log_total
            score = logp + score
        if best is None or score > best:
            best = score
    return best


def random_cut_instance(rng):
    alphabet = "甲乙丙丁"
    length = rng.randrange(1, 11)
    sentence = "".join(rng.choice(alphabet) for _ in range(length))
    entries = {}
    for _ in range(rng.randrange(2, 9)):
        wlen = rng.randrange(1, 4)
        start = rng.randrange(0, len(sentence)) if rng.random() < 0.7 else 0
        word = sentence[start:start + wlen] or rng.choice(alphabet)
        entries[word] = rng.randrange(1, 100)
    entries[rng.choice(alphabet)] = rng.randrange(1, 100)
    return Lexicon(entries), sentence


def test_criterion_3_segmentation_oracle():
    started = time.monotonic()
    rng = random.Random(415)
    for _ in range(220):
        lex, sentence = random_cut_instance(rng)
        route = max_prob_route(sentence, lex)
        assert "".join(route) == sentence
        assert all(len(tok) == 1 or tok in lex.entries for tok in route)
        # the route's score, added right to left as the DP adds it, is the optimum
        log_total = math.log(lex.total)
        score = 0.0
        for tok in reversed(route):
            freq = lex.entries.get(tok)
            score = ((math.log(freq) if freq is not None else 0.0) - log_total) + score
        assert score == oracle_best_cut_score(sentence, lex)
    assert time.monotonic() - started < 10.0


# ----------------------------------------------------------------------
# criterion 4: cosine invariants; weighting must not reorder neighbors
# ----------------------------------------------------------------------

CONFIGS = (("raw", None), ("raw", 10.0), ("relative", None), ("relative", 10.0))


def random_docs(rng, n_docs, vocab, max_len):
    return [Counter([rng.choice(vocab) for _ in range(rng.randrange(3, max_len + 1))])
            for _ in range(n_docs)]


def test_criterion_4_vector_invariances():
    rng = random.Random(4)
    vocab = [f"w{i}" for i in range(12)]
    docs = random_docs(rng, 20, vocab, 30)
    base = fit_vectorizer(docs)
    vectors = [base.transform(doc) for doc in docs]

    for u in vectors:
        expected_self = 1.0 if u.norm > 0.0 else 0.0
        assert abs(cosine_similarity(u, u) - expected_self) <= 1e-12
        for v in vectors:
            forward = cosine_similarity(u, v)
            assert abs(forward - cosine_similarity(v, u)) <= 1e-12
            assert 0.0 <= forward <= 1.0 + 1e-12

    # disjoint supports are exactly orthogonal
    left = base.transform(Counter(["w0", "w1", "w2"]))
    right = base.transform(Counter(["w3", "w4", "w5"]))
    assert not (set(left.weights) & set(right.weights))
    assert cosine_similarity(left, right) == 0.0

    # tf flavor and idf log base leave neighbor rankings unchanged
    for query_tokens in random_docs(rng, 5, vocab, 30):
        reference = None
        for tf_mode, log_base in CONFIGS:
            model = fit_vectorizer(docs, tf_mode=tf_mode, log_base=log_base)
            query = model.transform(query_tokens)
            sims = [cosine_similarity(query, model.transform(doc)) for doc in docs]
            order = sorted(range(len(docs)), key=lambda i: (-sims[i], i))
            ranked = sorted(sims)
            for a, b in zip(ranked, ranked[1:]):
                gap = b - a
                assert gap == 0.0 or gap > 1e-9, "ranking too close to call"
            if reference is None:
                reference = order
            assert order == reference
    assert set(base.document_frequency) == set(vocab)


# ----------------------------------------------------------------------
# criterion 5: k-NN agrees with exhaustive neighbor search
# ----------------------------------------------------------------------

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
    return min(tied), [account_id for _, account_id, _ in ranked], votes


def random_knn_instance(rng):
    from zhstance.vectorize import SparseVector

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


def knn_index(train):
    """KnnIndex over hand-made (account_id, label, vector) triples, each
    vector stated as counts under an IDF of 1.0 (log(2) / log(2)) for
    every term: raw TF weighs a count w as w / 1 * 1.0 == w."""
    unit = TfidfVectorizer(dict.fromkeys({t for _, _, v in train for t in v.weights}, 1), 2, log_base=2)
    return KnnIndex([(account_id, label, v.weights) for account_id, label, v in train], unit)


def test_criterion_5_knn_oracle():
    started = time.monotonic()
    rng = random.Random(55)
    for _ in range(150):
        query, train, k, weighting = random_knn_instance(rng)
        pred = knn_predict([query], knn_index(train), k, weighting)[0]
        want_label, want_ids, want_votes = oracle_knn(query, train, k, weighting)
        assert pred.label == want_label
        assert [n.account_id for n in pred.neighbors] == want_ids
        assert pred.votes == want_votes
        if weighting == "uniform":
            assert sum(pred.votes.values()) == float(k)

        # training order must not matter
        shuffled_train = train[:]
        rng.shuffle(shuffled_train)
        again = knn_predict([query], knn_index(shuffled_train), k, weighting)[0]
        assert again.label == pred.label
        assert again.neighbors == pred.neighbors
        assert again.votes == pred.votes
    assert time.monotonic() - started < 10.0


# ----------------------------------------------------------------------
# criteria 6-8 share one cross-validation run over the bundled corpus
# ----------------------------------------------------------------------

def cross_validate_recording(pipe, corpus):
    """pipe.cross_validate(corpus), and the vocabulary of each fold's k-NN
    index as cross_validate builds it: the document frequency keys of the
    vectorizer that the fold's KnnIndex is given."""
    vocabularies = []

    def recording(train, vectorizer):
        vocabularies.append(frozenset(vectorizer.document_frequency))
        return KnnIndex(train, vectorizer)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(zhstance.pipeline, "KnnIndex", recording)
        return pipe.cross_validate(corpus), vocabularies


@pytest.fixture(scope="module")
def crossval_run(synthetic_corpus_path):
    config = PipelineConfig(corpus=str(synthetic_corpus_path))
    started = time.monotonic()
    corpus = labeled_accounts(filter_accounts(
        load_corpus(synthetic_corpus_path),
        config.min_followers, config.min_tweets, config.window))
    pipe = Pipeline(load_resources(), config)
    result, vocabularies = cross_validate_recording(pipe, corpus)
    payload = dumps_report(crossval_report(result, config))
    elapsed = time.monotonic() - started
    return SimpleNamespace(config=config, corpus=corpus, pipe=pipe, result=result,
                           vocabularies=vocabularies, payload=payload, elapsed=elapsed)


def test_criterion_6_synthetic_separability(crossval_run):
    run = crossval_run
    assert len(run.corpus) == 20
    assert len(run.result.folds) == 5
    for fold in run.result.folds:
        assert len(fold.validation_ids) == 4
    assert run.result.aggregate["accuracy"]["mean"] >= 0.9
    assert run.elapsed < 60.0


def test_criterion_7_no_validation_leakage(crossval_run, synthetic_corpus_path):
    run = crossval_run
    cfg = run.config
    tokens_of = {a.account_id: set(run.pipe.account_tokens(a))
                 for a in run.corpus.accounts}
    splits = kfold_splits(run.corpus, cfg.folds, cfg.seed)
    # each fold's vocabulary is the one its reported predictions were made with
    for fold, vocabulary, (_, validation) in zip(run.result.folds, run.vocabularies, splits, strict=True):
        held_out = set(fold.validation_ids)
        assert held_out == set(validation.account_ids)
        train_terms = set().union(
            *(toks for aid, toks in tokens_of.items() if aid not in held_out))
        val_only = set().union(*(tokens_of[aid] for aid in held_out)) - train_terms
        assert not (val_only & vocabulary)
        assert vocabulary == train_terms

    # every surviving term in the bundled corpus is shared across many
    # accounts, so the check above can pass vacuously; plant a term
    # unique to one account and prove the exclusion has teeth
    marker = "zzleakprobe"
    stamp = parse_timestamp("2021-02-01T12:00:00Z")
    base = load_corpus(synthetic_corpus_path)
    accounts = []
    for account in base.accounts:
        if account.account_id == "b03":
            account = AccountRecord(
                account.account_id, account.follower_count, account.label,
                account.tweets + (Tweet(marker, stamp),))
        accounts.append(account)
    probe_corpus = labeled_accounts(filter_accounts(
        Corpus(base.label_set, tuple(accounts)),
        cfg.min_followers, cfg.min_tweets, cfg.window))
    _, vocabularies = cross_validate_recording(Pipeline(load_resources(), cfg), probe_corpus)
    held, trained = [], []
    splits = kfold_splits(probe_corpus, cfg.folds, cfg.seed)
    for (_, validation), vocabulary in zip(splits, vocabularies, strict=True):
        (held if "b03" in validation.account_ids else trained).append(vocabulary)
    assert held and trained
    for vocabulary in held:
        assert marker not in vocabulary
    for vocabulary in trained:
        assert marker in vocabulary


def test_criterion_8_determinism(crossval_run, capsys, tmp_path, synthetic_corpus_path):
    blobs = []
    for name in ("first.json", "second.json"):
        out_path = tmp_path / name
        assert main(["crossval", "--corpus", str(synthetic_corpus_path),
                     "--output", str(out_path)]) == 0
        capsys.readouterr()
        blobs.append(out_path.read_bytes())
    first, second = blobs
    assert first == second

    # the command-line run and the library run describe the same result
    cli_payload = json.loads(first)
    lib_payload = json.loads(crossval_run.payload)
    assert cli_payload["folds"] == lib_payload["folds"]
    assert cli_payload["aggregate"] == lib_payload["aggregate"]
