"""One table over the checks that the input formats share (zhstance/textfile.py).

Each integer, number and object field of the corpus, config, HMM and
stored-report formats is fed the same nine JSON values. A row names the
field, the values it accepts (exit 0), and how the error for every other
value starts: exit 1 with `error: FILE: ` and then the line or the key
path. A second table adds an unknown key to each object, and a third
checks the blank and # lines of the line formats."""

import contextlib
import copy
import io
import json
import math
import sys

import pytest

import zhstance.cli
from zhstance.cli import _read_ids, build_parser, main
from zhstance.resources import BUNDLED_LEXICON, bundled_path, load_stopwords
from zhstance.segmenter import load_lexicon
from zhstance.zh_convert import load_conversion_table

VALUES = {"null": None, "true": True, "-1": -1, "0.5": 0.5, "1e300": 1e300, "NaN": math.nan,
          '""': "", "[]": [], "{}": {}}
FINITE = ("-1", "0.5", "1e300")

WHEN = "2021-02-01T12:00:00Z"
ACCOUNT = {"account_id": "a1", "follower_count": 5, "label": None,
           "tweets": [{"text": "民主", "timestamp": WHEN}]}
CONFIG = {"paths": {"stopwords": None},
          "filters": {"min_followers": 0, "min_tweets": 1,
                      "window": {"start": "2021-01-01", "end": "2021-04-15"}},
          "model": {"k": 1, "top_n": 5}, "folds": 2, "seed": 0}
HMM = {"start": {"B": -0.5, "S": -1.0}, "trans": {"B": {"E": -0.1}, "E": {"S": -0.5}},
       "emit": {"S": {"x": -1.0}}, "floor_logp": -20.0}
SCORES = {"precision": 0.5, "recall": 0.5, "f1": 0.5}
TEST_REPORT = {"label_set": ["A", "B"], "confusion": [[1, 0], [0, 1]], "accuracy": 1.0,
               "per_label": {"A": dict(SCORES), "B": dict(SCORES)}, "support": {"A": 1, "B": 1}}
CROSSVAL_REPORT = {
    "label_set": ["A", "B"],
    "folds": [{"fold": 0, "validation_ids": ["a1"], "confusion": [[1, 0], [0, 1]], "accuracy": 1.0}],
    "aggregate": {"accuracy": {"mean": 1.0, "std": 0.0},
                  "per_label": {label: {m: {"mean": 0.5, "std": 0.0} for m in SCORES} for label in "AB"}},
}

CORPUS_ARGV = ["vectorize", "--corpus", "{path}"]
# kind -> (valid document, the file's text for a document, argv reading the file)
KINDS = {
    "corpus": (ACCOUNT, lambda doc: json.dumps(doc) + "\n", CORPUS_ARGV),
    "corpus header": ({"label_set": ["A"]},
                      lambda doc: json.dumps(doc) + "\n" + json.dumps(ACCOUNT) + "\n", CORPUS_ARGV),
    "config": (CONFIG, json.dumps, ["vectorize", "--corpus", "{corpus}", "--config", "{path}"]),
    "hmm": (HMM, json.dumps, ["segment", "--dict", str(bundled_path(BUNDLED_LEXICON)), "--hmm", "{path}"]),
    "test report": (TEST_REPORT, json.dumps, ["report", "{path}"]),
    "crossval report": (CROSSVAL_REPORT, json.dumps, ["report", "{path}"]),
}

# (kind, key path of the field, values accepted, how the error for each other value starts)
ROWS = [
    # a corpus line is one account; its errors name the line
    ("corpus", (), (), "line 1: "),
    ("corpus", ("follower_count",), (), "line 1: account 'a1': follower_count must be an integer >= 0, got "),
    ("corpus", ("tweets", 0), (), "line 1: account 'a1': tweet 0 "),
    ("config", (), ("{}",), "config must be an object"),
    ("config", ("paths",), ("{}",), "config.paths must be an object"),
    ("config", ("filters",), ("{}",), "config.filters must be an object"),
    ("config", ("filters", "window"), ("{}",), "config.filters.window must be an object"),
    ("config", ("model",), ("{}",), "config.model must be an object"),
    ("config", ("filters", "min_followers"), (), "filters.min_followers must be an integer >= 0, got "),
    ("config", ("filters", "min_tweets"), (), "filters.min_tweets must be an integer >= 0, got "),
    ("config", ("model", "k"), (), "model.k must be an integer >= 1, got "),
    ("config", ("model", "top_n"), (), "model.top_n must be an integer >= 1, got "),
    ("config", ("folds",), (), "folds must be an integer >= 2, got "),
    ("config", ("seed",), ("-1",), "seed must be an integer, got "),
    # {} is missing the three tables; every other value is not an object
    ("hmm", (), (), "the HMM file "),
    ("hmm", ("start",), ("{}",), "start must be an object"),
    ("hmm", ("trans",), ("{}",), "trans must be an object"),
    ("hmm", ("trans", "B"), ("{}",), "trans.B must be an object"),
    ("hmm", ("emit",), ("{}",), "emit must be an object"),
    ("hmm", ("emit", "S"), ("{}",), "emit.S must be an object"),
    ("hmm", ("start", "B"), FINITE, "start.B must be a finite number, got "),
    ("hmm", ("trans", "B", "E"), FINITE, "trans.B.E must be a finite number, got "),
    ("hmm", ("emit", "S", "x"), FINITE, "emit.S.x must be a finite number, got "),
    ("hmm", ("floor_logp",), FINITE, "floor_logp must be a finite number, got "),
    # a stored report's objects are read only where a value is needed
    ("test report", (), (), "missing label_set"),
    ("test report", ("label_set",), (), "label_set must be a non-empty list of strings, got "),
    ("test report", ("confusion",), (), "confusion must be 2 rows of 2 integers, got "),
    ("test report", ("confusion", 0), (), "confusion must be 2 rows of 2 integers, got "),
    ("test report", ("accuracy",), ("0.5",), "accuracy must be a finite number in [0, 1], got "),
    ("test report", ("per_label",), (), "missing per_label.A"),
    ("test report", ("per_label", "A"), (), "missing per_label.A.precision"),
    ("test report", ("per_label", "A", "precision"), ("0.5",),
     "per_label.A.precision must be a finite number in [0, 1], got "),
    ("test report", ("per_label", "B", "f1"), ("0.5",), "per_label.B.f1 must be a finite number in [0, 1], got "),
    ("test report", ("support",), (), "missing support.A"),
    ("test report", ("support", "A"), (), "support.A must be an integer >= 0, got "),
    ("test report", ("confusion", 0, 1), (), "confusion.0.1 must be an integer >= 0, got "),
    ("crossval report", ("label_set",), (), "label_set must be a non-empty list of strings, got "),
    ("crossval report", ("folds",), ("[]",), "folds must be a list, got "),
    ("crossval report", ("folds", 0), (), "missing folds.0.confusion"),
    ("crossval report", ("folds", 0, "confusion"), (), "folds.0.confusion must be 2 rows of 2 integers, got "),
    ("crossval report", ("folds", 0, "validation_ids"), ("[]",),
     "folds.0.validation_ids must be a list of strings, got "),
    ("crossval report", ("folds", 0, "confusion", 1, 0), (), "folds.0.confusion.1.0 must be an integer >= 0, got "),
    ("crossval report", ("folds", 0, "accuracy"), ("0.5",), "folds.0.accuracy must be a finite number in [0, 1], got "),
    ("crossval report", ("folds", 0, "fold"), (), "folds.0.fold must be an integer >= 0, got "),
    ("crossval report", ("aggregate",), (), "missing aggregate.accuracy"),
    ("crossval report", ("aggregate", "accuracy"), (), "missing aggregate.accuracy.mean"),
    ("crossval report", ("aggregate", "accuracy", "mean"), ("0.5",),
     "aggregate.accuracy.mean must be a finite number in [0, 1], got "),
    ("crossval report", ("aggregate", "accuracy", "std"), ("0.5",),
     "aggregate.accuracy.std must be a finite number in [0, 1], got "),
    ("crossval report", ("aggregate", "per_label"), (), "missing aggregate.per_label.A"),
    ("crossval report", ("aggregate", "per_label", "A"), (), "missing aggregate.per_label.A.precision"),
    ("crossval report", ("aggregate", "per_label", "A", "f1"), (), "missing aggregate.per_label.A.f1.mean"),
    ("crossval report", ("aggregate", "per_label", "A", "f1", "mean"), ("0.5",),
     "aggregate.per_label.A.f1.mean must be a finite number in [0, 1], got "),
]

# (kind, key path of an object, the error when it gets the unknown key "q", or None: accepted)
UNKNOWN_KEY_ROWS = [
    ("corpus", (), "line 1: the account has unknown key(s) ['q']"),
    ("corpus", ("tweets", 0), "line 1: account 'a1': tweet 0 has unknown key(s) ['q']"),
    ("corpus header", (), "line 1: the header has unknown key(s) ['q']"),
    ("config", (), "config has unknown key(s) ['q']"),
    ("config", ("paths",), "config.paths has unknown key(s) ['q']"),
    ("config", ("filters",), "config.filters has unknown key(s) ['q']"),
    ("config", ("filters", "window"), "config.filters.window has unknown key(s) ['q']"),
    ("config", ("model",), "config.model has unknown key(s) ['q']"),
    ("hmm", (), "the HMM file has unknown key(s) ['q']"),
    ("hmm", ("start",), "start has unknown key(s) ['q']"),
    ("hmm", ("trans",), "trans has unknown key(s) ['q']"),
    ("hmm", ("trans", "B"), "trans.B has unknown key(s) ['q']"),
    ("hmm", ("emit",), "emit has unknown key(s) ['q']"),
    ("hmm", ("emit", "S"), None),  # an emission row's keys are characters
]

# values of the stored-report fields that ROWS does not try:
# (kind, key path, value, the whole error after "error: FILE: ")
REPORT_VALUE_ROWS = [
    *((kind, ("label_set",), value, f"label_set must be a non-empty list of strings, got {value!r}")
      for kind in ("test report", "crossval report") for value in ("A", ["A", 1])),
    *((kind, ("label_set",), ["A", "A"], "label_set must hold distinct labels, got ['A', 'A']")
      for kind in ("test report", "crossval report")),
    *(("crossval report", ("folds", 0, "validation_ids"), value,
       f"folds.0.validation_ids must be a list of strings, got {value!r}") for value in ("a1", [1], [1, None])),
]
# dropping a key of a stored report fails with `missing <key path>`, except
# where this says otherwise: None for the keys that are not read (the fold
# std of each label's scores), and a report without folds is a test report
DROPPED_KEY_ERRORS = {
    **{("crossval report", ("aggregate", "per_label", label, metric, "std")): None
       for label in "AB" for metric in SCORES},
    ("crossval report", ("folds",)): "missing confusion",
}


def key_paths(doc, path=()):
    """The key path of every object key in doc, outermost first."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield (*path, key)
            yield from key_paths(value, (*path, key))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from key_paths(value, (*path, i))


DROP_ROWS = [(kind, path) for kind in ("test report", "crossval report") for path in key_paths(KINDS[kind][0])]
# (kind, key path of a key written twice, with its value)
REPEATED_KEY_ROWS = [
    ("test report", ("accuracy",)),
    ("test report", ("per_label", "A", "f1")),
    ("crossval report", ("label_set",)),
    ("crossval report", ("folds", 0, "fold")),
]

# main builds its parser on every call, which would cost more than the
# rows themselves; they all share one
PARSER = build_parser()


@pytest.fixture
def read(tmp_path, monkeypatch, synthetic_corpus_path):
    """read(kind, document) -> (path, return code, stdout, stderr) of `main`
    reading the document, written as a file of that kind, or reading the
    raw text given instead."""
    monkeypatch.setattr(zhstance.cli, "build_parser", lambda: PARSER)
    path = tmp_path / "input"

    def read(kind, doc, raw=None):
        _, text, argv = KINDS[kind]
        path.write_text(text(doc) if raw is None else raw, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"")))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([a.format(path=path, corpus=synthetic_corpus_path) for a in argv])
        return path, code, out.getvalue(), err.getvalue()

    return read


def at(doc, path: tuple):
    """The value at the key path of doc."""
    for key in path:
        doc = doc[key]
    return doc


def put(doc, path: tuple, value):
    """A copy of doc with value at the key path; an empty path replaces doc."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    at(doc, path[:-1])[path[-1]] = value
    return doc


@pytest.mark.parametrize("kind, path, accepts, error", ROWS,
                         ids=[f"{kind}:{'.'.join(map(str, path)) or '(top)'}" for kind, path, *_ in ROWS])
def test_shared_checks_table(read, kind, path, accepts, error):
    assert set(accepts) <= set(VALUES)
    for name, value in VALUES.items():
        file, code, out, err = read(kind, put(KINDS[kind][0], path, value))
        if name in accepts:
            assert (code, err) == (0, ""), name
        else:
            assert (code, out) == (1, ""), name
            assert err.startswith(f"error: {file}: {error}"), (name, err)


@pytest.mark.parametrize("kind, path, error", UNKNOWN_KEY_ROWS,
                         ids=[f"{kind}:{'.'.join(map(str, path)) or '(top)'}" for kind, path, _ in UNKNOWN_KEY_ROWS])
def test_unknown_key_table(read, kind, path, error):
    file, code, out, err = read(kind, put(KINDS[kind][0], (*path, "q"), 1))
    if error is None:
        assert (code, err) == (0, "")
    else:
        assert (code, out, err) == (1, "", f"error: {file}: {error}\n")


def ids(rows):
    return [f"{kind}:{'.'.join(map(str, path))}" for kind, path, *_ in rows]


@pytest.mark.parametrize("kind, path, value, error", REPORT_VALUE_ROWS,
                         ids=[f"{kind}:{'.'.join(map(str, path))}={json.dumps(value)}"
                              for kind, path, value, _ in REPORT_VALUE_ROWS])
def test_report_value_table(read, kind, path, value, error):
    file, code, out, err = read(kind, put(KINDS[kind][0], path, value))
    assert (code, out, err) == (1, "", f"error: {file}: {error}\n")


@pytest.mark.parametrize("kind, path", DROP_ROWS, ids=ids(DROP_ROWS))
def test_dropped_report_key_table(read, kind, path):
    doc = copy.deepcopy(KINDS[kind][0])
    del at(doc, path[:-1])[path[-1]]
    file, code, out, err = read(kind, doc)
    error = DROPPED_KEY_ERRORS.get((kind, path), f"missing {'.'.join(map(str, path))}")
    if error is None:
        assert (code, err) == (0, "")
    else:
        assert (code, out, err) == (1, "", f"error: {file}: {error}\n")


@pytest.mark.parametrize("kind, path", REPEATED_KEY_ROWS, ids=ids(REPEATED_KEY_ROWS))
def test_repeated_report_key_table(read, kind, path):
    doc, key = KINDS[kind][0], path[-1]
    value = json.dumps(at(doc, path))
    raw = json.dumps(put(doc, path, "\0")).replace(f'"{key}": "\\u0000"', f'"{key}": {value}, "{key}": {value}')
    assert raw.count(f'"{key}"') == json.dumps(doc).count(f'"{key}"') + 1
    file, code, out, err = read(kind, None, raw)
    assert (code, out, err) == (1, "", f"error: {file}: duplicate key {key!r}\n")


# (loader, a valid line, what the loader reads from it); the file puts
# blank, whitespace-only, # and indented # lines around the valid line
LINE_FORMATS = [
    (load_lexicon, "民主 5", lambda lex: lex.entries, {"民主": 5}),
    (load_conversion_table, "髮\t发", lambda t: t.mapping, {"髮": "发"}),
    (load_stopwords, "的", lambda words: words, frozenset({"的"})),
    (_read_ids, "a1", lambda ids: ids, frozenset({"a1"})),
]


@pytest.mark.parametrize("load, line, view, want", LINE_FORMATS,
                         ids=[load.__name__ for load, *_ in LINE_FORMATS])
def test_blank_and_comment_lines_table(tmp_path, load, line, view, want):
    path = tmp_path / "input"
    path.write_text(f"\n \t\n# a comment\n{line}\n  # an indented comment\n\t#\n", encoding="utf-8")
    assert view(load(path)) == want
