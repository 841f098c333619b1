"""Property test of the CLI's error contract: whatever an input file holds,
`main` returns 0, 1 or 2, a non-zero return comes with an `error:` line,
and no exception escapes (Hypothesis).

Each input kind starts from a valid file, is mutated (bytes spliced in or
cut, or one JSON value replaced, dropped or added), and is read by the
cheapest command that reads it."""

import contextlib
import copy
import functools
import io
import json
import operator
import sys

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from zhstance.cli import main  # noqa: E402
from zhstance.resources import BUNDLED_HMM, bundled_path  # noqa: E402

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)

WHEN = "2021-02-01T12:00:00Z"
TEXTS = {"b0": "统一稳定 祖国", "b1": "统一繁荣 富强", "d0": "民主自由 选举", "d1": "民主法治 普选"}
CORPUS = "\n".join(json.dumps(line, ensure_ascii=False) for line in [
    {"label_set": ["Beijing", "Democracy"]},
    *({"account_id": a, "follower_count": 20000, "label": "Beijing" if a[0] == "b" else "Democracy",
       "tweets": [{"text": t, "timestamp": WHEN}]} for a, t in TEXTS.items()),
]) + "\n"
CONFIG = {"filters": {"min_followers": 0, "min_tweets": 1}, "model": {"k": 1, "kind": "knn"},
          "folds": 2, "seed": 3}
RELAXED = ["--min-followers", "0", "--min-tweets", "1", "--k", "1"]
STDIN = "支持民主自由 發展臺灣 @x #y\n"

# Input kind -> (valid file, argv reading it from {path}, with {corpus} a valid corpus).
KINDS = {
    "corpus": (CORPUS, ["crossval", "--corpus", "{path}", *RELAXED, "--folds", "2"]),
    "config": (json.dumps(CONFIG), ["crossval", "--corpus", "{corpus}", "--config", "{path}"]),
    "hmm": (bundled_path(BUNDLED_HMM).read_text(encoding="utf-8"),
            ["segment", "--dict", "{lexicon}", "--hmm", "{path}"]),
    "table": ("# t2s\n發\t发\n臺灣\t台湾 台灣\n", ["convert", "--convert-table", "{path}"]),
    "lexicon": ("民主 10\n自由 8 n\n支持 5\n", ["segment", "--dict", "{path}"]),
    "stopwords": ("# stop\n的\n香港\n", ["crossval", "--corpus", "{corpus}", *RELAXED, "--folds", "2",
                                         "--model", "baseline1", "--stopwords", "{path}"]),
    "test ids": ("# held out\nb0\nd0\n",
                 ["test", "--corpus", "{corpus}", *RELAXED, "--test-ids", "{path}"]),
    "crossval report": (None, ["report", "{path}"]),
    "test report": (None, ["report", "{path}"]),
}
JSON_KINDS = {"corpus", "config", "hmm", "crossval report", "test report"}

# Values that replace a value in a JSON input, by the type they replace.
EDGES = {
    int: [0, -1, 2, 2.5, 1e30, -1e30, 10**30, float("nan"), float("inf")],
    str: ["", " ", "x", "民", WHEN, "2021-13-45"],
    None: [None, True, False, [], [1], ["x"], {}, {"x": 1}],
}
KEYS = st.sampled_from(["x", "label", "text", "k", "B", "accuracy", "folds", "mean", "start"])
TOKENS = st.sampled_from([b"", b"\n", b"\r", b"\t", b" ", b"#", b"\xff", b"\xe6", b"{", b"}", b"[",
                          b"]", b'"', b",", b":", b"-", b"1e999", b"NaN", b"0", b"9" * 30])


def run(argv, stdin=STDIN):
    """(return code, stdout, stderr) of `main` run in this process."""
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.TextIOWrapper(io.BytesIO(stdin.encode("utf-8")))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Paths of the valid inputs the commands need besides the mutated one,
    and the valid content of each kind."""
    root = tmp_path_factory.mktemp("inputs")
    paths = {"path": str(root / "input"), "corpus": str(root / "corpus.jsonl"),
             "lexicon": str(root / "lexicon.txt")}
    (root / "corpus.jsonl").write_text(CORPUS, encoding="utf-8")
    (root / "lexicon.txt").write_text(KINDS["lexicon"][0], encoding="utf-8")
    valid = {kind: text for kind, (text, _) in KINDS.items()}
    for kind, command in (("crossval report", "crossval"), ("test report", "test")):
        argv = [command, "--corpus", paths["corpus"], *RELAXED]
        if command == "crossval":
            argv += ["--folds", "2"]
        else:
            (root / "ids.txt").write_text(KINDS["test ids"][0], encoding="utf-8")
            argv += ["--test-ids", str(root / "ids.txt")]
        code, valid[kind], _ = run(argv)
        assert code == 0
    return paths, valid


def spliced(draw, data: bytes) -> bytes:
    at = draw(st.integers(0, len(data)))
    cut = draw(st.integers(0, 6))
    return data[:at] + draw(st.one_of(TOKENS, st.binary(max_size=3))) + data[at + cut:]


def replacement(old):
    """A value of the same type as `old`, half the time, or of any type."""
    kind = int if type(old) in (int, float) else str if isinstance(old, str) else None
    return st.one_of(st.sampled_from(EDGES[kind]), st.sampled_from(sum(EDGES.values(), [])))


def places(value, at=()):
    """The key path of `value` and of every value inside it."""
    yield at
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield from places(child, (*at, key))


def mutated_json(draw, doc):
    """`doc` with one value in it, picked uniformly, replaced or dropped, or
    with a key added to the object holding it."""
    at = draw(st.sampled_from(list(places(doc))))
    if not at:
        return draw(replacement(doc))
    doc = copy.deepcopy(doc)
    parent = functools.reduce(operator.getitem, at[:-1], doc)
    action = draw(st.sampled_from(["replace", "replace", "drop", "add"]))
    if action == "drop":
        del parent[at[-1]]
    elif action == "add" and isinstance(parent, dict):
        parent[draw(KEYS)] = draw(replacement(None))
    else:
        parent[at[-1]] = draw(replacement(parent[at[-1]]))
    return doc


@st.composite
def mutant(draw, kind: str, text: str) -> bytes:
    if kind in JSON_KINDS and draw(st.integers(0, 3)):  # JSON mutations 3 times in 4
        if kind == "corpus":  # one JSON line of the corpus
            lines = text.splitlines()
            at = draw(st.integers(0, len(lines) - 1))
            lines[at] = json.dumps(mutated_json(draw, json.loads(lines[at])), ensure_ascii=False)
            return ("\n".join(lines) + "\n").encode("utf-8")
        return json.dumps(mutated_json(draw, json.loads(text)), ensure_ascii=False).encode("utf-8")
    return spliced(draw, text.encode("utf-8"))


@pytest.mark.parametrize("kind", sorted(KINDS))
@PROPERTY
@given(data=st.data())
def test_any_input_file_ends_in_an_exit_code(files, kind, data):
    paths, valid = files
    content = data.draw(mutant(kind, valid[kind]), label="content")
    with open(paths["path"], "wb") as f:
        f.write(content)
    code, _, err = run([arg.format(**paths) for arg in KINDS[kind][1]])
    assert code in (0, 1, 2)
    if code:
        assert err.startswith("error: ")
