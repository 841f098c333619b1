"""Tests for the line-by-line input files: the shared reader, and property
tests that each loader round-trips what it accepts and rejects everything
else with its own error (Hypothesis)."""

import io
import json
import re

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from zhstance.cli import _read_ids  # noqa: E402
from zhstance.corpus import CorpusError, load_corpus, parse_timestamp  # noqa: E402
from zhstance.pipeline import ConfigError  # noqa: E402
from zhstance.resources import StopwordError, load_stopwords  # noqa: E402
from zhstance.segmenter import LexiconError, load_lexicon  # noqa: E402
from zhstance.textfile import read_json, read_lines  # noqa: E402
from zhstance.zh_convert import ConversionTableError, load_conversion_table  # noqa: E402

from test_corpus import ACCEPTED_TIMESTAMPS, REJECTED_TIMESTAMPS  # noqa: E402

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

ACCOUNT = ('{"account_id": "a", "follower_count": 1, "label": null,'
           ' "tweets": [{"text": "t", "timestamp": "2021-02-01T00:00:00Z"}]}')

# (loader, its error, a valid first line)
LOADERS = [
    (load_corpus, CorpusError, ACCOUNT),
    (load_lexicon, LexiconError, "民主 5"),
    (load_conversion_table, ConversionTableError, "髮\t发"),
    (load_stopwords, StopwordError, "的"),
    (_read_ids, ConfigError, "a1"),
]


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("loaders") / "input"


def test_read_lines_splits_like_text_mode(tmp_path):
    path = tmp_path / "f"
    path.write_bytes("a\r\nb\rc\n\n民\r".encode("utf-8"))
    want = [(1, "a"), (2, "b"), (3, "c"), (4, ""), (5, "民")]
    assert list(read_lines(path, ValueError)) == want
    # an open binary stream, as stdin is read, splits the same
    assert list(read_lines("<stdin>", ValueError, io.BytesIO(path.read_bytes()))) == want


@pytest.mark.parametrize("load, error, first", LOADERS,
                         ids=[load.__name__ for load, _, _ in LOADERS])
def test_undecodable_line_names_file_and_line(tmp_path, load, error, first):
    path = tmp_path / "f"
    path.write_bytes(first.encode("utf-8") + b"\r\n\xff\xfe\n")
    with pytest.raises(error, match=f"^{re.escape(str(path))}: line 2: not UTF-8"):
        load(path)


# Words a loader can hold: no whitespace, and no leading "#" (a comment).
word = st.text(st.sampled_from("民主自由國家发#ab_1"), min_size=1, max_size=4).filter(
    lambda w: not w.startswith("#"))
line_end = st.sampled_from(["\n", "\r\n", "\r"])
noise = st.sampled_from(["", "# a comment", "   "])


@st.composite
def file_text(draw, lines):
    """The lines, each with a random line end, with blank and comment
    lines between them."""
    out = []
    for line in lines:
        out.append(draw(noise) + draw(line_end))
        out.append(line + draw(line_end))
    return "".join(out)


def load_text(path, load, text: str):
    path.write_bytes(text.encode("utf-8"))
    return load(path)


@PROPERTY
@given(st.data(), st.dictionaries(word, st.integers(1, 10**12), max_size=8))
def test_lexicon_round_trips(scratch, data, entries):
    lines = [f"{w} {f}" + data.draw(st.sampled_from(["", " n", "\tv"])) for w, f in entries.items()]
    assert load_text(scratch, load_lexicon, data.draw(file_text(lines))).entries == entries


@PROPERTY
@given(st.data(), st.dictionaries(word, word, max_size=8))
def test_conversion_table_round_trips(scratch, data, pairs):
    # extra space-separated candidates after the first are ignored
    lines = [f"{k}\t{v}" + data.draw(st.sampled_from(["", " x", " y z"])) for k, v in pairs.items()]
    table = load_text(scratch, load_conversion_table, data.draw(file_text(lines)))
    assert table.mapping == pairs


@PROPERTY
@given(st.data(), st.lists(word, max_size=8))
def test_stopwords_round_trip(scratch, data, words):
    assert load_text(scratch, load_stopwords, data.draw(file_text(words))) == frozenset(words)


@PROPERTY
@given(st.data(), st.lists(word, min_size=1, max_size=8, unique=True))
def test_test_ids_round_trip(scratch, data, ids):
    assert load_text(scratch, _read_ids, data.draw(file_text(ids))) == frozenset(ids)


accepted_stamp = st.sampled_from([raw for raw, _ in ACCEPTED_TIMESTAMPS]
                                 + ["2021-01-05T12:00:00Z", "2021-01-05T12:00:00+08:00"])
rejected_stamp = st.sampled_from(REJECTED_TIMESTAMPS + [
    "2021-01-05T12:00:00Z\n2021-01-05T12:00:00Z", "2021-01-05T12:00:00Z\n", None, 20210105])


@PROPERTY
@given(st.data(), st.lists(accepted_stamp, max_size=8))
def test_corpus_stamps_load_as_parse_timestamp(scratch, data, stamps):
    """An account's stamps, checked together, load as parse_timestamp reads
    each one, or fail with the first bad stamp's error and index."""
    for _ in range(data.draw(st.integers(0, 2))):
        stamps.insert(data.draw(st.integers(0, len(stamps))), data.draw(rejected_stamp))
    account = {"account_id": "a", "follower_count": 1, "label": None,
               "tweets": [{"text": "t", "timestamp": raw} for raw in stamps]}
    scratch.write_text(json.dumps(account) + "\n", encoding="utf-8")
    want = []
    for i, raw in enumerate(stamps):
        try:
            want.append(parse_timestamp(raw))
        except ValueError as exc:
            with pytest.raises(CorpusError) as got:
                load_corpus(scratch)
            assert str(got.value) == f"{scratch}: line 1: account 'a': tweet {i}: {exc}"
            return
    got = [tweet.timestamp for tweet in load_corpus(scratch).accounts[0].tweets]
    assert got == want
    assert [ts.tzinfo for ts in got] == [ts.tzinfo for ts in want]


# Arbitrary lines, biased towards the characters the formats give meaning
# to, with arbitrary bytes spliced in.
any_line = st.one_of(st.text(max_size=12),
                     st.text(st.sampled_from(" \t#-0123456789e民國{}[]\":,"), max_size=12))


@PROPERTY
@given(st.lists(any_line, max_size=6), st.binary(max_size=4), st.integers(0, 80),
       st.sampled_from(LOADERS))
def test_loader_raises_only_its_own_error(scratch, lines, junk, at, loader):
    load, error, _ = loader
    data = "\n".join(lines).encode("utf-8")
    scratch.write_bytes(data[:at] + junk + data[at:])
    try:
        load(scratch)
    except error:
        pass


@pytest.mark.parametrize("body", [b"{'k': 3}", b'{"k": "\xff"}', b"", b'{"a": [{"k": 3, "k": 7}]}',
                                  pytest.param(b"[" * 100000, id="deep-nesting"),
                                  pytest.param(b"9" * 5000, id="long-integer")])
def test_read_json_raises_the_given_error(tmp_path, body):
    path = tmp_path / "in.json"
    path.write_bytes(body)
    with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}: "):
        read_json(path, CorpusError)
