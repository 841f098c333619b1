"""Tests for corpus loading, validation, filtering, and splitting."""

import dataclasses
import json
import time
from datetime import date, datetime, timezone

import pytest

from zhstance.corpus import (
    AccountRecord,
    Corpus,
    CorpusError,
    DateWindow,
    SplitSpec,
    Tweet,
    filter_accounts,
    kfold_splits,
    labeled_accounts,
    load_corpus,
    parse_timestamp,
    split_corpus,
)


# RFC 3339 date-times that datetime.fromisoformat reads only from Python
# 3.11 on, or only in other spellings
ACCEPTED_TIMESTAMPS = [
    ("2021-01-05T12:00:00.5+00:00", datetime(2021, 1, 5, 12, 0, 0, 500000, tzinfo=timezone.utc)),
    ("2021-01-05T12:00:00.1234567+00:00", datetime(2021, 1, 5, 12, 0, 0, 123456, tzinfo=timezone.utc)),
    ("2021-01-05T12:00:00.123Z", datetime(2021, 1, 5, 12, 0, 0, 123000, tzinfo=timezone.utc)),
    ("2021-01-05t12:00:00z", datetime(2021, 1, 5, 12, 0, 0, tzinfo=timezone.utc)),
    ("2021-01-05T12:00:00.000001-05:30",
     datetime(2021, 1, 5, 17, 30, 0, 1, tzinfo=timezone.utc)),
    ("2021-01-05T12:00:00+23:59", datetime(2021, 1, 4, 12, 1, 0, tzinfo=timezone.utc)),
    ("2021-01-05T12:00:00.5", datetime(2021, 1, 5, 12, 0, 0, 500000, tzinfo=timezone.utc)),
]

REJECTED_TIMESTAMPS = [
    "2021-01-05",
    "2021-01-05T12",
    "2021-01-05T12:00",
    "2021-01-05 12:00:00+00:00",  # RFC 3339 leaves the space to applications
    "2021-01-05T12:00:00+0000",
    "2021-01-05T12:00:00+00",
    "2021-01-05T12:00:00.+00:00",
    "2021-01-05T12:00:00,5+00:00",
    "2021-01-05T12:00:60Z",  # a leap second, which datetime cannot hold
    "2021-01-05T24:00:00Z",
    "2021-02-30T12:00:00Z",
    "2021-01-05T12:00:00+24:00",
    "2021-01-05T12:00:00+05:60",
    "2021-01-05T12:00:00Z ",
    "２０２１-01-05T12:00:00Z",
    "20210105T120000Z",
]


def make_account(account_id, label=None, followers=20000, texts=(), when="2021-02-01T00:00:00Z"):
    tweets = tuple(Tweet(t, parse_timestamp(when)) for t in texts)
    return AccountRecord(account_id, followers, label, tweets)


def write_corpus(path, lines):
    path.write_text("\n".join(json.dumps(obj, ensure_ascii=False) for obj in lines) + "\n",
                    encoding="utf-8")


def account_line(account_id, label, texts=("hello world",), followers=20000,
                 when="2021-02-01T12:00:00Z"):
    return {
        "account_id": account_id,
        "follower_count": followers,
        "label": label,
        "tweets": [{"text": t, "timestamp": when} for t in texts],
    }


class TestParseTimestamp:
    def test_zulu_suffix(self):
        ts = parse_timestamp("2021-03-04T05:06:07Z")
        assert ts == datetime(2021, 3, 4, 5, 6, 7, tzinfo=timezone.utc)

    def test_explicit_offset_preserved(self):
        ts = parse_timestamp("2021-03-04T05:06:07+08:00")
        assert ts.utcoffset().total_seconds() == 8 * 3600
        assert ts.astimezone(timezone.utc) == datetime(2021, 3, 3, 21, 6, 7, tzinfo=timezone.utc)

    def test_naive_becomes_utc(self):
        ts = parse_timestamp("2021-03-04T05:06:07")
        assert ts.tzinfo == timezone.utc

    def test_invalid_raises(self):
        with pytest.raises(ValueError):
            parse_timestamp("yesterday")
        with pytest.raises(ValueError):
            parse_timestamp(20210304)

    @pytest.mark.parametrize("raw, expected", ACCEPTED_TIMESTAMPS)
    def test_rfc3339_forms_accepted(self, raw, expected):
        assert parse_timestamp(raw) == expected

    @pytest.mark.parametrize("raw", REJECTED_TIMESTAMPS)
    def test_other_forms_rejected(self, raw):
        with pytest.raises(ValueError, match="invalid timestamp"):
            parse_timestamp(raw)

    # each row, as an account's second tweet after a fraction-free one, must
    # give parse_timestamp's instant or load_corpus its message
    @pytest.mark.parametrize("raw, expected", ACCEPTED_TIMESTAMPS + [
        ("2021-01-05T12:00:00Z", datetime(2021, 1, 5, 12, 0, 0, tzinfo=timezone.utc)),
        ("2021-01-05T12:00:00+08:00", datetime(2021, 1, 5, 4, 0, 0, tzinfo=timezone.utc)),
        ("2021-01-05T12:00:00", datetime(2021, 1, 5, 12, 0, 0, tzinfo=timezone.utc)),
    ])
    def test_corpus_accepts_as_parse_timestamp(self, tmp_path, raw, expected):
        path = tmp_path / "c.jsonl"
        write_corpus(path, [self.two_stamps(raw)])
        ts = load_corpus(path).accounts[0].tweets[1].timestamp
        assert ts == expected
        assert (ts.utcoffset(), ts.tzinfo) == (parse_timestamp(raw).utcoffset(), parse_timestamp(raw).tzinfo)

    @pytest.mark.parametrize("raw", REJECTED_TIMESTAMPS + [
        "2021-01-05T12:00:00Z\n2021-01-05T12:00:00Z",
        "2021-01-05T12:00:00Z\n",
        20210105,
        None,
    ])
    def test_corpus_rejects_as_parse_timestamp(self, tmp_path, raw):
        path = tmp_path / "c.jsonl"
        write_corpus(path, [self.two_stamps(raw)])
        with pytest.raises(ValueError) as want:
            parse_timestamp(raw)
        with pytest.raises(CorpusError) as got:
            load_corpus(path)
        assert str(got.value) == f"{path}: line 1: account 'a': tweet 1: {want.value}"

    @staticmethod
    def two_stamps(raw):
        obj = account_line("a", None, texts=("one", "two"))
        obj["tweets"][1]["timestamp"] = raw
        return obj


@pytest.fixture(params=["UTC", "Asia/Shanghai"])
def local_zone(request, monkeypatch):
    """The process's local time zone, set through TZ."""
    monkeypatch.setenv("TZ", request.param)
    time.tzset()
    yield request.param
    monkeypatch.undo()
    time.tzset()


class TestDateWindow:
    def test_bounds_are_inclusive(self):
        w = DateWindow(date(2021, 1, 1), date(2021, 1, 31))
        assert w.contains(parse_timestamp("2021-01-01T00:00:00Z"))
        assert w.contains(parse_timestamp("2021-01-31T23:59:59Z"))
        assert not w.contains(parse_timestamp("2020-12-31T23:59:59Z"))
        assert not w.contains(parse_timestamp("2021-02-01T00:00:00Z"))

    def test_membership_uses_utc_date(self):
        w = DateWindow(date(2021, 1, 1), date(2021, 1, 31))
        # 02:00 on Jan 1 at UTC+8 is still Dec 31 in UTC
        assert not w.contains(parse_timestamp("2021-01-01T02:00:00+08:00"))
        # 20:00 on Dec 31 at UTC-8 is already Jan 1 in UTC
        assert w.contains(parse_timestamp("2020-12-31T20:00:00-08:00"))

    def test_naive_timestamp_read_as_utc(self, local_zone):
        # the machine's zone must not move a naive value across midnight
        assert time.localtime().tm_gmtoff == {"UTC": 0, "Asia/Shanghai": 8 * 3600}[local_zone]
        w = DateWindow(date(2021, 1, 1), date(2021, 4, 15))
        assert w.contains(datetime(2021, 1, 1, 2, 0))
        assert not w.contains(datetime(2020, 12, 31, 23, 0))
        assert w.contains(datetime(2021, 4, 15, 23, 0))

    def test_inverted_window_rejected(self):
        with pytest.raises(ValueError):
            DateWindow(date(2021, 2, 1), date(2021, 1, 1))


class TestTweet:
    def test_immutable(self):
        tweet = Tweet("x", parse_timestamp("2021-01-05T12:00:00Z"))
        with pytest.raises(AttributeError):
            tweet.text = "y"

    def test_equal_tweets_hash_equal(self):
        a = Tweet("x", parse_timestamp("2021-01-05T12:00:00Z"))
        b = Tweet(text="x", timestamp=parse_timestamp("2021-01-05T20:00:00+08:00"))
        assert a == b and hash(a) == hash(b)
        assert len({a, b, Tweet("y", a.timestamp)}) == 2


class TestLoadTweetColumns:
    """An account's tweets are checked together; the errors are still the
    first bad tweet's own."""

    def load_tweets(self, tmp_path, tweets):
        path = tmp_path / "c.jsonl"
        write_corpus(path, [{**account_line("a", None), "tweets": tweets}])
        return load_corpus(path).accounts[0].tweets

    def load_error(self, tmp_path, tweets):
        with pytest.raises(CorpusError) as info:
            self.load_tweets(tmp_path, tweets)
        return str(info.value)

    def test_every_accepted_form_in_one_account(self, tmp_path):
        raws = [raw for raw, _ in ACCEPTED_TIMESTAMPS] + ["2021-01-05T12:00:00+08:00"]
        tweets = self.load_tweets(tmp_path, [{"text": f"t{i}", "timestamp": raw}
                                             for i, raw in enumerate(raws)])
        assert [t.text for t in tweets] == [f"t{i}" for i in range(len(raws))]
        want = [parse_timestamp(raw) for raw in raws]
        assert [t.timestamp for t in tweets] == want
        assert [t.timestamp.tzinfo for t in tweets] == [ts.tzinfo for ts in want]
        assert all(type(t) is Tweet for t in tweets)

    def test_empty_account_loads(self, tmp_path):
        assert self.load_tweets(tmp_path, []) == ()

    def test_first_bad_tweet_is_named(self, tmp_path):
        ok = {"text": "x", "timestamp": "2021-01-05T12:00:00Z"}
        tweets = [ok, {**ok, "text": " \t"}, ok, {**ok, "timestamp": "2021-01-05T12:00:60Z"}]
        path = tmp_path / "c.jsonl"
        assert self.load_error(tmp_path, tweets) == f"{path}: line 1: account 'a': tweet 1 has empty text"
        tweets[1] = ok
        with pytest.raises(ValueError) as want:
            parse_timestamp("2021-01-05T12:00:60Z")
        assert self.load_error(tmp_path, tweets) == f"{path}: line 1: account 'a': tweet 3: {want.value}"

    @pytest.mark.parametrize("bad, message", [
        (["text"], "tweet 1 must be an object"),
        ("x", "tweet 1 must be an object"),
        ({"text": "x", "timestamp": "2021-01-05T12:00:00Z", "lang": "zh"},
         "tweet 1 has unknown key(s) ['lang']"),
        ({"text": "x"}, "tweet 1: timestamp must be a string, got NoneType"),
        ({"timestamp": "2021-01-05T12:00:00Z"}, "tweet 1 has empty text"),
        ({"text": 7, "timestamp": "2021-01-05T12:00:00Z"}, "tweet 1 has empty text"),
    ])
    def test_malformed_tweet_message(self, tmp_path, bad, message):
        ok = {"text": "x", "timestamp": "2021-01-05T12:00:00Z"}
        path = tmp_path / "c.jsonl"
        assert self.load_error(tmp_path, [ok, bad, ok]) == f"{path}: line 1: account 'a': {message}"


class TestLoadCorpus:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_corpus(path, [
            {"label_set": ["Beijing", "Democracy"]},
            account_line("a1", "Beijing"),
            account_line("a2", "Democracy", texts=("one", "two")),
            account_line("a3", None),
        ])
        c = load_corpus(path)
        assert c.label_set == ("Beijing", "Democracy")
        assert c.account_ids == ["a1", "a2", "a3"]
        assert c.accounts[1].tweets[1].text == "two"
        assert c.accounts[2].label is None
        assert len(c) == 3

    def test_label_set_inferred_when_missing(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_corpus(path, [
            account_line("a1", "z_last"),
            account_line("a2", "a_first"),
            account_line("a3", None),
        ])
        assert load_corpus(path).label_set == ("a_first", "z_last")

    def test_undeclared_label_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_corpus(path, [
            {"label_set": ["Beijing"]},
            account_line("a1", "Democracy"),
        ])
        with pytest.raises(CorpusError, match="line 2"):
            load_corpus(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_corpus(path, [account_line("a1", None), account_line("a1", None)])
        with pytest.raises(CorpusError, match="duplicate"):
            load_corpus(path)

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"account_id": "a1", "follower_count": 1, "tweets": []}\n{oops\n',
                        encoding="utf-8")
        with pytest.raises(CorpusError, match="line 2"):
            load_corpus(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        body = json.dumps(account_line("a1", None))
        path.write_text(f"\n{body}\n\n", encoding="utf-8")
        assert load_corpus(path).account_ids == ["a1"]

    def test_header_on_first_non_blank_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        header = json.dumps({"label_set": ["Beijing", "Democracy"]})
        body = json.dumps(account_line("a1", "Beijing"))
        path.write_text(f"\n \n{header}\n{body}\n", encoding="utf-8")
        corpus = load_corpus(path)
        assert corpus.label_set == ("Beijing", "Democracy")
        assert corpus.account_ids == ["a1"]

    @pytest.mark.parametrize("mutate", [
        lambda obj: obj.pop("account_id"),
        lambda obj: obj.update(account_id=""),
        lambda obj: obj.update(follower_count=-1),
        lambda obj: obj.update(follower_count=True),
        lambda obj: obj.update(follower_count="many"),
        lambda obj: obj.update(label=7),
        lambda obj: obj.update(tweets={"text": "x"}),
        lambda obj: obj.update(tweets=[{"text": "", "timestamp": "2021-01-01T00:00:00Z"}]),
        lambda obj: obj.update(tweets=[{"text": "x", "timestamp": "not a time"}]),
    ])
    def test_invalid_account_rejected(self, tmp_path, mutate):
        obj = account_line("a1", None)
        mutate(obj)
        path = tmp_path / "c.jsonl"
        write_corpus(path, [obj])
        with pytest.raises(CorpusError, match="line 1"):
            load_corpus(path)

    @pytest.mark.parametrize("lines, key", [
        # a misspelt label would otherwise load as an unlabeled account
        ([{"label_set": ["Beijing"]}, {**account_line("a1", None), "lable": "Beijing"}], "lable"),
        ([{**account_line("a1", None), "tweets": [
            {"text": "x", "timestamp": "2021-01-01T00:00:00Z", "retweets": 3}]}], "retweets"),
        ([{"label_set": ["Beijing"], "labels": ["Democracy"]}], "labels"),
        ([account_line("a1", None), {"label_set": ["Beijing"]}], "label_set"),
    ])
    def test_unknown_key_rejected(self, tmp_path, lines, key):
        path = tmp_path / "c.jsonl"
        write_corpus(path, lines)
        with pytest.raises(CorpusError) as info:
            load_corpus(path)
        assert str(info.value).startswith(f"{path}: line {len(lines)}: ")
        assert str(info.value).endswith(f"unknown key(s) [{key!r}]")

    @pytest.mark.parametrize("lines, key", [
        # without the check the last value wins: this account loads as "B"
        ([account_line("a1", "A")], "label"),
        ([account_line("a1", None, texts=("x",))], "text"),
        ([{"label_set": ["A"]}], "label_set"),
    ])
    def test_repeated_key_rejected(self, tmp_path, lines, key):
        path = tmp_path / "c.jsonl"
        text = "\n".join(json.dumps(obj) for obj in lines)
        # repeat the last occurrence of the key with another value
        at = text.rindex(f'"{key}": ')
        path.write_text(text[:at] + f'"{key}": "B", ' + text[at:] + "\n", encoding="utf-8")
        with pytest.raises(CorpusError) as info:
            load_corpus(path)
        assert str(info.value) == f"{path}: line {len(lines)}: duplicate key {key!r}"

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_corpus(tmp_path / "absent.jsonl")

    @pytest.mark.parametrize("lines", [
        ['{"label_set": ["A", "A"]}'],
        [json.dumps(account_line("a1", None)), "{oops"],
        [json.dumps(account_line("a1", None))] * 2,
        [json.dumps(account_line("a1", None)), json.dumps(account_line("a2", None, followers=-1))],
        # errors of the JSON decoder that are not JSONDecodeError
        ["[" * 100000],
        ['{"follower_count": ' + "1" * 5000 + "}"],
    ])
    def test_error_names_the_file(self, tmp_path, lines):
        path = tmp_path / "c.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CorpusError) as info:
            load_corpus(path)
        assert str(info.value).startswith(f"{path}: line {len(lines)}: ")


class TestFilterAccounts:
    WINDOW = DateWindow(date(2021, 1, 1), date(2021, 1, 31))

    def test_follower_floor(self):
        c = Corpus((), (
            make_account("lo", followers=9999, texts=("a", "b"), when="2021-01-05T00:00:00Z"),
            make_account("hi", followers=10000, texts=("a", "b"), when="2021-01-05T00:00:00Z"),
        ))
        kept = filter_accounts(c, min_followers=10000, min_tweets=2, window=self.WINDOW)
        assert kept.account_ids == ["hi"]

    def test_tweet_floor_counts_only_in_window(self):
        inside = Tweet("in", parse_timestamp("2021-01-10T00:00:00Z"))
        outside = Tweet("out", parse_timestamp("2021-03-10T00:00:00Z"))
        acct = AccountRecord("a", 20000, None, (inside, outside, outside))
        c = Corpus((), (acct,))
        assert len(filter_accounts(c, 0, 1, self.WINDOW)) == 1
        assert len(filter_accounts(c, 0, 2, self.WINDOW)) == 0

    def test_kept_accounts_lose_out_of_window_tweets(self):
        inside = Tweet("in", parse_timestamp("2021-01-10T00:00:00Z"))
        outside = Tweet("out", parse_timestamp("2021-03-10T00:00:00Z"))
        c = Corpus((), (AccountRecord("a", 20000, None, (inside, outside)),))
        kept = filter_accounts(c, 0, 1, self.WINDOW)
        assert kept.accounts[0].tweets == ("in",)

    def test_kept_accounts_hold_texts_only(self, synthetic_corpus_path):
        # no Tweet and no datetime outlives the filter: a kept account holds
        # one str per in-window tweet, joined as the loaded texts would be
        window = DateWindow(date(2021, 1, 1), date(2021, 4, 15))
        loaded = load_corpus(synthetic_corpus_path)
        kept = filter_accounts(loaded, 0, 0, window)
        assert len(kept) == len(loaded)
        dropped = 0
        for before, after in zip(loaded.accounts, kept.accounts, strict=True):
            texts = [t.text for t in before.tweets if window.contains(t.timestamp)]
            dropped += len(before.tweets) - len(texts)
            assert len(after.tweets) == len(texts) and all(type(t) is str for t in after.tweets)
            assert "\n".join(after.tweets) == "\n".join(texts)
            held = [getattr(after, f.name) for f in dataclasses.fields(after)] + list(after.tweets)
            assert not any(isinstance(value, (Tweet, datetime)) for value in held)
        assert dropped == 2  # the fixture has out-of-window tweets for the filter to drop

    def test_label_set_preserved(self):
        c = Corpus(("X", "Y"), ())
        assert filter_accounts(c, 0, 0, self.WINDOW).label_set == ("X", "Y")


def test_labeled_accounts():
    c = Corpus(("B",), (make_account("a1", "B"), make_account("a2", None)))
    assert labeled_accounts(c).account_ids == ["a1"]


class TestSplitCorpus:
    def test_partition(self):
        c = Corpus(("B",), tuple(make_account(f"a{i}", "B") for i in range(4)))
        non_test, test = split_corpus(c, SplitSpec(frozenset({"a1", "a3"}), folds=2, seed=0))
        assert sorted(test.account_ids) == ["a1", "a3"]
        assert sorted(non_test.account_ids) == ["a0", "a2"]

    def test_missing_test_id_rejected(self):
        c = Corpus(("B",), (make_account("a0", "B"),))
        with pytest.raises(CorpusError, match="ghost"):
            split_corpus(c, SplitSpec(frozenset({"ghost"}), folds=2, seed=0))

    def test_unlabeled_test_account_rejected(self):
        c = Corpus(("B",), (make_account("a0", None),))
        with pytest.raises(CorpusError, match="no label"):
            split_corpus(c, SplitSpec(frozenset({"a0"}), folds=2, seed=0))


class TestKfoldSplits:
    @staticmethod
    def balanced_corpus(per_label=4):
        accounts = []
        for prefix, label in (("b", "B"), ("d", "D")):
            for i in range(1, per_label + 1):
                accounts.append(make_account(f"{prefix}{i}", label))
        return Corpus(("B", "D"), tuple(accounts))

    def test_frozen_deal(self):
        # seed 9 shuffles the B group to [b3, b4, b2, b1] and the D group
        # to [d3, d4, d2, d1]; dealing round-robin over 2 folds with the
        # counter continuing across groups puts b3,b2,d3,d2 in fold 0
        c = self.balanced_corpus()
        folds = kfold_splits(c, 2, seed=9)
        assert sorted(folds[0][1].account_ids) == ["b2", "b3", "d2", "d3"]
        assert sorted(folds[1][1].account_ids) == ["b1", "b4", "d1", "d4"]

    def test_folds_partition_accounts(self):
        c = self.balanced_corpus(5)
        folds = kfold_splits(c, 3, seed=1)
        seen = []
        for train, validation in folds:
            seen.extend(validation.account_ids)
            assert sorted(train.account_ids + validation.account_ids) == sorted(c.account_ids)
        assert sorted(seen) == sorted(c.account_ids)

    def test_fold_sizes_within_one(self):
        c = self.balanced_corpus(5)
        sizes = [len(validation) for _, validation in kfold_splits(c, 3, seed=4)]
        assert max(sizes) - min(sizes) <= 1

    def test_stratified_per_label(self):
        c = self.balanced_corpus(6)
        for _, validation in kfold_splits(c, 3, seed=2):
            labels = [a.label for a in validation.accounts]
            assert labels.count("B") == 2
            assert labels.count("D") == 2

    def test_deterministic_in_seed(self):
        c = self.balanced_corpus()
        a = [sorted(v.account_ids) for _, v in kfold_splits(c, 2, seed=3)]
        b = [sorted(v.account_ids) for _, v in kfold_splits(c, 2, seed=3)]
        assert a == b
        different = {tuple(sorted(v.account_ids)) for s in range(10)
                     for _, v in kfold_splits(c, 2, seed=s)}
        assert len(different) > 2

    def test_unlabeled_account_rejected(self):
        # folds are stratified by label, so every account needs one
        c = Corpus(("B",), (make_account("a1", "B"), make_account("a2", None),
                            make_account("a3", "B")))
        with pytest.raises(CorpusError, match="unlabeled"):
            kfold_splits(c, 3, seed=0)

    def test_bad_k_rejected(self):
        c = self.balanced_corpus()
        with pytest.raises(CorpusError):
            kfold_splits(c, 1, seed=0)
        with pytest.raises(CorpusError):
            kfold_splits(c, len(c) + 1, seed=0)
