"""Account-level tweet corpora: loading, validation, filtering, splitting.

The corpus file is UTF-8 JSON-lines, one account per line:

    {"account_id": str, "follower_count": int, "label": str|null,
     "tweets": [{"text": str, "timestamp": "RFC3339"}]}

An optional header ``{"label_set": [...]}`` on the first non-blank line
declares the allowed labels; account labels outside a declared set,
keys not shown here, and a key repeated in one object are rejected.

A tweet is a ``Tweet`` named tuple. An account's tweets are checked as
columns, its stamps by one match; when a check fails they are walked in
turn, so the error names the first bad tweet. A naive timestamp is UTC.
"""

from __future__ import annotations

import re
from json import JSONDecodeError
from dataclasses import dataclass
from datetime import date, datetime, timezone
from operator import itemgetter
from typing import NamedTuple

from .rng import shuffled
from .textfile import JSON_DECODER, check_int, check_keys, read_lines


class CorpusError(ValueError):
    """Raised for malformed corpus files or invariant violations."""


class Tweet(NamedTuple):
    text: str
    timestamp: datetime


@dataclass(frozen=True)
class AccountRecord:
    account_id: str
    follower_count: int
    label: str | None
    tweets: tuple[Tweet, ...]

    def __hash__(self) -> int:  # equal records share an id; hashing tweets costs far more
        return hash(self.account_id)


@dataclass(frozen=True)
class Corpus:
    label_set: tuple[str, ...]
    accounts: tuple[AccountRecord, ...]

    def __len__(self) -> int:
        return len(self.accounts)

    @property
    def account_ids(self) -> list[str]:
        return [a.account_id for a in self.accounts]


@dataclass(frozen=True)
class SplitSpec:
    test_ids: frozenset[str]
    folds: int
    seed: int


@dataclass(frozen=True)
class DateWindow:
    """Inclusive calendar-date range, compared on UTC dates; a naive timestamp is UTC."""

    start: date
    end: date

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError(f"window start {self.start} is after end {self.end}")

    def contains(self, ts: datetime) -> bool:
        d = (ts if ts.tzinfo is None else ts.astimezone(timezone.utc)).date()
        return self.start <= d <= self.end


# An RFC 3339 date-time: date, time, an optional fraction and an optional offset
_STAMP = (r"[0-9]{4}-[0-9]{2}-[0-9]{2}[Tt][0-9]{2}:[0-9]{2}:[0-9]{2}"
          r"(?:\.[0-9]+)?(?:[Zz]|[+-](?:[01][0-9]|2[0-3]):[0-5][0-9])?")
_STAMPS = re.compile(rf"{_STAMP}(?:\n{_STAMP})*")  # the stamps joined with "\n"
_FRACTION = re.compile(r"\.[0-9]+")


def parse_timestamps(raws: list) -> list[datetime]:
    """Parse RFC 3339 date-times; naive values are taken as UTC. The stamps
    are joined with newlines and checked by one match. Fractions are cut or
    padded to 6 digits and Z written +00:00, as datetime.fromisoformat
    needs before Python 3.11. A ValueError names the first bad stamp."""
    if not raws:
        return []
    try:
        joined = "\n".join(raws)  # a TypeError if a stamp is not a string
        if _STAMPS.fullmatch(joined) is None or joined.count("\n") != len(raws) - 1:
            raise ValueError("not an RFC 3339 date-time")  # the count: a stamp holding "\n"
        if "." in joined:
            joined = _FRACTION.sub(lambda m: m[0][:7].ljust(7, "0"), joined)
        joined = joined.replace("Z", "+00:00").replace("z", "+00:00")
        stamps = list(map(datetime.fromisoformat, joined.split("\n")))
    except (TypeError, ValueError) as exc:
        if len(raws) > 1:
            for raw in raws:
                parse_timestamps([raw])  # raises the first bad stamp's own error
        if not isinstance(raws[0], str):
            raise ValueError(f"timestamp must be a string, got {type(raws[0]).__name__}") from None
        raise ValueError(f"invalid timestamp {raws[0]!r}: {exc}") from None
    return [ts if ts.tzinfo is not None else ts.replace(tzinfo=timezone.utc) for ts in stamps]


def parse_timestamp(raw: str) -> datetime:
    """parse_timestamps of one stamp."""
    return parse_timestamps([raw])[0]


_ACCOUNT_KEYS = frozenset({"account_id", "follower_count", "label", "tweets"})
_TWEET_KEYS = frozenset({"text", "timestamp"})


def _parse_account(obj: dict, where: str, declared: tuple[str, ...] | None) -> AccountRecord:
    def fail(msg: str):
        raise CorpusError(f"{where}: {msg}")

    if not (isinstance(obj, dict) and _ACCOUNT_KEYS.issuperset(obj)):
        check_keys(obj, CorpusError, f"{where}: the account", _ACCOUNT_KEYS)
    account_id = obj.get("account_id")
    if not isinstance(account_id, str) or not account_id:
        fail("missing or empty account_id")
    followers = check_int(obj.get("follower_count"), CorpusError,
                          f"{where}: account {account_id!r}: follower_count", 0)
    label = obj.get("label")
    if label is not None and not isinstance(label, str):
        fail(f"account {account_id!r}: label must be a string or null")
    if label is not None and declared is not None and label not in declared:
        fail(f"account {account_id!r}: unknown label {label!r} (declared label_set: {list(declared)})")
    raw_tweets = obj.get("tweets", [])
    if not isinstance(raw_tweets, list):
        fail(f"account {account_id!r}: tweets must be a list")
    try:  # one C-level call per check over each column; a failure walks the tweets in turn
        texts = list(map(itemgetter("text"), raw_tweets))  # a TypeError for a non-object
        stamps = parse_timestamps(list(map(itemgetter("timestamp"), raw_tweets)))
        if set(map(len, raw_tweets)) <= {2} and all(map(str.strip, texts)):  # no third key, no blank
            return AccountRecord(account_id, followers, label, tuple(map(Tweet, texts, stamps)))
    except (KeyError, TypeError, ValueError):
        pass
    for i, t in enumerate(raw_tweets):
        if not (isinstance(t, dict) and _TWEET_KEYS.issuperset(t)):
            check_keys(t, CorpusError, f"{where}: account {account_id!r}: tweet {i}", _TWEET_KEYS)
        text = t.get("text")
        if not isinstance(text, str) or not text.strip():
            fail(f"account {account_id!r}: tweet {i} has empty text")
        try:
            parse_timestamp(t.get("timestamp"))
        except ValueError as exc:
            fail(f"account {account_id!r}: tweet {i}: {exc}")
    raise AssertionError(f"{where}: a column check failed where no tweet does")


def load_corpus(path) -> Corpus:
    """Load and validate a JSONL corpus file.

    Raises CorpusError with the path and line number for malformed lines,
    unknown or repeated keys, duplicate ids, or labels outside a declared label set.
    """
    declared: tuple[str, ...] | None = None
    accounts: list[AccountRecord] = []
    seen: set[str] = set()
    for lineno, line in read_lines(path, CorpusError):
        if not line.strip():
            continue
        try:
            obj = JSON_DECODER.decode(line)
        except JSONDecodeError as exc:
            raise CorpusError(f"{path}: line {lineno}: malformed JSON ({exc.msg})") from exc
        except (ValueError, RecursionError) as exc:  # a repeated key, a huge integer, too deep
            raise CorpusError(f"{path}: line {lineno}: {exc}") from exc
        first = declared is None and not accounts  # the first non-blank line
        if first and isinstance(obj, dict) and "label_set" in obj and "account_id" not in obj:
            where = f"{path}: line {lineno}"
            labels = check_keys(obj, CorpusError, f"{where}: the header", {"label_set"})["label_set"]
            if (not isinstance(labels, list) or not all(isinstance(x, str) for x in labels)
                    or len(set(labels)) != len(labels)):
                raise CorpusError(f"{where}: label_set must be a list of distinct strings")
            declared = tuple(labels)
            continue
        record = _parse_account(obj, f"{path}: line {lineno}", declared)
        if record.account_id in seen:
            raise CorpusError(f"{path}: line {lineno}: duplicate account_id {record.account_id!r}")
        seen.add(record.account_id)
        accounts.append(record)
    if declared is not None:
        label_set = declared
    else:
        label_set = tuple(sorted({a.label for a in accounts if a.label is not None}))
    return Corpus(label_set=label_set, accounts=tuple(accounts))


def filter_accounts(c: Corpus, min_followers: int, min_tweets: int, window: DateWindow) -> Corpus:
    """Keep accounts meeting the follower floor with enough in-window tweets.

    Kept accounts have their tweet lists restricted to the window.
    """
    kept = []
    for a in c.accounts:
        if a.follower_count < min_followers:
            continue
        in_window = tuple(t for t in a.tweets if window.contains(t.timestamp))
        if len(in_window) >= min_tweets:
            kept.append(AccountRecord(a.account_id, a.follower_count, a.label, in_window))
    return Corpus(label_set=c.label_set, accounts=tuple(kept))


def labeled_accounts(c: Corpus) -> Corpus:
    """Restrict to accounts that carry a label."""
    return Corpus(c.label_set, tuple(a for a in c.accounts if a.label is not None))


def split_corpus(c: Corpus, spec: SplitSpec) -> tuple[Corpus, Corpus]:
    """Partition the filtered corpus into (non_test, test) by the spec's test_ids."""
    ids = set(c.account_ids)
    missing = sorted(spec.test_ids - ids)
    if missing:
        raise CorpusError(f"test ids not among the accounts kept after filtering: {missing}")
    for a in c.accounts:
        if a.account_id in spec.test_ids and a.label is None:
            raise CorpusError(f"test account {a.account_id!r} has no label")
    test = tuple(a for a in c.accounts if a.account_id in spec.test_ids)
    non_test = tuple(a for a in c.accounts if a.account_id not in spec.test_ids)
    return (Corpus(c.label_set, non_test), Corpus(c.label_set, test))


def kfold_splits(c: Corpus, k: int, seed: int) -> list[tuple[Corpus, Corpus]]:
    """Deterministic k-fold split: k (train, validation) pairs.

    Every account must be labeled. Account ids are sorted, shuffled with
    the seeded SplitMix64 generator, and dealt round-robin into k folds,
    label group by label group (continuing the round-robin counter across
    groups), which stratifies folds by label while keeping overall fold
    sizes within one of each other.
    """
    if k < 2:
        raise CorpusError(f"folds must be >= 2, got {k}")
    if k > len(c):
        raise CorpusError(f"cannot make {k} folds from {len(c)} accounts")
    labels = {a.account_id: a.label for a in c.accounts}
    if None in labels.values():
        raise CorpusError("cannot stratify folds over unlabeled accounts")
    all_ids = sorted(labels)
    order = list(c.label_set) + sorted(set(labels.values()) - set(c.label_set))
    groups = [[i for i in all_ids if labels[i] == lab] for lab in order]

    fold_ids: list[set[str]] = [set() for _ in range(k)]
    counter = 0
    for group in groups:
        for account_id in shuffled(group, seed):
            fold_ids[counter % k].add(account_id)
            counter += 1

    pairs = []
    for fold in fold_ids:
        validation = tuple(a for a in c.accounts if a.account_id in fold)
        train = tuple(a for a in c.accounts if a.account_id not in fold)
        pairs.append((Corpus(c.label_set, train), Corpus(c.label_set, validation)))
    return pairs
