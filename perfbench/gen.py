"""Seeded corpus generator for the benchmark workloads.

Draws Zipf-weighted terms from the bundled segmentation lexicon, the
simplified side of the bundled conversion table, its traditional phrase
and character keys, and Han "words" made of characters that neither the
lexicon nor the table knows (so the HMM fallback runs). Each label gets a
topic vocabulary that a controlled share of every tweet's terms is drawn
from; the rest is background shared by all labels. URLs, mentions,
hashtags, out-of-window tweets, below-floor accounts and unlabeled
accounts are planted so that cleaning and every filter path run.

Sizes and term distributions are fixed per workload: every seed yields
exactly the same number of accounts, kept accounts and in-window tweets,
drawn from the same distributions; only the sample varies.

    python3 perfbench/gen.py --workload crossval-knn-short --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "zhstance" / "data"

LABELS = ("Beijing", "Democracy", "Neutral")
LABEL_SHARES = (0.45, 0.35, 0.20)
MIN_FOLLOWERS = 10000
MIN_TWEETS = 10
WINDOW_START = datetime(2021, 1, 1, tzinfo=timezone.utc)
WINDOW_DAYS = 105  # 2021-01-01 .. 2021-04-15 inclusive
ZIPF_S = 1.1
TOPIC_TERMS = 40  # topic vocabulary size per label
# Accuracy must beat the majority-class rate by at least this much; the
# topic strengths below plant a signal far stronger than that.
MARGIN = 0.20


@dataclass(frozen=True)
class Shape:
    accounts: int  # accounts that survive the filters and carry a label
    tweets: int  # in-window tweets per kept account
    terms: tuple[int, int]  # terms per tweet, inclusive range
    mix: dict  # background pool -> share of background terms
    topic: float  # share of terms drawn from the label's topic vocabulary
    test_accounts: int  # held-out test ids (0: none)


@dataclass(frozen=True)
class Workload:
    shape: str
    mode: str  # "crossval" or "test"
    model: str
    stopwords: bool


SHAPES = {
    "short": Shape(accounts=500, tweets=12, terms=(4, 9),
                   mix={"lex": 0.35, "simp": 0.45, "phrase": 0.05, "char": 0.05, "oov": 0.10},
                   topic=0.20, test_accounts=0),
    "longtrad": Shape(accounts=200, tweets=30, terms=(20, 36),
                      mix={"lex": 0.10, "simp": 0.10, "phrase": 0.40, "char": 0.15, "oov": 0.25},
                      topic=0.15, test_accounts=20),
}

# Why each workload exists is recorded in BENCHMARK.json and the README.
WORKLOADS = {
    "crossval-knn-short": Workload("short", "crossval", "knn", False),
    "heldout-knn-longtrad": Workload("longtrad", "test", "knn", False),
    "crossval-baseline1": Workload("short", "crossval", "baseline1", True),
}


def _read_pools() -> dict[str, list[str]]:
    lex = []
    with open(DATA_DIR / "lexicon.txt", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line and not line.startswith("#"):
                lex.append(line.split()[0])
    phrase, char, simp = [], [], []
    with open(DATA_DIR / "t2s.tsv", encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            key, _, value = line.partition("\t")
            (phrase if len(key) > 1 else char).append(key)
            simp.append(value.split(" ")[0].strip())
    known = set("".join(lex)) | set("".join(phrase)) | set(char) | set("".join(simp))
    oov_chars = [chr(c) for c in range(0x4E00, 0xA000) if chr(c) not in known]
    return {"lex": lex, "simp": sorted(set(simp)), "phrase": phrase, "char": char,
            "oov_chars": oov_chars}


class _Zipf:
    """Zipf(s) draws over a seeded permutation of a pool."""

    def __init__(self, items: list[str], rng: random.Random):
        self.items = list(items)
        rng.shuffle(self.items)
        total = 0.0
        self.cum = []
        for rank in range(len(self.items)):
            total += 1.0 / (rank + 1) ** ZIPF_S
            self.cum.append(total)

    def draw(self, rng: random.Random) -> str:
        return rng.choices(self.items, cum_weights=self.cum)[0]


def _ts(rng: random.Random, in_window: bool) -> str:
    if in_window:
        instant = WINDOW_START + timedelta(seconds=rng.randrange(WINDOW_DAYS * 86400))
    elif rng.random() < 0.5:
        instant = WINDOW_START - timedelta(seconds=rng.randrange(1, 60 * 86400))
    else:
        instant = WINDOW_START + timedelta(days=WINDOW_DAYS, seconds=rng.randrange(60 * 86400))
    if rng.random() < 0.3:
        return instant.astimezone(timezone(timedelta(hours=8))).isoformat()
    return instant.strftime("%Y-%m-%dT%H:%M:%SZ")


def _clutter(rng: random.Random) -> str:
    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    return "".join(rng.choice(letters) for _ in range(10))


class _TextMaker:
    def __init__(self, shape: Shape, rng: random.Random):
        pools = _read_pools()
        oov_words = []
        for _ in range(4000):
            oov_words.append("".join(rng.choice(pools["oov_chars"]) for _ in range(rng.randint(2, 3))))
        pools["oov"] = oov_words
        self.shape = shape
        self.background = {name: _Zipf(pools[name], rng) for name in shape.mix}
        self.mix_names = list(shape.mix)
        self.mix_weights = [shape.mix[name] for name in self.mix_names]
        # Disjoint per-label topic vocabularies, drawn from outside the lexicon.
        candidates = pools["simp"] + pools["phrase"] + oov_words
        picked = rng.sample(candidates, TOPIC_TERMS * len(LABELS))
        self.topics = {
            label: _Zipf(picked[i * TOPIC_TERMS:(i + 1) * TOPIC_TERMS], rng)
            for i, label in enumerate(LABELS)
        }
        self.hashtags = pools["lex"] + pools["simp"][:200]

    def term(self, rng: random.Random, label: str | None) -> str:
        if label is not None and rng.random() < self.shape.topic:
            return self.topics[label].draw(rng)
        pool = rng.choices(self.mix_names, weights=self.mix_weights)[0]
        return self.background[pool].draw(rng)

    def tweet(self, rng: random.Random, label: str | None) -> str:
        parts = []
        if rng.random() < 0.2:
            parts.append(f"@user_{rng.randrange(1000)} ")
        for _ in range(rng.randint(*self.shape.terms)):
            parts.append(self.term(rng, label))
            r = rng.random()
            if r < 0.08:
                parts.append(rng.choice("，。！？、"))
            elif r < 0.11:
                parts.append(" ")
        if rng.random() < 0.2:
            parts.append(f" #{rng.choice(self.hashtags)}")
        if rng.random() < 0.1:
            parts.append(rng.choice((" RT", " ok", " 2021", " COVID-19")))
        if rng.random() < 0.3:
            parts.append(f" https://t.co/{_clutter(rng)}")
        return "".join(parts).strip()


def _label_counts(n: int) -> list[int]:
    counts = [round(n * share) for share in LABEL_SHARES[:-1]]
    return counts + [n - sum(counts)]


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write corpus.jsonl, stopwords.txt, test_ids.txt (held-out workloads)
    and meta.json into `out`; returns the metadata."""
    wl = WORKLOADS[workload]
    shape = SHAPES[wl.shape]
    # The term distributions (pool rankings, topic vocabularies) depend on
    # the shape alone, so every seed measures the same workload; the seed
    # draws the sample. Seeded by shape, workloads sharing a shape share
    # the corpus.
    maker = _TextMaker(shape, random.Random(f"{wl.shape}:distribution"))
    rng = random.Random(f"{wl.shape}:{seed}")

    labels = [label for label, c in zip(LABELS, _label_counts(shape.accounts)) for _ in range(c)]
    rng.shuffle(labels)
    # (label, follower_count, in-window tweets, out-of-window tweets)
    specs = [(label, rng.randrange(MIN_FOLLOWERS, 2_000_000), shape.tweets, 2) for label in labels]
    n_low_followers = max(1, shape.accounts // 16)
    n_few_tweets = max(1, shape.accounts // 25)
    n_unlabeled = max(1, shape.accounts // 30)
    specs += [(rng.choice(LABELS), rng.randrange(MIN_FOLLOWERS), shape.tweets, 2)
              for _ in range(n_low_followers)]
    specs += [(rng.choice(LABELS), rng.randrange(MIN_FOLLOWERS, 2_000_000), MIN_TWEETS - 1, 3)
              for _ in range(n_few_tweets)]
    specs += [(None, rng.randrange(MIN_FOLLOWERS, 2_000_000), shape.tweets, 2)
              for _ in range(n_unlabeled)]
    rng.shuffle(specs)

    out.mkdir(parents=True, exist_ok=True)
    kept_labeled: dict[str, str] = {}
    with open(out / "corpus.jsonl", "w", encoding="utf-8") as f:
        f.write(json.dumps({"label_set": list(LABELS)}) + "\n")
        for i, (label, followers, n_in, n_out) in enumerate(specs):
            account_id = f"acct{i:05d}"
            tweets = [{"text": maker.tweet(rng, label), "timestamp": _ts(rng, True)}
                      for _ in range(n_in)]
            tweets += [{"text": maker.tweet(rng, label), "timestamp": _ts(rng, False)}
                       for _ in range(n_out)]
            rng.shuffle(tweets)
            f.write(json.dumps({"account_id": account_id, "follower_count": followers,
                                "label": label, "tweets": tweets}, ensure_ascii=False) + "\n")
            if label is not None and followers >= MIN_FOLLOWERS and n_in >= MIN_TWEETS:
                kept_labeled[account_id] = label

    test_ids: list[str] = []
    if shape.test_accounts:
        for label, c in zip(LABELS, _label_counts(shape.test_accounts)):
            pool = sorted(a for a, lab in kept_labeled.items() if lab == label)
            test_ids += rng.sample(pool, c)
        test_ids.sort()
        (out / "test_ids.txt").write_text("".join(f"{a}\n" for a in test_ids), encoding="utf-8")

    # Stopwords: the most frequent background words, plus function words.
    stopwords = ["的", "了", "是"] + [maker.background["simp"].items[i] for i in range(12)]
    (out / "stopwords.txt").write_text("".join(f"{w}\n" for w in stopwords), encoding="utf-8")

    meta = {"workload": workload, "seed": seed, "labels": list(LABELS),
            "kept_labeled": kept_labeled, "test_ids": test_ids, "margin": MARGIN,
            "min_followers": MIN_FOLLOWERS, "min_tweets": MIN_TWEETS,
            "window": ["2021-01-01", "2021-04-15"]}
    (out / "meta.json").write_text(json.dumps(meta, sort_keys=True), encoding="utf-8")
    return meta


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed, Path(args.out))


if __name__ == "__main__":
    main()
