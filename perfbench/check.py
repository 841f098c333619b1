"""Output checks computed apart from the program.

Given a workload's generated directory (corpus, metadata, stopwords), the
report one pass wrote and that pass's per-account token streams, recompute
what the report claims with independent code:

- a greedy longest-match converter built on a regular expression, plus the
  cleaning rules, must give back each account's token streams concatenated
  (tokens partition the cleaned, simplified text);
- the accounts scored must be exactly the labeled accounts the generator
  planted past the filters, and the folds must partition them;
- k-NN: a dense TF-IDF matrix and a full similarity sort, for a sample of
  queries in every fold; the top-k similarities match to 1e-9 and the
  neighbour ids match except among ties;
- baseline1: naive top-n term lists and symmetric-difference distances
  with a full sort, for the same sample;
- every prediction: no neighbour from the query's own fold or the test
  set, neighbour labels are the planted ones, uniform votes sum to k and
  the predicted label follows the documented vote tie-break;
- confusion matrices, per-label precision, recall and F1, accuracy and the
  fold aggregates, recomputed from the predictions;
- pooled accuracy beats the majority-class rate by the generator's margin.

`check` returns the ids of the predictions that failed and messages.
"""

from __future__ import annotations

import json
import math
import random
import re
from datetime import date, datetime, timezone
from pathlib import Path

import numpy as np

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "zhstance" / "data"
SAMPLE = 8  # queries re-scored independently per fold
K = 5
TOP_N = 25
SIM_TOL = 1e-9
METRIC_TOL = 1e-12


def naive_converter():
    """Greedy leftmost-longest conversion via one regex alternation, longest
    keys first (re takes the first alternative that matches)."""
    mapping = {}
    with open(DATA_DIR / "t2s.tsv", encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            if line.strip() and not line.startswith("#"):
                key, _, value = line.partition("\t")
                mapping[key] = value.split(" ")[0].strip()
    keys = sorted(mapping, key=lambda k: (-len(k), k))
    pattern = re.compile("|".join(re.escape(k) for k in keys))
    return lambda text: pattern.sub(lambda m: mapping[m.group()], text)


def cleaned(text: str) -> str:
    chunks = []
    for chunk in text.split():
        if chunk.startswith(("http://", "https://", "@")):
            continue
        chunks.append(chunk.replace("#", ""))
    return "".join(chunks)


def _in_window(raw: str, start: date, end: date) -> bool:
    ts = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    return start <= ts.astimezone(timezone.utc).date() <= end


def _vote_winner(neighbors: list[dict]) -> str:
    votes: dict[str, int] = {}
    sims: dict[str, float] = {}
    for nb in neighbors:
        votes[nb["label"]] = votes.get(nb["label"], 0) + 1
        sims[nb["label"]] = sims.get(nb["label"], 0.0) + nb["similarity"]
    top = max(votes.values())
    tied = [label for label in votes if votes[label] == top]
    top_sim = max(sims[label] for label in tied)
    return min(label for label in tied if sims[label] == top_sim)


def _dense_knn(query_ids, train_ids, tokens) -> dict[str, list[tuple[float, str]]]:
    """Full similarity ranking of the training accounts for each query."""
    vocab = sorted({t for a in train_ids for t in tokens[a]})
    index = {t: i for i, t in enumerate(vocab)}
    tf = np.zeros((len(train_ids), len(vocab)))
    for row, a in enumerate(train_ids):
        for t in tokens[a]:
            tf[row, index[t]] += 1.0
    idf = np.log(len(train_ids) / np.count_nonzero(tf, axis=0))
    weights = tf * idf
    norms = np.sqrt((weights * weights).sum(axis=1))
    out = {}
    for q in query_ids:
        qv = np.zeros(len(vocab))
        for t in tokens[q]:
            if t in index:
                qv[index[t]] += 1.0
        qv *= idf
        qn = math.sqrt(float(qv @ qv))
        dots = weights @ qv
        sims = [0.0 if qn == 0.0 or n == 0.0 else float(d / (qn * n)) for d, n in zip(dots, norms)]
        out[q] = sorted(zip(sims, train_ids), key=lambda s: (-s[0], s[1]))
    return out


def _top_terms(stream: list[str], stopwords: set[str]) -> list[str]:
    counts: dict[str, int] = {}
    for t in stream:
        if t not in stopwords:
            counts[t] = counts.get(t, 0) + 1
    return [t for t, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))][:TOP_N]


def _naive_baseline1(query_ids, train_ids, tokens, stopwords) -> dict[str, list[tuple[float, str]]]:
    terms = {a: _top_terms(tokens[a], stopwords) for a in list(train_ids) + list(query_ids)}
    out = {}
    for q in query_ids:
        qt = terms[q]
        ranked = []
        for a in train_ids:
            d = sum(1 for t in qt if t not in terms[a]) + sum(1 for t in terms[a] if t not in qt)
            ranked.append((d, a))
        ranked.sort()
        out[q] = [(1.0 / (1.0 + d), a) for d, a in ranked]
    return out


def _metric_set(labels, predictions) -> tuple[list[list[int]], float, dict, dict]:
    pos = {label: i for i, label in enumerate(labels)}
    confusion = [[0] * len(labels) for _ in labels]
    for p in predictions:
        confusion[pos[p["label"]]][pos[p["predicted"]]] += 1
    total = sum(map(sum, confusion))
    per_label, support = {}, {}
    for i, label in enumerate(labels):
        tp = confusion[i][i]
        predicted = sum(row[i] for row in confusion)
        actual = sum(confusion[i])
        precision = tp / predicted if predicted else 0.0
        recall = tp / actual if actual else 0.0
        f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_label[label] = {"precision": precision, "recall": recall, "f1": f1}
        support[label] = actual
    accuracy = sum(confusion[i][i] for i in range(len(labels))) / total
    return confusion, accuracy, per_label, support


def _mean_std(values: list[float]) -> dict:
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / (len(values) - 1) if len(values) > 1 else 0.0
    return {"mean": mean, "std": math.sqrt(var)}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= METRIC_TOL


class _Result:
    def __init__(self):
        self.failed: set[str] = set()
        self.messages: list[str] = []

    def fail(self, ids, message: str):
        self.failed.update(ids)
        self.messages.append(message)


def check(workdir: Path, workload, seed: int, report: bytes, tokens: dict) -> tuple[set[str], list[str]]:
    """Check one pass's report; returns (failed prediction ids, messages)."""
    meta = json.loads((workdir / "meta.json").read_text(encoding="utf-8"))
    payload = json.loads(report)
    res = _Result()
    labels = meta["labels"]
    truth = meta["kept_labeled"]
    test_ids = set(meta["test_ids"])

    if workload.mode == "crossval":
        groups = [(f["fold"], f["validation_ids"], f["predictions"], f) for f in payload["folds"]]
    else:
        groups = [(0, sorted(test_ids), payload["predictions"], payload)]
    all_ids = [p["account_id"] for _, _, preds, _ in groups for p in preds]

    # Accounts scored: exactly the planted ones, each once.
    scored = [a for _, ids, _, _ in groups for a in ids]
    expected = sorted(test_ids) if workload.mode == "test" else sorted(truth)
    if sorted(scored) != expected:
        res.fail(set(all_ids) | set(expected),
                 "scored accounts are not the labeled accounts past the filters")
    for fold, ids, preds, _ in groups:
        if [p["account_id"] for p in preds] != sorted(ids):
            res.fail(all_ids, f"fold {fold}: predictions do not cover its validation ids")

    # Tokens partition the converted, cleaned text.
    convert = naive_converter()
    start, end = (date.fromisoformat(d) for d in meta["window"])
    with open(workdir / "corpus.jsonl", encoding="utf-8") as f:
        for line in f:
            acct = json.loads(line)
            aid = acct.get("account_id")
            if aid not in truth:
                continue
            text = "".join(cleaned(convert(t["text"])) for t in acct["tweets"]
                           if _in_window(t["timestamp"], start, end))
            stream = tokens.get(aid)
            if stream is None or "".join(stream) != text or any(not t or t.isspace() for t in stream):
                res.fail([aid] if aid in all_ids else all_ids,
                         f"{aid}: tokens do not partition its converted, cleaned text")

    stopwords = set((workdir / "stopwords.txt").read_text(encoding="utf-8").split())
    for fold, ids, preds, block in groups:
        held_out = set(ids)
        train_ids = sorted(a for a in truth if a not in held_out and a not in test_ids)
        by_id = {p["account_id"]: p for p in preds}
        for p in preds:
            nbs = p["neighbors"]
            aid = p["account_id"]
            if p["label"] != truth.get(aid):
                res.fail([aid], f"{aid}: key label is not the planted label")
            if (len({nb["account_id"] for nb in nbs}) != K or len(nbs) != K
                    or any(nb["account_id"] not in train_ids for nb in nbs)):
                res.fail([aid], f"{aid}: neighbours must be {K} distinct training accounts "
                                f"outside its fold")
                continue
            if any(nb["label"] != truth[nb["account_id"]] for nb in nbs):
                res.fail([aid], f"{aid}: a neighbour carries the wrong label")
            counts = {}
            for nb in nbs:
                counts[nb["label"]] = counts.get(nb["label"], 0) + 1
            if p["votes"] != {k: float(v) for k, v in counts.items()} or sum(p["votes"].values()) != K:
                res.fail([aid], f"{aid}: uniform votes do not sum to k over the neighbour labels")
            if p["predicted"] != _vote_winner(nbs):
                res.fail([aid], f"{aid}: predicted label does not follow the vote tie-break")

        sample = random.Random(f"check:{seed}:{fold}").sample(sorted(by_id), min(SAMPLE, len(by_id)))
        if workload.model == "knn":
            ranked = _dense_knn(sample, train_ids, tokens)
            for q in sample:
                dense = dict((a, s) for s, a in ranked[q])
                for pos, nb in enumerate(by_id[q]["neighbors"]):
                    ref_sim, ref_id = ranked[q][pos]
                    if abs(nb["similarity"] - ref_sim) > SIM_TOL or (
                            nb["account_id"] != ref_id
                            and abs(dense[nb["account_id"]] - ref_sim) > SIM_TOL):
                        res.fail([q], f"{q}: neighbour {pos} differs from the dense TF-IDF ranking")
                        break
        elif workload.model == "baseline1":
            ranked = _naive_baseline1(sample, train_ids, tokens, stopwords)
            for q in sample:
                got = [(nb["similarity"], nb["account_id"]) for nb in by_id[q]["neighbors"]]
                if got != ranked[q][:K]:
                    res.fail([q], f"{q}: neighbours differ from the naive top-term distances")

        confusion, accuracy, per_label, support = _metric_set(labels, preds)
        ok = (block["confusion"] == confusion and _close(block["accuracy"], accuracy)
              and block["support"] == support
              and all(_close(block["per_label"][label][m], per_label[label][m])
                      for label in labels for m in ("precision", "recall", "f1")))
        if not ok:
            res.fail(by_id, f"fold {fold}: metrics differ from those recomputed from its predictions")

    if workload.mode == "crossval":
        folds = payload["folds"]
        agg = payload["aggregate"]
        expect = _mean_std([f["accuracy"] for f in folds])
        ok = all(_close(agg["accuracy"][s], expect[s]) for s in ("mean", "std"))
        for label in labels:
            for m in ("precision", "recall", "f1"):
                expect = _mean_std([f["per_label"][label][m] for f in folds])
                ok = ok and all(_close(agg["per_label"][label][m][s], expect[s])
                                for s in ("mean", "std"))
        if not ok:
            res.fail(all_ids, "fold aggregates differ from the recomputed mean and sample std")

    evaluated = [p for _, _, preds, _ in groups for p in preds]
    hits = sum(p["label"] == p["predicted"] for p in evaluated)
    majority = max(sum(p["label"] == label for p in evaluated) for label in labels)
    if hits < majority + meta["margin"] * len(evaluated):
        res.fail(all_ids, f"accuracy {hits}/{len(evaluated)} does not beat the majority class "
                          f"({majority}) by the planted margin {meta['margin']}")
    return res.failed, res.messages
