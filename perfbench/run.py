"""Benchmark command: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload crossval-knn-short --seed 1 --seconds 36 --trace 0

Generates the seeded corpus under `.perfbench_work/`, then runs passes of
the workload (corpus file to canonical report bytes), each in a fresh
process, one at a time, until the next pass would overrun `--seconds`
(at least MIN_PASSES). Every pass runs under another PYTHONHASHSEED and
must produce the same report sha256. The first pass's report and token
streams are checked by `check.py`. One operation is one account
prediction; a prediction fails if its pass fails or a check on it fails.

With `--trace 0` the last line reports the end-to-end metrics over the
passes (the comment in `main` says which statistic each uses). With
`--trace 1` passes alternate untraced and traced, and the last line
reports the per-layer metrics (medians over traced passes) with the
tracing overhead; the span JSONL of the first traced pass and a per-layer
table go to `.perfbench_out/<workload>.*` (the last run's).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from check import check
from gen import WORKLOADS, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3
PASS_TIMEOUT_S = 150
RUN_LIMIT_S = 120  # stop starting passes after this, whatever --seconds says

PASS_KEYS = {"wall_s", "setup_s", "accounts", "peak_rss_mb", "sha256"}
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "accounts_per_s": "accounts/s",
                    "peak_rss_mb": "MiB"}


def _pass(workload: str, workdir: Path, index: int, traced: bool, spans: Path | None) -> dict:
    cmd = [sys.executable, str(HERE / "one_pass.py"), "--workload", workload,
           "--trace", "1" if traced else "0"]
    if index == 0:
        cmd.append("--dump")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONHASHSEED=str(index + 1))
    proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"pass {index} exited with {proc.returncode}: {proc.stderr.strip()}")
    try:
        out = json.loads(proc.stdout.splitlines()[-1])
        missing = PASS_KEYS - out.keys()
    except (IndexError, ValueError, AttributeError) as exc:
        raise RuntimeError(f"pass {index} printed no result: {exc}") from None
    if missing:
        raise RuntimeError(f"pass {index} result lacks {sorted(missing)}")
    return out


def _layer_table(layers: dict, wall_s: float) -> str:
    lines = [f"{'layer':<26}{'self_s':>10}{'total_s':>10}{'calls':>9}{'self %':>8}"]
    for name, layer in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"{name:<26}{layer['self_s']:>10.4f}{layer['total_s']:>10.4f}"
                     f"{layer['calls']:>9.0f}{100 * layer['self_s'] / wall_s:>7.1f}%")
    self_sum = sum(layer["self_s"] for layer in layers.values())
    lines.append(f"{'sum of self times':<26}{self_sum:>10.4f}  (traced wall {wall_s:.4f} s)")
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "zhstance" / "__init__.py").is_file():
        print(f"no zhstance sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    outdir = ROOT / ".perfbench_out"
    outdir.mkdir(exist_ok=True)
    try:
        meta = generate(args.workload, args.seed, workdir)
        # The predictions every pass makes; a pass that crashes fails them all.
        expected = set(meta["test_ids"] if workload.mode == "test" else meta["kept_labeled"])
        passes, errors, crashed = [], [], 0
        start = perf_counter()
        while True:
            index = len(passes)
            traced = bool(args.trace) and index % 2 == 1
            spans = outdir / f"{args.workload}.spans.jsonl" if traced and index == 1 else None
            try:
                passes.append(_pass(args.workload, workdir, index, traced, spans))
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                errors.append(str(exc))
                crashed = 1
                break
            elapsed = perf_counter() - start
            if len(passes) >= MIN_PASSES and (
                    elapsed * (len(passes) + 1) / len(passes) > args.seconds
                    or elapsed > RUN_LIMIT_S):
                break
        elapsed = perf_counter() - start
        failed_ids: set[str] = set()
        if passes:
            try:
                failed_ids, messages = check(
                    workdir, workload, args.seed, (workdir / "report.json").read_bytes(),
                    json.loads((workdir / "tokens.json").read_text("utf-8")))
            except Exception as exc:  # a malformed report or token dump fails every prediction
                failed_ids, messages = set(expected), [f"check raised {type(exc).__name__}: {exc}"]
            failed_ids &= expected
            if messages and not failed_ids:
                failed_ids = set(expected)
            errors += messages
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    per_pass = len(expected)
    sha = passes[0]["sha256"] if passes else None
    attempted = per_pass * (len(passes) + crashed)
    failed = per_pass * crashed
    for i, p in enumerate(passes):
        if p["sha256"] != sha:
            errors.append(f"pass {i} (PYTHONHASHSEED={i + 1}) report sha256 {p['sha256']} != {sha}")
            failed += per_pass
        else:
            failed += len(failed_ids)
    for message in errors[:20]:
        print(f"check failed: {message}", file=sys.stderr)

    untraced = [p for i, p in enumerate(passes) if not (args.trace and i % 2 == 1)]
    traced = [p for i, p in enumerate(passes) if args.trace and i % 2 == 1]
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes in {elapsed:.1f} s, "
          f"{len(untraced)} untraced, {len(traced)} traced; report sha256 {sha}")
    print("pass wall_s:", " ".join(f"{p['wall_s']:.3f}" for p in passes))
    metrics: dict[str, dict] = {}
    if not args.trace and untraced:
        # Times are in reference seconds (speed.py): measured seconds scaled
        # by how fast a probe loop ran beside them, since the shared host's
        # speed swings by up to 2x within a run. wall_s and accounts_per_s
        # use means over passes; setup_s, tens of milliseconds, a median.
        values = {
            "wall_s": statistics.fmean(p["ref_setup_s"] + p["ref_work_s"] for p in untraced),
            "setup_s": statistics.median(p["ref_setup_s"] for p in untraced),
            "accounts_per_s": untraced[0]["accounts"]
            / statistics.fmean(p["ref_work_s"] for p in untraced),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    elif traced:
        metrics = _per_layer(traced, untraced)
        layers = {name: {key: statistics.median(p["layers"][name][key] for p in traced)
                         for key in ("self_s", "total_s", "calls")}
                  for name in traced[0]["layers"]}
        table = _layer_table(layers, layers["run"]["total_s"])
        (outdir / f"{args.workload}.layers.txt").write_text(
            f"{args.workload} seed {args.seed}, medians of {len(traced)} traced passes\n{table}\n",
            encoding="utf-8")
        print(table)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    def med(fn):
        return statistics.median(fn(p) for p in traced)

    metrics = {}
    for name in traced[0]["metrics"]:
        unit = "s" if name.endswith(("_s", ".s")) else "count"
        metrics[name] = {"value": med(lambda p: p["metrics"][name]), "unit": unit}
    metrics["zh_convert.chars_per_s"] = {
        "value": med(lambda p: p["metrics"]["zh_convert.chars"]
                     / p["metrics"]["zh_convert.to_simplified_s"]),
        "unit": "chars/s"}
    metrics["corpus.accounts_kept"] = {"value": med(lambda p: p["accounts"]), "unit": "count"}
    metrics["corpus.tweets_kept"] = {"value": med(lambda p: p["tweets"]), "unit": "count"}
    metrics["report.bytes"] = {"value": med(lambda p: p["report_bytes"]), "unit": "bytes"}
    wall = statistics.fmean(p["wall_s"] for p in traced)
    metrics["trace.wall_s"] = {"value": wall, "unit": "s"}
    metrics["trace.unattributed_s"] = {"value": med(lambda p: p["layers"]["run"]["self_s"]),
                                       "unit": "s"}
    metrics["trace.overhead_s"] = {
        "value": wall - statistics.fmean(p["wall_s"] for p in untraced), "unit": "s"}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
