"""Steadiness check: two sets of benchmark runs of the same code.

    python3 perfbench/steady.py [--workloads NAME ...]

Each of two sets runs every workload once per seed (seeds 1..10) through
the command in BENCHMARK.json, with tracing off. For every end-to-end metric
it prints each set's median and quartile spread (q3 - q1, as a share of
the median) and checks, against the bounds in BENCHMARK.json:

- each spread is within the metric's bound;
- the two sets' medians differ by at most the bound, as a share of the
  first set's median, in either direction;
- the share of failed operations is the same in both sets;
- every run is correct;
- for each seed, the report sha256 is the same in both sets (within a
  run, every pass already runs under another PYTHONHASHSEED and must
  produce the same bytes).

Exits 1 if any check fails. Results also go to .perfbench_out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2
SEEDS = range(1, 11)
SHA = re.compile(r"report sha256 ([0-9a-f]{64})")
PASSES = re.compile(r"^pass wall_s: (.*)$", re.M)


def run_once(bench: dict, workload: str, seed: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    match = SHA.search(proc.stdout)
    result["sha256"] = match.group(1) if match else None
    walls = PASSES.search(proc.stdout)
    result["pass_wall_s"] = [float(x) for x in walls.group(1).split()] if walls else []
    return result


def spread(values: list[float]) -> tuple[float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*", help="default: all in BENCHMARK.json")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]

    sets = []
    for s in range(SETS):
        results = {}
        for workload in workloads:
            results[workload] = []
            for seed in SEEDS:
                r = run_once(bench, workload, seed)
                results[workload].append(r)
                values = " ".join(f"{k}={v['value']:.5g}" for k, v in r["metrics"].items())
                print(f"set {s + 1} {workload} seed {seed}: correct={r['correct']} "
                      f"failed={r['failed']}/{r['attempted']} {values}", flush=True)
        sets.append(results)

    problems = []
    summary = {}
    for workload in workloads:
        summary[workload] = {}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [spread([r["metrics"][name]["value"] for r in results[workload]])
                     for results in sets]
            summary[workload][name] = [{"median": m, "spread": sp} for m, sp in stats]
            cells = "  ".join(f"set {i + 1} median {m:.5g} spread {sp:.3f}"
                              for i, (m, sp) in enumerate(stats))
            print(f"{workload:<22} {name:<15} {cells}  bound {bound}")
            for i, (_, sp) in enumerate(stats):
                if sp > bound:
                    problems.append(f"{workload} {name}: set {i + 1} spread {sp:.3f} > {bound}")
            (m1, _), (m2, _) = stats
            if abs(m2 - m1) / m1 > bound:
                problems.append(f"{workload} {name}: set medians differ by "
                                f"{(m2 - m1) / m1:+.3f}, more than {bound}")
        shares = [sum(r["failed"] for r in res[workload]) / sum(r["attempted"] for r in res[workload])
                  for res in sets]
        if len(set(shares)) > 1:
            problems.append(f"{workload}: failed share differs between sets: {shares}")
        if not all(r["correct"] for res in sets for r in res[workload]):
            problems.append(f"{workload}: a run reported correct=false")
        for seed, a, b in zip(SEEDS, sets[0][workload], sets[1][workload]):
            if a["sha256"] is None or a["sha256"] != b["sha256"]:
                problems.append(f"{workload} seed {seed}: report sha256 differs between sets")

    outdir = ROOT / ".perfbench_out"
    outdir.mkdir(exist_ok=True)
    (outdir / "steady.json").write_text(json.dumps({"summary": summary, "problems": problems,
                                                    "runs": sets}, indent=1), encoding="utf-8")
    for p in problems:
        print(f"FAIL {p}")
    print("steady" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
