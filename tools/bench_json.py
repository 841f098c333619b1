#!/usr/bin/env python3
"""Record the benchmark trajectory: one BENCH_<n>.json per measured commit.

Runs `perfbench/run.py` for each workload twice, untraced (--trace 0, the
end-to-end metrics) and traced (--trace 1, the per-layer metrics), and
writes their last lines, the report sha256, the measured commit, the
Python version, the CPU count and the source size (`src_lines`, the line
count of src/zhstance/*.py) to BENCH_<n>.json at the repository root. Every run is at seed 1, whose report sha256 values CI checks, for
the benchmark's 36 seconds (BENCHMARK.json). Untraced times are reference
seconds (perfbench/speed.py); traced layer times are measured seconds.

Usage: python3 tools/bench_json.py --n 7

Exits 1, writing nothing, when a run is not correct, fails operations, or
the two runs of a workload give different report sha256 values. After
writing, it prints each end-to-end metric's ratio to the previous
BENCH_<m>.json (the largest m below n) on stderr, so that drift across
several changes shows, and `src_lines` against the latest earlier file
that records it. That is a printout, not a gate: one run per file is too
noisy to gate on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
SRC = ROOT / "src" / "zhstance"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))["workloads"]]
SHA256 = re.compile(r"report sha256 ([0-9a-f]{64})$", re.MULTILINE)
SEED = 1
SECONDS = 36


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def measure(workload: str, trace: int) -> tuple[dict, str]:
    """The last line of one run.py call, and the report sha256 it printed."""
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    sha = SHA256.search(proc.stdout)
    if proc.returncode != 0 or not lines or sha is None:
        raise SystemExit(f"{workload} --trace {trace}: run.py exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    if result["correct"] is not True or result["failed"] != 0:
        raise SystemExit(f"{workload} --trace {trace}: correct {result['correct']}, "
                         f"failed {result['failed']}: {proc.stderr.strip()[-2000:]}")
    return result, sha.group(1)


def src_lines() -> int:
    return sum(len(path.read_text("utf-8").splitlines()) for path in SRC.glob("*.py"))


def print_ratios(n: int, record: dict) -> None:
    """Each end-to-end metric against the previous BENCH_<m>.json, and
    src_lines against the latest earlier file that has it, on stderr."""
    earlier = {int(m.group(1)): json.loads(path.read_text("utf-8")) for path in ROOT.glob("BENCH_*.json")
               if (m := re.fullmatch(r"BENCH_([0-9]+)\.json", path.name)) and int(m.group(1)) < n}
    sized = [m for m in earlier if "src_lines" in earlier[m]]
    was = f" / {earlier[max(sized)]['src_lines']} in BENCH_{max(sized)}.json" if sized else ""
    print(f"src_lines {record['src_lines']}{was}", file=sys.stderr)
    if not earlier:
        return
    m = max(earlier)
    before = earlier[m]["workloads"]
    for workload, measured in record["workloads"].items():
        if workload not in before:
            continue
        ratios = []
        for name, metric in sorted(measured["end_to_end"].items()):
            was = before[workload]["end_to_end"].get(name, {}).get("value")
            if was:
                ratios.append(f"{name} {metric['value']:.4g} / {was:.4g} = {metric['value'] / was:.3f}")
        print(f"{workload} against BENCH_{m}.json: " + ", ".join(ratios), file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, required=True, help="the number in BENCH_<n>.json")
    args = parser.parse_args()

    workloads = {}
    for workload in WORKLOADS:
        untraced, sha = measure(workload, 0)
        traced, traced_sha = measure(workload, 1)
        if traced_sha != sha:
            raise SystemExit(f"{workload}: report sha256 {sha} untraced, {traced_sha} traced")
        workloads[workload] = {
            "report_sha256": sha,
            "attempted": untraced["attempted"],
            "end_to_end": untraced["metrics"],
            "per_layer": traced["metrics"],
        }
        print(f"{workload}: wall_s {untraced['metrics']['wall_s']['value']:.3f}, sha256 {sha}",
              file=sys.stderr)

    record = {
        "bench": args.n,
        "commit": _git("rev-parse", "HEAD"),
        # uncommitted changes to the measured code would make the commit wrong
        "source_clean": _git("status", "--porcelain", "--", "src", "perfbench") == "",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "src_lines": src_lines(),
        "seed": SEED,
        "seconds": SECONDS,
        "command": f"python3 perfbench/run.py --workload W --seed {SEED} --seconds {SECONDS} "
                   "--trace 0|1",
        "units": "untraced times in reference seconds, traced layer times in measured seconds",
        "workloads": workloads,
    }
    out = ROOT / f"BENCH_{args.n}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(out, file=sys.stderr)
    print_ratios(args.n, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
