"""The benchmark imports library names (perfbench/one_pass.py) and wraps
others by name (perfbench/spans.py). Dropping or renaming one of them
fails here, not only in a benchmark run."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [
    ["perfbench/one_pass.py", "--help"],
    ["-c", "import spans; spans.install(spans.Tracer())"],
], ids=["one_pass-imports", "spans-install"])
def test_benchmark_finds_the_names_it_uses(argv):
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
