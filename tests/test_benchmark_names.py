"""The benchmark imports library names (perfbench/one_pass.py) and wraps
others by name (perfbench/spans.py). Dropping or renaming one of them
fails here, not only in a benchmark run. So does reshaping the two library
results it reads attributes of."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from zhstance.corpus import filter_accounts, load_corpus
from zhstance.pipeline import Pipeline, PipelineConfig
from zhstance.resources import load_resources
from zhstance.vectorize import fit_vectorizer

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


def test_benchmark_reads_the_sizes_it_reports(synthetic_corpus_path):
    # one_pass.py sums len(a.tweets) over the filtered accounts (corpus.tweets_kept);
    # spans.py reads len(fit.document_frequency) of each fit_vectorizer result
    # (vectorize.vocab_size). On the fixture corpus: 20 accounts, 260 tweets, 38 terms.
    config = PipelineConfig()
    kept = filter_accounts(load_corpus(synthetic_corpus_path), config.min_followers,
                           config.min_tweets, config.window)
    assert (len(kept), sum(len(a.tweets) for a in kept.accounts)) == (20, 260)
    fit = fit_vectorizer(Pipeline(load_resources(), config).count_batch(kept.accounts))
    assert len(fit.document_frequency) == 38
    fit.transform({})  # its frequencies are now its IDF
    assert len(fit.document_frequency) == 38
