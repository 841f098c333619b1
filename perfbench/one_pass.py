"""One pass of a workload in a fresh process: corpus file to report bytes.

Runs the library the way `zhstance crossval` / `zhstance test` do and
prints one JSON line with the pass's timings, peak RSS and report sha256
(plus per-layer self times and counters when traced). Untraced passes
also give their set-up and work times in reference seconds (`speed.py`). Run from the
workload's generated directory, with the checkout's `src` importable:

    python3 perfbench/one_pass.py --workload crossval-knn-short --trace 0
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
from pathlib import Path
from typing import Callable
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import zhstance  # noqa: E402
from zhstance.cli import _read_ids  # noqa: E402
from zhstance.corpus import SplitSpec, filter_accounts, labeled_accounts, load_corpus, split_corpus  # noqa: E402
from zhstance.pipeline import Pipeline, PipelineConfig  # noqa: E402
from zhstance.report import crossval_report, dumps_report, test_report  # noqa: E402
from zhstance.resources import load_resources  # noqa: E402

from gen import WORKLOADS  # noqa: E402
import speed  # noqa: E402
from speed import Sampler  # noqa: E402
from spans import CALL_METRICS, LAYER_METRICS, Tracer, install  # noqa: E402


SETUP_PROBES = 5


def run(workload: str, tracer: Tracer | None) -> tuple[dict, bytes, Callable[[], dict]]:
    wl = WORKLOADS[workload]
    config = PipelineConfig(corpus="corpus.jsonl", model=wl.model,
                            stopwords="stopwords.txt" if wl.stopwords else None)

    def select(corpus):
        return filter_accounts(corpus, config.min_followers, config.min_tweets, config.window)

    def split(corpus):
        if wl.mode == "crossval":
            return labeled_accounts(corpus), None
        non_test, test = split_corpus(
            corpus, SplitSpec(_read_ids("test_ids.txt"), config.folds, config.seed))
        return labeled_accounts(non_test), test

    build = crossval_report if wl.mode == "crossval" else test_report
    if tracer is not None:
        install(tracer)
    wrap = (lambda fn, name: fn) if tracer is None else tracer.wrap
    load = wrap(load_corpus, "corpus.load")
    select = wrap(select, "corpus.filter")
    resources_load = wrap(load_resources, "resources.load")
    split = wrap(split, "corpus.filter")
    build = wrap(build, "report.build")
    dumps = wrap(dumps_report, "report.dumps")

    # The set-up is too short for the sampler; probes just before and after
    # it give its speed. Traced passes run without probes, so that no probe
    # lands in a span.
    sampler = Sampler()
    probes = [speed.probe() for _ in range(SETUP_PROBES)] if tracer is None else []

    def whole():
        # The steps of `zhstance crossval` / `zhstance test`, in the CLI's order.
        t0 = perf_counter()
        corpus = select(load(config.corpus))
        resources = resources_load(config.dictionary, config.hmm, config.table, config.stopwords)
        pipe = Pipeline(resources, config)
        train, test = split(corpus)
        t_setup = perf_counter()
        if tracer is None:
            probes.extend(speed.probe() for _ in range(SETUP_PROBES))
            sampler.start()
        t_work = perf_counter()
        result = pipe.cross_validate(train) if test is None else pipe.evaluate_test_set(train, test)
        data = dumps(build(result, config)).encode("utf-8")
        t1 = perf_counter()
        sampler.stop()
        return data, train, test, pipe, t_setup - t0, t1 - t_work - sum(sampler.times)

    data, train, test, pipe, setup_s, work_s = wrap(whole, "run")()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    accounts = train.accounts + (test.accounts if test is not None else ())
    out = {
        "wall_s": setup_s + work_s,
        "setup_s": setup_s,
        "accounts": len(accounts),
        "tweets": sum(len(a.tweets) for a in accounts),
        "peak_rss_mb": peak_rss_mb,
        "report_bytes": len(data),
        "sha256": hashlib.sha256(data).hexdigest(),
    }
    if tracer is None:
        out["ref_setup_s"] = speed.reference_s(setup_s, probes)
        out["ref_work_s"] = speed.reference_s(work_s, sampler.times or [speed.probe()])
    return out, data, lambda: {a.account_id: pipe.account_tokens(a) for a in accounts}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", metavar="PATH", help="write the span JSONL here (traced)")
    parser.add_argument("--dump", action="store_true",
                        help="write report.json and tokens.json for the output checks")
    args = parser.parse_args()
    if not Path(zhstance.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"zhstance imported from {zhstance.__file__}, not from this checkout",
              file=sys.stderr)
        return 2

    tracer = Tracer() if args.trace else None
    out, data, tokens = run(args.workload, tracer)
    if tracer is not None:
        layers = tracer.layers()
        out["layers"] = layers
        out["metrics"] = {metric: layers.get(span, {}).get("self_s", 0.0)
                          for span, metric in LAYER_METRICS.items()}
        out["metrics"].update({metric: layers.get(span, {}).get("calls", 0)
                               for span, metric in CALL_METRICS.items()})
        out["metrics"].update(tracer.totals())
        # Mean vocabulary per fitted vectorizer (one fit per fold).
        out["metrics"]["vectorize.vocab_size"] /= max(layers.get("vectorize.fit", {}).get("calls", 0), 1)
        if args.spans:
            tracer.write_jsonl(args.spans)
    if args.dump:
        Path("report.json").write_bytes(data)
        Path("tokens.json").write_text(json.dumps(tokens(), ensure_ascii=False), encoding="utf-8")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
