"""Span tracing from outside the program.

`install` replaces public zhstance functions, at the module attribute the
caller looks them up by, with wrappers that record a span (name, start,
end, parent) per call into an in-memory list, plus a few counters. Self
time is derived from the spans afterwards: a span's duration minus the
durations of its direct children. The hottest call, cosine similarity,
is only counted, since a span per call would cost more than the call.
"""

from __future__ import annotations

import functools
import itertools
import json
from time import perf_counter_ns

# Span name -> per-layer metric name (self time, seconds).
LAYER_METRICS = {
    "resources.load": "resources.load_s",
    "corpus.load": "corpus.load_s",
    "corpus.filter": "corpus.filter_s",
    "corpus.kfold": "corpus.kfold_s",
    "pipeline.run": "pipeline.run_s",
    "pipeline.predict": "pipeline.predict_s",
    "pipeline.tokenize": "pipeline.tokenize_s",
    "zh_convert.to_simplified": "zh_convert.to_simplified_s",
    "segmenter.segment": "segmenter.segment_s",
    "segmenter.dag": "segmenter.dag_s",
    "segmenter.route": "segmenter.route_s",
    "segmenter.hmm": "segmenter.hmm_s",
    "vectorize.fit": "vectorize.fit_s",
    "vectorize.transform": "vectorize.transform_s",
    "classify.knn": "classify.knn_s",
    "classify.top_terms": "classify.top_terms_s",
    "classify.baseline1": "classify.baseline1_s",
    "evaluate": "evaluate.s",
    "report.build": "report.build_s",
    "report.dumps": "report.dumps_s",
}

# Counters the wrappers add to; present (as 0) even when a layer never runs.
COUNTERS = ("zh_convert.chars", "segmenter.tokens", "segmenter.hmm_chars",
            "vectorize.vocab_size", "vectorize.cosine_calls")

# Span name -> call-count metric name.
CALL_METRICS = {
    "pipeline.tokenize": "pipeline.tokenize_calls",
    "pipeline.predict": "pipeline.predict_calls",
    "vectorize.transform": "vectorize.transform_calls",
    "classify.top_terms": "classify.top_terms_calls",
}


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self.counts: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self._stack = [-1]
        self._ticks: dict = {}  # name -> itertools.count().__next__ of a counted()

    def wrap(self, fn, name: str, count=None):
        """fn with a span per call; count(counts, args, result) may add counters."""
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def counted(self, fn, name: str):
        """fn(u, v) with a call counter and no span: for the hottest calls."""
        tick = self._ticks[name] = itertools.count().__next__

        def wrapper(u, v):
            tick()
            return fn(u, v)

        return functools.wraps(fn)(wrapper)

    def totals(self) -> dict[str, int]:
        """The counters, including the calls counted(); read once, at the end."""
        return {**self.counts, **{name: tick() for name, tick in self._ticks.items()}}

    def layers(self) -> dict[str, dict]:
        """Per span name: summed self time, summed duration and call count."""
        self_ns = [end - start for _, start, end, _ in self.spans]
        for i, (_, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                self_ns[parent] -= end - start
        sums: dict[str, list[int]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            layer = sums.setdefault(name, [0, 0, 0])
            layer[0] += self_ns[i]
            layer[1] += end - start
            layer[2] += 1
        return {name: {"self_s": s / 1e9, "total_s": t / 1e9, "calls": n}
                for name, (s, t, n) in sums.items()}

    def write_jsonl(self, path) -> None:
        origin = self.spans[0][1] if self.spans else 0
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start_ns": start - origin,
                                    "end_ns": end - origin, "parent": parent}) + "\n")


def _add(key: str, measure):
    def count(counts, args, result):
        counts[key] += measure(args, result)
    return count


def install(tracer: Tracer) -> None:
    """Wrap the library's layer boundaries in place. Call before the
    pipeline runs; the process is expected to exit afterwards."""
    import zhstance.classify as classify
    import zhstance.pipeline as pipeline
    import zhstance.segmenter as segmenter
    import zhstance.vectorize as vectorize

    wrap = tracer.wrap
    pipeline.to_simplified = wrap(pipeline.to_simplified, "zh_convert.to_simplified",
                                  _add("zh_convert.chars", lambda a, r: len(a[0])))
    pipeline.segment = wrap(pipeline.segment, "segmenter.segment",
                            _add("segmenter.tokens", lambda a, r: len(r)))
    segmenter.build_dag = wrap(segmenter.build_dag, "segmenter.dag")
    segmenter.max_prob_route = wrap(segmenter.max_prob_route, "segmenter.route")
    segmenter.hmm_segment = wrap(segmenter.hmm_segment, "segmenter.hmm",
                                 _add("segmenter.hmm_chars", lambda a, r: len(a[0])))
    pipeline.fit_vectorizer = wrap(pipeline.fit_vectorizer, "vectorize.fit",
                                   _add("vectorize.vocab_size", lambda a, r: len(r.document_frequency)))
    vectorize.TfidfVectorizer.transform = wrap(vectorize.TfidfVectorizer.transform,
                                               "vectorize.transform")
    classify.cosine_similarity = tracer.counted(classify.cosine_similarity, "vectorize.cosine_calls")
    pipeline.knn_predict = wrap(pipeline.knn_predict, "classify.knn")
    pipeline.top_k_terms = wrap(pipeline.top_k_terms, "classify.top_terms")
    pipeline.baseline1_predict = wrap(pipeline.baseline1_predict, "classify.baseline1")
    pipeline.kfold_splits = wrap(pipeline.kfold_splits, "corpus.kfold")
    for fn in ("confusion_matrix", "metric_report", "mean_std"):
        setattr(pipeline, fn, wrap(getattr(pipeline, fn), "evaluate"))
    pipeline.Pipeline.account_tokens = wrap(pipeline.Pipeline.account_tokens, "pipeline.tokenize")
    pipeline.Pipeline.predict = wrap(pipeline.Pipeline.predict, "pipeline.predict")
    pipeline.Pipeline.cross_validate = wrap(pipeline.Pipeline.cross_validate, "pipeline.run")
    pipeline.Pipeline.evaluate_test_set = wrap(pipeline.Pipeline.evaluate_test_set, "pipeline.run")
