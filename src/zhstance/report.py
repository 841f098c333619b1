"""Report assembly: canonical JSON payloads and human-readable tables.

JSON output keeps full float precision and a canonical layout (sorted
keys, no whitespace, UTF-8 text, one line) so identical runs serialize
to identical bytes. The human-readable views render from the payload dict
itself (any stored report can be re-rendered) and round to two decimals,
half up, the way the metrics are usually quoted.
"""

from __future__ import annotations

import json

from .evaluate import round_half_up
from .pipeline import AccountPrediction, CrossValResult, PipelineConfig, ScoredRun
from .textfile import check_int, check_number


class ReportError(ValueError):
    """Raised when a stored report payload is missing required fields."""


def dumps_report(payload: dict) -> str:
    """payload as one canonical line; without an indent, json encodes in C."""
    return json.dumps(payload, ensure_ascii=False, sort_keys=True, separators=(",", ":")) + "\n"


def prediction_dict(p: AccountPrediction) -> dict:
    return {
        "account_id": p.account_id,
        "label": p.label,
        "predicted": p.predicted,
        "neighbors": [
            {"account_id": nb.account_id, "label": nb.label, "similarity": nb.similarity}
            for nb in p.neighbors
        ],
        "votes": dict(p.votes),
    }


def _scored_dict(run: ScoredRun) -> dict:
    """The confusion, metrics and predictions of a fold or a test run."""
    return {"confusion": [list(row) for row in run.confusion.counts], **run.metrics,
            "predictions": [prediction_dict(p) for p in run.predictions]}


def crossval_report(result: CrossValResult, config: PipelineConfig) -> dict:
    return {
        "config": config.to_echo(),
        "label_set": list(result.label_set),
        "folds": [{"fold": n, "validation_ids": list(run.validation_ids), **_scored_dict(run)}
                  for n, run in enumerate(result.folds)],
        "aggregate": result.aggregate,
    }


def test_report(result: ScoredRun, config: PipelineConfig) -> dict:
    return {"config": config.to_echo(), "label_set": list(result.confusion.labels),
            **_scored_dict(result)}


# The readers below take a value and its key path in the report, as
# "folds.0." ("" at the top), so that each error names the path.

def _get(node, where: str, key: str):
    try:
        return node[key]
    except (KeyError, TypeError):
        raise ReportError(f"missing {where}{key}") from None


def _number(node, where: str, key: str) -> str:
    """node[key], required to be a number in [0, 1], as every score and its
    fold mean and std are; rounded half up to two decimals."""
    value = check_number(_get(node, where, key), ReportError, where + key, (0, 1))
    return f"{round_half_up(value):.2f}"


def _count(node, where: str, key: str) -> int:
    return check_int(_get(node, where, key), ReportError, where + key, 0)


def _labels(payload: dict) -> list[str]:
    """The payload's label_set, required to be a non-empty list of distinct strings."""
    labels = _get(payload, "", "label_set")
    if not (isinstance(labels, list) and labels and all(isinstance(x, str) for x in labels)):
        raise ReportError(f"label_set must be a non-empty list of strings, got {labels!r}")
    if len(set(labels)) < len(labels):
        raise ReportError(f"label_set must hold distinct labels, got {labels!r}")
    return labels


def _confusion(node, where: str, size: int) -> list[list[int]]:
    """node's confusion matrix, required to be size rows of size integers >= 0."""
    counts = _get(node, where, "confusion")
    if not (isinstance(counts, list) and len(counts) == size
            and all(isinstance(row, list) and len(row) == size for row in counts)):
        raise ReportError(f"{where}confusion must be {size} rows of {size} integers, got {counts!r}")
    for i, row in enumerate(counts):
        for j, count in enumerate(row):
            check_int(count, ReportError, f"{where}confusion.{i}.{j}", 0)
    return counts


def format_confusion(labels: list[str], counts: list[list[int]]) -> str:
    """Counts table with key labels as rows and output labels as columns."""
    header = ["Key \\ Output", *labels]
    rows = [[label, *(str(c) for c in row)] for label, row in zip(labels, counts)]
    widths = [max(len(line[i]) for line in [header, *rows]) for i in range(len(header))]
    lines = []
    for line in [header, *rows]:
        first = line[0].ljust(widths[0])
        rest = [cell.rjust(w) for cell, w in zip(line[1:], widths[1:])]
        lines.append("  ".join([first, *rest]).rstrip())
    return "\n".join(lines)


def format_test_payload(payload: dict) -> str:
    labels = _labels(payload)
    lines = [format_confusion(labels, _confusion(payload, "", len(labels))), ""]
    lines.append(f"accuracy: {_number(payload, '', 'accuracy')}")
    width = max(len("label"), *(len(x) for x in labels))
    lines.append(f"{'label'.ljust(width)}  precision  recall    f1  support")
    per_label, support = _get(payload, "", "per_label"), _get(payload, "", "support")
    for label in labels:
        m, where = _get(per_label, "per_label.", label), f"per_label.{label}."
        lines.append(
            f"{label.ljust(width)}  {_number(m, where, 'precision'):>9}  {_number(m, where, 'recall'):>6}"
            f"  {_number(m, where, 'f1'):>4}  {_count(support, 'support.', label):>7}"
        )
    return "\n".join(lines)


def format_crossval_payload(payload: dict) -> str:
    labels = _labels(payload)
    folds = _get(payload, "", "folds")
    if not isinstance(folds, list):
        raise ReportError(f"folds must be a list, got {folds!r}")
    size = len(labels)
    counts = [_confusion(f, f"folds.{n}.", size) for n, f in enumerate(folds)]
    pooled = [[sum(c[i][j] for c in counts) for j in range(size)] for i in range(size)]
    lines = [f"{len(folds)}-fold cross-validation, pooled predictions:"]
    lines.append(format_confusion(labels, pooled))
    lines.append("")
    for n, f in enumerate(folds):
        where = f"folds.{n}."
        validation_ids = _get(f, where, "validation_ids")
        if not (isinstance(validation_ids, list) and all(isinstance(x, str) for x in validation_ids)):
            raise ReportError(f"{where}validation_ids must be a list of strings, got {validation_ids!r}")
        lines.append(f"fold {_count(f, where, 'fold')}: accuracy {_number(f, where, 'accuracy')}"
                     f" ({len(validation_ids)} accounts)")
    aggregate = _get(payload, "", "aggregate")
    acc = _get(aggregate, "aggregate.", "accuracy")
    where = "aggregate.accuracy."
    lines.append(f"mean accuracy {_number(acc, where, 'mean')} (std {_number(acc, where, 'std')})")
    lines.append("")
    width = max(len("label"), *(len(x) for x in labels))
    lines.append(f"{'label'.ljust(width)}  precision  recall    f1  (fold means)")
    per_label = _get(aggregate, "aggregate.", "per_label")
    for label in labels:
        where = f"aggregate.per_label.{label}."
        scores = _get(per_label, "aggregate.per_label.", label)
        means = [_number(_get(scores, where, metric), f"{where}{metric}.", "mean")
                 for metric in ("precision", "recall", "f1")]
        lines.append(f"{label.ljust(width)}  {means[0]:>9}  {means[1]:>6}  {means[2]:>4}")
    return "\n".join(lines)


def format_payload(payload: dict) -> str:
    """Render any stored report; cross-validation payloads carry "folds"."""
    if isinstance(payload, dict) and "folds" in payload:
        return format_crossval_payload(payload)
    return format_test_payload(payload)
