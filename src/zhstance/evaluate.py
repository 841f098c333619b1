"""Confusion matrices and classification metrics.

Rows of a confusion matrix are key (true) labels, columns are output
(predicted) labels. A label's precision divides its diagonal count by its
column sum, and its recall by its row sum; any metric whose denominator
vanishes is defined as 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction


class EvaluationError(ValueError):
    """Raised for inconsistent labels or empty inputs."""


@dataclass(frozen=True)
class ConfusionMatrix:
    labels: tuple[str, ...]
    counts: tuple[tuple[int, ...], ...]

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.counts)

    @property
    def trace(self) -> int:
        return sum(self.counts[i][i] for i in range(len(self.labels)))


def confusion_matrix(keys: list[str], outputs: list[str], label_set) -> ConfusionMatrix:
    labels = tuple(label_set)
    if len(keys) != len(outputs):
        raise EvaluationError(f"{len(keys)} keys vs {len(outputs)} outputs")
    index = {label: i for i, label in enumerate(labels)}
    counts = [[0] * len(labels) for _ in labels]
    for key, output in zip(keys, outputs):
        if key not in index:
            raise EvaluationError(f"unknown key label {key!r}")
        if output not in index:
            raise EvaluationError(f"unknown output label {output!r}")
        counts[index[key]][index[output]] += 1
    return ConfusionMatrix(labels, tuple(tuple(row) for row in counts))


def metric_report(m: ConfusionMatrix) -> dict:
    """The metrics as a report stores them: {"accuracy", "per_label": {label:
    {"precision", "recall", "f1"}}, "support": {label: row sum}}."""
    total = m.total
    if total == 0:
        raise EvaluationError("metrics on an empty matrix")
    per_label = {}
    support = {}
    for p, label in enumerate(m.labels):
        tp = m.counts[p][p]
        predicted = sum(row[p] for row in m.counts)
        actual = support[label] = sum(m.counts[p])
        precision = tp / predicted if predicted else 0.0
        recall = tp / actual if actual else 0.0
        f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_label[label] = {"precision": precision, "recall": recall, "f1": f1}
    return {"accuracy": m.trace / total, "per_label": per_label, "support": support}


def round_half_up(value: float, places: int = 2) -> float:
    """Decimal half-up rounding as used in the human-readable reports."""
    exponent = Decimal(1).scaleb(-places)
    return float(Decimal(repr(value)).quantize(exponent, rounding=ROUND_HALF_UP))


def mean_std(values: list[float]) -> tuple[float, float]:
    """Arithmetic mean and sample standard deviation (0 for fewer than 2),
    as statistics.fmean and, from Python 3.11 on, statistics.stdev give
    them; unlike stdev's, they are the same floats on every Python."""
    if not values:
        raise EvaluationError("no values to aggregate")
    center = sum(map(Fraction, values)) / len(values)
    variance = sum((Fraction(v) - center) ** 2 for v in values) / max(len(values) - 1, 1)
    return math.fsum(values) / len(values), _sqrt(variance)


def _sqrt(x: Fraction) -> float:
    """sqrt(x >= 0) correctly rounded, as statistics.stdev takes it from 3.11
    on: the integer root of x scaled to 2 * 53 + 3 bits, rounded to odd (its
    last bit set if any bit below was), rounds to a float once, correctly."""
    shift = (x.numerator.bit_length() - x.denominator.bit_length() - 109) // 2
    scaled = x / Fraction(4) ** shift
    root = math.isqrt(int(scaled))
    root |= root * root != scaled
    return float(root * Fraction(2) ** shift)
