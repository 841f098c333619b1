"""Tests for confusion matrices, metrics, rounding, and aggregation."""

import math
import random

import pytest

from zhstance.evaluate import (
    ConfusionMatrix,
    EvaluationError,
    confusion_matrix,
    mean_std,
    metric_report,
    round_half_up,
)

# labels A, B, C; rows are keys, columns are outputs
THREE_CLASS = ConfusionMatrix(
    ("A", "B", "C"),
    ((5, 1, 0),
     (2, 3, 1),
     (0, 0, 4)),
)


class TestConfusionMatrix:
    def test_build_from_pairs(self):
        m = confusion_matrix(
            keys=["A", "A", "B", "B", "B"],
            outputs=["A", "B", "B", "B", "A"],
            label_set=("A", "B"),
        )
        assert m.counts == ((1, 1), (1, 2))
        assert m.total == 5
        assert m.trace == 3

    def test_column_order_follows_label_set(self):
        m = confusion_matrix(["B"], ["A"], label_set=("B", "A"))
        assert m.labels == ("B", "A")
        assert m.counts == ((0, 1), (0, 0))

    def test_unknown_labels_rejected(self):
        with pytest.raises(EvaluationError, match="key"):
            confusion_matrix(["Z"], ["A"], ("A",))
        with pytest.raises(EvaluationError, match="output"):
            confusion_matrix(["A"], ["Z"], ("A",))

    def test_length_mismatch_rejected(self):
        with pytest.raises(EvaluationError):
            confusion_matrix(["A"], [], ("A",))


def reference_binary_counts(m, p):
    """One-vs-rest (TP, FP, FN, TN) with the label at position p positive."""
    tp = m.counts[p][p]
    fp = sum(m.counts[i][p] for i in range(len(m.labels)) if i != p)
    fn = sum(m.counts[p][j] for j in range(len(m.labels)) if j != p)
    tn = m.total - tp - fp - fn
    return tp, fp, fn, tn


def reference_metrics(m, p):
    """Precision, recall and F1 by the one-vs-rest formulas, each 0 where
    its denominator is 0: the oracle for metric_report."""
    tp, fp, fn, _ = reference_binary_counts(m, p)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"precision": precision, "recall": recall, "f1": f1}


class TestMetrics:
    def test_values(self):
        got = metric_report(THREE_CLASS)["per_label"]["B"]
        assert got["precision"] == pytest.approx(3 / 4)
        assert got["recall"] == pytest.approx(3 / 6)
        assert got["f1"] == pytest.approx(2 * 0.75 * 0.5 / 1.25)

    def test_zero_denominators_yield_zero(self):
        # nothing predicted as X and nothing truly X
        m = ConfusionMatrix(("X", "Y"), ((0, 0), (0, 5)))
        assert metric_report(m)["per_label"]["X"] == {"precision": 0.0, "recall": 0.0, "f1": 0.0}

    def test_zero_recall_with_nonzero_precision_denominator(self):
        m = ConfusionMatrix(("X", "Y"), ((0, 3), (2, 1)))
        got = metric_report(m)["per_label"]["X"]
        assert got["precision"] == 0.0
        assert got["recall"] == 0.0
        assert got["f1"] == 0.0

    def test_bit_equal_to_one_vs_rest_oracle(self):
        rng = random.Random(20211)
        checked = 0
        while checked < 2000:
            size = rng.randint(1, 5)
            # most cells are 0, so whole rows and columns often are too
            counts = tuple(tuple(rng.choice((0, 0, 0, rng.randint(1, 9))) for _ in range(size))
                           for _ in range(size))
            m = ConfusionMatrix(tuple("ABCDE"[:size]), counts)
            if m.total == 0:
                continue
            report = metric_report(m)
            assert report["accuracy"] == m.trace / m.total
            assert report["per_label"] == {label: reference_metrics(m, p)
                                           for p, label in enumerate(m.labels)}
            assert report["support"] == {label: sum(row) for label, row in zip(m.labels, counts)}
            assert all(0.0 <= x <= 1.0 for scores in report["per_label"].values()
                       for x in (scores["precision"], scores["recall"], scores["f1"]))
            checked += 1


class TestMetricReport:
    def test_report(self):
        report = metric_report(THREE_CLASS)
        assert report["accuracy"] == pytest.approx(12 / 16)
        assert set(report["per_label"]) == {"A", "B", "C"}
        assert report["per_label"]["B"]["precision"] == pytest.approx(0.75)
        assert report["support"] == {"A": 6, "B": 6, "C": 4}

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError):
            metric_report(ConfusionMatrix(("X",), ((0,),)))


class TestRoundHalfUp:
    def test_half_rounds_up_not_to_even(self):
        assert round_half_up(0.125) == 0.13
        assert round_half_up(0.135) == 0.14

    def test_shortest_repr_is_what_rounds(self):
        # 0.705 is stored as 0.70499999... but its repr is "0.705",
        # which must round to 0.71
        assert round_half_up(0.705) == 0.71

    def test_plain_cases(self):
        assert round_half_up(0.524) == 0.52
        assert round_half_up(0.526) == 0.53
        assert round_half_up(1.0) == 1.0

    def test_negative_ties_round_away_from_zero(self):
        assert round_half_up(-0.125) == -0.13

    def test_places(self):
        assert round_half_up(2.5, places=0) == 3.0
        assert round_half_up(0.12345, places=4) == 0.1235


class TestMeanStd:
    def test_values(self):
        mean, std = mean_std([1.0, 2.0, 3.0, 4.0])
        assert mean == pytest.approx(2.5)
        assert std == pytest.approx(math.sqrt(5 / 3), abs=1e-12)

    def test_single_value(self):
        assert mean_std([0.9]) == (0.9, 0.0)

    def test_std_is_correctly_rounded(self):
        # the nearest float to the exact root; a float square root of a
        # float variance gives ...368 here
        precisions = [0.9655172413793104, 0.9646017699115044]
        assert mean_std(precisions)[1] == 0.0006473360828684369
        assert mean_std([0.25, 0.25, 0.25]) == (0.25, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError):
            mean_std([])
