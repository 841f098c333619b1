"""Tests for report payload assembly and rendering."""

import json

import pytest

from zhstance.classify import Neighbor
from zhstance.evaluate import ConfusionMatrix
from zhstance.pipeline import AccountPrediction, CrossValResult, PipelineConfig, ScoredRun
from zhstance.report import (
    ReportError,
    crossval_report,
    dumps_report,
    format_confusion,
    format_payload,
    format_test_payload,
    prediction_dict,
)
from zhstance.report import test_report as build_test_report


def sample_prediction():
    return AccountPrediction(
        account_id="q1",
        label="X",
        predicted="Y",
        neighbors=(Neighbor("a1", "Y", 0.75),),
        votes={"Y": 1.0},
    )


def sample_test_result():
    matrix = ConfusionMatrix(("X", "Y"), ((1, 1), (0, 2)))
    metrics = {
        "accuracy": 0.75,
        "per_label": {"X": {"precision": 1.0, "recall": 0.5, "f1": 2 / 3},
                      "Y": {"precision": 2 / 3, "recall": 1.0, "f1": 0.8}},
        "support": {"X": 2, "Y": 2},
    }
    predictions = (sample_prediction(),)
    return ScoredRun(matrix, metrics, predictions)


class TestDumpsReport:
    def test_canonical_form(self):
        text = dumps_report({"b": 1, "a": {"d": 2, "c": [3]}})
        assert text == '{"a":{"c":[3],"d":2},"b":1}\n'

    @pytest.mark.parametrize("kind", ["crossval", "test"])
    def test_report_is_one_line_and_round_trips(self, kind):
        result = sample_test_result()
        payload = (crossval_report(CrossValResult(("X", "Y"), (result, result), {}), PipelineConfig())
                   if kind == "crossval" else build_test_report(result, PipelineConfig()))
        text = dumps_report(payload)
        assert text.count("\n") == 1 and text.endswith("\n")
        assert dumps_report(json.loads(text)) == text

    def test_utf8_not_escaped(self):
        assert "民主" in dumps_report({"term": "民主"})

    def test_identical_payloads_identical_bytes(self):
        a = {"x": 0.1 + 0.2, "labels": ["民主"]}
        b = {"labels": ["民主"], "x": 0.1 + 0.2}
        assert dumps_report(a).encode() == dumps_report(b).encode()


def test_prediction_dict():
    assert prediction_dict(sample_prediction()) == {
        "account_id": "q1",
        "label": "X",
        "predicted": "Y",
        "neighbors": [{"account_id": "a1", "label": "Y", "similarity": 0.75}],
        "votes": {"Y": 1.0},
    }


class TestTestReport:
    def test_payload(self):
        payload = build_test_report(sample_test_result(), PipelineConfig(corpus="c.jsonl"))
        assert payload["label_set"] == ["X", "Y"]
        assert payload["confusion"] == [[1, 1], [0, 2]]
        assert payload["accuracy"] == 0.75
        assert payload["per_label"]["Y"]["f1"] == 0.8
        assert payload["support"] == {"X": 2, "Y": 2}
        assert payload["predictions"][0]["account_id"] == "q1"
        assert payload["config"]["paths"]["corpus"] == "c.jsonl"
        assert payload["config"]["model"]["kind"] == "knn"

    def test_payload_is_json_serializable(self):
        payload = build_test_report(sample_test_result(), PipelineConfig())
        assert json.loads(dumps_report(payload))["accuracy"] == 0.75


class TestCrossvalReport:
    def test_payload(self):
        cv = CrossValResult(("X", "Y"), (sample_test_result(), sample_test_result()),
                            {"accuracy": {"mean": 0.75, "std": 0.0}, "per_label": {}})
        payload = crossval_report(cv, PipelineConfig())
        assert [f["fold"] for f in payload["folds"]] == [0, 1]
        assert payload["folds"][1]["validation_ids"] == ["q1"]  # the fold's predictions' ids
        assert payload["folds"][0]["confusion"] == [[1, 1], [0, 2]]
        assert payload["aggregate"]["accuracy"]["mean"] == 0.75


class TestFormatConfusion:
    def test_table(self):
        text = format_confusion(["X", "Y"], [[10, 2], [0, 134]])
        lines = text.split("\n")
        assert lines[0].split() == ["Key", "\\", "Output", "X", "Y"]
        assert lines[1].split() == ["X", "10", "2"]
        assert lines[2].split() == ["Y", "0", "134"]
        # columns line up: every row ends at the same width or less
        assert len(set(len(line) for line in lines)) <= 2


class TestFormatPayload:
    def test_test_payload_rendering(self):
        payload = build_test_report(sample_test_result(), PipelineConfig())
        text = format_payload(payload)
        assert "accuracy: 0.75" in text
        assert "Key \\ Output" in text
        assert "label" in text and "precision" in text
        # 2/3 rounds half-up at 2 decimals
        assert "0.67" in text

    def test_crossval_payload_rendering(self):
        agg = {
            "accuracy": {"mean": 0.755, "std": 0.005},
            "per_label": {
                "X": {"precision": {"mean": 1.0, "std": 0.0},
                      "recall": {"mean": 0.5, "std": 0.0},
                      "f1": {"mean": 2 / 3, "std": 0.0}},
                "Y": {"precision": {"mean": 2 / 3, "std": 0.0},
                      "recall": {"mean": 1.0, "std": 0.0},
                      "f1": {"mean": 0.8, "std": 0.0}},
            },
        }
        payload = crossval_report(CrossValResult(("X", "Y"), (sample_test_result(),), agg), PipelineConfig())
        text = format_payload(payload)
        assert "1-fold cross-validation" in text
        assert "fold 0: accuracy 0.75 (1 accounts)" in text
        assert "mean accuracy 0.76 (std 0.01)" in text  # half-up at 2 decimals

    def test_rendering_from_parsed_json(self):
        # a stored report can be re-rendered after a JSON round-trip
        payload = build_test_report(sample_test_result(), PipelineConfig())
        parsed = json.loads(dumps_report(payload))
        assert format_payload(parsed) == format_payload(payload)

    def test_missing_fields_raise(self):
        with pytest.raises(ReportError):
            format_test_payload({"label_set": ["X"]})
        with pytest.raises(ReportError):
            format_payload({"folds": [], "label_set": ["X"]})
