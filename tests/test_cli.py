"""Tests for the command-line interface: subcommands, config resolution,
and the exit-code contract (0 success, 1 validation, 2 I/O)."""

import argparse
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zhstance
import zhstance.cli
from zhstance.cli import build_parser, main
from zhstance.pipeline import CONFIG_SCHEMA, PipelineConfig
from zhstance.resources import BUNDLED_LEXICON, BUNDLED_TABLE, bundled_path

WHEN = "2021-02-01T12:00:00Z"

# every account mentions 香港, so its IDF is 0 in any full fit
ACCOUNT_TEXTS = {
    "b0": ("统一稳定 祖国发展 香港",),
    "b1": ("统一稳定 繁荣富强 香港",),
    "b2": ("统一稳定 复兴团结 香港",),
    "d0": ("民主自由 选举人权 香港",),
    "d1": ("民主自由 法治普选 香港",),
    "d2": ("民主自由 抗争罢工 香港",),
}


def write_jsonl(path, objs):
    path.write_text("\n".join(json.dumps(o, ensure_ascii=False) for o in objs) + "\n",
                    encoding="utf-8")


def corpus_file(tmp_path, name="corpus.jsonl", when=(WHEN,)):
    lines = [{"label_set": ["Beijing", "Democracy"]}]
    for account_id, texts in ACCOUNT_TEXTS.items():
        label = "Beijing" if account_id.startswith("b") else "Democracy"
        lines.append({
            "account_id": account_id,
            "follower_count": 20000,
            "label": label,
            "tweets": [{"text": t, "timestamp": w} for t in texts for w in when],
        })
    path = tmp_path / name
    write_jsonl(path, lines)
    return path


def queries_file(tmp_path):
    path = tmp_path / "queries.jsonl"
    write_jsonl(path, [
        {"account_id": "q_beijing", "follower_count": 5, "label": None,
         "tweets": [{"text": "统一富强 繁荣爱国", "timestamp": WHEN}]},
        {"account_id": "q_democracy", "follower_count": 5, "label": None,
         "tweets": [{"text": "民主抗争 普选罢工", "timestamp": WHEN}]},
    ])
    return path


RELAXED = ["--min-followers", "0", "--min-tweets", "1"]


def feed(monkeypatch, text):
    """Give the CLI `text` on stdin, as UTF-8 bytes under a text layer."""
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(text.encode("utf-8"))))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def subparser(command) -> argparse.ArgumentParser:
    [subparsers] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return subparsers.choices[command]


class TestParsing:
    # argparse exits 2 on a usage error; main maps it to 1, keeping argparse's own lines
    def test_no_command_exits_1(self, capsys):
        code, out, err = run(capsys, )
        assert (code, out) == (1, "")
        assert err == build_parser().format_usage() + (
            "zhstance: error: the following arguments are required: COMMAND\n")

    def test_bad_int_exits_1_with_usage_and_error_lines(self, capsys):
        code, out, err = run(capsys, "crossval", "--k", "x")
        assert (code, out) == (1, "")
        assert err == subparser("crossval").format_usage() + (
            "zhstance crossval: error: argument --k: invalid int value: 'x'\n")

    def test_unknown_command_exits_1(self, capsys):
        code, _, _ = run(capsys, "bogus")
        assert code == 1

    def test_unknown_flag_exits_1(self, capsys):
        code, _, _ = run(capsys, "convert", "--bogus")
        assert code == 1

    def test_bad_choice_exits_1(self, capsys, tmp_path):
        code, _, _ = run(capsys, "crossval", "--corpus", str(corpus_file(tmp_path)),
                         "--model", "svm")
        assert code == 1


class TestConvert:
    def test_stdin_lines(self, capsys, monkeypatch):
        feed(monkeypatch, "支持臺灣\n發展\n")
        code, out, _ = run(capsys, "convert")
        assert code == 0
        assert out == "支持台湾\n发展\n"

    def test_custom_table(self, capsys, monkeypatch, tmp_path):
        table = tmp_path / "t.tsv"
        table.write_text("貓\t猫\n", encoding="utf-8")
        feed(monkeypatch, "貓發\n")
        code, out, _ = run(capsys, "convert", "--convert-table", str(table))
        assert code == 0
        assert out == "猫發\n"  # only the custom mapping applies

    def test_empty_table_path_is_a_missing_file(self, capsys, monkeypatch):
        feed(monkeypatch, "國家\n")
        code, out, err = run(capsys, "convert", "--convert-table", "")
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    def test_invalid_stdin_bytes_exit_1_naming_the_line(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO("國\n".encode() + b"\xff\xfe\n")))
        code, out, err = run(capsys, "convert")
        assert (code, out) == (1, "国\n")
        assert err.startswith("error: <stdin>: line 2: not UTF-8")


@pytest.mark.parametrize("argv, text, want", [
    (["convert"], "國家\n", "国家\n"),
    (["segment", "--dict", str(bundled_path(BUNDLED_LEXICON))], "中国人民\n", "中国 人民\n"),
], ids=["convert", "segment"])
def test_stdin_and_stdout_are_utf8_whatever_the_locale(argv, text, want):
    src = str(Path(zhstance.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONIOENCODING": "latin-1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "zhstance.cli", *argv], input=text.encode("utf-8"),
                          env=env, capture_output=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, want.encode("utf-8"), b"")


class TestSegment:
    def lexicon(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("民主 10\n自由 8\n支持 5\n", encoding="utf-8")
        return path

    def test_requires_dict(self, capsys):
        code, _, _ = run(capsys, "segment")
        assert code == 1

    def test_segments_stdin(self, capsys, monkeypatch, tmp_path):
        feed(monkeypatch, "支持民主自由 #民主 @x\n")
        code, out, _ = run(capsys, "segment", "--dict", str(self.lexicon(tmp_path)))
        assert code == 0
        assert out == "支持 民主 自由 民主\n"

    def test_no_clean(self, capsys, monkeypatch, tmp_path):
        feed(monkeypatch, "#民主\n")
        code, out, _ = run(capsys, "segment", "--dict", str(self.lexicon(tmp_path)),
                           "--no-clean")
        assert code == 0
        assert out == "# 民主\n"

    def test_missing_dict_file_exits_2(self, capsys, monkeypatch):
        feed(monkeypatch, "")
        code, _, _ = run(capsys, "segment", "--dict", "/nonexistent/lex.txt")
        assert code == 2


class TestVectorize:
    def test_jsonl_output(self, capsys, tmp_path):
        code, out, _ = run(capsys, "vectorize", "--corpus", str(corpus_file(tmp_path)),
                           *RELAXED)
        assert code == 0
        rows = [json.loads(line) for line in out.strip().split("\n")]
        assert [r["account_id"] for r in rows] == sorted(ACCOUNT_TEXTS)
        for row in rows:
            assert "香港" not in row["weights"]  # idf 0 terms never stored
        b0 = rows[0]["weights"]
        assert "统一" in b0 and "祖国" in b0

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "vectors.jsonl"
        code, out, _ = run(capsys, "vectorize", "--corpus", str(corpus_file(tmp_path)),
                           *RELAXED, "--output", str(out_path))
        assert code == 0
        assert out == ""
        assert len(out_path.read_text(encoding="utf-8").strip().split("\n")) == 6


class TestClassify:
    def test_predictions(self, capsys, tmp_path):
        code, out, _ = run(capsys, "classify", "--corpus", str(corpus_file(tmp_path)),
                           "--queries", str(queries_file(tmp_path)), *RELAXED, "--k", "3")
        assert code == 0
        rows = [json.loads(line) for line in out.strip().split("\n")]
        by_id = {r["account_id"]: r for r in rows}
        assert by_id["q_beijing"]["predicted"] == "Beijing"
        assert by_id["q_democracy"]["predicted"] == "Democracy"
        assert by_id["q_beijing"]["label"] is None
        assert len(by_id["q_beijing"]["neighbors"]) == 3

    def test_queries_survive_window_trimming(self, capsys, tmp_path):
        # a query with only out-of-window tweets still gets classified
        stale = tmp_path / "stale.jsonl"
        write_jsonl(stale, [{
            "account_id": "q_old", "follower_count": 5, "label": None,
            "tweets": [{"text": "民主", "timestamp": "2019-01-01T00:00:00Z"}],
        }])
        code, out, _ = run(capsys, "classify", "--corpus", str(corpus_file(tmp_path)),
                           "--queries", str(stale), *RELAXED, "--k", "3")
        assert code == 0
        row = json.loads(out.strip())
        assert row["account_id"] == "q_old"
        assert row["predicted"] in ("Beijing", "Democracy")

    def test_empty_queries_give_no_predictions_whatever_k(self, capsys, synthetic_corpus_path, tmp_path):
        # k is checked against the training set per scored query, so an
        # empty batch never reaches the check; no predictions write no bytes
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        argv = ["classify", "--corpus", str(synthetic_corpus_path), "--queries", str(empty),
                "--k", "1000"]
        assert run(capsys, *argv) == (0, "", "")
        out_path = tmp_path / "predictions.jsonl"
        assert run(capsys, *argv, "--output", str(out_path)) == (0, "", "")
        assert out_path.read_bytes() == b""

    def test_query_sharing_a_training_account_id_keeps_its_own_tweets(self, capsys, tmp_path):
        # b0 is a Beijing training account; the query b0 tweets like d2
        queries = tmp_path / "same_id.jsonl"
        tweets = [{"text": t, "timestamp": WHEN} for t in ACCOUNT_TEXTS["d2"]]
        write_jsonl(queries, [
            {"account_id": "b0", "follower_count": 5, "label": None, "tweets": tweets},
            {"account_id": "q0", "follower_count": 5, "label": None, "tweets": tweets},
        ])
        code, out, _ = run(capsys, "classify", "--corpus", str(corpus_file(tmp_path)),
                           "--queries", str(queries), *RELAXED, "--k", "3")
        assert code == 0
        same, fresh = (json.loads(line) for line in out.strip().split("\n"))
        assert (same["account_id"], fresh["account_id"]) == ("b0", "q0")
        assert same["predicted"] == "Democracy"
        del same["account_id"], fresh["account_id"]
        assert same == fresh

    def test_no_labeled_train_exits_1(self, capsys, tmp_path):
        unlabeled = tmp_path / "unlabeled.jsonl"
        write_jsonl(unlabeled, [{
            "account_id": "u0", "follower_count": 20000, "label": None,
            "tweets": [{"text": "民主", "timestamp": WHEN}],
        }])
        code, _, err = run(capsys, "classify", "--corpus", str(unlabeled),
                           "--queries", str(queries_file(tmp_path)), *RELAXED)
        assert code == 1
        assert "no labeled" in err


class TestCrossval:
    def test_json_to_stdout(self, capsys, tmp_path):
        code, out, _ = run(capsys, "crossval", "--corpus", str(corpus_file(tmp_path)),
                           *RELAXED, "--folds", "3", "--k", "3")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["folds"]) == 3
        assert payload["aggregate"]["accuracy"]["mean"] == 1.0
        assert payload["config"]["model"]["k"] == 3
        assert payload["config"]["folds"] == 3

    def test_output_file_plus_human_summary(self, capsys, tmp_path):
        out_path = tmp_path / "cv.json"
        code, out, _ = run(capsys, "crossval", "--corpus", str(corpus_file(tmp_path)),
                           *RELAXED, "--folds", "3", "--k", "3",
                           "--output", str(out_path))
        assert code == 0
        assert "mean accuracy 1.00" in out
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert payload["aggregate"]["accuracy"]["std"] == 0.0

    def test_held_out_ids_excluded(self, capsys, tmp_path):
        ids = tmp_path / "holdout.txt"
        ids.write_text("# held out\nb2\nd2\n", encoding="utf-8")
        # 4 accounts remain, so each fold trains on 2: k must be 1
        code, out, _ = run(capsys, "crossval", "--corpus", str(corpus_file(tmp_path)),
                           *RELAXED, "--folds", "2", "--k", "1", "--test-ids", str(ids))
        assert code == 0
        payload = json.loads(out)
        seen = {i for f in payload["folds"] for i in f["validation_ids"]}
        assert seen == {"b0", "b1", "d0", "d1"}

    def test_too_many_folds_exits_1(self, capsys, tmp_path):
        code, _, _ = run(capsys, "crossval", "--corpus", str(corpus_file(tmp_path)),
                         *RELAXED, "--folds", "7")
        assert code == 1

    def test_stopword_with_whitespace_exits_1(self, capsys, tmp_path):
        stop = tmp_path / "stop.txt"
        stop.write_text("香港\n统一 稳定\n", encoding="utf-8")
        code, _, err = run(capsys, "crossval", "--corpus", str(corpus_file(tmp_path)),
                           *RELAXED, "--folds", "3", "--k", "1", "--model", "baseline1",
                           "--stopwords", str(stop))
        assert code == 1
        assert f"{stop}: line 2:" in err


class TestTestCommand:
    def test_report_payload(self, capsys, tmp_path):
        ids = tmp_path / "test_ids.txt"
        ids.write_text("b2\nd2\n", encoding="utf-8")
        code, out, _ = run(capsys, "test", "--corpus", str(corpus_file(tmp_path)),
                           *RELAXED, "--k", "3", "--test-ids", str(ids))
        assert code == 0
        payload = json.loads(out)
        assert payload["confusion"] == [[1, 0], [0, 1]]
        assert payload["accuracy"] == 1.0
        assert [p["account_id"] for p in payload["predictions"]] == ["b2", "d2"]

    def test_requires_test_ids(self, capsys, tmp_path):
        code, _, _ = run(capsys, "test", "--corpus", str(corpus_file(tmp_path)), *RELAXED)
        assert code == 1

    def test_empty_ids_file_exits_1(self, capsys, tmp_path):
        ids = tmp_path / "empty.txt"
        ids.write_text("# nothing\n", encoding="utf-8")
        code, _, _ = run(capsys, "test", "--corpus", str(corpus_file(tmp_path)),
                         *RELAXED, "--test-ids", str(ids))
        assert code == 1

    @pytest.mark.parametrize("body, message", [
        ("b2\n# held out\n\nb2\n", "line 4: duplicate account id 'b2'"),
        ("b2\nd2 b1\n", "line 2: account id 'd2 b1' contains whitespace"),
        ("b2\nd2\tb1\n", "line 2: account id 'd2\\tb1' contains whitespace"),
    ])
    @pytest.mark.parametrize("command", ["test", "crossval"])
    def test_malformed_ids_file_exits_1_with_line(self, capsys, tmp_path, body, message, command):
        ids = tmp_path / "ids.txt"
        ids.write_text(body, encoding="utf-8")
        extra = ["--folds", "2"] if command == "crossval" else []
        code, out, err = run(capsys, command, "--corpus", str(corpus_file(tmp_path)),
                             *RELAXED, *extra, "--test-ids", str(ids))
        assert code == 1
        assert out == ""
        assert f"error: {ids}: {message}" in err

    @pytest.mark.parametrize("model", ["knn", "baseline0", "baseline1"])
    def test_every_labeled_account_held_out_exits_1(self, capsys, tmp_path, model):
        # one error for every model: none is left to fail in its own way
        ids = tmp_path / "ids.txt"
        ids.write_text("".join(f"{account_id}\n" for account_id in ACCOUNT_TEXTS), encoding="utf-8")
        code, out, err = run(capsys, "test", "--corpus", str(corpus_file(tmp_path)),
                             *RELAXED, "--model", model, "--test-ids", str(ids))
        assert (code, out) == (1, "")
        assert err == "error: no labeled training accounts\n"

    def test_unknown_id_exits_1(self, capsys, tmp_path):
        ids = tmp_path / "ids.txt"
        ids.write_text("ghost\n", encoding="utf-8")
        code, _, _ = run(capsys, "test", "--corpus", str(corpus_file(tmp_path)),
                         *RELAXED, "--test-ids", str(ids))
        assert code == 1

    def test_id_removed_by_the_filters_exits_1(self, capsys, tmp_path, synthetic_corpus_path):
        # x01 is in the corpus file, with 900 followers: below the default floor
        ids = tmp_path / "ids.txt"
        ids.write_text("x01\n", encoding="utf-8")
        code, out, err = run(capsys, "test", "--corpus", str(synthetic_corpus_path), "--test-ids", str(ids))
        assert (code, out) == (1, "")
        assert err == "error: test ids not among the accounts kept after filtering: ['x01']\n"


class TestReportCommand:
    @pytest.mark.parametrize("command", ["crossval", "test"])
    def test_renders_stored_report(self, capsys, tmp_path, command):
        # the summary a run prints beside --output is what `report` prints
        ids = tmp_path / "ids.txt"
        ids.write_text("b2\nd2\n", encoding="utf-8")
        extra = ["--folds", "3"] if command == "crossval" else ["--test-ids", str(ids)]
        out_path = tmp_path / "report.json"
        code, summary, _ = run(capsys, command, "--corpus", str(corpus_file(tmp_path)),
                               *RELAXED, "--k", "3", *extra, "--output", str(out_path))
        assert code == 0
        code, out, err = run(capsys, "report", str(out_path))
        assert (code, err) == (0, "")
        assert out == summary
        assert "Key \\ Output" in out
        assert ("3-fold cross-validation" if command == "crossval" else "accuracy: 1.00") in out

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run(capsys, "report", "/nonexistent/report.json")
        assert code == 2

    @pytest.mark.parametrize("command,path", [
        ("crossval", ("aggregate", "accuracy", "mean")),
        ("crossval", ("aggregate", "per_label", "Beijing")),
        ("crossval", ("aggregate", "per_label", "Democracy", "f1", "mean")),
        ("test", ("per_label", "Beijing", "precision")),
        ("test", ("support", "Democracy")),
    ])
    def test_missing_nested_key_exits_1(self, capsys, tmp_path, command, path):
        ids = tmp_path / "ids.txt"
        ids.write_text("b2\nd2\n", encoding="utf-8")
        extra = ["--folds", "3"] if command == "crossval" else ["--test-ids", str(ids)]
        out_path = tmp_path / "report.json"
        code, _, _ = run(capsys, command, "--corpus", str(corpus_file(tmp_path)),
                         *RELAXED, "--k", "1", *extra, "--output", str(out_path))
        assert code == 0
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        parent = payload
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
        out_path.write_text(json.dumps(payload), encoding="utf-8")
        code, _, err = run(capsys, "report", str(out_path))
        assert code == 1
        assert f"error: {out_path}: missing {'.'.join(path)}\n" == err

    @pytest.mark.parametrize("command", ["crossval", "test"])
    @pytest.mark.parametrize("confusion", [[[1]], [[1, 0], [0]], "ab", [[1, 0], [0, True]],
                                           [[1, 0], [0, 1.0]], [[1, 0], [0, 1], [0, 0]], [[1, 0], [0, -3]]])
    def test_malformed_confusion_exits_1(self, capsys, tmp_path, command, confusion):
        ids = tmp_path / "ids.txt"
        ids.write_text("b2\nd2\n", encoding="utf-8")
        extra = ["--folds", "3"] if command == "crossval" else ["--test-ids", str(ids)]
        out_path = tmp_path / "report.json"
        code, _, _ = run(capsys, command, "--corpus", str(corpus_file(tmp_path)),
                         *RELAXED, "--k", "1", *extra, "--output", str(out_path))
        assert code == 0
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        (payload["folds"][-1] if command == "crossval" else payload)["confusion"] = confusion
        out_path.write_text(json.dumps(payload), encoding="utf-8")
        code, _, err = run(capsys, "report", str(out_path))
        assert code == 1
        where = f"{out_path}: {'folds.2.' if command == 'crossval' else ''}confusion"
        if len(confusion) == 2 and all(isinstance(row, list) and len(row) == 2 for row in confusion):
            # the shape holds, so the message names the cell that is not a count
            assert f"{where}.1.1 must be an integer >= 0, got {confusion[1][1]!r}" in err
        else:
            assert f"{where} must be 2 rows of 2 integers" in err

    @pytest.mark.parametrize("command,key,value,msg", [
        ("test", "label_set", 5, "label_set must be a non-empty list of strings"),
        ("test", "label_set", None, "label_set must be a non-empty list of strings"),
        ("test", "label_set", "AB", "label_set must be a non-empty list of strings"),
        ("test", "label_set", [], "label_set must be a non-empty list of strings"),
        ("test", "label_set", ["Beijing", 1], "label_set must be a non-empty list of strings"),
        ("crossval", "label_set", 5, "label_set must be a non-empty list of strings"),
        ("crossval", "label_set", None, "label_set must be a non-empty list of strings"),
        ("crossval", "label_set", "AB", "label_set must be a non-empty list of strings"),
        ("crossval", "folds", 3, "folds must be a list"),
        ("crossval", "folds", None, "folds must be a list"),
        # a dotted key names a nested value; digits index a list
        ("test", "accuracy", "x", "accuracy must be a finite number"),
        ("test", "accuracy", True, "accuracy must be a finite number"),
        ("test", "accuracy", float("inf"), "accuracy must be a finite number"),
        ("test", "per_label.Beijing.recall", "1.0", "recall must be a finite number"),
        ("test", "support.Democracy", 1.5, "Democracy must be an integer"),
        ("crossval", "folds.0.accuracy", "x", "accuracy must be a finite number"),
        ("crossval", "folds.0.validation_ids", 3, "validation_ids must be a list"),
        ("crossval", "aggregate.accuracy.mean", False, "mean must be a finite number"),
        ("crossval", "aggregate.accuracy.std", None, "std must be a finite number"),
        ("crossval", "aggregate.per_label.Democracy.f1.mean", [1.0], "mean must be a finite number"),
        # every rendered score lies in [0, 1] and every support is >= 0
        ("test", "accuracy", 1e30, "accuracy must be a finite number in [0, 1], got 1e+30"),
        ("test", "accuracy", 1.5, "accuracy must be a finite number in [0, 1], got 1.5"),
        ("test", "accuracy", float("nan"), "accuracy must be a finite number in [0, 1], got nan"),
        ("test", "per_label.Beijing.precision", -0.1, "precision must be a finite number in [0, 1]"),
        ("test", "support.Democracy", -3, "Democracy must be an integer >= 0, got -3"),
        ("crossval", "folds.0.accuracy", 1e30, "accuracy must be a finite number in [0, 1]"),
        ("crossval", "aggregate.accuracy.std", -0.1, "std must be a finite number in [0, 1]"),
        ("crossval", "aggregate.accuracy.mean", 2, "mean must be a finite number in [0, 1]"),
    ])
    def test_malformed_label_set_or_folds_exits_1(self, capsys, tmp_path, command, key, value, msg):
        ids = tmp_path / "ids.txt"
        ids.write_text("b2\nd2\n", encoding="utf-8")
        extra = ["--folds", "3"] if command == "crossval" else ["--test-ids", str(ids)]
        out_path = tmp_path / "report.json"
        code, _, _ = run(capsys, command, "--corpus", str(corpus_file(tmp_path)),
                         *RELAXED, "--k", "1", *extra, "--output", str(out_path))
        assert code == 0
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        *parents, last = key.split(".")
        target = payload
        for part in parents:
            target = target[int(part)] if part.isdigit() else target[part]
        target[last] = value
        out_path.write_text(json.dumps(payload), encoding="utf-8")
        code, _, err = run(capsys, "report", str(out_path))
        assert code == 1
        assert err.startswith("error: ")
        assert msg in err

    def test_programming_key_error_is_not_a_user_error(self, tmp_path, monkeypatch):
        def broken(payload):
            return {}["bug"]

        report = tmp_path / "report.json"
        report.write_text("{}", encoding="utf-8")
        monkeypatch.setattr(zhstance.cli, "format_payload", broken)
        with pytest.raises(KeyError):
            main(["report", str(report)])


@pytest.mark.parametrize("body", [b"{'k': 3}", b'{"k": "\xff"}'])
@pytest.mark.parametrize("flag", ["--hmm", "--config", "report"])
def test_malformed_json_file_exits_1_naming_it(capsys, tmp_path, body, flag):
    path = tmp_path / "in.json"
    path.write_bytes(body)
    argv = (["report", str(path)] if flag == "report" else
            ["crossval", "--corpus", str(corpus_file(tmp_path)), *RELAXED, flag, str(path)])
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {path}: ")


@pytest.mark.parametrize("flag, body, key", [
    ("--hmm", '{"start": {}, "trans": {}, "emit": {"B": {}, "B": {}}}', "B"),
    ("--config", '{"model": {"k": 3, "k": 7}}', "k"),
    ("report", '{"label_set": ["Beijing"], "accuracy": 1.0, "accuracy": 0.5}', "accuracy"),
])
def test_duplicate_json_key_exits_1_naming_file_and_key(capsys, tmp_path, flag, body, key):
    path = tmp_path / "in.json"
    path.write_text(body, encoding="utf-8")
    argv = (["report", str(path)] if flag == "report" else
            ["crossval", "--corpus", str(corpus_file(tmp_path)), *RELAXED, flag, str(path)])
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {path}: duplicate key {key!r}\n"


def test_hmm_emission_key_of_two_characters_exits_1(capsys, tmp_path):
    path = tmp_path / "hmm.json"
    path.write_text('{"start": {}, "trans": {}, "emit": {"B": {"中国": -1.0}}}', encoding="utf-8")
    code, out, err = run(capsys, "crossval", "--corpus", str(corpus_file(tmp_path)), *RELAXED,
                         "--hmm", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}: emit.B: key '中国' is not one character")


def test_unknown_corpus_key_exits_1(capsys, tmp_path):
    path = corpus_file(tmp_path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[2] = lines[2].replace('"label"', '"lable"')
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "crossval", "--corpus", str(path), *RELAXED)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}: line 3: the account has unknown key(s) ['lable']")


@pytest.mark.parametrize("model", ["knn", "baseline1"])
def test_crossval_bytes_independent_of_hash_seed(synthetic_corpus_path, model):
    """Criterion 8 reruns within one interpreter; set and dict order under
    different string hash seeds only shows across processes. baseline1
    sets its query lanes and sums each training set's lanes in top-term
    set iteration order, so it is covered too."""
    src = str(Path(zhstance.__file__).resolve().parents[1])
    blobs = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-m", "zhstance.cli", "crossval", "--corpus", str(synthetic_corpus_path),
             "--model", model],
            env=env, capture_output=True, timeout=120, check=True)
        blobs.append(done.stdout)
    assert blobs[0] == blobs[1]
    assert json.loads(blobs[0])["folds"]


class TestConfigResolution:
    def test_config_file_applies(self, capsys, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "filters": {"min_followers": 0, "min_tweets": 1},
            "model": {"k": 3},
            "folds": 3,
        }), encoding="utf-8")
        code, out, _ = run(capsys, "crossval", "--corpus", str(corpus_file(tmp_path)),
                           "--config", str(cfg))
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["model"]["k"] == 3
        assert payload["config"]["folds"] == 3

    def test_flags_beat_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "filters": {"min_followers": 0, "min_tweets": 1},
            "model": {"k": 5}, "folds": 3,
        }), encoding="utf-8")
        code, out, _ = run(capsys, "crossval", "--corpus", str(corpus_file(tmp_path)),
                           "--config", str(cfg), "--k", "3")
        assert code == 0
        assert json.loads(out)["config"]["model"]["k"] == 3

    def test_corpus_path_from_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "paths": {"corpus": str(corpus_file(tmp_path))},
            "filters": {"min_followers": 0, "min_tweets": 1},
            "model": {"k": 3}, "folds": 3,
        }), encoding="utf-8")
        code, out, _ = run(capsys, "crossval", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["aggregate"]["accuracy"]["mean"] == 1.0

    def test_flags_named_apart_from_their_fields(self, capsys, tmp_path):
        lexicon, table = bundled_path(BUNDLED_LEXICON), bundled_path(BUNDLED_TABLE)
        code, out, _ = run(capsys, "crossval", "--corpus", str(corpus_file(tmp_path)), *RELAXED,
                           "--folds", "3", "--k", "3", "--no-clean",
                           "--dict", str(lexicon), "--convert-table", str(table))
        assert code == 0
        config = json.loads(out)["config"]
        assert config["paths"]["dictionary"] == str(lexicon)
        assert config["paths"]["table"] == str(table)
        assert config["clean"] is False

    def test_unknown_config_key_exits_1(self, capsys, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"mystery": 1}), encoding="utf-8")
        code, _, err = run(capsys, "crossval", "--corpus", str(corpus_file(tmp_path)),
                           "--config", str(cfg))
        assert code == 1
        assert "mystery" in err

    def test_non_object_config_exits_1(self, capsys, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text("[1, 2]", encoding="utf-8")
        code, _, err = run(capsys, "crossval", "--corpus", str(corpus_file(tmp_path)),
                           "--config", str(cfg))
        assert code == 1
        assert err == f"error: {cfg}: config must be an object\n"

    @pytest.mark.parametrize("overrides", [
        {"model": {"k": "5"}},
        {"model": {"k": 2.5}},
        {"model": {"k": True}},
        {"model": {"top_n": "25"}},
        {"folds": 3.0},
        {"seed": 1.5},
        {"seed": None},
        {"filters": {"min_followers": "0"}},
        {"filters": {"min_tweets": False}},
        {"clean": "no"},
        {"clean": 0},
        {"paths": {"stopwords": 5}},
        {"paths": {"hmm": ["hmm.json"]}},
    ])
    def test_config_value_of_wrong_type_exits_1(self, capsys, tmp_path, overrides):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(overrides), encoding="utf-8")
        code, out, err = run(capsys, "crossval", "--corpus", str(corpus_file(tmp_path)),
                             *RELAXED, "--folds", "3", "--config", str(cfg))
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        [(section, value)] = overrides.items()
        key = f"{section}.{next(iter(value))}" if isinstance(value, dict) else section
        assert err.startswith(f"error: {cfg}: {key} must be ")

    def test_missing_corpus_path_exits_1(self, capsys):
        code, _, err = run(capsys, "crossval")
        assert code == 1
        assert "corpus" in err

    def test_missing_corpus_file_exits_2(self, capsys):
        code, _, _ = run(capsys, "crossval", "--corpus", "/nonexistent/corpus.jsonl")
        assert code == 2

    def test_missing_config_file_exits_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "crossval", "--corpus", str(corpus_file(tmp_path)),
                         "--config", "/nonexistent/config.json")
        assert code == 2

    @pytest.mark.parametrize("flag", ["--dict", "--hmm", "--convert-table", "--stopwords", "--output"])
    def test_empty_path_is_a_missing_file_not_the_bundled_one(self, capsys, tmp_path, flag):
        # a run that succeeds with the bundled files, so only the empty path can fail it
        code, out, err = run(capsys, "crossval", "--corpus", str(corpus_file(tmp_path)), *RELAXED,
                             "--folds", "3", "--k", "3", flag, "")
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    def test_window_flags(self, capsys, tmp_path):
        # nothing inside a 2020 window: every account is filtered out
        code, _, _ = run(capsys, "crossval", "--corpus", str(corpus_file(tmp_path)),
                         *RELAXED, "--window-start", "2020-01-01",
                         "--window-end", "2020-12-31", "--folds", "3")
        assert code == 1

    @pytest.mark.parametrize("flag, window", [
        (("--window-end", "2021-12-31"), {"start": "2021-05-01", "end": "2021-12-31"}),
        (("--window-start", "2021-01-01"), {"start": "2021-01-01", "end": "2021-04-15"}),
    ])
    def test_window_order_is_checked_after_the_flags(self, capsys, tmp_path, flag, window):
        # the file's start is after the default end; either flag puts the window in order
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"filters": {"window": {"start": "2021-05-01"}}}), encoding="utf-8")
        corpus = corpus_file(tmp_path, when=(WHEN, "2021-06-01T12:00:00Z"))
        code, out, err = run(capsys, "crossval", "--corpus", str(corpus), *RELAXED,
                             "--folds", "3", "--k", "3", "--config", str(cfg), *flag)
        assert (code, err) == (0, "")
        assert json.loads(out)["config"]["filters"]["window"] == window

    def test_window_still_inverted_after_the_flags_exits_1(self, capsys, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"filters": {"window": {"start": "2021-05-01"}}}), encoding="utf-8")
        for flags in ((), ("--window-end", "2021-04-30")):
            code, out, err = run(capsys, "crossval", "--corpus", str(corpus_file(tmp_path)), *RELAXED,
                                 "--config", str(cfg), *flags)
            end = flags[1] if flags else "2021-04-15"
            assert (code, out, err) == (1, "", f"error: window start 2021-05-01 is after end {end}\n")

    def test_report_replays_from_its_config_echo(self, capsys, tmp_path, synthetic_corpus_path):
        code, out, _ = run(capsys, "crossval", "--corpus", str(synthetic_corpus_path),
                           "--k", "3", "--seed", "7", "--window-start", "2021-01-08")
        assert code == 0
        echo = json.loads(out)["config"]
        assert (echo["model"]["k"], echo["seed"], echo["filters"]["window"]["start"]) == (3, 7, "2021-01-08")
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(echo), encoding="utf-8")
        assert run(capsys, "crossval", "--config", str(cfg)) == (0, out, "")


@pytest.mark.parametrize("command", ["vectorize", "classify", "crossval", "test"])
def test_every_pipeline_flag_is_a_config_field(command):
    """The config is resolved from the flags whose dests are config fields,
    so a flag under any other dest would be dropped without an error."""
    dests = {action.dest for action in subparser(command)._actions}
    assert dests - {"config", "output", "queries", "test_ids", "help"} <= CONFIG_SCHEMA.keys()


@pytest.mark.parametrize("command", ["vectorize", "classify", "crossval", "test"])
def test_help_shows_the_config_defaults(command):
    """A flag's help names its field's default, so --help cannot go stale
    when a default changes; paths (None) and --no-clean name none."""
    defaults = PipelineConfig()
    fields = {name for name in CONFIG_SCHEMA if not isinstance(getattr(defaults, name), (bool, type(None)))}
    shown = set()
    for action in subparser(command)._actions:
        if action.dest in fields:
            assert action.help.endswith(f"(default {getattr(defaults, action.dest)})"), action.option_strings
            shown.add(action.dest)
    assert shown == fields - ({"folds"} if command != "crossval" else set())
