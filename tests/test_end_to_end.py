"""End-to-end check against an independently derived frozen report.

The expected report for the bundled synthetic corpus was computed by a
standalone script (tools/gen_fixtures.py) that re-implements the whole
chain with dense vectors and exhaustive-search segmentation, then
hand-checked: topic terms get idf ln2, same-class similarities work out
to 52/57 and 54/57, cross-class similarities to 0. The pipeline must
reproduce it through the command-line interface: floats to 1e-9,
neighbor order exactly.
"""

import json
from pathlib import Path

import pytest

from zhstance.cli import main
from zhstance.report import dumps_report

SEMANTIC_KEYS = ("label_set", "confusion", "accuracy", "per_label", "support", "predictions")


def assert_matches(got, want, path=""):
    if isinstance(want, float) or isinstance(got, float):
        assert abs(got - want) < 1e-9, f"{path}: {got} != {want}"
    elif isinstance(want, dict):
        assert set(got) == set(want), f"{path}: keys {set(got) ^ set(want)}"
        for key in want:
            assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{path}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{path}[{i}]")
    else:
        assert got == want, f"{path}: {got!r} != {want!r}"


def test_cli_reproduces_frozen_report(capsys, tmp_path, fixtures_dir,
                                      synthetic_corpus_path, test_ids_path):
    out_path = tmp_path / "report.json"
    code = main(["test", "--corpus", str(synthetic_corpus_path),
                 "--test-ids", str(test_ids_path), "--output", str(out_path)])
    capsys.readouterr()
    assert code == 0
    got = json.loads(out_path.read_text(encoding="utf-8"))
    want = json.loads((fixtures_dir / "expected_test_report.json").read_text(encoding="utf-8"))
    for key in SEMANTIC_KEYS:
        assert_matches(got[key], want[key], key)


def test_frozen_report_neighbors_are_all_same_class(fixtures_dir):
    # the corpus was built so every test account's neighborhood is pure;
    # guard the fixture itself against accidental regeneration drift
    want = json.loads((fixtures_dir / "expected_test_report.json").read_text(encoding="utf-8"))
    assert want["accuracy"] == 1.0
    for prediction in want["predictions"]:
        classes = {nb["label"] for nb in prediction["neighbors"]}
        assert classes == {prediction["label"]}
        assert len(prediction["neighbors"]) == 5


# `zhstance report` of the frozen test report, and of a default-config
# `crossval` of the fixture corpus, byte for byte
RENDERED = {
    "test": """\
Key \\ Output  Beijing  Democracy
Beijing             2          0
Democracy           0          2

accuracy: 1.00
label      precision  recall    f1  support
Beijing         1.00    1.00  1.00        2
Democracy       1.00    1.00  1.00        2
""",
    "crossval": """\
5-fold cross-validation, pooled predictions:
Key \\ Output  Beijing  Democracy
Beijing            10          0
Democracy           0         10

fold 0: accuracy 1.00 (4 accounts)
fold 1: accuracy 1.00 (4 accounts)
fold 2: accuracy 1.00 (4 accounts)
fold 3: accuracy 1.00 (4 accounts)
fold 4: accuracy 1.00 (4 accounts)
mean accuracy 1.00 (std 0.00)

label      precision  recall    f1  (fold means)
Beijing         1.00    1.00  1.00
Democracy       1.00    1.00  1.00
""",
}


@pytest.mark.parametrize("kind", RENDERED)
def test_report_renders_exactly(capsys, tmp_path, fixtures_dir, synthetic_corpus_path, kind):
    path = fixtures_dir / "expected_test_report.json"
    if kind == "crossval":
        path = tmp_path / "report.json"
        assert main(["crossval", "--corpus", str(synthetic_corpus_path), "--output", str(path)]) == 0
        capsys.readouterr()
    assert main(["report", str(path)]) == 0
    assert capsys.readouterr() == (RENDERED[kind], "")


@pytest.mark.parametrize("kind", RENDERED)
def test_report_renders_the_same_from_either_layout(capsys, tmp_path, fixtures_dir,
                                                    synthetic_corpus_path, kind):
    # a report stored with indent=2, as reports were before the one-line
    # layout, renders as the one-line report of the same run does
    path = fixtures_dir / "expected_test_report.json"
    if kind == "crossval":
        path = tmp_path / "report.json"
        assert main(["crossval", "--corpus", str(synthetic_corpus_path)]) == 0
        path.write_text(capsys.readouterr().out, encoding="utf-8")
    payload = json.loads(path.read_text(encoding="utf-8"))
    layouts = {"compact": dumps_report(payload),
               "indented": json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2) + "\n"}
    for name, text in layouts.items():
        stored = tmp_path / f"{name}.json"
        stored.write_text(text, encoding="utf-8")
        assert main(["report", str(stored)]) == 0
        assert capsys.readouterr() == (RENDERED[kind], "")


def test_readme_library_example_runs(capsys, tmp_path, monkeypatch, synthetic_corpus_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    code = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    (tmp_path / "corpus.jsonl").write_bytes(synthetic_corpus_path.read_bytes())
    monkeypatch.chdir(tmp_path)
    names: dict = {}
    exec(code, names)
    assert len(names["corpus"].accounts) == 20
    assert names["result"].aggregate["accuracy"]["mean"] == 1.0
    assert capsys.readouterr().out == "{'mean': 1.0, 'std': 0.0}\n1.0\n"
