"""Shared fixtures and the acceptance summary hook.

Tests in test_acceptance.py are collected into a terminal summary that
prints one PASS/FAIL line per criterion, so the gate can be read at a
glance without scanning the full pytest report.
"""

import os
import pickle
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"

_acceptance_outcomes: dict[str, str] = {}


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def synthetic_corpus_path() -> Path:
    return FIXTURES / "synthetic_corpus.jsonl"


@pytest.fixture(scope="session")
def test_ids_path() -> Path:
    return FIXTURES / "test_ids.txt"


class SharedLog:
    """A list that this process and every child it forks append to. Each
    record is one pickle, written with one write to a file opened with
    O_APPEND, so that records from several processes never interleave."""

    def __init__(self, path: Path):
        self.path = path
        path.touch()

    def append(self, record):
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
        try:
            os.write(fd, pickle.dumps(record))
        finally:
            os.close(fd)

    def records(self) -> list:
        """Every record so far, in the order written."""
        with open(self.path, "rb") as log:
            found = []
            while log.peek(1):
                found.append(pickle.load(log))
            return found


@pytest.fixture(scope="session")
def shared_log(tmp_path_factory):
    """A function that returns a new, empty SharedLog each call."""
    return lambda: SharedLog(tmp_path_factory.mktemp("shared") / "log")


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    if report.when == "call":
        _acceptance_outcomes[name] = "PASS" if report.passed else "FAIL"
    elif report.failed:
        # setup/teardown error counts as a failed criterion
        _acceptance_outcomes[name] = "FAIL"
    elif report.skipped:
        _acceptance_outcomes.setdefault(name, "SKIP")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_acceptance_outcomes):
        terminalreporter.write_line(f"{name}: {_acceptance_outcomes[name]}")
