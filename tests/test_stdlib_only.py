"""The runtime is stdlib-only: every absolute import in the package names
a standard-library module."""

import ast
import sys
from pathlib import Path

import zhstance

SOURCES = sorted(Path(zhstance.__file__).parent.glob("*.py"))


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_sources_found():
    assert len(SOURCES) > 10


def test_imports_are_stdlib():
    outside = {f"{path.name}: {name}" for path in SOURCES for name in absolute_imports(path)
               if name.split(".")[0] not in sys.stdlib_module_names}
    assert not outside
