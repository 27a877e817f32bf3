"""Packaging promises that no behavioural test would notice breaking."""
from __future__ import annotations

import ast
import sys
from pathlib import Path

import equisynth


def test_runtime_imports_are_stdlib_only():
    # The package promises zero runtime dependencies; a third-party import
    # that happens to be installed where the tests run would go unnoticed.
    sources = sorted(Path(equisynth.__file__).parent.glob("*.py"))
    assert len(sources) >= 10
    allowed = set(sys.stdlib_module_names) | {"equisynth"}
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name} imports {name}"


def test_sources_leave_the_recursion_limit_alone():
    # The recursion limit is interpreter-wide state; the package must not
    # change it behind its caller's back.
    for path in Path(equisynth.__file__).parent.glob("*.py"):
        assert "setrecursionlimit" not in path.read_text(), path.name
