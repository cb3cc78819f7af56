"""Source-level rules for the package."""

import ast
import importlib
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "solvspin"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    # `python -O` strips asserts, so no check may live in one
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], "%s has assert statements at lines %s" % (path.name, lines)


def _traced_names():
    """The (module, attribute) pairs the benchmark's tracer wraps, read from its source."""
    path = SRC.parent.parent / "perfbench" / "tracing.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets):
            return sorted(ast.literal_eval(node.value).values())
    raise AssertionError("perfbench/tracing.py defines no TRACED table")


@pytest.mark.parametrize("module,attr", _traced_names(), ids=lambda x: x)
def test_traced_names_resolve(module, attr):
    # the traced benchmark run looks each name up and crashes on a missing one
    assert callable(getattr(importlib.import_module(module), attr, None)), "%s.%s" % (module, attr)
