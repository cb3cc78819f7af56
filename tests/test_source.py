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


# solver-path functions that read the stored entries only: the dense views
# (`LieAlgebra.structure`, `Connection.gamma`, `Connection.nabla(i)`,
# `CliffordRep.gammas`) build an n^3, n^2 or n N^2 table, which these must not
# pay for; the Clifford ones read `perm`/`phase`
ENTRIES_ONLY = [
    ("liealg.py", "levi_civita"),
    ("liealg.py", "_check_connection"),
    ("liealg.py", "ricci"),
    ("liealg.py", "lower_central_series"),
    ("liealg.py", "standard_decomposition"),
    ("liealg.py", "check_standard"),
    ("liealg.py", "restrict"),
    ("liealg.py", "ricci_standard"),
    ("liealg.py", "standard_connection_identities"),
    ("killing.py", "_connection_entries"),
    ("killing.py", "killing_operator_rows"),
    ("killing.py", "solve_invariant_killing"),
    ("clifford.py", "clifford_violations"),
    ("clifford.py", "annihilator_kernel"),
    ("clifford.py", "symmetric_commutant_kernel"),
]
DENSE_VIEWS = ("structure", "gamma", "nabla", "gammas")


@pytest.mark.parametrize("filename,func", ENTRIES_ONLY, ids=lambda x: x)
def test_solver_path_reads_no_dense_view(filename, func):
    path = SRC / filename
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    defs = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == func]
    assert len(defs) == 1, "%s defines no top-level %s" % (filename, func)
    reads = sorted({(node.lineno, node.attr) for node in ast.walk(defs[0])
                    if isinstance(node, ast.Attribute) and node.attr in DENSE_VIEWS})
    assert reads == [], "%s.%s reads dense views at %s" % (filename, func, reads)
