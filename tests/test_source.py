"""Source-level rules for the package."""

import ast
import collections
import dataclasses
import importlib
import pathlib

import pytest

from mutants import MUTANTS

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


# every layer below the CLI computes exactly: only `cli.to_float` rounds a
# value to a double, when a float-backend report prints it
FLOAT_WORDS = ("float(", "math.sqrt", "tolerance")


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "cli.py"),
                         ids=lambda p: p.name)
def test_no_float_arithmetic_below_the_cli(path):
    text = path.read_text(encoding="utf-8")
    assert [w for w in FLOAT_WORDS if w in text] == [], path.name


# solver-path functions that read the stored entries only: the dense views
# (`LieAlgebra.structure`, `CliffordRep.gammas`) build an n^3 or n N^2 table,
# which these must not pay for, and `gamma` and `nabla` stay listed so that no
# dense Gamma table or nabla matrix comes back on that path; the Clifford
# ones read `perm`/`phase`
ENTRIES_ONLY = [
    ("liealg.py", "_koszul_numerators"),
    ("liealg.py", "levi_civita"),
    ("liealg.py", "_check_connection"),
    ("liealg.py", "ricci"),
    ("liealg.py", "curvature"),
    ("liealg.py", "lower_central_series"),
    ("liealg.py", "standard_decomposition"),
    ("liealg.py", "check_standard"),
    ("liealg.py", "restrict"),
    ("liealg.py", "ricci_standard"),
    ("liealg.py", "standard_connection_identities"),
    ("killing.py", "_connection_entries"),
    ("killing.py", "killing_operator_rows"),
    ("killing.py", "solve_invariant_killing"),
    ("killing.py", "ricci_filter"),
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


def _definitions(tree):
    """(qualified name, node) of each top-level def and class, and of each
    non-dunder method of such a class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield "%s.%s" % (node.name, item.name), item


def _names(tree) -> list:
    """Every name a tree reads: Name ids, Attribute attrs and imported names."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append(node.id)
        elif isinstance(node, ast.Attribute):
            out.append(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.extend(alias.name for alias in node.names)
    return out


def test_every_definition_has_a_caller_outside_the_tests():
    # a function only tests call is a second path beside the one the program
    # runs; the callers that count are the package itself (its re-exports in
    # __init__.py aside), the benchmark and the acceptance criteria
    root = SRC.parent.parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    outside = [*root.glob("perfbench/*.py"), root / "tests" / "test_acceptance.py"]
    named = collections.Counter(name for tree in trees.values() for name in _names(tree))
    for path in outside:
        named.update(_names(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))))
    traced = set(_traced_names())
    unused = []
    for stem, tree in trees.items():
        for qualname, node in _definitions(tree):
            if ("solvspin." + stem, qualname) in traced:
                continue
            inside = collections.Counter(_names(node))
            if named[node.name] - inside[node.name] <= 0:
                unused.append("%s.%s" % (stem, qualname))
    assert unused == [], "named only by the tests: %s" % ", ".join(unused)


# the one derivation of each algebra's geometry: every other caller reads the
# cached `MetricLieAlgebra._koszul` numerators, `.connection`, `.ricci_data`
# and `.lambda_candidates`
DERIVED_ONLY_IN = {"_koszul_numerators": "MetricLieAlgebra._koszul",
                   "levi_civita": "MetricLieAlgebra.connection", "ricci": "MetricLieAlgebra.ricci_data",
                   "killing_constants": "MetricLieAlgebra.lambda_candidates"}
# the one constructor of each value that reads its entries back, so that a
# second one, which could skip the read-back, cannot come back
BUILT_ONLY_IN = {"RicciData": "_ricci_from_numerators"}


def _calls_by_scope(node, scope=""):
    """(called name, qualified name of the enclosing def or class) of each call
    by plain name or attribute under node."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = "%s.%s" % (scope, child.name) if scope else child.name
        elif isinstance(child, ast.Call):
            func = child.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            yield name, scope
        yield from _calls_by_scope(child, inner)


def _scoped_calls(names) -> list:
    """(name, scope) of each call in src/ of one of names, sorted."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [(name, scope) for name, scope in _calls_by_scope(tree) if name in names]
    return sorted(found)


def test_geometry_is_derived_only_in_the_cached_properties():
    assert _scoped_calls(DERIVED_ONLY_IN) == sorted(DERIVED_ONLY_IN.items())


def test_ricci_data_is_built_only_in_its_read_back():
    assert _scoped_calls(BUILT_ONLY_IN) == sorted(BUILT_ONLY_IN.items())


# classes that are no frozen dataclass, each for its reason
HAND_WRITTEN = {
    # the arithmetic hot path: __slots__ and operators tuned by hand
    ("exact", "TowerScalar"),
}


def test_values_are_frozen_dataclasses():
    # every other top-level class is a frozen dataclass or an exception
    loose = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if not isinstance(node, ast.ClassDef) or (path.stem, node.name) in HAND_WRITTEN:
                continue
            cls = getattr(importlib.import_module("solvspin." + path.stem), node.name)
            frozen = dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen
            if not (frozen or issubclass(cls, Exception)):
                loose.append("%s.%s" % (path.stem, node.name))
    assert loose == [], "neither a frozen dataclass nor an exception: %s" % ", ".join(loose)


def test_each_mutant_text_occurs_once():
    # tests/mutants.py applies a mutant by replacing its old text, so a
    # refactor that moves or duplicates that text must update the table
    counts = {name: (SRC / filename).read_text(encoding="utf-8").count(old)
              for name, filename, old, _, _ in MUTANTS}
    assert all(count == 1 for count in counts.values()), counts
