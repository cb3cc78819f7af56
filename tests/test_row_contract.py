"""The row contract: no sparse row handed to the eliminator stores a zero.

`sparse_nullspace` and `_sparse_echelon` are wrapped in every `solvspin`
namespace that binds them, and the solvers are run over the CLI golden
corpus, the invariant and half-space solvers, the commutant kernel and the
lower central series.  A zero coefficient in a one-entry equation would pin
its column without a word, so this is what lets the eliminator trust its input.
"""

import importlib
import itertools
import pkgutil
import random
from fractions import Fraction

import pytest

import solvspin
from solvspin import linalg
from solvspin.cli import _IMPLS, JobSpec, main, parse_algebra_text
from solvspin.clifford import build_gammas, symmetric_commutant_kernel
from solvspin.halfspace import HalfSpaceModel, solve_killing_halfspace
from solvspin.killing import lambda_candidates, solve_invariant_killing
from solvspin.liealg import LieAlgebra, MetricLieAlgebra

from conftest import NILPOTENT_SHAPES
from test_cli import HEIS3, HEIS5_MIXED, SU2, golden_runs
from test_clifford import _oracle_spinors

F = Fraction


@pytest.fixture
def handed(monkeypatch):
    """The list of every row the guarded functions receive while the test runs."""
    rows = []
    modules = [solvspin] + [importlib.import_module("solvspin." + info.name)
                            for info in pkgutil.iter_modules(solvspin.__path__)]
    for name in ("sparse_nullspace", "_sparse_echelon"):
        original = getattr(linalg, name)

        def guarded(eqs, ncols, _original=original):
            eqs = list(eqs)
            rows.extend(eqs)
            return _original(eqs, ncols)

        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, guarded)
    return rows


def _assert_zero_free(rows):
    assert rows, "the run reached no guarded function"
    bad = [row for row in rows if any(v == 0 for v in row.values())]
    assert bad == [], "%d of %d rows store a zero, first %r" % (len(bad), len(rows), bad[0])


def test_cli_golden_corpus(handed, tmp_path, capsys):
    for argv, _ in golden_runs(tmp_path):
        assert main(argv) == 0
        capsys.readouterr()
    _assert_zero_free(handed)


def test_invariant_solver_on_halfspaces(handed):
    for n in (4, 5, 6):
        for signs in itertools.product((1, -1), repeat=n):
            model = HalfSpaceModel(n, signs, F(1, 2))
            solve_invariant_killing(model.algebra, model.clifford_rep())
    _assert_zero_free(handed)


@pytest.mark.parametrize("window", (1, 2))
def test_halfspace_solver_windows(handed, window):
    for n in (3, 4, 5):
        for signs in ((1,) * n, (1, -1) * (n // 2) + (1,) * (n % 2), (-1,) + (1,) * (n - 1)):
            model = HalfSpaceModel(n, signs, F(2, 3))
            rep = model.clifford_rep()
            for cand in lambda_candidates(model.algebra):
                solve_killing_halfspace(model, rep, cand.lam, window, window)
    _assert_zero_free(handed)


def test_commutant_kernels(handed):
    rng = random.Random("row-contract")
    for signs in (s for n in range(1, 5) for s in itertools.product((1, -1), repeat=n)):
        rep = build_gammas(signs)
        for psi in _oracle_spinors(rng, rep):
            symmetric_commutant_kernel(rep, psi)
    _assert_zero_free(handed)


# R acting on R^3 by e2 -> e3 + e4, e3 -> e2, e4 -> -e2: the bracket of e1
# with the echelon row e3 + e4 of [g, g] sums to e2 - e2, an entry that cancels
CANCELLING = "dim 4\nsigns +1 +1 +1 +1\n1 2 3 1\n1 2 4 1\n1 3 2 1\n1 4 2 -1\n"


@pytest.mark.parametrize("backend", ("exact", "float"))
def test_lower_central_series_of_named_algebras(handed, backend):
    algebras = [parse_algebra_text(text)[0] for text in (HEIS3, HEIS5_MIXED, SU2, CANCELLING)]
    for dim, slots in NILPOTENT_SHAPES:
        brackets = {}
        for (i, j), k in slots:
            brackets.setdefault((i, j), {})[k] = F(1)
        algebras.append(MetricLieAlgebra(LieAlgebra.from_brackets(dim, brackets), (1,) * dim))
    # `validate` runs the lower central series; the float backend changes only
    # how the canonical form is printed, so both hand the eliminator the same rows
    job = JobSpec("validate", (), backend=backend)
    for M in algebras:
        results, ok = _IMPLS["validate"](M, None, None, job)
        assert ok and results["lower_central_series"] is not None
    _assert_zero_free(handed)
