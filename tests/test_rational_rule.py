"""One representation per rational value: wherever the package builds a value
from parts (a read-back from integer numerators, a root, a constant), a
rational value is a Fraction, and a TowerScalar holds only a value that is
not rational.  Each test below collects the values one stage returns, on
seeded inputs, and finds no rational TowerScalar among them."""

import itertools
import random
from fractions import Fraction

from conftest import NILPOTENT_SHAPES, random_pseudo_iwasawa
from solvspin.clifford import build_gammas, two_tensor_action
from solvspin.exact import TowerScalar, sqrt_to_tower
from solvspin.halfspace import HalfSpaceModel, killing_residual, solve_killing_halfspace
from solvspin.killing import killing_operator_rows, lambda_candidates, solve_invariant_killing
from solvspin.liealg import (
    LieAlgebra,
    MetricLieAlgebra,
    curvature,
    einstein_check,
    einstein_extension,
    metric_transpose,
    nilsoliton_solve,
    ricci_standard,
    symmetric_part,
)
from solvspin.linalg import mat_sub

F = Fraction
SEED = 20261020


def _rational_towers(values) -> list:
    return [x for x in values if type(x) is TowerScalar and x.is_rational]


def _halfspaces(max_n: int):
    for n in range(2, max_n + 1):
        for signs in itertools.product((1, -1), repeat=n):
            for r in (F(1), F(1, 2), F(2, 3)):
                yield HalfSpaceModel(n, signs, r)


def _extensions():
    """(extension, decomposition, lambda) of the Einstein extension of every
    catalog shape under every signature that has one: rational scalings and
    irrational ones."""
    for M in _shapes(F(1)):
        try:
            yield einstein_extension(M)
        except ValueError:
            continue


def _shapes(c):
    """Every catalog shape under every signature, its brackets scaled by c."""
    for dim, slots in NILPOTENT_SHAPES:
        alg = LieAlgebra.from_brackets(dim, {pair: {k: c} for pair, k in slots})
        for signs in itertools.product((1, -1), repeat=dim):
            yield MetricLieAlgebra(alg, signs)


def _compact_algebras():
    """su(2) and sl(2, R) under several signatures: their invariant kernels are
    not empty, so the solver's bases hold values."""
    for c in (F(1), F(2), F(2, 3)):
        su2 = {(0, 1): {2: c}, (1, 2): {0: c}, (0, 2): {1: -c}}
        sl2 = {(0, 1): {2: c}, (1, 2): {0: -c}, (0, 2): {1: c}}
        for brackets in (su2, sl2):
            for signs in ((1, 1, 1), (1, 1, -1), (-1, 1, 1)):
                yield MetricLieAlgebra(LieAlgebra.from_brackets(3, brackets), signs)


def test_gammas():
    seen = 0
    for n in range(1, 7):
        for signs in itertools.product((1, -1), repeat=n):
            values = [x for g in build_gammas(signs).gammas for row in g for x in row]
            assert _rational_towers(values) == [], signs
            seen += sum(type(x) is Fraction for x in values)
    assert seen > 0


def test_two_tensor_action_and_operator_rows():
    rng = random.Random(SEED)
    for n in range(1, 7):
        for signs in itertools.product((1, -1), repeat=n):
            rep = build_gammas(signs)
            T = [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
            T[0][0] = T[0][0] + sqrt_to_tower(rng.choice((-1, 2, -5)))
            values = [x for row in two_tensor_action(rep, T) for x in row]
            assert _rational_towers(values) == [], signs
    for M in [m.algebra for m in _halfspaces(4)] + [ext for ext, _, _ in _extensions()]:
        rep = build_gammas(M.signs)
        for cand in lambda_candidates(M):
            try:
                rows = killing_operator_rows(M, rep, cand.lam)
            except ValueError:       # two radicands: the tower cannot hold them
                continue
            values = [x for by_row in rows for row in by_row for x in row.values()]
            assert values and _rational_towers(values) == [], (M.signs, cand.lam)


def test_lambda_and_its_root_on_every_halfspace():
    kinds = set()
    for model in _halfspaces(5):
        cands = lambda_candidates(model.algebra)
        assert len(cands) == 2
        values = [c.lam for c in cands] + [sqrt_to_tower(c.lam_squared) for c in cands]
        assert _rational_towers(values) == [], model
        kinds.add(type(cands[0].lam))
    assert kinds == {Fraction, TowerScalar}     # eps_t = -1 and eps_t = +1


def test_einstein_extension_brackets():
    kinds = set()
    for ext, _, _ in _extensions():
        values = [x for *_, x in ext.algebra.brackets]
        assert _rational_towers(values) == [], ext.signs
        kinds.update(type(x) for x in values)
    assert kinds == {Fraction, TowerScalar}


def test_geometry():
    # the connection, Ricci data, curvature and Einstein constant of every
    # catalog extension (filiform 4's included, whose brackets are in the
    # tower) and of random pseudo-Iwasawa algebras, and the Ricci data that
    # the block formulas give each of them
    rng = random.Random(SEED)
    cases = list(_extensions()) + [(*random_pseudo_iwasawa(rng), None) for _ in range(50)]
    kinds = set()
    for M, decomp, lam in cases:
        datas = (M.ricci_data, ricci_standard(M, decomp))
        assert datas[1] == datas[0], M.signs
        values = [x for *_, x in M.connection] + [x for *_, x in curvature(M)]
        for data in datas:
            values += [x for mat in (data.ric, data.operator) for row in mat for x in row] + [data.scalar]
        values += [einstein_check(M)] + ([] if lam is None else [lam])
        assert _rational_towers(values) == [], M.signs
        kinds.update(type(x) for x in values)
    assert TowerScalar in kinds and Fraction in kinds


def test_nilsoliton_and_symmetric_part():
    # lambda and D of every catalog shape with brackets scaled by 1 and by
    # sqrt 2, and the symmetric parts of D and of each ad_x - ad_x*, which is
    # metric-skew, so that its symmetric part is 0
    r3 = sqrt_to_tower(3)
    # heis3 + R, (1, 1, 1, -1), in the frame (e_1, e_2, 2 e_3 + r3 e_4,
    # r3 e_3 + 2 e_4), where D_44 = 0 = Ric_44 - lambda, its brackets scaled
    # by 1 + r3, so that Ric_44 and lambda are not rational
    boosted = MetricLieAlgebra(LieAlgebra.from_brackets(4, {(0, 1): {2: 2 + 2 * r3, 3: -3 - r3}}), (1, 1, 1, -1))
    kinds = set()
    solved = 0
    for M in [*_shapes(F(1)), *_shapes(sqrt_to_tower(2)), boosted]:
        structure, signs = M.algebra.structure, M.signs
        ads = [tuple(tuple(structure[x][j][k] for j in range(M.dim)) for k in range(M.dim)) for x in range(M.dim)]
        values = [v for ad in ads for row in symmetric_part(mat_sub(ad, metric_transpose(ad, signs)), signs)
                  for v in row]
        assert all(v == 0 for v in values)
        res = nilsoliton_solve(M)
        if res is not None:
            solved += 1
            D = res.derivation
            values += [res.lam] + [x for mat in (D, symmetric_part(D, signs)) for row in mat for x in row]
        assert _rational_towers(values) == [], (M.algebra, signs)
        kinds.update(type(x) for x in values)
    assert nilsoliton_solve(boosted).derivation[3][3] == 0
    assert solved > 0 and kinds == {Fraction, TowerScalar}


def test_invariant_solver_bases():
    rng = random.Random(SEED)
    inputs = list(_compact_algebras()) + [m.algebra for m in _halfspaces(3)]
    inputs += [random_pseudo_iwasawa(rng, 3, 1)[0] for _ in range(20)]
    nonempty = 0
    for M in inputs:
        report = solve_invariant_killing(M, build_gammas(M.signs))
        for c in report.candidates:
            values = [x for psi in c.kernel_basis for x in psi]
            assert _rational_towers(values) == [], (M, c.candidate.lam)
            nonempty += bool(c.kernel_basis)
    assert nonempty > 0


def test_halfspace_solutions_and_residual_fields():
    checked = nonzero = 0
    for model in _halfspaces(4):
        rep = model.clifford_rep()
        for cand in lambda_candidates(model.algebra):
            for sol in solve_killing_halfspace(model, rep, cand.lam, 1, 1):
                values = [x for comp in sol.components for x in comp.terms.values()]
                assert _rational_towers(values) == [], (model, cand.lam)
                # at the solution's own lambda the fields are empty; at -lambda
                # they hold the residual's read-back coefficients
                for lam in (cand.lam, -cand.lam):
                    fields = killing_residual(model, rep, sol, lam)
                    values = [x for f in fields for comp in f.components for x in comp.terms.values()]
                    assert _rational_towers(values) == [], (model, lam)
                    nonzero += len(values)
                checked += 1
    assert checked > 0 and nonzero > 0
