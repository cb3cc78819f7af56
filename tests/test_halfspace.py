"""Coordinate spinor fields on the hyperbolic half-space and the exact solver."""

import copy
import itertools
import json
import math
import pickle
import re
import time
from fractions import Fraction

import pytest

import solvspin.exact
import solvspin.halfspace
import solvspin.killing
import solvspin.liealg
from solvspin.cli import main
from solvspin.clifford import MAX_UNKNOWNS, build_gammas, gamma_rows
from solvspin.exact import TS_I, IncompatibleExtensionError, TowerScalar, from_numerators, sqrt_to_tower
from solvspin.linalg import add_scaled
from solvspin.killing import killing_operator_rows, lambda_candidates, solve_invariant_killing
from solvspin.liealg import MetricLieAlgebra, curvature, einstein_extension, levi_civita, ricci
from solvspin.halfspace import (
    CoordFunction,
    CoordSpinorField,
    HalfSpaceModel,
    killing_residual,
    parse_halfspace_spec,
    solve_killing_halfspace,
    verify_amended_identity,
)
from conftest import heisenberg3
from reference_liealg import densify_curvature
from reference_halfspace import (
    amended_identity_three_term,
    frame_derivative,
    killing_residual_tower,
    monomials,
    verify_amended_identity_tower,
    window_equations_per_entry,
    window_solutions,
)

F = Fraction


class TestModel:
    def test_constant_sectional_curvature(self):
        # R(x,y)z = -(eps_t/r^2)(g(y,z) x - g(x,z) y) exactly; the sign of the
        # t-direction decides hyperbolic vs positively curved, matching
        # lambda^2 = -eps_t/(4 r^2)
        for signs, r in [((1, 1, 1), F(1)), ((1, -1, 1), F(2)), ((1, 1, -1), F(1, 2))]:
            model = HalfSpaceModel(3, signs, r)
            M = model.algebra
            n = 3
            R = densify_curvature(curvature(M), n)
            c = F(-signs[-1]) / (r * r)
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        for m in range(n):
                            want = F(0)
                            if m == i:
                                want += c * (signs[j] if j == k else 0)
                            if m == j:
                                want -= c * (signs[i] if i == k else 0)
                            assert R[i][j][k][m] == want

    def test_einstein_constant(self):
        model = HalfSpaceModel(4, (1, 1, 1, 1), F(1))
        data = ricci(model.algebra)
        assert data.scalar == F(-12)  # -n(n-1)/r^2

    def test_parse_spec(self):
        model = parse_halfspace_spec("halfspace n=4 r=1/2 signs=+1,+1,-1,+1")
        assert model.n == 4 and model.r == F(1, 2) and model.signs == (1, 1, -1, 1)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_halfspace_spec("halfspace n=4")
        with pytest.raises(ValueError):
            parse_halfspace_spec("ellipsoid n=4 r=1 signs=+1")
        with pytest.raises(ValueError, match="zero denominator"):
            parse_halfspace_spec("halfspace n=3 r=1/0 signs=1,1,1")

    def test_parse_errors_name_the_key(self):
        # these used to surface int()'s own message, which names neither key
        for spec, text in (("halfspace n=x r=1 signs=1,1,1", "n=x"),
                           ("halfspace n=3 r=1 signs=", "signs="),
                           ("halfspace n=3 r=1 signs=1,,1", "signs=1,,1"),
                           ("halfspace n=3 r=1 signs=1,+,1", "signs=1,+,1")):
            with pytest.raises(ValueError, match="spec %s: .* is not an integer" % re.escape(text)):
                parse_halfspace_spec(spec)

    def test_parse_rejects_unknown_and_repeated_keys(self):
        # both used to parse: the unknown key was dropped, the later r won
        with pytest.raises(ValueError, match="unknown key 'extra'"):
            parse_halfspace_spec("halfspace n=2 r=1 signs=1,1 extra=3")
        with pytest.raises(ValueError, match="repeats key 'r'"):
            parse_halfspace_spec("halfspace n=2 r=1 signs=1,1 r=2")

    def test_bad_sign_is_refused_by_name(self):
        # a bad t-direction sign used to surface as "eps0 must be +-1", a bad
        # x-sign as "signature entries must be +-1"
        for signs in ((1, 2), (2, 1), (1, 0), (-1, -2)):
            with pytest.raises(ValueError, match="^signs must each be"):
                HalfSpaceModel(2, signs, F(1))

    def test_model_is_read_only(self):
        model = HalfSpaceModel(3, (1, 1, 1), F(1))
        M = model.algebra
        conn, data = M.connection, M.ricci_data
        for obj, name, value in ((model, "r", F(2)), (model, "signs", (1, 1, -1)),
                                 (model, "algebra", None), (M, "connection", None),
                                 (M, "ricci_data", None)):
            with pytest.raises(AttributeError):
                setattr(obj, name, value)
        assert model.r == F(1) and model.signs == (1, 1, 1) and model.algebra is M
        assert M.connection is conn and conn == levi_civita(M)
        assert M.ricci_data is data and data == ricci(M)

    def test_one_levi_civita_per_model(self, monkeypatch):
        # solve both lambda branches in two windows and check every solution:
        # the connection is computed once, on first use
        model = HalfSpaceModel(4, (1, -1, 1, 1), F(2, 3))
        rep = model.clifford_rep()
        calls = []

        def counted(M):
            calls.append(M)
            return levi_civita(M)

        monkeypatch.setattr(solvspin.liealg, "levi_civita", counted)
        lams = [c.lam for c in lambda_candidates(model.algebra)]
        found = 0
        for lam in lams:
            for window in (1, 2):
                sols = solve_killing_halfspace(model, rep, lam, window, window)
                found += len(sols)
                for psi in sols:
                    assert all(r.is_zero for r in killing_residual(model, rep, psi, lam))
                    assert verify_amended_identity(model, rep, psi, lam)
        assert found > 0
        assert calls == [model.algebra]

    def test_one_levi_civita_per_cli_run(self, monkeypatch, capsys):
        # the lambda candidates and both branches' rows read the one connection
        calls = []
        real = solvspin.liealg.levi_civita

        def counted(M):
            calls.append(M)
            return real(M)

        for module in (solvspin.liealg, solvspin.killing, solvspin.halfspace, solvspin.cli):
            if getattr(module, "levi_civita", None) is real:
                monkeypatch.setattr(module, "levi_civita", counted)
        assert main(["killing-halfspace", "halfspace n=4 r=2/3 signs=+1,-1,+1,+1", "--json"]) == 0
        branches = json.loads(capsys.readouterr().out)["results"]["branches"]
        assert len(branches) == 2 and all(b["dimension"] > 0 for b in branches)
        assert len(calls) == 1

    def test_each_branch_is_built_once(self, monkeypatch):
        # the solve in two windows and the residual of every solution, on both
        # lambda branches, read one branch per (rep, lambda), built from one
        # call of killing_operator_rows
        model = HalfSpaceModel(4, (1, -1, 1, 1), F(2, 3))
        rep = model.clifford_rep()
        lams = [c.lam for c in lambda_candidates(model.algebra)]
        built = []

        def counted(M, rep, lam):
            built.append(lam)
            return killing_operator_rows(M, rep, lam)

        monkeypatch.setattr(solvspin.halfspace, "killing_operator_rows", counted)
        residuals = 0
        for lam in lams:
            for window in (1, 2):
                sols = solve_killing_halfspace(model, rep, lam, window, window)
                for psi in sols:
                    assert all(r.is_zero for r in killing_residual(model, rep, psi, lam))
                    residuals += 1
        assert residuals > len(lams) * 2
        assert built == lams
        # a rep equal to the first shares the branch and its spinors
        assert model.killing_spinors(model.clifford_rep(), lams[0]) is model.killing_spinors(rep, lams[0])
        assert built == lams
        assert set(model._branches) == {(rep, lam) for lam in lams}

    def test_a_refused_representation_builds_no_branch(self):
        model = HalfSpaceModel(3, (1, 1, 1), F(1))
        rep = build_gammas((1, -1, 1))
        psi = CoordSpinorField((CoordFunction(),) * rep.spinor_dim)
        for lam in (lambda_candidates(model.algebra)[0].lam, TowerScalar.rational(F(1, 2))):
            with pytest.raises(ValueError, match="representation signature"):
                model.killing_spinors(rep, lam)
            with pytest.raises(ValueError, match="representation signature"):
                killing_residual(model, rep, psi, lam)
        assert model._branches == {}

    def test_a_branch_off_the_einstein_value_holds_no_spinors(self):
        model = HalfSpaceModel(4, (1, -1, 1, 1), F(2, 3))
        rep = model.clifford_rep()
        for lam in (TowerScalar.rational(F(1, 2)), TowerScalar(0, F(1, 3))):
            assert solve_killing_halfspace(model, rep, lam, 2, 2) == []
            columns, q, m, spinors, _ = model._branch(rep, lam)
            assert spinors == [] and len(columns) == model.n and q > 0
        assert model._branches == {}

    def test_parse_rejects_exponent_radius(self):
        # Fraction would expand 1e4000000 in full before anything else ran
        for r in ("1e4000000", "2E-3"):
            started = time.perf_counter()
            with pytest.raises(ValueError, match="r=%s" % r):
                parse_halfspace_spec("halfspace n=3 r=%s signs=1,1,1" % r)
            assert time.perf_counter() - started < 0.5

    def test_exponent_radius_exits_one(self, capsys):
        started = time.perf_counter()
        assert main(["classify", "halfspace n=3 r=1e4000000 signs=1,1,1", "--json"]) == 1
        assert time.perf_counter() - started < 1.0
        data = json.loads(capsys.readouterr().out)
        assert "r=1e4000000" in data["error"]
        assert "error_type" not in data and "results" not in data


class TestFrameDerivative:
    def setup_method(self):
        self.model = HalfSpaceModel(2, (1, 1), F(1))

    def test_t_direction_is_diagonal(self):
        f = CoordFunction({(1, (0,)): F(1)})
        got = frame_derivative(self.model, f, 1)
        assert got == CoordFunction({(1, (0,)): F(1, 2)})

    def test_x_direction_shifts(self):
        f = CoordFunction({(0, (1,)): F(1)})
        got = frame_derivative(self.model, f, 0)
        assert got == CoordFunction({(2, (0,)): F(1)})

    def test_x_direction_kills_pure_t(self):
        f = CoordFunction({(3, (0,)): F(1)})
        assert frame_derivative(self.model, f, 0).is_zero

    def test_r_scaling(self):
        model = HalfSpaceModel(2, (1, 1), F(1, 2))
        f = CoordFunction({(1, (0,)): F(1)})
        assert frame_derivative(model, f, 1) == CoordFunction({(1, (0,)): F(1)})

    def test_closure_in_lattice(self):
        # derivations stay inside t^(k/2) x^m
        model = HalfSpaceModel(3, (1, 1, 1), F(2))
        f = CoordFunction({(1, (2, 1)): F(3), (-2, (0, 1)): F(1, 3)})
        for d in range(3):
            out = frame_derivative(model, f, d)
            for (k, m) in out.terms:
                assert isinstance(k, int)
                assert all(e >= 0 for e in m)


class TestValues:
    def test_fields_of_different_lengths_differ(self):
        # the old equality zipped the components, so these compared equal
        f, g = CoordFunction({(1, (0,)): F(1)}), CoordFunction({(-1, (1,)): F(2)})
        assert CoordSpinorField((f,)) != CoordSpinorField((f, g))
        assert CoordSpinorField((f, g)) == CoordSpinorField((CoordFunction(dict(f.terms)), g))
        assert CoordSpinorField((f, g)) != CoordSpinorField((g, f))

    def test_models_compare_by_value(self):
        model = HalfSpaceModel(3, (1, 1, -1), F(1, 2))
        same = HalfSpaceModel(3, [1, 1, -1], Fraction(1, 2))
        assert model == same and hash(model) == hash(same)
        assert same.signs == (1, 1, -1) and type(same.r) is Fraction
        assert model != HalfSpaceModel(3, (1, 1, -1), F(1))
        assert model != HalfSpaceModel(3, (1, -1, -1), F(1, 2))
        assert repr(model) == "HalfSpaceModel(n=3, signs=(1, 1, -1), r=1/2)"


class TestResidual:
    def test_zero_field(self):
        model = HalfSpaceModel(2, (1, 1), F(1))
        rep = model.clifford_rep()
        psi = CoordSpinorField(tuple(CoordFunction() for _ in range(rep.spinor_dim)))
        lam = lambda_candidates(model.algebra)[0].lam
        assert all(r.is_zero for r in killing_residual(model, rep, psi, lam))

    def test_half_power_solution_and_sign_pairing(self):
        # the single-monomial solutions sit at t^(-1/2): the t-equation pairs
        # the exponent with a gamma_t eigenvector via gamma_t u = (k/(2 r lam)) u,
        # and the x-equation is then satisfied with no companion term
        model = HalfSpaceModel(2, (1, 1), F(1))
        rep = model.clifford_rep()
        lam_minus = TowerScalar(0, F(-1, 2))
        # for lambda = -i/2, k = -1: gamma_t u = -i u, i.e. u = (1, -1)
        g = rep.gammas[1]
        u = [F(1), -F(1)]
        img = [g[0][0] * u[0] + g[0][1] * u[1], g[1][0] * u[0] + g[1][1] * u[1]]
        assert img == [-TS_I, TS_I]  # == -i u
        psi = CoordSpinorField((CoordFunction({(-1, (0,)): u[0]}),
                                CoordFunction({(-1, (0,)): u[1]})))
        res = killing_residual(model, rep, psi, lam_minus)
        assert all(r.is_zero for r in res)
        # the opposite lambda leaves a nonzero t-direction residual
        res_bad = killing_residual(model, rep, psi, -lam_minus)
        assert not res_bad[1].is_zero
        # a t^(1/2) monomial alone cannot solve: the x-equation forces an
        # x-linear companion at t^(-1/2)
        v = [F(1), F(1)]
        psi_plus = CoordSpinorField((CoordFunction({(1, (0,)): v[0]}),
                                     CoordFunction({(1, (0,)): v[1]})))
        res_half = killing_residual(model, rep, psi_plus, lam_minus)
        assert res_half[1].is_zero and not res_half[0].is_zero

    def test_invariant_nonzero_field_fails(self):
        model = HalfSpaceModel(2, (1, 1), F(1))
        rep = model.clifford_rep()
        psi = CoordSpinorField((CoordFunction({(0, (0,)): F(1)}),
                                CoordFunction({(0, (0,)): F(1)})))
        lam = lambda_candidates(model.algebra)[0].lam
        res = killing_residual(model, rep, psi, lam)
        assert any(not r.is_zero for r in res)


class TestSolver:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_riemannian_dimensions_and_residuals(self, n):
        model = HalfSpaceModel(n, (1,) * n, F(1))
        rep = model.clifford_rep()
        N = rep.spinor_dim
        total = 0
        for cand in lambda_candidates(model.algebra):
            sols = solve_killing_halfspace(model, rep, cand.lam, 1, 1)
            total += len(sols)
            for psi in sols:
                assert all(r.is_zero for r in killing_residual(model, rep, psi, cand.lam))
                assert verify_amended_identity(model, rep, psi, cand.lam)
        assert total >= N

    def test_saturation(self):
        model = HalfSpaceModel(3, (1, 1, 1), F(1, 2))
        rep = model.clifford_rep()
        for cand in lambda_candidates(model.algebra):
            d1 = len(solve_killing_halfspace(model, rep, cand.lam, 1, 1))
            d2 = len(solve_killing_halfspace(model, rep, cand.lam, 2, 2))
            assert d1 == d2

    def test_negative_window_bound_rejected(self):
        model = HalfSpaceModel(3, (1, 1, 1), F(1))
        rep = model.clifford_rep()
        lam = lambda_candidates(model.algebra)[0].lam
        with pytest.raises(ValueError, match="kmax = -1"):
            solve_killing_halfspace(model, rep, lam, -1, 1)
        with pytest.raises(ValueError, match="mmax = -2"):
            solve_killing_halfspace(model, rep, lam, 1, -2)

    def test_a_window_of_a_billion_unknowns_answers_like_the_small_one(self):
        # the solve reduces the branch's N spinors whatever the window, so a
        # window of (2 * 100000 + 1) * C(102, 100) * 2 monomial unknowns, about
        # 1e9, gives the basis of (1, 1), which already holds every spinor
        model = HalfSpaceModel(3, (1, 1, 1), F(1))
        rep = model.clifford_rep()
        for cand in lambda_candidates(model.algebra):
            want = solve_killing_halfspace(model, rep, cand.lam, 1, 1)
            started = time.perf_counter()
            got = solve_killing_halfspace(model, rep, cand.lam, 100000, 100)
            assert time.perf_counter() - started < 0.5
            assert len(got) == len(want) == 2 and got == want
            # with mmax = 0 a window has (2 kmax + 1) * 2 unknowns
            kmax = MAX_UNKNOWNS // 4
            assert solve_killing_halfspace(model, rep, cand.lam, kmax, 0) == \
                solve_killing_halfspace(model, rep, cand.lam, 1, 0)

    def test_wrong_lambda_gives_nothing(self):
        model = HalfSpaceModel(2, (1, 1), F(1))
        rep = model.clifford_rep()
        assert solve_killing_halfspace(model, rep, TowerScalar.rational(F(1, 2)), 1, 1) == []

    def test_representation_of_another_signature_is_refused(self):
        # at a lambda off the Einstein value the solve builds nothing, so
        # without the check it would return [] for any representation
        model = HalfSpaceModel(3, (1, 1, 1), F(1))
        rep = build_gammas((1, 1, -1))
        einstein = lambda_candidates(model.algebra)[0].lam
        for lam in (einstein, TowerScalar.rational(F(1, 2))):
            with pytest.raises(ValueError, match="representation signature"):
                solve_killing_halfspace(model, rep, lam, 1, 1)
            # the model's own spinors check the signature before the lambda^2 test
            with pytest.raises(ValueError, match="representation signature"):
                model.killing_spinors(rep, lam)
            # the solve names the signature before it reads the window
            with pytest.raises(ValueError, match="representation signature"):
                solve_killing_halfspace(model, rep, lam, MAX_UNKNOWNS, 0)
        with pytest.raises(ValueError, match="representation signature"):
            model.killing_spinors(rep, F(1, 2))

    def test_solutions_are_normalized(self):
        model = HalfSpaceModel(2, (1, 1), F(1))
        rep = model.clifford_rep()
        lam = lambda_candidates(model.algebra)[0].lam
        for psi in solve_killing_halfspace(model, rep, lam, 1, 1):
            coeffs = []
            for comp in psi.components:
                coeffs.extend(c for _, c in comp.sorted_terms())
            leads = [c for c in coeffs if not c == 0]
            assert leads  # nonzero
        # bases are deterministic across runs
        a = solve_killing_halfspace(model, rep, lam, 1, 1)
        b = solve_killing_halfspace(model, rep, lam, 1, 1)
        assert all(x == y for x, y in zip(a, b))

    def test_indefinite_signature_solves(self):
        model = HalfSpaceModel(3, (1, -1, 1), F(1))
        rep = model.clifford_rep()
        total = 0
        for cand in lambda_candidates(model.algebra):
            sols = solve_killing_halfspace(model, rep, cand.lam, 1, 1)
            for psi in sols:
                assert all(r.is_zero for r in killing_residual(model, rep, psi, cand.lam))
            total += len(sols)
        assert total >= rep.spinor_dim


def _as_json(fields):
    return [psi.to_json_dict() for psi in fields]


class TestWindowAssembly:
    def test_construction_matches_window_elimination(self):
        # every signature with n <= 5, both branches and three wrong lambdas:
        # the basis built from the fiber and filtered to the window is the one
        # that eliminating the window's own equations gives
        wrong = (TowerScalar.rational(0), TowerScalar.rational(F(1, 3)), TowerScalar(0, F(1, 3)))
        found = 0
        for n in range(2, 6):
            for signs in itertools.product((1, -1), repeat=n):
                for r in (F(1), F(2, 3)):
                    model = HalfSpaceModel(n, signs, r)
                    rep = model.clifford_rep()
                    lams = [cand.lam for cand in lambda_candidates(model.algebra)]
                    for lam in lams + list(wrong):
                        for kmax, mmax in ((0, 0), (0, 1), (1, 0), (1, 1)):
                            got = solve_killing_halfspace(model, rep, lam, kmax, mmax)
                            assert _as_json(got) == _as_json(window_solutions(model, rep, lam, kmax, mmax))
                            found += len(got)
                    for lam in lams:
                        assert len(model.killing_spinors(rep, lam)) == rep.spinor_dim
        assert found

    def test_windows_that_cut_spinors_match_window_elimination(self):
        # the spinors reach |k| = 1 and |m| = 1, so with one bound past them
        # (2, 0) cuts their x-terms, (0, 2) cuts every spinor and (1, 2) and
        # (2, 1) cut none: every signature with n <= 4 at both Einstein lambdas
        emptied = cut = whole = 0
        for n in range(2, 5):
            for signs in itertools.product((1, -1), repeat=n):
                for r in (F(1), F(2, 3)):
                    model = HalfSpaceModel(n, signs, r)
                    rep = model.clifford_rep()
                    for cand in lambda_candidates(model.algebra):
                        for kmax, mmax in ((2, 0), (0, 2), (1, 2), (2, 1)):
                            got = solve_killing_halfspace(model, rep, cand.lam, kmax, mmax)
                            assert _as_json(got) == _as_json(window_solutions(model, rep, cand.lam, kmax, mmax))
                            emptied += not got
                            cut += 0 < len(got) < rep.spinor_dim
                            whole += len(got) == rep.spinor_dim
        assert emptied and cut and whole

    def test_each_branch_holds_its_reduced_normalized_basis(self):
        # every signature with n <= 4 at both Einstein lambdas: the branch's
        # basis is 1 at each vector's lowest key and 0 at every other
        # vector's highest key, and it is the basis that eliminating the
        # window k = m = 1, which holds every spinor, gives
        for n in range(2, 5):
            for signs in itertools.product((1, -1), repeat=n):
                for r in (F(1), F(2, 3)):
                    model = HalfSpaceModel(n, signs, r)
                    rep = model.clifford_rep()
                    for cand in lambda_candidates(model.algebra):
                        basis = model.killing_spinors(rep, cand.lam)
                        assert len(basis) == rep.spinor_dim
                        pivots = [max(vec) for vec in basis]
                        assert pivots == sorted(pivots)
                        for vec in basis:
                            assert vec[min(vec)] == 1
                            assert all(p not in vec for p in pivots if p != max(vec))
                        oracle = window_solutions(model, rep, cand.lam, 1, 1)
                        assert basis == [{(mono, h): c for h, comp in enumerate(psi.components)
                                          for mono, c in comp.terms.items()} for psi in oracle]

    def test_each_solve_builds_new_fields(self):
        # two solves of one window are equal and share no field, so a
        # solution's numerators, once read, are not carried to the next call
        for n in range(2, 5):
            for signs in itertools.product((1, -1), repeat=n):
                for r in (F(1), F(2, 3)):
                    model = HalfSpaceModel(n, signs, r)
                    rep = model.clifford_rep()
                    for cand in lambda_candidates(model.algebra):
                        for kmax, mmax in ((1, 1), (2, 0)):
                            first = solve_killing_halfspace(model, rep, cand.lam, kmax, mmax)
                            for psi in first:
                                assert verify_amended_identity(model, rep, psi, cand.lam)
                            second = solve_killing_halfspace(model, rep, cand.lam, kmax, mmax)
                            assert first == second
                            assert not {id(psi) for psi in first} & {id(psi) for psi in second}
                            assert not any("numerators" in vars(psi) for psi in second)

    def test_a_window_holding_every_spinor_does_no_elimination(self, monkeypatch):
        # once the branch is built, no window, whether it holds the spinors,
        # cuts some or cuts all of them, eliminates or scales anything
        model = HalfSpaceModel(4, (1, -1, 1, 1), F(2, 3))
        rep = model.clifford_rep()
        lam = lambda_candidates(model.algebra)[0].lam
        model.killing_spinors(rep, lam)
        calls = []

        def counted(name, fn):
            def wrapped(*args):
                calls.append(name)
                return fn(*args)
            monkeypatch.setattr(solvspin.halfspace, name, wrapped)

        for name in ("sparse_nullspace", "normalize_vector", "add_scaled"):
            counted(name, getattr(solvspin.halfspace, name))
        sizes = [len(solve_killing_halfspace(model, rep, lam, kmax, mmax))
                 for kmax, mmax in ((1, 1), (2, 2), (5, 5), (2, 0), (0, 2))]
        assert sizes == [rep.spinor_dim] * 3 + [rep.spinor_dim // 2, 0]
        assert calls == []

    def test_each_x_part_is_gamma_i_of_the_u_part(self):
        # the premise of the window filter: on E+, A_i acts as
        # (eps_t/(2 r^2 lam)) gamma_i, so w_i = -(eps_t/(2 r lam)) gamma_i u,
        # and gamma_i is invertible: every signature with n <= 5 at both
        # Einstein lambdas
        checked = 0
        for n in range(2, 6):
            zero = (0,) * (n - 1)
            for signs in itertools.product((1, -1), repeat=n):
                for r in (F(1), F(1, 2), F(2, 3)):
                    model = HalfSpaceModel(n, signs, r)
                    rep = model.clifford_rep()
                    for cand in lambda_candidates(model.algebra):
                        factor = -signs[-1] / (2 * r * cand.lam)
                        for spinor in model.killing_spinors(rep, cand.lam):
                            u = {h: c for ((k, m), h), c in spinor.items() if k == 1}
                            if not u:
                                continue
                            assert all(m == zero for (k, m), _ in spinor if k == 1)
                            for i in range(n - 1):
                                mono = (-1, zero[:i] + (1,) + zero[i + 1:])
                                w = {h: c for (key, h), c in spinor.items() if key == mono}
                                for h, row in enumerate(gamma_rows(rep, i)):
                                    gu = sum((c * u[j] for j, c in row.items() if j in u), F(0))
                                    assert w.get(h, 0) - factor * gu == 0
                                    checked += 1
        assert checked

    def test_t_derivative_cancels_a_diagonal_entry(self):
        # n = 3, r = 1: gamma_t is diagonal with entries +-i, so on either
        # branch lam = +-i/2 the rows of -lam gamma_t hold +1/2 and -1/2 on the
        # diagonal, which k/(2r) cancels at k = -1 and at k = +1
        model = HalfSpaceModel(3, (1, 1, 1), F(1))
        rep = model.clifford_rep()
        monos = monomials(2, 1, 0)
        for cand in lambda_candidates(model.algebra):
            _, dropped = window_equations_per_entry(model, rep, cand.lam, monos)
            assert dropped == 2
            got = solve_killing_halfspace(model, rep, cand.lam, 1, 0)
            assert got and _as_json(got) == _as_json(window_solutions(model, rep, cand.lam, 1, 0))


class TestConstructionMutants:
    # the construction is read by neither certificate, so a wrong one must be
    # caught by the count check or by the residual of a returned solution
    def setup_method(self):
        self.model = HalfSpaceModel(4, (1, -1, 1, 1), F(2, 3))
        self.rep = self.model.clifford_rep()
        self.lam = lambda_candidates(self.model.algebra)[0].lam

    def test_a_dropped_v_fails_the_count(self, monkeypatch):
        nullspace = solvspin.halfspace.sparse_nullspace
        kernels = []

        def drop_one_v(eqs, ncols):
            basis = nullspace(eqs, ncols)
            kernels.append(len(basis))
            return basis[:-1] if len(kernels) == 2 else basis   # E+, then E- cut by the x-rows

        monkeypatch.setattr(solvspin.halfspace, "sparse_nullspace", drop_one_v)
        with pytest.raises(RuntimeError, match=re.escape("%r branch lambda = %s has 3 Killing spinors, not N = 4"
                                                         % (self.model, self.lam))):
            solve_killing_halfspace(self.model, self.rep, self.lam, 1, 1)
        assert kernels == [2, 2]

    def test_a_zeroed_w_fails_the_residual(self, monkeypatch):
        build = solvspin.halfspace._build_spinors
        x1 = (-1, (1, 0, 0))

        def zero_w1(model, rep, lam, rows):
            spinors = build(model, rep, lam, rows)
            first = next(s for s in spinors if any(mono == x1 for mono, _ in s))
            for key in [key for key in first if key[0] == x1]:
                del first[key]
            return spinors

        monkeypatch.setattr(solvspin.halfspace, "_build_spinors", zero_w1)
        sols = solve_killing_halfspace(self.model, self.rep, self.lam, 1, 1)
        assert len(sols) == self.rep.spinor_dim
        assert not all(all(res.is_zero for res in killing_residual(self.model, self.rep, psi, self.lam))
                       for psi in sols)


def _tampered(psi, h, mono, delta):
    comps = list(psi.components)
    terms = dict(comps[h].terms)
    add_scaled(terms, 1, {mono: delta})   # drops a coefficient that sums to 0
    comps[h] = CoordFunction(terms)
    return CoordSpinorField(tuple(comps))


def _verdicts(model, rep, psi, lam, identity_first):
    """(the residual vanishes, the amended identity holds), the two run in the
    order given on a fresh copy of psi, whose numerators neither has read yet."""
    psi = CoordSpinorField(psi.components)
    if identity_first:
        holds = verify_amended_identity(model, rep, psi, lam)
        residual = killing_residual(model, rep, psi, lam)
    else:
        residual = killing_residual(model, rep, psi, lam)
        holds = verify_amended_identity(model, rep, psi, lam)
    return all(res.is_zero for res in residual), holds


class TestTamperedSolutions:
    @pytest.mark.parametrize("n, signs", [(3, (1, -1, 1)), (4, (1, 1, -1, -1)), (5, (1, -1, 1, 1, -1))])
    def test_both_certificates_reject_a_changed_coefficient(self, n, signs):
        # a solution's numerators are kept once read, so each check runs with
        # either certificate first
        model = HalfSpaceModel(n, signs, F(2, 3))
        rep = model.clifford_rep()
        x1 = (-1, (1,) + (0,) * (n - 2))  # t^(-1/2) x_1, inside the window
        checked = 0
        for cand in lambda_candidates(model.algebra):
            lam = cand.lam
            sols = solve_killing_halfspace(model, rep, lam, 1, 1)
            assert sols
            for psi in sols:
                assert amended_identity_three_term(model, rep, psi, lam)
                # t^(-1/2) x_1 e_0 alone is no Killing spinor and breaks the
                # identity: d_1 sends it to t^(1/2), where no gamma term lands
                bad = _tampered(psi, 0, x1, F(1))
                assert not amended_identity_three_term(model, rep, bad, lam)
                for identity_first in (False, True):
                    assert _verdicts(model, rep, psi, lam, identity_first) == (True, True)
                    assert _verdicts(model, rep, bad, lam, identity_first) == (False, False)
                # every stored coefficient changed in turn: the identity agrees
                # with the three-term formula, and it holds wherever the
                # residual vanishes, since it follows from the Killing equation
                for h, comp in enumerate(psi.components):
                    for mono in comp.terms:
                        bad = _tampered(psi, h, mono, F(1))
                        three_term = amended_identity_three_term(model, rep, bad, lam)
                        for identity_first in (False, True):
                            vanishes, ok = _verdicts(model, rep, bad, lam, identity_first)
                            assert ok == three_term
                            if vanishes:
                                assert ok
                        checked += 1
        assert checked


def _scaled(psi, f):
    return CoordSpinorField(tuple(CoordFunction({mono: f * c for mono, c in comp.terms.items()})
                                  for comp in psi.components))


def _agrees_with_the_tower_oracle(model, rep, psi, lam):
    """Both integer-numerator certificates against their TowerScalar oracles:
    equal residual fields and equal verdicts.  Returns the verdicts."""
    residual = killing_residual(model, rep, psi, lam)
    assert residual == killing_residual_tower(model, rep, psi, lam)
    verdict = verify_amended_identity(model, rep, psi, lam)
    assert verdict == verify_amended_identity_tower(model, rep, psi, lam)
    return all(res.is_zero for res in residual), verdict


class TestIntegerCertificates:
    """The certificates on integer numerators against the TowerScalar oracles."""

    def test_every_small_signature_agrees_with_the_oracle(self):
        # every signature with n <= 5, r in {1, 2/3}, both branches, windows 1
        # and 2: each solution and a tampered copy, on its branch's lambda and
        # on a wrong one.  Window 2 saturates, so a solution it shares with
        # window 1 is checked once
        wrong = TowerScalar.rational(F(1, 3))
        seen = set()
        for n in range(2, 6):
            for signs in itertools.product((1, -1), repeat=n):
                for r in (F(1), F(2, 3)):
                    model = HalfSpaceModel(n, signs, r)
                    rep = model.clifford_rep()
                    for cand in lambda_candidates(model.algebra):
                        checked = []
                        for window in (1, 2):
                            for k, psi in enumerate(solve_killing_halfspace(model, rep, cand.lam, window, window)):
                                if psi in checked:
                                    continue
                                checked.append(psi)
                                assert _agrees_with_the_tower_oracle(model, rep, psi, cand.lam) == (True, True)
                                h, (mono, c) = next((h, next(iter(comp.terms.items())))
                                                    for h, comp in enumerate(psi.components) if comp.terms)
                                bad = _tampered(psi, (h + k) % rep.spinor_dim, mono, (F(1), TS_I, c)[k % 3])
                                seen.add(_agrees_with_the_tower_oracle(model, rep, bad, cand.lam))
                                seen.add(_agrees_with_the_tower_oracle(model, rep, psi, wrong))
        assert seen == {(False, False), (False, True), (True, True)}

    def test_a_root_of_two_takes_the_w_part(self):
        # lambda lies in Q(i) on a half-space, so only a field built by hand
        # has a w-part: a solution times 1 + sqrt 2 is one, and a tampered or
        # w-part lambda breaks it
        model = HalfSpaceModel(4, (1, -1, 1, 1), F(2, 3))
        rep = model.clifford_rep()
        root2 = sqrt_to_tower(2)
        for cand in lambda_candidates(model.algebra):
            for k, psi in enumerate(solve_killing_halfspace(model, rep, cand.lam, 1, 1)):
                surd = _scaled(psi, 1 + root2)
                assert _agrees_with_the_tower_oracle(model, rep, surd, cand.lam) == (True, True)
                mono = next(iter(surd.components[k % rep.spinor_dim].terms), (-1, (1, 0, 0)))
                for delta in (root2, root2 * TS_I):
                    bad = _tampered(surd, k % rep.spinor_dim, mono, delta)
                    assert _agrees_with_the_tower_oracle(model, rep, bad, cand.lam)[0] is False
                for lam in (cand.lam * root2, cand.lam + root2):
                    assert _agrees_with_the_tower_oracle(model, rep, surd, lam) == (False, False)
                # at lambda + sqrt 2 the residual is -(2 + sqrt 2) gamma psi, with a w-part
                residual = killing_residual(model, rep, surd, cand.lam + root2)
                assert any(c.radicand == 2 for res in residual for comp in res.components
                           for c in comp.terms.values())

    def test_two_radicands_are_refused(self):
        model = HalfSpaceModel(3, (1, 1, 1), F(1))
        rep = model.clifford_rep()
        lam = lambda_candidates(model.algebra)[0].lam
        psi = CoordSpinorField((CoordFunction({(1, (0, 0)): sqrt_to_tower(2)}),
                                CoordFunction({(-1, (1, 0)): sqrt_to_tower(3)})))
        for certificate in (killing_residual, verify_amended_identity):
            with pytest.raises(IncompatibleExtensionError):
                certificate(model, rep, psi, lam)
            # a root of 2 in psi and of 3 in lambda
            with pytest.raises(IncompatibleExtensionError):
                certificate(model, rep, CoordSpinorField((psi.components[0], CoordFunction())),
                            sqrt_to_tower(3) * lam)

    def test_a_solution_is_certified_without_building_a_tower_scalar(self, monkeypatch):
        model = HalfSpaceModel(5, (1, -1, 1, 1, -1), F(2, 3))
        rep = model.clifford_rep()
        lam = lambda_candidates(model.algebra)[0].lam
        sols = solve_killing_halfspace(model, rep, lam, 2, 2)
        killing_residual(model, rep, sols[0], lam)   # the branch's rows and columns, built once
        made = []
        make = solvspin.exact._make

        def counted(t):
            made.append(t)
            return make(t)

        monkeypatch.setattr(solvspin.exact, "_make", counted)
        for psi in sols:
            assert all(res.is_zero for res in killing_residual(model, rep, psi, lam))
            assert verify_amended_identity(model, rep, psi, lam)
        assert made == []
        # the count sees a built scalar: a wrong field's residual reads one back
        assert not all(res.is_zero for res in killing_residual(model, rep, _scaled(sols[0], 2), -lam))
        assert made


class TestSharedWork:
    """What the two certificates share: a solution's numerators, read once,
    and the amended identity's constants, held by each branch."""

    def setup_method(self):
        self.model = HalfSpaceModel(4, (1, -1, 1, -1), F(2, 3))
        self.rep = self.model.clifford_rep()
        self.lams = [c.lam for c in lambda_candidates(self.model.algebra)]

    def test_numerators_are_read_once_per_solution(self, monkeypatch):
        model, rep = self.model, self.rep
        numerators = solvspin.halfspace._numerators
        calls = []

        def counted(comps):
            calls.append(comps)
            return numerators(comps)

        monkeypatch.setattr(solvspin.halfspace, "_numerators", counted)
        for lam in self.lams:
            sols = solve_killing_halfspace(model, rep, lam, 2, 2)
            assert sols
            for psi in sols:
                assert all(res.is_zero for res in killing_residual(model, rep, psi, lam))
                assert verify_amended_identity(model, rep, psi, lam)
                assert not verify_amended_identity(model, rep, psi, -lam)
                assert psi.numerators == numerators(psi.components)
            assert calls == [psi.components for psi in sols]
            calls.clear()

    def test_each_branch_keeps_its_own_constants(self):
        # built in either order, the -lambda branch holds -lambda's constants:
        # 2 lambda^2 and -lambda phi_0 over 2p d^2, phi_0 over d^2
        p = self.model.r.numerator
        for lams in (self.lams, self.lams[::-1]):
            model = HalfSpaceModel(self.model.n, self.model.signs, self.model.r)
            held = {}
            for lam in lams:
                for psi in solve_killing_halfspace(model, self.rep, lam, 1, 1):
                    assert verify_amended_identity(model, self.rep, psi, lam)
                    assert not verify_amended_identity(model, self.rep, psi, -lam)
                held[lam] = model._branches[(self.rep, lam)][4]
            phi0 = model.decomposition.phi[0][0][0]
            for lam, (lam_sq2, minus_lam_phi, phi, m) in held.items():
                lam_sq2, minus_lam_phi, phi = (from_numerators(*x, 1, m) for x in (lam_sq2, minus_lam_phi, phi))
                d2 = phi / phi0
                assert d2.denominator == 1 and math.isqrt(d2.numerator) ** 2 == d2 > 0
                assert lam_sq2 == 2 * lam * lam * 2 * p * d2
                assert minus_lam_phi == -lam * phi0 * 2 * p * d2
            plus, minus = (held[lam] for lam in self.lams)
            assert plus[0] == minus[0] and plus[2] == minus[2]
            assert minus[1] == tuple(-x for x in plus[1]) != plus[1]

    def test_off_branch_certificates_keep_no_branch(self):
        # a lam off the Einstein value gets its branch built for the call
        # only, so repeated certificates there hold nothing new and agree
        model, rep = self.model, self.rep
        psi = solve_killing_halfspace(model, rep, self.lams[0], 2, 2)[0]
        assert len(model._branches) == 1
        off = [F(k, 7) for k in (-3, -2, -1, 1, 2, 3)] + [TowerScalar(0, F(1, 3))]

        def verdicts():
            return [(killing_residual(model, rep, psi, lam), verify_amended_identity(model, rep, psi, lam))
                    for lam in off]

        first = verdicts()
        assert verdicts() == first
        assert len(model._branches) == 1
        assert not any(ok or all(res.is_zero for res in residual) for residual, ok in first)

    def test_zero_components_of_a_residual_are_empty_functions(self):
        model, rep = self.model, self.rep
        x1 = (-1, (1, 0, 0))
        for lam in self.lams:
            for psi in solve_killing_halfspace(model, rep, lam, 1, 1):
                residual = killing_residual(model, rep, psi, lam)
                assert all(comp == CoordFunction() for res in residual for comp in res.components)
                # a tampered solution leaves zero and nonzero components side by side
                bad = _tampered(psi, 0, x1, F(1))
                residual = killing_residual(model, rep, bad, lam)
                assert residual == killing_residual_tower(model, rep, bad, lam)
                comps = [comp for res in residual for comp in res.components]
                assert any(comp.terms for comp in comps) and CoordFunction() in comps
                assert all(comp == CoordFunction() for comp in comps if comp.is_zero)


class TestAmendedIdentity:
    def test_fails_for_non_solution(self):
        model = HalfSpaceModel(2, (1, 1), F(1))
        rep = model.clifford_rep()
        lam = lambda_candidates(model.algebra)[0].lam
        generic = CoordSpinorField((CoordFunction({(1, (0,)): F(1)}),
                                    CoordFunction({(1, (0,)): TS_I + 2})))
        assert not verify_amended_identity(model, rep, generic, lam)

    def test_fails_for_generic_invariant_nonzero(self):
        # for an invariant field the identity collapses to a gamma_t eigenvalue
        # condition; a spinor outside both eigenspaces fails it
        model = HalfSpaceModel(2, (1, 1), F(1))
        rep = model.clifford_rep()
        lam = lambda_candidates(model.algebra)[0].lam
        psi = CoordSpinorField((CoordFunction({(0, (0,)): F(1)}),
                                CoordFunction()))
        assert not verify_amended_identity(model, rep, psi, lam)

    def test_json_dump_shape(self):
        model = HalfSpaceModel(2, (1, 1), F(1))
        rep = model.clifford_rep()
        lam = lambda_candidates(model.algebra)[0].lam
        sols = solve_killing_halfspace(model, rep, lam, 1, 1)
        data = sols[0].to_json_dict()
        assert set(data) == {"u_0", "u_1"}


class TestCertificateInputs:
    """Both certificates refuse a field or a representation that does not fit the model."""

    @pytest.mark.parametrize("n, signs", [(3, (1, 1, 1)), (4, (1, -1, 1, -1))])
    def test_wrong_component_count_is_refused(self, n, signs):
        # the certificates zip the components with the fiber rows, which would
        # drop an extra component and stop short at a missing one
        model = HalfSpaceModel(n, signs, F(1))
        rep = model.clifford_rep()
        N = rep.spinor_dim
        for cand in lambda_candidates(model.algebra):
            psi = solve_killing_halfspace(model, rep, cand.lam, 1, 1)[0]
            extra = CoordFunction({(3, (1,) + (0,) * (n - 2)): TS_I})
            for comps in (psi.components + (extra,), psi.components[:-1]):
                bad = CoordSpinorField(comps)
                message = "psi has %d entries, but spinor_dim = %d" % (len(comps), N)
                with pytest.raises(ValueError, match=message):
                    killing_residual(model, rep, bad, cand.lam)
                with pytest.raises(ValueError, match=message):
                    verify_amended_identity(model, rep, bad, cand.lam)

    def test_representation_of_another_signature_is_refused(self):
        # with the gammas of another signature the amended identity holds for
        # some Killing spinors of that signature's model that are none of this one
        for signs, other in itertools.permutations(itertools.product((1, -1), repeat=3), 2):
            model, other_model = HalfSpaceModel(3, signs, F(1)), HalfSpaceModel(3, other, F(1))
            rep = other_model.clifford_rep()
            lam = lambda_candidates(model.algebra)[0].lam
            other_lam = lambda_candidates(other_model.algebra)[0].lam
            psi = solve_killing_halfspace(other_model, rep, other_lam, 1, 1)[0]
            for certificate in (killing_residual, verify_amended_identity):
                with pytest.raises(ValueError, match="signature does not match the metric"):
                    certificate(model, rep, psi, lam)


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["copy", "deepcopy", "pickle"])
def test_values_and_results_survive_copy_and_pickle(clone):
    # a rational TowerScalar, which only a caller outside the package builds,
    # keeps its type: the pickled form reads back without normalizing
    for x in (TowerScalar(F(1, 2), -3), sqrt_to_tower(F(-2, 3)), TowerScalar.rational(0),
              TowerScalar.rational(F(-3, 4)), TowerScalar(7)):
        y = clone(x)
        assert type(y) is TowerScalar and y == x and y._t == x._t
    model = HalfSpaceModel(3, (1, 1, -1), F(1, 2))
    rep = model.clifford_rep()
    for cand in lambda_candidates(model.algebra):
        sols = solve_killing_halfspace(model, rep, cand.lam, 1, 1)
        assert sols
        for psi in sols:
            copies = [clone(psi), CoordSpinorField(tuple(clone(f) for f in psi.components))]
            for got in copies:
                assert type(got) is CoordSpinorField and got == psi
                assert got.to_json_dict() == psi.to_json_dict()
        # a cloned model, with its branch entries, is equal and solves alike
        twin = clone(model)
        assert type(twin) is HalfSpaceModel and twin == model and hash(twin) == hash(model)
        assert _as_json(solve_killing_halfspace(twin, rep, cand.lam, 1, 1)) == _as_json(sols)
    ext, _, _ = einstein_extension(heisenberg3())
    report = solve_invariant_killing(ext, build_gammas(ext.signs))
    assert clone(report).to_json_dict() == report.to_json_dict()
    # the geometry an algebra has derived travels with it
    for M in (model.algebra, ext):
        cached = {"connection": M.connection, "ricci_data": M.ricci_data,
                  "lambda_candidates": M.lambda_candidates}
        got = clone(M)
        assert type(got) is MetricLieAlgebra and got == M and hash(got) == hash(M)
        assert {name: vars(got)[name] for name in cached} == cached
        assert (got.connection, got.ricci_data) == (levi_civita(M), ricci(M))
