"""Lambda candidates, invariant solver, Ricci filter, and the classifier."""

import itertools
import random
from fractions import Fraction

import pytest

import solvspin.killing
from conftest import abelian_metric, heisenberg3, random_pseudo_iwasawa, semidirect_metric
from solvspin.exact import TowerScalar, sqrt_to_tower, to_rational
from solvspin.clifford import build_gammas, dense_rows, gamma_of_vector
from solvspin.halfspace import HalfSpaceModel
from solvspin.killing import (
    absurd_count_has_solutions,
    classify_pseudo_iwasawa,
    invariant_spin_connection,
    killing_operator_rows,
    lambda_candidates,
    phi_square_check,
    ricci_filter,
    solve_invariant_killing,
)
from solvspin.liealg import (
    LieAlgebra,
    MetricLieAlgebra,
    einstein_extension,
    ricci,
)
from solvspin.linalg import identity, mat_equal, mat_mul, mat_scale, mat_sub, normalize_vector

from reference_linalg import densify, nullspace

F = Fraction


class TestLambdaCandidates:
    def test_flat_gives_none(self):
        assert lambda_candidates(abelian_metric((1, 1, -1))) == []

    def test_hyperbolic_model(self):
        for n in (2, 3, 4):
            model = HalfSpaceModel(n, (1,) * n, F(1))
            cands = lambda_candidates(model.algebra)
            assert len(cands) == 2
            for c in cands:
                assert c.lam_squared == F(-1, 4)
                assert c.lam * c.lam == F(-1, 4)
            assert cands[0].lam == -cands[1].lam

    def test_positive_scalar_curvature(self):
        # timelike t-direction flips the sign of s; lambda becomes real
        model = HalfSpaceModel(3, (1, 1, -1), F(1))
        s = ricci(model.algebra).scalar
        assert s > 0
        cands = lambda_candidates(model.algebra)
        assert [c.lam for c in cands] == [F(1, 2), F(-1, 2)]
        assert all(type(c.lam) is Fraction for c in cands)

    def test_dimension_one_rejected(self):
        with pytest.raises(ValueError):
            lambda_candidates(abelian_metric((1,)))

    def test_derived_once_per_algebra(self, monkeypatch):
        # the metric algebra keeps its candidates; every later read, a solve's
        # included, returns the same objects and derives nothing
        calls = []
        real = solvspin.liealg.killing_constants

        def counted(M):
            calls.append(M)
            return real(M)

        monkeypatch.setattr(solvspin.liealg, "killing_constants", counted)
        model = HalfSpaceModel(4, (1, -1, 1, -1), F(2, 3))
        M = model.algebra
        first = lambda_candidates(M)
        report = solve_invariant_killing(M, model.clifford_rep())
        again = lambda_candidates(M)
        assert len(calls) == 1 and len(first) == 2
        assert all(a is b is c for a, b, c in zip(first, again, M.lambda_candidates))
        assert [c.candidate for c in report.candidates] == first
        again.pop()
        assert len(lambda_candidates(M)) == 2


class TestInvariantConnection:
    def test_flat_abelian_zero(self):
        M = abelian_metric((1, -1))
        rep = build_gammas(M.signs)
        ops = invariant_spin_connection(M, rep)
        assert all(all(x == 0 for row in op for x in row) for op in ops)

    def test_halfspace_t_direction_vanishes(self):
        model = HalfSpaceModel(3, (1, 1, 1), F(1, 2))
        rep = model.clifford_rep()
        ops = invariant_spin_connection(model.algebra, rep)
        assert all(x == 0 for row in ops[-1] for x in row)

    def test_halfspace_x_direction_operator(self):
        # with the coordinate frame of the model, phi_0 = -(1/r) id and the
        # x-direction operator is -(eps_t/(2r)) gamma_t gamma_i
        r = F(1, 2)
        model = HalfSpaceModel(3, (1, 1, 1), r)
        rep = model.clifford_rep()
        ops = invariant_spin_connection(model.algebra, rep)
        for i in range(2):
            want = mat_scale(F(-1) / (2 * r), mat_mul(rep.gammas[2], rep.gammas[i]))
            assert mat_equal(ops[i], want)

    def test_signature_mismatch_rejected(self):
        M = abelian_metric((1, 1))
        rep = build_gammas((1, -1))
        with pytest.raises(ValueError):
            invariant_spin_connection(M, rep)


class TestInvariantSolver:
    def test_flat_abelian_no_candidates(self):
        M = abelian_metric((1, 1, -1))
        report = solve_invariant_killing(M, build_gammas(M.signs))
        assert report.candidates == ()
        assert report.to_json_dict()["invariant_only"] is True

    def test_halfspace_kernels_empty(self):
        # the t-direction equation is -lambda gamma_t psi = 0 with gamma_t
        # invertible, so no invariant solutions exist
        for n in (2, 3, 4):
            model = HalfSpaceModel(n, (1,) * n, F(1))
            rep = model.clifford_rep()
            report = solve_invariant_killing(model.algebra, rep)
            assert len(report.candidates) == 2
            for c in report.candidates:
                assert c.kernel_basis == ()

    def test_heis3_extension_kernels_empty(self):
        ext, _, _ = einstein_extension(heisenberg3())
        report = solve_invariant_killing(ext, build_gammas(ext.signs))
        assert len(report.candidates) == 2
        for c in report.candidates:
            assert c.kernel_basis == ()
            # Einstein metric with the matching lambda: filter is everything
            assert c.ricci_filter_dimension == 4

    def test_su2_round_sphere_has_invariant_solutions(self):
        # the bi-invariant metric on su(2) is the round 3-sphere: every
        # constant spinor is Killing for exactly one sign of lambda
        su2 = LieAlgebra.from_brackets(
            3, {(0, 1): {2: F(1)}, (1, 2): {0: F(1)}, (0, 2): {1: F(-1)}})
        M = MetricLieAlgebra(su2, (1, 1, 1))
        assert ricci(M).scalar == F(3, 2)
        report = solve_invariant_killing(M, build_gammas(M.signs))
        dims = {to_rational(c.candidate.lam): len(c.kernel_basis) for c in report.candidates}
        assert dims == {F(1, 4): 0, F(-1, 4): 2}
        full = [c for c in report.candidates if c.kernel_basis][0]
        assert full.ricci_filter_dimension == 2
        # returned basis spans all constant spinors
        assert len({tuple(psi) for psi in full.kernel_basis}) == 2

    def test_report_serializes(self):
        ext, _, _ = einstein_extension(heisenberg3())
        report = solve_invariant_killing(ext, build_gammas(ext.signs))
        data = report.to_json_dict()
        assert data["invariant_only"] is True
        assert len(data["candidates"]) == 2
        assert all("lambda_squared" in c for c in data["candidates"])


SU2 = LieAlgebra.from_brackets(3, {(0, 1): {2: F(1)}, (1, 2): {0: F(1)}, (0, 2): {1: F(-1)}})
SL2 = LieAlgebra.from_brackets(3, {(0, 1): {2: F(-1)}, (1, 2): {0: F(1)}, (0, 2): {1: F(-1)}})


def _sparse_path_algebras():
    """Random pseudo-Iwasawa instances, half-space models, Einstein extensions,
    and algebras with nonempty invariant kernels or a proper Ricci filter."""
    rng = random.Random(20261018)
    out = [random_pseudo_iwasawa(rng)[0] for _ in range(12)]
    out += [HalfSpaceModel(n, signs, r).algebra
            for n, signs, r in ((2, (1, -1), F(1)), (3, (1, 1, 1), F(2, 3)),
                                (4, (1, -1, 1, -1), F(2, 3)), (5, (1, 1, 1, 1, -1), F(2, 5)))]
    for M in (heisenberg3(), heisenberg3(signs=(1, 1, -1)), heisenberg3(coeff=F(2, 3))):
        out.append(einstein_extension(M)[0])
    # round S^3 in both overall signs and anti-de Sitter AdS_3 carry invariant
    # Killing spinors; heis3 is not Einstein, so its Ricci filter is proper
    out += [MetricLieAlgebra(SU2, (1, 1, 1)), MetricLieAlgebra(SU2, (-1, -1, -1)),
            MetricLieAlgebra(SL2, (1, 1, -1)), heisenberg3()]
    return out


def _branches(M):
    lams = [c.lam for c in lambda_candidates(M)]
    return lams or [TowerScalar(F(1, 2), F(1, 3)), -TowerScalar(F(1, 2), F(1, 3))]


def _dense_invariant_solve(M, rep):
    """The stacked dense solve, kept as an oracle for the sparse rows."""
    ops = invariant_spin_connection(M, rep)
    out = []
    for cand in lambda_candidates(M):
        rows = []
        for i in range(M.dim):
            rows.extend(list(r) for r in mat_sub(ops[i], mat_scale(cand.lam, rep.gammas[i])))
        basis = [normalize_vector({c: x for c, x in enumerate(v) if not x == 0})
                 for v in nullspace(rows, rep.spinor_dim)]
        out.append(tuple(densify(basis, rep.spinor_dim)))
    return out


def _dense_ricci_rows(M, rep, lam):
    """Dense rows of gamma(B e_i) for each nonzero column of B = Ric - 4(n-1) lambda^2 id."""
    n = M.dim
    op = ricci(M).operator
    lam_sq = to_rational(lam * lam)
    rows = []
    for i in range(n):
        w = [op[k][i] - (4 * (n - 1) * lam_sq if k == i else 0) for k in range(n)]
        if any(x != 0 for x in w):
            rows.extend(list(r) for r in gamma_of_vector(rep, w))
    return rows


def _dense_ricci_filter(M, rep, lam):
    rows = _dense_ricci_rows(M, rep, lam)
    return len(nullspace(rows, rep.spinor_dim)) if rows else rep.spinor_dim


class TestSparseOperatorRows:
    def test_rows_equal_dense_operators(self):
        for M in _sparse_path_algebras():
            rep = build_gammas(M.signs)
            ops = invariant_spin_connection(M, rep)
            for lam in _branches(M):
                rows = killing_operator_rows(M, rep, lam)
                assert len(rows) == M.dim
                for i, op_rows in enumerate(rows):
                    assert all(not x == 0 for row in op_rows for x in row.values())
                    want = mat_sub(ops[i], mat_scale(lam, rep.gammas[i]))
                    assert mat_equal(dense_rows(op_rows), want), (M, lam, i)

    def test_solve_matches_dense_oracle(self):
        nonempty = 0
        for M in _sparse_path_algebras():
            rep = build_gammas(M.signs)
            report = solve_invariant_killing(M, rep)
            oracle = _dense_invariant_solve(M, rep)
            assert [c.kernel_basis for c in report.candidates] == oracle
            for c in report.candidates:
                assert c.ricci_filter_dimension == _dense_ricci_filter(M, rep, c.candidate.lam)
            nonempty += sum(1 for basis in oracle if basis)
        assert nonempty == 3   # the kernel and re-substitution path is exercised

    def test_certificate_rejects_a_non_solution(self, monkeypatch):
        # e_0 solves nothing on the lambda = +1/4 branch of su(2), the first one
        monkeypatch.setattr(solvspin.killing, "sparse_nullspace", lambda eqs, ncols: [{0: F(1)}])
        M = MetricLieAlgebra(SU2, (1, 1, 1))
        with pytest.raises(RuntimeError, match="non-solution spinor"):
            solve_invariant_killing(M, build_gammas(M.signs))

    def test_directions_added_until_the_kernel_is_empty(self, monkeypatch):
        built = []
        real = solvspin.killing.clifford_rows

        def counted(rep, terms):
            terms = list(terms)
            built.append(terms[-1])   # ((i,), -lam) of the direction built
            return real(rep, terms)

        monkeypatch.setattr(solvspin.killing, "clifford_rows", counted)
        # nabla_{e_t} = 0 on a half-space or an Einstein extension: -lam gamma_t
        # alone has kernel {0}, so each branch builds that direction only
        algebras = [HalfSpaceModel(n, (1, -1) * (n // 2) + (1,) * (n % 2), F(2, 3)).algebra
                    for n in range(4, 10)]
        for M in algebras + [einstein_extension(heisenberg3())[0]]:
            built.clear()
            report = solve_invariant_killing(M, build_gammas(M.signs))
            assert built == [((M.dim - 1,), -c.candidate.lam) for c in report.candidates]
        # on su(2) the branch with the 2-dimensional kernel builds every direction
        M = MetricLieAlgebra(SU2, (1, 1, 1))
        rep = build_gammas(M.signs)
        built.clear()
        report = solve_invariant_killing(M, rep)
        (full,) = [i for i, c in enumerate(report.candidates) if c.kernel_basis]
        lam = report.candidates[full].candidate.lam
        assert [word for word, c in built if c == -lam] == [(0,), (1,), (2,)]
        assert report.candidates[full].kernel_basis == _dense_invariant_solve(M, rep)[full]


class TestRicciFilter:
    def test_einstein_matching_lambda_full(self):
        model = HalfSpaceModel(3, (1, 1, 1), F(1))
        rep = model.clifford_rep()
        lam = lambda_candidates(model.algebra)[0].lam
        assert ricci_filter(model.algebra, rep, lam) == rep.spinor_dim

    def test_einstein_mismatched_lambda_zero_definite(self):
        model = HalfSpaceModel(3, (1, 1, 1), F(1))
        rep = model.clifford_rep()
        assert ricci_filter(model.algebra, rep, TowerScalar.rational(1)) == 0

    def test_one_filter_per_solve(self, monkeypatch):
        # the filter depends on lambda^2 only, so both branches share one
        calls = []
        real = solvspin.killing.ricci_filter

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(solvspin.killing, "ricci_filter", counted)
        model = HalfSpaceModel(4, (1, -1, 1, 1), F(1, 2))
        report = solve_invariant_killing(model.algebra, model.clifford_rep())
        assert len(report.candidates) == 2 and len(calls) == 1

    def test_columns_match_dense_oracle(self, monkeypatch):
        # at each candidate lambda, and at every lambda that makes some column's
        # diagonal equal to kappa = 4(n-1) lambda^2: the 5-dimensional algebra
        # with signs (1, -1, -1, 1, 1) has op[3][3] = -8 and op[4][3] = 6, so a
        # column test that reads only the diagonal would skip a nonzero column.
        # The filter's rows are compared too: one non-null column already
        # makes the dimension 0, so the dimension alone would not see the skip
        seen = []
        real = solvspin.killing.sparse_nullspace

        def recorded(rows, ncols):
            seen.append(densify(rows, ncols))
            return real(rows, ncols)

        monkeypatch.setattr(solvspin.killing, "sparse_nullspace", recorded)
        diagonal_only = 0
        for M in _sparse_path_algebras():
            rep = build_gammas(M.signs)
            n, op = M.dim, ricci(M).operator
            lams = [c.lam for c in lambda_candidates(M)]
            lams += [sqrt_to_tower(to_rational(op[i][i]) / (4 * (n - 1))) for i in range(n)]
            for lam in lams:
                kappa = 4 * (n - 1) * to_rational(lam * lam)
                diagonal_only += any(op[i][i] == kappa and any(op[k][i] != 0 for k in range(n) if k != i)
                                     for i in range(n))
                seen.clear()
                assert ricci_filter(M, rep, lam) == _dense_ricci_filter(M, rep, lam), (M, lam)
                assert seen == [[tuple(r) for r in _dense_ricci_rows(M, rep, lam)]], (M, lam)
        assert diagonal_only > 0

    @pytest.mark.parametrize("signs", [(1, 1, -1), (1, -1, 1), (-1, 1, 1)])
    def test_representation_of_another_signature_is_refused(self, signs):
        # gamma_of_vector_rows builds rows from any representation, and an
        # Einstein input at its own lambda reads nothing of rep, so the
        # signature check is the only guard
        for M in (heisenberg3(), HalfSpaceModel(3, (1, 1, 1), F(1)).algebra):
            rep = build_gammas(signs)
            for lam in _branches(M):
                with pytest.raises(ValueError, match="representation signature"):
                    ricci_filter(M, rep, lam)

    def test_heis3_filter_small(self):
        M = heisenberg3()
        rep = build_gammas(M.signs)
        for lam in (TowerScalar.rational(0), TowerScalar(0, F(1, 4)),
                    TowerScalar.rational(F(1, 2))):
            assert ricci_filter(M, rep, lam) < 2


class TestPhiSquare:
    def test_halfspace_passes(self):
        model = HalfSpaceModel(3, (1, 1, 1), F(1, 2))
        assert phi_square_check(model.algebra, model.decomposition, F(-1)) == [True]

    def test_distinct_eigenvalues_fail(self):
        phi = ((F(1), F(0)), (F(0), F(2)))
        M, decomp = semidirect_metric(LieAlgebra.abelian(2), [phi], (1, 1, 1))
        lam_sq = ricci(M).scalar / 24
        assert phi_square_check(M, decomp, lam_sq) == [False]

    def test_timelike_direction_sign_bookkeeping(self):
        # eps_0 = -1 with phi_0 = (1/r) id and lambda real: lambda^2 = 1/(4 r^2)
        r = F(1, 2)
        model = HalfSpaceModel(3, (1, 1, -1), r)
        lam_sq = F(1) / (4 * r * r)
        assert phi_square_check(model.algebra, model.decomposition, lam_sq) == [True]


class TestClassifier:
    def test_absurd_equation_has_no_solutions(self):
        assert not absurd_count_has_solutions(64)

    def test_halfspace_all_sign_patterns(self):
        for n in (2, 3, 4, 5):
            for signs in itertools.product((1, -1), repeat=n):
                for r in (F(1, 2), F(1), F(2)):
                    model = HalfSpaceModel(n, signs, r)
                    report = classify_pseudo_iwasawa(model.algebra, model.decomposition)
                    assert report.verdict.kind == "HyperbolicHalfSpace", (n, signs, r)
                    assert report.verdict.r == r
                    assert report.verdict.epsilon == signs

    def test_heis3_extension_nonabelian(self):
        ext, decomp, _ = einstein_extension(heisenberg3())
        report = classify_pseudo_iwasawa(ext, decomp)
        assert report.verdict.kind == "NoKillingSpinor"
        assert report.verdict.reason == "g non-abelian"

    def test_flat_product_no_candidates(self):
        zero = tuple(tuple(F(0) for _ in range(2)) for _ in range(2))
        M, decomp = semidirect_metric(LieAlgebra.abelian(2), [zero], (1, 1, 1))
        report = classify_pseudo_iwasawa(M, decomp)
        assert report.verdict.kind == "NoKillingSpinor"
        assert "no lambda candidate" in report.verdict.reason

    def test_traceless_phi_fails_trace_identity(self):
        phi = ((F(1), F(0)), (F(0), F(-1)))
        M, decomp = semidirect_metric(LieAlgebra.abelian(2), [phi], (1, 1, 1))
        report = classify_pseudo_iwasawa(M, decomp)
        assert report.verdict.kind == "NoKillingSpinor"
        assert report.verdict.reason.startswith("trace identity fails")

    def test_two_distinct_eigenvalues_never_hyperbolic(self):
        for a, b in [(1, 2), (1, -2), (2, 3)]:
            phi = ((F(a), F(0)), (F(0), F(b)))
            M, decomp = semidirect_metric(LieAlgebra.abelian(2), [phi], (1, 1, 1))
            report = classify_pseudo_iwasawa(M, decomp)
            assert report.verdict.kind != "HyperbolicHalfSpace"

    def test_dim_a_two_blocked_by_counting(self):
        # phi_0 = phi_1 = id on abelian R^2 passes the earlier checks and is
        # stopped by the integer counting argument
        idm = identity(2)
        M, decomp = semidirect_metric(LieAlgebra.abelian(2), [idm, idm], (1, 1, 1, 1))
        report = classify_pseudo_iwasawa(M, decomp)
        assert report.verdict.kind == "NoKillingSpinor"
        assert "(n+k)(n+k-1) = nk" in report.verdict.reason
        names = [c.name for c in report.checks]
        assert "phi_square" in names  # earlier checks ran and passed
        phi_idx = names.index("phi_square")
        assert report.checks[phi_idx].passed

    def test_not_pseudo_iwasawa_is_not_applicable(self):
        rot = ((F(0), F(1)), (F(-1), F(0)))
        M, decomp = semidirect_metric(LieAlgebra.abelian(2), [rot], (1, 1, 1))
        report = classify_pseudo_iwasawa(M, decomp)
        assert report.verdict.kind == "NotApplicable"

    def test_sign_flip_mechanism(self):
        # phi_0 = +(1/r) id means Tr phi_0 < 0 never happens; build the flipped
        # variant directly and check it is still recognized
        from solvspin.liealg import extend_by_derivation

        D = mat_scale(F(2), identity(3))  # phi_0 = 2 id = (1/r) id with r = 1/2
        ext, decomp = extend_by_derivation(abelian_metric((1, 1, 1)), D, 1)
        report = classify_pseudo_iwasawa(ext, decomp)
        assert report.verdict.kind == "HyperbolicHalfSpace"
        assert report.verdict.r == F(1, 2)
        assert report.verdict.sign_flipped is False
        # the coordinate half-space model carries the opposite orientation
        model = HalfSpaceModel(4, (1, 1, 1, 1), F(1, 2))
        report2 = classify_pseudo_iwasawa(model.algebra, model.decomposition)
        assert report2.verdict.kind == "HyperbolicHalfSpace"
        assert report2.verdict.sign_flipped is True

    def test_scalar_identity_on_einstein_extensions(self):
        # s = 4 dim (dim - 1) lambda^2 for the classifier's lambda
        for M in (heisenberg3(), heisenberg3(signs=(1, 1, -1))):
            try:
                ext, decomp, _ = einstein_extension(M)
            except ValueError:
                continue
            s = ricci(ext).scalar
            n = ext.dim
            for cand in lambda_candidates(ext):
                assert cand.lam * cand.lam * 4 * n * (n - 1) == s

    def test_report_json_shape(self):
        model = HalfSpaceModel(3, (1, 1, 1), F(1))
        report = classify_pseudo_iwasawa(model.algebra, model.decomposition)
        data = report.to_json_dict()
        assert data["verdict"]["kind"] == "HyperbolicHalfSpace"
        assert data["verdict"]["r"] == "1"
        assert [c["name"] for c in data["checks"]][0] == "pseudo_iwasawa"
