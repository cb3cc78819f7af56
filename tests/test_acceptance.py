"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything runs on the exact backend; zero tolerance unless a runtime budget
is part of the criterion.  Randomized instances use a fixed seed so the suite
is reproducible run to run.
"""

import itertools
import random
import time
from fractions import Fraction

from conftest import (
    abelian_metric,
    heisenberg3,
    random_pseudo_iwasawa,
    semidirect_metric,
)
from solvspin.exact import TowerScalar
from solvspin.clifford import (
    build_gammas,
    clifford_violations,
    raise_endomorphism,
    symmetric_commutant_kernel,
    two_tensor_action,
)
from solvspin.halfspace import (
    HalfSpaceModel,
    killing_residual,
    solve_killing_halfspace,
    verify_amended_identity,
)
from solvspin.killing import (
    absurd_count_has_solutions,
    classify_pseudo_iwasawa,
    lambda_candidates,
    solve_invariant_killing,
)
from solvspin.liealg import (
    LieAlgebra,
    MetricLieAlgebra,
    einstein_check,
    einstein_extension,
    extend_by_derivation,
    nilsoliton_solve,
    ricci,
    ricci_standard,
    standard_connection_identities,
)
from solvspin.linalg import identity, mat_equal, mat_scale

from reference_linalg import nullspace, rational_parts, solve_linear

F = Fraction
SEED = 20260808


def _report(num: int, ok: bool, detail: str):
    print("ACCEPTANCE %d: %s - %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, detail


def test_criterion_1_clifford_relations_all_signatures():
    started = time.perf_counter()
    checked = 0
    for n in range(1, 9):
        for signs in itertools.product((1, -1), repeat=n):
            rep = build_gammas(signs)
            assert clifford_violations(rep) == [], signs
            checked += 1
    elapsed = time.perf_counter() - started
    _report(1, elapsed < 10.0,
            "gamma relations exact for all %d sign patterns with n <= 8 in %.2fs (< 10s)"
            % (checked, elapsed))


def _instances(count=50):
    rng = random.Random(SEED)
    out = []
    while len(out) < count:
        M, decomp = random_pseudo_iwasawa(rng, max_dim_g=5, max_dim_a=2)
        out.append((M, decomp))
    return out


def test_criterion_2_ricci_standard_cross_check():
    instances = _instances(50)
    for M, decomp in instances:
        direct = ricci(M)
        assembled = ricci_standard(M, decomp)
        assert assembled.ric == direct.ric
        assert assembled.scalar == direct.scalar
    _report(2, True,
            "block Ricci formulas match the Koszul-curvature-trace pipeline "
            "entrywise on %d randomized instances, zero tolerance" % len(instances))


def test_criterion_3_connection_identities():
    instances = _instances(50)
    for M, decomp in instances:
        assert standard_connection_identities(M, decomp) == []
    _report(3, True,
            "all four pseudo-Iwasawa connection identities hold entrywise on "
            "%d randomized instances" % len(instances))


def test_criterion_4_heis3_nilsoliton():
    M = heisenberg3()
    res = nilsoliton_solve(M)
    assert res is not None
    ok_lam = res.lam == F(-3, 2)
    ok_D = res.derivation == ((F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(2)))
    # independent oracle: joint dense solve over the derivation constraints
    lam_o, D_o = _nilsoliton_joint_oracle(M)
    ok_oracle = lam_o == res.lam and D_o == res.derivation
    ext, decomp, lam_ext = einstein_extension(M)
    ok_einstein = einstein_check(ext) == F(-3, 2) and lam_ext == F(-3, 2)
    _report(4, ok_lam and ok_D and ok_oracle and ok_einstein,
            "heis3 nilsoliton lambda = -3/2, D = diag(1,1,2) exactly, matching the "
            "independent constraint solve; Einstein extension verified")


def _nilsoliton_joint_oracle(M):
    L = M.algebra
    n = L.dim
    ric_op = ricci(M).operator
    nvars = n * n + 1
    rows, rhs = [], []
    for i in range(n):
        for j in range(n):
            row = [F(0)] * nvars
            row[i * n + j] = F(1)
            if i == j:
                row[-1] = F(1)
            rows.append(row)
            rhs.append(ric_op[i][j])
    for i in range(n):
        for j in range(i + 1, n):
            b = L.structure[i][j]
            for k in range(n):
                row = [F(0)] * nvars
                for m in range(n):
                    row[k * n + m] += b[m]
                    row[m * n + i] -= L.structure[m][j][k]
                    row[m * n + j] -= L.structure[i][m][k]
                rows.append(row)
                rhs.append(F(0))
    sol = solve_linear(rows, rhs)
    assert sol is not None
    D = tuple(tuple(sol[i * n + j] for j in range(n)) for i in range(n))
    return sol[-1], D


def test_criterion_5_classifier_theorem_reproduction():
    count = 0
    for n in (2, 3, 4, 5):
        for signs in itertools.product((1, -1), repeat=n):
            for r in (F(1, 2), F(1), F(2)):
                model = HalfSpaceModel(n, signs, r)
                report = classify_pseudo_iwasawa(model.algebra, model.decomposition)
                assert report.verdict.kind == "HyperbolicHalfSpace", (n, signs, r)
                assert report.verdict.r == r, (n, signs, r)
                count += 1
    # (a) non-abelian nilradical
    ext, decomp, _ = einstein_extension(heisenberg3())
    rep_a = classify_pseudo_iwasawa(ext, decomp)
    assert rep_a.verdict.kind == "NoKillingSpinor" and rep_a.verdict.reason == "g non-abelian"
    # (b) traceless phi_0 = diag(1, -1): trace identity
    M_b, d_b = semidirect_metric(
        LieAlgebra.abelian(2), [((F(1), F(0)), (F(0), F(-1)))], (1, 1, 1))
    rep_b = classify_pseudo_iwasawa(M_b, d_b)
    assert rep_b.verdict.kind == "NoKillingSpinor"
    assert rep_b.verdict.reason.startswith("trace identity fails")
    # (c) dim a = 2 passing the earlier checks: stopped by the counting identity
    idm = identity(2)
    M_c, d_c = semidirect_metric(LieAlgebra.abelian(2), [idm, idm], (1, 1, 1, 1))
    rep_c = classify_pseudo_iwasawa(M_c, d_c)
    assert rep_c.verdict.kind == "NoKillingSpinor"
    assert "(n+k)(n+k-1) = nk" in rep_c.verdict.reason
    phi_checks = [c for c in rep_c.checks if c.name == "phi_square"]
    assert phi_checks and phi_checks[0].passed
    assert not absurd_count_has_solutions(64)
    _report(5, True,
            "HyperbolicHalfSpace verdict with exact r = 1/(2|lambda|) on %d half-space "
            "models; negative verdicts carry the right reasons; the counting equation "
            "has no solutions for n, k <= 64" % count)


def test_criterion_6_two_tensor_trace_identity():
    rng = random.Random(SEED)
    checked = 0
    for n in range(1, 7):
        for signs in itertools.product((1, -1), repeat=n):
            rep = build_gammas(signs)
            N = rep.spinor_dim
            eye = identity(N)
            for _ in range(100):
                f = _random_metric_symmetric(rng, signs)
                act = two_tensor_action(rep, raise_endomorphism(signs, f))
                tr = sum((f[i][i] for i in range(n)), F(0))
                assert mat_equal(act, mat_scale(F(-tr), eye)), (signs, f)
                checked += 1
    _report(6, True,
            "raised symmetric tensors act as -Tr(f) exactly for %d random f across "
            "every signature with n <= 6" % checked)


def _random_metric_symmetric(rng, signs):
    n = len(signs)
    A = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        A[i][i] = F(rng.randint(-2, 2))
        for j in range(i + 1, n):
            v = F(rng.randint(-2, 2))
            A[i][j] = v
            A[j][i] = signs[i] * signs[j] * v
    return tuple(tuple(row) for row in A)


def test_criterion_7_symmetric_commutant_kernel():
    rng = random.Random(SEED)
    definite_checked = 0
    for n in range(1, 7):
        for signs in itertools.product((1, -1), repeat=n):
            rep = build_gammas(signs)
            N = rep.spinor_dim
            for _ in range(100):
                psi = _random_nonzero_spinor(rng, N)
                kernel = symmetric_commutant_kernel(rep, psi)
                if kernel.v_psi_dimension == 0:
                    assert kernel.is_identity_only, (signs, psi)
                    definite_checked += 1
                else:
                    assert kernel.dimension >= 1
    # engineered isotropic annihilators in split signatures
    split_dims = []
    for signs in [(1, -1), (1, -1, 1, -1), (1, 1, -1, -1)]:
        rep = build_gammas(signs)
        psi = _isotropic_annihilated_spinor(rep)
        kernel = symmetric_commutant_kernel(rep, psi)
        assert kernel.v_psi_dimension >= 1
        assert kernel.dimension >= 1  # strictly larger than {id}
        split_dims.append((signs, kernel.dimension, kernel.v_psi_dimension))
    _report(7, True,
            "commutant kernel is exactly {id} whenever V_psi = 0 (%d spinors); "
            "engineered split-signature annihilators give larger kernels: %s"
            % (definite_checked, split_dims))


def _random_nonzero_spinor(rng, N):
    while True:
        psi = [TowerScalar(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(N)]
        if any(not x.is_zero for x in psi):
            return psi


def _isotropic_annihilated_spinor(rep):
    N = rep.spinor_dim
    # kernel of gamma(e_i + e_j) for an isotropic e_i + e_j pair
    pos = rep.signs.index(1)
    neg = rep.signs.index(-1)
    g = [
        [rep.gammas[pos][i][j] + rep.gammas[neg][i][j] for j in range(N)]
        for i in range(N)
    ]
    rows = []
    for i in range(N):
        re_row, im_row = [], []
        for j in range(N):
            re, im, _, _ = rational_parts(g[i][j])
            re_row.extend([re, -im])
            im_row.extend([im, re])
        rows.extend([re_row, im_row])
    sols = nullspace(rows, 2 * N)
    assert sols
    v = sols[0]
    return [TowerScalar(v[2 * j], v[2 * j + 1]) for j in range(N)]


def test_criterion_8_halfspace_solver():
    lines = []
    for n in (2, 3, 4):
        for r in (F(1, 2), F(1)):
            started = time.perf_counter()
            model = HalfSpaceModel(n, (1,) * n, r)
            rep = model.clifford_rep()
            N = rep.spinor_dim
            combined = 0
            for cand in lambda_candidates(model.algebra):
                assert cand.lam_squared == F(-1) / (4 * r * r)
                sols = solve_killing_halfspace(model, rep, cand.lam, 1, 1)
                for psi in sols:
                    assert all(res.is_zero for res in killing_residual(model, rep, psi, cand.lam))
                    assert verify_amended_identity(model, rep, psi, cand.lam)
                saturated = solve_killing_halfspace(model, rep, cand.lam, 2, 2)
                assert len(saturated) == len(sols), "window growth changed the dimension"
                combined += len(sols)
            elapsed = time.perf_counter() - started
            assert combined >= N
            assert elapsed < 60.0
            lines.append("n=%d r=%s: dim %d >= %d in %.2fs" % (n, r, combined, N, elapsed))
    _report(8, True, "; ".join(lines))


def test_criterion_9_invariant_solver_negative():
    for n in (2, 3, 4):
        for r in (F(1, 2), F(1)):
            model = HalfSpaceModel(n, (1,) * n, r)
            rep = model.clifford_rep()
            report = solve_invariant_killing(model.algebra, rep)
            assert len(report.candidates) == 2
            for cand in report.candidates:
                assert cand.kernel_basis == ()
            # oracle: the t-direction operator is exactly -lambda gamma_t,
            # which is invertible, so lambda psi = 0 forces psi = 0
            from solvspin.killing import invariant_spin_connection

            ops = invariant_spin_connection(model.algebra, rep)
            assert all(x == 0 for row in ops[-1] for x in row)
            det_free = clifford_violations(rep) == []
            assert det_free
    _report(9, True,
            "invariant solver returns empty kernels on every half-space model; the "
            "t-direction equation reduces to -lambda gamma_t psi = 0 with gamma_t invertible")


def test_criterion_10_scalar_identity_on_einstein_extensions():
    produced = []
    candidates = [
        heisenberg3(),
        heisenberg3(signs=(1, 1, -1)),
        MetricLieAlgebra(
            LieAlgebra.from_brackets(5, {(0, 1): {4: F(1)}, (2, 3): {4: F(1)}}),
            (1, 1, 1, 1, 1)),
        MetricLieAlgebra(
            LieAlgebra.from_brackets(4, {(0, 1): {2: F(1)}, (0, 2): {3: F(1)}}),
            (1, 1, 1, 1)),
        abelian_metric((1, 1)),  # via explicit identity derivation below
    ]
    for M in candidates[:-1]:
        try:
            ext, decomp, _ = einstein_extension(M)
        except ValueError:
            continue
        _check_scalar_identity(ext)
        produced.append(ext.dim)
    # abelian case: extend by the identity derivation directly
    ext, _ = extend_by_derivation(abelian_metric((1, 1)), identity(2), 1)
    assert einstein_check(ext) is not None
    _check_scalar_identity(ext)
    produced.append(ext.dim)
    assert len(produced) >= 3
    _report(10, True,
            "s = 4 dim (dim-1) lambda^2 holds exactly in the scalar tower for every "
            "Einstein extension produced (dims %s)" % produced)


def _check_scalar_identity(ext):
    s = ricci(ext).scalar
    n = ext.dim
    cands = lambda_candidates(ext)
    assert cands, "Einstein extension must have nonzero scalar curvature"
    for cand in cands:
        assert cand.lam * cand.lam * 4 * n * (n - 1) == s
