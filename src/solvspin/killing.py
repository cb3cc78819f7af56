"""Invariant Killing spinor solver, Ricci filter, and the pseudo-Iwasawa
classifier.

The classifier runs the obstruction chain for arbitrary (not necessarily
invariant) Killing spinors on a pseudo-Iwasawa solvmanifold: nilradical
abelian, Killing constant realizable, phi_alpha squared to a multiple of the
identity, abelian rank one, trace normalization, and finally phi_0 a scalar.
A metric that passes everything is the hyperbolic half-space H^eps_r with
r = 1/(2|lambda|); the solver, in contrast, handles only invariant spinors,
whose equation is a finite linear system on the fiber.

The solver and the classifier read the Levi-Civita connection, the Ricci
data and the Killing constants the metric algebra caches
(`MetricLieAlgebra.connection`, `.ricci_data` and `.lambda_candidates`), so a
second solve of the same algebra derives none of them again.  A rational
lambda is a Fraction, as every rational value the package builds is, and the
zeros of a solution spinor are Fraction(0).
One solve computes the Ricci filter, which depends on lambda^2 only, once.
Each per-direction operator nabla_{e_i} - lambda gamma_i is one Clifford
element, the spin-lift terms of that direction's nonzero Gamma entries plus
the term -lambda gamma_i, and `clifford.clifford_rows` turns it into sparse
rows {column: coefficient} with no dense nabla matrix.  The solve adds one
direction at a time, fewest Gamma entries first, and stops at the first
empty kernel: a direction with
nabla_{e_i} = 0 (the abelian direction of a pseudo-Iwasawa algebra) has the
equation -lambda gamma_i psi = 0 alone, which forces psi = 0, so a
half-space or an Einstein extension builds one direction per branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exact import format_rational, to_dict, to_rational
from .clifford import CliffordRep, clifford_rows, dense_rows, gamma_of_vector_rows, skew_lift_terms
from .liealg import LambdaCandidate, MetricLieAlgebra, StandardDecomposition, check_standard, restrict, trace
from .linalg import (
    F0,
    identity,
    mat_equal,
    mat_mul,
    mat_scale,
    normalize_vector,
    sparse_nullspace,
)


def lambda_candidates(M: MetricLieAlgebra) -> list[LambdaCandidate]:
    """Possible Killing constants from the scalar curvature identity
    s = 4 n (n-1) lambda^2, branch +1 then -1: the candidates the metric
    algebra derives once and keeps (`MetricLieAlgebra.lambda_candidates`).

    s = 0 yields no candidates, and a dimension below 2 raises ValueError.
    """
    return list(M.lambda_candidates)


def check_signature(M, rep: CliffordRep) -> None:
    """Raise ValueError unless rep was built for the signature of M (anything with `signs`)."""
    if tuple(rep.signs) != tuple(M.signs):
        raise ValueError("representation signature does not match the metric")


def _connection_entries(M: MetricLieAlgebra, rep: CliffordRep) -> list[list[tuple]]:
    """The Gamma entries (k, j, Gamma_ijk) of nabla_{e_i}, per direction i.

    nabla_{e_i} has Gamma_ijk at row k, column j.  Its metric-skewness, which
    makes `skew_lift_terms` of these entries its spin lift, is the
    metric-compatibility condition `levi_civita` checked on the same entries.
    """
    check_signature(M, rep)
    by_direction = [[] for _ in range(M.dim)]
    for i, j, k, v in M.connection:
        by_direction[i].append((k, j, v))
    return by_direction


def invariant_spin_connection(M: MetricLieAlgebra, rep: CliffordRep) -> list[tuple]:
    """Spinor-space operator of nabla_{e_i} on invariant spinors, per direction.

    For constant coefficients the derivative term drops and the operator is
    the spin lift of the metric-skew endomorphism nabla_{e_i}, that is
    (1/4) sum_j eps_j gamma_j gamma(nabla_{e_i} e_j), as a dense matrix.
    """
    return [dense_rows(clifford_rows(rep, skew_lift_terms(rep, entries)))
            for entries in _connection_entries(M, rep)]


def _operator_rows(rep: CliffordRep, i: int, entries, lam) -> list[dict]:
    """Sparse rows of nabla_{e_i} - lam gamma_i from the Gamma entries of direction i."""
    return clifford_rows(rep, [*skew_lift_terms(rep, entries), ((i,), -lam)])


def killing_operator_rows(M: MetricLieAlgebra, rep: CliffordRep, lam) -> list[list[dict]]:
    """Sparse rows {column: coefficient} of nabla_{e_i} - lam gamma_i, per direction i."""
    return [_operator_rows(rep, i, entries, lam)
            for i, entries in enumerate(_connection_entries(M, rep))]


@dataclass(frozen=True)
class CandidateResult:
    candidate: LambdaCandidate
    kernel_basis: tuple          # invariant solutions, each a spinor tuple
    ricci_filter_dimension: int


@dataclass(frozen=True)
class KillingReport:
    """Invariant-spinor solve; non-invariant spinors are out of its scope."""

    candidates: tuple

    def to_json_dict(self) -> dict:
        return {
            "invariant_only": True,
            "candidates": [
                {
                    "branch": c.candidate.branch,
                    "lambda": to_dict(c.candidate.lam),
                    "lambda_squared": format_rational(c.candidate.lam_squared),
                    "kernel_dimension": len(c.kernel_basis),
                    "ricci_filter_dimension": c.ricci_filter_dimension,
                    "basis": [[to_dict(x) for x in psi] for psi in c.kernel_basis],
                }
                for c in self.candidates
            ],
        }


def solve_invariant_killing(M: MetricLieAlgebra, rep: CliffordRep) -> KillingReport:
    """Joint kernel of (nabla_{e_i} - lambda gamma_i) over all frame directions.

    The Ricci filter (a function of lambda^2, which both branches share) is
    computed once.  Per branch the directions join the equations one at a
    time, fewest Gamma entries first, and the first empty kernel ends the
    branch: the kernel of the whole stack lies inside it.  A kernel that survives every direction was solved from
    all the rows, and each of its basis spinors is re-substituted into every
    row; exact arithmetic throughout.
    """
    by_direction = _connection_entries(M, rep)
    order = sorted(range(M.dim), key=lambda i: len(by_direction[i]))
    cands = lambda_candidates(M)
    filter_dim = ricci_filter(M, rep, cands[0].lam) if cands else None
    N = rep.spinor_dim
    results = []
    for cand in cands:
        eqs = []
        for i in order:
            eqs += _operator_rows(rep, i, by_direction[i], cand.lam)
            kernel = sparse_nullspace(eqs, N)
            if not kernel:
                break
        basis = []
        for v in kernel:
            psi = [F0] * N
            for j, x in normalize_vector(v).items():
                psi[j] = x
            for row in eqs:
                if not sum((c * psi[j] for j, c in row.items()), F0) == 0:
                    raise RuntimeError("solver returned a non-solution spinor")
            basis.append(tuple(psi))
        results.append(CandidateResult(cand, tuple(basis), filter_dim))
    return KillingReport(tuple(results))


def ricci_filter(M: MetricLieAlgebra, rep: CliffordRep, lam) -> int:
    """Dimension of {psi : (Ric(X) - 4(n-1) lambda^2 X).psi = 0 for all X}.

    Any Killing spinor with constant lambda lies in this space pointwise, so
    the dimension upper-bounds existence, invariant or not.  Column i of
    B = Ric - kappa id, kappa = 4(n-1) lambda^2, is tested for zero by
    comparing the Ricci operator with kappa id, and its vector and gamma rows
    are formed only when it is nonzero; an Einstein input at its own lambda
    builds no rows, and the filter is the whole fiber.
    """
    check_signature(M, rep)
    n = M.dim
    op = M.ricci_data.operator
    rows = []
    kappa = 4 * (n - 1) * to_rational(lam * lam)
    for i in range(n):
        if op[i][i] == kappa and all(op[k][i] == 0 for k in range(n) if k != i):
            continue
        w = [op[k][i] for k in range(n)]
        w[i] -= kappa
        rows.extend(gamma_of_vector_rows(rep, w))
    return len(sparse_nullspace(rows, rep.spinor_dim))


def phi_square_check(M: MetricLieAlgebra, decomp: StandardDecomposition, lam_sq: Fraction) -> list[bool]:
    """Per-alpha exact test of phi_alpha^2 = -4 eps_alpha lambda^2 id."""
    out = []
    for a, phi in zip(decomp.abelian_indices, decomp.phi):
        target = mat_scale(-4 * M.signs[a] * lam_sq, identity(len(phi)))
        out.append(mat_equal(mat_mul(phi, phi), target))
    return out


def absurd_count_has_solutions(bound: int = 64) -> bool:
    """Exhaustively test (n+k)(n+k-1) = nk for 1 <= n, k <= bound."""
    for n in range(1, bound + 1):
        for k in range(1, bound + 1):
            if (n + k) * (n + k - 1) == n * k:
                return True
    return False


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class Verdict:
    kind: str                       # HyperbolicHalfSpace | NoKillingSpinor | NotApplicable
    reason: str = ""
    r: Optional[Fraction] = None
    epsilon: Optional[tuple] = None
    sign_flipped: bool = False


@dataclass(frozen=True)
class ObstructionReport:
    verdict: Verdict
    checks: tuple

    def to_json_dict(self) -> dict:
        v = {"kind": self.verdict.kind}
        if self.verdict.reason:
            v["reason"] = self.verdict.reason
        if self.verdict.r is not None:
            v["r"] = format_rational(self.verdict.r)
        if self.verdict.epsilon is not None:
            v["epsilon"] = list(self.verdict.epsilon)
        if self.verdict.kind == "HyperbolicHalfSpace":
            v["sign_flipped"] = self.verdict.sign_flipped
        return {
            "verdict": v,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }


def classify_pseudo_iwasawa(M: MetricLieAlgebra, decomp: StandardDecomposition) -> ObstructionReport:
    """Decide whether a pseudo-Iwasawa solvmanifold can carry a Killing spinor.

    Follows the obstruction chain of the classification proof; the only
    positive verdict is the hyperbolic half-space H^eps_r with r = 1/(2|lambda|),
    where every fiber spinor extends to a (non-invariant) Killing spinor.
    """
    checks: list[Check] = []

    def passes(name: str, passed: bool, detail: str = "") -> bool:
        checks.append(Check(name, passed, detail))
        return passed

    def verdict(kind: str, reason: str = "", **found) -> ObstructionReport:
        return ObstructionReport(Verdict(kind, reason, **found), tuple(checks))

    std = check_standard(M, decomp)
    if not passes("pseudo_iwasawa", std.is_pseudo_iwasawa, "; ".join(std.failures)):
        return verdict("NotApplicable", "not a pseudo-Iwasawa standard decomposition")
    nil, ab = decomp.nil_indices, decomp.abelian_indices
    ng, k = len(nil), len(ab)
    if not passes("nilradical_abelian", not restrict(M, nil).algebra.brackets):
        return verdict("NoKillingSpinor", "g non-abelian")
    s = to_rational(M.ricci_data.scalar)
    # s = 0 exits before lambda_candidates: a 1-dimensional input gets this verdict, not an error
    if not passes("lambda_candidates", s != 0, "scalar curvature %s" % format_rational(s)):
        return verdict("NoKillingSpinor", "no lambda candidate (scalar curvature is zero)")
    lam_sq = lambda_candidates(M)[0].lam_squared
    if k > 1:
        sq_ok = phi_square_check(M, decomp, lam_sq)
        if not passes("phi_square", all(sq_ok), "per-alpha results %s" % sq_ok):
            return verdict("NoKillingSpinor", "phi_alpha^2 != -4 eps_alpha lambda^2 id")
        passes("abelian_rank", False,
               "dim a = %d > 1: (n+k)(n+k-1) = nk has no solutions, since "
               "(n+k)(n+k-1) - nk = n(n-1) + k(k-1) + nk > 0" % k)
        return verdict("NoKillingSpinor",
                       "dim a = %d > 1: (n+k)(n+k-1) = nk has no integer solutions" % k)
    # k = 1: trace normalization precedes the phi tests, mirroring the proof
    eps0 = M.signs[ab[0]]
    phi0 = decomp.phi[0]
    tr_phi = to_rational(trace(phi0))
    required_sq = -eps0 * (s - 4 * lam_sq * ng)
    squares = (format_rational(tr_phi * tr_phi), format_rational(required_sq))
    if not passes("trace_identity", tr_phi * tr_phi == required_sq,
                  "(Tr phi_0)^2 = %s, identity needs %s" % squares):
        return verdict("NoKillingSpinor", "trace identity fails: (Tr phi_0)^2 = %s != %s" % squares)
    if not passes("phi_square", all(phi_square_check(M, decomp, lam_sq))):
        return verdict("NoKillingSpinor", "phi_0^2 != -4 eps_0 lambda^2 id")
    # eigenvalues are +-1/r with 1/r^2 = -4 eps_0 lambda^2; with lambda^2 =
    # s/(4n(n-1)) the trace identity reads (Tr phi_0)^2 = -4 eps_0 lambda^2 ng^2,
    # so Tr phi_0 != 0, r = ng/|Tr phi_0| = 1/(2|lambda|), and all eigenvalues
    # are equal: phi_0 must be +-(1/r) id exactly
    flipped = tr_phi < 0
    r = Fraction(ng) / abs(tr_phi)
    target = mat_scale(Fraction(-1 if flipped else 1) / r, identity(ng))
    if not passes("phi_scalar", mat_equal(phi0, target),
                  "phi_0 == +-(1/r) id with r = %s" % format_rational(r)):
        return verdict("NoKillingSpinor", "phi_0 is not +-(1/r) id")
    epsilon = tuple(M.signs[i] for i in nil) + (eps0,)
    return verdict("HyperbolicHalfSpace", r=r, epsilon=epsilon, sign_flipped=bool(flipped))
