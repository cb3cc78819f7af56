"""Metric Lie algebras: connection, curvature, Ricci, standard decompositions,
nilsoliton solving and the Einstein extension construction.

Frames are always pseudo-orthonormal: the metric is diag(eps_1, ..., eps_n)
with eps_i = +-1.  A `LieAlgebra` stores its structure constants as the
sorted list of nonzero entries (i, j, k, c) with [e_i, e_j] = ... + c e_k,
both orders of each pair, in the way a `CliffordRep` stores its gammas as
permutations and phases; the dense n x n x n table `structure` is a view
derived from that list for tests and callers that want it.  Entries may be
Fractions or TowerScalars, and every operation below is generic over both;
every zero test is exact.

The geometry reads the entries only, and returns entries in the same way.
`_koszul_numerators` scatters each nonzero c_ijk into the three slots of the
Koszul formula and checks the result; `levi_civita` returns the sorted nonzero
(i, j, k, Gamma_ijk) read off it; `curvature` returns the sorted nonzero
(i, j, k, l, R) with i < j; `ricci` contracts the Gamma entries itself.  Each
sums over pairs of nonzero entries, and none forms a dense table, an ad or
nabla matrix, or the n^4 Riemann tensor.

The Koszul scatter, its check, the curvature sums and the Ricci contraction
run on numerators over one denominator, for every scalar type: c = C / D with
D the common denominator of the entries, C an int when c is rational and the
TowerScalar with those integer parts otherwise; Gamma is written over q = 2D
and curvature and Ricci over q^2.  Each stored Gamma entry and each nonzero
curvature and Ricci entry is read back once, a Fraction when it is rational.
So is every value `ricci_standard`, `nilsoliton_solve` and `symmetric_part`
return: the block sums, lambda, the diagonal of D and each (f + f*)/2.

The numerators, the connection, the Ricci data and the Killing constants are
properties of the metric algebra: `MetricLieAlgebra._koszul`, `.connection`,
`.ricci_data` and `.lambda_candidates` compute them on first use and keep
them, and every other caller reads those.  The Killing constants
lambda = +-sqrt(s / (4 n (n-1))) come from the cached scalar curvature s, so
lambda is derived once per algebra, a Fraction when it is rational.  Zeros in
the dense views and results are Fraction(0).  The standard
decompositions read the entries too: phi_alpha and the mixed Ricci block come
straight from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Optional, Sequence

from .exact import common_numerators, from_numerators, scaled, sqrt_to_tower, to_rational
from .linalg import (
    _sparse_echelon,
    add_scaled,
    mat_equal,
    mat_mul,
    mat_from_rows,
    mat_scale,
    mat_sub,
    zeros,
)

F0 = Fraction(0)
F1 = Fraction(1)
HALF = Fraction(1, 2)


class StructureError(ValueError):
    """Ill-formed structure constants (duplicates, antisymmetry, Jacobi)."""


class NotStandardError(ValueError):
    """The given index split is not a standard decomposition."""


class DerivationError(ValueError):
    """An endomorphism fails the derivation or symmetry requirement."""


@dataclass(frozen=True)
class LieAlgebra:
    """Structure constants in a fixed frame, stored as their nonzero entries.

    `brackets` holds (i, j, k, c) for every nonzero c = c_ij^k, both orders
    of each pair, sorted by (i, j, k); antisymmetry is checked.  The dense
    `structure` table is a view built from it on first use.
    """

    dim: int
    brackets: tuple

    def __post_init__(self):
        n = self.dim
        entries = {}
        for i, j, k, c in self.brackets:
            if not c:
                continue
            if not (0 <= i < n and 0 <= j < n and 0 <= k < n) or i == j:
                raise StructureError("bracket entry (%d, %d, %d) out of range" % (i, j, k))
            if (i, j, k) in entries:
                raise StructureError("duplicate bracket entry (%d, %d, %d)" % (i, j, k))
            entries[(i, j, k)] = c
        for (i, j, k), c in entries.items():
            if (j, i, k) not in entries or not entries[(j, i, k)] == -c:
                raise StructureError("bracket entries (%d, %d, %d) are not antisymmetric" % (i, j, k))
        object.__setattr__(self, "brackets", tuple(
            (i, j, k, entries[i, j, k]) for i, j, k in sorted(entries)))

    @classmethod
    def from_brackets(cls, dim: int, brackets: dict) -> "LieAlgebra":
        """Build from {(i, j): {k: coeff}} with 0-based i < j."""
        entries = {}
        for (i, j), comps in brackets.items():
            if not (0 <= i < j < dim):
                raise StructureError("bracket pair (%d, %d) needs 0 <= i < j < dim" % (i, j))
            items = comps.items() if isinstance(comps, dict) else comps
            for k, coeff in items:
                if not (0 <= k < dim):
                    raise StructureError("component index %d out of range" % k)
                entries[(i, j, k)] = coeff
        return cls(dim, [e for (i, j, k), c in entries.items()
                         for e in ((i, j, k, c), (j, i, k, -c))])

    @classmethod
    def abelian(cls, dim: int) -> "LieAlgebra":
        return cls(dim, ())

    @cached_property
    def structure(self) -> tuple:
        """Dense view: structure[i][j][k] = coefficient of e_k in [e_i, e_j]."""
        n = self.dim
        c = [[[F0] * n for _ in range(n)] for _ in range(n)]
        for i, j, k, v in self.brackets:
            c[i][j][k] = v
        return tuple(tuple(tuple(row) for row in plane) for plane in c)


def _pairs(entries) -> dict:
    """{(i, j): {k: x}} over stored entries (i, j, k, x): bracket rows or connection rows."""
    out = {}
    for i, j, k, x in entries:
        out.setdefault((i, j), {})[k] = x
    return out


def jacobi_check(L: LieAlgebra) -> list[tuple[int, int, int]]:
    """Triples (i, j, k), i < j < k, where the Jacobi identity fails.

    [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j] can be nonzero
    only if one of the three pairs brackets nontrivially, so only triples
    containing a nonzero pair are summed.
    """
    n = L.dim
    pairs = _pairs(L.brackets)
    triples = {tuple(sorted((i, j, k))) for i, j in pairs for k in range(n) if k != i and k != j}
    bad = []
    for i, j, k in sorted(triples):
        total = {}
        for a, b, d in ((i, j, k), (j, k, i), (k, i, j)):
            for m, x in pairs.get((a, b), {}).items():
                add_scaled(total, x, pairs.get((m, d), {}))
        if total:
            bad.append((i, j, k))
    return bad


def lower_central_series(L: LieAlgebra) -> tuple[list[int], bool]:
    """Dimensions of the descending series g, [g,g], [g,[g,g]], ...; nilpotency flag.

    Each term is spanned by the brackets [e_i, w], built by `add_scaled` as
    sparse rows {k: coefficient}, over the echelon rows w of the term before.
    """
    n = L.dim
    brackets = _pairs(L.brackets)
    dims = [n]
    current = [{i: F1} for i in range(n)]
    while True:
        gens = []
        for i in range(n):
            for w in current:
                v = {}
                for j, wj in w.items():
                    add_scaled(v, wj, brackets.get((i, j), {}))
                gens.append(v)
        echelon = _sparse_echelon(gens, n)
        dims.append(len(echelon))
        if not echelon:
            return dims, True
        if len(echelon) == dims[-2]:
            return dims, False
        current = [{pc: -F1} | row for pc, row in echelon.items()]


@dataclass(frozen=True)
class LambdaCandidate:
    """One branch of lambda = +-sqrt(s / (4 n (n-1)))."""

    lam: object            # a Fraction when rational, else a TowerScalar
    lam_squared: Fraction
    branch: int            # +1 or -1


@dataclass(frozen=True)
class MetricLieAlgebra:
    """Lie algebra plus a diagonal +-1 metric in the fixed frame.

    Its Levi-Civita `connection` and `ricci_data`, the checked Koszul
    numerators `_koszul` both are read from, and the `lambda_candidates` read
    from the Ricci data are computed on first use and kept, as
    `LieAlgebra.structure` is; the value is frozen, so they cannot go stale.
    """

    algebra: LieAlgebra
    signs: tuple

    def __post_init__(self):
        if len(self.signs) != self.algebra.dim:
            raise ValueError("signature length must match dimension")
        if any(s not in (1, -1) for s in self.signs):
            raise ValueError("signature entries must be +-1")

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @cached_property
    def _koszul(self) -> tuple:
        return _koszul_numerators(self)

    @cached_property
    def connection(self) -> tuple:
        return levi_civita(self)

    @cached_property
    def ricci_data(self) -> RicciData:
        return ricci(self)

    @cached_property
    def lambda_candidates(self) -> tuple:
        return killing_constants(self)


def killing_constants(M: MetricLieAlgebra) -> tuple:
    """The two LambdaCandidates, branch +1 then -1, from the scalar curvature
    identity s = 4 n (n-1) lambda^2; the one place lambda^2 and lambda are
    formed.

    The degenerate lambda = 0 case (parallel spinors) is excluded, so s = 0
    yields no candidates; a dimension below 2 raises ValueError.
    """
    n = M.dim
    if n < 2:
        raise ValueError("need dimension >= 2")
    s = to_rational(M.ricci_data.scalar)
    if s == 0:
        return ()
    lam_sq = s / (4 * n * (n - 1))
    root = sqrt_to_tower(lam_sq)
    return LambdaCandidate(root, lam_sq, 1), LambdaCandidate(-root, lam_sq, -1)


def metric_transpose(f, signs) -> tuple:
    """Metric transpose: g(f* v, w) = g(v, f w) for the diagonal metric."""
    n = len(signs)
    return tuple(
        tuple(signs[i] * signs[j] * f[j][i] for j in range(n)) for i in range(n)
    )


def symmetric_part(f, signs) -> tuple:
    """(f + f*) / 2, each entry read back by `exact.scaled`."""
    ft = metric_transpose(f, signs)
    return tuple(tuple(scaled([x + y for x, y in zip(row, row_t)], HALF)) for row, row_t in zip(f, ft))


def is_metric_symmetric(f, signs) -> bool:
    return mat_equal(f, metric_transpose(f, signs))


def trace(f):
    """Sum of the diagonal entries; Fraction(0) for a 0 x 0 matrix."""
    return sum((f[i][i] for i in range(1, len(f))), f[0][0]) if f else F0


def _accumulate(acc: dict, key, v):
    acc[key] = acc[key] + v if key in acc else v


def _sorted_entries(acc: dict) -> tuple:
    """(*key, v) for each nonzero entry of acc, sorted by key."""
    return tuple((*key, acc[key]) for key in sorted(acc) if acc[key])


def _koszul_numerators(M: MetricLieAlgebra) -> tuple:
    """The connection as numerators over one denominator: (gamma, q, brackets).

    c_ijk = C / D over the entries' common denominator D, C an int when c_ijk
    is rational and else the TowerScalar with those integer parts.  gamma
    holds the sorted (i, j, k, G) with Gamma_ijk = G / q, q = 2D, for every
    nonzero G, and brackets the (i, j, k, 2C), so c_ijk = 2C / q.

    Gamma_ijk = (c_ijk - eps_i eps_k c_jki + eps_j eps_k c_kij) / 2, so each
    nonzero c_abd lands in three slots: c/2 = C / q at (a, b, d), -eps_b eps_d
    c/2 at (d, a, b) and eps_a eps_d c/2 at (b, d, a).  The result is checked
    to be torsion-free and metric-compatible.  `MetricLieAlgebra` keeps it,
    and `levi_civita`, `ricci` and `curvature` read it.
    """
    eps = M.signs
    entries = M.algebra.brackets
    nums, den, m = common_numerators([e[3] for e in entries])
    cs = [a if not (b or c or d) else from_numerators(a, b, c, d, 1, m) for a, b, c, d in nums]
    acc = {}
    for (a, b, d, _), h in zip(entries, cs):
        _accumulate(acc, (a, b, d), h)
        _accumulate(acc, (d, a, b), h if eps[b] != eps[d] else -h)
        _accumulate(acc, (b, d, a), h if eps[a] == eps[d] else -h)
    gamma = _sorted_entries(acc)
    brackets = tuple((i, j, k, 2 * c) for (i, j, k, _), c in zip(entries, cs))
    _check_connection(eps, gamma, brackets)
    return gamma, 2 * den, brackets


def _over(x, q: int):
    """The numerator x over q: a Fraction when it is rational, else a TowerScalar."""
    if type(x) is int:
        return Fraction(x, q)
    return scaled([x], Fraction(1, q))[0]


def levi_civita(M: MetricLieAlgebra) -> tuple:
    """Connection from the Koszul formula on the structure constants.

    Returns (i, j, k, Gamma_ijk), with nabla_{e_i} e_j = sum_k Gamma_ijk e_k,
    for every nonzero Gamma_ijk, sorted by (i, j, k), as
    `LieAlgebra.brackets` stores the c_ijk.  The entries are read off the
    checked numerators of `_koszul_numerators`, each a Fraction when it is
    rational.
    """
    gamma, q, _ = M._koszul
    return tuple((i, j, k, _over(x, q)) for i, j, k, x in gamma)


def _check_connection(eps: tuple, gamma: tuple, brackets: tuple):
    """Raise StructureError unless gamma is metric-compatible and torsion-free.

    gamma and brackets are numerators as `_koszul_numerators` returns them,
    Gamma_ijk = G / q and c_ijk = B / q, so both conditions compare
    numerators over q.  Both are checked at every index triple where they
    read a nonzero entry.  At any other triple they read 0 eps_k + 0 eps_j = 0
    and 0 - 0 = 0 = c_ijk, which hold, so this is the full n^3 check.  The metric condition at (i, k, j) is the one at
    (i, j, k), so the nonzero Gamma_ijk cover it; the torsion condition also
    runs at (j, i, k) and wherever c_ijk is nonzero.
    """
    g = {(i, j, k): v for i, j, k, v in gamma}
    c = {(i, j, k): x for i, j, k, x in brackets}
    # metric compatibility: g(nabla_i e_j, e_k) + g(e_j, nabla_i e_k) = 0
    for (i, j, k), v in g.items():
        if not (v * eps[k] + g.get((i, k, j), 0) * eps[j]) == 0:
            raise StructureError("connection is not metric-compatible")
    # zero torsion: nabla_i e_j - nabla_j e_i = [e_i, e_j]
    triples = set(g)
    triples.update([(j, i, k) for i, j, k in triples])
    triples.update(c)
    for i, j, k in triples:
        if not (g.get((i, j, k), 0) - g.get((j, i, k), 0)) == c.get((i, j, k), 0):
            raise StructureError("connection has torsion")


def curvature(M: MetricLieAlgebra) -> tuple:
    """(i, j, k, l, R) with i < j, R the coefficient of e_l in R(e_i, e_j) e_k.

    R(x, y) = nabla_x nabla_y - nabla_y nabla_x - nabla_{[x, y]}, so

        R_ijkl = sum_m (Gamma_jkm Gamma_iml - Gamma_ikm Gamma_jml) - sum_p c_ijp Gamma_pkl,

    summed over the pairs of Gamma entries that meet at m and over the
    brackets.  The sums run on the numerators of `_koszul_numerators`: with
    Gamma = G / q and c = B / q, R is written over q^2, and each entry is read
    back as a Fraction when it is rational.  Sorted by (i, j, k, l), with no
    zero entry.
    """
    gamma, q, brackets = M._koszul
    by_middle = {}     # m -> [(i, l, G_iml)]
    by_first = {}      # p -> [(k, l, G_pkl)]
    for i, m, l, v in gamma:
        by_middle.setdefault(m, []).append((i, l, v))
        by_first.setdefault(i, []).append((m, l, v))
    acc = {}
    for j, k, m, v in gamma:
        for i, l, w in by_middle.get(m, ()):
            if i < j:
                _accumulate(acc, (i, j, k, l), v * w)
            elif j < i:
                _accumulate(acc, (j, i, k, l), -(v * w))
    for i, j, p, c in brackets:
        if i < j:
            for k, l, w in by_first.get(p, ()):
                _accumulate(acc, (i, j, k, l), -(c * w))
    return tuple((i, j, k, l, _over(x, q * q)) for i, j, k, l, x in _sorted_entries(acc))


@dataclass(frozen=True)
class RicciData:
    ric: tuple        # symmetric bilinear form, ric[i][j]
    operator: tuple   # Ric with g(Ric v, w) = ric(v, w)
    scalar: object    # s = sum_i eps_i ric(e_i, e_i)


def _ricci_from_numerators(acc: dict, q2: int, signs) -> RicciData:
    """RicciData from numerators acc {(y, z): N} over q2: one value read back per
    nonzero entry, the operator from those values and their negatives, and
    the scalar from the diagonal numerators.  With q2 = 1 the N are values,
    each read back as it is (`ricci_standard`); every RicciData is built here."""
    n = len(signs)
    vals = {key: _over(x, q2) for key, x in acc.items() if x}
    ric = tuple(tuple(vals.get((y, z), F0) for z in range(n)) for y in range(n))
    # row k of the operator is eps_k times column k of ric
    op = tuple(col if signs[k] > 0 else tuple(x if x is F0 else -x for x in col)
               for k, col in enumerate(zip(*ric)))
    s = _over(sum(signs[i] * acc.get((i, i), 0) for i in range(n)), q2)
    return RicciData(ric, op, s)


def ricci(M: MetricLieAlgebra) -> RicciData:
    """Ricci tensor ric(y, z) = sum_i R[i][y][z][i], contracted from Gamma.

    With tr_m = sum_i Gamma_imi, writing out the trace of
    R(e_i, e_y) = nabla_i nabla_y - nabla_y nabla_i - nabla_[e_i, e_y] gives

        ric(y, z) = sum_m Gamma_yzm tr_m - sum_{i,m} Gamma_izm Gamma_ymi
                    - sum_{i,p} c_iyp Gamma_pzi,

    and each sum runs over pairs of nonzero entries only.  The sums run on
    the numerators of `_koszul_numerators`: with Gamma = G / q and
    c = B / q, ric is written over q^2, and each nonzero entry is read back
    once, a Fraction when it is rational.

    The sign convention makes heis3 with the definite metric give
    ric = diag(-1/2, -1/2, 1/2) and hyperbolic models a negative Einstein
    constant.
    """
    g, q, brackets = M._koszul
    tr = {}
    by_jk = {}         # (j, k) -> [(i, G_ijk)]
    by_ik = {}         # (i, k) -> [(j, G_ijk)]
    for i, j, k, v in g:
        if i == k:
            _accumulate(tr, j, v)
        by_jk.setdefault((j, k), []).append((i, v))
        by_ik.setdefault((i, k), []).append((j, v))
    acc = {}
    for y, z, m, v in g:
        if m in tr:
            _accumulate(acc, (y, z), v * tr[m])
    for i, z, m, v in g:
        for y, w in by_jk.get((m, i), ()):
            _accumulate(acc, (y, z), -(v * w))
    for i, y, p, c in brackets:
        for z, w in by_ik.get((p, i), ()):
            _accumulate(acc, (y, z), -(c * w))
    return _ricci_from_numerators(acc, q * q, M.signs)


# ---------------------------------------------------------------------------
# standard decompositions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StandardDecomposition:
    """Frame split into a nilpotent-ideal part and an abelian part.

    phi[alpha] is the matrix of phi_alpha = -ad e_alpha restricted to the
    nilpotent part, written in nil-index order: phi_alpha[p][q] is
    -c(e_alpha, e_nil[q], e_nil[p]), read from the stored bracket entries.
    """

    nil_indices: tuple
    abelian_indices: tuple
    phi: tuple


def standard_decomposition(M: MetricLieAlgebra, abelian_indices: Sequence[int]) -> StandardDecomposition:
    n = M.dim
    ab = tuple(sorted(abelian_indices))
    nil = tuple(i for i in range(n) if i not in set(ab))
    if set(ab) | set(nil) != set(range(n)) or len(set(ab)) != len(ab):
        raise NotStandardError("index split must partition the frame")
    pos = {i: p for p, i in enumerate(nil)}
    ab_pos = {a: t for t, a in enumerate(ab)}
    phis = [[[F0] * len(nil) for _ in nil] for _ in ab]
    for a, j, k, c in M.algebra.brackets:
        if a in ab_pos and j in pos and k in pos:
            phis[ab_pos[a]][pos[k]][pos[j]] = -c
    return StandardDecomposition(nil, ab, tuple(mat_from_rows(phi) for phi in phis))


def restrict(M: MetricLieAlgebra, indices: Sequence[int]) -> MetricLieAlgebra:
    """Metric subalgebra spanned by the given frame indices (must close)."""
    idx = list(indices)
    pos = {i: p for p, i in enumerate(idx)}
    entries = []
    for i, j, k, coeff in M.algebra.brackets:
        if i in pos and j in pos:
            if k not in pos:
                raise NotStandardError(
                    "span of indices %r does not close under the bracket" % (idx,))
            entries.append((pos[i], pos[j], pos[k], coeff))
    alg = LieAlgebra(len(idx), entries)
    return MetricLieAlgebra(alg, tuple(M.signs[i] for i in idx))


@dataclass(frozen=True)
class StandardReport:
    is_standard: bool
    is_pseudo_iwasawa: bool
    failures: tuple


def check_standard(M: MetricLieAlgebra, decomp: StandardDecomposition) -> StandardReport:
    failures = []
    n = M.dim
    nil, ab = decomp.nil_indices, decomp.abelian_indices
    if sorted(nil + ab) != list(range(n)):
        return StandardReport(False, False, ("index split must partition the frame",))
    nil_set, ab_set = set(nil), set(ab)
    # a abelian
    pairs = dict.fromkeys((a, b) for a, b, _, x in M.algebra.brackets
                          if a in ab_set and b in ab_set)
    failures.extend("abelian part brackets nontrivially: [e_%d, e_%d] != 0" % p for p in pairs)
    # g an ideal: [anything, g] stays in g
    for i, j, k, x in M.algebra.brackets:
        if j in nil_set and k not in nil_set:
            failures.append("nil part is not an ideal: [e_%d, e_%d] leaks to e_%d" % (i, j, k))
    if not failures and nil and not lower_central_series(restrict(M, nil).algebra)[1]:
        failures.append("nil part is not nilpotent")
    is_standard = not failures
    is_pi = is_standard
    if is_standard:
        nil_signs = tuple(M.signs[i] for i in nil)
        for a_pos, a in enumerate(ab):
            if not is_metric_symmetric(decomp.phi[a_pos], nil_signs):
                is_pi = False
                failures.append("phi_%d is not metric-symmetric" % a)
    return StandardReport(is_standard, is_pi, tuple(failures))


def ricci_standard(M: MetricLieAlgebra, decomp: StandardDecomposition) -> RicciData:
    """Ricci of the full metric from nil-level data and the phi_alpha maps.

    Implements the three block formulas relating ric of the nilpotent part to
    ric of the whole algebra, whose sums `_ricci_from_numerators` reads back
    over q2 = 1; raises NotStandardError when the decomposition does not
    validate.
    """
    report = check_standard(M, decomp)
    if not report.is_standard:
        raise NotStandardError("not a standard decomposition: %s" % "; ".join(report.failures))
    nil, ab = decomp.nil_indices, decomp.abelian_indices
    nil_signs = tuple(M.signs[i] for i in nil)
    ng = len(nil)
    sub = restrict(M, nil)
    ric_g = sub.ricci_data.ric if ng else ()
    ric = {}
    phi_star = [metric_transpose(p, nil_signs) for p in decomp.phi]
    phi_sym = [symmetric_part(p, nil_signs) for p in decomp.phi]
    comm = [mat_sub(mat_mul(p, ps), mat_mul(ps, p)) for p, ps in zip(decomp.phi, phi_star)]
    tr = [trace(p) for p in decomp.phi]
    # nil block
    for p in range(ng):
        for q in range(ng):
            acc = ric_g[p][q]
            for a_pos, a in enumerate(ab):
                eps_a = M.signs[a]
                acc = acc + HALF * eps_a * _inner_entry(comm[a_pos], p, q, nil_signs)
                acc = acc - eps_a * tr[a_pos] * _inner_entry(phi_sym[a_pos], p, q, nil_signs)
            ric[nil[p], nil[q]] = acc
    # mixed block: ric(v, e_alpha) = (1/2) Tr(ad v o phi_alpha*), where
    # Tr(ad e_p o phi_alpha*) = sum_jk c_pjk phi_alpha*[j][k] over the nil entries
    for a_pos, a in enumerate(ab):
        tr_ad = [F0] * ng
        for p, j, k, c in sub.algebra.brackets:
            tr_ad[p] = tr_ad[p] + c * phi_star[a_pos][j][k]
        for p in range(ng):
            ric[nil[p], a] = ric[a, nil[p]] = HALF * tr_ad[p]
    # abelian block: ric(e_alpha, e_beta) = -Tr(phi_alpha^s o phi_beta)
    for a_pos, a in enumerate(ab):
        for b_pos, b in enumerate(ab):
            ric[a, b] = -trace(mat_mul(phi_sym[a_pos], decomp.phi[b_pos]))
    return _ricci_from_numerators(ric, 1, M.signs)


def _inner_entry(f, p, q, signs):
    """g(f e_p, e_q) for the diagonal metric on the subframe."""
    return signs[q] * f[q][p]


def standard_connection_identities(M: MetricLieAlgebra, decomp: StandardDecomposition) -> list[str]:
    """Check the four pseudo-Iwasawa connection identities entrywise.

    Returns failure descriptions (empty when all hold): nabla_{e_alpha} = 0 on
    everything, nabla_w e_alpha = phi_alpha w, and nabla_w v differing from the
    nil-level connection only by -sum_alpha g(phi_alpha w, v) eps_alpha e_alpha.
    """
    nil, ab = decomp.nil_indices, decomp.abelian_indices
    nil_signs = tuple(M.signs[i] for i in nil)
    conn = _pairs(M.connection)
    sub_conn = _pairs(restrict(M, nil).connection)
    fails = []
    for a in ab:
        for j in range(M.dim):
            if not _same_row(conn.get((a, j), {}), {}):
                fails.append("nabla_{e_%d} e_%d != 0" % (a, j))
    for w_pos, w in enumerate(nil):
        for a_pos, a in enumerate(ab):
            want = {v: decomp.phi[a_pos][p][w_pos] for p, v in enumerate(nil)}
            if not _same_row(conn.get((w, a), {}), want):
                fails.append("nabla_{e_%d} e_%d != phi_%d e_%d" % (w, a, a, w))
    for w_pos, w in enumerate(nil):
        for v_pos, v in enumerate(nil):
            want = {nil[k]: x for k, x in sub_conn.get((w_pos, v_pos), {}).items()}
            for a_pos, a in enumerate(ab):
                # sum_p eps_p phi_alpha[p][w] g(e_p, e_v) has the single term p = v
                want[a] = -M.signs[a] * nil_signs[v_pos] * decomp.phi[a_pos][v_pos][w_pos]
            if not _same_row(conn.get((w, v), {}), want):
                fails.append("nabla_{e_%d} e_%d mixed-term identity fails" % (w, v))
    return fails


def _same_row(got: dict, want: dict) -> bool:
    """Two dicts {key: x} agree entrywise, a missing entry reading as 0."""
    return all(got.get(k, F0) == want.get(k, F0) for k in got.keys() | want.keys())


# ---------------------------------------------------------------------------
# nilsolitons and Einstein extensions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NilsolitonResult:
    lam: object
    derivation: tuple


def _derivation_sides(L: LieAlgebra, D) -> tuple[dict, dict]:
    """Both sides of D[e_i, e_j] = [D e_i, e_j] + [e_i, D e_j] for i < j.

    Each side is a dict {(i, j, k): coefficient of e_k}, summed over the
    nonzero brackets and the nonzero entries of D; a missing key is zero.
    """
    n = L.dim
    cols, rows = {}, {}   # D e_b = sum_a D[a][b] e_a
    for a in range(n):
        for b in range(n):
            d = D[a][b]
            if not d == 0:
                cols.setdefault(b, []).append((a, d))
                rows.setdefault(a, []).append((b, d))
    lhs, rhs = {}, {}
    for i, j, k, c in L.brackets:
        if i < j:
            for a, d in cols.get(k, ()):
                _accumulate(lhs, (i, j, a), d * c)
        for p, d in rows.get(i, ()):     # D[i][p] [e_i, e_j] in [D e_p, e_j]
            if p < j:
                _accumulate(rhs, (p, j, k), d * c)
        for q, d in rows.get(j, ()):     # D[j][q] [e_i, e_j] in [e_i, D e_q]
            if i < q:
                _accumulate(rhs, (i, q, k), d * c)
    return lhs, rhs


def is_derivation(L: LieAlgebra, D) -> bool:
    return _same_row(*_derivation_sides(L, D))


def nilsoliton_solve(M: MetricLieAlgebra) -> Optional[NilsolitonResult]:
    """Solve Ric = lam I + D with D a derivation, for nilpotent M.

    The derivation condition is affine in lam; a unique lam exists whenever the
    bracket is nonzero.  Returns None when no lam works; the abelian case
    returns lam = 0, D = 0 by convention.  lam and the diagonal of
    D = Ric - lam I are read back, each a Fraction when it is rational; the
    rest of D is the Ricci operator's.
    """
    L = M.algebra
    if jacobi_check(L):
        raise StructureError("Jacobi identity fails")
    _, nilpotent = lower_central_series(L)
    if not nilpotent:
        raise ValueError("nilsoliton_solve needs a nilpotent algebra")
    n = L.dim
    ric_op = M.ricci_data.operator
    # condition: Ric[x,y] + lam [x,y] = [Ric x, y] + [x, Ric y]
    coefs = {(i, j, k): c for i, j, k, c in L.brackets if i < j}
    lhs, rhs_sides = _derivation_sides(L, ric_op)
    pending = []  # (coef, rhs) with coef * lam = rhs
    for key in sorted(coefs.keys() | lhs.keys() | rhs_sides.keys()):
        coef = coefs.get(key, F0)
        rhs = rhs_sides.get(key, F0) - lhs.get(key, F0)
        if coef == 0:
            if not rhs == 0:
                return None
        else:
            pending.append((coef, rhs))
    if not pending:
        return NilsolitonResult(F0, zeros(n, n))
    coef0, rhs0 = pending[0]
    lam = _over(rhs0 / coef0, 1)
    for coef, rhs in pending[1:]:
        if not coef * lam == rhs:
            return None
    D = tuple(tuple(_over(x - lam, 1) if i == j else x for j, x in enumerate(row))
              for i, row in enumerate(ric_op))
    if not is_derivation(L, D):
        return None
    return NilsolitonResult(lam, D)


def extend_by_derivation(M: MetricLieAlgebra, D, eps0: int):
    """Append a frame vector acting by -D: the extension g x|_D R.

    The new vector sits at the last frame index with sign eps0, bracket
    [e_new, v] = -D v, so phi_new = D; the output is standard and, for
    metric-symmetric D, pseudo-Iwasawa.
    """
    if eps0 not in (1, -1):
        raise ValueError("eps0 must be +-1")
    L = M.algebra
    n = L.dim
    if not is_derivation(L, D):
        raise DerivationError("D is not a derivation")
    if not is_metric_symmetric(D, M.signs):
        raise DerivationError("D is not metric-symmetric")
    entries = list(L.brackets)
    for j in range(n):
        for k in range(n):
            if not D[k][j] == 0:
                entries += [(j, n, k, D[k][j]), (n, j, k, -D[k][j])]
    ext_alg = LieAlgebra(n + 1, entries)
    ext = MetricLieAlgebra(ext_alg, tuple(M.signs) + (eps0,))
    decomp = standard_decomposition(ext, (n,))
    return ext, decomp


def einstein_check(M: MetricLieAlgebra):
    """Return lam with ric = lam g (exact entrywise), or None: the Ricci
    operator is then lam times the identity, and lam its first diagonal entry."""
    op = M.ricci_data.operator
    n = len(op)
    lam = op[0][0] if n else None
    for i in range(n):
        for j in range(n):
            if not op[i][j] == (lam if i == j else 0):
                return None
    return lam


def einstein_extension(M: MetricLieAlgebra, eps0: Optional[int] = None):
    """Einstein extension of a nilsoliton: scale D and extend, then verify.

    Solves the nilsoliton equation, rescales the derivation so the extended
    metric is Einstein (requires Tr D != 0), and checks the result with
    einstein_check before returning (extension, decomposition, lam).  The
    scaling is sqrt(1/(eps0 Tr D)), which `sqrt_to_tower` returns as a
    Fraction when it is rational, so the extension keeps Fraction brackets,
    and as a TowerScalar otherwise.
    """
    res = nilsoliton_solve(M)
    if res is None:
        raise ValueError("metric is not a nilsoliton")
    D = res.derivation
    tr = to_rational(trace(D))
    tr2 = trace(mat_mul(D, D))
    if tr2 == 0 or tr == 0:
        raise ValueError("no Einstein extension: Tr D^2 = 0 or Tr D = 0")
    sign_tr = 1 if tr > 0 else -1
    if eps0 is None:
        eps0 = sign_tr
    elif eps0 != sign_tr:
        raise ValueError("eps0 must match the sign of Tr D for a real scaling")
    phi0 = mat_scale(sqrt_to_tower(1 / (eps0 * tr)), D)
    ext, decomp = extend_by_derivation(M, phi0, eps0)
    lam = einstein_check(ext)
    if lam is None:
        raise RuntimeError("scaled extension failed the Einstein check")
    return ext, decomp, lam

