"""Hyperbolic half-space models and the exact coordinate Killing-spinor solver.

The model H^eps_r is the metric (r^2/t^2)(sum eps_i dx_i^2 + eps_n dt^2) on
{t > 0}, presented as the extension of an abelian algebra by the identity
derivation scaled by 1/r; the t-direction is the last frame index.  Spinor
fields are expanded in the monomial lattice t^(k/2) x^m, which is closed under
the left-invariant frame derivations: the t-derivation is diagonal on
monomials, an x-derivation raises the t-exponent by one and lowers one
x-degree.  The Killing equation along e_i is d_i psi + A_i psi = 0, with A_i
the operator rows of `killing.killing_operator_rows`.  The model, a
`CoordFunction` and a `CoordSpinorField` are frozen dataclasses like every
value in the package; a `CoordFunction` stores no zero coefficient, so the
generated equality, which compares the dicts, is exact.

The t-equation puts the coefficient at t^(k/2) in the kernel of A_t + k/(2r),
E+ at k = 1, E- at k = -1 and 0 elsewhere, and the x-equations then force
psi = t^(1/2) u + t^(-1/2) (v + sum_i x_i w_i) with u in E+ free,
w_i = -r A_i u and v in E- and in every ker A_i.  A Killing spinor is fixed
by its value at one point, so the N spinors built so, once per
(representation, lambda) branch, are all of them.  A window's solutions are
their combinations that vanish outside it.  The two certificates never read
the construction: `killing_residual` re-substitutes a solution through
`frame_derivative` and the operator rows, and `verify_amended_identity`
checks the amended identity with one Clifford product per transverse direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .exact import parse_rational, to_tower
from .clifford import CliffordRep, _check_length, build_gammas, gamma_rows
from .killing import check_signature, killing_operator_rows
from .liealg import LieAlgebra, MetricLieAlgebra, StandardDecomposition, extend_by_derivation
from .linalg import MAX_UNKNOWNS, add_scaled, identity, mat_scale, normalize_vector, sparse_nullspace

class _FrameFactors(dict):
    """k -> k/(2r), by which (t/r) d/dt scales t^(k/2); each formed on first use."""

    def __init__(self, r: Fraction):
        self.r = r

    def __missing__(self, k: int) -> Fraction:
        c = self[k] = Fraction(k, 2) / self.r
        return c


@dataclass(frozen=True)
class HalfSpaceModel:
    """H^eps_r as a metric Lie algebra plus its coordinate frame data.

    `signs` is stored as a tuple and `r` as a Fraction; models with equal
    (n, signs, r) are equal.  The value is frozen, so its branch entries and
    frame factors, like the connection its `algebra` holds, cannot go stale;
    they live as long as the model.
    """

    n: int
    signs: tuple
    r: Fraction
    algebra: MetricLieAlgebra = field(init=False, compare=False, repr=False)
    decomposition: StandardDecomposition = field(init=False, compare=False, repr=False)
    _branches: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _factors: _FrameFactors = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        n = self.n
        if n < 2:
            raise ValueError("need total dimension n >= 2")
        signs = tuple(self.signs)
        if len(signs) != n:
            raise ValueError("need one sign per dimension")
        if any(s not in (1, -1) for s in signs):
            raise ValueError("signs must each be +1 or -1, got %s" % ",".join(map(str, signs)))
        r = Fraction(self.r)
        if r <= 0:
            raise ValueError("r must be positive")
        base = MetricLieAlgebra(LieAlgebra.abelian(n - 1), signs[:-1])
        # The orthonormal frame (t/r dx_1, ..., t/r dx_{n-1}, t/r dt) brackets
        # as [e_i, e_t] = -(1/r) e_i, so the t-direction acts by -(1/r) id and
        # the monomial calculus below has L_{e_t} t^(k/2) = +(k/2r) t^(k/2).
        D = mat_scale(Fraction(-1) / r, identity(n - 1))
        algebra, decomposition = extend_by_derivation(base, D, signs[-1])
        # frozen: the coerced and derived fields are stored directly
        vars(self).update(signs=signs, r=r, algebra=algebra, decomposition=decomposition,
                          _factors=_FrameFactors(r))

    def operator_rows(self, rep: CliffordRep, lam) -> list[list[dict]]:
        """Sparse rows of nabla_{e_i} - lam gamma_i per direction i, built once
        per (rep, lam) from the algebra's connection and held in the branch's
        one cache entry.  Callers must not change them."""
        branch = self._branches.get((rep, lam))
        if branch is None:
            rows = killing_operator_rows(self.algebra, rep, lam)
            branch = self._branches[(rep, lam)] = {"rows": rows}
        return branch["rows"]

    def killing_spinors(self, rep: CliffordRep, lam) -> list[dict]:
        """The branch's N Killing spinors as rows {((k, m), h): coefficient},
        built once per (rep, lam); none unless lam^2 = -eps_t/(4 r^2), the
        Einstein value.  A rep of another signature than the model's raises
        ValueError.  Callers must not change them."""
        check_signature(self, rep)
        if not lam * lam == Fraction(-self.signs[-1]) / (4 * self.r * self.r):
            return []
        rows = self.operator_rows(rep, lam)
        branch = self._branches[(rep, lam)]
        if "spinors" not in branch:
            branch["spinors"] = _build_spinors(self, rep, lam, rows)
        return branch["spinors"]

    def clifford_rep(self) -> CliffordRep:
        return build_gammas(self.signs)

    def __repr__(self):
        return "HalfSpaceModel(n=%d, signs=%r, r=%s)" % (self.n, self.signs, self.r)


def parse_halfspace_spec(text: str) -> HalfSpaceModel:
    """Parse 'halfspace n=<int> r=<p/q> signs=<+1,-1,...>'.

    Each of n, r and signs is given exactly once; any other key is an error.
    """
    tokens = text.split()
    if not tokens or tokens[0] != "halfspace":
        raise ValueError("half-space spec must start with 'halfspace'")
    fields = {}
    for tok in tokens[1:]:
        if "=" not in tok:
            raise ValueError("bad half-space token %r" % tok)
        key, val = tok.split("=", 1)
        if key not in ("n", "r", "signs"):
            raise ValueError("half-space spec has unknown key %r" % key)
        if key in fields:
            raise ValueError("half-space spec repeats key %r" % key)
        fields[key] = val
    try:
        n_text, r_text, signs_text = fields["n"], fields["r"], fields["signs"]
    except KeyError as exc:
        raise ValueError("half-space spec needs n=, r=, signs=") from exc
    n = _spec_int("n", n_text, n_text)
    try:
        r = parse_rational(r_text)
    except ZeroDivisionError as exc:
        raise ValueError("half-space spec r=%s has a zero denominator" % r_text) from exc
    except ValueError as exc:
        raise ValueError("half-space spec r=%s: %s" % (r_text, exc)) from exc
    signs = tuple(_spec_int("signs", signs_text, s) for s in signs_text.split(","))
    return HalfSpaceModel(n, signs, r)


def _spec_int(key: str, text: str, token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError("half-space spec %s=%s: %r is not an integer" % (key, text, token)) from None


@dataclass(frozen=True, slots=True)
class CoordFunction:
    """Finite sum of monomials t^(k/2) x^m with scalar coefficients.

    `terms` maps (k, m), an int and a tuple of ints, to a coefficient and
    stores no zero coefficient, so equal functions have equal dicts.
    """

    terms: dict = field(default_factory=dict)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=lambda kv: kv[0])


def frame_derivative(model: HalfSpaceModel, f: CoordFunction, direction: int) -> CoordFunction:
    """Derivative along the left-invariant frame.

    direction < n-1 is (t/r) d/dx_{direction+1}; the last direction is
    (t/r) d/dt, which is diagonal with eigenvalue k/(2r) on t^(k/2) x^m.
    Both maps are one-to-one on the monomials they do not kill, and a
    product of nonzero exact scalars is nonzero, so no term needs summing
    or dropping.  The factors k/(2r) and e/r = 2e/(2r) are read from the
    model's table, which forms each once per exponent.
    """
    n = model.n
    factors = model._factors
    out: dict = {}
    if direction == n - 1:
        for (k, m), coeff in f.terms.items():
            if k:
                out[(k, m)] = coeff * factors[k]
    elif 0 <= direction < n - 1:
        for (k, m), coeff in f.terms.items():
            e = m[direction]
            if e:
                out[(k + 2, m[:direction] + (e - 1,) + m[direction + 1:])] = coeff * factors[2 * e]
    else:
        raise ValueError("direction out of range")
    return CoordFunction(out)


@dataclass(frozen=True, slots=True)
class CoordSpinorField:
    """Spinor field with CoordFunction components in a fixed trivialization."""

    components: tuple

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components)

    def to_json_dict(self) -> dict:
        out = {}
        for h, comp in enumerate(self.components):
            entries = {}
            for (k, m), coeff in comp.sorted_terms():
                key = "t^%d/2" % k + "".join(";x%d^%d" % (i + 1, e) for i, e in enumerate(m) if e)
                entries[key] = to_tower(coeff).to_dict()
            out["u_%d" % h] = entries
        return out


def killing_residual(model: HalfSpaceModel, rep: CliffordRep, psi: CoordSpinorField, lam) -> list[CoordSpinorField]:
    """Per-direction residual nabla_X psi - lambda X . psi.

    Vanishing of every monomial coefficient in every direction is exactly the
    Killing equation with constant lambda.  Component i of direction d sums,
    into one dict, `frame_derivative` of psi_i and sum_j row_i[j] psi_j over
    the operator rows the model holds for the branch, built once per branch.
    It never reads the solver's construction, so it certifies it.  A psi
    without spinor_dim components raises ValueError.
    """
    comps = psi.components
    _check_length(comps, rep.spinor_dim, "psi", "spinor_dim")
    out = []
    for d, rows in enumerate(model.operator_rows(rep, lam)):
        res = []
        for comp, row in zip(comps, rows):
            acc = frame_derivative(model, comp, d).terms   # a fresh dict, summed into
            for j, coeff in row.items():
                add_scaled(acc, coeff, comps[j].terms)
            res.append(CoordFunction(acc))
        out.append(CoordSpinorField(tuple(res)))
    return out


def solve_killing_halfspace(
    model: HalfSpaceModel,
    rep: CliffordRep,
    lam,
    kmax: int = 1,
    mmax: int = 1,
) -> list[CoordSpinorField]:
    """Exact solution basis of the Killing equation in a bounded monomial window.

    The window runs over t^(k/2) x^m with k in [-kmax, kmax] and |m| <= mmax;
    one of more than MAX_UNKNOWNS unknowns, (2 kmax + 1) C(n - 1 + mmax, mmax)
    N, is refused before anything is built.  Its column q N + h, component h at
    the q-th monomial in (k, m) order, compares as the key ((k, m), h) does.
    The combinations of the branch's spinors whose coefficients outside the
    window cancel, an N-column kernel, are fully reduced with each vector's
    highest column as its pivot, scaled by `normalize_vector` and returned in
    pivot order: the unique basis that eliminating the window's equations gives.
    """
    check_signature(model, rep)
    for name, bound in (("kmax", kmax), ("mmax", mmax)):
        if bound < 0:
            raise ValueError("window bound %s = %d is negative" % (name, bound))
    N = rep.spinor_dim
    unknowns = (2 * kmax + 1) * comb(model.n - 1 + mmax, mmax) * N
    if unknowns > MAX_UNKNOWNS:
        raise ValueError("window kmax = %d, mmax = %d has %d unknowns, more than the limit of %d"
                         % (kmax, mmax, unknowns, MAX_UNKNOWNS))
    spinors = model.killing_spinors(rep, lam)
    outside: dict = {}
    for j, spinor in enumerate(spinors):
        for ((k, m), h), c in spinor.items():
            if abs(k) > kmax or sum(m) > mmax:
                outside.setdefault(((k, m), h), {})[j] = c
    inside = []
    for combo in sparse_nullspace(list(outside.values()), len(spinors)):
        vec: dict = {}
        for j, c in combo.items():
            add_scaled(vec, c, spinors[j])
        inside.append(vec)
    fields = []
    for vec in _reduce_by_highest(inside):
        comps = [{} for _ in range(N)]
        for (mono, h), x in normalize_vector(vec).items():
            comps[h][mono] = to_tower(x)
        fields.append(CoordSpinorField(tuple(CoordFunction(terms) for terms in comps)))
    return fields


def _reduce_by_highest(vectors: list[dict]) -> list[dict]:
    """The unique basis of the span of independent sparse rows in which each
    row is 1 at its highest column, its pivot, and 0 at every other pivot, in
    pivot order.  The rows passed in are changed."""
    reduced: dict = {}
    for vec in vectors:
        for p in vec.keys() & reduced.keys():
            add_scaled(vec, -vec[p], reduced[p])
        top = max(vec)
        inv = 1 / vec[top]
        vec = {key: c * inv for key, c in vec.items()}
        for row in reduced.values():
            if top in row:
                add_scaled(row, -row[top], vec)
        reduced[top] = vec
    return [reduced[top] for top in sorted(reduced)]


def _build_spinors(model: HalfSpaceModel, rep: CliffordRep, lam, rows) -> list[dict]:
    """t^(1/2) u + t^(-1/2) sum_i x_i w_i per u in E+, and t^(-1/2) v per v in
    E- cut by the x-direction rows; fewer than N raises RuntimeError."""
    N = rep.spinor_dim
    *x_rows, t_rows = rows
    zero = (0,) * (model.n - 1)
    plus, minus = ([dict(row) for row in t_rows] for _ in range(2))   # A_t + k/(2r) at k = 1, -1
    for i in range(N):
        add_scaled(plus[i], model._factors[1], {i: 1})
        add_scaled(minus[i], model._factors[-1], {i: 1})
    spinors = []
    for u in sparse_nullspace(plus, N):
        spinor = {((1, zero), h): c for h, c in u.items()}
        for i, x_row in enumerate(x_rows):
            mono = (-1, zero[:i] + (1,) + zero[i + 1:])
            for h, row in enumerate(x_row):
                w = sum((c * u[j] for j, c in row.items() if j in u), Fraction(0))
                if not w == 0:
                    spinor[(mono, h)] = -model.r * w
        spinors.append(spinor)
    minus += (row for x_row in x_rows for row in x_row)
    spinors += ({((-1, zero), h): c for h, c in v.items()} for v in sparse_nullspace(minus, N))
    if len(spinors) < N:
        raise RuntimeError("%r branch lambda = %s has %d Killing spinors, not N = %d"
                           % (model, lam, len(spinors), N))
    return spinors


def verify_amended_identity(model: HalfSpaceModel, rep: CliffordRep, psi: CoordSpinorField, lam) -> bool:
    """Check 2 lambda^2 v.e_0.psi = lambda phi_0 v.psi - L_{phi_0 v} psi.

    Runs over all frame vectors v transverse to the t-direction; for the
    half-space phi_0 is a scalar multiple of the identity, so phi_0 v is
    proportional to v and the derivative term is a rescaled frame derivative.
    Clifford multiplication is linear and the arithmetic exact, so the
    identity for v = e_i is gamma_i w + phi_0 d_i psi = 0 with
    w = 2 lambda^2 gamma_t psi - lambda phi_0 psi, formed once: one Clifford
    product per direction.  gamma_i acts through its sparse rows, one entry
    per row.  A rep of another signature than the model's, or a psi without
    spinor_dim components, raises ValueError.
    """
    check_signature(model, rep)
    n = model.n
    phi = model.decomposition.phi[0][0][0]
    comps = psi.components
    _check_length(comps, rep.spinor_dim, "psi", "spinor_dim")
    lam_sq2 = 2 * lam * lam
    minus_lam_phi = -(lam * phi)
    w = []
    for row, comp in zip(gamma_rows(rep, n - 1), comps):
        (j, unit), = row.items()
        f = lam_sq2 * unit
        acc = {mono: f * c for mono, c in comps[j].terms.items()}
        add_scaled(acc, minus_lam_phi, comp.terms)
        w.append(acc)
    for i in range(n - 1):
        for row, comp in zip(gamma_rows(rep, i), comps):
            (j, unit), = row.items()
            acc = {mono: phi * c for mono, c in frame_derivative(model, comp, i).terms.items()}
            add_scaled(acc, unit, w[j])
            if acc:
                return False
    return True
