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
by its value at one point, so the N spinors built so are all of them.  Each
(representation, lambda) branch is built once, as one value the model holds:
the operator rows as integer columns and the spinors built from the same
rows, normalized once.  On E+, A_i acts as (eps_t/(2 r^2 lambda)) gamma_i, so
w_i = -(eps_t/(2 r lambda)) gamma_i u, and gamma_i is invertible: a
combination of the spinors with no x-part has no u-part, and every key has
|k| = 1.  So a window's solutions are exactly the branch's spinors that lie
inside it, and a window only filters the branch's basis.  The two
certificates never read the construction: `killing_residual` re-substitutes
a solution through the frame derivatives and the branch's columns, and
`verify_amended_identity` checks the amended identity with one Clifford
product per transverse direction.
Both work on integer numerators: a solution's coefficients are written over
one denominator (`exact.common_numerators`) once, as its cached
`CoordSpinorField.numerators`, which both read; the branch holds the
operator rows so and the identity's constants 2 lambda^2, -lambda phi_0 and
phi_0.  With r = p/s the frame factors k/(2r) and e/r are the integers k s
and 2 e s over 2p.  Each coefficient is summed as an integer 4-tuple in the
basis 1, i, w, iw, multiplied by a unit i^q by rotating that tuple, and is
zero exactly when all four integers are.  The derivatives and every zero
test stay each certificate's own, so neither reads the other's result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .exact import _common_radicand, _mul, _rotations, common_numerators, from_numerators, parse_rational, to_dict
from .clifford import CliffordRep, _check_length, build_gammas
from .killing import killing_operator_rows
from .liealg import LieAlgebra, MetricLieAlgebra, StandardDecomposition, extend_by_derivation
from .linalg import add_scaled, identity, mat_scale, normalize_vector, sparse_nullspace

@dataclass(frozen=True)
class HalfSpaceModel:
    """H^eps_r as a metric Lie algebra plus its coordinate frame data.

    `signs` is stored as a tuple and `r` as a Fraction; models with equal
    (n, signs, r) are equal.  `_branches` maps each (rep, lam) at an
    Einstein value that has been asked for to its branch, the one value
    `_branch` builds; a branch at any other lam is not kept.  The model is
    frozen, so its branches, like the connection its `algebra` holds, cannot
    go stale; they live as long as the model.  The memo is a dict field, not
    a `cached_property` or an `lru_cache`: a cached property takes no
    argument such as (rep, lam), and an `lru_cache` on a method would hold
    every model it has seen alive.
    """

    n: int
    signs: tuple
    r: Fraction
    algebra: MetricLieAlgebra = field(init=False, compare=False, repr=False)
    decomposition: StandardDecomposition = field(init=False, compare=False, repr=False)
    _branches: dict = field(default_factory=dict, init=False, compare=False, repr=False)

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
        vars(self).update(signs=signs, r=r, algebra=algebra, decomposition=decomposition)

    def _branch(self, rep: CliffordRep, lam) -> tuple:
        """(columns, q, m, basis, constants) of the (rep, lam) branch, built
        once from one call of `killing_operator_rows`, which refuses a rep of
        another signature than the model's before anything is held.  The rows
        are written as integer numerators over one denominator q = 2p q_A,
        where r = p/s and q_A is the rows' own common denominator, and
        transposed into columns[i] = {j: ((h, numerators of row h at column j), ...)}
        per direction i; m is their radicand or None.  `basis` is the N
        Killing spinors built from the same rows, none unless
        lam^2 = -eps_t/(4 r^2), the Einstein value, keyed ((k, m), h), each
        scaled by `normalize_vector` and sorted by its highest key.  They
        arrive reduced: each u and v is a `sparse_nullspace` basis vector, 1
        at its free column, which is its highest, and 0 at every other
        vector's free column, and the u-spinors' highest keys have k = 1 and
        the v-spinors' k = -1, so the two families share no key.  So this is
        the unique highest-pivot normalized basis of their span.  `constants`
        are the amended identity's (2 lam^2, -lam phi_0, phi_0, m_c): with lam
        and phi_0 over one denominator d and m_c their radicand or None, the
        first two over 2p d^2 and phi_0 over d^2.  Only a branch at an
        Einstein value is kept in `_branches`; any other lam's branch is built
        on each call and not kept, so asking about many lam holds no memory.
        Callers must not change any of them."""
        branch = self._branches.get((rep, lam))
        if branch is None:
            rows = killing_operator_rows(self.algebra, rep, lam)
            nums, q, m = common_numerators([c for by_row in rows for row in by_row for c in row.values()])
            p2 = 2 * self.r.numerator
            nums = iter(nums)
            columns = []
            for by_row in rows:
                cols: dict = {}
                for h, row in enumerate(by_row):
                    for j in row:
                        a, b, c, d = next(nums)
                        cols.setdefault(j, []).append((h, (p2 * a, p2 * b, p2 * c, p2 * d)))
                columns.append(cols)
            einstein = lam * lam == Fraction(-self.signs[-1]) / (4 * self.r * self.r)
            spinors = _build_spinors(self, rep, lam, rows) if einstein else []
            basis = [normalize_vector(vec) for vec in sorted(spinors, key=max)]
            (lam_n, phi_n), d, m_c = common_numerators([lam, self.decomposition.phi[0][0][0]])
            mw = m_c or 0
            constants = (tuple(2 * p2 * x for x in _mul(lam_n, lam_n, mw)),
                         tuple(-p2 * x for x in _mul(lam_n, phi_n, mw)),
                         tuple(d * x for x in phi_n), m_c)
            branch = (columns, p2 * q, m, basis, constants)
            if einstein:
                self._branches[(rep, lam)] = branch
        return branch

    def killing_spinors(self, rep: CliffordRep, lam) -> list[dict]:
        """The branch's N Killing spinors as rows {((k, m), h): coefficient},
        reduced and normalized, from which every window keeps those that lie
        inside it.  None unless lam is an Einstein value.  A rep of another
        signature than the model's raises ValueError.  Callers must not
        change them."""
        return self._branch(rep, lam)[3]

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


@dataclass(frozen=True)
class CoordSpinorField:
    """Spinor field with CoordFunction components in a fixed trivialization.

    `numerators` is `_numerators(components)`, derived on first use and kept:
    both certificates read it, so a solution is written over one denominator
    once.  Callers must not change it."""

    components: tuple

    @cached_property
    def numerators(self) -> tuple:
        return _numerators(self.components)

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components)

    def to_json_dict(self) -> dict:
        out = {}
        for h, comp in enumerate(self.components):
            entries = {}
            for (k, m), coeff in comp.sorted_terms():
                key = "t^%d/2" % k + "".join(";x%d^%d" % (i + 1, e) for i, e in enumerate(m) if e)
                entries[key] = to_dict(coeff)
            out["u_%d" % h] = entries
        return out


def _numerators(comps) -> tuple:
    """The components' terms as integer numerators over one denominator:
    ([{monomial: (a, b, c, d)} per component], q, m), as `exact.common_numerators`."""
    nums, q, m = common_numerators([c for comp in comps for c in comp.terms.values()])
    nums = iter(nums)
    return [{mono: next(nums) for mono in comp.terms} for comp in comps], q, m


def _add_into(acc: dict, key, x: tuple) -> None:
    """acc[key] += x for numerator 4-tuples; an entry that sums to 0 is kept."""
    y = acc.get(key)
    acc[key] = x if y is None else (x[0] + y[0], x[1] + y[1], x[2] + y[2], x[3] + y[3])


def _derivative(terms: dict, i: int, n: int, step: int) -> dict:
    """The frame derivative along e_i of one component's numerators, times
    2p step/s for r = p/s.  (t/r) d/dt scales t^(k/2) by k/(2r) = k s/(2p),
    and (t/r) d/dx_i sends t^(k/2) x^m to e/r = 2 e s/(2p) times
    t^(k/2 + 1) x^(m - 1_i), with e the exponent it lowers; so the factors are
    the integers k step and 2 e step.  Both maps are one-to-one on the
    monomials they keep, so no term is summed."""
    out = {}
    if i == n - 1:
        for key, (a, b, c, d) in terms.items():
            if key[0]:
                f = key[0] * step
                out[key] = (f * a, f * b, f * c, f * d)
    else:
        for (k, mono), (a, b, c, d) in terms.items():
            e = mono[i]
            if e:
                f = 2 * e * step
                out[(k + 2, mono[:i] + (e - 1,) + mono[i + 1:])] = (f * a, f * b, f * c, f * d)
    return out


def killing_residual(model: HalfSpaceModel, rep: CliffordRep, psi: CoordSpinorField, lam) -> list[CoordSpinorField]:
    """Per-direction residual nabla_X psi - lambda X . psi.

    Vanishing of every monomial coefficient in every direction is exactly the
    Killing equation with constant lambda.  Component h of direction i is the
    frame derivative of psi_h plus sum_j A_hj psi_j, with A the branch's
    operator rows.  Both are summed on integer numerators over the
    denominator q = 2p q_A q_psi: psi's terms over q_psi, as `psi.numerators`
    holds them, the rows over 2p q_A, transposed once per branch so that the
    loops run over psi's stored terms and, for each, over the entries of its
    column only.  A component whose sums are all zero is one empty
    `CoordFunction`, shared within the call; each nonzero coefficient of the
    others is read back once (`from_numerators`: a Fraction when it is
    rational).  Callers must not change the fields returned.  It never reads
    the solver's construction, so it certifies it.  A psi without spinor_dim
    components raises ValueError, and a psi whose radicand differs from the
    rows' raises IncompatibleExtensionError.
    """
    _check_length(psi.components, rep.spinor_dim, "psi", "spinor_dim")
    columns, q_rows, m, _, _ = model._branch(rep, lam)
    terms, q_psi, m_psi = psi.numerators
    m = _common_radicand(m, m_psi)
    mw = m or 0
    q = q_rows * q_psi
    step = model.r.denominator * (q_rows // (2 * model.r.numerator))
    n = model.n
    zero = CoordFunction()
    out = []
    for i, cols in enumerate(columns):
        acc = [_derivative(mine, i, n, step) if mine else {} for mine in terms]
        for j, mine in enumerate(terms):
            if not mine:
                continue
            for h, entry in cols.get(j, ()):
                a2, b2 = entry[0], entry[1]
                target = acc[h]
                for mono, (a1, b1, c1, d1) in mine.items():
                    # without a radicand, as on every solver output, c = d = 0 on both sides
                    x = _mul((a1, b1, c1, d1), entry, mw) if mw else (a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, 0, 0)
                    y = target.get(mono)   # _add_into, inlined
                    target[mono] = x if y is None else (x[0] + y[0], x[1] + y[1], x[2] + y[2], x[3] + y[3])
        out.append(CoordSpinorField(tuple(
            CoordFunction({mono: from_numerators(*x, q, m) for mono, x in sums.items() if any(x)})
            if any(map(any, sums.values())) else zero
            for sums in acc)))
    return out


def solve_killing_halfspace(
    model: HalfSpaceModel,
    rep: CliffordRep,
    lam,
    kmax: int = 1,
    mmax: int = 1,
) -> list[CoordSpinorField]:
    """Exact solution basis of the Killing equation in a bounded monomial window.

    The window runs over t^(k/2) x^m with k in [-kmax, kmax] and |m| <= mmax.
    Its solutions are the combinations of the branch's spinors with no term
    outside it, and the spinors that lie inside it span them: every key has
    |k| = 1, and w_i = -(eps_t/(2 r lambda)) gamma_i u with gamma_i
    invertible, so a combination with no x-part has no u-part and is one of
    the v-spinors'.  A subset of the branch's reduced, normalized basis is
    reduced and normalized, so the spinors kept, in the branch's order and
    wrapped in new fields, are the basis that eliminating the window's
    equations gives.  Nothing is built per window column and nothing is
    eliminated; the branch refuses a rep of another signature than the
    model's.  Every call builds new fields, so no cached `numerators` is
    carried from one call to the next.
    """
    for name, bound in (("kmax", kmax), ("mmax", mmax)):
        if bound < 0:
            raise ValueError("window bound %s = %d is negative" % (name, bound))
    basis = [s for s in model.killing_spinors(rep, lam)
             if all(abs(k) <= kmax and sum(m) <= mmax for (k, m), _ in s)]
    N = rep.spinor_dim
    fields = []
    for vec in basis:
        comps = [{} for _ in range(N)]
        for (mono, h), x in vec.items():
            comps[h][mono] = x
        fields.append(CoordSpinorField(tuple(CoordFunction(terms) for terms in comps)))
    return fields


def _build_spinors(model: HalfSpaceModel, rep: CliffordRep, lam, rows) -> list[dict]:
    """t^(1/2) u + t^(-1/2) sum_i x_i w_i per u in E+, and t^(-1/2) v per v in
    E- cut by the x-direction rows; fewer than N raises RuntimeError."""
    N = rep.spinor_dim
    *x_rows, t_rows = rows
    zero = (0,) * (model.n - 1)
    plus, minus = ([dict(row) for row in t_rows] for _ in range(2))   # A_t + k/(2r) at k = 1, -1
    half = 1 / (2 * model.r)
    for i in range(N):
        add_scaled(plus[i], half, {i: 1})
        add_scaled(minus[i], -half, {i: 1})
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
    product per direction.  gamma_i acts through its signed permutation, one
    unit i**phase per row, which rotates the numerators.  psi's terms are
    read from `psi.numerators`, which the residual shares, and 2 lambda^2,
    -lambda phi_0 and phi_0 from the branch's constants, the first two times
    the 2p that the frame derivative carries, so both sides are over one
    denominator; the derivatives and the zero tests are this check's own.  A psi without spinor_dim components raises ValueError, and
    so does a rep of another signature than the model's, through the
    branch's operator rows.
    """
    n = model.n
    _check_length(psi.components, rep.spinor_dim, "psi", "spinor_dim")
    lam_sq2, minus_lam_phi, phi, m_c = model._branch(rep, lam)[4]
    terms, _, m = psi.numerators
    m = _common_radicand(m_c, m) or 0
    # each nonzero entry of w is held with its four rotations
    w = []
    for h, (j, q) in enumerate(zip(rep.perm[n - 1], rep.phase[n - 1])):
        acc = {mono: _rotations(_mul(lam_sq2, x, m))[q] for mono, x in terms[j].items()}
        for mono, x in terms[h].items():
            _add_into(acc, mono, _mul(minus_lam_phi, x, m))
        w.append({mono: _rotations(x) for mono, x in acc.items() if any(x)})
    phi_psi = [{mono: _mul(phi, x, m) for mono, x in mine.items()} if mine else mine for mine in terms]
    step = model.r.denominator
    for i in range(n - 1):
        for h, (j, q) in enumerate(zip(rep.perm[i], rep.phase[i])):
            if not (phi_psi[h] or w[j]):
                continue
            acc = _derivative(phi_psi[h], i, n, step)
            for mono, rotations in w[j].items():
                _add_into(acc, mono, rotations[q])
            if any(map(any, acc.values())):
                return False
    return True
