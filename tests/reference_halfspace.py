"""Per-entry references for the half-space solver and its certificates: the
window's Killing equations eliminated as they stand, the oracle for the
solver's construction from the fiber; both certificates on `TowerScalar`
terms, the oracles for the integer-numerator certificates in
`solvspin.halfspace`; and the three-term identity."""

from fractions import Fraction
from itertools import product

from solvspin.clifford import _check_length, gamma_rows
from solvspin.halfspace import CoordFunction, CoordSpinorField
from solvspin.killing import check_signature, killing_operator_rows
from solvspin.linalg import add_scaled, normalize_vector, sparse_nullspace


def frame_derivative(model, f, direction):
    """Derivative of a CoordFunction along the left-invariant frame.

    direction < n-1 is (t/r) d/dx_{direction+1}, which sends t^(k/2) x^m to
    (e/r) t^(k/2 + 1) x^(m - 1_direction) with e the exponent it lowers; the
    last direction is (t/r) d/dt, diagonal with eigenvalue k/(2r).  Both maps
    are one-to-one on the monomials they do not kill, so no term needs summing.
    """
    n = model.n
    out = {}
    if direction == n - 1:
        for (k, m), coeff in f.terms.items():
            if k:
                out[(k, m)] = coeff * (Fraction(k, 2) / model.r)
    elif 0 <= direction < n - 1:
        for (k, m), coeff in f.terms.items():
            e = m[direction]
            if e:
                out[(k + 2, m[:direction] + (e - 1,) + m[direction + 1:])] = coeff * (e / model.r)
    else:
        raise ValueError("direction out of range")
    return CoordFunction(out)


def killing_residual_tower(model, rep, psi, lam):
    """nabla_X psi - lambda X . psi per direction, on TowerScalar terms:
    `frame_derivative` of each component plus one `add_scaled` per entry of
    the model's operator rows."""
    comps = psi.components
    _check_length(comps, rep.spinor_dim, "psi", "spinor_dim")
    out = []
    for d, rows in enumerate(killing_operator_rows(model.algebra, rep, lam)):
        res = []
        for comp, row in zip(comps, rows):
            acc = frame_derivative(model, comp, d).terms
            for j, coeff in row.items():
                add_scaled(acc, coeff, comps[j].terms)
            res.append(CoordFunction(acc))
        out.append(CoordSpinorField(tuple(res)))
    return out


def verify_amended_identity_tower(model, rep, psi, lam):
    """gamma_i w + phi_0 d_i psi = 0 for every transverse i, with
    w = 2 lambda^2 gamma_t psi - lambda phi_0 psi, on TowerScalar terms."""
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


def monomials(nx, kmax, mmax):
    """The window's monomials (k, m) in column order: k in [-kmax, kmax], then
    the multi-indices |m| <= mmax over nx variables in increasing order."""
    xs = sorted(m for m in product(range(mmax + 1), repeat=nx) if sum(m) <= mmax)
    return [(k, m) for k in range(-kmax, kmax + 1) for m in xs]


def window_solutions(model, rep, lam, kmax, mmax):
    """The window's solution basis by elimination: the per-entry equations
    below, `sparse_nullspace` over the window's columns and `normalize_vector`,
    with column q N + h read as component h at monomial q."""
    N = rep.spinor_dim
    monos = monomials(model.n - 1, kmax, mmax)
    eqs, _ = window_equations_per_entry(model, rep, lam, monos)
    fields = []
    for vec in sparse_nullspace([eq for eq in eqs if eq], len(monos) * N):
        comps = [{} for _ in range(N)]
        for col, x in normalize_vector(vec).items():
            q, h = divmod(col, N)
            comps[h][monos[q]] = x
        fields.append(CoordSpinorField(tuple(CoordFunction(terms) for terms in comps)))
    return fields


def window_equations_per_entry(model, rep, lam, monos):
    """(equations, cancelled) of one window, summed one entry at a time.

    Equations are keyed by (direction, monomial, row) and every operator-row
    entry and derivative coefficient is accumulated into its key, so a
    derivative that lands outside the window opens an equation of its own.
    Empty equations are kept.  `cancelled` counts the entries the sums
    dropped, which happens only where k/(2r) cancels a diagonal entry.
    """
    n = model.n
    N = rep.spinor_dim
    var_index = {}
    for q, mono in enumerate(monos):
        for h in range(N):
            var_index[(mono, h)] = q * N + h
    equations = {}
    cancelled = 0

    def acc(key, var, coeff):
        nonlocal cancelled
        row = equations.setdefault(key, {})
        cur = row.get(var)
        nv = coeff if cur is None else cur + coeff
        if nv == 0:
            cancelled += row.pop(var, None) is not None
        else:
            row[var] = nv

    for d, rows in enumerate(killing_operator_rows(model.algebra, rep, lam)):
        for mono in monos:
            k, m = mono
            for i, row in enumerate(rows):
                for j, coeff in row.items():
                    acc((d, mono, i), var_index[(mono, j)], coeff)
            if d == n - 1:
                if k:
                    c = Fraction(k, 2) / model.r
                    for h in range(N):
                        acc((d, mono, h), var_index[(mono, h)], c)
            else:
                e = m[d]
                if e:
                    m2 = m[:d] + (e - 1,) + m[d + 1:]
                    c = Fraction(e) / model.r
                    for h in range(N):
                        acc((d, (k + 2, m2), h), var_index[(mono, h)], c)
    return list(equations.values()), cancelled


def _fiber_map(rows, comps):
    """Sparse rows {column: coefficient} applied to components given as term dicts."""
    out = []
    for row in rows:
        acc = {}
        for j, c in row.items():
            add_scaled(acc, c, comps[j])
        out.append(acc)
    return out


def amended_identity_three_term(model, rep, psi, lam):
    """2 lambda^2 gamma_i gamma_t psi == lambda phi gamma_i psi - phi d_i psi,
    with both sides built term by term, for every transverse direction i."""
    n = model.n
    phi = model.decomposition.phi[0][0][0]
    lam_sq2 = 2 * lam * lam
    comps = [comp.terms for comp in psi.components]
    et_psi = _fiber_map(gamma_rows(rep, n - 1), comps)
    for i in range(n - 1):
        gi = gamma_rows(rep, i)
        lhs = _fiber_map(gi, et_psi)
        gi_psi = _fiber_map(gi, comps)
        for h, comp in enumerate(psi.components):
            diff = {}
            add_scaled(diff, lam_sq2, lhs[h])
            add_scaled(diff, -(lam * phi), gi_psi[h])
            add_scaled(diff, phi, frame_derivative(model, comp, i).terms)
            if diff:
                return False
    return True
