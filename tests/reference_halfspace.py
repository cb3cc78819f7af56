"""Per-entry references for the half-space solver and its amended-identity
certificate: the window's Killing equations eliminated as they stand, the
oracle for the solver's construction from the fiber, and the three-term
identity, the oracle for the one-product identity in `solvspin.halfspace`."""

from fractions import Fraction
from itertools import product

from solvspin.clifford import gamma_rows
from solvspin.exact import to_tower
from solvspin.halfspace import CoordFunction, CoordSpinorField, frame_derivative
from solvspin.linalg import add_scaled, normalize_vector, sparse_nullspace


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
            comps[h][monos[q]] = to_tower(x)
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

    for d, rows in enumerate(model.operator_rows(rep, lam)):
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
