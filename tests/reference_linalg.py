"""Dense elimination, kept as the oracle for the sparse eliminator.

`solvspin` eliminates only with `linalg.sparse_nullspace` (and its forward
pass `_sparse_echelon`).  The routines here build on the dense `linalg.rref`,
which clears every row at every pivot, and on dense Clifford multiplication,
so they share no elimination code with the package: the dense Clifford
kernels solve the same systems from the dense gamma images, the Clifford
relations are checked on dense products of the gammas, and the lower
central series takes its ranks from `rref` on brackets summed over the dense
`structure` table.
"""

from __future__ import annotations

from fractions import Fraction

from solvspin.clifford import CommutantKernel
from solvspin.exact import common_numerators
from solvspin.linalg import mat_from_rows, rref

F0 = Fraction(0)


def matrix_rank(mat) -> int:
    rows = [list(r) for r in mat]
    if not rows:
        return 0
    return len(rref(rows, len(rows[0])))


def nullspace(mat, ncols: int | None = None) -> list[tuple]:
    """Basis of the right kernel; free variables get 1, pivots back-substituted."""
    rows = [list(r) for r in mat]
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    pivots = rref(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            coeff = rows[r][free]
            if not coeff == 0:
                vec[pc] = -coeff
        basis.append(tuple(vec))
    return basis


def densify(rows, ncols: int, zero=Fraction(0)) -> list[tuple]:
    """Sparse rows {column: value} as dense tuples of length ncols, `zero` elsewhere."""
    out = []
    for row in rows:
        vec = [zero] * ncols
        for c, v in row.items():
            vec[c] = v
        out.append(tuple(vec))
    return out


def solve_linear(A, b):
    """One exact solution of A x = b (free variables set to 0), or None."""
    rows = [list(ra) + [bv] for ra, bv in zip(A, b)]
    ncols = len(A[0]) if A else 0
    pivots = rref(rows, ncols)
    for row in rows[len(pivots):]:
        if not row[-1] == 0:
            return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = rows[r][-1]
    return tuple(x)


def rational_parts(x) -> tuple:
    """The Fractions (a, b, c, d) of an exact scalar a + b i + c w + d i w."""
    [parts], q, _ = common_numerators([x])
    return tuple(Fraction(v, q) for v in parts)


def real_component_rows(row) -> list[list[Fraction]]:
    """Split one Q(i)(w)-linear equation in rational unknowns into rational rows."""
    comps = [[], [], [], []]
    for x in row:
        for comp, v in zip(comps, rational_parts(x)):
            comp.append(v)
    return [c for c in comps if any(v != 0 for v in c)]


def _unit(n: int, a: int) -> list:
    v = [Fraction(0)] * n
    v[a] = Fraction(1)
    return v


def _gamma_images(rep, psi) -> list[list]:
    """The images e_a . psi = gamma_a psi, summed over the dense `rep.gammas`."""
    return [[sum((x * y for x, y in zip(row, psi) if not x == 0), F0) for row in g]
            for g in rep.gammas]


def annihilator_dense(rep, psi) -> list[tuple]:
    """V_psi from the dense images e_a . psi and dense elimination."""
    n = rep.n
    images = _gamma_images(rep, psi)
    rows = []
    for h in range(rep.spinor_dim):
        rows.extend(real_component_rows([images[a][h] for a in range(n)]))
    if not rows:
        return [tuple(_unit(n, a)) for a in range(n)]
    return nullspace(rows, n)


def dense_product(A, B) -> list[list]:
    """The product A B of dense matrices, summed entry by entry over the nonzero
    entries of A and B."""
    out = []
    for row in A:
        acc = [F0] * len(B[0])
        for k, x in enumerate(row):
            if x == 0:
                continue
            for j, y in enumerate(B[k]):
                if not y == 0:
                    acc[j] = acc[j] + x * y
        out.append(acc)
    return out


def clifford_failures_dense(rep) -> list[tuple[int, int]]:
    """Pairs (a, b), a <= b, where gamma_a gamma_b + gamma_b gamma_a != -2 eps_a
    delta_ab I, from dense products of `rep.gammas`."""
    gammas = rep.gammas
    bad = []
    for a in range(rep.n):
        for b in range(a, rep.n):
            ab = dense_product(gammas[a], gammas[b])
            ba = dense_product(gammas[b], gammas[a])
            want = -2 * rep.signs[a] if a == b else 0
            if any(not x + y == (want if i == j else 0)
                   for i, (ra, rb) in enumerate(zip(ab, ba)) for j, (x, y) in enumerate(zip(ra, rb))):
                bad.append((a, b))
    return bad


def commutant_dense(rep, psi) -> CommutantKernel:
    """The symmetric commutant kernel from the n(n+1)/2 symmetric unknowns directly."""
    n = rep.n
    N = rep.spinor_dim
    images = _gamma_images(rep, psi)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    rows = []
    # unknowns h_ij = h_ji with f[i][k] = eps_i h_ik; f(e_k).psi = 0
    for k in range(n):
        for h in range(N):
            row_c = []
            for (i, j) in pairs:
                coeff = F0
                if j == k:
                    coeff = coeff + rep.signs[i] * images[i][h]
                if i == k and i != j:
                    coeff = coeff + rep.signs[j] * images[j][h]
                row_c.append(coeff)
            rows.extend(real_component_rows(row_c))
    sols = nullspace(rows, len(pairs)) if rows else []
    basis = []
    for sol in sols:
        f = [[Fraction(0)] * n for _ in range(n)]
        for q, (i, j) in enumerate(pairs):
            f[i][j] = rep.signs[i] * sol[q]
            f[j][i] = rep.signs[j] * sol[q]
        basis.append(mat_from_rows(f))
    return CommutantKernel(tuple(basis), len(annihilator_dense(rep, psi)))


def _dense_bracket(table, x, y) -> tuple:
    """[x, y] summed over the dense table[i][j][k]."""
    out = [Fraction(0)] * len(table)
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        for j, yj in enumerate(y):
            if yj == 0:
                continue
            for k, c in enumerate(table[i][j]):
                if not c == 0:
                    out[k] = out[k] + xi * yj * c
    return tuple(out)


def lower_central_series_dense(L) -> tuple[list[int], bool]:
    """Dimensions of g, [g,g], [g,[g,g]], ... from `rref` on dense brackets."""
    n = L.dim
    basis = [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
    dims = [n]
    current = basis
    while True:
        gens = []
        for e in basis:
            for w in current:
                v = _dense_bracket(L.structure, e, w)
                if any(not x == 0 for x in v):
                    gens.append(list(v))
        if not gens:
            dims.append(0)
            return dims, True
        d = len(rref(gens, n))
        dims.append(d)
        if d == dims[-2]:
            return dims, False
        current = [tuple(row) for row in gens[:d]]
