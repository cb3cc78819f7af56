"""Independent mathematics for the benchmark's outcome checks.

Nothing here calls a solvspin algorithm: Ricci comes from the structure
constants by the closed formula for left-invariant metrics (Besse, *Einstein
Manifolds*, 7.38, with the signs of a pseudo-orthonormal frame), ranks come
from a small Gaussian elimination over Q(i), and Clifford relations are
multiplied out sparsely.  Scalars only need +, -, * and == 0, so Fraction and
solvspin's TowerScalar entries both work.
"""

from __future__ import annotations

from fractions import Fraction

F0 = Fraction(0)
HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


# ---------------------------------------------------------------------------
# metric Lie algebras given as structure constants c[i][j][k] and signs
# ---------------------------------------------------------------------------

def structure_from_brackets(dim, brackets):
    """Dense c[i][j][k] from {(i, j): {k: coeff}} with 0-based i < j."""
    c = [[[F0] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), comps in brackets.items():
        for k, v in comps.items():
            c[i][j][k] = v
            c[j][i][k] = -v
    return c


def ricci_form(c, signs):
    """ric(e_a, e_b) of the left-invariant metric diag(signs).

    ric(X, Y) = -1/2 sum eps_i eps_j g([X,e_i],e_j) g([Y,e_i],e_j)
                + 1/4 sum eps_i eps_j g([e_i,e_j],X) g([e_i,e_j],Y)
                - 1/2 B(X, Y) - 1/2 (g([H,X],Y) + g([H,Y],X)),
    B the Killing form and g(H, X) = tr ad X.
    """
    n = len(signs)
    eps = signs
    tr_ad = [_sum(c[m][i][i] for i in range(n)) for m in range(n)]
    h = [eps[m] * tr_ad[m] for m in range(n)]
    ric = [[F0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            t1 = _sum(eps[i] * eps[j] * c[a][i][j] * c[b][i][j]
                      for i in range(n) for j in range(n)
                      if c[a][i][j] != 0 and c[b][i][j] != 0)
            t2 = _sum(eps[i] * eps[j] * c[i][j][a] * c[i][j][b]
                      for i in range(n) for j in range(n)
                      if c[i][j][a] != 0 and c[i][j][b] != 0)
            killing = _sum(c[a][k][i] * c[b][i][k]
                           for i in range(n) for k in range(n)
                           if c[a][k][i] != 0 and c[b][i][k] != 0)
            mean = _sum(h[m] * (c[m][a][b] * eps[b] + c[m][b][a] * eps[a])
                        for m in range(n) if h[m] != 0)
            val = (-HALF * t1 + QUARTER * eps[a] * eps[b] * t2
                   - HALF * killing - HALF * mean)
            ric[a][b] = val
            ric[b][a] = val
    return ric


def _sum(terms):
    acc = F0
    for t in terms:
        acc = acc + t
    return acc


def ricci_operator(ric, signs):
    """Ric with g(Ric v, w) = ric(v, w): Ric[k][j] = eps_k ric[j][k]."""
    n = len(signs)
    return [[signs[k] * ric[j][k] for j in range(n)] for k in range(n)]


def scalar_curvature(ric, signs):
    return _sum(signs[i] * ric[i][i] for i in range(len(signs)))


def einstein_constant(ric, signs):
    """lam with ric = lam g exactly, else None."""
    n = len(signs)
    lam = ric[0][0] * signs[0]
    for i in range(n):
        for j in range(n):
            want = lam * signs[i] if i == j else F0
            if not ric[i][j] - want == 0:
                return None
    return lam


def bracket(c, x, y):
    n = len(x)
    out = [F0] * n
    for i in range(n):
        if x[i] == 0:
            continue
        for j in range(n):
            if y[j] == 0:
                continue
            for k in range(n):
                if c[i][j][k] != 0:
                    out[k] = out[k] + x[i] * y[j] * c[i][j][k]
    return out


def _apply(A, v):
    n = len(v)
    return [_sum(A[k][j] * v[j] for j in range(n) if v[j] != 0) for k in range(n)]


def _col(A, j):
    return [A[k][j] for k in range(len(A))]


def is_derivation(c, D):
    """D[e_i, e_j] = [D e_i, e_j] + [e_i, D e_j] for all i < j."""
    n = len(D)
    units = [[Fraction(int(p == q)) for q in range(n)] for p in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            lhs = _apply(D, c[i][j])
            rhs = [a + b for a, b in zip(bracket(c, _col(D, i), units[j]),
                                         bracket(c, units[i], _col(D, j)))]
            if any(not a - b == 0 for a, b in zip(lhs, rhs)):
                return False
    return True


def nilsoliton(c, signs):
    """(lam, D) with Ric = lam I + D and D a derivation, or None.

    D = Ric - lam I is a derivation iff for every pair
    Ric[e_i,e_j] - [Ric e_i, e_j] - [e_i, Ric e_j] = -lam [e_i, e_j].
    """
    n = len(signs)
    R = ricci_operator(ricci_form(c, signs), signs)
    units = [[Fraction(int(p == q)) for q in range(n)] for p in range(n)]
    lam = None
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            lhs = _apply(R, c[i][j])
            r1 = bracket(c, _col(R, i), units[j])
            r2 = bracket(c, units[i], _col(R, j))
            for k in range(n):
                pairs.append((c[i][j][k], lhs[k] - r1[k] - r2[k]))
    for b, a in pairs:
        if b != 0:
            lam = -a / b
            break
    if lam is None:
        return None
    for b, a in pairs:
        if not a + lam * b == 0:
            return None
    D = [[R[p][q] - (lam if p == q else F0) for q in range(n)] for p in range(n)]
    return lam, D


def lower_central_dims(c, n):
    """Dimensions of g, [g,g], [g,[g,g]], ... down to 0 (nilpotent input)."""
    units = [[Fraction(int(p == q)) for q in range(n)] for p in range(n)]
    dims = [n]
    current = units
    while True:
        gens = [bracket(c, units[i], w) for i in range(n) for w in current]
        basis = row_basis(gens)
        dims.append(len(basis))
        if not basis or len(basis) == dims[-2]:
            return dims
        current = basis


def row_basis(rows):
    """Echelon basis of the row span of rational rows."""
    work = [list(r) for r in rows if any(x != 0 for x in r)]
    basis = []
    while work:
        piv = work.pop()
        col = next(k for k, x in enumerate(piv) if x != 0)
        pv = piv[col]
        piv = [x / pv for x in piv]
        basis.append(piv)
        nxt = []
        for r in work:
            f = r[col]
            if f != 0:
                r = [x - f * y for x, y in zip(r, piv)]
            if any(x != 0 for x in r):
                nxt.append(r)
        work = nxt
    return basis


def parse_alg(text):
    """(dim, signs, brackets, abelian) from the .alg text format, 0-based."""
    dim, signs, brackets, abelian = None, None, {}, ()
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("dim"):
            dim = int(line.split()[1])
        elif line.startswith("signs"):
            signs = tuple(int(t) for t in line.split()[1:])
        elif line.startswith("abelian:"):
            abelian = tuple(int(t) - 1 for t in line.split(":", 1)[1].replace(",", " ").split())
        else:
            i, j, k, v = line.split()
            brackets.setdefault((int(i) - 1, int(j) - 1), {})[int(k) - 1] = Fraction(v)
    return dim, signs, brackets, abelian


# ---------------------------------------------------------------------------
# Q(i) linear algebra and Clifford relations
# ---------------------------------------------------------------------------

def gaussian(x):
    """(re, im) Fraction pair of a Q(i) scalar; None if it has a w-part."""
    if isinstance(x, (int, Fraction)):
        return (Fraction(x), F0)
    if x.c or x.d:
        return None
    return (x.a, x.b)


def _gmul(p, q):
    return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])


def _gsub(p, q):
    return (p[0] - q[0], p[1] - q[1])


def _gdiv(p, q):
    n = q[0] * q[0] + q[1] * q[1]
    return _gmul(p, (q[0] / n, -q[1] / n))


def gaussian_rank(vectors):
    """Rank over Q(i) of vectors of (re, im) pairs."""
    work = [list(v) for v in vectors]
    rank = 0
    ncols = len(work[0]) if work else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(work)) if work[r][col] != (F0, F0)), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        pv = work[rank][col]
        for r in range(len(work)):
            if r != rank and work[r][col] != (F0, F0):
                f = _gdiv(work[r][col], pv)
                work[r] = [_gsub(x, _gmul(f, y)) for x, y in zip(work[r], work[rank])]
        rank += 1
    return rank


def sparse_gaussian(mat):
    """Rows of {column: (re, im)} for a matrix with Q(i) entries; None if not in Q(i)."""
    out = []
    for row in mat:
        entries = {}
        for j, x in enumerate(row):
            g = gaussian(x)
            if g is None:
                return None
            if g != (F0, F0):
                entries[j] = g
        out.append(entries)
    return out


def _sparse_product(A, B):
    out = []
    for row in A:
        acc = {}
        for k, a in row.items():
            for j, b in B[k].items():
                p = _gmul(a, b)
                q = acc.get(j)
                acc[j] = p if q is None else (q[0] + p[0], q[1] + p[1])
        out.append({j: v for j, v in acc.items() if v != (F0, F0)})
    return out


def clifford_relation_failures(gammas, signs):
    """Pairs (a, b) where gamma_a gamma_b + gamma_b gamma_a != -2 eps_a delta_ab I."""
    mats = [sparse_gaussian(g) for g in gammas]
    if any(m is None for m in mats):
        return [(-1, -1)]
    N = len(gammas[0])
    bad = []
    for a in range(len(mats)):
        for b in range(a, len(mats)):
            ab = _sparse_product(mats[a], mats[b])
            ba = ab if a == b else _sparse_product(mats[b], mats[a])
            want = (Fraction(-2 * signs[a]), F0) if a == b else (F0, F0)
            for i in range(N):
                acc = dict(ab[i])
                for j, v in ba[i].items():
                    q = acc.get(j)
                    acc[j] = v if q is None else (q[0] + v[0], q[1] + v[1])
                diag = acc.pop(i, (F0, F0))
                if diag != want or any(v != (F0, F0) for v in acc.values()):
                    bad.append((a, b))
                    break
    return bad


def annihilator_dim(gammas, psi):
    """dim of {v real : v . psi = 0}; v . psi = sum_a v_a gamma_a psi."""
    n = len(gammas)
    images = []
    for g in gammas:
        col = []
        for row in g:
            acc = (F0, F0)
            for x, p in zip(row, psi):
                gx, gp = gaussian(x), gaussian(p)
                if gx != (F0, F0) and gp != (F0, F0):
                    t = _gmul(gx, gp)
                    acc = (acc[0] + t[0], acc[1] + t[1])
            col.append(acc)
        images.append(col)
    # real unknowns v_a: one rational row per real and imaginary part
    rows = []
    for h in range(len(images[0])):
        rows.append([images[a][h][0] for a in range(n)])
        rows.append([images[a][h][1] for a in range(n)])
    return n - len(row_basis(rows))
