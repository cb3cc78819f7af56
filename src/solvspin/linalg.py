"""Exact linear algebra over duck-typed field scalars.

Everything here works for Fraction, TowerScalar and FloatScalar entries alike:
the only requirements are +, -, *, / and an `== 0` test (exact for the first
two, tolerance-based for floats).  Dense matrices are sequences of rows;
functions return tuples of tuples so results stay hashable and immutable.

Elimination is sparse: systems are lists of rows {column: coefficient}, and
so are kernel bases.  `_sparse_echelon` is the one elimination loop; it gives
ranks and spanning rows.  `sparse_nullspace` first pins every column that an
equation with one nonzero entry sets to 0, repeating while removing pinned
columns leaves new such equations, so only the rest pay for arithmetic in
that loop; it then back-substitutes the pivot rows, each once, to the kernel
basis, one sparse row per free column.  The dense `rref` is kept only as the
reference the tests compare against.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def mat_from_rows(rows) -> tuple:
    return tuple(tuple(row) for row in rows)


def zeros(nrows: int, ncols: int, zero=Fraction(0)) -> tuple:
    return tuple(tuple(zero for _ in range(ncols)) for _ in range(nrows))


def identity(n: int, one=Fraction(1), zero=Fraction(0)) -> tuple:
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def transpose(mat) -> tuple:
    return tuple(zip(*[tuple(r) for r in mat])) if mat else ()


def mat_sub(A, B) -> tuple:
    return tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_scale(c, A) -> tuple:
    return tuple(tuple(c * a for a in row) for row in A)


def mat_mul(A, B) -> tuple:
    """Matrix product skipping zero entries of A (gammas are very sparse)."""
    Bt = [tuple(r) for r in B]
    n = len(Bt[0]) if Bt else 0
    out = []
    for row in A:
        acc = [None] * n
        for k, aik in enumerate(row):
            if aik == 0:
                continue
            brow = Bt[k]
            for j in range(n):
                v = brow[j]
                if v == 0:
                    continue
                t = aik * v
                acc[j] = t if acc[j] is None else acc[j] + t
        zero = _zero_like(row[0]) if row else Fraction(0)
        out.append(tuple(zero if x is None else x for x in acc))
    return tuple(out)


def _zero_like(x):
    return x - x


def mat_vec(A, v) -> tuple:
    out = []
    for row in A:
        acc = None
        for a, x in zip(row, v):
            if a == 0 or x == 0:
                continue
            t = a * x
            acc = t if acc is None else acc + t
        out.append(_zero_like(row[0]) if acc is None else acc)
    return tuple(out)


def mat_equal(A, B) -> bool:
    return all(all(a == b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def rref(rows: list[list], ncols: int) -> list[int]:
    """In-place dense reduced row echelon form; returns the pivot column list.

    The solvers all eliminate with `sparse_nullspace`; this is the dense
    reference the tests check it against.
    """
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(rows)):
            if not rows[i][c] == 0:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c] == 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def _sparse_echelon(eqs: Sequence[dict], ncols: int) -> dict[int, dict]:
    """Forward elimination of sparse rows {column: coefficient}.

    Returns {pivot column: row}, each row reduced against the earlier pivots,
    keyed by its lowest column and scaled to 1 there.  The rows span the same
    space as eqs, so their number is the rank.  Stops, without reading the
    remaining equations, as soon as the rank reaches ncols.
    """
    return _echelon(map(_nonzero, eqs), ncols)


def _nonzero(eq: dict) -> dict:
    """eq itself if it holds no zero coefficient, else a copy without them."""
    if 0 in eq.values():
        return {c: v for c, v in eq.items() if not v == 0}
    return eq


def _echelon(rows, ncols: int) -> dict[int, dict]:
    """`_sparse_echelon` on rows that hold no zero coefficient; they are not changed."""
    pivots: dict[int, dict] = {}
    for row in rows:
        hit = min((c for c in row if c in pivots), default=None)
        if hit is not None:
            row = dict(row)
        while hit is not None:
            f = row.pop(hit)
            for c, v in pivots[hit].items():
                if c == hit:
                    continue
                nv = row.get(c)
                nv = -f * v if nv is None else nv - f * v
                if nv == 0:
                    row.pop(c, None)
                else:
                    row[c] = nv
            hit = min((c for c in row if c in pivots), default=None)
        if not row:
            continue
        pc = min(row)
        inv = 1 / row[pc]
        pivots[pc] = {c: v * inv for c, v in row.items()}
        if len(pivots) == ncols:
            break
    return pivots


def sparse_nullspace(eqs: Sequence[dict], ncols: int) -> list[dict]:
    """Kernel basis, as sparse rows, of a system of dicts {column: coefficient}.

    First the pin pass: each equation is cleaned of its zero coefficients
    once, and one left with a single entry pins that column to 0.  Pinned
    columns are removed from the other equations until no new singleton
    appears.  A pinned column is a pivot whose reduced row is empty, so it
    needs no scaling and no back-substitution, and no basis row holds it.
    The pass reads every equation but does no arithmetic once the pins reach
    rank ncols.  The equations left go to the forward elimination
    (`_sparse_echelon`'s loop), then to back-substitution: each pivot row,
    highest pivot first, is rewritten once over the free columns from the
    rows of the later pivots it references, which are already rewritten.
    That is the unique reduced echelon form.  Each basis vector is the row
    {free column: 1, pivot column: minus its coefficient} over the pivots that
    reference that free column, one per free column in increasing order; the
    columns it leaves out are 0, so densified it is the basis dense
    elimination gives.  Returns [] as soon as pins and pivots reach ncols.
    """
    pinned: set = set()
    rows = []
    for eq in eqs:
        row = _nonzero(eq)
        if len(row) > 1:
            rows.append(row)
        elif row:
            pinned.update(row)
            if len(pinned) == ncols:
                return []
    fresh = set(pinned)
    while fresh and rows:
        found = set()
        kept = []
        for row in rows:
            if not fresh.isdisjoint(row):
                row = {c: v for c, v in row.items() if c not in fresh}
                if len(row) < 2:
                    found.update(row)
                    continue
            kept.append(row)
        fresh = found - pinned
        pinned |= fresh
        if len(pinned) == ncols:
            return []
        rows = kept
    pivots = _echelon(rows, ncols - len(pinned))
    if len(pivots) + len(pinned) == ncols:
        return []
    reduced: dict[int, dict] = {}
    for pc in sorted(pivots, reverse=True):
        prow = pivots[pc]
        row = {c: v for c, v in prow.items() if c not in pivots}
        for qc in sorted((c for c in prow if c != pc and c in pivots), reverse=True):
            f = prow[qc]
            for c, v in reduced[qc].items():
                nv = row.get(c)
                nv = -f * v if nv is None else nv - f * v
                if nv == 0:
                    row.pop(c, None)
                else:
                    row[c] = nv
        reduced[pc] = row
    basis = {free: {free: Fraction(1)} for free in range(ncols)
             if free not in pivots and free not in pinned}
    for pc, row in reduced.items():
        for free, coeff in row.items():
            if not coeff == 0:  # a float pivot row may keep an entry within tolerance of 0
                basis[free][pc] = -coeff
    return list(basis.values())


def normalize_vector(row: dict) -> dict:
    """A kernel row scaled so its entry at the lowest column is 1 (deterministic bases).

    The lead is inverted once; the result lists the columns in increasing order.
    """
    inv = 1 / row[min(row)]
    return {c: row[c] * inv for c in sorted(row)}
