"""Exact linear algebra over duck-typed field scalars.

Everything here works for Fraction and TowerScalar entries alike: the only
requirements are +, -, *, / and an exact `== 0` test, except that
`normalize_vector` reads its products back through `exact`, so that a
rational entry of a returned basis is a Fraction.  Dense matrices are
sequences of rows; functions return tuples of tuples so results stay hashable
and immutable.

Elimination is sparse: systems and kernel bases are lists of rows
{column: coefficient}.  The row contract: a row stores no zero coefficient,
and `add_scaled`, the one update of a row, removes every entry that sums to
0.  `_sparse_echelon` is the package's one exact elimination loop: no solver
eliminates anywhere else.  `sparse_nullspace` pins the columns that one-entry
equations set to 0 in one pass before it and back-substitutes its pivot rows,
each once, after it.  `rank_mod_p` bounds the rank of integer rows from below
with int arithmetic modulo fixed primes, which proves a kernel empty without
exact elimination.  The dense `rref` is kept only as the reference the tests
compare against.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .exact import scaled

# the primes `rank_mod_p` eliminates modulo, in this order: fixed, so that its
# result is deterministic, and below 2^30, so that a product of two residues
# stays a small int
RANK_PRIMES = (1073741789, 1073741783, 1073741741)

F0 = Fraction(0)
F1 = Fraction(1)


def mat_from_rows(rows) -> tuple:
    return tuple(tuple(row) for row in rows)


def zeros(nrows: int, ncols: int) -> tuple:
    return tuple(tuple(F0 for _ in range(ncols)) for _ in range(nrows))


def identity(n: int) -> tuple:
    return tuple(tuple(F1 if i == j else F0 for j in range(n)) for i in range(n))


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
        zero = row[0] - row[0] if row else F0
        out.append(tuple(zero if x is None else x for x in acc))
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


def add_scaled(row: dict, f, other: dict) -> None:
    """row += f * other, in place, for sparse rows {column: coefficient}.

    An entry that sums to 0 is removed, so a row that stores no zero keeps
    storing none.  This is the one place such a row is updated.
    """
    for c, v in other.items():
        nv = row.get(c)
        nv = f * v if nv is None else nv + f * v
        if nv == 0:
            row.pop(c, None)
        else:
            row[c] = nv


def _sparse_echelon(eqs: Sequence[dict], ncols: int) -> dict[int, dict]:
    """Forward elimination of sparse rows {column: coefficient}.

    Returns {pivot column: row}: each equation, reduced against the earlier
    pivots, solved for its lowest column pc as x_pc = sum row[c] x_c.  So
    reducing by a pivot is one `add_scaled` of the popped entry times its
    row, with no arithmetic on the pivot entry.  The rows {pc: -1} | row span
    the space of eqs, so their number is the rank.  Stops, without reading
    the remaining equations, as soon as the rank reaches ncols.  The
    equations are not changed: one that needs reducing is copied first.
    """
    pivots: dict[int, dict] = {}
    for row in eqs:
        hit = min((c for c in row if c in pivots), default=None)
        if hit is not None:
            row = dict(row)
        while hit is not None:
            add_scaled(row, row.pop(hit), pivots[hit])
            hit = min((c for c in row if c in pivots), default=None)
        if not row:
            continue
        pc = min(row)
        inv = -1 / row[pc]
        pivots[pc] = {c: v * inv for c, v in row.items() if c != pc}
        if len(pivots) == ncols:
            break
    return pivots


def sparse_nullspace(eqs: Sequence[dict], ncols: int) -> list[dict]:
    """Kernel basis, as sparse rows, of a system of dicts {column: coefficient}.

    The equations keep the row contract and are read, never changed.  One pin
    pass sets the column of each one-entry equation to 0; a singleton whose
    coefficient is 0 raises ValueError, as it would pin its column without
    cause.  The pinned columns are then dropped from the other equations, once,
    and the rest go to `_sparse_echelon`.  An equation left with one entry
    there becomes a pivot whose solved row is empty, so its column is 0 in
    every basis vector, as a pin would make it; no second pin pass is needed.
    Back-substitution follows: each pivot's solved row, highest pivot first, is
    rewritten over the free columns by one `add_scaled` per later pivot it
    references, giving the unique reduced echelon form.  Each basis vector is
    the row {free column: 1, pivot column: its coefficient there}, one per
    free column in increasing order, so densified it is the basis dense
    elimination gives.  Returns [] as soon as pins and pivots reach ncols.
    """
    pinned: set = set()
    rows = []
    for eq in eqs:
        if len(eq) > 1:
            rows.append(eq)
        elif eq:
            pinned.add(_pin(eq))
            if len(pinned) == ncols:
                return []
    rows = [row if pinned.isdisjoint(row) else {c: v for c, v in row.items() if c not in pinned}
            for row in rows]
    pivots = _sparse_echelon(rows, ncols - len(pinned))
    if len(pivots) + len(pinned) == ncols:
        return []
    reduced: dict[int, dict] = {}
    for pc in sorted(pivots, reverse=True):
        prow = pivots[pc]
        row = {c: v for c, v in prow.items() if c not in pivots}
        for qc in sorted((c for c in prow if c in pivots), reverse=True):
            add_scaled(row, prow[qc], reduced[qc])
        reduced[pc] = row
    basis = {free: {free: Fraction(1)} for free in range(ncols)
             if free not in pivots and free not in pinned}
    for pc, row in reduced.items():
        for free, coeff in row.items():
            basis[free][pc] = coeff
    return list(basis.values())


def rank_mod_p(eqs: Sequence[dict], ncols: int) -> int:
    """A lower bound on the rank over Q of integer rows {column: int}: their
    largest rank modulo the primes of RANK_PRIMES.

    A minor that is nonzero mod p is a nonzero integer, so no rank mod p
    exceeds the rank over Q.  The primes are tried in order, and the first
    at which the rank reaches ncols ends the search.  Each elimination reads
    the rows into dense rows of ncols integers, so it suits systems with few
    columns, such as the n columns of `clifford.annihilator_kernel`: a row is
    reduced by the earlier pivots in column order, and its first column left
    nonzero mod p becomes a new pivot.
    """
    best = 0
    for p in RANK_PRIMES:
        pivots = [None] * ncols   # pivots[c]: a row that is 1 at c, read right of c only
        rank = 0
        for eq in eqs:
            row = [0] * ncols
            for c, v in eq.items():
                row[c] = v
            for c, prow in enumerate(pivots):
                x = row[c] % p
                if not x:
                    continue
                if prow is None:
                    inv = pow(x, -1, p)
                    pivots[c] = [y * inv % p for y in row]
                    rank += 1
                    break
                for k in range(c + 1, ncols):
                    row[k] -= x * prow[k]
            if rank == ncols:
                return ncols
        best = max(best, rank)
    return best


def _pin(eq: dict) -> int:
    """The column a one-entry equation sets to 0; a zero coefficient pins nothing."""
    (c, v), = eq.items()
    if v == 0:
        raise ValueError("equation {%d: 0} has a zero coefficient and pins nothing" % c)
    return c


def normalize_vector(row: dict) -> dict:
    """A kernel row of exact scalars scaled so its entry at the lowest column is
    1 (deterministic bases).

    The lead becomes the constant 1, and every other entry is multiplied by
    the lead's inverse with `exact.scaled`, which reads each product back from
    integer numerators: the row a solver returns holds a rational entry as a
    Fraction, whichever type the elimination left it in.  The result lists the
    columns in increasing order.
    """
    lead, *rest = sorted(row)
    out = {lead: F1}
    out.update(zip(rest, scaled([row[c] for c in rest], 1 / row[lead])))
    return out
