"""Clifford algebra representations on complex spinor spaces.

Generators gamma_a of size 2^floor(n/2) satisfy

    gamma_a gamma_b + gamma_b gamma_a = -2 eps_a delta_ab I,

so a frame vector acts with v.v.psi = -g(v, v) psi.  Iterated doubling only
produces monomial matrices (one entry per row, a unit of Z[i]), so a
representation stores each gamma_a once, as a column permutation perm[a] and
phases phase[a] in Z/4: row i holds i**phase[a][i] at column perm[a][i].
Products compose permutations and add phases.

An element of the Clifford algebra is a list of terms (word, c): a word is
(a,) for gamma_a or (a, b) for gamma_a gamma_b, and c is an exact scalar.
Clifford multiplication by a vector has the words (a,), a spin lift or a
2-tensor action the words (a, b), and a Killing operator
nabla_{e_i} - lam gamma_i joins both.  `clifford_rows` is the one builder of
such an element.  It first reduces each word to the normal form of the
basis gamma_I, I increasing: gamma_a gamma_a = -eps_a I, and
gamma_a gamma_b = -gamma_b gamma_a for a != b.  It then multiplies out each
normal word once and accumulates sparse rows {column: coefficient}, so the
two orders of a pair build one product and a symmetric 2-tensor builds none
off the diagonal.  The coefficients, rational or in the tower Q(i)(sqrt m),
are written as integer numerators over one common denominator, a phase i**q
permutes and negates those integers, and each nonzero entry is read back
once at the end with `exact.from_numerators`: a Fraction when it is
rational, a TowerScalar otherwise.  The dense matrices over Q(i), including
`CliffordRep.gammas`, are views derived from those forms; their zeros are
Fraction(0) and their real units Fraction(+-1).  For odd n the
representation is pinned down by normalizing the volume element to act as
+1 or +i.  The generators of the all-plus signature are built once per n,
by the one `lru_cache` on `_definite_generators`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from typing import Sequence

from .exact import TS_I, _rotations, common_numerators, from_numerators
from .linalg import MAX_UNKNOWNS, mat_from_rows, rank_mod_p, sparse_nullspace

F0 = Fraction(0)
QUARTER = Fraction(1, 4)

_UNITS = (Fraction(1), TS_I, Fraction(-1), -TS_I)   # i**k for k in Z/4


@dataclass(frozen=True)
class CliffordRep:
    signs: tuple
    perm: tuple                    # perm[a][i]: column of row i's entry in gamma_a
    phase: tuple                   # phase[a][i]: that entry is i**phase[a][i]
    volume_power: int | None       # odd n: volume element acts as i**k

    @property
    def n(self) -> int:
        return len(self.signs)

    @property
    def spinor_dim(self) -> int:
        return len(self.perm[0]) if self.perm else 1

    @cached_property
    def gammas(self) -> tuple:
        """The n dense N x N matrices over Q(i), built from perm and phase."""
        return tuple(dense_rows(gamma_rows(self, a)) for a in range(self.n))


# Monomial matrices below are (perm, phase) pairs, as for one generator.

def _compose(x, y) -> tuple:
    """The product x y."""
    (px, qx), (py, qy) = x, y
    return tuple(py[j] for j in px), tuple((q + qy[j]) % 4 for q, j in zip(qx, px))


def _kron(x, y) -> tuple:
    """The Kronecker product x (x) y."""
    (px, qx), (py, qy) = x, y
    m = len(py)
    return tuple(j * m + k for j in px for k in py), tuple((q + r) % 4 for q in qx for r in qy)


def _times_i(x, k: int) -> tuple:
    """i**k x."""
    return x[0], tuple((q + k) % 4 for q in x[1])


def _scalar_phase(x) -> int | None:
    """k when x = i**k I, else None."""
    perm, phase = x
    if perm == tuple(range(len(perm))) and len(set(phase)) == 1:
        return phase[0]
    return None


_J = ((1, 0), (0, 2))   # [[0, 1], [-1, 0]]
_Z = ((0, 1), (0, 2))   # diag(1, -1)
_X = ((1, 0), (0, 0))   # [[0, 1], [1, 0]]


@lru_cache(maxsize=None)
def _definite_generators(n: int) -> tuple:
    """Generators squaring to -I for the all-plus signature (cached per n).

    n = 1 is the 1 x 1 matrix i; an odd n > 1 adds to the set for n - 1 a
    normalized product of all of them; an even n doubles from n = 2.
    """
    if n == 1:
        return (((0,), (1,)),)
    if n % 2:
        gens = _definite_generators(n - 1)
        prod = reduce(_compose, gens)
        square = _scalar_phase(_compose(prod, prod))
        return gens + (_times_i(prod, 0 if square == 2 else 1),)
    gens = [_J, ((1, 0), (1, 1))]
    size = 2
    while len(gens) < n:
        eye = (tuple(range(size)), (0,) * size)
        gens = [_kron(_Z, g) for g in gens] + [_kron(_X, _times_i(eye, 1)), _kron(_J, eye)]
        size *= 2
    return tuple(gens)


def build_gammas(signs: Sequence[int]) -> CliffordRep:
    """Representation of the Clifford algebra for a +-1 signature list."""
    signs = tuple(signs)
    n = len(signs)
    if n < 1:
        raise ValueError("need n >= 1")
    if any(s not in (1, -1) for s in signs):
        raise ValueError("signature entries must be +-1")
    if 2 ** (n // 2) > MAX_UNKNOWNS:
        raise ValueError("n = %d gives spinors of dimension 2^%d, more than the limit of %d"
                         % (n, n // 2, MAX_UNKNOWNS))
    gens = _definite_generators(n)
    # sign fix: gamma_a -> i gamma_a wherever eps_a = -1
    gammas = [_times_i(g, 1) if s == -1 else g for g, s in zip(gens, signs)]
    volume_power = None
    if n % 2 == 1:
        k = _scalar_phase(reduce(_compose, gammas))
        if k is None:
            raise RuntimeError("volume element is not scalar")
        if k >= 2:  # volume acts as -1 or -i: flip the last generator
            gammas[-1] = _times_i(gammas[-1], 2)
            k -= 2
        volume_power = k
    return CliffordRep(signs, tuple(p for p, _ in gammas), tuple(q for _, q in gammas),
                       volume_power)


def _generators(rep: CliffordRep) -> list:
    return list(zip(rep.perm, rep.phase))


def clifford_violations(rep: CliffordRep) -> list[tuple[int, int]]:
    """Pairs (a, b) where the anticommutator relation fails (exact check).

    Row i of gamma_a gamma_b holds i**(qa[i] + qb[pa[i]]) at column pb[pa[i]],
    for pa, qa = perm[a], phase[a], so each pair is one pass over the rows
    with no product built.  For a = b the square must be the identity
    permutation with phase 2 (eps_a = +1) or 0 (eps_a = -1) in every row; for
    a != b the two products must share their permutation, pb[pa[i]] ==
    pa[pb[i]], and their phases must differ by 2 in every row.
    """
    gens = _generators(rep)
    bad = []
    for a, (pa, qa) in enumerate(gens):
        want = 1 + rep.signs[a]
        for i, (j, x) in enumerate(zip(pa, qa)):
            if pa[j] != i or (x + qa[j]) % 4 != want:
                bad.append((a, a))
                break
        for b in range(a + 1, rep.n):
            pb, qb = gens[b]
            for j, k, x, y in zip(pa, pb, qa, qb):
                if pb[j] != pa[k] or (x + qb[j] - y - qa[k]) % 4 != 2:
                    bad.append((a, b))
                    break
    return bad


def clifford_rows(rep: CliffordRep, terms) -> list[dict]:
    """Sparse rows {column: coefficient} of the sum of c gamma_a or c gamma_a gamma_b
    over terms ((a,), c) or ((a, b), c), each c an exact scalar.

    A word of any other length raises ValueError, and a coefficient that is
    not exact (a float) TypeError.  The coefficients are written as integer
    numerators (a, b, c, d) over one common denominator q, and each word is
    first brought to normal form with the Clifford relation: (a, a) is the
    empty word with factor -eps_a, and (a, b) with a > b is (b, a) with its
    sign flipped.  Both identities hold exactly in every representation
    `build_gammas` makes, as `clifford_violations` certifies.  The numerators
    are summed per normal word, and each word whose sum is nonzero is
    multiplied out once: the empty word is the identity, and row i of
    gamma_a gamma_b holds i**(qa[i] + qb[pa[i]]) at column pb[pa[i]], for
    pa, qa = perm[a], phase[a].  i**k rotates the four integers, so each
    entry is a sum of integer tuples, and one scalar is read back per nonzero
    entry (`from_numerators`: a Fraction when it is rational).
    """
    terms = list(terms)
    nums, q, m = common_numerators([c for _, c in terms])
    signs = rep.signs
    sums = {}
    for (word, _), num in zip(terms, nums):
        if len(word) == 2:
            a, b = word
            if a > b:
                word = (b, a)
                num = (-num[0], -num[1], -num[2], -num[3])
            elif a == b:
                word = ()
                if signs[a] == 1:
                    num = (-num[0], -num[1], -num[2], -num[3])
        elif len(word) != 1:
            raise ValueError("a Clifford word has one or two letters, not %r" % (word,))
        s = sums.get(word)
        sums[word] = num if s is None else (s[0] + num[0], s[1] + num[1], s[2] + num[2], s[3] + num[3])
    perm, phase = rep.perm, rep.phase
    acc = [{} for _ in range(rep.spinor_dim)]
    for word, num in sums.items():
        if not any(num):
            continue
        if not word:
            for i, row in enumerate(acc):
                y = row.get(i)
                row[i] = num if y is None else (num[0] + y[0], num[1] + y[1], num[2] + y[2], num[3] + y[3])
            continue
        rot = _rotations(num)
        a = word[0]
        if len(word) == 1:
            for row, j, k in zip(acc, perm[a], phase[a]):
                x = rot[k]
                y = row.get(j)
                row[j] = x if y is None else (x[0] + y[0], x[1] + y[1], x[2] + y[2], x[3] + y[3])
        else:
            rot *= 2      # rot[k] = i**k num for k in 0..6
            pb, qb = perm[word[1]], phase[word[1]]
            for row, j, k in zip(acc, perm[a], phase[a]):
                x = rot[k + qb[j]]
                j = pb[j]
                y = row.get(j)
                row[j] = x if y is None else (x[0] + y[0], x[1] + y[1], x[2] + y[2], x[3] + y[3])
    rows = []
    for row in acc:
        out = {}
        for j in sorted(row):
            a, b, c, d = row[j]
            if a or b or c or d:
                out[j] = from_numerators(a, b, c, d, q, m)
        rows.append(out)
    return rows


def dense_rows(rows: Sequence[dict]) -> tuple:
    """The square matrix over Q(i) with the given sparse rows."""
    N = len(rows)
    out = []
    for row in rows:
        dense = [F0] * N
        for j, x in row.items():
            dense[j] = x
        out.append(tuple(dense))
    return tuple(out)


def gamma_of_vector_rows(rep: CliffordRep, v: Sequence) -> list[dict]:
    """Sparse rows of Clifford multiplication by the frame vector v (n entries)."""
    _check_length(v, rep.n, "v", "n")
    return clifford_rows(rep, (((a,), c) for a, c in enumerate(v)))


def gamma_of_vector(rep: CliffordRep, v: Sequence) -> tuple:
    """Dense matrix of Clifford multiplication by the frame vector v."""
    return dense_rows(gamma_of_vector_rows(rep, v))


def gamma_rows(rep: CliffordRep, a: int) -> list[dict]:
    """Sparse rows of gamma_a: row i holds i**phase[a][i] at column perm[a][i]."""
    return [{j: _UNITS[q]} for j, q in zip(rep.perm[a], rep.phase[a])]


def skew_lift_terms(rep: CliffordRep, entries):
    """Terms ((j, k), eps_j A_kj / 4) of (1/4) sum_j eps_j gamma_j gamma(A e_j), from
    entries (k, j, A_kj).

    Entries left out are zero.  This is the spin lift of A, with
    [lift(A), v.] = (A v). for every vector v, only when A is metric-skew,
    which the caller vouches for: the Levi-Civita connection, whose entries
    the solvers pass, is checked metric-compatible when it is built.
    """
    return (((j, k), QUARTER * x if rep.signs[j] == 1 else -QUARTER * x) for k, j, x in entries)


def two_tensor_action(rep: CliffordRep, T) -> tuple:
    """Action of a 2-tensor sum_ij T_ij e_i (x) e_j as sum_ij T_ij gamma_i gamma_j.

    T must be n x n; any other shape raises ValueError.
    """
    n = rep.n
    if len(T) != n or any(len(row) != n for row in T):
        raise ValueError("T must be n x n = %d x %d" % (n, n))
    return dense_rows(clifford_rows(rep, (((a, b), T[a][b]) for a in range(n) for b in range(n))))


def _check_length(x: Sequence, size: int, name: str, size_name: str) -> None:
    if len(x) != size:
        raise ValueError("%s has %d entries, but %s = %d" % (name, len(x), size_name, size))


def raise_endomorphism(signs: Sequence[int], f) -> tuple:
    """Index-raised tensor of an endomorphism: T_ij = eps_i f[j][i]."""
    n = len(signs)
    return tuple(tuple(signs[i] * f[j][i] for j in range(n)) for i in range(n))


# ---------------------------------------------------------------------------
# kernels attached to a spinor
# ---------------------------------------------------------------------------

def annihilator_kernel(rep: CliffordRep, psi: Sequence) -> list[dict]:
    """Basis of V_psi = {real vectors v with v . psi = 0}, as sparse rows {a: v_a}.

    psi must have spinor_dim entries (ValueError otherwise).  Scaling psi
    does not change V_psi, so psi is written over one denominator with
    integer numerators (`exact.common_numerators`).  Entry h of v . psi is
    sum_a v_a i**phase[a][h] psi[perm[a][h]]; its four integer parts (along
    1, i, w and i w) are the equations, one sparse row {a: int} each, and
    multiplying by i**q rotates those parts.

    V_psi = 0 is proved by `linalg.rank_mod_p` reaching n, since the rank
    over Q is at least the rank mod p; no exact elimination is made.
    Otherwise `sparse_nullspace` solves the rows over Q, and the basis is
    certified from both sides: its length must be n minus the rank mod p,
    and each vector must satisfy every row.  A failed certificate raises
    RuntimeError.
    """
    _check_length(psi, rep.spinor_dim, "psi", "spinor_dim")
    rotations = [_rotations(x) for x in common_numerators(psi)[0]]
    gens = _generators(rep)
    eqs = []
    for h in range(rep.spinor_dim):
        for part in zip(*[rotations[perm[h]][phase[h]] for perm, phase in gens]):
            eq = {col: x for col, x in enumerate(part) if x}
            if eq:
                eqs.append(eq)
    n = rep.n
    rank = rank_mod_p(eqs, n)
    if rank == n:
        return []
    # sparse_nullspace divides by its pivots, so it gets the rows as Fractions
    basis = sparse_nullspace([{c: Fraction(x) for c, x in eq.items()} for eq in eqs], n)
    if len(basis) != n - rank:
        raise RuntimeError("annihilator_kernel: exact kernel of dimension %d, but rank %d of %d mod p"
                           % (len(basis), rank, n))
    if any(sum(x * v[c] for c, x in eq.items() if c in v) != 0 for v in basis for eq in eqs):
        raise RuntimeError("annihilator_kernel: a basis vector fails the equations")
    return basis


@dataclass(frozen=True)
class CommutantKernel:
    """Solution set of {f metric-symmetric : f(X).psi = X.psi for all X}.

    The set is the identity plus the span of homogeneous_basis (symmetric maps
    with image inside V_psi); it reduces to {id} exactly when V_psi = 0.
    """

    homogeneous_basis: tuple
    v_psi_dimension: int

    @property
    def dimension(self) -> int:
        return len(self.homogeneous_basis)

    @property
    def is_identity_only(self) -> bool:
        return not self.homogeneous_basis


def symmetric_commutant_kernel(rep: CliffordRep, psi: Sequence) -> CommutantKernel:
    """Exact affine solution set of f(X).psi = X.psi over symmetric f.

    Solved via the annihilator V_psi: the columns of f - id must land in
    V_psi, and f - id must be metric-symmetric.  psi must be nonzero and have
    spinor_dim entries (ValueError otherwise).
    """
    _check_length(psi, rep.spinor_dim, "psi", "spinor_dim")
    if all(x == 0 for x in psi):
        raise ValueError("psi must be nonzero")
    n = rep.n
    V = annihilator_kernel(rep, psi)
    d = len(V)
    if d == 0:
        return CommutantKernel((), 0)
    # columns u_k of the homogeneous f lie in V_psi: u_k = sum_j t[j][k] V_j;
    # symmetry of f means eps_i u_k[i] = eps_k u_i[k] for each pair i < k, so
    # entry a of V_j enters the equation of every pair {a, b}
    eqs = {(i, k): {} for i in range(n) for k in range(i + 1, n)}
    for j, vj in enumerate(V):
        for a, x in vj.items():
            for b in range(n):
                if b != a:
                    eqs[min(a, b), max(a, b)][j * n + b] = rep.signs[a] * (x if a < b else -x)
    basis = []
    for t in sparse_nullspace([eq for eq in eqs.values() if eq], d * n):
        f = [[F0] * n for _ in range(n)]
        for col, coeff in t.items():
            j, k = divmod(col, n)
            for i, x in V[j].items():
                f[i][k] += coeff * x
        basis.append(mat_from_rows(f))
    return CommutantKernel(tuple(basis), d)
