"""The sparse eliminator, checked against the dense reference routines."""

import random
from fractions import Fraction

from solvspin.exact import TowerScalar
from solvspin.linalg import (
    identity,
    mat_mul,
    mat_vec,
    normalize_vector,
    rref,
    sparse_nullspace,
    transpose,
)

from reference_linalg import matrix_rank, nullspace, solve_linear

F = Fraction


def test_rref_pivots():
    rows = [[F(2), F(4)], [F(1), F(2)]]
    pivots = rref(rows, 2)
    assert pivots == [0]
    assert rows[0] == [F(1), F(2)]


def test_nullspace_simple():
    # x + y + z = 0
    basis = nullspace([[F(1), F(1), F(1)]], 3)
    assert len(basis) == 2
    for v in basis:
        assert sum(v) == 0


def test_nullspace_full_rank_is_empty():
    assert nullspace([[F(1), F(0)], [F(0), F(1)]], 2) == []


def test_solve_linear():
    A = [[F(1), F(2)], [F(3), F(4)]]
    x = solve_linear(A, [F(5), F(11)])
    assert mat_vec(A, x) == (F(5), F(11))
    assert solve_linear([[F(1), F(1)], [F(1), F(1)]], [F(0), F(1)]) is None


def test_matrix_rank():
    assert matrix_rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert matrix_rank(identity(3)) == 3


def test_sparse_matches_dense_on_random_systems():
    rng = random.Random(99)
    for _ in range(30):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        dense = [[F(rng.randint(-3, 3)) for _ in range(ncols)] for _ in range(nrows)]
        sparse = [
            {c: v for c, v in enumerate(row) if v != 0} for row in dense
        ]
        nd = nullspace([list(r) for r in dense], ncols)
        ns = sparse_nullspace(sparse, ncols)
        # both reduce to the unique reduced echelon form, so the bases agree
        assert ns == nd
        for v in ns:
            assert all(sum((row[c] * v[c] for c in range(ncols)), F(0)) == 0 for row in dense)


def _tower_entry(rng):
    if rng.random() < 0.4:
        return TowerScalar.rational(0)
    return TowerScalar(rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-1, 1),
                       rng.randint(-1, 1), 3)


def test_sparse_matches_dense_over_tower():
    rng = random.Random(7)
    for _ in range(30):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        dense = [[_tower_entry(rng) for _ in range(ncols)] for _ in range(nrows)]
        if rng.random() < 0.5 and nrows > 1:
            # a dependent row: i times the first plus the second
            dense.append([TowerScalar.imaginary(1) * a + b for a, b in zip(dense[0], dense[1])])
        sparse = [{c: v for c, v in enumerate(row) if not v == 0} for row in dense]
        assert sparse_nullspace(sparse, ncols) == nullspace([list(r) for r in dense], ncols)


def test_sparse_full_rank_stops_early():
    rng = random.Random(11)
    for n in range(1, 7):
        # an invertible triangular block first, then rows the early exit never reads
        tri = [{c: F(rng.choice([-2, -1, 1, 3])) if c == r else F(rng.randint(-3, 3))
                for c in range(r, n)} for r in range(n)]
        poisoned = {0: object()}  # arithmetic on it would raise
        assert sparse_nullspace(tri + [poisoned], n) == []
        dense = [[row.get(c, F(0)) for c in range(n)] for row in tri]
        assert nullspace(dense, n) == []
    i = TowerScalar.imaginary(1)
    eqs = [{1: i}, {0: TowerScalar(0, 0, 1, 0, 2), 1: TowerScalar.rational(1)}]
    assert sparse_nullspace(eqs, 2) == []


def test_sparse_nullspace_over_tower():
    i = TowerScalar.imaginary(1)
    # x + i y = 0
    basis = sparse_nullspace([{0: TowerScalar.rational(1), 1: i}], 2)
    assert len(basis) == 1
    v = normalize_vector(basis[0])
    assert v[0] == 1 and v[1] * i == -1


def test_mat_mul_skips_zeros():
    A = ((F(0), F(1)), (F(0), F(0)))
    B = ((F(2), F(0)), (F(0), F(3)))
    assert mat_mul(A, B) == ((F(0), F(3)), (F(0), F(0)))
    assert transpose(A) == ((F(0), F(0)), (F(1), F(0)))
