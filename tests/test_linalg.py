"""The sparse eliminator, checked against the dense reference routines."""

import random
from fractions import Fraction

import pytest

from solvspin import linalg
from solvspin.exact import TowerScalar
from solvspin.linalg import (
    _sparse_echelon,
    identity,
    mat_mul,
    normalize_vector,
    rank_mod_p,
    rref,
    sparse_nullspace,
)

from reference_linalg import densify, matrix_rank, nullspace, solve_linear

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
    assert [sum((a * v for a, v in zip(row, x)), F(0)) for row in A] == [F(5), F(11)]
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
        ns = densify(sparse_nullspace(sparse, ncols), ncols)
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
            dense.append([TowerScalar(0, 1) * a + b for a, b in zip(dense[0], dense[1])])
        sparse = [{c: v for c, v in enumerate(row) if not v == 0} for row in dense]
        assert densify(sparse_nullspace(sparse, ncols), ncols) == nullspace([list(r) for r in dense], ncols)


def test_sparse_full_rank_stops_early():
    rng = random.Random(11)
    for n in range(1, 7):
        # an invertible triangular block first, then rows the early exit never reads;
        # a drawn 0 is not stored, as no row stores a zero coefficient
        tri = [{c: F(rng.choice([-2, -1, 1, 3])) if c == r else F(rng.randint(-3, 3))
                for c in range(r, n)} for r in range(n)]
        tri = [{c: v for c, v in row.items() if v} for row in tri]
        poisoned = {0: object()}  # arithmetic on it would raise
        assert sparse_nullspace(tri + [poisoned], n) == []
        dense = [[row.get(c, F(0)) for c in range(n)] for row in tri]
        assert nullspace(dense, n) == []
    i = TowerScalar(0, 1)
    eqs = [{1: i}, {0: TowerScalar(0, 0, 1, 0, 2), 1: TowerScalar.rational(1)}]
    assert sparse_nullspace(eqs, 2) == []


def test_sparse_nullspace_over_tower():
    i = TowerScalar(0, 1)
    # x + i y = 0
    basis = sparse_nullspace([{0: TowerScalar.rational(1), 1: i}], 2)
    # 1 at the free column 1, minus the pivot row's coefficient at column 0
    assert basis == [{1: 1, 0: -i}]
    v = normalize_vector(basis[0])
    assert list(v) == [0, 1] and v[0] == 1 and v[1] * i == -1
    # the lowest column leads, whichever order the row lists its columns in
    v = normalize_vector({4: TowerScalar(0, 0, 1, 0, 2), 1: 2 * i})
    assert list(v) == [1, 4] and v[1] == 1 and v[4] * 2 * i == TowerScalar(0, 0, 1, 0, 2)


def _dense(eqs, ncols, zero):
    return [[row.get(c, zero) for c in range(ncols)] for row in eqs]


def _assert_matches_reference(eqs, ncols, zero):
    dense = _dense(eqs, ncols, zero)
    before = [dict(row) for row in eqs]
    basis = sparse_nullspace(eqs, ncols)
    assert eqs == before  # the equations are read, never changed
    assert densify(basis, ncols, zero) == nullspace(dense, ncols)
    for v in basis:
        # no stored zero; the pivots a free column enters lie below it, so the
        # 1 at the free column is the row's highest entry
        assert all(not x == 0 for x in v.values())
        assert v[max(v)] == 1
        for row in eqs:
            assert sum((a * v[c] for c, a in row.items() if c in v), zero) == 0
    return basis


# entry generators, one per field: Q, Q(i) and Q(i)(sqrt 5)
FIELDS = {
    "Q": (lambda rng: F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)), F(0)),
    "Q(i)": (lambda rng: TowerScalar(F(rng.randint(-2, 2), rng.randint(1, 2)),
                                     rng.choice([-1, 1, 2])), TowerScalar.rational(0)),
    "Q(i)(sqrt 5)": (lambda rng: TowerScalar(rng.randint(-2, 2), rng.randint(-1, 1),
                                             rng.choice([-1, 1]), rng.randint(-1, 1), 5),
                     TowerScalar.rational(0)),
}


def _random_system(rng, entry, ncols, nrows, density):
    eqs = []
    for _ in range(nrows):
        cols = [c for c in range(ncols) if rng.random() < density] or [rng.randrange(ncols)]
        eqs.append({c: entry(rng) for c in cols})
    # dependent rows, which the forward pass reduces to nothing
    for _ in range(nrows // 3):
        a, b = rng.sample(eqs, 2) if len(eqs) > 1 else (eqs[0], eqs[0])
        f = entry(rng)
        row = dict(b)
        for c, v in a.items():
            nv = row.get(c, 0) + f * v
            if nv == 0:
                row.pop(c, None)
            else:
                row[c] = nv
        if row:
            eqs.insert(rng.randrange(len(eqs) + 1), row)
    return eqs


@pytest.mark.parametrize("field", FIELDS)
def test_back_substitution_matches_dense_on_seeded_systems(field):
    entry, zero = FIELDS[field]
    rng = random.Random("back-substitution:" + field)
    for _ in range(4):
        ncols = rng.randint(20, 40)
        eqs = _random_system(rng, entry, ncols, rng.randint(ncols // 3, ncols - 2), 0.15)
        _assert_matches_reference(eqs, ncols, zero)


@pytest.mark.parametrize("field", FIELDS)
def test_back_substitution_through_long_pivot_chains(field):
    # row i has pivot i and references pivot i + 1, which references i + 2, ...;
    # entered in this order the forward pass leaves every reference in place
    entry, zero = FIELDS[field]
    rng = random.Random("pivot-chain:" + field)
    length, ncols = 28, 34
    chain = []
    for i in range(length):
        row = {i: entry(rng), rng.randrange(length, ncols): entry(rng)}
        if i + 1 < length:
            row[i + 1] = entry(rng)
        if i + 2 < length and rng.random() < 0.5:
            row[i + 2] = entry(rng)
        chain.append(row)
    pivots = _sparse_echelon(chain, ncols)
    assert all(i + 1 in pivots[i] for i in range(length - 1))
    basis = _assert_matches_reference(chain, ncols, zero)
    assert len(basis) == ncols - length
    # pivot 0 reaches the free columns only through the whole chain
    assert any(0 in v for v in basis)
    assert _assert_matches_reference(chain[::-1], ncols, zero) == basis


@pytest.mark.parametrize("field", FIELDS)
def test_back_substitution_with_more_free_columns_than_pivots(field):
    entry, zero = FIELDS[field]
    rng = random.Random("wide:" + field)
    for _ in range(3):
        ncols = rng.randint(24, 36)
        eqs = _random_system(rng, entry, ncols, rng.randint(3, ncols // 3), 0.25)
        basis = _assert_matches_reference(eqs, ncols, zero)
        assert len(basis) > ncols - len(basis)


# the pin pass: an equation with one nonzero entry fixes that column to 0;
# an equation left with one entry once the pinned columns are removed becomes
# a pivot whose solved row is empty, so its column is 0 as a pin would make it


@pytest.mark.parametrize("field", FIELDS)
def test_pins_cascade_to_a_fixpoint(field):
    # row k ties column k to column k + 1, and only the last column of the
    # chain is pinned outright, at the end: every other column of the chain
    # is 0 through the pivots its links give, as if each were pinned in turn.
    # Without `emptied` the pin is the chain's only tie to 0; `leading`, whose
    # lowest column is the pinned one, constrains only the columns after it
    entry, zero = FIELDS[field]
    rng = random.Random("pin-chain:" + field)
    length, ncols = 12, 20
    chain = [{k: entry(rng), k + 1: entry(rng)} for k in range(length - 1)]
    chain.append({length - 1: entry(rng)})
    emptied = {0: entry(rng), length - 1: entry(rng)}
    leading = {length - 1: entry(rng), length: entry(rng), length + 1: entry(rng)}
    rest = _random_system(rng, entry, ncols - length, 4, 0.4)
    rest = [{c + length: v for c, v in row.items()} for row in rest]
    for eqs in (chain + [emptied] + rest, chain + [leading] + rest):
        basis = _assert_matches_reference(eqs, ncols, zero)
        assert basis and all(c not in v for v in basis for c in range(length))
        for order in (eqs[::-1], rng.sample(eqs, len(eqs))):
            assert _assert_matches_reference(order, ncols, zero) == basis


@pytest.mark.parametrize("field", FIELDS)
def test_zero_coefficients_and_zero_rows_pin_nothing(field):
    # rows store no zero coefficient; an empty row pins nothing, and a zero
    # that reaches the eliminator anyway raises or does no harm: it never
    # pins its column
    entry, zero = FIELDS[field]
    rng = random.Random("pin-zero:" + field)
    ncols = 6
    clean = [{}, {1: entry(rng)},
             {0: entry(rng), 2: entry(rng), 3: entry(rng)},
             {4: entry(rng), 1: entry(rng)}, {}]  # column 4 after the pin of 1
    basis = _assert_matches_reference(clean, ncols, zero)
    assert len(basis) == 3
    assert any(0 in v for v in basis)
    assert all(1 not in v and 4 not in v for v in basis)
    assert densify(sparse_nullspace([{}, {}], 3), 3, zero) == nullspace([[zero] * 3] * 2, 3)
    with pytest.raises(ValueError, match=r"\{2: 0\}"):
        sparse_nullspace([{2: zero}], ncols)
    returned = 0
    for extra in ([{2: zero}], [{0: zero, 3: zero}], [{0: zero, 1: entry(rng)}],
                  [{4: entry(rng), 5: zero, 1: entry(rng)}], [{0: zero}, {1: zero, 2: zero}]):
        for eqs in (extra + clean, clean + extra):
            try:
                basis = sparse_nullspace(eqs, ncols)
            except (ValueError, ZeroDivisionError):
                continue
            assert densify(basis, ncols, zero) == nullspace(_dense(eqs, ncols, zero), ncols)
            returned += 1
    assert returned  # the zero at column 5 is harmless, and the reference basis comes back


@pytest.mark.parametrize("field", FIELDS)
def test_singletons_reaching_full_rank_stop_the_arithmetic(field):
    entry, zero = FIELDS[field]
    rng = random.Random("pin-full:" + field)
    ncols = 9
    singles = [{c: entry(rng)} for c in range(ncols)] + [{c: entry(rng)} for c in range(0, ncols, 3)]
    rng.shuffle(singles)
    poisoned = {0: object(), 1: object()}  # arithmetic on these would raise
    assert sparse_nullspace(singles + [poisoned], ncols) == []
    # one pin, then a pivot per chain link: pins and pivots reach ncols, and
    # the elimination stops before the poisoned equation
    chain = [{k: entry(rng), k + 1: entry(rng)} for k in range(ncols - 1)] + [{ncols - 1: entry(rng)}]
    assert sparse_nullspace(chain + [poisoned], ncols) == []
    # pins and pivots together reach rank ncols; the elimination then stops
    # before an equation over columns that nothing pinned
    mixed = [{c: entry(rng)} for c in range(4)] + [
        {c: entry(rng) for c in range(4, ncols)} for _ in range(4, ncols)]
    assert sparse_nullspace(mixed + [{5: object(), 6: object()}], ncols) == []
    assert nullspace(_dense(singles + chain + mixed, ncols, zero), ncols) == []


def test_mat_mul_skips_zeros():
    A = ((F(0), F(1)), (F(0), F(0)))
    B = ((F(2), F(0)), (F(0), F(3)))
    assert mat_mul(A, B) == ((F(0), F(3)), (F(0), F(0)))


def _integer_system(rng, nrows, ncols, rank):
    """nrows integer rows, each a combination of `rank` random rows, as sparse rows."""
    base = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(rank)]
    eqs = []
    for _ in range(nrows):
        coeffs = [rng.randint(-2, 2) for _ in range(rank)]
        row = [sum(c * b[k] for c, b in zip(coeffs, base)) for k in range(ncols)]
        eqs.append({k: x for k, x in enumerate(row) if x})
    return eqs


def test_rank_mod_p_matches_dense_rank_on_seeded_systems():
    rng = random.Random(41)
    deficient = 0
    for _ in range(300):
        ncols = rng.randint(1, 7)
        eqs = _integer_system(rng, rng.randint(0, 9), ncols, rng.randint(0, ncols))
        want = matrix_rank([[F(x) for x in row] for row in densify(eqs, ncols)]) if eqs else 0
        assert rank_mod_p(eqs, ncols) == want, (eqs, ncols)
        deficient += want < min(len(eqs), ncols)
    assert deficient >= 50


def test_rank_mod_p_takes_the_largest_rank_over_its_primes(monkeypatch):
    # 3 divides the determinant 3 of [[3, 0], [1, 1]], so the rank mod 3 is 1
    eqs = [{0: 3}, {0: 1, 1: 1}]
    monkeypatch.setattr(linalg, "RANK_PRIMES", (3,))
    assert rank_mod_p(eqs, 2) == 1
    monkeypatch.setattr(linalg, "RANK_PRIMES", (3, 5))
    assert rank_mod_p(eqs, 2) == 2
    monkeypatch.setattr(linalg, "RANK_PRIMES", (5, 3))
    assert rank_mod_p(eqs, 2) == 2
