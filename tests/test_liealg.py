"""Connection, curvature, Ricci, decompositions, nilsolitons, extensions."""

import itertools
import math
from fractions import Fraction

import pytest

from conftest import (
    NILPOTENT_SHAPES,
    abelian_metric,
    heisenberg3,
    random_diagonal_derivation,
    random_nilpotent,
    random_pseudo_iwasawa,
    semidirect_metric,
)
from solvspin.exact import TowerScalar
from solvspin.halfspace import HalfSpaceModel
from solvspin.liealg import (
    F0,
    DerivationError,
    LieAlgebra,
    MetricLieAlgebra,
    NotStandardError,
    StructureError,
    _check_connection,
    check_standard,
    curvature,
    einstein_check,
    einstein_extension,
    extend_by_derivation,
    is_derivation,
    jacobi_check,
    levi_civita,
    lower_central_series,
    metric_transpose,
    nilsoliton_solve,
    restrict,
    ricci,
    ricci_standard,
    standard_connection_identities,
    standard_decomposition,
    symmetric_part,
)
from solvspin.linalg import identity, mat_equal, mat_scale

from reference_liealg import dense_curvature, densify_curvature, nabla_matrices
from reference_linalg import lower_central_series_dense, solve_linear

F = Fraction


def gamma_table(conn, n):
    """The dense table gamma[i][j][k] = Gamma_ijk, built from the stored entries."""
    g = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
    for i, j, k, v in conn:
        g[i][j][k] = v
    return tuple(tuple(tuple(row) for row in plane) for plane in g)


def koszul_oracle(M):
    """Independent scalar Koszul formula:
    Gamma[i][j][k] = (c_ijk - eps_i eps_k c_jki + eps_j eps_k c_kij) / 2."""
    n = M.dim
    c = M.algebra.structure
    e = M.signs
    return tuple(
        tuple(
            tuple(
                F(1, 2) * (c[i][j][k] - e[i] * e[k] * c[j][k][i] + e[j] * e[k] * c[k][i][j])
                for k in range(n)
            )
            for j in range(n)
        )
        for i in range(n)
    )


class TestJacobiAndSeries:
    def test_abelian(self):
        L = LieAlgebra.abelian(3)
        assert jacobi_check(L) == []
        assert lower_central_series(L) == ([3, 0], True)

    def test_heis3(self):
        M = heisenberg3()
        assert jacobi_check(M.algebra) == []
        assert lower_central_series(M.algebra) == ([3, 1, 0], True)

    def test_broken_sign_violates(self):
        L = LieAlgebra.from_brackets(3, {(0, 1): {2: F(1)}, (0, 2): {1: F(1)}, (1, 2): {1: F(1)}})
        assert jacobi_check(L) != []

    def test_solvable_not_nilpotent(self):
        L = LieAlgebra.from_brackets(2, {(0, 1): {1: F(1)}})
        dims, nilpotent = lower_central_series(L)
        assert not nilpotent
        assert dims[-1] == 1


def _is_rational(L: LieAlgebra) -> bool:
    return all(not isinstance(c, TowerScalar) or c.is_rational for *_, c in L.brackets)


class TestSeriesOracle:
    """lower_central_series against dense rref ranks in tests/reference_linalg.py."""

    def test_matches_dense_on_catalog_and_random_algebras(self, rng):
        algebras = [LieAlgebra.from_brackets(dim, {pair: {k: F(1)} for pair, k in slots})
                    for dim, slots in NILPOTENT_SHAPES]
        algebras += [
            LieAlgebra.from_brackets(3, {(0, 1): {2: F(1)}, (0, 2): {1: F(-1)}, (1, 2): {0: F(1)}}),
            LieAlgebra.from_brackets(3, {(0, 1): {1: F(2)}, (0, 2): {2: F(-2)}, (1, 2): {0: F(1)}}),
            LieAlgebra.from_brackets(2, {(0, 1): {1: F(1)}}),
            # [e_0, e_2 + 2 e_3] = 0 only with the echelon row's coefficients
            LieAlgebra.from_brackets(5, {(0, 1): {2: F(1), 3: F(2)}, (0, 2): {4: F(2)},
                                         (0, 3): {4: F(-1)}}),
        ]
        algebras += [random_nilpotent(rng) for _ in range(30)]
        algebras += [random_pseudo_iwasawa(rng)[0].algebra for _ in range(10)]
        # heis3 + R: the Einstein extension has coefficients in Q(sqrt m)
        heis3_r = LieAlgebra.from_brackets(4, {(0, 1): {2: F(1)}})
        ext, _, _ = einstein_extension(MetricLieAlgebra(heis3_r, (1,) * 4))
        algebras.append(ext.algebra)
        for L in algebras:
            assert lower_central_series(L) == lower_central_series_dense(L), L
        assert not _is_rational(algebras[-1])
        assert {nilpotent for _, nilpotent in map(lower_central_series, algebras)} == {True, False}


def dense_table(dim, brackets):
    """The dense table from_brackets built before the sparse form: F0 everywhere,
    then c[i][j][k] = coeff and c[j][i][k] = -coeff for each {(i, j): {k: coeff}}."""
    c = [[[F(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), comps in brackets.items():
        for k, coeff in comps.items():
            c[i][j][k] = coeff
            c[j][i][k] = -coeff
    return c


def assert_same_table(got, want):
    """Entrywise equal, with the same scalar type in every slot."""
    n = len(want)
    assert len(got) == n
    for i in range(n):
        for j in range(n):
            assert len(got[i][j]) == n
            for k in range(n):
                x, y = got[i][j][k], want[i][j][k]
                assert type(x) is type(y) and x == y, (i, j, k, x, y)


def random_brackets(rng, dim):
    """{(i, j): {k: coeff}} on a catalog nilpotent shape with random coefficients."""
    shapes = [slots for d, slots in NILPOTENT_SHAPES if d == dim]
    out = {}
    for (i, j), k in rng.choice(shapes):
        out.setdefault((i, j), {})[k] = F(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2, 3]))
    return out


class TestSparseForm:
    """The stored bracket list and the dense `structure` view derived from it."""

    def test_dense_view_matches_from_brackets_table(self, rng):
        cases = [(dim, {pair: {k: F(1)} for pair, k in slots}) for dim, slots in NILPOTENT_SHAPES]
        cases += [(3, {(0, 1): {2: F(1)}, (0, 2): {1: F(-1)}, (1, 2): {0: F(1)}}),
                  (5, {(0, 1): {2: F(1), 3: F(2)}, (0, 2): {4: F(2)}, (0, 3): {4: F(-1)}})]
        cases += [(dim, random_brackets(rng, dim)) for dim in (3, 4, 5) for _ in range(10)]
        for dim, brackets in cases:
            L = LieAlgebra.from_brackets(dim, brackets)
            assert_same_table(L.structure, dense_table(dim, brackets))
            nonzero = sum(1 for comps in brackets.values() for c in comps.values() if c != 0)
            assert len(L.brackets) == 2 * nonzero

    def test_dense_view_of_pseudo_iwasawa_restrict_and_extension(self, rng):
        for _ in range(15):
            M, decomp = random_pseudo_iwasawa(rng)
            n, nil, ab = M.dim, decomp.nil_indices, decomp.abelian_indices
            full = M.algebra.structure
            # semidirect_metric: [e_alpha, e_j] = -phi_alpha e_j on top of the nil table
            want = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
            for p, i in enumerate(nil):
                for q, j in enumerate(nil):
                    for r, k in enumerate(nil):
                        want[i][j][k] = full[i][j][k]
            for a_pos, a in enumerate(ab):
                for q, j in enumerate(nil):
                    for p, k in enumerate(nil):
                        if decomp.phi[a_pos][p][q] != 0:
                            want[j][a][k] = decomp.phi[a_pos][p][q]
                            want[a][j][k] = -decomp.phi[a_pos][p][q]
            assert_same_table(full, want)
            sub = restrict(M, nil).algebra
            assert_same_table(sub.structure, [[[full[i][j][k] for k in nil] for j in nil] for i in nil])
            D = random_diagonal_derivation(rng, sub)
            ext, _ = extend_by_derivation(restrict(M, nil), D, 1)
            m = len(nil)
            want = [[[sub.structure[i][j][k] if i < m and j < m and k < m else F(0)
                      for k in range(m + 1)] for j in range(m + 1)] for i in range(m + 1)]
            for j in range(m):
                for k in range(m):
                    if D[k][j] != 0:
                        want[j][m][k], want[m][j][k] = D[k][j], -D[k][j]
            assert_same_table(ext.algebra.structure, want)

    def test_bracket_order_does_not_matter(self, rng):
        for _ in range(20):
            dim = rng.choice([4, 5])
            brackets = random_brackets(rng, dim)
            L = LieAlgebra.from_brackets(dim, brackets)
            flipped = LieAlgebra.from_brackets(
                dim, {pair: dict(reversed(list(comps.items())))
                      for pair, comps in reversed(list(brackets.items()))})
            entries = list(L.brackets)
            rng.shuffle(entries)
            shuffled = LieAlgebra(dim, entries)
            towers = LieAlgebra(dim, [(i, j, k, TowerScalar(c)) for i, j, k, c in entries])
            for other in (flipped, shuffled, towers):
                assert other == L and hash(other) == hash(L)
                assert other.brackets == L.brackets
        assert LieAlgebra.from_brackets(3, {(0, 1): {2: F(1)}}) != LieAlgebra.from_brackets(3, {(0, 1): {2: F(2)}})

    def test_zero_coefficients_are_not_stored(self):
        L = LieAlgebra.from_brackets(3, {(0, 1): {2: F(0), 1: F(1)}, (0, 2): {}})
        assert L.brackets == ((0, 1, 1, F(1)), (1, 0, 1, F(-1)))
        assert L == LieAlgebra.from_brackets(3, {(0, 1): {1: F(1)}})

    def test_malformed_entries_rejected(self):
        for entries in ([(0, 1, 2, F(1))],                                   # no mirror
                        [(0, 1, 2, F(1)), (1, 0, 2, F(1))],                  # not antisymmetric
                        [(0, 0, 1, F(1))],                                   # i == j
                        [(0, 3, 1, F(1)), (3, 0, 1, F(-1))],                 # out of range
                        [(0, 1, 2, F(1)), (0, 1, 2, F(2)), (1, 0, 2, F(-1))]):  # duplicate
            with pytest.raises(StructureError):
                LieAlgebra(3, entries)


class TestLeviCivita:
    def test_abelian_flat(self):
        M = abelian_metric((1, 1, -1))
        gamma = gamma_table(levi_civita(M), 3)
        assert all(
            gamma[i][j][k] == 0
            for i in range(3) for j in range(3) for k in range(3)
        )

    def test_heis3_frozen_values(self):
        gamma = gamma_table(levi_civita(heisenberg3()), 3)
        assert gamma[0][1] == (F(0), F(0), F(1, 2))
        assert gamma[0][2] == (F(0), F(-1, 2), F(0))
        assert gamma[1][2] == (F(1, 2), F(0), F(0))

    def test_matches_scalar_koszul_oracle(self, rng):
        for _ in range(20):
            M, _ = random_pseudo_iwasawa(rng)
            assert gamma_table(levi_civita(M), M.dim) == koszul_oracle(M)

    def test_pseudo_iwasawa_connection_identities(self, rng):
        for _ in range(20):
            M, decomp = random_pseudo_iwasawa(rng)
            assert standard_connection_identities(M, decomp) == []

    def test_connection_identity_failures_on_non_symmetric_phi(self):
        # standard splits whose phi is not metric-symmetric; the failure lists
        # are frozen
        rot = ((F(0), F(1)), (F(-1), F(0)))
        shear = ((F(1), F(1)), (F(0), F(1)))
        filiform = LieAlgebra.from_brackets(4, {(0, 1): {2: F(1)}, (0, 2): {3: F(1)}})
        raise_weight = tuple(tuple(F(1) if (p, q) in ((2, 1), (3, 2)) else F(0) for q in range(4))
                             for p in range(4))
        cases = [(LieAlgebra.abelian(2), rot, (1, 1, 1)),
                 (LieAlgebra.abelian(2), shear, (1, -1, 1)),
                 (filiform, raise_weight, (1, -1, 1, -1, 1))]
        got = [standard_connection_identities(*semidirect_metric(g, [phi], signs))
               for g, phi, signs in cases]
        two = ["nabla_{e_2} e_0 != 0", "nabla_{e_2} e_1 != 0",
               "nabla_{e_0} e_2 != phi_2 e_0", "nabla_{e_1} e_2 != phi_2 e_1",
               "nabla_{e_0} e_1 mixed-term identity fails", "nabla_{e_1} e_0 mixed-term identity fails"]
        assert got == [two, two, [
            "nabla_{e_4} e_1 != 0", "nabla_{e_4} e_2 != 0", "nabla_{e_4} e_3 != 0",
            "nabla_{e_1} e_4 != phi_4 e_1", "nabla_{e_2} e_4 != phi_4 e_2",
            "nabla_{e_3} e_4 != phi_4 e_3",
            "nabla_{e_1} e_2 mixed-term identity fails", "nabla_{e_2} e_1 mixed-term identity fails",
            "nabla_{e_2} e_3 mixed-term identity fails", "nabla_{e_3} e_2 mixed-term identity fails"]]

    def test_check_rejects_metric_defect(self, rng):
        # one numerator G_iik moved: torsion reads it only as G_iik - G_iik
        for _ in range(10):
            M, _ = random_pseudo_iwasawa(rng)
            i, k = rng.sample(range(M.dim), 2)
            bad = tampered(M, {(i, i, k): 1})
            with pytest.raises(StructureError, match="metric-compatible"):
                _check_connection(*bad)

    def test_check_rejects_torsion_defect(self, rng):
        # one numerator of the metric-skew nabla_{e_i} moved, with its mirror
        # G_ikj, so only the torsion condition at (i, j, k) can see it
        for _ in range(10):
            M, _ = random_pseudo_iwasawa(rng)
            i, j = rng.sample(range(M.dim), 2)
            k = rng.choice([q for q in range(M.dim) if q != j])
            e = M.signs
            bad = tampered(M, {(i, j, k): 1, (i, k, j): -e[j] * e[k]})
            with pytest.raises(StructureError, match="torsion"):
                _check_connection(*bad)

    def test_check_rejects_dropped_entry(self, rng):
        for _ in range(10):
            M, _ = random_pseudo_iwasawa(rng)
            gamma = M._koszul[0]
            if not gamma:
                continue
            i, j, k, v = rng.choice(gamma)
            bad = tampered(M, {(i, j, k): -v})
            assert len(bad[1]) == len(gamma) - 1
            with pytest.raises(StructureError):
                _check_connection(*bad)

    def test_check_rejects_new_entry(self, rng):
        for _ in range(10):
            M, _ = random_pseudo_iwasawa(rng)
            n = M.dim
            stored = {e[:3] for e in M._koszul[0]}
            i, j, k = rng.choice([t for t in itertools.product(range(n), repeat=3) if t not in stored])
            bad = tampered(M, {(i, j, k): 1})
            assert len(bad[1]) == len(stored) + 1
            with pytest.raises(StructureError):
                _check_connection(*bad)

    def test_connection_views(self, rng):
        for _ in range(10):
            M, _ = random_pseudo_iwasawa(rng)
            conn = levi_civita(M)
            assert all(not v == 0 for *_, v in conn)
            assert [e[:3] for e in conn] == sorted(e[:3] for e in conn)


def tampered(M, changes):
    """M's Koszul numerators G_ijk with the given integer amounts added to
    single entries, as the arguments of `_check_connection`.

    A numerator that sums to zero leaves the stored list; one added where G
    was zero joins it.
    """
    gamma, _, brackets = M._koszul
    g = {(i, j, k): v for i, j, k, v in gamma}
    for key, delta in changes.items():
        g[key] = g.get(key, 0) + delta
    return M.signs, tuple((*key, g[key]) for key in sorted(g) if g[key] != 0), brackets


def dense_entries(M):
    """The stored curvature entries of M laid out as the n^4 table."""
    return densify_curvature(curvature(M), M.dim)


def curvature_inputs(rng):
    """Every half-space with n = 2..5, each signature and r in {1, 1/2, 2/3};
    random pseudo-Iwasawa algebras; and the tower-valued Einstein extension of
    filiform 4."""
    out = [HalfSpaceModel(n, signs, r).algebra
           for n in range(2, 6) for signs in itertools.product((1, -1), repeat=n)
           for r in (F(1), F(1, 2), F(2, 3))]
    out += [random_pseudo_iwasawa(rng)[0] for _ in range(200)]
    fil4 = LieAlgebra.from_brackets(4, {(0, 1): {2: F(1)}, (0, 2): {3: F(1)}})
    out.append(einstein_extension(MetricLieAlgebra(fil4, (1,) * 4))[0])
    return out


class TestCurvature:
    def test_abelian_flat(self):
        assert curvature(abelian_metric((1, -1))) == ()

    def test_entries_match_dense_oracle(self, rng):
        inputs = curvature_inputs(rng)
        assert len(inputs) == 381
        assert not _is_rational(inputs[-1].algebra)
        for M in inputs:
            R = curvature(M)
            assert all(i < j and not v == 0 for i, j, k, l, v in R), M
            assert [e[:4] for e in R] == sorted(e[:4] for e in R), M
            assert densify_curvature(R, M.dim) == dense_curvature(M), M

    def test_antisymmetry_and_bianchi(self, rng):
        for _ in range(10):
            M, _ = random_pseudo_iwasawa(rng)
            n = M.dim
            R = dense_entries(M)
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        for m in range(n):
                            assert R[i][j][k][m] == -R[j][i][k][m]
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        for m in range(n):
                            total = R[i][j][k][m] + R[j][k][i][m] + R[k][i][j][m]
                            assert total == 0

    def test_pseudo_iwasawa_mixed_curvature(self, rng):
        # R(v, e_alpha) w = -nabla_{phi_alpha v} w  and  R(v, e_alpha) e_beta = -phi_beta phi_alpha v
        for _ in range(10):
            M, decomp = random_pseudo_iwasawa(rng)
            R = dense_entries(M)
            n = M.dim
            nil, ab = decomp.nil_indices, decomp.abelian_indices
            nabla = nabla_matrices(M)
            for vp, v in enumerate(nil):
                for ap, a in enumerate(ab):
                    phi_v = [F(0)] * n
                    for p in range(len(nil)):
                        phi_v[nil[p]] = decomp.phi[ap][p][vp]
                    for w in range(n):
                        got = tuple(R[v][a][w][m] for m in range(n))
                        want = [F(0)] * n
                        for i in range(n):
                            if phi_v[i] != 0:
                                for m in range(n):
                                    want[m] -= phi_v[i] * nabla[i][m][w]
                        assert got == tuple(want)


def ricci_trace_oracle(M):
    """ric(y, z) = sum_i R[i][y][z][i] from the full curvature tensor."""
    n = M.dim
    R = dense_entries(M)
    return tuple(
        tuple(sum((R[i][y][z][i] for i in range(n)), F(0)) for z in range(n))
        for y in range(n)
    )


class TestRicci:
    def test_matches_curvature_trace_on_pseudo_iwasawa(self, rng):
        for _ in range(20):
            M, _ = random_pseudo_iwasawa(rng)
            assert ricci(M).ric == ricci_trace_oracle(M)

    def test_matches_curvature_trace_on_nilpotent_catalog(self, rng):
        for _ in range(20):
            alg = random_nilpotent(rng)
            M = MetricLieAlgebra(alg, tuple(rng.choice([1, -1]) for _ in range(alg.dim)))
            assert ricci(M).ric == ricci_trace_oracle(M)

    def test_matches_curvature_trace_on_irrational_einstein_extension(self):
        # heis3 + R and filiform 4: the Einstein scaling needs a square root
        for dim, slots in NILPOTENT_SHAPES:
            if dim != 4:
                continue
            brackets = {pair: {k: F(1)} for pair, k in slots}
            M = MetricLieAlgebra(LieAlgebra.from_brackets(dim, brackets), (1,) * dim)
            ext, _, lam = einstein_extension(M)
            assert any(isinstance(x, TowerScalar) and not x.is_rational
                       for plane in ext.algebra.structure for row in plane for x in row)
            data = ricci(ext)
            assert data.ric == ricci_trace_oracle(ext)
            assert all(data.ric[i][j] == (lam * ext.signs[i] if i == j else 0)
                       for i in range(ext.dim) for j in range(ext.dim))

    def test_heis3_frozen(self):
        data = ricci(heisenberg3())
        assert data.ric == (
            (F(-1, 2), F(0), F(0)),
            (F(0), F(-1, 2), F(0)),
            (F(0), F(0), F(1, 2)),
        )
        assert data.scalar == F(-1, 2)

    def test_operator_raises_index(self, rng):
        for _ in range(5):
            M, _ = random_pseudo_iwasawa(rng)
            data = ricci(M)
            n = M.dim
            for i in range(n):
                ei = tuple(F(1) if q == i else F(0) for q in range(n))
                img = [sum((row[q] * ei[q] for q in range(n)), F(0)) for row in data.operator]
                for j in range(n):
                    ej = tuple(F(1) if q == j else F(0) for q in range(n))
                    assert sum((M.signs[q] * img[q] * ej[q] for q in range(n)), F(0)) == data.ric[i][j]


def mixed_denominators(rng, M, decomp, primes):
    """M in a rescaled frame: the nil vectors times a and each e_alpha times its
    own t_alpha, for random a, t_alpha over the given primes.

    The nil-nil entries become a c and the (alpha, nil) entries t_alpha c, so
    the result is again a pseudo-Iwasawa metric algebra, now with entries over
    several denominators.
    """
    a = F(rng.choice([1, -2, 3]), rng.choice(primes))
    t = {alpha: F(rng.choice([-1, 1, 5]), rng.choice(primes)) for alpha in decomp.abelian_indices}
    entries = []
    for i, j, k, c in M.algebra.brackets:
        alpha = i if i in t else j if j in t else None
        entries.append((i, j, k, c * (a if alpha is None else t[alpha])))
    return MetricLieAlgebra(LieAlgebra(M.dim, entries), M.signs)


class TestIntegerFeed:
    """levi_civita and ricci run on integer numerators over one denominator when
    every entry is a Fraction; these compare them with the scalar oracles."""

    PRIMES = (3, 7, 2 ** 31 - 1, 2 ** 61 - 1)

    def check(self, M):
        n = M.dim
        _, q, _ = M._koszul
        assert q == 2 * math.lcm(*(c.denominator for *_, c in M.algebra.brackets))
        conn = levi_civita(M)
        assert all(type(v) is Fraction and v != 0 for *_, v in conn)
        assert gamma_table(conn, n) == koszul_oracle(M)
        data = ricci(M)
        assert data.ric == ricci_trace_oracle(M)
        for mat in (data.ric, data.operator):
            assert all(x is F0 if x == 0 else type(x) is Fraction for row in mat for x in row)
        assert data.operator == tuple(tuple(M.signs[k] * data.ric[j][k] for j in range(n)) for k in range(n))
        assert type(data.scalar) is Fraction
        assert data.scalar == sum((M.signs[i] * data.ric[i][i] for i in range(n)), F(0))
        # the same algebra with rational TowerScalar entries has the same numerators
        tower = MetricLieAlgebra(LieAlgebra(n, [(i, j, k, TowerScalar.rational(c))
                                                for i, j, k, c in M.algebra.brackets]), M.signs)
        assert levi_civita(tower) == conn
        assert ricci(tower) == data
        assert tower._koszul == M._koszul

    def test_mixed_denominators_on_pseudo_iwasawa(self, rng):
        lcms = []
        for _ in range(20):
            M = mixed_denominators(rng, *random_pseudo_iwasawa(rng), self.PRIMES)
            lcms.append(math.lcm(*(c.denominator for *_, c in M.algebra.brackets)))
            self.check(M)
        assert max(lcms) > 2 ** 64 and len(set(lcms)) > 3

    def test_abelian_with_no_entries(self):
        M = abelian_metric((1, -1, 1))
        assert M.algebra.brackets == ()
        self.check(M)
        assert ricci(M).scalar == 0


class TestMetricTranspose:
    def test_diagonal_fixed(self):
        f = ((F(2), F(0)), (F(0), F(3)))
        assert metric_transpose(f, (1, -1)) == f

    def test_mixed_signature_entry(self):
        # f = e^1 (x) e_2 with signature (1, -1): f* = -e^2 (x) e_1
        f = ((F(0), F(0)), (F(1), F(0)))
        ft = metric_transpose(f, (1, -1))
        assert ft == ((F(0), F(-1)), (F(0), F(0)))

    def test_antisymmetric_has_zero_symmetric_part(self):
        f = ((F(0), F(1)), (F(-1), F(0)))
        assert symmetric_part(f, (1, 1)) == ((F(0), F(0)), (F(0), F(0)))


class TestStandard:
    def test_heis3_extension_is_pseudo_iwasawa(self):
        D = ((F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(2)))
        ext, decomp = extend_by_derivation(heisenberg3(), D, 1)
        report = check_standard(ext, decomp)
        assert report.is_standard and report.is_pseudo_iwasawa

    def test_rotation_phi_not_pseudo_iwasawa(self):
        rot = ((F(0), F(1)), (F(-1), F(0)))
        ext, decomp = semidirect_metric(LieAlgebra.abelian(2), [rot], (1, 1, 1))
        report = check_standard(ext, decomp)
        assert report.is_standard and not report.is_pseudo_iwasawa

    def test_nonabelian_a_part_rejected(self):
        L = LieAlgebra.from_brackets(3, {(1, 2): {1: F(1)}})
        M = MetricLieAlgebra(L, (1, 1, 1))
        decomp = standard_decomposition(M, (1, 2))
        report = check_standard(M, decomp)
        assert not report.is_standard

    def test_ricci_standard_product_metric(self):
        # all phi = 0: product of heis3 with a flat line
        ext, decomp = extend_by_derivation(
            heisenberg3(), tuple(tuple(F(0) for _ in range(3)) for _ in range(3)), 1)
        data = ricci_standard(ext, decomp)
        base = ricci(heisenberg3())
        for p in range(3):
            for q in range(3):
                assert data.ric[p][q] == base.ric[p][q]
        assert all(data.ric[3][q] == 0 for q in range(4))

    def test_ricci_standard_single_traceless_phi(self):
        # abelian g with one symmetric traceless phi: ric = 0 on g,
        # ric(e_0, e_0) = -Tr(phi^2)
        phi = ((F(1), F(0)), (F(0), F(-1)))
        ext, decomp = extend_by_derivation(abelian_metric((1, 1)), phi, 1)
        data = ricci_standard(ext, decomp)
        assert all(data.ric[p][q] == 0 for p in range(2) for q in range(2))
        assert data.ric[2][2] == F(-2)

    def test_ricci_standard_matches_pipeline(self, rng):
        for _ in range(30):
            M, decomp = random_pseudo_iwasawa(rng)
            assert ricci_standard(M, decomp).ric == ricci(M).ric

    def test_ricci_standard_matches_pipeline_non_symmetric_phi(self):
        # standard but not pseudo-Iwasawa: rotation phi on abelian g
        rot = ((F(0), F(1)), (F(-1), F(0)))
        ext, decomp = semidirect_metric(LieAlgebra.abelian(2), [rot], (1, 1, 1))
        assert ricci_standard(ext, decomp).ric == ricci(ext).ric
        # and a shear phi, which has both [phi, phi*] and Tr phi terms active
        shear = ((F(1), F(1)), (F(0), F(1)))
        ext2, decomp2 = semidirect_metric(LieAlgebra.abelian(2), [shear], (1, -1, 1))
        assert ricci_standard(ext2, decomp2).ric == ricci(ext2).ric

    def test_ricci_standard_nonzero_mixed_block(self):
        # filiform g with the weight-raising derivation e2 -> e3 -> e4: the
        # mixed Ricci entries (1/2) Tr(ad v o phi*) are nonzero here, so this
        # pins the mixed formula beyond the always-zero diagonal-phi cases
        filiform = LieAlgebra.from_brackets(4, {(0, 1): {2: F(1)}, (0, 2): {3: F(1)}})
        shear = tuple(
            tuple(F(1) if (p, q) in ((2, 1), (3, 2)) else F(0) for q in range(4))
            for p in range(4)
        )
        for signs in [(1, 1, 1, 1, 1), (1, -1, 1, -1, 1)]:
            ext, decomp = semidirect_metric(filiform, [shear], signs)
            report = check_standard(ext, decomp)
            assert report.is_standard
            data = ricci_standard(ext, decomp)
            assert data.ric == ricci(ext).ric
            assert any(data.ric[p][4] != 0 for p in range(4))

    def test_ricci_standard_with_empty_nil_part(self):
        # the line as its own abelian part: phi_0 is 0 x 0, with trace 0
        M = abelian_metric((1,))
        assert ricci_standard(M, standard_decomposition(M, (0,))).ric == ricci(M).ric

    def test_invalid_decomposition_raises(self):
        M = heisenberg3()
        # a = span(e_1, e_2) brackets nontrivially, so the split is not standard
        decomp = standard_decomposition(M, (0, 1))
        with pytest.raises(NotStandardError):
            ricci_standard(M, decomp)


class TestNilsoliton:
    def test_abelian_convention(self):
        res = nilsoliton_solve(abelian_metric((1, -1)))
        assert res.lam == 0
        assert all(x == 0 for row in res.derivation for x in row)

    def test_heis3(self):
        res = nilsoliton_solve(heisenberg3())
        assert res.lam == F(-3, 2)
        assert res.derivation == ((F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(2)))

    def test_heis3_indefinite(self):
        res = nilsoliton_solve(heisenberg3(signs=(1, 1, -1)))
        assert res is not None
        D = res.derivation
        M = heisenberg3(signs=(1, 1, -1))
        assert is_derivation(M.algebra, D)
        ric_op = ricci(M).operator
        expect = mat_scale(res.lam, identity(3))
        assert mat_equal(
            tuple(tuple(D[i][j] + expect[i][j] for j in range(3)) for i in range(3)),
            ric_op,
        )

    def test_matches_joint_linear_oracle(self, rng):
        # oracle: solve for (D entries, lambda) jointly from D = Ric - lam I
        # plus the derivation identity, by plain dense elimination
        for _ in range(15):
            M, _ = random_pseudo_iwasawa(rng, max_dim_g=4, max_dim_a=1)
            sub = restrict(M, tuple(range(M.dim - 1)))
            got = nilsoliton_solve(sub)
            oracle = nilsoliton_oracle(sub)
            if got is None:
                assert oracle is None
            else:
                assert oracle is not None
                lam_o, D_o = oracle
                assert got.lam == lam_o
                assert got.derivation == D_o

    def test_rescaling_scales_lambda_quadratically(self):
        # doubling the bracket coefficient multiplies Ric, hence lambda, by 4
        res1 = nilsoliton_solve(heisenberg3())
        res2 = nilsoliton_solve(heisenberg3(coeff=F(2)))
        assert res2.lam == 4 * res1.lam


def nilsoliton_oracle(M):
    """Independent solve: unknowns = n^2 derivation entries plus lambda."""
    L = M.algebra
    n = L.dim
    ric_op = ricci(M).operator
    nvars = n * n + 1
    rows, rhs = [], []
    # D + lam I = Ric entrywise
    for i in range(n):
        for j in range(n):
            row = [F(0)] * nvars
            row[i * n + j] = F(1)
            if i == j:
                row[-1] = F(1)
            rows.append(row)
            rhs.append(ric_op[i][j])
    # derivation identity: D[e_i,e_j] = [D e_i, e_j] + [e_i, D e_j]
    for i in range(n):
        for j in range(i + 1, n):
            b = L.structure[i][j]
            for k in range(n):
                row = [F(0)] * nvars
                for m in range(n):
                    row[k * n + m] += b[m]
                for m in range(n):
                    row[m * n + i] -= L.structure[m][j][k]
                    row[m * n + j] -= L.structure[i][m][k]
                rows.append(row)
                rhs.append(F(0))
    sol = solve_linear(rows, rhs)
    if sol is None:
        return None
    D = tuple(tuple(sol[i * n + j] for j in range(n)) for i in range(n))
    return sol[-1], D


class TestExtension:
    def test_identity_derivation_gives_halfspace_algebra(self):
        ext, decomp = extend_by_derivation(abelian_metric((1, 1, 1)), identity(3), 1)
        report = check_standard(ext, decomp)
        assert report.is_pseudo_iwasawa
        lam = einstein_check(ext)
        assert lam == F(-3)  # -(n-1)/r^2 with n = 4, r = 1

    def test_zero_derivation_gives_flat_product(self):
        ext, _ = extend_by_derivation(
            abelian_metric((1, -1)), tuple(tuple(F(0) for _ in range(2)) for _ in range(2)), -1)
        assert einstein_check(ext) == 0

    def test_non_derivation_rejected(self):
        bad = ((F(0), F(0), F(0)), (F(0), F(0), F(0)), (F(1), F(0), F(0)))
        with pytest.raises(DerivationError):
            extend_by_derivation(heisenberg3(), bad, 1)

    def test_non_symmetric_rejected(self):
        rot = ((F(0), F(1), F(0)), (F(-1), F(0), F(0)), (F(0), F(0), F(0)))
        with pytest.raises(DerivationError):
            extend_by_derivation(abelian_metric((1, 1, 1)), rot, 1)

    def test_heis3_einstein_extension(self):
        ext, decomp, lam = einstein_extension(heisenberg3())
        assert lam == F(-3, 2)
        assert einstein_check(ext) == F(-3, 2)
        assert check_standard(ext, decomp).is_pseudo_iwasawa

    def test_einstein_extension_of_heis5_has_a_rational_scale(self):
        # heis5: sqrt(1/(eps_0 Tr D)) is rational, so the scaled derivation and
        # every bracket of the extension stay Fractions, as does lambda
        L = LieAlgebra.from_brackets(5, {(0, 1): {4: F(1)}, (2, 3): {4: F(1)}})
        M = MetricLieAlgebra(L, (1, 1, 1, 1, 1))
        ext, decomp, lam = einstein_extension(M)
        assert type(lam) is F and lam == F(-2)
        assert ext.algebra.brackets
        assert all(type(x) is F for *_, x in ext.algebra.brackets)

    def test_rational_scaling_keeps_fraction_brackets(self):
        # every catalog shape under every signature: a rational scaling leaves
        # only Fraction brackets, no extension stores a rational value as a
        # TowerScalar, and the Koszul numerators of either kind are over twice
        # the lcm of the brackets' denominators
        kinds = {}
        for dim, slots in NILPOTENT_SHAPES:
            brackets = {pair: {k: F(1)} for pair, k in slots}
            for signs in itertools.product((1, -1), repeat=dim):
                try:
                    ext, _, _ = einstein_extension(MetricLieAlgebra(LieAlgebra.from_brackets(dim, brackets), signs))
                except ValueError:
                    continue
                values = [x for *_, x in ext.algebra.brackets]
                assert not any(type(x) is TowerScalar and x.is_rational for x in values), (slots, signs)
                dens = [x.denominator if type(x) is F else
                        math.lcm(*(part.denominator for part in (x.a, x.b, x.c, x.d))) for x in values]
                assert ext._koszul[1] == 2 * math.lcm(*dens), (slots, signs)
                if all(type(x) is F for x in values):
                    kinds[tuple(slots), signs] = "rational"
                else:
                    kinds[tuple(slots), signs] = "tower"
        assert kinds[tuple(NILPOTENT_SHAPES[3][1]), (1, 1, 1)] == "rational"        # heis3
        assert kinds[tuple(NILPOTENT_SHAPES[5][1]), (1, 1, 1, 1)] == "tower"       # filiform 4
        assert sum(kind == "rational" for kind in kinds.values()) == 24           # heis3, heis5


class TestEinsteinCheck:
    def test_abelian_zero(self):
        assert einstein_check(abelian_metric((1, 1))) == 0

    def test_heis3_not_einstein(self):
        assert einstein_check(heisenberg3()) is None

    def test_constant_diagonal_with_off_diagonal_ricci_is_not_einstein(self):
        # [e0, e1] = e1, [e0, e2] = -e1, [e1, e2] = e1: every diagonal entry
        # of the Ricci operator is -3/2, and an off-diagonal one is not 0
        L = LieAlgebra.from_brackets(3, {(0, 1): {1: F(1)}, (0, 2): {1: F(-1)}, (1, 2): {1: F(1)}})
        M = MetricLieAlgebra(L, (1, 1, 1))
        op = M.ricci_data.operator
        assert [op[i][i] for i in range(3)] == [F(-3, 2)] * 3 and op[0][1] != 0
        assert einstein_check(M) is None

    def test_hyperbolic_model_constant(self):
        for n, r in [(3, F(1)), (4, F(1, 2))]:
            D = mat_scale(F(1) / r, identity(n - 1))
            ext, _ = extend_by_derivation(abelian_metric((1,) * (n - 1)), D, 1)
            assert einstein_check(ext) == F(-(n - 1)) / (r * r)
