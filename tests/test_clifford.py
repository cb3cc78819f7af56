"""Gamma matrices, Clifford multiplication, spin lifts, spinor kernels."""

import dataclasses
import hashlib
import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from solvspin import clifford, linalg
from solvspin.exact import TS_I, TowerScalar, sqrt_to_tower, to_dict
from solvspin.clifford import (
    annihilator_kernel,
    build_gammas,
    clifford_rows,
    clifford_violations,
    dense_rows,
    gamma_of_vector,
    gamma_of_vector_rows,
    raise_endomorphism,
    skew_lift_terms,
    symmetric_commutant_kernel,
    two_tensor_action,
)
from solvspin.linalg import MAX_UNKNOWNS, identity, mat_equal, mat_mul, mat_scale, mat_sub, mat_from_rows, sparse_nullspace, zeros

from reference_linalg import (
    annihilator_dense,
    clifford_failures_dense,
    commutant_dense,
    dense_product,
    densify,
    matrix_rank,
    nullspace,
    rational_parts,
)

F = Fraction


def rep_to_json_dict(rep):
    """Gamma matrices as arrays of [re, im] rational-string pairs."""
    def entry(x):
        parts = to_dict(x)
        return [parts["a"], parts["b"]]

    return {
        "n": rep.n,
        "signs": list(rep.signs),
        "spinor_dim": rep.spinor_dim,
        "volume_power": rep.volume_power,
        "gammas": [[[entry(x) for x in row] for row in g] for g in rep.gammas],
    }


def spin_lift_basis_form(rep, A):
    """(1/2) sum_{k<j} A_kj eps_j gamma_j gamma_k from dense gamma products.

    Equals `lift_of` exactly when A is metric-skew.
    """
    N = rep.spinor_dim
    out = zeros(N, N)
    for j in range(rep.n):
        for k in range(j):
            if A[k][j] == 0:
                continue
            term = mat_scale(F(1, 2) * rep.signs[j] * A[k][j], mat_mul(rep.gammas[j], rep.gammas[k]))
            out = tuple(tuple(x + y for x, y in zip(ro, rt)) for ro, rt in zip(out, term))
    return out


def lift_of(rep, A):
    """Dense spin lift of A, built as the solvers build it: `clifford_rows` of the
    `skew_lift_terms` of its nonzero entries (k, j, A_kj)."""
    n = rep.n
    entries = [(k, j, A[k][j]) for j in range(n) for k in range(n) if not A[k][j] == 0]
    return dense_rows(clifford_rows(rep, skew_lift_terms(rep, entries)))


def vector_times(rep, v, psi):
    """v . psi, the sparse rows of Clifford multiplication by v applied to psi."""
    return [sum((c * psi[j] for j, c in row.items()), F(0)) for row in gamma_of_vector_rows(rep, v)]


def rand_vector(rng, n):
    return [F(rng.randint(-2, 2)) for _ in range(n)]


def rand_spinor(rng, N):
    while True:
        psi = [TowerScalar(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(N)]
        if any(not x.is_zero for x in psi):
            return psi


def rand_metric_skew(rng, signs):
    n = len(signs)
    A = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = F(rng.randint(-2, 2))
            A[i][j] = v
            A[j][i] = -signs[i] * signs[j] * v
    return mat_from_rows(A)


def rand_metric_symmetric(rng, signs):
    n = len(signs)
    A = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        A[i][i] = F(rng.randint(-2, 2))
        for j in range(i + 1, n):
            v = F(rng.randint(-2, 2))
            A[i][j] = v
            A[j][i] = signs[i] * signs[j] * v
    return mat_from_rows(A)


class TestBuild:
    def test_one_dimensional(self):
        rep = build_gammas((1,))
        assert rep.spinor_dim == 1
        g = rep.gammas[0][0][0]
        assert g * g == TowerScalar.rational(-1)

    def test_two_dimensional_relations(self):
        for signs in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
            rep = build_gammas(signs)
            assert rep.spinor_dim == 2
            assert clifford_violations(rep) == []

    def test_all_signatures_up_to_five(self):
        for n in range(1, 6):
            for signs in itertools.product((1, -1), repeat=n):
                rep = build_gammas(signs)
                assert clifford_violations(rep) == []
                assert rep.spinor_dim == 2 ** (n // 2)

    def test_volume_normalization_is_deterministic(self):
        for signs in [(1, 1, 1), (1, -1, 1), (-1, -1, -1), (1, 1, 1, 1, 1)]:
            rep = build_gammas(signs)
            assert rep.volume_power in (0, 1)
            # volume element acts as +i^k
            N = rep.spinor_dim
            vol = identity(N)
            for g in rep.gammas:
                vol = mat_mul(vol, g)
            want = mat_scale((F(1), TS_I)[rep.volume_power], identity(N))
            assert mat_equal(vol, want)

    def test_even_dimension_has_no_volume_power(self):
        assert build_gammas((1, -1)).volume_power is None

    def test_oversized_spinor_space_refused_before_it_is_built(self):
        # the spinor dimension 2^(n//2) first passes the limit at n = 34; at
        # n = 60 the n generators would not fit in memory
        assert 2 ** (33 // 2) <= MAX_UNKNOWNS < 2 ** (34 // 2)
        for n in (34, 60):
            started = time.perf_counter()
            with pytest.raises(ValueError, match="n = %d gives spinors of dimension 2\\^%d" % (n, n // 2)):
                build_gammas((1,) * n)
            assert time.perf_counter() - started < 0.5

    def test_matrices_match_golden_digest(self):
        # pins the exact matrices of every signature with n <= 8
        h = hashlib.sha256()
        for n in range(1, 9):
            for signs in itertools.product((1, -1), repeat=n):
                text = json.dumps(rep_to_json_dict(build_gammas(signs)), sort_keys=True) + "\n"
                h.update(text.encode("utf-8"))
        assert h.hexdigest() == "7b36bcf9eafdcbbff93c36a5ee8ab11b1b3266b66ead1596cd729cddf5374504"


class TestViolations:
    def test_generator_times_i_breaks_only_its_square(self):
        # i gamma_a still anticommutes with the others but squares to +eps_a I
        for signs in [(1, -1, 1), (1, 1, -1, -1), (-1, 1, 1, 1, -1)]:
            rep = build_gammas(signs)
            for a in range(len(signs)):
                phase = list(rep.phase)
                phase[a] = tuple((q + 1) % 4 for q in phase[a])
                bad = dataclasses.replace(rep, phase=tuple(phase))
                assert clifford_violations(bad) == [(a, a)]

    def test_repeated_generator_breaks_anticommutation(self):
        rep = build_gammas((1, 1, -1, 1))
        perm = (rep.perm[0], rep.perm[0]) + rep.perm[2:]
        phase = (rep.phase[0], rep.phase[0]) + rep.phase[2:]
        bad = clifford_violations(dataclasses.replace(rep, perm=perm, phase=phase))
        assert (0, 1) in bad

    def test_matches_dense_products_on_every_signature(self):
        for n in range(1, 7):
            for signs in itertools.product((1, -1), repeat=n):
                rep = build_gammas(signs)
                assert clifford_violations(rep) == clifford_failures_dense(rep) == []

    @pytest.mark.parametrize("tamper", ["phase+1", "phase+2", "perm swap"])
    def test_single_row_tampering_reported_where_dense_fails(self, tamper):
        # one row of one generator is changed; the one-pass check must report
        # exactly the pairs whose dense anticommutator is wrong
        rng = random.Random(17)
        signatures = [s for n in range(1, 5) for s in itertools.product((1, -1), repeat=n)]
        signatures += [(1, -1, 1, -1, 1), (-1, 1, 1, 1, -1), (1, 1, -1, -1, 1, -1), (-1,) * 6]
        for signs in signatures:
            rep = build_gammas(signs)
            N = rep.spinor_dim
            if tamper == "perm swap" and N == 1:
                continue
            for a in range(rep.n):
                i = rng.randrange(N)
                perm, phase = list(rep.perm[a]), list(rep.phase[a])
                if tamper == "perm swap":
                    k = rng.choice([k for k in range(N) if k != i])
                    perm[i], perm[k] = perm[k], perm[i]
                else:
                    phase[i] = (phase[i] + int(tamper[-1])) % 4
                bad = dataclasses.replace(rep, perm=rep.perm[:a] + (tuple(perm),) + rep.perm[a + 1:],
                                          phase=rep.phase[:a] + (tuple(phase),) + rep.phase[a + 1:])
                want = clifford_failures_dense(bad)
                assert clifford_violations(bad) == want, (signs, a, i)
                if rep.n > 1:
                    assert want, (signs, a, i)


class TestShapeChecks:
    """A wrongly sized input raises ValueError naming the expected size."""

    def test_spinor_of_wrong_length(self):
        rep = build_gammas((1, 1))
        for psi in ([F(1)] * 3, [F(1)]):
            with pytest.raises(ValueError, match="psi has %d entries, but spinor_dim = 2" % len(psi)):
                annihilator_kernel(rep, psi)
            with pytest.raises(ValueError, match="psi has %d entries, but spinor_dim = 2" % len(psi)):
                symmetric_commutant_kernel(rep, psi)

    def test_two_tensor_of_wrong_shape(self):
        rep = build_gammas((1, 1))
        for T in (identity(3), [[F(1), F(0)], [F(0)]], [[F(1), F(0)]]):
            with pytest.raises(ValueError, match="T must be n x n = 2 x 2"):
                two_tensor_action(rep, T)

    def test_vector_of_wrong_length(self):
        rep = build_gammas((1, -1, 1))
        for v in ([F(1)], [F(1)] * 4):
            with pytest.raises(ValueError, match="v has %d entries, but n = 3" % len(v)):
                gamma_of_vector_rows(rep, v)
            with pytest.raises(ValueError, match="v has %d entries, but n = 3" % len(v)):
                gamma_of_vector(rep, v)


class TestCliffordMul:
    def test_zero_vector(self):
        rep = build_gammas((1, 1))
        psi = [F(1), TS_I]
        assert vector_times(rep, [F(0), F(0)], psi) == [F(0), F(0)]

    def test_square_is_minus_norm(self):
        rng = random.Random(5)
        for signs in [(1, 1), (1, -1), (1, 1, -1), (1, -1, -1, 1)]:
            rep = build_gammas(signs)
            N = rep.spinor_dim
            for _ in range(20):
                v = rand_vector(rng, len(signs))
                psi = rand_spinor(rng, N)
                vv = vector_times(rep, v, vector_times(rep, v, psi))
                norm = sum((signs[i] * v[i] * v[i] for i in range(len(signs))), F(0))
                assert list(vv) == [-norm * x for x in psi]

    def test_polarized_relation(self):
        rng = random.Random(6)
        rep = build_gammas((1, -1, 1))
        N = rep.spinor_dim
        for _ in range(20):
            v, w = rand_vector(rng, 3), rand_vector(rng, 3)
            psi = rand_spinor(rng, N)
            vw = vector_times(rep, v, vector_times(rep, w, psi))
            wv = vector_times(rep, w, vector_times(rep, v, psi))
            g = sum((rep.signs[i] * v[i] * w[i] for i in range(3)), F(0))
            assert [a + b for a, b in zip(vw, wv)] == [-2 * g * x for x in psi]


class TestSpinLift:
    def test_zero(self):
        rep = build_gammas((1, 1))
        z = ((F(0), F(0)), (F(0), F(0)))
        assert all(x == 0 for row in lift_of(rep, z) for x in row)

    def test_generator_pair(self):
        # the lift of the rotation generator 2(g(e_i,.)e_j - g(e_j,.)e_i)/2
        # is (1/2) gamma_i gamma_j
        rep = build_gammas((1, 1, 1))
        A = [[F(0)] * 3 for _ in range(3)]
        A[1][0], A[0][1] = F(1), F(-1)  # xi(e_0 . e_1)/2
        L = lift_of(rep, mat_from_rows(A))
        half_gg = mat_scale(F(1, 2), mat_mul(rep.gammas[0], rep.gammas[1]))
        assert mat_equal(L, half_gg)

    def test_equivariance(self):
        rng = random.Random(7)
        for signs in [(1, 1, 1), (1, -1, 1), (1, 1, -1, -1)]:
            rep = build_gammas(signs)
            n = len(signs)
            for _ in range(10):
                A = rand_metric_skew(rng, signs)
                L = lift_of(rep, A)
                v = rand_vector(rng, n)
                gv = gamma_of_vector(rep, v)
                comm = mat_sub(mat_mul(L, gv), mat_mul(gv, L))
                Av = [sum((A[k][j] * v[j] for j in range(n)), F(0)) for k in range(n)]
                assert mat_equal(comm, gamma_of_vector(rep, Av))

    def test_both_connection_forms_agree(self):
        # quarter-sum over all pairs vs half-sum over ordered pairs
        rng = random.Random(8)
        for signs in [(1, 1), (1, -1, 1), (1, 1, -1, 1)]:
            rep = build_gammas(signs)
            for _ in range(10):
                A = rand_metric_skew(rng, signs)
                assert mat_equal(lift_of(rep, A), spin_lift_basis_form(rep, A))


class TestTwoTensorAction:
    def test_identity_gives_minus_n(self):
        for signs in [(1, 1), (1, -1, 1), (1, 1, 1, -1)]:
            rep = build_gammas(signs)
            n = len(signs)
            N = rep.spinor_dim
            T = raise_endomorphism(signs, identity(n))
            act = two_tensor_action(rep, T)
            assert mat_equal(act, mat_scale(F(-n), identity(N)))

    def test_symmetric_gives_minus_trace(self):
        rng = random.Random(9)
        for signs in [(1, 1, 1), (1, -1, 1), (1, 1, -1, -1)]:
            rep = build_gammas(signs)
            n = len(signs)
            N = rep.spinor_dim
            for _ in range(20):
                f = rand_metric_symmetric(rng, signs)
                act = two_tensor_action(rep, raise_endomorphism(signs, f))
                tr = sum((f[i][i] for i in range(n)), F(0))
                assert mat_equal(act, mat_scale(F(-tr), identity(N)))

    def test_skew_part_is_lift_times_four(self):
        # for metric-skew f the raised tensor has no trace part and the action
        # reduces to the spin lift; the quarter normalization makes the exact
        # factor four
        rng = random.Random(10)
        rep = build_gammas((1, -1, 1))
        for _ in range(10):
            A = rand_metric_skew(rng, rep.signs)
            act = two_tensor_action(rep, raise_endomorphism(rep.signs, A))
            assert mat_equal(act, mat_scale(F(4), lift_of(rep, A)))


def dense_gamma_sum(rep, terms):
    """sum c gamma_{a_1} ... gamma_{a_r} over ((a_1, ..., a_r), c): each word is
    multiplied out literally, by dense products of `rep.gammas` in order, so no
    Clifford relation is used."""
    N = rep.spinor_dim
    out = [[F(0)] * N for _ in range(N)]
    for word, c in terms:
        prod = identity(N)
        for a in word:
            prod = dense_product(prod, rep.gammas[a])
        for orow, prow in zip(out, prod):
            for j, x in enumerate(prow):
                if not x == 0:
                    orow[j] = orow[j] + c * x
    return out


# every signature with n <= 6, as in acceptance criterion 6
SIGNS_UP_TO_SIX = [signs for n in range(1, 7) for signs in itertools.product((1, -1), repeat=n)]


def _stores_no_zero(rows):
    return all(x != 0 for row in rows for x in row.values())


# mixed denominators, Q(i) and Q(i)(sqrt 5) values
MIXED_COEFFS = (
    F(1, 2), F(-2, 3), F(5, 7), F(3), TowerScalar(F(1, 3), F(-1, 4)),
    TowerScalar(F(1, 6), 0, F(2, 5), F(-1, 3), 5), sqrt_to_tower(5) / 3, TowerScalar(0, F(7, 9), 0, 1, 5),
)


class TestMonomialRowsOracle:
    """Integer-numerator monomial rows against dense sums of gamma products."""

    SIGNS = [(1, 1), (1, -1, 1), (1, 1, -1, -1), (-1, 1, 1, 1, -1)]

    def _coeff(self, rng):
        return rng.choice(MIXED_COEFFS + (F(0),)) * rng.choice([1, -1])

    def test_gamma_of_vector_rows(self):
        rng = random.Random(31)
        for signs in self.SIGNS:
            rep = build_gammas(signs)
            for _ in range(8):
                v = [self._coeff(rng) for _ in signs]
                rows = gamma_of_vector_rows(rep, v)
                assert _stores_no_zero(rows)
                want = dense_gamma_sum(rep, [((a,), c) for a, c in enumerate(v)])
                assert mat_equal(dense_rows(rows), want)

    def test_spin_lift_rows(self):
        rng = random.Random(32)
        for signs in self.SIGNS:
            rep = build_gammas(signs)
            n = len(signs)
            for _ in range(8):
                A = [[F(0)] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i + 1, n):
                        A[i][j] = self._coeff(rng)
                        A[j][i] = -signs[i] * signs[j] * A[i][j]
                rows = clifford_rows(rep, skew_lift_terms(rep, (
                    (k, j, A[k][j]) for j in range(n) for k in range(n) if not A[k][j] == 0)))
                assert _stores_no_zero(rows)
                want = dense_gamma_sum(rep, [((j, k), F(1, 4) * signs[j] * A[k][j])
                                             for j in range(n) for k in range(n)])
                assert mat_equal(dense_rows(rows), want)
                assert mat_equal(dense_rows(rows), spin_lift_basis_form(rep, A))

    def _paired(self, rng, signs, sign):
        """f with f[j][i] = sign eps_i eps_j f[i][j]: metric-symmetric for sign 1,
        metric-skew for sign -1."""
        n = len(signs)
        f = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            if sign == 1:
                f[i][i] = self._coeff(rng)
            for j in range(i + 1, n):
                f[i][j] = self._coeff(rng)
                f[j][i] = sign * signs[i] * signs[j] * f[i][j]
        return f

    def test_two_tensor_action(self):
        # a raised metric-symmetric T, whose words cancel to the diagonal, a
        # raised metric-skew T, whose two orders of a pair add, and a general T,
        # on every signature with n <= 6
        rng = random.Random(33)
        for signs in SIGNS_UP_TO_SIX:
            rep = build_gammas(signs)
            n = len(signs)
            for T in (raise_endomorphism(signs, self._paired(rng, signs, 1)),
                      raise_endomorphism(signs, self._paired(rng, signs, -1)),
                      [[self._coeff(rng) for _ in range(n)] for _ in range(n)]):
                want = dense_gamma_sum(rep, [((a, b), T[a][b]) for a in range(n) for b in range(n)])
                assert mat_equal(two_tensor_action(rep, T), want), (signs, T)

    def test_mixed_words_sum_into_one_normal_word(self):
        # (a, b) and (b, a) reduce to one normal word, every (a, a) to the
        # identity, and a word may repeat; one call holds them all beside (a,)
        rng = random.Random(34)
        for signs in SIGNS_UP_TO_SIX:
            rep = build_gammas(signs)
            n = len(signs)
            words = [(a,) for a in range(n)] + [(a, b) for a in range(n) for b in range(n)]
            terms = [(w, self._coeff(rng)) for w in words + rng.sample(words, min(4, len(words)))]
            rng.shuffle(terms)
            rows = clifford_rows(rep, terms)
            assert _stores_no_zero(rows)
            assert mat_equal(dense_rows(rows), dense_gamma_sum(rep, terms)), signs

    def test_words_of_other_lengths_raise(self):
        rep = build_gammas((1, -1, 1))
        for word in ((), (0, 1, 2), (1, 1, 1)):
            for c in (F(1), F(0)):
                with pytest.raises(ValueError, match="one or two letters"):
                    clifford_rows(rep, [((0,), F(1)), (word, c)])

    def test_exact_cancellation_leaves_no_entry(self):
        # gamma_0 gamma_1 + gamma_1 gamma_0 = 0, so with equal coefficients only
        # the diagonal gamma_2^2 = -eps_2 I survives; the cancelled entries
        # must be absent from the rows, not stored as zeros
        for signs in self.SIGNS[1:]:
            rep = build_gammas(signs)
            for c in MIXED_COEFFS:
                d = F(2, 7)
                rows = clifford_rows(rep, [((0, 1), c), ((1, 0), c), ((2, 2), d)])
                assert rows == [{i: -signs[2] * d} for i in range(rep.spinor_dim)]
                assert clifford_rows(rep, [((0, 1), c), ((1, 0), c)]) == [{} for _ in range(rep.spinor_dim)]
                # a metric-symmetric off-diagonal pair has zero lift
                x = c * F(3, 5)
                entries = [(1, 0, x), (0, 1, signs[0] * signs[1] * x)]
                assert clifford_rows(rep, skew_lift_terms(rep, entries)) == [{} for _ in range(rep.spinor_dim)]

    def test_float_coefficient_raises(self):
        rep = build_gammas((1, -1, 1))
        with pytest.raises(TypeError):
            gamma_of_vector_rows(rep, [0.5, F(1), F(0)])
        with pytest.raises(TypeError):
            two_tensor_action(rep, [[1.0] * 3 for _ in range(3)])
        with pytest.raises(TypeError):
            clifford_rows(rep, skew_lift_terms(rep, [(0, 1, 1.0), (1, 0, 1.0)]))


class TestSpinorKernels:
    def test_definite_annihilator_trivial(self):
        rng = random.Random(11)
        for signs in [(1, 1), (1, 1, 1)]:
            rep = build_gammas(signs)
            for _ in range(10):
                psi = rand_spinor(rng, rep.spinor_dim)
                assert annihilator_kernel(rep, psi) == []

    def test_definite_commutant_is_identity(self):
        rng = random.Random(12)
        for signs in [(1, 1), (1, 1, 1), (-1, -1)]:
            rep = build_gammas(signs)
            for _ in range(10):
                psi = rand_spinor(rng, rep.spinor_dim)
                k = symmetric_commutant_kernel(rep, psi)
                assert k.is_identity_only
                assert k.v_psi_dimension == 0

    def test_one_dimensional(self):
        rep = build_gammas((1,))
        k = symmetric_commutant_kernel(rep, [F(1)])
        assert k.is_identity_only

    def test_zero_spinor_rejected(self):
        rep = build_gammas((1, 1))
        with pytest.raises(ValueError):
            symmetric_commutant_kernel(rep, [F(0), F(0)])

    def _isotropic_annihilated(self, rep):
        """A spinor annihilated by the isotropic vector e_0 + e_1 in split signature."""
        basis = _annihilated_by(rep, 0, 1)
        assert basis, "split signature must have isotropic-annihilated spinors"
        return basis[0]

    def test_split_signature_kernel_grows(self):
        for signs in [(1, -1), (1, -1, 1, -1)]:
            rep = build_gammas(signs)
            psi = self._isotropic_annihilated(rep)
            iso = [F(1), F(1)] + [F(0)] * (len(signs) - 2)
            assert all(x == 0 for x in vector_times(rep, iso, psi))
            k = symmetric_commutant_kernel(rep, psi)
            assert k.v_psi_dimension >= 1
            assert k.dimension >= 1
            # every homogeneous direction maps into V_psi
            for f in k.homogeneous_basis:
                n = len(signs)
                for col in range(n):
                    fv = [f[r][col] for r in range(n)]
                    assert all(x == 0 for x in vector_times(rep, fv, psi))

    def test_definite_annihilator_needs_no_exact_elimination(self, monkeypatch):
        # rank mod p = n proves V_psi = 0 on every definite signature
        calls = []

        def counting(eqs, ncols):
            calls.append(ncols)
            return sparse_nullspace(eqs, ncols)

        monkeypatch.setattr(clifford, "sparse_nullspace", counting)
        rng = random.Random(14)
        for n in range(1, 7):
            for signs in [(1,) * n, (-1,) * n]:
                rep = build_gammas(signs)
                for _ in range(5):
                    assert annihilator_kernel(rep, rand_spinor(rng, rep.spinor_dim)) == []
        assert calls == []
        rep = build_gammas((1, -1))
        assert annihilator_kernel(rep, self._isotropic_annihilated(rep))
        assert calls == [2]

    def test_prime_dividing_a_minor_moves_to_the_next_prime(self, monkeypatch):
        big = linalg.RANK_PRIMES[0]
        rng = random.Random(15)
        # a definite case: search for a spinor whose rows lose rank mod 3
        rep = build_gammas((1, 1, 1, 1))
        for _ in range(200):
            psi = rand_spinor(rng, rep.spinor_dim)
            monkeypatch.setattr(linalg, "RANK_PRIMES", (3,))
            try:
                annihilator_kernel(rep, psi)
            except RuntimeError:
                break
        else:
            pytest.fail("no seeded spinor loses rank mod 3")
        monkeypatch.setattr(linalg, "RANK_PRIMES", (3, big))
        assert annihilator_kernel(rep, psi) == annihilator_dense(rep, psi) == []
        # a nonempty V_psi: 2 divides every equation of 2 psi
        for signs in [(1, -1), (1, -1, 1, -1)]:
            rep = build_gammas(signs)
            psi = [2 * x for x in self._isotropic_annihilated(rep)]
            monkeypatch.setattr(linalg, "RANK_PRIMES", (2, big))
            V = annihilator_kernel(rep, psi)
            assert V and densify(V, rep.n) == annihilator_dense(rep, psi)
            monkeypatch.setattr(linalg, "RANK_PRIMES", (2,))
            with pytest.raises(RuntimeError, match="annihilator_kernel"):
                annihilator_kernel(rep, psi)

    def test_every_prime_failing_raises(self, monkeypatch):
        monkeypatch.setattr(linalg, "RANK_PRIMES", (2, 3))
        rep = build_gammas((1, 1, 1))
        psi = [TowerScalar(6, 12), TowerScalar(-18, 6)]
        assert annihilator_dense(rep, psi) == []
        with pytest.raises(RuntimeError, match="annihilator_kernel"):
            annihilator_kernel(rep, psi)
        with pytest.raises(RuntimeError, match="annihilator_kernel"):
            symmetric_commutant_kernel(rep, psi)

    def test_basis_failing_the_equations_raises(self, monkeypatch):
        # a basis of the right length that is not in the kernel is refused
        rep = build_gammas((1, -1))
        psi = self._isotropic_annihilated(rep)
        V = annihilator_kernel(rep, psi)
        wrong = [{c: x + (c == max(v)) for c, x in v.items()} for v in V]
        monkeypatch.setattr(clifford, "sparse_nullspace", lambda eqs, ncols: wrong)
        with pytest.raises(RuntimeError, match="annihilator_kernel: a basis vector fails"):
            annihilator_kernel(rep, psi)

    def test_factored_matches_dense(self):
        # the sparse kernels against dense elimination in tests/reference_linalg.py
        rng = random.Random(13)
        nontrivial = 0
        signatures = [s for n in range(1, 5) for s in itertools.product((1, -1), repeat=n)]
        signatures += [(1, -1, 1, -1, 1), (-1, 1, 1, 1, -1), (1, 1, -1, -1, 1, -1)]
        for signs in signatures:
            rep = build_gammas(signs)
            for psi in _oracle_spinors(rng, rep):
                V = annihilator_kernel(rep, psi)
                assert all(not x == 0 for v in V for x in v.values()), (signs, psi)
                assert densify(V, rep.n) == annihilator_dense(rep, psi), (signs, psi)
                kf = symmetric_commutant_kernel(rep, psi)
                kd = commutant_dense(rep, psi)
                assert kf.v_psi_dimension == kd.v_psi_dimension == len(V)
                assert kf.dimension == kd.dimension
                if kf.dimension:
                    both = _flat(kf.homogeneous_basis) + _flat(kd.homogeneous_basis)
                    assert matrix_rank(both) == kf.dimension, (signs, psi)
                    nontrivial += 1
        assert nontrivial >= 20


def _annihilated_by(rep, a, b):
    """Q(i)-basis of the spinors killed by e_a + e_b, from the dense gammas."""
    N = rep.spinor_dim
    rows = []
    for i in range(N):
        re_row, im_row = [], []
        for j in range(N):
            re, im, _, _ = rational_parts(rep.gammas[a][i][j] + rep.gammas[b][i][j])
            re_row.extend([re, -im])
            im_row.extend([im, re])
        rows.extend([re_row, im_row])
    return [[TowerScalar(v[2 * j], v[2 * j + 1]) for j in range(N)] for v in nullspace(rows, 2 * N)]


def _oracle_spinors(rng, rep):
    """Random spinors over Q(i) and Q(i)(sqrt 5), and isotropic annihilated ones."""
    N = rep.spinor_dim
    out = [rand_spinor(rng, N) for _ in range(2)]
    while len(out) < 4:
        psi = [TowerScalar(*(rng.randint(-2, 2) for _ in range(4)), 5) for _ in range(N)]
        if any(not x.is_zero for x in psi):
            out.append(psi)
    if 1 in rep.signs and -1 in rep.signs:
        basis = _annihilated_by(rep, rep.signs.index(1), rep.signs.index(-1))
        assert basis, "split signature must have isotropic-annihilated spinors"
        out.append(basis[0])
        combo = [F(0)] * N
        for v in basis:
            c = TowerScalar(rng.randint(-2, 2), rng.randint(-2, 2))
            combo = [x + c * y for x, y in zip(combo, v)]
        if any(not x.is_zero for x in combo):
            out.append(combo)
        out.append([TowerScalar(1, 0, 1, 0, 5) * x for x in basis[-1]])
    return out


def _flat(mats):
    return [[x for row in f for x in row] for f in mats]


def test_json_export_shape():
    rep = build_gammas((1, -1, 1))
    data = rep_to_json_dict(rep)
    assert data["n"] == 3
    assert data["spinor_dim"] == 2
    assert len(data["gammas"]) == 3
    assert data["gammas"][0][0][0] == ["0", "0"] or isinstance(data["gammas"][0][0][0], list)
