"""Field properties of the exact scalar tower."""

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import solvspin.exact
from solvspin.exact import (
    PRIME_BOUND,
    TRIAL_BOUND,
    TS_I,
    IncompatibleExtensionError,
    TowerScalar,
    common_numerators,
    format_rational,
    from_numerators,
    split_square,
    sqrt_to_tower,
    to_dict,
    to_rational,
    _proven_prime,
)

from reference_tower import FractionTower

# every p/q with |p/q| <= 30 and q <= 12, and more: integer draws are cheap,
# where st.fractions spends its time in hypothesis's own drawing
rationals = st.builds(Fraction, st.integers(-360, 360), st.integers(1, 12))


def tower_scalars(radicand=5):
    return st.builds(
        lambda a, b, c, d: TowerScalar(a, b, c, d, radicand),
        rationals, rationals, rationals, rationals,
    )


def test_sqrt_zero():
    s = sqrt_to_tower(0)
    assert type(s) is Fraction and s == 0


def test_sqrt_perfect_square_simplifies():
    s = sqrt_to_tower(Fraction(9, 4))
    assert type(s) is Fraction and s == Fraction(3, 2)


def test_sqrt_negative_is_imaginary():
    s = sqrt_to_tower(Fraction(-1, 4))
    assert s * s == Fraction(-1, 4)
    assert s.a == 0 and s.c == 0 and (s.b != 0 or s.d != 0)


def test_sqrt_nonsquare_binds_radicand():
    s = sqrt_to_tower(Fraction(1, 8))
    assert s.radicand == 2
    assert s * s == Fraction(1, 8)


def test_equal_values_equal_representations():
    # sqrt(8) = 2 sqrt(2): squarefree canonicalization makes them identical
    assert sqrt_to_tower(8) == 2 * sqrt_to_tower(2)


def test_incompatible_radicands_raise():
    a = sqrt_to_tower(2)
    b = sqrt_to_tower(3)
    with pytest.raises(IncompatibleExtensionError):
        a + b
    with pytest.raises(IncompatibleExtensionError):
        a * b


def test_tower_arithmetic_dispatch():
    one_plus_i = TowerScalar(1, 1)
    one_minus_i = TowerScalar(1, -1)
    assert one_plus_i * one_minus_i == 2
    w = sqrt_to_tower(2)
    assert w.inverse() * w == 1
    assert w.inverse() == w / 2


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        TowerScalar(0).inverse()


def test_formal_square_radicand_norm_zero():
    # w with w^2 = 4 would make 2 + w a zero divisor (and w equal to 2 by
    # value, but not by representation); the radicand is refused instead
    with pytest.raises(ValueError, match="squarefree"):
        TowerScalar(2, 0, 1, 0, radicand=4)


@settings(max_examples=1000, deadline=None)
@given(tower_scalars(), tower_scalars(), tower_scalars())
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z


@settings(max_examples=1000, deadline=None)
@given(tower_scalars())
def test_multiplicative_inverse(x):
    if x.is_zero:
        return
    assert x * x.inverse() == 1


@settings(max_examples=100, deadline=None)
@given(rationals)
def test_sqrt_squares_back(m):
    s = sqrt_to_tower(m)
    assert s * s == m


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**6))
def test_split_square_reconstructs(n):
    s, f = split_square(Fraction(n))
    assert s * s * f == n
    # f squarefree: no prime square divides it
    p = 2
    while p * p <= f:
        assert f % (p * p) != 0
        p += 1


def test_split_square_matches_brute_force():
    # largest[n] is the largest s with s^2 dividing n
    N = 10 ** 4
    largest = [1] * (N + 1)
    for t in range(2, math.isqrt(N) + 1):
        for n in range(t * t, N + 1, t * t):
            largest[n] = t
    for n in range(1, N + 1):
        s = largest[n]
        assert split_square(n) == (s, n // (s * s)), n


def _primes_above(n: int, count: int) -> list:
    out = []
    while len(out) < count:
        n += 1
        if all(n % p for p in range(2, math.isqrt(n) + 1)):
            out.append(n)
    return out


def test_split_square_past_the_trial_bound():
    # cofactors whose prime factors all exceed the bound: a prime, a product
    # of two, a square and a square times small factors split exactly
    P, Q, R = _primes_above(TRIAL_BOUND, 3)
    cases = {P: (P, 1, 1), P * Q: (P * Q, 1, 1), P * P: (1, P, 1), 48 * P * P: (3, 4 * P, 1),
             12 * P * Q: (3 * P * Q, 2, 1), (P * Q * R) ** 2: (1, P * Q * R, 1),
             Fraction(P * P, 12): (3, P, 6)}
    for m, (f, num, den) in cases.items():
        assert split_square(m) == (Fraction(num, den), f), m
    assert sqrt_to_tower(-P * P * 48) == TowerScalar(0, 0, 0, 4 * P, 3)


def test_split_square_refuses_what_it_cannot_split():
    # past the bound, P^2 Q is neither a square nor below TRIAL_BOUND^3
    P, Q, R = _primes_above(TRIAL_BOUND, 3)
    for n in (P * P * Q, P * Q * R, 2 * P * Q * R):
        with pytest.raises(ValueError, match="cannot split %d " % n):
            split_square(n)
    with pytest.raises(ValueError, match="cannot split"):
        sqrt_to_tower(Fraction(1, P * Q * R))


def test_a_prime_cofactor_past_the_trial_bound_is_squarefree():
    # 2^61 - 1 is prime and above TRIAL_BOUND^3, so only the primality test
    # accepts it; with small factors beside it, it is tested once they are out
    M61 = 2 ** 61 - 1
    cases = {M61: (M61, 1, 1), 48 * M61: (3 * M61, 4, 1), Fraction(M61, 12): (3 * M61, 1, 6)}
    for m, (f, num, den) in cases.items():
        assert split_square(m) == (Fraction(num, den), f), m
    assert TowerScalar(0, 0, 1, 0, M61).radicand == M61
    # its square is found past the bound; its product with a prime above the
    # bound is neither prime nor below TRIAL_BOUND^3, so it is refused
    assert split_square(5 * M61 * M61) == (M61, 5)
    P = _primes_above(TRIAL_BOUND, 1)[0]
    with pytest.raises(ValueError, match="cannot split %d " % (P * M61)):
        split_square(P * M61)


def test_a_prime_past_the_primality_bound_is_refused():
    # 2^89 - 1 is prime, but above PRIME_BOUND the test proves nothing
    M89 = 2 ** 89 - 1
    assert M89 > PRIME_BOUND
    with pytest.raises(ValueError, match="cannot split %d " % M89):
        split_square(M89)


def test_the_primality_test_needs_all_thirteen_bases():
    # 3825123056546413051 = 149491 * 747451 * 34233211 is a strong pseudoprime
    # to every prime base up to 31; base 37 shows it composite
    n = 3825123056546413051
    assert 149491 * 747451 * 34233211 == n
    assert not _proven_prime(n)
    assert split_square(n) == (1, n)
    assert split_square(149491 * n) == (149491, 747451 * 34233211)
    # against trial division, past the bases
    for k in range(43, 20000, 2):
        assert _proven_prime(k) == all(k % p for p in range(3, math.isqrt(k) + 1, 2)), k
    assert [_proven_prime(k) for k in (561, 1105, 3215031751, 2 ** 31 - 1, 2 ** 61 - 1)] == \
        [False, False, False, True, True]


def test_tower_serialization_roundtrip():
    x = TowerScalar(Fraction(1, 3), Fraction(-2), Fraction(5, 7), Fraction(0), 3)
    assert TowerScalar.from_dict(to_dict(x)) == x


def test_mixed_fraction_arithmetic():
    x = TowerScalar(1, 1)
    assert Fraction(1, 2) * x == TowerScalar(Fraction(1, 2), Fraction(1, 2))
    assert 1 + x == TowerScalar(2, 1)
    assert (1 - x) * (1 + x) == TowerScalar(1, -2)


def test_hash_consistent_with_fraction_equality():
    x = TowerScalar.rational(Fraction(3, 2))
    assert x == Fraction(3, 2)
    assert hash(x) == hash(Fraction(3, 2))


# ---- the stored integer form against the Fraction-component reference -----

# components: 0 and +-1 often, then ordinary and large numerators/denominators
components = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    rationals,
    st.fractions(max_denominator=10**12).filter(lambda x: abs(x) < 10**15),
    st.integers(-10**30, 10**30).map(Fraction),
)


@st.composite
def scalar_parts(draw):
    """(a, b, c, d, radicand) of an element of Q(i) or of Q(i)(sqrt 5)."""
    a, b = draw(components), draw(components)
    if draw(st.booleans()):
        return a, b, Fraction(0), Fraction(0), None
    return a, b, draw(components), draw(components), 5


mixed_operands = st.one_of(st.integers(-5, 5), st.integers(-10**20, 10**20), components)


def _both(parts):
    return TowerScalar(*parts), FractionTower(*parts)


def _assert_stored_form(x):
    a, b, c, d, q, m = x._t
    assert q > 0 and math.gcd(a, b, c, d, q) == 1
    assert (m is None) == (c == 0 and d == 0)


def _assert_same(got, want):
    """got (a TowerScalar) is the value want (a FractionTower), seen every way."""
    assert type(got) is TowerScalar
    _assert_stored_form(got)
    assert (got.a, got.b, got.c, got.d, got.radicand) == (want.a, want.b, want.c, want.d, want.radicand)
    assert to_dict(got) == want.to_dict()
    assert str(got) == str(want) and repr(got) == repr(want)
    assert got.is_zero == want.is_zero and got.is_rational == want.is_rational
    if want.is_rational:
        assert hash(got) == hash(want) == hash(want.a)


def _outcome(fn):
    try:
        return fn(), None
    except (ZeroDivisionError, ValueError) as exc:
        return None, type(exc)


def _compare(fn_new, fn_ref):
    got, got_exc = _outcome(fn_new)
    want, want_exc = _outcome(fn_ref)
    assert got_exc is want_exc
    if want_exc is None:
        _assert_same(got, want)


@settings(max_examples=300, deadline=None)
@given(scalar_parts(), scalar_parts())
def test_operations_match_fraction_reference(p, r):
    x, rx = _both(p)
    y, ry = _both(r)
    _assert_same(x, rx)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        _compare(lambda: op(x, y), lambda: op(rx, ry))
    _compare(lambda: -x, lambda: -rx)
    _compare(x.inverse, rx.inverse)
    assert (x == y) == (rx == ry)
    assert (x == y) == (x._t == y._t)
    if x == y:
        assert hash(x) == hash(y)
    assert TowerScalar.from_dict(to_dict(x))._t == x._t


@settings(max_examples=250, deadline=None)
@given(scalar_parts(), mixed_operands)
def test_mixed_int_and_fraction_operands(p, k):
    x, rx = _both(p)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        _compare(lambda: op(x, k), lambda: op(rx, k))
        _compare(lambda: op(k, x), lambda: op(k, rx))
    assert (x == k) == (rx == k) == (k == x)
    if x == k:
        assert hash(x) == hash(k)


@settings(max_examples=200, deadline=None)
@given(components)
def test_rational_hash_is_the_fraction_hash(x):
    assert hash(TowerScalar.rational(x)) == hash(x)
    assert TowerScalar.rational(x) == x and x == TowerScalar.rational(x)
    assert hash(TowerScalar(0, x) * TS_I) == hash(-x)


@settings(max_examples=150, deadline=None)
@given(scalar_parts(), scalar_parts(), scalar_parts())
def test_equal_values_have_equal_stored_tuples(p, r, s):
    x, y, z = TowerScalar(*p), TowerScalar(*r), TowerScalar(*s)
    for left, right in (((x * y) * z, x * (y * z)), ((x + y) - y, x), (x * (y + z), x * y + x * z)):
        assert left == right
        assert left._t == right._t and hash(left) == hash(right)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(scalar_parts(), mixed_operands), max_size=6))
def test_common_numerators_match_fraction_reference(items):
    # each scalar and the sum of all of them, read back from the integer
    # numerators over the one denominator, against the Fraction components
    scalars = [TowerScalar(*x) if isinstance(x, tuple) else x for x in items]
    refs = [FractionTower(*x) if isinstance(x, tuple) else FractionTower.rational(x) for x in items]
    nums, q, m = common_numerators(scalars)
    assert len(nums) == len(scalars) and q > 0
    assert all(type(v) is int for t in nums for v in t)
    assert m == (5 if any(r.radicand for r in refs) else None)
    for (a, b, c, d), ref in zip(nums, refs):
        _assert_read_back(from_numerators(a, b, c, d, q, m), ref)
    total = [sum(t[i] for t in nums) for i in range(4)]
    _assert_read_back(from_numerators(*total, q, m), sum(refs, FractionTower()))


def _assert_read_back(got, want):
    """got, read back by from_numerators, is want: a Fraction when want is
    rational, else the TowerScalar _assert_same checks."""
    if want.is_rational:
        assert type(got) is Fraction and got == want.a
        assert to_dict(got) == want.to_dict()
    else:
        _assert_same(got, want)


def test_common_numerators_rejects_inexact_and_mixed():
    assert common_numerators([]) == ([], 1, None)
    assert common_numerators([Fraction(1, 4), 2, TowerScalar(0, Fraction(1, 6))]) == (
        [(3, 0, 0, 0), (24, 0, 0, 0), (0, 2, 0, 0)], 12, None)
    with pytest.raises(TypeError):
        common_numerators([Fraction(1), 0.5])
    with pytest.raises(IncompatibleExtensionError):
        common_numerators([sqrt_to_tower(2), sqrt_to_tower(3)])


def test_to_rational():
    assert to_rational(3) == 3 and type(to_rational(3)) is Fraction
    assert to_rational(Fraction(-2, 7)) == Fraction(-2, 7)
    assert to_rational(TowerScalar(Fraction(5, 3))) == Fraction(5, 3)
    with pytest.raises(ValueError):
        to_rational(TS_I)
    with pytest.raises(ValueError):
        to_rational(sqrt_to_tower(2))
    with pytest.raises(TypeError):
        to_rational(1.0)


def test_zero_has_no_radicand():
    w = sqrt_to_tower(5)
    for zero in (w - w, w * 0, 0 * w, TowerScalar(0, 0, 0, 0, 5), TowerScalar()):
        assert zero.radicand is None
        assert zero._t == (0, 0, 0, 0, 1, None)
    assert (w * w).radicand is None and w * w == 5


def test_mixed_radicands():
    w2, w3 = sqrt_to_tower(2), sqrt_to_tower(3)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(IncompatibleExtensionError):
            op(w2 + 1, w3)
    assert not (w2 == w3) and w2 != w3
    assert not (TowerScalar(1, 0, 1, 0, 2) == TowerScalar(1, 0, 1, 0, 3))


def test_int_equality_fast_path():
    assert TowerScalar() == 0 and not (TowerScalar() == 1)
    assert TowerScalar(3) == 3 and not (TowerScalar(Fraction(3, 2)) == 1)
    assert not (TowerScalar(0, 1) == 0) and not (sqrt_to_tower(2) == 0)
    assert TowerScalar(1) == True and TowerScalar.rational(-7) == -7


def test_assignment_raises():
    x = TowerScalar(1, 2)
    for name in ("a", "radicand", "_t", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 0)
    assert x == TowerScalar(1, 2)


# ---- one representation per rational value, and one exact check per entry ----

def test_from_numerators_reads_a_rational_back_as_a_fraction():
    for args, want in (((3, 0, 0, 0, 6, None), Fraction(1, 2)), ((0, 0, 0, 0, 7, None), 0),
                       ((-4, 0, 0, 0, 2, 5), -2)):
        got = from_numerators(*args)
        assert type(got) is Fraction and got == want
    for args in ((0, 1, 0, 0, 1, None), (1, 0, 2, 0, 4, 3), (0, 0, 0, 3, 9, 2)):
        got = from_numerators(*args)
        assert type(got) is TowerScalar and not got.is_rational
    assert type(TS_I) is TowerScalar and TS_I * TS_I == -1


def test_sqrt_returns_a_fraction_exactly_when_the_root_is_rational():
    for m in (0, 1, 4, Fraction(9, 4), Fraction(1, 49), 10 ** 6):
        root = sqrt_to_tower(m)
        assert type(root) is Fraction and root * root == m and root >= 0
    for m in (-1, Fraction(-9, 4), 2, Fraction(1, 8), -12):
        root = sqrt_to_tower(m)
        assert type(root) is TowerScalar and not root.is_rational and root * root == m


def test_operators_stay_closed_on_rational_values():
    # tower arithmetic keeps its type; only the read-backs normalize
    x = TowerScalar.rational(Fraction(1, 2))
    for got in (x + 1, x * 2, x - x, x / 3, -x, TS_I * TS_I, x.inverse()):
        assert type(got) is TowerScalar and got.is_rational


def test_to_dict_writes_every_exact_scalar():
    want = {"a": "3/2", "b": "0", "c": "0", "d": "0", "radicand": None}
    for x in (Fraction(3, 2), TowerScalar.rational(Fraction(3, 2))):
        assert to_dict(x) == want
    assert to_dict(-4) == {"a": "-4", "b": "0", "c": "0", "d": "0", "radicand": None}
    assert to_dict(sqrt_to_tower(Fraction(-1, 8))) == {"a": "0", "b": "0", "c": "0", "d": "1/4",
                                                        "radicand": 2}
    with pytest.raises(TypeError):
        to_dict(0.5)


@pytest.mark.parametrize("build", [
    lambda: TowerScalar(0.1),
    lambda: TowerScalar(0, 0.5),
    lambda: TowerScalar(0, 0, 1.0, 0, 2),
    lambda: TowerScalar.rational(0.5),
    lambda: sqrt_to_tower(0.1),
    lambda: split_square(0.5),
    lambda: format_rational(0.5),
], ids=["a", "b", "c", "rational", "sqrt", "split_square", "format_rational"])
def test_floats_are_refused_at_every_entry(build):
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize("radicand", [4, 12, 2.5, 2.0, 1, 0, -3, "2", True])
def test_radicands_must_be_squarefree_ints_above_one(radicand):
    with pytest.raises(ValueError, match="squarefree"):
        TowerScalar(0, 0, 1, 0, radicand)
    with pytest.raises(ValueError, match="squarefree"):
        TowerScalar.from_dict({"a": "0", "b": "0", "c": "1", "d": "0", "radicand": radicand})


def test_a_radicand_is_split_once(monkeypatch):
    # 1000003 * 1000033 splits past TRIAL_BOUND; two constructions and the
    # read-back of their JSON form check that radicand with one split
    m = 1000003 * 1000033
    splits = []
    split = solvspin.exact._square_part
    monkeypatch.setattr(solvspin.exact, "_square_part", lambda n: splits.append(n) or split(n))
    solvspin.exact._squarefree.cache_clear()
    x = TowerScalar(0, 0, 1, 0, m)
    assert TowerScalar(0, 0, 1, 0, m) == x == TowerScalar.from_dict(to_dict(x))
    assert splits == [m]


def test_a_squarefree_radicand_is_accepted_and_equal_values_compare_equal():
    assert TowerScalar(0, 0, 2, 0, 3) == 2 * sqrt_to_tower(3)
    assert TowerScalar(0, 0, 1, 0, 30) * TowerScalar(0, 0, 1, 0, 30) == 30
