"""Field properties of the exact scalar tower and the float fallback."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solvspin.exact import (
    FloatScalar,
    IncompatibleExtensionError,
    TowerScalar,
    split_square,
    sqrt_scalar,
    sqrt_to_tower,
)

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)


def tower_scalars(radicand=5):
    return st.builds(
        lambda a, b, c, d: TowerScalar(a, b, c, d, radicand),
        rationals, rationals, rationals, rationals,
    )


def test_sqrt_zero():
    assert sqrt_to_tower(0).is_zero


def test_sqrt_perfect_square_simplifies():
    s = sqrt_to_tower(Fraction(9, 4))
    assert s.is_rational and s.as_fraction() == Fraction(3, 2)


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
    # w with w^2 = 4 is not produced by sqrt_to_tower, but the type allows it;
    # 2 + w is then a zero divisor and must fail to invert
    z = TowerScalar(2, 0, 1, 0, radicand=4)
    with pytest.raises((ZeroDivisionError, ValueError)):
        z.inverse()


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


def test_tower_serialization_roundtrip():
    x = TowerScalar(Fraction(1, 3), Fraction(-2), Fraction(5, 7), Fraction(0), 3)
    assert TowerScalar.from_dict(x.to_dict()) == x


def test_mixed_fraction_arithmetic():
    x = TowerScalar(1, 1)
    assert Fraction(1, 2) * x == TowerScalar(Fraction(1, 2), Fraction(1, 2))
    assert 1 + x == TowerScalar(2, 1)
    assert (1 - x) * (1 + x) == TowerScalar(1, -2)


def test_hash_consistent_with_fraction_equality():
    x = TowerScalar.rational(Fraction(3, 2))
    assert x == Fraction(3, 2)
    assert hash(x) == hash(Fraction(3, 2))


class TestFloatScalar:
    def test_tolerant_equality(self):
        a = FloatScalar(1.0)
        assert a == 1.0 + 1e-12
        assert not (a == 1.1)
        assert FloatScalar(0.0) == 0

    def test_arithmetic(self):
        a = FloatScalar(0.5)
        b = FloatScalar(2.0)
        assert a * b == 1.0
        assert (a + b) - b == a
        assert 1 / b == a * 1.0

    def test_relative_tolerance_scales(self):
        a = FloatScalar(1e12)
        assert a == 1e12 + 1.0  # within relative tolerance

    def test_sqrt(self):
        assert sqrt_scalar(FloatScalar(4.0)) == 2.0


def test_sqrt_scalar_dispatch():
    assert sqrt_scalar(Fraction(1, 4)) == Fraction(1, 2)
    assert sqrt_scalar(TowerScalar.rational(4)) == 2
