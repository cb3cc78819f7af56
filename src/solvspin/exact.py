"""Exact scalars shared by all solvers: rationals and the Q(i)(sqrt m) tower.

A TowerScalar represents a + b*i + c*w + d*i*w with rational coefficients,
where i**2 = -1 and w**2 = m for a radicand m that is a squarefree integer > 1.
A single radicand is allowed per computation: combining scalars bound to
different radicands raises IncompatibleExtensionError instead of silently
widening the field.  The coefficients are stored as integer numerators over
one shared denominator, the tuple (a, b, c, d, q, m) for the value
(a + b*i + c*w + d*i*w) / q, kept reduced: q > 0, gcd(a, b, c, d, q) = 1 and
m is None when c = d = 0.  That form is canonical, so equality and hashing
compare the tuple, and arithmetic is integer arithmetic with one gcd per
result; the coefficients read back as Fractions.

Every value is exact and every equality is exact.  The CLI's float backend
computes with these scalars too, and rounds to doubles only when it prints.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction]


class IncompatibleExtensionError(ValueError):
    """Two scalars live in towers with different radicands."""


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q', 'p' or a decimal into a Fraction.

    Exponent notation is rejected before Fraction sees it, since Fraction
    would expand a literal such as 1e4000000 digit by digit.
    """
    text = text.strip()
    if "e" in text or "E" in text:
        raise ValueError("exponent notation in %r; write p/q" % text)
    return Fraction(text)


def format_rational(x: Fraction) -> str:
    return str(Fraction(x))


def _square_part(n: int) -> tuple[int, int]:
    """Return (s, f) with n = s*s*f, f squarefree, for n > 0 (trial division)."""
    s, f = 1, 1
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                f *= p
        p += 1 if p == 2 else 2
    return s, f * m


def split_square(m: Fraction) -> tuple[Fraction, int]:
    """Write m > 0 as s**2 * f with rational s > 0 and squarefree integer f."""
    if m <= 0:
        raise ValueError("split_square needs a positive rational")
    s_int, f = _square_part(m.numerator * m.denominator)
    return Fraction(s_int, m.denominator), f


class TowerScalar:
    """Element of Q(i)(w), w**2 = radicand; immutable value semantics.

    _t is the reduced tuple (a, b, c, d, q, radicand) of the module docstring.
    """

    __slots__ = ("_t",)

    def __init__(self, a=0, b=0, c=0, d=0, radicand=None):
        parts = [x if type(x) is Fraction else Fraction(x) for x in (a, b, c, d)]
        if not (parts[2] or parts[3]):
            radicand = None
        elif radicand is None:
            raise ValueError("w-component present but no radicand given")
        else:
            radicand = int(radicand)
            if radicand <= 1:
                raise ValueError("radicand must be a squarefree integer > 1")
        # the lcm of the reduced denominators leaves gcd(a, b, c, d, q) = 1
        q = math.lcm(*(x.denominator for x in parts))
        _set(self, (*(x.numerator * (q // x.denominator) for x in parts), q, radicand))

    def __setattr__(self, name, value):
        raise AttributeError("TowerScalar is immutable")

    def __reduce__(self):
        return (from_numerators, self._t)

    @classmethod
    def rational(cls, x: RationalLike) -> "TowerScalar":
        x = Fraction(x)
        return _make((x.numerator, 0, 0, 0, x.denominator, None))

    @classmethod
    def imaginary(cls, x: RationalLike = 1) -> "TowerScalar":
        x = Fraction(x)
        return _make((0, x.numerator, 0, 0, x.denominator, None))

    # ---- components ----------------------------------------------------

    a = property(lambda self: Fraction(self._t[0], self._t[4]))
    b = property(lambda self: Fraction(self._t[1], self._t[4]))
    c = property(lambda self: Fraction(self._t[2], self._t[4]))
    d = property(lambda self: Fraction(self._t[3], self._t[4]))
    radicand = property(lambda self: self._t[5])

    # ---- predicates ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        t = self._t
        return not (t[0] or t[1] or t[2] or t[3])

    @property
    def is_rational(self) -> bool:
        t = self._t
        return not (t[1] or t[2] or t[3])

    # ---- arithmetic -----------------------------------------------------

    def __add__(self, other):
        o = _tuple(other)
        if o is None:
            return NotImplemented
        return _sum(self._t, o)

    __radd__ = __add__

    def __neg__(self):
        a, b, c, d, q, m = self._t
        return _make((-a, -b, -c, -d, q, m))

    def __sub__(self, other):
        o = _tuple(other)
        if o is None:
            return NotImplemented
        return _sum(self._t, (-o[0], -o[1], -o[2], -o[3], o[4], o[5]))

    def __rsub__(self, other):
        o = _tuple(other)
        if o is None:
            return NotImplemented
        a, b, c, d, q, m = self._t
        return _sum(o, (-a, -b, -c, -d, q, m))

    def __mul__(self, other):
        o = _tuple(other)
        if o is None:
            return NotImplemented
        return _product(self._t, o)

    __rmul__ = __mul__

    def inverse(self) -> "TowerScalar":
        a, b, c, d, q, m = self._t
        if not (c or d):
            n = a * a + b * b
            if not n:
                raise ZeroDivisionError("division by zero")
            return from_numerators(q * a, -q * b, 0, 0, n, None)
        # conjugate over w: (u - v w); norm = u^2 - m v^2 in Q(i)
        na = a * a - b * b - m * (c * c - d * d)
        nb = 2 * (a * b - m * c * d)
        nn = na * na + nb * nb
        if not nn:
            raise ZeroDivisionError("norm form is zero; element not invertible")
        # 1/z = q conj_w(z) conj_i(norm) / |norm|^2
        return from_numerators(q * (a * na + b * nb), q * (b * na - a * nb),
                               -q * (c * na + d * nb), q * (c * nb - d * na), nn, m)

    def __truediv__(self, other):
        o = _tuple(other)
        if o is None:
            return NotImplemented
        return _product(self._t, _make(o).inverse()._t)

    def __rtruediv__(self, other):
        o = _tuple(other)
        if o is None:
            return NotImplemented
        return _product(o, self.inverse()._t)

    # ---- comparison -----------------------------------------------------

    def __eq__(self, other):
        t = self._t
        if type(other) is int:
            return t[4] == 1 and t[0] == other and not (t[1] or t[2] or t[3])
        o = _tuple(other)
        if o is None:
            return NotImplemented
        return t == o

    def __hash__(self):
        a, b, c, d, q, m = self._t
        if b or c or d:
            return hash(self._t)
        return hash(a) if q == 1 else hash(Fraction(a, q))

    def __bool__(self):
        t = self._t
        return bool(t[0] or t[1] or t[2] or t[3])

    # ---- formatting -----------------------------------------------------

    def __repr__(self):
        return "TowerScalar(%s, %s, %s, %s, radicand=%r)" % (
            self.a, self.b, self.c, self.d, self.radicand)

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for coeff, unit in ((self.a, ""), (self.b, "i"), (self.c, "w"), (self.d, "i*w")):
            if coeff:
                txt = format_rational(coeff)
                parts.append(txt + ("*" + unit if unit else "") if unit else txt)
        return " + ".join(parts).replace("+ -", "- ")

    def to_dict(self) -> dict:
        return {
            "a": format_rational(self.a),
            "b": format_rational(self.b),
            "c": format_rational(self.c),
            "d": format_rational(self.d),
            "radicand": self.radicand,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TowerScalar":
        return cls(
            parse_rational(data["a"]),
            parse_rational(data["b"]),
            parse_rational(data["c"]),
            parse_rational(data["d"]),
            data.get("radicand"),
        )


_set = TowerScalar._t.__set__
_new = object.__new__


def _make(t: tuple) -> TowerScalar:
    """The scalar with the stored tuple t, which must already be reduced."""
    x = _new(TowerScalar)
    _set(x, t)
    return x


def from_numerators(a: int, b: int, c: int, d: int, q: int, m) -> TowerScalar:
    """The scalar (a + b*i + c*w + d*i*w) / q for integers with q > 0 and w**2 = m,
    reduced to the stored form."""
    g = math.gcd(a, b, c, d, q)
    if g != 1:
        a, b, c, d, q = a // g, b // g, c // g, d // g, q // g
    return _make((a, b, c, d, q, m if (c or d) else None))


def _tuple(x):
    """The stored tuple of x as a tower element, or None for other types."""
    if type(x) is TowerScalar:
        return x._t
    if isinstance(x, int):
        return (int(x), 0, 0, 0, 1, None)
    if isinstance(x, Fraction):
        return (x.numerator, 0, 0, 0, x.denominator, None)
    return None


def _common_radicand(m1, m2):
    if m1 is None or m1 == m2:
        return m2
    if m2 is None:
        return m1
    raise IncompatibleExtensionError("incompatible extension: radicands %d and %d" % (m1, m2))


def _sum(s: tuple, o: tuple) -> TowerScalar:
    a1, b1, c1, d1, q1, m1 = s
    a2, b2, c2, d2, q2, m2 = o
    m = _common_radicand(m1, m2)
    if q1 == q2:
        if q1 == 1:
            c, d = c1 + c2, d1 + d2
            return _make((a1 + a2, b1 + b2, c, d, 1, m if (c or d) else None))
        return from_numerators(a1 + a2, b1 + b2, c1 + c2, d1 + d2, q1, m)
    return from_numerators(a1 * q2 + a2 * q1, b1 * q2 + b2 * q1, c1 * q2 + c2 * q1,
                           d1 * q2 + d2 * q1, q1 * q2, m)


def _product(s: tuple, o: tuple) -> TowerScalar:
    a1, b1, c1, d1, q1, m1 = s
    a2, b2, c2, d2, q2, m2 = o
    q = q1 * q2
    if m1 is None and m2 is None:
        # pure Q(i); over Z[i], the common case, there is nothing to reduce
        a, b = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
        return _make((a, b, 0, 0, 1, None)) if q == 1 else from_numerators(a, b, 0, 0, q, None)
    m = _common_radicand(m1, m2)
    # (u1 + v1 w)(u2 + v2 w) = (u1 u2 + m v1 v2) + (u1 v2 + v1 u2) w over Q(i)
    return from_numerators(a1 * a2 - b1 * b2 + m * (c1 * c2 - d1 * d2),
                           a1 * b2 + b1 * a2 + m * (c1 * d2 + d1 * c2),
                           a1 * c2 - b1 * d2 + c1 * a2 - d1 * b2,
                           a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2, q, m)


TS_ZERO = TowerScalar.rational(0)
TS_ONE = TowerScalar.rational(1)
TS_I = TowerScalar.imaginary(1)


def sqrt_to_tower(m: RationalLike) -> TowerScalar:
    """Exact square root of a rational, realized in the tower.

    m > 0 gives s*w (or a plain rational when m is a perfect square);
    m < 0 gives i times the root of -m; m = 0 gives 0.  Radicands are
    canonicalized to squarefree integers, so equal values compare equal.
    """
    m = Fraction(m)
    if m == 0:
        return TS_ZERO
    s, f = split_square(abs(m))
    if m > 0:
        if f == 1:
            return TowerScalar.rational(s)
        return TowerScalar(0, 0, s, 0, f)
    if f == 1:
        return TowerScalar.imaginary(s)
    return TowerScalar(0, 0, 0, s, f)


def to_tower(x) -> TowerScalar:
    """x as a TowerScalar; ints and Fractions become rational tower elements."""
    return x if isinstance(x, TowerScalar) else TowerScalar.rational(x)


def _exact_tuple(x) -> tuple:
    """The stored tuple of an int, Fraction or TowerScalar; TypeError otherwise."""
    t = _tuple(x)
    if t is None:
        raise TypeError("%s is not an exact scalar" % type(x).__name__)
    return t


def to_rational(x) -> Fraction:
    """x as a Fraction: the one coercion from exact scalars to rationals.

    An int or Fraction converts as it is and a TowerScalar must be rational
    (ValueError otherwise); anything else, a float included, raises
    TypeError.
    """
    t = _exact_tuple(x)
    if t[1] or t[2] or t[3]:
        raise ValueError("scalar %r is not rational" % (x,))
    return Fraction(t[0], t[4])


def common_numerators(scalars) -> tuple:
    """Exact scalars written over one denominator: (numerators, q, m).

    numerators[k] is the integer tuple (a, b, c, d) with
    scalars[k] = (a + b*i + c*w + d*i*w) / q, where q is the lcm of the
    scalars' denominators and m their one radicand (None when no scalar has a
    w-part).  ints, Fractions and TowerScalars are accepted; anything else, a
    float included, raises TypeError, and two radicands raise
    IncompatibleExtensionError.  `from_numerators` reads a sum back.
    """
    parts = [x._t if type(x) is TowerScalar else _exact_tuple(x) for x in scalars]
    q = math.lcm(*(t[4] for t in parts))
    m = None
    for t in parts:
        m = _common_radicand(m, t[5])
    nums = []
    for a, b, c, d, qt, _ in parts:
        s = q // qt
        nums.append((a, b, c, d) if s == 1 else (a * s, b * s, c * s, d * s))
    return nums, q, m


def _rotations(x: tuple) -> tuple:
    """The numerators (a, b, c, d) of x times i**q, for q = 0, 1, 2, 3."""
    a, b, c, d = x
    return (x, (-b, a, -d, c), (-a, -b, -c, -d), (b, -a, d, -c))
