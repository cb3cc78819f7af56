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

A rational value has one representation: a value the package builds from
parts (read back by `from_numerators` or `scaled`, a root from
`sqrt_to_tower`, a constant) is a Fraction when it is rational, and a
TowerScalar only when it is not.  The operators stay closed, so tower
arithmetic returns a TowerScalar, a rational one included, as do the
constructor and `TowerScalar.rational` for callers that ask for one.  Every
entry reads its scalar arguments through one exact check (a float raises
TypeError), a radicand must be a squarefree int > 1 (ValueError), and
`to_dict` is the one JSON form of any exact scalar.

Every value is exact and every equality is exact.  The CLI's float backend
computes with these scalars too, and rounds to doubles only when it prints.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
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


def format_rational(x: RationalLike) -> str:
    return str(to_rational(x))


TRIAL_BOUND = 10 ** 6
# Miller-Rabin with the first 13 prime bases is exact below PRIME_BOUND
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def _proven_prime(n: int) -> bool:
    """True when n is a prime below PRIME_BOUND, by the deterministic
    Miller-Rabin test on PRIME_BASES; False for a composite and for any n at
    or above the bound, where the test proves nothing.  For n > 41."""
    if n >= PRIME_BOUND or n % 2 == 0:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _square_part(n: int) -> tuple[int, int]:
    """Return (s, f) with n = s*s*f, f squarefree, for n > 0.

    Trial division stops at TRIAL_BOUND.  A cofactor over TRIAL_BOUND is
    tested with `_proven_prime` when trial division first reaches it and
    after each factor divided out, so a prime one is taken as squarefree at
    once.  A cofactor r left with p*p <= r past the bound has no prime factor
    up to it: it is a perfect square, or squarefree when r < TRIAL_BOUND**3
    (at most two prime factors, and they differ).  Any other r would need
    factoring, and ValueError names n."""
    s, f = 1, 1
    m = n
    p = 2
    fresh = True
    while p * p <= m:
        if fresh:
            fresh = False
            if m > TRIAL_BOUND and _proven_prime(m):
                break
        if p > TRIAL_BOUND:
            r = math.isqrt(m)
            if r * r == m:
                return s * r, f
            if m < TRIAL_BOUND ** 3:
                return s, f * m
            raise ValueError("cannot split %d into a square and a squarefree part: its factor %d "
                             "has no prime factor up to %d" % (n, m, TRIAL_BOUND))
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                f *= p
            fresh = True
        p += 1 if p == 2 else 2
    return s, f * m


@lru_cache(maxsize=64)
def _squarefree(m: int) -> bool:
    """Whether the int m > 1 has no square factor: the constructor's radicand
    check, one split per radicand (one past TRIAL_BOUND takes about 0.1 s)."""
    return _square_part(m)[0] == 1


def split_square(m: RationalLike) -> tuple[Fraction, int]:
    """Write m > 0 as s**2 * f with rational s > 0 and squarefree integer f."""
    m = to_rational(m)
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
        parts = [to_rational(x) for x in (a, b, c, d)]
        if radicand is not None and (type(radicand) is not int or radicand <= 1
                                     or not _squarefree(radicand)):
            raise ValueError("radicand must be a squarefree integer > 1, not %r" % (radicand,))
        if not (parts[2] or parts[3]):
            radicand = None
        elif radicand is None:
            raise ValueError("w-component present but no radicand given")
        # the lcm of the reduced denominators leaves gcd(a, b, c, d, q) = 1
        q = math.lcm(*(x.denominator for x in parts))
        _set(self, (*(x.numerator * (q // x.denominator) for x in parts), q, radicand))

    def __setattr__(self, name, value):
        raise AttributeError("TowerScalar is immutable")

    def __reduce__(self):
        # the read-back that keeps the type: a rational TowerScalar stays one
        return (_reduced, self._t)

    @classmethod
    def rational(cls, x: RationalLike) -> "TowerScalar":
        """x as a rational TowerScalar, for callers outside the package."""
        x = to_rational(x)
        return _make((x.numerator, 0, 0, 0, x.denominator, None))

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
            return _reduced(q * a, -q * b, 0, 0, n, None)
        # conjugate over w: (u - v w); norm = u^2 - m v^2 in Q(i)
        na = a * a - b * b - m * (c * c - d * d)
        nb = 2 * (a * b - m * c * d)
        nn = na * na + nb * nb
        if not nn:
            raise ZeroDivisionError("norm form is zero; element not invertible")
        # 1/z = q conj_w(z) conj_i(norm) / |norm|^2
        return _reduced(q * (a * na + b * nb), q * (b * na - a * nb),
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


def _reduced(a: int, b: int, c: int, d: int, q: int, m) -> TowerScalar:
    """The TowerScalar (a + b*i + c*w + d*i*w) / q for integers with q > 0 and
    w**2 = m, reduced to the stored form; the operators' read-back, which keeps
    a rational result a TowerScalar."""
    g = math.gcd(a, b, c, d, q)
    if g != 1:
        a, b, c, d, q = a // g, b // g, c // g, d // g, q // g
    return _make((a, b, c, d, q, m if (c or d) else None))


def from_numerators(a: int, b: int, c: int, d: int, q: int, m):
    """The scalar (a + b*i + c*w + d*i*w) / q for integers with q > 0 and w**2 = m:
    the Fraction a / q when b = c = d = 0, else the reduced TowerScalar."""
    if not (b or c or d):
        return Fraction(a, q)
    return _reduced(a, b, c, d, q, m)


def _tuple(x):
    """The stored tuple of x as a tower element, or None for other types."""
    if type(x) is TowerScalar:
        return x._t
    if isinstance(x, Fraction):
        return (x.numerator, 0, 0, 0, x.denominator, None)
    if isinstance(x, int):
        return (int(x), 0, 0, 0, 1, None)
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
        return _reduced(a1 + a2, b1 + b2, c1 + c2, d1 + d2, q1, m)
    return _reduced(a1 * q2 + a2 * q1, b1 * q2 + b2 * q1, c1 * q2 + c2 * q1,
                    d1 * q2 + d2 * q1, q1 * q2, m)


def _product(s: tuple, o: tuple) -> TowerScalar:
    a1, b1, c1, d1, q1, m1 = s
    a2, b2, c2, d2, q2, m2 = o
    q = q1 * q2
    if m1 is None and m2 is None:
        # pure Q(i); over Z[i], the common case, there is nothing to reduce
        a, b = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
        return _make((a, b, 0, 0, 1, None)) if q == 1 else _reduced(a, b, 0, 0, q, None)
    m = _common_radicand(m1, m2)
    # (u1 + v1 w)(u2 + v2 w) = (u1 u2 + m v1 v2) + (u1 v2 + v1 u2) w over Q(i)
    return _reduced(a1 * a2 - b1 * b2 + m * (c1 * c2 - d1 * d2),
                    a1 * b2 + b1 * a2 + m * (c1 * d2 + d1 * c2),
                    a1 * c2 - b1 * d2 + c1 * a2 - d1 * b2,
                    a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2, q, m)


TS_I = from_numerators(0, 1, 0, 0, 1, None)


def sqrt_to_tower(m: RationalLike):
    """Exact square root of a rational: a Fraction when it is rational, 0
    included, else a TowerScalar.

    m > 0 gives s*w (or the Fraction s when m is a perfect square); m < 0
    gives i times the root of -m; m = 0 gives Fraction(0).  Radicands are
    canonicalized to squarefree integers, so equal values compare equal.
    """
    m = to_rational(m)
    if not m:
        return m
    s, f = split_square(abs(m))
    parts = [0, 0, 0, 0]
    parts[(m < 0) + 2 * (f > 1)] = s.numerator    # the slot of 1, i, w or i*w
    return from_numerators(*parts, s.denominator, f if f > 1 else None)


def to_dict(x) -> dict:
    """The JSON form of an exact scalar: its parts a, b, c, d as p/q strings and
    its radicand (None when it has no w-part)."""
    *parts, q, m = _exact_tuple(x)
    return {**{k: str(Fraction(v, q)) for k, v in zip("abcd", parts)}, "radicand": m}


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
    # the two common types are read inline, the rest through the one check
    parts = [x._t if type(x) is TowerScalar else
             (x.numerator, 0, 0, 0, x.denominator, None) if type(x) is Fraction else _exact_tuple(x)
             for x in scalars]
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


def _mul(x: tuple, y: tuple, m: int) -> tuple:
    """The numerators of the product of two tower numerators, w**2 = m (0 for none)."""
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return (a1 * a2 - b1 * b2 + m * (c1 * c2 - d1 * d2), a1 * b2 + b1 * a2 + m * (c1 * d2 + d1 * c2),
            a1 * c2 - b1 * d2 + c1 * a2 - d1 * b2, a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2)


def scaled(xs, c) -> list:
    """[x * c for x in xs] for exact scalars, each product read back with
    `from_numerators`, so a rational one is a Fraction whatever the types of
    its factors: the one normalizing product, for the kernel rows a solver
    returns (`linalg.normalize_vector`).  A float raises TypeError."""
    a2, b2, c2, d2, q2, m2 = _exact_tuple(c)
    out = []
    for x in xs:
        a1, b1, c1, d1, q1, m1 = x._t if type(x) is TowerScalar else _exact_tuple(x)
        if m1 is None and m2 is None:     # Q(i), the common case
            out.append(from_numerators(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, 0, 0, q1 * q2, None))
        else:
            m = _common_radicand(m1, m2)
            out.append(from_numerators(*_mul((a1, b1, c1, d1), (a2, b2, c2, d2), m), q1 * q2, m))
    return out
