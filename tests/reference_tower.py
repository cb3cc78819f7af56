"""Reference tower scalar for the oracle tests in test_exact.py.

This is the Fraction-component implementation that solvspin.exact.TowerScalar
replaced: the value a + b*i + c*w + d*i*w is held as four Fractions and every
operation is Fraction arithmetic.  It is slow and independent of the integer
numerator form, so the hypothesis tests compare the two operation by
operation.
"""

from __future__ import annotations

from fractions import Fraction

from solvspin.exact import IncompatibleExtensionError, format_rational, parse_rational

_ZERO = Fraction(0)


class FractionTower:
    """Element of Q(i)(w), w**2 = radicand, stored as four Fraction components."""

    __slots__ = ("a", "b", "c", "d", "radicand")

    def __init__(self, a=0, b=0, c=0, d=0, radicand=None):
        a = a if type(a) is Fraction else Fraction(a)
        b = b if type(b) is Fraction else Fraction(b)
        c = c if type(c) is Fraction else Fraction(c)
        d = d if type(d) is Fraction else Fraction(d)
        if not c and not d:
            radicand = None
        elif radicand is None:
            raise ValueError("w-component present but no radicand given")
        else:
            radicand = int(radicand)
            if radicand <= 1:
                raise ValueError("radicand must be a squarefree integer > 1")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "radicand", radicand)

    def __setattr__(self, name, value):
        raise AttributeError("FractionTower is immutable")

    @classmethod
    def _raw(cls, a, b, c, d, radicand):
        obj = object.__new__(cls)
        object.__setattr__(obj, "a", a)
        object.__setattr__(obj, "b", b)
        object.__setattr__(obj, "c", c)
        object.__setattr__(obj, "d", d)
        object.__setattr__(obj, "radicand", radicand if (c or d) else None)
        return obj

    @classmethod
    def rational(cls, x) -> "FractionTower":
        return cls._raw(Fraction(x), _ZERO, _ZERO, _ZERO, None)

    @classmethod
    def imaginary(cls, x=1) -> "FractionTower":
        return cls._raw(_ZERO, Fraction(x), _ZERO, _ZERO, None)

    # ---- predicates ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not (self.a or self.b or self.c or self.d)

    @property
    def is_rational(self) -> bool:
        return not (self.b or self.c or self.d)

    # ---- coercion helpers ----------------------------------------------

    @staticmethod
    def _coerce(x):
        if type(x) is FractionTower:
            return x
        if isinstance(x, (int, Fraction)):
            return FractionTower._raw(Fraction(x), _ZERO, _ZERO, _ZERO, None)
        if isinstance(x, FractionTower):
            return x
        return None

    def _merge_radicand(self, other: "FractionTower"):
        if self.radicand is None:
            return other.radicand
        if other.radicand is None or other.radicand == self.radicand:
            return self.radicand
        raise IncompatibleExtensionError(
            "incompatible extension: radicands %d and %d"
            % (self.radicand, other.radicand)
        )

    # ---- arithmetic -----------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        m = self._merge_radicand(o)
        return FractionTower._raw(self.a + o.a, self.b + o.b, self.c + o.c, self.d + o.d, m)

    __radd__ = __add__

    def __neg__(self):
        return FractionTower._raw(-self.a, -self.b, -self.c, -self.d, self.radicand)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        m = self._merge_radicand(o)
        return FractionTower._raw(self.a - o.a, self.b - o.b, self.c - o.c, self.d - o.d, m)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__sub__(self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = o.a, o.b, o.c, o.d
        if not (c1 or d1 or c2 or d2):
            # pure Q(i) fast path
            if not (b1 or b2):
                return FractionTower._raw(a1 * a2, _ZERO, _ZERO, _ZERO, None)
            return FractionTower._raw(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, _ZERO, _ZERO, None)
        m = self._merge_radicand(o)
        mf = Fraction(m)
        # (u1 + v1 w)(u2 + v2 w) = (u1 u2 + m v1 v2) + (u1 v2 + v1 u2) w over Q(i)
        ra = a1 * a2 - b1 * b2 + mf * (c1 * c2 - d1 * d2)
        rb = a1 * b2 + b1 * a2 + mf * (c1 * d2 + d1 * c2)
        rc = a1 * c2 - b1 * d2 + c1 * a2 - d1 * b2
        rd = a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2
        return FractionTower._raw(ra, rb, rc, rd, m)

    __rmul__ = __mul__

    def inverse(self) -> "FractionTower":
        if self.is_zero:
            raise ZeroDivisionError("division by zero")
        a, b, c, d = self.a, self.b, self.c, self.d
        if not (c or d):
            n = a * a + b * b
            return FractionTower._raw(a / n, -b / n, _ZERO, _ZERO, None)
        m = Fraction(self.radicand)
        # conjugate over w: (u - v w); norm = u^2 - m v^2 in Q(i)
        na = a * a - b * b - m * (c * c - d * d)
        nb = 2 * a * b - m * 2 * c * d
        nn = na * na + nb * nb
        if not nn:
            raise ZeroDivisionError("norm form is zero; element not invertible")
        # 1/z = conj_w(z) * conj_i(norm) / |norm|^2
        ia, ib = na / nn, -nb / nn
        return FractionTower._raw(
            a * ia - b * ib,
            a * ib + b * ia,
            -(c * ia - d * ib),
            -(c * ib + d * ia),
            self.radicand,
        )

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.__mul__(o.inverse())

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__mul__(self.inverse())

    # ---- comparison -----------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.radicand is not None and o.radicand is not None and self.radicand != o.radicand:
            return False
        return (self.a, self.b, self.c, self.d) == (o.a, o.b, o.c, o.d)

    def __hash__(self):
        if self.is_rational:
            return hash(self.a)
        return hash((self.a, self.b, self.c, self.d, self.radicand))

    def __bool__(self):
        return not self.is_zero

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
    def from_dict(cls, data: dict) -> "FractionTower":
        return cls(
            parse_rational(data["a"]),
            parse_rational(data["b"]),
            parse_rational(data["c"]),
            parse_rational(data["d"]),
            data.get("radicand"),
        )
