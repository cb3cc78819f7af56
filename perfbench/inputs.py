"""Seeded inputs: nilpotent algebras from catalog shapes, half-space specs,
signatures, metric-symmetric endomorphisms and spinors.

Sizes are fixed by the workload schedules; a seed only picks signatures,
coefficient scales and signs, radii, endomorphisms and spinors, so every seed
asks for the same amount of work.
"""

from __future__ import annotations

import math
from fractions import Fraction

import oracles as O

F = Fraction

# non-abelian nilpotent bracket shapes: name -> (dim, [((i, j), k), ...])
SHAPES = {
    "heis3": (3, [((0, 1), 2)]),
    "heis3R": (4, [((0, 1), 2)]),
    "fil4": (4, [((0, 1), 2), ((0, 2), 3)]),
    "heis5": (5, [((0, 1), 4), ((2, 3), 4)]),
    "fil5": (5, [((0, 1), 2), ((0, 2), 3), ((0, 3), 4)]),
    "h3h3": (6, [((0, 1), 2), ((3, 4), 5)]),
    "heis5R": (6, [((0, 1), 4), ((2, 3), 4)]),
}

# the fixed named corpus (unit coefficients): label -> (shape, signs)
NAMED = {
    "heis3": ("heis3", (1, 1, 1)),
    "heis3-lorentz": ("heis3", (1, 1, -1)),
    "heis5": ("heis5", (1, 1, 1, 1, 1)),
    "fil4": ("fil4", (1, 1, 1, 1)),
    "fil5": ("fil5", (1, 1, 1, 1, 1)),
}

# radii and bracket scales of one arithmetic size (lambda = 1/(2r) in 3/4,
# 5/4, 7/4, 9/4), so one seed's work costs about as much as another's
RADII = (F(2, 3), F(2, 5), F(2, 7), F(2, 9))
SCALES = (F(2, 3), F(3, 2), F(2, 5), F(5, 2))


class Algebra:
    """A nilpotent metric Lie algebra as plain data: 0-based brackets and signs."""

    def __init__(self, label, dim, signs, brackets):
        self.label = label
        self.dim = dim
        self.signs = tuple(signs)
        self.brackets = brackets          # {(i, j): {k: Fraction}}, i < j

    def text(self) -> str:
        lines = ["dim %d" % self.dim,
                 "signs " + " ".join("+1" if s == 1 else "-1" for s in self.signs)]
        for (i, j), comps in sorted(self.brackets.items()):
            for k, v in sorted(comps.items()):
                lines.append("%d %d %d %s" % (i + 1, j + 1, k + 1, v))
        return "\n".join(lines) + "\n"


def named_algebra(label) -> Algebra:
    shape, signs = NAMED[label]
    dim, slots = SHAPES[shape]
    brackets = {}
    for (i, j), k in slots:
        brackets.setdefault((i, j), {})[k] = F(1)
    return Algebra(label, dim, signs, brackets)


def extension_kind(alg: Algebra) -> str:
    """'none' (no nilsoliton), 'ext' (Einstein extension with rational
    brackets) or 'irr' (the scaling sqrt(1/|Tr D|) is irrational)."""
    c = O.structure_from_brackets(alg.dim, alg.brackets)
    nil = O.nilsoliton(c, alg.signs)
    if nil is None:
        return "none"
    tr = sum((nil[1][i][i] for i in range(alg.dim)), F(0))
    root = abs(1 / tr)
    exact = all(math.isqrt(x) ** 2 == x for x in (root.numerator, root.denominator))
    return "ext" if exact else "irr"


def random_algebra(rng, shape, kind, label) -> Algebra:
    """Catalog shape of the given extension kind: random signature, one common
    scale and random bracket signs.

    A common scale and per-bracket signs give an isometric copy up to
    rescaling; drawing the signature within a fixed kind keeps the mix of
    outcomes, and so the work per cycle, the same for every seed.
    """
    dim, slots = SHAPES[shape]
    while True:
        signs = random_signs(rng, dim)
        scale = rng.choice(SCALES)
        brackets = {}
        for (i, j), k in slots:
            brackets.setdefault((i, j), {})[k] = scale * rng.choice((1, -1))
        alg = Algebra(label, dim, signs, brackets)
        if extension_kind(alg) == kind:
            return alg


def scaled_copy(rng, alg: Algebra) -> Algebra:
    """Same signature; common scale and per-bracket signs drawn from rng."""
    scale = rng.choice(SCALES)
    brackets = {key: {k: v * scale * rng.choice((1, -1)) for k, v in comps.items()}
                for key, comps in alg.brackets.items()}
    return Algebra(alg.label, alg.dim, alg.signs, brackets)


def random_signs(rng, n) -> tuple:
    return tuple(rng.choice((1, -1)) for _ in range(n))


def random_halfspace(rng, n, eps_t, r=None):
    """(signs, r) for H^eps_r of dimension n with the t-direction sign eps_t.

    eps_t decides whether lambda is real or imaginary, so callers fix it per
    slot and the seed draws the other signs and, unless given, r.
    """
    return random_signs(rng, n - 1) + (eps_t,), r if r is not None else rng.choice(RADII)


def halfspace_spec(signs, r) -> str:
    return "halfspace n=%d r=%s signs=%s" % (
        len(signs), r, ",".join("%+d" % s for s in signs))


def random_metric_symmetric(rng, signs) -> tuple:
    """f with g(f v, w) = g(v, f w) for the metric diag(signs)."""
    n = len(signs)
    f = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        f[i][i] = F(rng.randint(-3, 3), rng.randint(1, 3))
        for j in range(i + 1, n):
            v = F(rng.randint(-3, 3), rng.randint(1, 3))
            f[i][j] = v
            f[j][i] = signs[i] * signs[j] * v
    return tuple(tuple(row) for row in f)


def raised(signs, f) -> tuple:
    """The 2-tensor T_ij = eps_i f[j][i] of an endomorphism f."""
    n = len(signs)
    return tuple(tuple(signs[i] * f[j][i] for j in range(n)) for i in range(n))


def random_spinor(rng, N, scalar) -> list:
    """Nonzero spinor with Gaussian-integer entries in [-2, 2] + i[-2, 2]."""
    while True:
        psi = [scalar(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(N)]
        if any(not x.is_zero for x in psi):
            return psi
