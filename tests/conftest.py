"""Shared builders: reference algebras and randomized pseudo-Iwasawa instances."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import settings

from solvspin.liealg import (
    LieAlgebra,
    MetricLieAlgebra,
    jacobi_check,
    standard_decomposition,
)

from reference_linalg import nullspace

F = Fraction

# Deterministic gates: every run draws the same hypothesis examples (each
# test keeps its own max_examples) and no example database is read or written.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def heisenberg3(signs=(1, 1, 1), coeff=F(1)) -> MetricLieAlgebra:
    alg = LieAlgebra.from_brackets(3, {(0, 1): {2: coeff}})
    return MetricLieAlgebra(alg, signs)


def abelian_metric(signs) -> MetricLieAlgebra:
    return MetricLieAlgebra(LieAlgebra.abelian(len(signs)), tuple(signs))


# nilpotent bracket shapes used for randomized instances: (dim, bracket slots)
NILPOTENT_SHAPES = [
    (1, []),
    (2, []),
    (3, []),
    (3, [((0, 1), 2)]),                      # heis3
    (4, [((0, 1), 2)]),                      # heis3 + R
    (4, [((0, 1), 2), ((0, 2), 3)]),         # filiform
    (5, [((0, 1), 4), ((2, 3), 4)]),         # heis5
    (5, [((0, 1), 2), ((0, 2), 3), ((0, 3), 4)]),
]


def random_nilpotent(rng: random.Random, max_dim: int = 5) -> LieAlgebra:
    """Random nilpotent algebra: a catalog shape with random nonzero coefficients."""
    while True:
        dim, slots = NILPOTENT_SHAPES[rng.randrange(len(NILPOTENT_SHAPES))]
        if dim > max_dim:
            continue
        brackets = {}
        for (i, j), k in slots:
            coeff = F(rng.choice([-2, -1, 1, 2]), rng.choice([1, 1, 2]))
            brackets.setdefault((i, j), {})[k] = coeff
        alg = LieAlgebra.from_brackets(dim, brackets)
        if not jacobi_check(alg):
            return alg


def diagonal_derivations(alg: LieAlgebra) -> list[tuple]:
    """Basis of the diagonal derivation space: d_i + d_j = d_k per bracket."""
    n = alg.dim
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                if alg.structure[i][j][k] == 0:
                    continue
                row = [F(0)] * n
                row[i] += 1
                row[j] += 1
                row[k] -= 1
                rows.append(row)
    if not rows:
        return [tuple(F(1) if q == p else F(0) for q in range(n)) for p in range(n)]
    return nullspace(rows, n)


def random_diagonal_derivation(rng: random.Random, alg: LieAlgebra) -> tuple:
    basis = diagonal_derivations(alg)
    n = alg.dim
    diag = [F(0)] * n
    for vec in basis:
        c = rng.randint(-2, 2)
        if c:
            for q in range(n):
                diag[q] += c * vec[q]
    return tuple(tuple(diag[p] if p == q else F(0) for q in range(n)) for p in range(n))


def semidirect_metric(g: LieAlgebra, phis, signs) -> tuple:
    """g with abelian directions appended, each acting by -phi_alpha.

    Unlike extend_by_derivation this does not require symmetric phi, so tests
    can build standard decompositions that are not pseudo-Iwasawa.
    """
    ng = g.dim
    k = len(phis)
    n = ng + k
    brackets = {}
    for i in range(ng):
        for j in range(i + 1, ng):
            comps = {m: g.structure[i][j][m] for m in range(ng) if g.structure[i][j][m] != 0}
            if comps:
                brackets[(i, j)] = comps
    for a, phi in enumerate(phis):
        for j in range(ng):
            comps = {m: phi[m][j] for m in range(ng) if phi[m][j] != 0}
            if comps:
                # [e_alpha, e_j] = -phi e_j, stored as the (j, alpha) row
                brackets[(j, ng + a)] = comps
    alg = LieAlgebra.from_brackets(n, brackets)
    M = MetricLieAlgebra(alg, tuple(signs))
    decomp = standard_decomposition(M, tuple(range(ng, n)))
    return M, decomp


def random_pseudo_iwasawa(rng: random.Random, max_dim_g: int = 5, max_dim_a: int = 2):
    """Random pseudo-Iwasawa metric algebra with commuting diagonal phi_alpha."""
    g = random_nilpotent(rng, max_dim_g)
    k = rng.randint(1, max_dim_a)
    phis = [random_diagonal_derivation(rng, g) for _ in range(k)]
    signs = tuple(rng.choice([1, -1]) for _ in range(g.dim + k))
    return semidirect_metric(g, phis, signs)


@pytest.fixture
def rng():
    return random.Random(20260808)
