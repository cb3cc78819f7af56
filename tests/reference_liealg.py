"""Dense geometry, kept as the oracle for the stored entries in `solvspin.liealg`.

`solvspin` stores the connection and the curvature as sorted tuples of
nonzero entries.  The routines here build the dense n x n matrix of each
nabla_{e_i} from the Gamma entries, and the full n^4 Riemann tensor from
matrix products and the dense `structure` table, R(x, y) = [nabla_x, nabla_y]
- nabla_{[x, y]}, so they share no summation with `liealg.curvature`.
`densify_curvature` lays the stored curvature entries out in the same table.
"""

from __future__ import annotations

from fractions import Fraction

from solvspin.linalg import mat_mul, mat_scale

F0 = Fraction(0)


def nabla_matrices(M) -> list[tuple]:
    """Matrix of w -> nabla_{e_i} w per direction i: Gamma_ijk at row k, column j."""
    n = M.dim
    mats = [[[F0] * n for _ in range(n)] for _ in range(n)]
    for i, j, k, v in M.connection:
        mats[i][k][j] = v
    return [tuple(tuple(row) for row in m) for m in mats]


def dense_curvature(M) -> tuple:
    """R[i][j][k][l]: coefficient of e_l in R(e_i, e_j) e_k, from n^2 matrix products."""
    n = M.dim
    A = nabla_matrices(M)
    AA = [[mat_mul(a, b) for b in A] for a in A]
    c = M.algebra.structure
    R = []
    for i in range(n):
        plane = []
        for j in range(n):
            op = _minus(AA[i][j], AA[j][i])
            for k in range(n):
                if not c[i][j][k] == 0:
                    op = _minus(op, mat_scale(c[i][j][k], A[k]))
            # op columns are R(e_i, e_j) e_k
            plane.append(tuple(tuple(op[l][k] for l in range(n)) for k in range(n)))
        R.append(tuple(plane))
    return tuple(R)


def _minus(A, B) -> tuple:
    """A - B, leaving an entry of A as it is where B is 0."""
    return tuple(tuple(a if b == 0 else a - b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def densify_curvature(entries, n: int) -> tuple:
    """The n^4 table of stored entries (i, j, k, l, R), i < j, with
    R[j][i] = -R[i][j], R[i][i] = 0 and 0 everywhere else."""
    R = [[[[F0] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i, j, k, l, v in entries:
        R[i][j][k][l] = v
        R[j][i][k][l] = -v
    return tuple(tuple(tuple(tuple(row) for row in plane) for plane in block) for block in R)
