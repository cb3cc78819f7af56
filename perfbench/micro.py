"""`exact` layer microbenchmarks: TowerScalar mul+add and inverse on fixed operands."""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

from solvspin.exact import TowerScalar

F = Fraction
BATCH = 2000
BATCHES = 7

# operand classes: unit Q(i), general Q(i), Q(i)(sqrt 2)
OPERANDS = {
    "unit": (TowerScalar(0, 1), TowerScalar(-1), TowerScalar(0, -1)),
    "qi": (TowerScalar(F(3, 7), F(5, 11)), TowerScalar(F(-2, 3), F(1, 5)),
           TowerScalar(F(1, 2), F(-1, 3))),
    "tower": (TowerScalar(F(1, 3), F(2, 5), F(3, 7), F(-1, 2), 2),
              TowerScalar(F(-2, 9), F(1, 4), F(5, 6), F(1, 3), 2),
              TowerScalar(F(1, 2), F(1, 3), F(-1, 5), F(2, 7), 2)),
}


def _per_op_us(op):
    samples = []
    for _ in range(BATCHES):
        started = time.perf_counter()
        for _ in range(BATCH):
            op()
        samples.append((time.perf_counter() - started) / BATCH * 1e6)
    return statistics.median(samples)


def run() -> dict:
    """Median microseconds per operation, over BATCHES batches of BATCH operations."""
    out = {}
    for cls, (x, y, z) in OPERANDS.items():
        out["exact.muladd_%s_us" % cls] = _per_op_us(lambda x=x, y=y, z=z: x * y + z)
    x = OPERANDS["tower"][0]
    out["exact.inverse_tower_us"] = _per_op_us(x.inverse)
    return out
