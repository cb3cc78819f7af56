"""Machine-speed reference for the timed end-to-end metrics.

The benchmark runs on a few cores of a shared host whose speed drifts by tens
of percent in phases that last from a second to minutes, so two runs of the
same code can differ by a third in raw wall time.  A fixed reference loop
(`chunk`: Fraction arithmetic and dict stores, the operations solvspin's exact
layer is built from, and nothing from solvspin) is timed before every item.
Each measured interval is then rescaled by the median chunk time around it:

    scaled = measured * REF_CHUNK_S / median(chunk times within WINDOW_S)

so a timed metric reads what the interval would take on a machine where one
chunk takes REF_CHUNK_S.  A change to solvspin moves the measured intervals and
not the chunks, so it shows in full; a slow phase of the host moves both and
cancels.  The raw figures are printed beside the scaled ones.

Setup is not rescaled: a setup probe is a fresh process of a few tenths of a
second, and chunks run next to it by the parent or by the probe tracked its
speed worse than no scaling at all.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from fractions import Fraction

# One chunk's time at the reference speed: the median chunk time on an idle
# 2-CPU virtual machine with Python 3.11.7.
REF_CHUNK_S = 0.0013
CHUNK_STEPS = 120
WINDOW_S = 0.25          # chunks this close to an interval describe its speed


def chunk():
    """The fixed reference work."""
    acc = Fraction(0)
    table = {}
    for i in range(1, CHUNK_STEPS):
        acc += Fraction(i, i + 7) * Fraction(3, 5) + Fraction(i % 11, 13)
        table[i % 17] = acc
    return acc


class Pacer:
    """Timed reference chunks on one clock, and the scale they give an interval."""

    def __init__(self):
        self.mids = []          # chunk midpoints, increasing
        self.times = []         # chunk durations

    def tick(self, count=1):
        """Run `count` chunks with the cyclic collector off, so none pays for the program's garbage."""
        for _ in range(count):
            gc.disable()
            try:
                started = time.perf_counter()
                chunk()
                ended = time.perf_counter()
            finally:
                gc.enable()
            self.mids.append(0.5 * (started + ended))
            self.times.append(ended - started)

    def scale(self, start, end):
        """REF_CHUNK_S over the median chunk time within WINDOW_S of [start, end]."""
        lo = bisect.bisect_left(self.mids, start - WINDOW_S)
        hi = bisect.bisect_right(self.mids, end + WINDOW_S)
        if lo == hi:
            raise RuntimeError("no reference chunk within %.2f s of an interval" % WINDOW_S)
        return REF_CHUNK_S / statistics.median(self.times[lo:hi])

    def median_chunk_s(self):
        return statistics.median(self.times)
