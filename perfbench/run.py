"""solvspin benchmark: seeded workloads, outcome checks, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload cli-batch --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; solvspin is imported from its `src/`.  The
loop is closed, in one process and one thread: each item is one call a user
waits for, timed alone; its outcome check runs after it, untimed.  Whole
cycles of items run until the next one would pass `--seconds` (and at least
MIN_ITEMS items ran), so every run measures the same mix.  `--trace 1`
runs every item untraced and then traced and reports the per-layer metrics
of `tracing`.  The last line of stdout is the JSON result.

The per-item end-to-end metrics are rescaled to a reference machine speed by
`pace`, from a fixed reference loop timed before every item; the raw figures
are printed beside them.  `setup_s` is not rescaled.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import pace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("cli-batch", "clifford-sweep", "invariant-solve", "halfspace-solve")
MIN_ITEMS = 100          # so at least ten samples lie beyond p90
SETUP_PROBES = 9         # fresh processes timed for setup_s
CHUNK_PER_S = 0.025      # a long item gets an extra reference chunk per this many seconds
MAX_EXTRA_CHUNKS = 8
HARD_STOP_S = 150.0      # a run ends well inside 180 s even on a slow machine
READY = "perfbench-ready"


def _import_solvspin():
    """Import solvspin from this checkout's src/ only; exit 1 if it is not there."""
    sys.path.insert(0, SRC)
    try:
        import solvspin
    except ImportError as exc:
        sys.exit("perfbench: cannot import solvspin from %s: %s" % (SRC, exc))
    if not os.path.abspath(solvspin.__file__).startswith(SRC + os.sep):
        sys.exit("perfbench: solvspin resolved to %s, not to %s" % (solvspin.__file__, SRC))


def _workdir(workload, seed):
    # fixed-width pid: the path appears in CLI reports, whose length is counted
    path = os.path.join(ROOT, ".perfbench_out", "work-%s-%d-%07d" % (workload, seed, os.getpid()))
    os.makedirs(path)
    return path


def _setup(workload, seed):
    import workloads
    workdir = _workdir(workload, seed)
    wl = workloads.build(workload, seed, workdir)
    wl.warmup()
    return wl, workdir


def _probe_setup_once(workload, seed):
    """Wall time of one fresh process from interpreter start to the first timed item."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - started
    out, err = proc.communicate(timeout=60)
    if line.strip() != READY or proc.returncode != 0:
        raise RuntimeError("setup probe failed: %s" % (err.strip() or line))
    return elapsed


class SetupProbes:
    """SETUP_PROBES setup probes spread evenly over the measured run.

    Probes run between items, outside their timed intervals, so their median
    covers the host's speed over the whole run rather than its first seconds.
    """

    def __init__(self, workload, seed, seconds):
        self.args = (workload, seed)
        self.spacing = seconds / SETUP_PROBES
        self.next_at = time.perf_counter()
        self.samples = []

    def due(self):
        if len(self.samples) < SETUP_PROBES and time.perf_counter() >= self.next_at:
            self.samples.append(_probe_setup_once(*self.args))
            self.next_at = time.perf_counter() + self.spacing

    def finish(self):
        """Run the probes the run ended before; (median, samples)."""
        while len(self.samples) < SETUP_PROBES:
            self.samples.append(_probe_setup_once(*self.args))
        return statistics.median(self.samples), self.samples


class Tally:
    """Per-item times and failures over the measured cycles."""

    def __init__(self):
        self.times = []
        self.starts = []
        self.failed = {}        # key -> [reason, count]
        self.wrong = 0
        self.cycles = 0

    def record(self, item, started, seconds, problem):
        self.starts.append(started)
        self.times.append(seconds)
        if problem is not None:
            kind, reason = problem
            entry = self.failed.setdefault(item.key, [reason, 0])
            entry[1] += 1
            if kind == "wrong":
                self.wrong += 1

    @property
    def failures(self):
        return sum(count for _, count in self.failed.values())


def _timed(item):
    """(result, start, seconds, exception) of one call; a raising item is a failed item."""
    started = time.perf_counter()
    try:
        result, error = item.call(), None
    except Exception as exc:
        result, error = None, exc
    return result, started, time.perf_counter() - started, error


def run_cycle(wl, tally, tracer=None, between=None):
    """One pass over the workload's items; returns the summed timed intervals.

    `between()` runs before every item, outside its timed interval.

    With a tracer each item runs twice back to back, untraced and then traced,
    and the pair of sums is returned: adjacent twins see the same machine
    speed, so their ratio is the tracing overhead.
    """
    busy = plain = 0.0
    for number, item in enumerate(wl.cycle()):
        if between is not None:
            between()
        if tracer is not None:
            plain += _timed(item)[2]
            tracer.begin_item("%d:%d" % (tally.cycles, number))
            tracer.install()
        try:
            result, started, elapsed, error = _timed(item)
        finally:
            if tracer is not None:
                tracer.uninstall()
        busy += elapsed
        if error is not None:
            problem = ("failed", "raised %s: %s" % (type(error).__name__, error))
        else:
            try:
                problem = item.check(result)
            except Exception as exc:
                problem = ("wrong", "outcome check raised %s: %s" % (type(exc).__name__, exc))
            report_bytes = getattr(result, "report_bytes", None)
            if tracer is not None and report_bytes is not None:
                tracer.add_count("cli.report_bytes", report_bytes)
        tally.record(item, started, elapsed, problem)
    tally.cycles += 1
    return busy if tracer is None else (busy, plain)


def quantile(values, q):
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure(wl, seconds, pacer, probes):
    """Whole cycles until `seconds`, with setup probes and reference chunks between items.

    Before each item run one reference chunk, and one more per CHUNK_PER_S of
    the item before it, so a long item has as many chunks around it to give
    its speed as a run of short ones.
    """
    tally = Tally()

    def between():
        probes.due()
        previous = tally.times[-1] if tally.times else 0.0
        pacer.tick(1 + min(MAX_EXTRA_CHUNKS, int(previous / CHUNK_PER_S)))

    started = time.perf_counter()
    walls = []
    while True:
        t0 = time.perf_counter()
        run_cycle(wl, tally, between=between)
        walls.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - started
        if len(tally.times) >= MIN_ITEMS and elapsed + statistics.mean(walls) > seconds:
            break
        if elapsed + statistics.mean(walls) > HARD_STOP_S:
            break
    pacer.tick()        # the last item has chunks on both sides too
    return tally


def measure_traced(wl, seconds):
    """Traced cycles until `seconds`; counts come from the first one.

    One unmeasured cycle first fills every cache, so the traced cycles repeat
    the same work and the untraced twins are not slowed by first-time costs.
    """
    import tracing
    tracer = tracing.Tracer()
    tally = Tally()
    run_cycle(wl, Tally())
    started = time.perf_counter()
    plain, traced, runs, walls = [], [], [], []
    span_file = os.path.join(ROOT, ".perfbench_out", "spans-%s.jsonl" % wl.name)
    while True:
        t0 = time.perf_counter()
        tracer.reset()
        busy, untraced = run_cycle(wl, tally, tracer)
        traced.append(busy)
        plain.append(untraced)
        runs.append(tracer.metrics())
        if len(runs) == 1:
            tracer.write_spans(span_file)
        walls.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - started
        if elapsed + statistics.mean(walls) > min(seconds, HARD_STOP_S):
            break
    counts, ratios, _ = runs[0]
    if any(r[0] != counts for r in runs[1:]):
        raise RuntimeError("per-layer counts differ between traced cycles of one run")
    metrics = {name: (counts[name], "count") for name in tracing.COUNT_METRICS}
    metrics.update((name, (ratios[name], "ratio")) for name in tracing.RATIO_METRICS)
    for name in tracing.SELF_METRICS:
        metrics[name + ".self_s"] = (statistics.median(r[2][name] for r in runs), "s")
    metrics["trace.overhead"] = (sum(traced) / sum(plain), "ratio")
    notes = {name: "base: %s = %d" % (base, counts[base])
             for name, base in tracing.RATIO_BASES.items()}
    notes["trace.overhead"] = "traced %.3f s / untraced twins %.3f s over %d cycles" % (
        sum(traced), sum(plain), len(runs))
    print("spans of the first traced cycle: %s" % os.path.relpath(span_file, ROOT))
    return tally, metrics, notes


def end_to_end(tally, pacer, setup_s, setup_samples):
    n, failures = len(tally.times), tally.failures
    raw = tally.times
    scaled = [t * pacer.scale(t0, t0 + t) for t0, t in zip(tally.starts, raw)]
    busy, raw_busy = sum(scaled), sum(raw)
    metrics = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (n / busy, "1/s"),
        "item_ms_p50": (1000 * quantile(scaled, 0.5), "ms"),
        "item_ms_p90": (1000 * quantile(scaled, 0.9), "ms"),
        "ok_rate": ((n - failures) / n, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "setup_s": "median of %d fresh processes spread over the run, unscaled %s"
                   % (len(setup_samples), ["%.3f" % x for x in setup_samples]),
        "items_per_s": "%d items / %.3f s scaled (raw %.3f s, %.4g 1/s)"
                       % (n, busy, raw_busy, n / raw_busy),
        "item_ms_p50": "samples=%d (raw %.4g ms)" % (n, 1000 * quantile(raw, 0.5)),
        "item_ms_p90": "samples=%d (raw %.4g ms)" % (n, 1000 * quantile(raw, 0.9)),
        "ok_rate": "base: %d ok / %d attempted (error_rate %.6f = %d failed / %d)"
                   % (n - failures, n, failures / n, failures, n),
        "peak_rss_mb": "ru_maxrss of this process",
    }
    print("reference chunk: median %.4f ms over %d chunks; scaled to %.4f ms"
          % (1000 * pacer.median_chunk_s(), len(pacer.times), 1000 * pace.REF_CHUNK_S))
    return metrics, notes


def _print_failures(tally):
    for key, (reason, count) in sorted(tally.failed.items()):
        print("failed item (x%d): %s: %s" % (count, key, reason))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: set up, print a ready line and exit")
    args = parser.parse_args(argv)
    _import_solvspin()

    if args.setup_probe:
        _, workdir = _setup(args.workload, args.seed)
        print(READY, flush=True)
        shutil.rmtree(workdir, ignore_errors=True)
        return 0

    wl, workdir = _setup(args.workload, args.seed)
    try:
        if args.trace == 0:
            pacer = pace.Pacer()
            probes = SetupProbes(args.workload, args.seed, args.seconds)
            tally = measure(wl, args.seconds, pacer, probes)
            setup_s, setup_samples = probes.finish()
            metrics, notes = end_to_end(tally, pacer, setup_s, setup_samples)
        else:
            import micro
            micro_us = micro.run()
            tally, metrics, notes = measure_traced(wl, args.seconds)
            metrics.update((name, (value, "us")) for name, value in micro_us.items())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("workload %s seed %d: %d items in %d cycles, %d failed, %d wrong answers"
          % (args.workload, args.seed, len(tally.times), tally.cycles, tally.failures, tally.wrong))
    _print_failures(tally)
    for name, (value, unit) in metrics.items():
        print("%-48s %14.6g %-6s %s" % (name, value, unit, notes.get(name, "")))
    result = {
        "correct": tally.wrong == 0,
        "attempted": len(tally.times),
        "failed": tally.failures,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
