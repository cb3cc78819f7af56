"""Check that two traced runs with one seed give identical per-layer counts.

    python3 perfbench/check_trace_counts.py --seed 7 [--workload cli-batch ...]

Runs `run.py --trace 1` twice per workload in fresh processes and compares
every metric whose unit is `count`.  Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import ROOT, WORKLOADS  # noqa: E402


def traced_counts(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=600, check=True)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items() if m["unit"] == "count"}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=1)
    parser.add_argument("--workload", choices=WORKLOADS, nargs="*", default=list(WORKLOADS))
    args = parser.parse_args(argv)
    ok = True
    for workload in args.workload:
        first = traced_counts(workload, args.seed, args.seconds)
        second = traced_counts(workload, args.seed, args.seconds)
        diff = sorted(k for k in first if first[k] != second.get(k))
        ok = ok and not diff
        print("%s seed %d: %d counts, %s" % (
            workload, args.seed, len(first),
            "identical" if not diff else "differ: %s" % ", ".join(
                "%s %s != %s" % (k, first[k], second.get(k)) for k in diff)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
