"""Span recorder wrapped around solvspin's public functions, from outside `src/`.

`Tracer.install()` replaces each traced function in every solvspin module
namespace that binds it (a `from .x import f` binds its own name, so patching
only the defining module would miss calls such as `solvspin.cli.ricci`), and
swaps counting wrappers into TowerScalar's operator slots.  `uninstall()`
puts the originals back, so only the traced calls run through a wrapper;
the end-to-end run never installs one.  Spans are kept in memory and
written out by the caller.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction

from solvspin.exact import TowerScalar

# span name -> (module, attribute) of the function it wraps
TRACED = {
    "linalg.rref": ("solvspin.linalg", "rref"),
    "linalg.sparse_nullspace": ("solvspin.linalg", "sparse_nullspace"),
    "linalg.mat_sub": ("solvspin.linalg", "mat_sub"),
    "linalg.mat_scale": ("solvspin.linalg", "mat_scale"),
    "linalg.mat_mul": ("solvspin.linalg", "mat_mul"),
    "linalg.mat_from_rows": ("solvspin.linalg", "mat_from_rows"),
    "clifford.build_gammas": ("solvspin.clifford", "build_gammas"),
    "clifford.clifford_violations": ("solvspin.clifford", "clifford_violations"),
    "clifford.two_tensor_action": ("solvspin.clifford", "two_tensor_action"),
    "clifford.symmetric_commutant_kernel": ("solvspin.clifford", "symmetric_commutant_kernel"),
    "clifford.gamma_of_vector": ("solvspin.clifford", "gamma_of_vector"),
    "liealg.levi_civita": ("solvspin.liealg", "levi_civita"),
    "liealg.curvature": ("solvspin.liealg", "curvature"),
    "liealg.ricci": ("solvspin.liealg", "ricci"),
    "liealg.nilsoliton_solve": ("solvspin.liealg", "nilsoliton_solve"),
    "liealg.einstein_extension": ("solvspin.liealg", "einstein_extension"),
    "liealg.jacobi_check": ("solvspin.liealg", "jacobi_check"),
    "killing.invariant_spin_connection": ("solvspin.killing", "invariant_spin_connection"),
    "killing.solve_invariant_killing": ("solvspin.killing", "solve_invariant_killing"),
    "killing.ricci_filter": ("solvspin.killing", "ricci_filter"),
    "killing.lambda_candidates": ("solvspin.killing", "lambda_candidates"),
    "killing.classify_pseudo_iwasawa": ("solvspin.killing", "classify_pseudo_iwasawa"),
    "halfspace.solve_killing_halfspace": ("solvspin.halfspace", "solve_killing_halfspace"),
    "halfspace.killing_residual": ("solvspin.halfspace", "killing_residual"),
    "halfspace.verify_amended_identity": ("solvspin.halfspace", "verify_amended_identity"),
    "cli.parse_algebra_text": ("solvspin.cli", "parse_algebra_text"),
    "cli.run_single": ("solvspin.cli", "run_single"),
    "cli.run": ("solvspin.cli", "run"),
    "cli.main": ("solvspin.cli", "main"),
}

DENSE_OPS = ("linalg.mat_sub", "linalg.mat_scale", "linalg.mat_mul", "linalg.mat_from_rows")

# per-layer metric names, in the order BENCHMARK.json lists them
COUNT_METRICS = (
    "exact.tower_mul.calls", "exact.tower_add.calls",
    "linalg.rref.calls", "linalg.rref.rows", "linalg.rref.rank",
    "linalg.sparse_nullspace.calls", "linalg.sparse_nullspace.eqs",
    "linalg.sparse_nullspace.nnz", "linalg.sparse_nullspace.kernel_dim",
    "clifford.build_gammas.calls", "clifford.gamma_of_vector.calls",
    "liealg.levi_civita.calls", "liealg.curvature.calls", "liealg.ricci.calls",
    "killing.invariant_spin_connection.calls",
    "halfspace.solve_killing_halfspace.unknowns", "halfspace.solve_killing_halfspace.equations",
    "halfspace.killing_residual.calls",
    "cli.report_bytes",
)
# ratio -> the count it is a share of
RATIO_BASES = {
    "exact.tower_mul.unit_share": "exact.tower_mul.calls",
    "linalg.rref.rank_per_row": "linalg.rref.rows",
    "liealg.ricci.repeat_share": "liealg.ricci.calls",
    "killing.invariant_spin_connection.repeat_share": "killing.invariant_spin_connection.calls",
}
RATIO_METRICS = tuple(RATIO_BASES)
SELF_METRICS = (
    "linalg.rref", "linalg.dense_ops", "linalg.sparse_nullspace",
    "clifford.build_gammas", "clifford.clifford_violations", "clifford.two_tensor_action",
    "clifford.symmetric_commutant_kernel", "clifford.gamma_of_vector",
    "liealg.levi_civita", "liealg.curvature", "liealg.ricci", "liealg.nilsoliton_solve",
    "liealg.einstein_extension", "liealg.jacobi_check",
    "killing.invariant_spin_connection", "killing.solve_invariant_killing",
    "killing.ricci_filter", "killing.lambda_candidates", "killing.classify_pseudo_iwasawa",
    "halfspace.solve_killing_halfspace", "halfspace.killing_residual",
    "halfspace.verify_amended_identity",
    "cli.parse_algebra_text", "cli.run_single", "cli.render",
)

_UNITS = (Fraction(0), Fraction(1), Fraction(-1))


def _is_unit(x) -> bool:
    """x in {0, +-1, +-i}."""
    if type(x) is TowerScalar:
        if x.c or x.d:
            return False
        if not x.b:
            return x.a in _UNITS
        return not x.a and x.b in _UNITS
    return isinstance(x, (int, Fraction)) and x in _UNITS


class Tracer:
    """Spans (name, item, parent, start, end) plus counts, for one process."""

    def __init__(self):
        self.spans = []
        self.calls = {}
        self.self_s = {}
        self.counts = {}
        self.item = None
        self._stack = []        # open spans: [index, child_seconds, name]
        self._bindings = None
        self.reset()

    def reset(self):
        """Forget recorded spans and counts; wrappers stay installed."""
        self.spans.clear()
        self.calls.clear()
        self.self_s.clear()
        self.counts.update((name, 0) for name in COUNT_METRICS)
        self.tower_unit = 0
        self.ricci_repeat = 0
        self.isc_repeat = 0
        self._seen_ricci = {}
        self._seen_isc = {}

    def begin_item(self, item_id):
        self.item = item_id
        self._seen_ricci = {}
        self._seen_isc = {}

    def add_count(self, name, value):
        self.counts[name] += value

    # -- patching --------------------------------------------------------

    def install(self):
        for owner, key, _, wrapper in self._patches():
            setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original, _ in reversed(self._patches()):
            setattr(owner, key, original)

    def _patches(self):
        """(owner, attribute, original, wrapper) for every binding, found once."""
        if self._bindings is None:
            self._bindings = []
            mods = [m for name, m in sys.modules.items()
                    if name == "solvspin" or name.startswith("solvspin.")]
            for span_name, (mod_name, attr) in TRACED.items():
                original = getattr(sys.modules[mod_name], attr)
                wrapper = self._wrap(span_name, original)
                for mod in mods:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._bindings.append((mod, key, original, wrapper))
            for slot in ("__mul__", "__rmul__"):
                original = getattr(TowerScalar, slot)
                self._bindings.append((TowerScalar, slot, original, self._count_mul(original)))
            for slot in ("__add__", "__radd__", "__sub__"):
                original = getattr(TowerScalar, slot)
                self._bindings.append((TowerScalar, slot, original, self._count_add(original)))
        return self._bindings

    def _count_mul(self, original):
        counts = self.counts

        def op(a, b):
            counts["exact.tower_mul.calls"] += 1
            if _is_unit(a) or _is_unit(b):
                self.tower_unit += 1
            return original(a, b)
        return op

    def _count_add(self, original):
        counts = self.counts

        def op(a, b):
            counts["exact.tower_add.calls"] += 1
            return original(a, b)
        return op

    def _wrap(self, name, fn):
        stack = self._stack
        spans = self.spans
        calls = self.calls
        self_s = self.self_s
        perf = time.perf_counter

        def traced(*args, **kwargs):
            self._observe(name, args)
            idx = len(spans)
            parent = stack[-1][0] if stack else None
            spans.append(None)
            frame = [idx, 0.0, name]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                spans[idx] = (name, self.item, parent, start, end)
                calls[name] = calls.get(name, 0) + 1
                self_s[name] = self_s.get(name, 0.0) + dur - frame[1]
            self._sizes(name, args, result)
            return result
        return traced

    # -- sizes and repeats recorded at the boundary ------------------------

    def _observe(self, name, args):
        if name == "liealg.ricci":
            M = args[0]
            if id(M) in self._seen_ricci:
                self.ricci_repeat += 1
            self._seen_ricci[id(M)] = M
        elif name == "killing.invariant_spin_connection":
            key = (id(args[0]), id(args[1]))
            if key in self._seen_isc:
                self.isc_repeat += 1
            self._seen_isc[key] = args

    def _sizes(self, name, args, result):
        c = self.counts
        if name == "linalg.rref":
            c["linalg.rref.rows"] += len(args[0])
            c["linalg.rref.rank"] += len(result)
        elif name == "linalg.sparse_nullspace":
            eqs = args[0]
            c["linalg.sparse_nullspace.eqs"] += len(eqs)
            c["linalg.sparse_nullspace.nnz"] += sum(len(e) for e in eqs)
            c["linalg.sparse_nullspace.kernel_dim"] += len(result)
            if self._stack and self._stack[-1][2] == "halfspace.solve_killing_halfspace":
                c["halfspace.solve_killing_halfspace.unknowns"] += args[1]
                c["halfspace.solve_killing_halfspace.equations"] += len(eqs)

    # -- results ---------------------------------------------------------

    def metrics(self):
        """Per-layer counts, ratios and self times for the spans recorded since reset()."""
        calls, c = self.calls, self.counts
        c["linalg.rref.calls"] = calls.get("linalg.rref", 0)
        c["linalg.sparse_nullspace.calls"] = calls.get("linalg.sparse_nullspace", 0)
        c["clifford.build_gammas.calls"] = calls.get("clifford.build_gammas", 0)
        c["clifford.gamma_of_vector.calls"] = calls.get("clifford.gamma_of_vector", 0)
        c["liealg.levi_civita.calls"] = calls.get("liealg.levi_civita", 0)
        c["liealg.curvature.calls"] = calls.get("liealg.curvature", 0)
        c["liealg.ricci.calls"] = calls.get("liealg.ricci", 0)
        c["killing.invariant_spin_connection.calls"] = calls.get("killing.invariant_spin_connection", 0)
        c["halfspace.killing_residual.calls"] = calls.get("halfspace.killing_residual", 0)
        counts = dict(c)
        ratios = {
            "exact.tower_mul.unit_share": _ratio(self.tower_unit, c["exact.tower_mul.calls"]),
            "linalg.rref.rank_per_row": _ratio(c["linalg.rref.rank"], c["linalg.rref.rows"]),
            "liealg.ricci.repeat_share": _ratio(self.ricci_repeat, c["liealg.ricci.calls"]),
            "killing.invariant_spin_connection.repeat_share":
                _ratio(self.isc_repeat, c["killing.invariant_spin_connection.calls"]),
        }
        selfs = {}
        for name in SELF_METRICS:
            if name == "linalg.dense_ops":
                selfs[name] = sum(self.self_s.get(n, 0.0) for n in DENSE_OPS)
            elif name == "cli.render":
                selfs[name] = self.self_s.get("cli.main", 0.0)
            else:
                selfs[name] = self.self_s.get(name, 0.0)
        return counts, ratios, selfs

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, item, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "item": item,
                                     "parent": parent, "start": start, "end": end}) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0
