"""Command-line front end: file ingestion, dispatch, JSON/text reporting.

Algebra files use 1-based indices:

    dim 3
    signs +1 +1 +1
    1 2 3 1
    abelian: 4          (optional; marks the abelian part of a decomposition)

Bracket lines `i j k p/q` set c[i][j][k] = p/q and only i < j rows are
allowed.  The `classify` and `killing-halfspace` commands also accept an
inline model spec `halfspace n=<int> r=<p/q> signs=<+1,...>`.  Batch mode:
passing a directory runs the command on every *.alg file inside and appends a
summary; one bad file does not abort the rest.

Every command computes exactly.  `--backend float` changes only the printed
form: the renderers below write each scalar as its nearest double
(`to_float`), where the exact backend writes p/q or a tower value's parts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from decimal import Context, Decimal
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .exact import TowerScalar, common_numerators, format_rational, parse_rational, to_dict
from .liealg import (
    LieAlgebra,
    MetricLieAlgebra,
    StructureError,
    einstein_check,
    einstein_extension,
    jacobi_check,
    lower_central_series,
    nilsoliton_solve,
    standard_decomposition,
)
from .killing import classify_pseudo_iwasawa, lambda_candidates, solve_invariant_killing
from .clifford import build_gammas
from .halfspace import (
    killing_residual,
    parse_halfspace_spec,
    solve_killing_halfspace,
    verify_amended_identity,
)

SCHEMA_VERSION = 1

COMMANDS = (
    "validate",
    "curvature",
    "nilsoliton",
    "extend",
    "killing-invariant",
    "killing-halfspace",
    "classify",
)

EXACT_ONLY = {"killing-invariant", "killing-halfspace", "classify"}


class AlgebraFileError(ValueError):
    def __init__(self, message: str, line_no: Optional[int] = None):
        self.line_no = line_no
        if line_no is not None:
            message = "line %d: %s" % (line_no, message)
        super().__init__(message)


@dataclass(frozen=True)
class JobSpec:
    command: str
    inputs: tuple
    output_format: str = "text"
    backend: str = "exact"
    eps0: Optional[int] = None
    kmax: int = 1
    mmax: int = 1
    out_path: Optional[str] = None


# ---------------------------------------------------------------------------
# algebra file format
# ---------------------------------------------------------------------------

def parse_algebra_text(text: str):
    """Parse the structure-constant format; returns (metric algebra, decomposition or None)."""
    dim = None
    signs = None
    brackets = {}
    seen = set()
    abelian = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("dim"):
            if dim is not None:
                raise AlgebraFileError("duplicate dim line", line_no)
            try:
                dim = int(line.split()[1])
            except (IndexError, ValueError):
                raise AlgebraFileError("malformed dim line", line_no)
            if dim < 1:
                raise AlgebraFileError("dimension must be positive", line_no)
        elif line.startswith("signs"):
            if signs is not None:
                raise AlgebraFileError("duplicate signs line", line_no)
            try:
                signs = tuple(int(tok) for tok in line.split()[1:])
            except ValueError:
                raise AlgebraFileError("malformed signs line", line_no)
        elif line.startswith("abelian:"):
            if abelian is not None:
                raise AlgebraFileError("duplicate abelian line", line_no)
            try:
                abelian = tuple(int(tok) - 1 for tok in line.split(":", 1)[1].replace(",", " ").split())
            except ValueError:
                raise AlgebraFileError("malformed abelian line", line_no)
        else:
            parts = line.split()
            if len(parts) != 4:
                raise AlgebraFileError("bracket line needs 'i j k p/q'", line_no)
            try:
                i, j, k = (int(p) for p in parts[:3])
                coeff = parse_rational(parts[3])
            except ValueError:
                raise AlgebraFileError("malformed bracket line", line_no)
            except ZeroDivisionError:
                raise AlgebraFileError("zero denominator in bracket coefficient", line_no)
            if dim is None:
                raise AlgebraFileError("bracket line before dim line", line_no)
            if not (1 <= i <= dim and 1 <= j <= dim and 1 <= k <= dim):
                raise AlgebraFileError("index out of range", line_no)
            if i >= j:
                raise AlgebraFileError(
                    "only i < j bracket rows are allowed (antisymmetry fixes the rest)", line_no)
            if (i, j, k) in seen:
                raise AlgebraFileError("duplicate bracket line for (%d, %d, %d)" % (i, j, k), line_no)
            seen.add((i, j, k))
            brackets.setdefault((i - 1, j - 1), {})[k - 1] = coeff
    if dim is None:
        raise AlgebraFileError("missing dim line")
    if signs is None:
        signs = (1,) * dim
    if len(signs) != dim or any(s not in (1, -1) for s in signs):
        raise AlgebraFileError("signs line must list +1/-1 once per dimension")
    try:
        alg = LieAlgebra.from_brackets(dim, brackets)
    except StructureError as exc:
        raise AlgebraFileError(str(exc))
    M = MetricLieAlgebra(alg, signs)
    decomp = None
    if abelian is not None:
        if any(not (0 <= a < dim) for a in abelian):
            raise AlgebraFileError("abelian index out of range")
        decomp = standard_decomposition(M, abelian)
    return M, decomp


def serialize_algebra(M: MetricLieAlgebra, decomp=None, backend: str = "exact") -> str:
    """Canonical text form: sorted bracket rows, '+1'/'-1' signs, 1-based."""
    n = M.dim
    lines = ["dim %d" % n]
    lines.append("signs " + " ".join("+1" if s == 1 else "-1" for s in M.signs))
    for i, j, k, coeff in M.algebra.brackets:
        if i < j:
            lines.append("%d %d %d %s" % (i + 1, j + 1, k + 1, _coeff_str(coeff, backend)))
    if decomp is not None:
        lines.append("abelian: " + ",".join(str(a + 1) for a in decomp.abelian_indices))
    return "\n".join(lines) + "\n"


def _coeff_str(coeff, backend: str) -> str:
    if backend == "float":
        # the shortest round-trip digits, positional: `parse_rational` refuses exponents
        return format(Decimal(repr(to_float(coeff))), "f")
    return format_rational(coeff)


# ---------------------------------------------------------------------------
# scalar serialization
# ---------------------------------------------------------------------------

def to_float(x) -> float:
    """The nearest double to an exact real scalar; ValueError when there is none.

    A rational converts with float(Fraction), which rounds correctly.  A real
    tower value (a + c sqrt(m)) / q is evaluated in `decimal` first, to 40
    digits past the most that a + c sqrt(m) can cancel: twice the digits of
    a, which its bit length exceeds.
    """
    [(a, b, c, d)], q, m = common_numerators([x])
    if b or d:
        raise ValueError("%s is not real and has no float form" % x)
    try:
        if not c:
            v = float(Fraction(a, q))
        else:
            ctx = Context(prec=40 + a.bit_length())
            v = float(ctx.divide(ctx.add(a, ctx.multiply(c, ctx.sqrt(m))), q))
    except ArithmeticError:   # past the double range, or the decimal one
        v = math.inf
    if not math.isfinite(v) or (v == 0 and (a or c)):   # overflow, or a nonzero value read as 0
        raise ValueError("a value does not fit a double; --backend exact answers this input")
    return v


def scalar_json(x, backend: str = "exact"):
    """x as a report writes it: its nearest double on the float backend, else
    p/q, or the parts of a tower value that is not rational."""
    if backend == "float":
        return to_float(x)
    if isinstance(x, TowerScalar) and not x.is_rational:
        return to_dict(x)
    return format_rational(x)


def matrix_json(mat, backend: str = "exact"):
    return [[scalar_json(x, backend) for x in row] for row in mat]


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def _is_halfspace_spec(text: str) -> bool:
    """Whether the first word of text is `halfspace`; a path such as halfspace.alg is no spec."""
    return text.split(None, 1)[:1] == ["halfspace"]


def _load_input(spec_text: str, job: JobSpec):
    """Input is an inline half-space spec, or a path to a file holding one or an algebra."""
    text = spec_text
    if not _is_halfspace_spec(text):
        with open(spec_text, "r", encoding="utf-8") as fh:
            text = fh.read()
    if _is_halfspace_spec(text):
        model = parse_halfspace_spec(text)
        return model.algebra, model.decomposition, model, text
    M, decomp = parse_algebra_text(text)
    return M, decomp, None, text


def _cmd_validate(M, decomp, model, job):
    violations = jacobi_check(M.algebra)
    dims, nilpotent = (None, None)
    if not violations:
        dims, nilpotent = lower_central_series(M.algebra)
    results = {
        "jacobi_violations": [[i + 1, j + 1, k + 1] for i, j, k in violations],
        "lower_central_series": dims,
        "nilpotent": nilpotent,
        "canonical_form": serialize_algebra(M, decomp, job.backend) if not violations else None,
    }
    ok = not violations
    return results, ok


def _cmd_curvature(M, decomp, model, job):
    data = M.ricci_data
    backend = job.backend
    lam = einstein_check(M)
    return {
        "connection": [[i + 1, j + 1, k + 1, scalar_json(val, backend)] for i, j, k, val in M.connection],
        "ricci": matrix_json(data.ric, backend),
        "scalar_curvature": scalar_json(data.scalar, backend),
        "einstein": None if lam is None else scalar_json(lam, backend),
    }, True


def _cmd_nilsoliton(M, decomp, model, job):
    res = nilsoliton_solve(M)
    if res is None:
        return {"nilsoliton": None}, True
    return {
        "nilsoliton": {
            "lambda": scalar_json(res.lam, job.backend),
            "derivation": matrix_json(res.derivation, job.backend),
        }
    }, True


def _cmd_extend(M, decomp, model, job):
    ext, dec, lam = einstein_extension(M, eps0=job.eps0)
    m = next((x.radicand for *_, x in ext.algebra.brackets if isinstance(x, TowerScalar) and x.radicand), None)
    if m is not None and job.backend == "exact":
        raise ValueError("the Einstein extension needs sqrt(%d): its scaling is irrational, "
                         "and the .alg format cannot write it" % m)
    text = serialize_algebra(ext, dec, job.backend)
    if job.out_path:
        with open(job.out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return {
        "einstein_lambda": scalar_json(lam, job.backend),
        "extended_dim": ext.dim,
        "extended_algebra": text,
    }, True


def _cmd_killing_invariant(M, decomp, model, job):
    rep = build_gammas(M.signs)
    report = solve_invariant_killing(M, rep)
    return {"killing": report.to_json_dict()}, True


def _cmd_killing_halfspace(M, decomp, model, job):
    if model is None:
        raise AlgebraFileError("killing-halfspace needs a half-space model spec")
    rep = model.clifford_rep()
    cands = lambda_candidates(model.algebra)
    out = []
    for c in cands:
        sols = solve_killing_halfspace(model, rep, c.lam, job.kmax, job.mmax)
        residual_ok = all(
            all(r.is_zero for r in killing_residual(model, rep, s, c.lam)) for s in sols)
        amended_ok = all(verify_amended_identity(model, rep, s, c.lam) for s in sols)
        out.append({
            "branch": c.branch,
            "lambda": to_dict(c.lam),
            "dimension": len(sols),
            "residual_zero": residual_ok,
            "amended_identity": amended_ok,
            "solutions": [s.to_json_dict() for s in sols],
        })
    return {
        "model": {"n": model.n, "r": format_rational(model.r), "signs": list(model.signs)},
        "degree_bounds": {"kmax": job.kmax, "mmax": job.mmax},
        "branches": out,
        "combined_dimension": sum(b["dimension"] for b in out),
    }, True


def _cmd_classify(M, decomp, model, job):
    if decomp is None:
        raise AlgebraFileError("classify needs a decomposition ('abelian:' line or half-space spec)")
    report = classify_pseudo_iwasawa(M, decomp)
    return {"classification": report.to_json_dict()}, True


_IMPLS = {
    "validate": _cmd_validate,
    "curvature": _cmd_curvature,
    "nilsoliton": _cmd_nilsoliton,
    "extend": _cmd_extend,
    "killing-invariant": _cmd_killing_invariant,
    "killing-halfspace": _cmd_killing_halfspace,
    "classify": _cmd_classify,
}


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# errors reported by message alone; any other exception also names its type
_INPUT_ERRORS = (AlgebraFileError, StructureError, ValueError, OSError)


def run_single(job: JobSpec, input_spec: str) -> tuple[dict, int]:
    started = time.perf_counter()
    report = {
        "schema": SCHEMA_VERSION,
        "command": job.command,
        "input": input_spec,
        "backend": job.backend,
    }
    if job.command in EXACT_ONLY and job.backend != "exact":
        report["error"] = "%s requires the exact backend" % job.command
        report["timing_ms"] = _elapsed(started)
        return report, 1
    try:
        M, decomp, model, text = _load_input(input_spec, job)
        report["digest"] = _digest(text)
        results, ok = _IMPLS[job.command](M, decomp, model, job)
        report["results"] = results
        report["timing_ms"] = _elapsed(started)
        return report, 0 if ok else 1
    except Exception as exc:  # a failure stays with its own item; a batch goes on
        report["error"] = str(exc)
        if not isinstance(exc, _INPUT_ERRORS):
            report["error_type"] = type(exc).__name__
        report["timing_ms"] = _elapsed(started)
        return report, 1


def _elapsed(started: float) -> float:
    return round((time.perf_counter() - started) * 1000.0, 3)


def run(job: JobSpec) -> tuple[dict, int]:
    """Execute a JobSpec; returns (report dict, exit code)."""
    if job.command not in COMMANDS:
        return {"schema": SCHEMA_VERSION, "error": "unknown command %r" % job.command}, 2
    inputs = list(job.inputs)
    if len(inputs) == 1 and os.path.isdir(inputs[0]):
        if job.out_path:
            # every item would write the one file, and only the last would survive
            return {"schema": SCHEMA_VERSION, "command": job.command,
                    "error": "--out writes one file, so it takes one input, not the directory %s"
                             % inputs[0]}, 2
        inputs = sorted(
            os.path.join(inputs[0], name)
            for name in os.listdir(inputs[0])
            if name.endswith(".alg")
        )
        items = []
        codes = []
        worst = 0
        for path in inputs:
            rep, code = run_single(job, path)
            items.append(rep)
            codes.append(code)
            worst = max(worst, code)
        summary = {
            "total": len(items),
            "succeeded": sum(1 for c in codes if c == 0),
            "failed": sum(1 for c in codes if c != 0),
        }
        return {
            "schema": SCHEMA_VERSION,
            "command": job.command,
            "batch": items,
            "summary": summary,
            "backend": job.backend,
        }, worst
    if len(inputs) == 1:
        return run_single(job, inputs[0])
    # inline half-space spec given as separate shell tokens
    return run_single(job, " ".join(inputs))


# ---------------------------------------------------------------------------
# text rendering and entry point
# ---------------------------------------------------------------------------

def _render_text(report: dict) -> str:
    lines = []
    if "batch" in report:
        for item in report["batch"]:
            lines.append(_render_text(item))
        s = report["summary"]
        lines.append("batch: %d total, %d ok, %d failed" % (s["total"], s["succeeded"], s["failed"]))
        return "\n".join(lines)
    lines.append("command: %s (%s backend)" % (report.get("command"), report.get("backend")))
    if "input" in report:
        lines.append("input: %s" % report["input"])
    if "error" in report:
        lines.append("error: %s" % report["error"])
        return "\n".join(lines)
    results = report.get("results", {})
    if "jacobi_violations" in results:
        v = results["jacobi_violations"]
        lines.append("jacobi: %s" % ("ok" if not v else "violations %s" % v))
        if results.get("lower_central_series") is not None:
            lines.append("lower central series: %s (nilpotent: %s)"
                         % (results["lower_central_series"], results["nilpotent"]))
    if "scalar_curvature" in results:
        lines.append("ricci: %s" % results["ricci"])
        lines.append("scalar curvature: %s" % results["scalar_curvature"])
        lines.append("einstein: %s" % results["einstein"])
    if "nilsoliton" in results:
        lines.append("nilsoliton: %s" % json.dumps(results["nilsoliton"]))
    if "einstein_lambda" in results:
        lines.append("einstein extension with lambda = %s" % results["einstein_lambda"])
        lines.append(results["extended_algebra"].rstrip())
    if "killing" in results:
        for c in results["killing"]["candidates"]:
            lines.append("lambda branch %+d: invariant kernel dim %d, ricci filter dim %d"
                         % (c["branch"], c["kernel_dimension"], c["ricci_filter_dimension"]))
        if not results["killing"]["candidates"]:
            lines.append("no lambda candidates (scalar curvature is zero)")
    if "branches" in results:
        for b in results["branches"]:
            lines.append("lambda branch %+d: dimension %d (residual zero: %s, amended identity: %s)"
                         % (b["branch"], b["dimension"], b["residual_zero"], b["amended_identity"]))
        lines.append("combined dimension: %d" % results["combined_dimension"])
    if "classification" in results:
        v = results["classification"]["verdict"]
        txt = v["kind"]
        if v.get("reason"):
            txt += ": " + v["reason"]
        if v.get("r"):
            txt += " (r = %s)" % v["r"]
        lines.append("verdict: %s" % txt)
        for c in results["classification"]["checks"]:
            lines.append("  check %-18s %s" % (c["name"], "pass" if c["passed"] else "FAIL"))
    return "\n".join(lines)


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; `parse_args` keeps no state.

    The `lru_cache` holds that one parser, since there is no object to hang
    a `cached_property` on: building it costs about as much as a small
    command, and a process that calls `main` many times in-process builds it
    once.
    """
    parser = argparse.ArgumentParser(
        prog="solvspin",
        description="Exact toolkit for pseudo-Riemannian solvmanifolds and Killing spinors.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("inputs", nargs="+",
                        help="algebra file, directory of .alg files, or inline 'halfspace n=.. r=.. signs=..'")
    parser.add_argument("--json", action="store_true", help="emit the JSON report")
    parser.add_argument("--backend", choices=("exact", "float"), default="exact")
    parser.add_argument("--eps0", type=int, choices=(1, -1), default=None)
    parser.add_argument("--kmax", type=int, default=1)
    parser.add_argument("--mmax", type=int, default=1)
    parser.add_argument("--out", dest="out_path", default=None,
                        help="write the extended algebra file here (extend command)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    job = JobSpec(
        command=args.command,
        inputs=tuple(args.inputs),
        output_format="json" if args.json else "text",
        backend=args.backend,
        eps0=args.eps0,
        kmax=args.kmax,
        mmax=args.mmax,
        out_path=args.out_path,
    )
    try:
        report, code = run(job)
    except Exception as exc:  # internal error contract: exit 2
        print("internal error: %s" % exc, file=sys.stderr)
        return 2
    if job.output_format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(_render_text(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
