"""The four workloads: their inputs, the calls a user waits for, and the checks.

A workload is a fixed cycle of items.  `Item.call` is the timed part, one call
a user waits for; `Item.check` runs afterwards, untimed, and returns None or
(kind, reason) with kind "wrong" (the program answered, and the answer is
false) or "failed" (the program gave no answer where one exists).  Checks rest
on theory or on re-substitution in `oracles`, never on earlier program output.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import io
import itertools
import json
import os
import random
import re
from fractions import Fraction

import solvspin.cli as cli
import solvspin.clifford as clifford
import solvspin.halfspace as halfspace
import solvspin.killing as killing
import solvspin.liealg as liealg
from solvspin.exact import TowerScalar, sqrt_to_tower

import inputs
import oracles as O

F = Fraction


_TIMING = re.compile(r'"timing_ms": [-+.0-9e]+')


class CliRun(tuple):
    """(exit code, stdout, stderr) of one in-process `solvspin.cli.main` call."""

    @property
    def report_bytes(self):
        """Size of the report with its timing_ms values blanked, so it repeats."""
        return len(_TIMING.sub('"timing_ms": 0', self[1]).encode("utf-8"))


Item = collections.namedtuple("Item", "key call check")


class Workload:
    """`cycle()` yields the items of one pass; every pass repeats the same work."""

    def __init__(self, name, cycle):
        self.name = name
        self.cycle = cycle

    def warmup(self):
        """Run the first item of a cycle untimed, unchecked."""
        self.cycle().__next__().call()


def build(name, seed, workdir):
    rng = random.Random("%s:%d" % (name, seed))
    return WORKLOAD_FACTORIES[name](rng, workdir)


def _wrong(reason):
    return ("wrong", reason)


def _failed(reason):
    return ("failed", reason)


def _tower(j):
    """A scalar from its JSON form: 'p/q' or a TowerScalar dict."""
    if isinstance(j, dict):
        return TowerScalar.from_dict(j)
    return F(j)


def _eq(a, b):
    return (a - b) == 0


# ---------------------------------------------------------------------------
# cli-batch
# ---------------------------------------------------------------------------

# random corpus slots (shape, extension kind): dims 3-6, every outcome of
# `extend`, including the irrational scalings it cannot write
CLI_RANDOM_SLOTS = (
    ("heis3", "ext"), ("heis3R", "irr"), ("fil4", "none"), ("fil4", "irr"),
    ("heis5", "ext"), ("heis5", "none"), ("fil5", "none"), ("h3h3", "irr"),
    ("h3h3", "none"), ("heis5R", "none"),
)
CLI_HALFSPACE = ((2, 1), (3, -1), (3, 1), (4, -1))     # (n, eps_t)
CLI_FLOAT_SLICE = ("heis3", "heis3-lorentz", "heis5", "fil4", "fil5")


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliRun((code, out.getvalue(), err.getvalue()))


def _cli_report(result, want_ok=True):
    """(report, problem) for a captured CLI run."""
    code, out, err = result
    if code == 2:
        return None, _failed("exit 2: %s" % err.strip())
    report = json.loads(out)
    if want_ok and code != 0:
        return report, _failed("exit %d: %s" % (code, report.get("error", err.strip())))
    return report, None


class AlgebraFacts:
    """Oracle values for one algebra, computed once on first use."""

    def __init__(self, dim, signs, brackets):
        self.dim = dim
        self.signs = tuple(signs)
        self.c = O.structure_from_brackets(dim, brackets)

    @functools.cached_property
    def ric(self):
        return O.ricci_form(self.c, self.signs)

    @functools.cached_property
    def nilsoliton(self):
        return O.nilsoliton(self.c, self.signs)

    @property
    def scalar(self):
        return O.scalar_curvature(self.ric, self.signs)


def _check_validate(facts):
    def check(result):
        report, problem = _cli_report(result)
        if problem:
            return problem
        res = report["results"]
        if res["jacobi_violations"] or res["nilpotent"] is not True:
            return _wrong("nilpotent algebra reported as %s" % res)
        dims = O.lower_central_dims(facts.c, facts.dim)
        if res["lower_central_series"] != dims:
            return _wrong("lower central series %s, expected %s" % (res["lower_central_series"], dims))
        dim, signs, brackets, _ = O.parse_alg(res["canonical_form"])
        if (dim, signs) != (facts.dim, facts.signs) or \
                O.structure_from_brackets(dim, brackets) != facts.c:
            return _wrong("canonical form does not describe the input algebra")
        return None
    return check


def _check_curvature(facts, float_backend=False, want_einstein=False):
    def check(result):
        report, problem = _cli_report(result)
        if problem:
            return problem
        res = report["results"]
        n, eps = facts.dim, facts.signs
        if float_backend:
            for i in range(n):
                for j in range(n):
                    got, want = res["ricci"][i][j], float(facts.ric[i][j])
                    if abs(got - want) > 1e-9 * max(1.0, abs(want)):
                        return _wrong("float ric[%d][%d] = %r, exact %s" % (i, j, got, facts.ric[i][j]))
            return None
        for i in range(n):
            for j in range(n):
                if not _eq(_tower(res["ricci"][i][j]), facts.ric[i][j]):
                    return _wrong("ric[%d][%d] = %s, expected %s" % (i, j, res["ricci"][i][j], facts.ric[i][j]))
        if not _eq(_tower(res["scalar_curvature"]), facts.scalar):
            return _wrong("scalar curvature %s, expected %s" % (res["scalar_curvature"], facts.scalar))
        lam = O.einstein_constant(facts.ric, eps)
        got = res["einstein"]
        if (got is None) != (lam is None) or (lam is not None and not _eq(_tower(got), lam)):
            return _wrong("einstein %s, expected %s" % (got, lam))
        if want_einstein and lam is None:
            return _wrong("extension is not Einstein")
        # re-substitute the connection: torsion-free and metric-compatible
        gamma = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
        for i, j, k, v in res["connection"]:
            gamma[i - 1][j - 1][k - 1] = _tower(v)
        for i, j, k in itertools.product(range(n), repeat=3):
            if not _eq(gamma[i][j][k] - gamma[j][i][k], facts.c[i][j][k]):
                return _wrong("connection has torsion at (%d, %d, %d)" % (i + 1, j + 1, k + 1))
            if not _eq(gamma[i][j][k] * eps[k] + gamma[i][k][j] * eps[j], 0):
                return _wrong("connection is not metric at (%d, %d, %d)" % (i + 1, j + 1, k + 1))
        return None
    return check


def _check_nilsoliton(facts, label, float_backend=False):
    def check(result):
        report, problem = _cli_report(result)
        if problem:
            return problem
        got = report["results"]["nilsoliton"]
        want = facts.nilsoliton
        if want is None or got is None:
            if (want is None) != (got is None):
                return _wrong("nilsoliton %s, expected %s" % (got, want))
            return None
        lam, D = want
        if label == "heis3" and (lam != F(-3, 2) or D != [[1, 0, 0], [0, 1, 0], [0, 0, 2]]):
            return _wrong("heis3 must give lambda = -3/2, D = diag(1, 1, 2)")
        if float_backend:
            close = abs(got["lambda"] - float(lam)) <= 1e-9 and all(
                abs(got["derivation"][p][q] - float(D[p][q])) <= 1e-9
                for p in range(facts.dim) for q in range(facts.dim))
            return None if close else _wrong("float nilsoliton %s, exact %s" % (got, want))
        if not _eq(_tower(got["lambda"]), lam):
            return _wrong("lambda %s, expected %s" % (got["lambda"], lam))
        Dg = [[_tower(x) for x in row] for row in got["derivation"]]
        if any(not _eq(Dg[p][q], D[p][q]) for p in range(facts.dim) for q in range(facts.dim)):
            return _wrong("D is not Ric - lambda I")
        if not O.is_derivation(facts.c, Dg):
            return _wrong("D is not a derivation")
        return None
    return check


def _check_extend(facts, out_path):
    def check(result):
        want = facts.nilsoliton
        code = result[0]
        report, problem = _cli_report(result, want_ok=False)
        if problem:
            return problem
        if want is None:
            if code == 1 and "not a nilsoliton" in report.get("error", ""):
                return None
            return _wrong("extend of a non-nilsoliton gave exit %d" % code)
        lam, D = want
        trD = sum((D[i][i] for i in range(facts.dim)), F(0))
        if trD == 0:
            return None if code == 1 else _wrong("extension with Tr D = 0 reported")
        if code != 0:
            return _failed("extension exists (nilsoliton lambda = %s, Tr D = %s) but extend exited %d: %s"
                           % (lam, trD, code, report.get("error")))
        text = report["results"]["extended_algebra"]
        with open(out_path, encoding="utf-8") as fh:
            if fh.read() != text:
                return _wrong("--out file differs from the reported algebra")
        dim, signs, brackets, abelian = O.parse_alg(text)
        n = facts.dim
        if dim != n + 1 or signs[:n] != facts.signs or abelian != (n,):
            return _wrong("extension has the wrong frame")
        c = O.structure_from_brackets(dim, brackets)
        if any(c[i][j][:n] != facts.c[i][j] for i in range(n) for j in range(n)):
            return _wrong("extension changes the nilpotent brackets")
        D_ext = [[-c[j][n][k] for j in range(n)] for k in range(n)]
        if not O.is_derivation(facts.c, D_ext):
            return _wrong("the new direction does not act by a derivation")
        ric = O.ricci_form(c, signs)
        lam_e = O.einstein_constant(ric, signs)
        if lam_e is None or not _eq(_tower(report["results"]["einstein_lambda"]), lam_e):
            return _wrong("extension is not Einstein with the reported constant")
        return None
    return check


def _check_classify_ext(result):
    report, problem = _cli_report(result)
    if problem:
        return problem
    v = report["results"]["classification"]["verdict"]
    if v["kind"] != "NoKillingSpinor" or v.get("reason") != "g non-abelian":
        return _wrong("verdict %s; a non-abelian nilradical gives NoKillingSpinor: g non-abelian" % v)
    return None


def _check_killing_invariant(n, N, scalar, lam_sq=None):
    """Two candidates, empty kernels, 4 n (n-1) lambda^2 = s."""
    def check_report(killing_json):
        cands = killing_json["candidates"]
        if len(cands) != 2:
            return _wrong("%d lambda candidates, expected 2" % len(cands))
        for cand in cands:
            if cand["kernel_dimension"] != 0 or cand["basis"]:
                return _wrong("invariant kernel of dimension %d, expected empty" % cand["kernel_dimension"])
            lam = _tower(cand["lambda"])
            if not _eq(lam * lam * (4 * n * (n - 1)), scalar):
                return _wrong("lambda %s violates s = 4n(n-1) lambda^2" % lam)
            if lam_sq is not None and not _eq(lam * lam, lam_sq):
                return _wrong("lambda^2 = %s, expected %s" % (lam * lam, lam_sq))
            if not 0 <= cand["ricci_filter_dimension"] <= N:
                return _wrong("ricci filter dimension out of range")
        return None
    return check_report


def _rank_over_qi(values):
    """Rank over Q(i) of spinor values; -1 if a value leaves Q(i)."""
    vectors = [[O.gaussian(x) for x in vec] for vec in values]
    if any(g is None for vec in vectors for g in vec):
        return -1
    return O.gaussian_rank(vectors) if vectors else 0


def _json_values_at_origin(solutions_json, N):
    """Each solution's value at t = 1, x = 0, from the CLI's JSON form."""
    return [[sum((TowerScalar.from_dict(coeff) for key, coeff in sol["u_%d" % h].items()
                  if ";x" not in key), TowerScalar.rational(0)) for h in range(N)]
            for sol in solutions_json]


def _values_at_origin(fields):
    """Each CoordSpinorField's value at t = 1, x = 0."""
    return [[sum((coeff for (k, m), coeff in comp.terms.items() if not any(m)),
                 TowerScalar.rational(0)) for comp in psi.components]
            for psi in fields]


def _halfspace_lam_sq(signs, r):
    return F(-signs[-1]) / (4 * r * r)


def _check_halfspace_cli(signs, r):
    n, N = len(signs), 2 ** (len(signs) // 2)

    def check(result):
        report, problem = _cli_report(result)
        if problem:
            return problem
        res = report["results"]
        if len(res["branches"]) != 2:
            return _wrong("%d branches, expected 2" % len(res["branches"]))
        for b in res["branches"]:
            lam = _tower(b["lambda"])
            if not _eq(lam * lam, _halfspace_lam_sq(signs, r)):
                return _wrong("branch lambda %s" % lam)
            problem = _halfspace_dims(signs, N, b["dimension"], b["residual_zero"],
                                      b["amended_identity"], _rank_over_qi(_json_values_at_origin(b["solutions"], N)))
            if problem:
                return problem
        return None
    return check


def _halfspace_dims(signs, N, dim, residual_ok, amended_ok, eval_rank):
    if not residual_ok:
        return _wrong("Killing residual is not zero")
    if not amended_ok:
        return _wrong("amended identity fails")
    if dim > N:
        return _wrong("%d solutions exceed the spinor dimension %d" % (dim, N))
    if eval_rank != dim:
        return _wrong("values at t=1, x=0 have rank %d < %d solutions" % (eval_rank, dim))
    if all(s == 1 for s in signs) and dim != N:
        return _wrong("Riemannian H^n has %d Killing spinors per branch, found %d" % (N, dim))
    return None


def _check_halfspace_classify(signs, r):
    def check(result):
        report, problem = _cli_report(result)
        if problem:
            return problem
        v = report["results"]["classification"]["verdict"]
        if v["kind"] != "HyperbolicHalfSpace" or F(v["r"]) != r or tuple(v["epsilon"]) != tuple(signs):
            return _wrong("verdict %s, expected HyperbolicHalfSpace with r = %s" % (v, r))
        return None
    return check


def _check_halfspace_invariant(signs, r):
    n, N = len(signs), 2 ** (len(signs) // 2)
    lam_sq = _halfspace_lam_sq(signs, r)
    inner = _check_killing_invariant(n, N, lam_sq * 4 * n * (n - 1), lam_sq)

    def check(result):
        report, problem = _cli_report(result)
        return problem or inner(report["results"]["killing"])
    return check


def _check_ext_invariant(ext_path, n_base):
    n = n_base + 1

    def check(result):
        report, problem = _cli_report(result)
        if problem:
            return problem
        with open(ext_path, encoding="utf-8") as fh:
            dim, signs, brackets, _ = O.parse_alg(fh.read())
        facts = AlgebraFacts(dim, signs, brackets)
        return _check_killing_invariant(n, 2 ** (n // 2), facts.scalar)(report["results"]["killing"])
    return check


def build_cli_batch(rng, workdir):
    corpus = [inputs.named_algebra(label) for label in inputs.NAMED]
    corpus += [inputs.random_algebra(rng, shape, kind, "rand%d-%s" % (q, shape))
               for q, (shape, kind) in enumerate(CLI_RANDOM_SLOTS)]
    entries = []
    for alg in corpus:
        path = os.path.join(workdir, alg.label + ".alg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(alg.text())
        entries.append((alg, path, AlgebraFacts(alg.dim, alg.signs, alg.brackets)))
    specs = [inputs.random_halfspace(rng, n, eps_t) for n, eps_t in CLI_HALFSPACE]

    def cycle():
        ext_items = []
        for alg, path, facts in entries:
            yield Item("validate %s" % alg.label, lambda p=path: _run_cli(["validate", p, "--json"]),
                       _check_validate(facts))
            yield Item("curvature %s" % alg.label, lambda p=path: _run_cli(["curvature", p, "--json"]),
                       _check_curvature(facts))
            yield Item("nilsoliton %s" % alg.label, lambda p=path: _run_cli(["nilsoliton", p, "--json"]),
                       _check_nilsoliton(facts, alg.label))
            ext = path[:-4] + ".ext.alg"
            if os.path.exists(ext):
                os.remove(ext)
            yield Item("extend %s" % alg.label,
                       lambda p=path, e=ext: _run_cli(["extend", p, "--json", "--out", e]),
                       _check_extend(facts, ext))
            if os.path.exists(ext):
                ext_items.append((alg, ext))
        for alg, ext in ext_items:
            with open(ext, encoding="utf-8") as fh:
                dim, signs, brackets, _ = O.parse_alg(fh.read())
            ext_facts = AlgebraFacts(dim, signs, brackets)
            yield Item("curvature %s.ext" % alg.label, lambda e=ext: _run_cli(["curvature", e, "--json"]),
                       _check_curvature(ext_facts, want_einstein=True))
            yield Item("classify %s.ext" % alg.label, lambda e=ext: _run_cli(["classify", e, "--json"]),
                       _check_classify_ext)
            yield Item("killing-invariant %s.ext" % alg.label,
                       lambda e=ext: _run_cli(["killing-invariant", e, "--json"]),
                       _check_ext_invariant(ext, alg.dim))
        for signs, r in specs:
            spec = inputs.halfspace_spec(signs, r)
            yield Item("classify " + spec, lambda s=spec: _run_cli(["classify", s, "--json"]),
                       _check_halfspace_classify(signs, r))
            yield Item("killing-invariant " + spec,
                       lambda s=spec: _run_cli(["killing-invariant", s, "--json"]),
                       _check_halfspace_invariant(signs, r))
            yield Item("killing-halfspace " + spec,
                       lambda s=spec: _run_cli(["killing-halfspace", s, "--json",
                                                "--kmax", "1", "--mmax", "1"]),
                       _check_halfspace_cli(signs, r))
        for alg, path, facts in entries:
            if alg.label not in CLI_FLOAT_SLICE:
                continue
            yield Item("curvature --backend float %s" % alg.label,
                       lambda p=path: _run_cli(["curvature", p, "--json", "--backend", "float"]),
                       _check_curvature(facts, float_backend=True))
            yield Item("nilsoliton --backend float %s" % alg.label,
                       lambda p=path: _run_cli(["nilsoliton", p, "--json", "--backend", "float"]),
                       _check_nilsoliton(facts, alg.label, float_backend=True))

    return Workload("cli-batch", cycle)


# ---------------------------------------------------------------------------
# clifford-sweep
# ---------------------------------------------------------------------------

CLIFFORD_MAX_N = 7
CLIFFORD_EXTRAS_MAX_N = 6


def build_clifford_sweep(rng, workdir):
    cases = []
    for n in range(1, CLIFFORD_MAX_N + 1):
        for signs in itertools.product((1, -1), repeat=n):
            extras = None
            if n <= CLIFFORD_EXTRAS_MAX_N:
                f = inputs.random_metric_symmetric(rng, signs)
                psi = inputs.random_spinor(rng, 2 ** (n // 2), TowerScalar)
                extras = (f, inputs.raised(signs, f), psi)
            cases.append((signs, extras))

    def call(signs, extras):
        rep = clifford.build_gammas(signs)
        violations = clifford.clifford_violations(rep)
        if extras is None:
            return rep, violations, None, None
        _, T, psi = extras
        return (rep, violations, clifford.two_tensor_action(rep, T),
                clifford.symmetric_commutant_kernel(rep, psi))

    def check(signs, extras, result):
        rep, violations, action, kernel = result
        n, N = len(signs), 2 ** (len(signs) // 2)
        if violations:
            return _failed("clifford_violations reports %s" % violations)
        if len(rep.gammas) != n or rep.spinor_dim != N:
            return _wrong("%d gammas of size %d, expected %d of size %d" % (len(rep.gammas), rep.spinor_dim, n, N))
        bad = O.clifford_relation_failures(rep.gammas, signs)
        if bad:
            return _wrong("gamma_a gamma_b + gamma_b gamma_a != -2 eps_a delta_ab I at %s" % bad[:3])
        if extras is None:
            return None
        f, _, psi = extras
        tr = sum((f[i][i] for i in range(n)), F(0))
        for i in range(N):
            for j in range(N):
                if not _eq(action[i][j], -tr if i == j else 0):
                    return _wrong("raised symmetric f does not act as -Tr(f) I")
        v_dim = O.annihilator_dim(rep.gammas, psi)
        if kernel.v_psi_dimension != v_dim:
            return _wrong("dim V_psi = %d, expected %d" % (kernel.v_psi_dimension, v_dim))
        if kernel.is_identity_only != (v_dim == 0):
            return _wrong("commutant is {id} iff V_psi = 0 fails (dim V_psi = %d)" % v_dim)
        return None

    def cycle():
        for signs, extras in cases:
            yield Item("signature %s" % "".join("+" if s > 0 else "-" for s in signs),
                       lambda s=signs, e=extras: call(s, e),
                       lambda res, s=signs, e=extras: check(s, e, res))

    return Workload("clifford-sweep", cycle)


# ---------------------------------------------------------------------------
# invariant-solve
# ---------------------------------------------------------------------------

# half-space dimension -> models per cycle, half with eps_t = +1, half -1
INVARIANT_HALFSPACE = {4: 4, 5: 4, 6: 10, 7: 4, 8: 3, 9: 3}
# catalog nilsolitons whose Einstein extension stays inside one Q(i)(sqrt m)
INVARIANT_EXTENSIONS = ("heis3", "heis3-lorentz", "heis5")


def build_invariant_solve(rng, workdir):
    cases = []
    for n, count in INVARIANT_HALFSPACE.items():
        for q in range(count):
            signs, r = inputs.random_halfspace(rng, n, (1, -1)[q % 2])
            model = halfspace.HalfSpaceModel(n, signs, r)
            lam_sq = _halfspace_lam_sq(signs, r)
            cases.append(("halfspace %s" % inputs.halfspace_spec(signs, r), model.algebra,
                          clifford.build_gammas(signs), lam_sq * 4 * n * (n - 1), lam_sq))
    for label in INVARIANT_EXTENSIONS:
        alg = inputs.scaled_copy(rng, inputs.named_algebra(label))
        M = liealg.MetricLieAlgebra(liealg.LieAlgebra.from_brackets(alg.dim, alg.brackets), alg.signs)
        ext, _, _ = liealg.einstein_extension(M)
        c = [[list(row) for row in plane] for plane in ext.algebra.structure]
        s = O.scalar_curvature(O.ricci_form(c, ext.signs), ext.signs)
        cases.append(("einstein extension of %s" % label, ext, clifford.build_gammas(ext.signs), s, None))

    def cycle():
        for key, M, rep, s, lam_sq in cases:
            n = M.dim
            inner = _check_killing_invariant(n, rep.spinor_dim, s, lam_sq)
            yield Item(key, lambda M=M, rep=rep: killing.solve_invariant_killing(M, rep),
                       lambda report, inner=inner: inner(report.to_json_dict()))

    return Workload("invariant-solve", cycle)


# ---------------------------------------------------------------------------
# halfspace-solve
# ---------------------------------------------------------------------------

# dimension -> models per cycle, eps_t alternating from +1; each model gives
# 2 branches x windows 1 and 2.  The radius is fixed: the seed draws signatures.
HALFSPACE_MODELS = {3: 9, 4: 4, 5: 11, 6: 1}
HALFSPACE_RADIUS = F(2, 3)
HALFSPACE_WINDOWS = (1, 2)


def _solve_and_certify(model, rep, lam, window):
    """What `solvspin killing-halfspace` does per branch: solve the window,
    then put every solution through the residual and the amended identity."""
    sols = halfspace.solve_killing_halfspace(model, rep, lam, window, window)
    residual_ok = all(all(res.is_zero for res in halfspace.killing_residual(model, rep, psi, lam))
                      for psi in sols)
    amended_ok = all(halfspace.verify_amended_identity(model, rep, psi, lam) for psi in sols)
    return sols, residual_ok, amended_ok


def build_halfspace_solve(rng, workdir):
    units = []
    for n, count in HALFSPACE_MODELS.items():
        for q in range(count):
            signs, r = inputs.random_halfspace(rng, n, (1, -1)[q % 2], HALFSPACE_RADIUS)
            model = halfspace.HalfSpaceModel(n, signs, r)
            rep = model.clifford_rep()
            root = sqrt_to_tower(_halfspace_lam_sq(signs, r))
            for lam in (root, -root):
                units.append((inputs.halfspace_spec(signs, r), model, rep, lam))

    def check(model, window, dims, result):
        sols, residual_ok, amended_ok = result
        problem = _halfspace_dims(model.signs, 2 ** (model.n // 2), len(sols), residual_ok,
                                  amended_ok, _rank_over_qi(_values_at_origin(sols)))
        if problem:
            return problem
        dims[window] = len(sols)
        first = HALFSPACE_WINDOWS[0]
        if window != first and dims.get(first) != len(sols):
            return _wrong("saturation: window %d gives %d solutions, window %d gave %s"
                          % (window, len(sols), first, dims.get(first)))
        return None

    def cycle():
        for spec, model, rep, lam in units:
            dims = {}
            for w in HALFSPACE_WINDOWS:
                yield Item("%s lambda=%s k=m=%d" % (spec, lam, w),
                           lambda m=model, rep=rep, lam=lam, w=w: _solve_and_certify(m, rep, lam, w),
                           lambda res, m=model, w=w, d=dims: check(m, w, d, res))

    return Workload("halfspace-solve", cycle)


WORKLOAD_FACTORIES = {
    "cli-batch": build_cli_batch,
    "clifford-sweep": build_clifford_sweep,
    "invariant-solve": build_invariant_solve,
    "halfspace-solve": build_halfspace_solve,
}
