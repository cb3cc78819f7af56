"""Mutation gate: each mutant below must make its tests fail.

A mutant is (name, file under src/solvspin, exact old text, new text, pytest
node ids).  For each one the package is copied to a temporary directory, the
old text, which occurs exactly once, is replaced, and the node ids are run in
a subprocess against that copy.  A mutant whose tests still pass survives.
Before the mutants, the union of their node ids is run once against an
unchanged copy, so a test that fails anyway or is not found counts as an
error, not as a kill.  Only pytest's exit code 1 (tests failed) is a kill.

    python3 tests/mutants.py

exits 0 when every mutant is killed and 1 otherwise.  Stdlib and pytest only.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HS = "tests/test_halfspace.py::"
CL = "tests/test_clifford.py::"
KI = "tests/test_killing.py::"
LA = "tests/test_linalg.py::"
LI = "tests/test_liealg.py::"
EX = "tests/test_exact.py::"
RR = "tests/test_rational_rule.py::"

MUTANTS = [
    ("window: the outside-pivot test dropped", "halfspace.py",
     "        if max(vec)[0]:\n            break\n", "",
     [HS + "TestWindowAssembly::test_construction_matches_window_elimination"]),
    ("branch: the Einstein test forced true", "halfspace.py",
     "einstein = lam * lam == Fraction(-self.signs[-1]) / (4 * self.r * self.r)", "einstein = True",
     [HS + "TestIntegerCertificates"]),
    ("construction: the fewer-than-N check dropped", "halfspace.py",
     "    if len(spinors) < N:\n", "    if False:\n",
     [HS + "TestConstructionMutants::test_a_dropped_v_fails_the_count"]),
    ("residual: the zero test reads only the first integer", "halfspace.py",
     "for mono, x in sums.items() if any(x)}", "for mono, x in sums.items() if x[0]}",
     [HS + "TestResidual::test_half_power_solution_and_sign_pairing"]),
    ("identity: the zero test reads only the first integer", "halfspace.py",
     "            if any(map(any, acc.values())):\n", "            if any(x[0] for x in acc.values()):\n",
     [HS + "TestTamperedSolutions"]),
    ("residual: the derivative term dropped", "halfspace.py",
     "acc = [_derivative(mine, i, n, step) if mine else {} for mine in terms]", "acc = [{} for mine in terms]",
     [HS + "TestModel::test_one_levi_civita_per_model"]),
    ("identity: the derivative term dropped", "halfspace.py",
     "            acc = _derivative(phi_psi[h], i, n, step)\n", "            acc = {}\n",
     [HS + "TestModel::test_one_levi_civita_per_model"]),
    ("residual: the row term dropped", "halfspace.py",
     "for h, entry in cols.get(j, ()):", "for h, entry in ():",
     [HS + "TestModel::test_one_levi_civita_per_model"]),
    ("identity: gamma_i read with the conjugate unit", "halfspace.py",
     "_add_into(acc, mono, rotations[q])", "_add_into(acc, mono, rotations[-q])",
     [HS + "TestModel::test_one_levi_civita_per_model"]),
    ("derivative: the x-factor without its 2", "halfspace.py",
     "f = 2 * e * step", "f = e * step",
     [HS + "TestModel::test_one_levi_civita_per_model"]),
    ("residual: the product without its w-part", "exact.py",
     "return (a1 * a2 - b1 * b2 + m * (c1 * c2 - d1 * d2), a1 * b2", "return (a1 * a2 - b1 * b2, a1 * b2",
     [HS + "TestIntegerCertificates::test_a_root_of_two_takes_the_w_part"]),
    ("residual: psi's radicand ignored", "halfspace.py",
     "    m = _common_radicand(m, m_psi)\n", "",
     [HS + "TestIntegerCertificates::test_two_radicands_are_refused"]),
    ("solve: its check_signature dropped", "halfspace.py",
     "    check_signature(model, rep)\n    for name, bound in", "    for name, bound in",
     [HS + "TestSolver::test_representation_of_another_signature_is_refused"]),
    ("identity: its check_signature dropped", "halfspace.py",
     "    check_signature(model, rep)\n    n = model.n\n", "    n = model.n\n",
     [HS + "TestCertificateInputs::test_representation_of_another_signature_is_refused"]),
    ("operator rows: their check_signature dropped", "killing.py",
     "    check_signature(M, rep)\n    by_direction = [[] for _ in range(M.dim)]",
     "    by_direction = [[] for _ in range(M.dim)]",
     [HS + "TestModel::test_a_refused_representation_builds_no_branch"]),
    ("ricci_filter: its check_signature dropped", "killing.py",
     "    check_signature(M, rep)\n    n = M.dim\n", "    n = M.dim\n",
     [KI + "TestRicciFilter::test_representation_of_another_signature_is_refused"]),
    ("ricci_filter: only the diagonal of a column tested", "killing.py",
     "if op[i][i] == kappa and all(op[k][i] == 0 for k in range(n) if k != i):", "if op[i][i] == kappa:",
     [KI + "TestRicciFilter::test_columns_match_dense_oracle"]),
    ("invariant solve: the re-substitution reads no row", "killing.py",
     "            for row in eqs:\n                if not sum(", "            for row in eqs[:0]:\n                if not sum(",
     [KI + "TestSparseOperatorRows::test_certificate_rejects_a_non_solution"]),
    ("add_scaled: an entry that sums to 0 stored", "linalg.py",
     "        if nv == 0:\n            row.pop(c, None)\n        else:\n            row[c] = nv\n",
     "        row[c] = nv\n",
     ["tests/test_row_contract.py::test_commutant_kernels"]),
    ("sparse_nullspace: one-entry equations pin nothing", "linalg.py",
     "            pinned.add(_pin(eq))\n", "            _pin(eq)\n",
     [LA + "test_pins_cascade_to_a_fixpoint"]),
    ("sparse_nullspace: pinned columns left in the remaining equations", "linalg.py",
     "else {c: v for c, v in row.items() if c not in pinned}", "else dict(row)",
     [LA + "test_pins_cascade_to_a_fixpoint"]),
    ("sparse_nullspace: a zero singleton pins its column", "linalg.py",
     "    if v == 0:\n        raise ValueError(", "    if False:\n        raise ValueError(",
     [LA + "test_zero_coefficients_and_zero_rows_pin_nothing"]),
    ("rank_mod_p: returns ncols", "linalg.py",
     "    best = 0\n    for p in RANK_PRIMES:", "    return ncols\n    for p in RANK_PRIMES:",
     [CL + "TestSpinorKernels::test_split_signature_kernel_grows"]),
    ("clifford_violations: the anticommutator phase read mod 2", "clifford.py",
     "(x + qb[j] - y - qa[k]) % 4 != 2", "(x + qb[j] - y - qa[k]) % 2 != 0",
     [CL + "TestViolations::test_repeated_generator_breaks_anticommutation"]),
    ("clifford_violations: the square's permutation check dropped", "clifford.py",
     "if pa[j] != i or (x + qa[j]) % 4 != want:", "if (x + qa[j]) % 4 != want:",
     [CL + "TestViolations::test_single_row_tampering_reported_where_dense_fails"]),
    ("clifford_violations: the anticommutator's permutation check dropped", "clifford.py",
     "if pb[j] != pa[k] or (x + qb[j]", "if (x + qb[j]",
     [CL + "TestViolations::test_single_row_tampering_reported_where_dense_fails"]),
    ("clifford_rows: the a > b swap without its sign flip", "clifford.py",
     "word = (b, a)\n                num = (-num[0], -num[1], -num[2], -num[3])\n",
     "word = (b, a)\n",
     [CL + "TestMonomialRowsOracle::test_two_tensor_action"]),
    ("clifford_rows: gamma_a squared read as +eps_a", "clifford.py",
     "                if signs[a] == 1:\n", "                if signs[a] == -1:\n",
     [CL + "TestMonomialRowsOracle::test_two_tensor_action"]),
    ("clifford_rows: the empty-word sum dropped", "clifford.py",
     "        if not word:\n            for i, row in enumerate(acc):",
     "        if not word:\n            continue\n            for i, row in enumerate(acc):",
     [CL + "TestMonomialRowsOracle::test_two_tensor_action"]),
    ("clifford_rows: the two-letter phase without qb", "clifford.py",
     "x = rot[k + qb[j]]", "x = rot[k]",
     [CL + "TestMonomialRowsOracle::test_mixed_words_sum_into_one_normal_word"]),
    ("annihilator_kernel: the length side dropped", "clifford.py",
     "    if len(basis) != n - rank:\n", "    if False:\n",
     [CL + "TestSpinorKernels::test_every_prime_failing_raises"]),
    ("annihilator_kernel: the substitution side dropped", "clifford.py",
     "    if any(sum(x * v[c] for c, x in eq.items() if c in v) != 0 for v in basis for eq in eqs):\n",
     "    if False:\n",
     [CL + "TestSpinorKernels::test_basis_failing_the_equations_raises"]),
    ("from_numerators: a rational value read back as a TowerScalar", "exact.py",
     "    if not (b or c or d):\n        return Fraction(a, q)\n    return _reduced(a, b, c, d, q, m)\n",
     "    return _reduced(a, b, c, d, q, m)\n",
     [EX + "test_from_numerators_reads_a_rational_back_as_a_fraction"]),
    ("sqrt_to_tower: a rational root returned as a TowerScalar", "exact.py",
     "    return from_numerators(*parts, s.denominator, f if f > 1 else None)\n",
     "    return _reduced(*parts, s.denominator, f if f > 1 else None)\n",
     [EX + "test_sqrt_perfect_square_simplifies"]),
    ("TowerScalar.__reduce__: the pickled form read back by the normalizing from_numerators", "exact.py",
     "        return (_reduced, self._t)\n", "        return (from_numerators, self._t)\n",
     [HS + "test_values_and_results_survive_copy_and_pickle"]),
    ("radicand: the squarefree check dropped", "exact.py",
     "radicand <= 1\n                                     or _square_part(radicand)[0] != 1):",
     "radicand <= 1):",
     [EX + "test_radicands_must_be_squarefree_ints_above_one"]),
    ("TowerScalar: a float part accepted", "exact.py",
     "        parts = [to_rational(x) for x in (a, b, c, d)]\n",
     "        parts = [Fraction(x) for x in (a, b, c, d)]\n",
     [EX + "test_floats_are_refused_at_every_entry"]),
    ("normalize_vector: products left in the type the elimination gave them", "linalg.py",
     "    out.update(zip(rest, scaled([row[c] for c in rest], 1 / row[lead])))\n",
     "    out.update((c, row[c] / row[lead]) for c in rest)\n",
     [RR + "test_halfspace_solutions_and_residual_fields"]),
    ("lambda_candidates: derived again on every call", "killing.py",
     "    return list(M.lambda_candidates)\n",
     "    from .liealg import killing_constants\n    return list(killing_constants(M))\n",
     [KI + "TestLambdaCandidates::test_derived_once_per_algebra"]),
    ("levi_civita: the metric check dropped", "liealg.py",
     "        if not (v * eps[k] + g.get((i, k, j), 0) * eps[j]) == 0:\n", "        if False:\n",
     [LI + "TestLeviCivita::test_check_rejects_metric_defect"]),
    ("levi_civita: the torsion check dropped", "liealg.py",
     "        if not (g.get((i, j, k), 0) - g.get((j, i, k), 0)) == c.get((i, j, k), 0):\n",
     "        if False:\n",
     [LI + "TestLeviCivita::test_check_rejects_torsion_defect"]),
    ("levi_civita: the brackets stored as C, not over Gamma's denominator as 2C", "liealg.py",
     "brackets = tuple((i, j, k, 2 * c) for", "brackets = tuple((i, j, k, c) for",
     [LI + "TestIntegerFeed::test_mixed_denominators_on_pseudo_iwasawa"]),
    ("geometry: a tower value read back by _reduced, keeping a rational TowerScalar", "liealg.py",
     "    return scaled([x], Fraction(1, q))[0]\n",
     "    from .exact import _reduced\n    a, b, c, d, p, m = x._t\n    return _reduced(a, b, c, d, p * q, m)\n",
     [RR + "test_geometry"]),
    ("einstein_check: only the diagonal compared", "liealg.py",
     "            if not op[i][j] == (lam if i == j else 0):\n", "            if i == j and not op[i][j] == lam:\n",
     [LI + "TestEinsteinCheck"]),
    ("curvature: the bracket term dropped", "liealg.py",
     "            for k, l, w in by_first.get(p, ()):\n", "            for k, l, w in ():\n",
     [LI + "TestCurvature::test_entries_match_dense_oracle"]),
    ("_square_part: the perfect-square test of the cofactor dropped", "exact.py",
     "            if r * r == m:\n                return s * r, f\n", "",
     [EX + "test_split_square_past_the_trial_bound"]),
]


def _copy_package(dest: pathlib.Path) -> pathlib.Path:
    shutil.copytree(SRC / "solvspin", dest / "solvspin", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def _run(copy: pathlib.Path, node_ids: list) -> int:
    """pytest's exit code for node_ids with the package imported from copy.

    pyproject.toml puts src/ first on pytest's path; `-o pythonpath=` names
    the copy there instead, and PYTHONPATH does so for the interpreter."""
    env = dict(os.environ, PYTHONPATH=str(copy), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "-o", "pythonpath=%s" % copy, *node_ids]
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        control = _copy_package(pathlib.Path(tmp) / "control")
        node_ids = sorted({node for *_, nodes in MUTANTS for node in nodes})
        code = _run(control, node_ids)
        if code != 0:
            print("control: the unchanged package gives pytest exit code %d" % code)
            return 1
        survived = errors = 0
        for i, (name, filename, old, new, nodes) in enumerate(MUTANTS):
            copy = _copy_package(pathlib.Path(tmp) / ("mutant%d" % i))
            path = copy / "solvspin" / filename
            text = path.read_text(encoding="utf-8")
            if text.count(old) != 1:
                print("ERROR    %s: the old text occurs %d times in %s" % (name, text.count(old), filename))
                errors += 1
                continue
            path.write_text(text.replace(old, new), encoding="utf-8")
            code = _run(copy, nodes)
            if code == 1:
                print("killed   %s" % name)
            elif code == 0:
                print("SURVIVED %s" % name)
                survived += 1
            else:
                print("ERROR    %s: pytest exit code %d" % (name, code))
                errors += 1
    print("%d mutants, %d survived, %d errors" % (len(MUTANTS), survived, errors))
    return 1 if survived or errors else 0


if __name__ == "__main__":
    sys.exit(main())
