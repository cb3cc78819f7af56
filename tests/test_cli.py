"""File format, command dispatch, exit codes, JSON report stability."""

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import tempfile
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solvspin.cli import (
    _IMPLS,
    AlgebraFileError,
    JobSpec,
    json_text,
    main,
    parse_algebra_text,
    run,
    serialize_algebra,
    to_float,
)
from solvspin.exact import TowerScalar, sqrt_to_tower
from solvspin.halfspace import HalfSpaceModel, parse_halfspace_spec
from solvspin.killing import classify_pseudo_iwasawa, lambda_candidates
from solvspin.liealg import MetricLieAlgebra, einstein_extension

from conftest import random_nilpotent

HEIS3 = "dim 3\nsigns +1 +1 +1\n1 2 3 1\n"
BROKEN = "dim 3\nsigns +1 +1 +1\n1 2 3 1\n1 3 2 1\n2 3 2 1\n"


@pytest.fixture
def heis3_file(tmp_path):
    p = tmp_path / "heis3.alg"
    p.write_text(HEIS3)
    return str(p)


class TestParsing:
    def test_heis3(self):
        M, decomp = parse_algebra_text(HEIS3)
        assert M.dim == 3
        assert M.algebra.structure[0][1][2] == 1
        assert M.algebra.structure[1][0][2] == -1
        assert decomp is None

    def test_roundtrip_is_canonical(self):
        M, decomp = parse_algebra_text(HEIS3)
        assert serialize_algebra(M, decomp) == HEIS3
        text = "dim 4\nsigns +1 -1 +1 -1\n1 2 3 1/2\n1 3 4 -2\nabelian: 4\n"
        M2, d2 = parse_algebra_text(text)
        assert serialize_algebra(M2, d2) == text

    def test_duplicate_pair_rejected(self):
        with pytest.raises(AlgebraFileError):
            parse_algebra_text("dim 3\n1 2 3 1\n1 2 3 1\n")

    def test_reversed_pair_rejected(self):
        with pytest.raises(AlgebraFileError) as err:
            parse_algebra_text("dim 3\n1 2 3 1\n2 1 3 1\n")
        assert err.value.line_no == 3

    def test_malformed_line_reports_number(self):
        with pytest.raises(AlgebraFileError) as err:
            parse_algebra_text("dim 3\nsigns +1 +1 +1\n1 2 oops 1\n")
        assert err.value.line_no == 3

    def test_exponent_notation_reports_line(self):
        # Fraction would expand 1e4000000 in full before anything else ran
        for coeff in ("1e5000", "1e4000000", "2E3", "1.5e-2"):
            started = time.perf_counter()
            with pytest.raises(AlgebraFileError) as err:
                parse_algebra_text("dim 3\n1 2 3 %s\n" % coeff)
            assert err.value.line_no == 2
            assert time.perf_counter() - started < 0.5

    def test_zero_denominator_reports_line(self):
        with pytest.raises(AlgebraFileError) as err:
            parse_algebra_text("dim 3\nsigns +1 +1 +1\n1 2 3 1/0\n")
        assert err.value.line_no == 3

    def test_abelian_line_attaches_decomposition(self):
        text = "dim 4\nsigns +1 +1 +1 +1\n1 2 3 1\n1 4 1 1/2\n2 4 2 1/2\n3 4 3 1\nabelian: 4\n"
        M, decomp = parse_algebra_text(text)
        assert decomp is not None
        assert decomp.abelian_indices == (3,)

    def test_bad_signs_rejected(self):
        with pytest.raises(AlgebraFileError):
            parse_algebra_text("dim 2\nsigns +1 +2\n")


class TestCommands:
    def test_validate_ok(self, heis3_file, capsys):
        assert main(["validate", heis3_file]) == 0
        assert "jacobi: ok" in capsys.readouterr().out

    def test_validate_broken_exits_one(self, tmp_path, capsys):
        p = tmp_path / "broken.alg"
        p.write_text(BROKEN)
        assert main(["validate", str(p)]) == 1
        assert "violations" in capsys.readouterr().out

    def test_curvature_json(self, heis3_file, capsys):
        assert main(["curvature", heis3_file, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["schema"] == 1
        assert data["results"]["scalar_curvature"] == "-1/2"
        assert data["results"]["ricci"][0][0] == "-1/2"

    def test_nilsoliton(self, heis3_file, capsys):
        assert main(["nilsoliton", heis3_file, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        res = data["results"]["nilsoliton"]
        assert res["lambda"] == "-3/2"
        assert res["derivation"][2][2] == "2"

    def test_extend_then_classify(self, heis3_file, tmp_path, capsys):
        out = str(tmp_path / "ext.alg")
        assert main(["extend", heis3_file, "--out", out]) == 0
        capsys.readouterr()
        assert main(["classify", out, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        verdict = data["results"]["classification"]["verdict"]
        assert verdict["kind"] == "NoKillingSpinor"
        assert verdict["reason"] == "g non-abelian"

    def test_extend_with_irrational_scaling_names_the_root(self, tmp_path, capsys):
        # filiform 4 is a nilsoliton whose Einstein scaling is 1/sqrt(5) up to
        # a rational: the extension exists but no .alg file can hold it
        (tmp_path / "fil4.alg").write_text("dim 4\n1 2 3 1\n1 3 4 1\n")
        out = tmp_path / "ext.alg"
        assert main(["extend", str(tmp_path / "fil4.alg"), "--json", "--out", str(out)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["error"] == ("the Einstein extension needs sqrt(5): its scaling is irrational, "
                                   "and the .alg format cannot write it")
        assert "error_type" not in report and "results" not in report
        assert not out.exists()

    def test_classify_halfspace_inline(self, capsys):
        code = main(["classify", "halfspace", "n=4", "r=1/2", "signs=+1,+1,+1,+1", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        verdict = data["results"]["classification"]["verdict"]
        assert verdict["kind"] == "HyperbolicHalfSpace"
        assert verdict["r"] == "1/2"

    def test_relative_path_starting_with_halfspace_is_a_file(self, tmp_path, monkeypatch, capsys):
        # only an argument whose first word is `halfspace` is an inline spec
        monkeypatch.chdir(tmp_path)
        (tmp_path / "halfspace_heis3.alg").write_text(HEIS3)
        (tmp_path / "halfspace.spec").write_text("halfspace n=3 r=1 signs=1,1,1\n")
        assert main(["validate", "halfspace_heis3.alg", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["nilpotent"] is True
        assert main(["classify", "halfspace.spec", "--json"]) == 0
        verdict = json.loads(capsys.readouterr().out)["results"]["classification"]["verdict"]
        assert verdict["kind"] == "HyperbolicHalfSpace"

    def test_killing_invariant(self, heis3_file, tmp_path, capsys):
        out = str(tmp_path / "ext.alg")
        main(["extend", heis3_file, "--out", out])
        capsys.readouterr()
        assert main(["killing-invariant", out, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        cands = data["results"]["killing"]["candidates"]
        assert len(cands) == 2
        assert all(c["kernel_dimension"] == 0 for c in cands)

    def test_a_large_prime_coefficient_is_answered_quickly(self, tmp_path, capsys):
        # lambda^2 = -p^2/48 with p = 1000000007: p^2 is split without trial
        # division up to p
        path = tmp_path / "heis3p.alg"
        path.write_text("dim 3\nsigns +1 +1 +1\n1 2 3 1000000007\n")
        started = time.perf_counter()
        assert main(["killing-invariant", str(path), "--json"]) == 0
        assert time.perf_counter() - started < 1
        cands = json.loads(capsys.readouterr().out)["results"]["killing"]["candidates"]
        assert [c["lambda_squared"] for c in cands] == ["-1000000014000000049/48"] * 2
        assert cands[0]["lambda"] == {"a": "0", "b": "0", "c": "0", "d": "1000000007/12", "radicand": 3}

    def test_killing_halfspace(self, capsys):
        assert main(["killing-halfspace", "halfspace n=2 r=1 signs=+1,+1", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["results"]["combined_dimension"] >= 2
        for b in data["results"]["branches"]:
            assert b["residual_zero"] and b["amended_identity"]

    def test_killing_halfspace_negative_bounds_exit_one(self, capsys):
        code = main(["killing-halfspace", "halfspace n=3 r=1 signs=1,1,1", "--json",
                     "--kmax", "-1", "--mmax", "-2"])
        assert code == 1
        data = json.loads(capsys.readouterr().out)
        assert "kmax = -1" in data["error"]
        assert "results" not in data

    def test_classify_zero_denominator_radius_exits_one(self, capsys):
        assert main(["classify", "halfspace n=3 r=1/0 signs=1,1,1", "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert "zero denominator" in data["error"]

    def test_halfspace_spec_unknown_or_repeated_key_exits_one(self, capsys):
        for spec, key in (("halfspace n=2 r=1 signs=1,1 extra=3", "extra"),
                          ("halfspace n=2 r=1 signs=1,1 r=2", "r")):
            assert main(["killing-halfspace", spec, "--json"]) == 1
            data = json.loads(capsys.readouterr().out)
            assert repr(key) in data["error"]
            assert "error_type" not in data and "results" not in data

    def test_halfspace_spec_bad_integer_exits_one(self, capsys):
        for spec, text in (("halfspace n=x r=1 signs=1,1,1", "n=x"),
                           ("halfspace n=3 r=1 signs=", "signs="),
                           ("halfspace n=3 r=1 signs=1,,1", "signs=1,,1")):
            assert main(["killing-halfspace", spec, "--json"]) == 1
            data = json.loads(capsys.readouterr().out)
            assert "spec %s:" % text in data["error"] and "invalid literal" not in data["error"]
            assert "error_type" not in data and "results" not in data

    def test_halfspace_bad_sign_exits_one(self, capsys):
        # the t-direction sign used to be reported as "eps0 must be +-1"
        for spec in ("halfspace n=2 r=1 signs=1,2", "halfspace n=3 r=1 signs=2,1,1",
                     "halfspace n=3 r=1 signs=1,0,-1"):
            assert main(["killing-halfspace", spec, "--json"]) == 1
            data = json.loads(capsys.readouterr().out)
            assert data["error"].startswith("signs must each be +1 or -1, got ")
            assert "eps0" not in data["error"]
            assert "error_type" not in data and "results" not in data

    def test_killing_halfspace_huge_window_answers_like_the_small_one(self, capsys):
        # about 1e9 monomial unknowns: the solve reduces the same N spinors
        reports = []
        for kmax, mmax in (("1", "1"), ("100000", "100")):
            started = time.perf_counter()
            code = main(["killing-halfspace", "halfspace n=3 r=1 signs=1,1,1", "--json",
                         "--kmax", kmax, "--mmax", mmax])
            assert time.perf_counter() - started < 1.0
            assert code == 0
            reports.append(json.loads(capsys.readouterr().out)["results"])
        small, huge = reports
        assert huge["degree_bounds"] == {"kmax": 100000, "mmax": 100}
        assert [b["dimension"] for b in huge["branches"]] == [b["dimension"] for b in small["branches"]] == [2, 2]
        assert huge["branches"] == small["branches"]

    def test_duplicate_abelian_line_exits_one(self, tmp_path, capsys):
        # a second abelian line is an error, like a second dim or signs line
        (tmp_path / "a.alg").write_text("dim 3\n1 3 1 1\nabelian: 3\nabelian: 2\n")
        (tmp_path / "b.alg").write_text("dim 3\n1 3 1 1\nabelian: 3\n")
        assert main(["classify", str(tmp_path), "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["summary"] == {"total": 2, "succeeded": 1, "failed": 1}
        assert data["batch"][0]["error"] == "line 4: duplicate abelian line"
        assert "error_type" not in data["batch"][0] and "results" not in data["batch"][0]

    def test_exponent_coefficient_exits_one(self, tmp_path, capsys):
        p = tmp_path / "exp.alg"
        for coeff in ("1e5000", "1e4000000"):
            p.write_text("dim 3\n1 2 3 %s\n" % coeff)
            started = time.perf_counter()
            assert main(["validate", str(p), "--json"]) == 1
            assert time.perf_counter() - started < 1.0
            data = json.loads(capsys.readouterr().out)
            assert data["error"].startswith("line 2: ")
            assert "error_type" not in data and "results" not in data

    def test_classify_needs_decomposition(self, heis3_file):
        assert main(["classify", heis3_file]) == 1

    def test_missing_file_exits_one(self):
        assert main(["validate", "no-such-file.alg"]) == 1

    def test_classify_float_backend_rejected(self, heis3_file):
        assert main(["classify", heis3_file, "--backend", "float"]) == 1

    def test_float_backend_curvature(self, heis3_file, capsys):
        assert main(["curvature", heis3_file, "--backend", "float", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert abs(data["results"]["ricci"][2][2] - 0.5) < 1e-9

    def test_float_backend_ricci_entries_are_numbers(self, tmp_path, capsys):
        # every entry is a JSON number: the nearest double to the exact report's
        texts = {
            "heis3": HEIS3,
            "heis5": "dim 5\n1 2 5 1\n3 4 5 1\n",
            "fil4": "dim 4\n1 2 3 1\n1 3 4 1\n",
            "sl2": "dim 3\nsigns +1 -1 +1\n1 2 3 1/3\n2 3 1 2/7\n1 3 2 -5/3\n",
        }
        for name, text in texts.items():
            p = tmp_path / (name + ".alg")
            p.write_text(text)
            assert main(["curvature", str(p), "--json"]) == 0
            exact = json.loads(capsys.readouterr().out)["results"]["ricci"]
            assert main(["curvature", str(p), "--backend", "float", "--json"]) == 0
            results = json.loads(capsys.readouterr().out)["results"]
            assert all(type(x) is float for row in results["ricci"] for x in row), name
            assert type(results["scalar_curvature"]) is float, name
            for got_row, want_row in zip(results["ricci"], exact):
                for got, want in zip(got_row, want_row):
                    assert got == float(Fraction(want)), name

    @pytest.mark.parametrize("coeff,printed", [("1/100000", "0.00001"),
                                               ("10000000000000000000000", "10000000000000000000000")])
    def test_float_canonical_form_parses_back(self, tmp_path, capsys, coeff, printed):
        # repr would write 1e-05 and 1e+22, which the parser refuses
        p = tmp_path / "scaled.alg"
        p.write_text("dim 3\n1 2 3 %s\n" % coeff)
        assert main(["validate", str(p), "--backend", "float", "--json"]) == 0
        canonical = json.loads(capsys.readouterr().out)["results"]["canonical_form"]
        assert canonical == "dim 3\nsigns +1 +1 +1\n1 2 3 %s\n" % printed
        p.write_text(canonical)
        assert main(["validate", str(p), "--backend", "float", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["canonical_form"] == canonical

    def test_tolerance_option_is_gone(self, heis3_file, capsys):
        # the float backend computes exactly, so there is no tolerance to set
        with pytest.raises(SystemExit) as exc:
            main(["nilsoliton", heis3_file, "--backend", "float", "--tolerance", "0.5", "--json"])
        assert exc.value.code == 2
        assert "--tolerance" in capsys.readouterr().err

    def test_float_nilsoliton_of_heis3(self, heis3_file, capsys):
        assert main(["nilsoliton", heis3_file, "--backend", "float", "--json"]) == 0
        got = json.loads(capsys.readouterr().out)["results"]["nilsoliton"]
        assert got == {"lambda": -1.5, "derivation": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]]}

    def test_float_out_of_double_range_is_an_input_error(self, tmp_path, capsys):
        # heis3 with the coefficient 10^200: its Ricci entries and lambda are
        # about 10^400, past the largest double, and must not print as NaN or
        # Infinity; with 10^-200 they are about 10^-400, and must not print as 0
        def refuse(name):
            raise ValueError("%s is not JSON" % name)

        p = tmp_path / "huge.alg"
        for coeff in ("1" + "0" * 200, "1/1" + "0" * 200):
            p.write_text("dim 3\n1 2 3 %s\n" % coeff)
            for command in ("curvature", "nilsoliton"):
                assert main([command, str(p), "--backend", "float", "--json"]) == 1, command
                data = json.loads(capsys.readouterr().out, parse_constant=refuse)
                assert data["error"] == "a value does not fit a double; --backend exact answers this input"
                assert "results" not in data and "error_type" not in data
                assert main([command, str(p), "--json"]) == 0, command
                exact = json.loads(capsys.readouterr().out, parse_constant=refuse)["results"]
                assert "0" * 399 in json.dumps(exact), command   # 10^400 or 10^-400, written exactly

    def test_float_abelian_nilsoliton_reports_float_zeros(self, tmp_path, capsys):
        p = tmp_path / "ab2.alg"
        p.write_text("dim 2\nsigns +1 -1\n")
        for backend, zero in (("float", 0.0), ("exact", "0")):
            assert main(["nilsoliton", str(p), "--backend", backend, "--json"]) == 0
            got = json.loads(capsys.readouterr().out)["results"]["nilsoliton"]
            entries = [got["lambda"], *(x for row in got["derivation"] for x in row)]
            assert len(entries) == 5 and all(type(x) is type(zero) and x == zero for x in entries), backend

    def test_backend_is_read_from_the_flag_only(self, heis3_file, capsys, monkeypatch):
        # --backend defaults to exact in the parser; no environment variable
        # sets it, the retired SOLVSPIN_BACKEND included
        monkeypatch.setenv("SOLVSPIN_BACKEND", "float")
        for argv, want in (([], "exact"), (["--backend", "float"], "float"), (["--backend", "exact"], "exact")):
            assert main(["curvature", heis3_file, "--json", *argv]) == 0
            assert json.loads(capsys.readouterr().out)["backend"] == want, argv


class TestDeterminism:
    def test_identical_jobspec_identical_report(self, heis3_file):
        job = JobSpec(command="curvature", inputs=(heis3_file,))
        rep1, code1 = run(job)
        rep2, code2 = run(job)
        rep1.pop("timing_ms")
        rep2.pop("timing_ms")
        assert rep1 == rep2 and code1 == code2 == 0

    def test_consecutive_main_calls_share_no_state(self, heis3_file, capsys):
        # main reuses one parser per process; every flag, --backend's default
        # included, must still be read afresh on every call
        spec = "halfspace n=3 r=1 signs=1,1,1"
        calls = [
            (["killing-halfspace", spec, "--json", "--kmax", "2"],
             JobSpec(command="killing-halfspace", inputs=(spec,), output_format="json", kmax=2)),
            (["curvature", heis3_file, "--json", "--backend", "float"],
             JobSpec(command="curvature", inputs=(heis3_file,), output_format="json", backend="float")),
            (["killing-halfspace", spec, "--json"],
             JobSpec(command="killing-halfspace", inputs=(spec,), output_format="json")),
            (["curvature", heis3_file, "--json"],
             JobSpec(command="curvature", inputs=(heis3_file,), output_format="json")),
        ]
        for argv, job in calls:
            assert main(argv) == 0
            got = json.loads(capsys.readouterr().out)
            want, code = run(job)
            assert code == 0
            got["timing_ms"] = want["timing_ms"] = 0
            assert got == want, argv
        assert main(["killing-halfspace", spec]) == 0
        text = capsys.readouterr().out
        assert text.startswith("command: killing-halfspace (exact backend)\n")
        assert not text.lstrip().startswith("{")

    def test_report_carries_schema_and_digest(self, heis3_file):
        rep, _ = run(JobSpec(command="validate", inputs=(heis3_file,)))
        assert rep["schema"] == 1
        assert len(rep["digest"]) == 16


class TestBatch:
    def test_directory_input(self, tmp_path, capsys):
        (tmp_path / "a.alg").write_text(HEIS3)
        (tmp_path / "b.alg").write_text(BROKEN)
        (tmp_path / "ignored.txt").write_text("not an algebra")
        code = main(["validate", str(tmp_path), "--json"])
        data = json.loads(capsys.readouterr().out)
        assert data["summary"]["total"] == 2
        assert data["summary"]["succeeded"] == 1
        assert data["summary"]["failed"] == 1
        assert code == 1

    def test_out_with_a_directory_is_refused(self, tmp_path, capsys):
        # each item's extension would overwrite the one file, leaving only the last
        algs = tmp_path / "algs"
        algs.mkdir()
        (algs / "a.alg").write_text(HEIS3)
        (algs / "b.alg").write_text(HEIS3.replace("+1 +1 +1", "+1 +1 -1"))
        out = tmp_path / "ext.alg"
        assert main(["extend", str(algs), "--out", str(out), "--json"]) == 2
        data = json.loads(capsys.readouterr().out)
        assert "--out" in data["error"] and str(algs) in data["error"]
        assert "batch" not in data
        assert not out.exists()
        # one input still writes its extension
        assert main(["extend", str(algs / "b.alg"), "--out", str(out)]) == 0
        assert out.read_text().startswith("dim 4\nsigns +1 +1 -1 ")

    def test_batch_failure_does_not_abort(self, tmp_path):
        (tmp_path / "bad.alg").write_text("dim oops\n")
        (tmp_path / "good.alg").write_text(HEIS3)
        rep, _ = run(JobSpec(command="validate", inputs=(str(tmp_path),)))
        assert rep["summary"]["total"] == 2
        names = [os.path.basename(item["input"]) for item in rep["batch"]]
        assert names == ["bad.alg", "good.alg"]
        assert "error" in rep["batch"][0]
        assert "error" not in rep["batch"][1]

    def test_zero_denominator_does_not_abort(self, tmp_path, capsys):
        (tmp_path / "bad.alg").write_text("dim 3\nsigns +1 +1 +1\n1 2 3 1/0\n")
        (tmp_path / "good.alg").write_text(HEIS3)
        code = main(["validate", str(tmp_path), "--json"])
        data = json.loads(capsys.readouterr().out)
        assert code == 1
        assert data["summary"] == {"total": 2, "succeeded": 1, "failed": 1}
        bad, good = data["batch"]
        assert bad["error"] == "line 3: zero denominator in bracket coefficient"
        assert good["results"]["jacobi_violations"] == []

    def test_unlisted_exception_stays_with_its_item(self, tmp_path, capsys, monkeypatch):
        import solvspin.cli as cli

        real = cli.solve_invariant_killing

        def flaky(M, rep):
            if M.signs[-1] == -1:
                raise RuntimeError("solver returned a non-solution spinor")
            return real(M, rep)

        monkeypatch.setattr(cli, "solve_invariant_killing", flaky)
        (tmp_path / "a.alg").write_text(HEIS3.replace("+1 +1 +1", "+1 +1 -1"))
        (tmp_path / "b.alg").write_text(HEIS3)
        code = main(["killing-invariant", str(tmp_path), "--json"])
        data = json.loads(capsys.readouterr().out)
        assert code == 1
        assert data["summary"] == {"total": 2, "succeeded": 1, "failed": 1}
        bad, good = data["batch"]
        assert bad["error"] == "solver returned a non-solution spinor"
        assert bad["error_type"] == "RuntimeError"
        assert "results" not in bad
        assert len(good["results"]["killing"]["candidates"]) == 2
        assert "error_type" not in good

    def test_oversized_spinor_space_exits_one(self, tmp_path, capsys):
        # the spinor space 2^30 is refused before the window check or any allocation
        started = time.perf_counter()
        spec = "halfspace n=60 r=1 signs=%s" % ",".join(["1"] * 60)
        assert main(["killing-halfspace", spec, "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["error"].startswith("n = 60 gives spinors") and "results" not in report
        (tmp_path / "a.alg").write_text("dim 60\n")
        (tmp_path / "b.alg").write_text(HEIS3)
        assert main(["killing-invariant", str(tmp_path), "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert time.perf_counter() - started < 1.0
        assert data["summary"] == {"total": 2, "succeeded": 1, "failed": 1}
        bad, good = data["batch"]
        assert bad["error"].startswith("n = 60 gives spinors") and "error_type" not in bad
        assert len(good["results"]["killing"]["candidates"]) == 2

    def test_listed_errors_carry_no_type(self, tmp_path, capsys):
        (tmp_path / "bad.alg").write_text("dim oops\n")
        main(["validate", str(tmp_path), "--json"])
        bad = json.loads(capsys.readouterr().out)["batch"][0]
        assert "error" in bad and "error_type" not in bad


# Fuzzed .alg text: mostly a file of the documented shape (dim <= 8) with
# arbitrary coefficients and indices, then lines of every kind the parser
# knows, or free text, inserted anywhere; else a half-space spec with arbitrary
# fields.
# No token or free text contains "d", so every dim line comes from _DIM_LINE.
_CHARS = st.characters(blacklist_categories=("Cs",), blacklist_characters="d")
_TOKENS = st.one_of(
    st.integers(-2, 9).map(str),
    st.sampled_from(["+1", "-1", "1/2", "-3/4", "1/0", "0/0", "1.5", "1e2", "nan",
                     "x", "/", "#", ":", ",", "abelian:"]),
    st.text(_CHARS, max_size=3),
)
_DIM_LINE = st.one_of(
    st.integers(-1, 8).map(str),
    st.sampled_from(["", "x", "1/2", "2.0", "+3", "08", "\u0663", "4 5", "#"]),
).map(lambda t: ("dim " + t).strip())
_NOISE = st.one_of(
    _DIM_LINE,
    st.lists(_TOKENS, max_size=9).map(lambda t: " ".join(["signs"] + t)),
    st.lists(_TOKENS, max_size=4).map(lambda t: "abelian: " + " ".join(t)),
    st.lists(_TOKENS, max_size=5).map(" ".join),
    st.text(_CHARS, max_size=20),
)


@st.composite
def _alg_texts(draw):
    if draw(st.integers(0, 4)) == 0:
        return "halfspace n=%d r=%s signs=%s" % (
            draw(st.integers(-1, 8)), draw(_TOKENS), ",".join(draw(st.lists(_TOKENS, max_size=8))))
    dim = draw(st.integers(1, 8))
    index = st.integers(1, dim)
    coeff = st.one_of(st.sampled_from(["1", "-1", "1/2", "-2/3"]), _TOKENS)
    lines = ["dim %d" % dim,
             "signs " + " ".join(draw(st.lists(st.sampled_from(["+1", "-1"]),
                                               min_size=dim, max_size=dim)))]
    for _ in range(draw(st.integers(0, 4))):
        i, j = sorted((draw(index), draw(index)))
        lines.append("%d %d %d %s" % (i, j + (i == j), draw(index), draw(coeff)))
    if draw(st.booleans()):
        lines.append("abelian: %d" % draw(index))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_NOISE))
    return "\n".join(lines)


@settings(max_examples=400, deadline=None)
@given(_alg_texts())
def test_validate_fuzzed_text_exits_cleanly(text):
    """Any text gives exit 0 or 1; a rejection is an input error, never a crash."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.alg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["validate", path, "--json"])
    assert code in (0, 1)
    report = json.loads(out.getvalue())
    assert "error_type" not in report, report
    assert (code == 0) == ("error" not in report and report["results"]["jacobi_violations"] == [])


# sha256 of each --json report over a fixed corpus, timing_ms blanked and file
# inputs relative to their directory: any change to an answer, a scalar's
# printed form or the report layout shows here
HEIS5_MIXED = "dim 5\nsigns +1 -1 +1 -1 +1\n1 2 5 2/3\n3 4 5 1/3\n"
SU2 = "dim 3\nsigns +1 +1 +1\n1 2 3 1\n1 3 2 -1\n2 3 1 1\n"   # not nilpotent
HEIS3_LORENTZ = "dim 3\nsigns +1 +1 -1\n1 2 3 1\n"
FIL5_MIXED = "dim 5\nsigns +1 -1 +1 +1 -1\n1 2 3 1\n1 3 4 1/2\n1 4 5 2/3\n"
# one input per exit of `classify` ("g non-abelian" is ext.alg above; the
# Lorentzian half-space in GOLDEN_REPORTS has sign_flipped true)
CLASSIFY_INPUTS = {
    "not_ideal.alg": "dim 3\n1 2 3 1\nabelian: 3\n",                   # NotApplicable
    "flat.alg": "dim 3\nabelian: 3\n",                                  # phi = 0: no lambda
    "line.alg": "dim 1\nabelian: 1\n",                                  # dim 1: no lambda
    "trace.alg": "dim 3\n1 3 1 1\n2 3 2 2\nabelian: 3\n",              # phi = diag(1, 2)
    "phi_square.alg": "dim 4\n1 3 1 1\n2 3 2 1\n1 4 1 1\n2 4 2 2\nabelian: 3,4\n",
    "rank.alg": "dim 4\n1 3 1 1\n2 3 2 1\n1 4 1 1\n2 4 2 1\nabelian: 3,4\n",
    "twice_id.alg": "dim 3\n1 3 1 2\n2 3 2 2\nabelian: 3\n",           # phi = 2 id
}
GOLDEN_REPORTS = (
    ("curvature", "heis3.alg", (),
     "c10810347c2d364de8dcaa4923a9712e9da1fb60a0d2490d97c658c3aeeb685c"),
    ("extend", "heis3.alg", ("--out", "ext.alg"),
     "6bcbf6c11d88005eba60051ffa87cc110e15cdeaf588082c1a654c3527e4901d"),
    ("killing-invariant", "ext.alg", (),
     "8ae107a9ac8f112fd62bf813686ed10d3f5731b6a1c76c3fcde8fd1a8baf9b3e"),
    ("classify", "ext.alg", (),
     "1526dedf54ae98edbdec71e1ffbc1ea654200e37bbeae5c953eecfe94577c965"),
    ("curvature", "heis5.alg", (),
     "93eb73672a16b4ef8e20e50c9aa3e94a98c36d2def4d3d2e0803789dda993d93"),
    ("nilsoliton", "heis5.alg", (),
     "2df716b735b0438d20fa6cedadfdb16112fda50fec37f506ed5ed4878f41ccda"),
    ("curvature", "heis5.alg", ("--backend", "float"),
     "89b7bebcc53da7ebe5e7789130e53cee11b3ccd18fcd786ce4638f94846429b0"),
    ("killing-halfspace", "halfspace n=4 r=2/3 signs=1,-1,1,-1", ("--kmax", "2", "--mmax", "2"),
     "1f301a214fb77900990ac856e9e9354721dff6eddad5e936be0da8464037b9b4"),
    ("killing-halfspace", "halfspace n=5 r=2/3 signs=1,1,-1,1,1", ("--kmax", "2", "--mmax", "2"),
     "5572a58b93ad2e8d516c70b507b387116584eaeee5adbc82bf7efeeadc8d8b19"),
    ("killing-halfspace", "halfspace n=3 r=1/2 signs=1,1,1", ("--kmax", "2", "--mmax", "2"),
     "ca9b9a0c7ff54555e56ffbab65eba8874439e178106e995a8910c57a19e0849d"),
    ("killing-halfspace", "halfspace n=6 r=2/3 signs=1,-1,1,1,-1,-1", ("--kmax", "2", "--mmax", "2"),
     "995347eef49874281a8b6e208daafbf5942ee04c6e25bcb458d1fc06394337a4"),
    ("killing-invariant", "halfspace n=5 r=1/2 signs=1,-1,1,1,-1", (),
     "c0469fcd5c97367298691a102b8ac6ce0847e3975240d75120321a3584aeb5ed"),
    ("killing-invariant", "halfspace n=9 r=1/2 signs=1,1,1,1,1,1,1,1,1", (),
     "1b4d3867432c5f038964f772c833bfe3f78c982543317cc75029f464713c4184"),
    ("validate", "heis5.alg", (),
     "49440ac09c6bcc74eb2313dc43d1d9247c849f2d1b85a77a48324cdaa5884495"),
    ("validate", "su2.alg", (),
     "342cee962c05f2ea7d82c3da146aed1fd39f74696f463483689bd01582f89343"),
    ("validate", "heis5.alg", ("--backend", "float"),
     "e8db2e50b4950945bece83c7eda9ae4441311a250f34299c5b6294fe82f74938"),
    ("validate", "su2.alg", ("--backend", "float"),
     "ac8d93b5eba82782e52226005e929b25dad0f24beaf2a42250bd0df3c6499962"),
    # a nonempty invariant kernel: dimension 2 at lambda = -1/4, so the basis
    # and its re-substitution run
    ("killing-invariant", "su2.alg", (),
     "0c5bad747b9525a17d89fbe968a1484008a58dfa8eaff7347026bc07fa9b8ff7"),
    ("classify", "not_ideal.alg", (),
     "f7a508234f8c73ff6aa869cf37d72607310c710b0a99153a191d5e5cf3e72d18"),
    ("classify", "flat.alg", (),
     "bfed479ea4347f1be9ee7feead04b155976dab9d7e1c347833af2f297ee776a1"),
    ("classify", "line.alg", (),
     "e6d02b994757d545d2aef70833359ec585826ebaed0c7b7c1f21fb6e2c01988e"),
    ("classify", "trace.alg", (),
     "c2a8a933410740c4a1d4b7ae809ba3bad517dc734e1b47fca08d94b4d5342b66"),
    ("classify", "phi_square.alg", (),
     "3f9171e4bd6ac9ab877e31fe1cc7ca2d0e6554bdce4788bd16c067df0f60466a"),
    ("classify", "rank.alg", (),
     "0f0b0bcb09becbbf0874848ae2f647af2192685d124db4ca529e35a82bedef74"),
    ("classify", "twice_id.alg", (),
     "854e1033e457b8c6a36cc807a009d85606d233609afec6374e6060d4f07d50c3"),
    ("classify", "halfspace n=4 r=1/2 signs=1,-1,1,-1", (),
     "faa67bf7bce896fa0efb91aeda6168ba4c013e73f86acd678049269615e311f7"),
    ("curvature", "heis3_lorentz.alg", ("--backend", "float"),
     "9fe11ae047c8e0522ed865c109962a88e3ec32b27f215ba018a8c9039d0732b6"),
    # the zero entries of D print as 0.0, never -0.0
    ("nilsoliton", "heis3_lorentz.alg", ("--backend", "float"),
     "dddcf3f0ea8b72563ac99f9e840d5c00eed8d90bd9051dafd0ce6334f94b1861"),
    # s = 43/72 prints as its nearest double, 0.5972222222222222
    ("curvature", "fil5.alg", ("--backend", "float"),
     "ee63dc75d30ca9cbe6ffc1eee572f672dac626d4f2fd08814fa95505a77457df"),
    ("nilsoliton", "fil5.alg", ("--backend", "float"),
     "01f4db6dd58bc52b826b4df0321aa19a5dad3b7fa6a313d8f46a0bebf3c19e65"),
)


def golden_runs(tmp_path):
    """Write the corpus to tmp_path; yield (argv, digest) per GOLDEN_REPORTS entry, in order."""
    (tmp_path / "heis3.alg").write_text(HEIS3)
    (tmp_path / "heis5.alg").write_text(HEIS5_MIXED)
    (tmp_path / "su2.alg").write_text(SU2)
    (tmp_path / "heis3_lorentz.alg").write_text(HEIS3_LORENTZ)
    (tmp_path / "fil5.alg").write_text(FIL5_MIXED)
    for name, text in CLASSIFY_INPUTS.items():
        (tmp_path / name).write_text(text)
    for command, source, extra, digest in GOLDEN_REPORTS:  # in order: extend writes ext.alg
        source = source if source.startswith("halfspace") else str(tmp_path / source)
        extra = tuple(str(tmp_path / a) if a.endswith(".alg") else a for a in extra)
        yield [command, source, "--json", *extra], digest


_JSON_STRINGS = st.text(st.sampled_from('"\\/\x00\x01\x1f\x7f\n\t\u00e9\u2028\u2603\U0001f600ab') | st.characters())
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | _JSON_STRINGS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_JSON_STRINGS, inner, max_size=4),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
def test_json_writer_matches_json_dumps(value):
    assert json_text(value) == json.dumps(value, indent=2, sort_keys=True)


def test_json_writer_refuses_what_json_cannot_hold():
    assert json_text({"b": [], "a": {}, "c": (1, 2.5)}) == json.dumps({"b": [], "a": {}, "c": (1, 2.5)},
                                                                      indent=2, sort_keys=True)
    for bad in (Fraction(1, 2), {1, 2}, {1: "a"}, [b"x"]):
        with pytest.raises(TypeError):
            json_text(bad)
    for bad in (math.nan, math.inf, [-math.inf]):
        with pytest.raises(ValueError):
            json_text(bad)


def test_reports_match_golden_digests(tmp_path, capsys):
    got, want = [], []
    for argv, digest in golden_runs(tmp_path):
        assert main(argv) == 0
        out = capsys.readouterr().out
        report = json.loads(out)
        # the report is printed as json.dumps writes it, keys sorted
        assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"
        report["timing_ms"] = 0
        if os.path.isabs(report["input"]):
            report["input"] = os.path.relpath(report["input"], tmp_path)
        text = json.dumps(report, indent=2, sort_keys=True)
        got.append((argv[0], argv[1], hashlib.sha256(text.encode("utf-8")).hexdigest()))
        want.append((argv[0], argv[1], digest))
    assert got == want


# the default text output, one input per branch of the renderer, recorded
# as literal text with file inputs relative to their directory
GOLDEN_TEXTS = (
    (("validate", "heis3.alg"), 0,
     "command: validate (exact backend)\n"
     "input: heis3.alg\n"
     "jacobi: ok\n"
     "lower central series: [3, 1, 0] (nilpotent: True)\n"),
    (("curvature", "heis3.alg"), 0,
     "command: curvature (exact backend)\n"
     "input: heis3.alg\n"
     "ricci: [['-1/2', '0', '0'], ['0', '-1/2', '0'], ['0', '0', '1/2']]\n"
     "scalar curvature: -1/2\n"
     "einstein: None\n"),
    (("curvature", "heis3.alg", "--backend", "float"), 0,
     "command: curvature (float backend)\n"
     "input: heis3.alg\n"
     "ricci: [[-0.5, 0.0, 0.0], [0.0, -0.5, 0.0], [0.0, 0.0, 0.5]]\n"
     "scalar curvature: -0.5\n"
     "einstein: None\n"),
    (("nilsoliton", "heis3.alg"), 0,
     "command: nilsoliton (exact backend)\n"
     "input: heis3.alg\n"
     'nilsoliton: {"lambda": "-3/2", "derivation": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "2"]]}\n'),
    (("nilsoliton", "su2.alg"), 1,
     "command: nilsoliton (exact backend)\n"
     "input: su2.alg\n"
     "error: nilsoliton_solve needs a nilpotent algebra\n"),
    (("extend", "heis3.alg", "--out", "ext.alg"), 0,
     "command: extend (exact backend)\n"
     "input: heis3.alg\n"
     "einstein extension with lambda = -3/2\n"
     "dim 4\n"
     "signs +1 +1 +1 +1\n"
     "1 2 3 1\n"
     "1 4 1 1/2\n"
     "2 4 2 1/2\n"
     "3 4 3 1\n"
     "abelian: 4\n"),
    (("killing-invariant", "ext.alg"), 0,
     "command: killing-invariant (exact backend)\n"
     "input: ext.alg\n"
     "lambda branch +1: invariant kernel dim 0, ricci filter dim 4\n"
     "lambda branch -1: invariant kernel dim 0, ricci filter dim 4\n"),
    (("killing-invariant", "su2.alg"), 0,
     "command: killing-invariant (exact backend)\n"
     "input: su2.alg\n"
     "lambda branch +1: invariant kernel dim 0, ricci filter dim 2\n"
     "lambda branch -1: invariant kernel dim 2, ricci filter dim 2\n"),
    (("killing-invariant", "flat.alg"), 0,
     "command: killing-invariant (exact backend)\n"
     "input: flat.alg\n"
     "no lambda candidates (scalar curvature is zero)\n"),
    (("classify", "ext.alg"), 0,
     "command: classify (exact backend)\n"
     "input: ext.alg\n"
     "verdict: NoKillingSpinor: g non-abelian\n"
     "  check pseudo_iwasawa     pass\n"
     "  check nilradical_abelian FAIL\n"),
    (("classify", "twice_id.alg"), 0,
     "command: classify (exact backend)\n"
     "input: twice_id.alg\n"
     "verdict: HyperbolicHalfSpace (r = 1/2)\n"
     "  check pseudo_iwasawa     pass\n"
     "  check nilradical_abelian pass\n"
     "  check lambda_candidates  pass\n"
     "  check trace_identity     pass\n"
     "  check phi_square         pass\n"
     "  check phi_scalar         pass\n"),
    (("classify", "not_ideal.alg"), 0,
     "command: classify (exact backend)\n"
     "input: not_ideal.alg\n"
     "verdict: NotApplicable: not a pseudo-Iwasawa standard decomposition\n"
     "  check pseudo_iwasawa     FAIL\n"),
    (("killing-halfspace", "halfspace n=3 r=1/2 signs=1,1,1"), 0,
     "command: killing-halfspace (exact backend)\n"
     "input: halfspace n=3 r=1/2 signs=1,1,1\n"
     "lambda branch +1: dimension 2 (residual zero: True, amended identity: True)\n"
     "lambda branch -1: dimension 2 (residual zero: True, amended identity: True)\n"
     "combined dimension: 4\n"),
    (("validate", "batch"), 1,
     "command: validate (exact backend)\n"
     "input: batch/broken.alg\n"
     "jacobi: violations [[1, 2, 3]]\n"
     "command: validate (exact backend)\n"
     "input: batch/heis3.alg\n"
     "jacobi: ok\n"
     "lower central series: [3, 1, 0] (nilpotent: True)\n"
     "batch: 2 total, 1 ok, 1 failed\n"),
)


def test_text_reports_match_golden_texts(tmp_path, capsys):
    for name, text in {"heis3.alg": HEIS3, "su2.alg": SU2, **CLASSIFY_INPUTS}.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "batch").mkdir()
    (tmp_path / "batch" / "heis3.alg").write_text(HEIS3)
    (tmp_path / "batch" / "broken.alg").write_text(BROKEN)
    got, want = [], []
    for argv, code, text in GOLDEN_TEXTS:  # in order: extend writes ext.alg
        paths = [str(tmp_path / a) if a.endswith(".alg") or a == "batch" else a for a in argv]
        got_code = main(paths)
        got.append((argv, got_code, capsys.readouterr().out.replace(str(tmp_path) + os.sep, "")))
        want.append((argv, code, text))
    assert got == want


# filiform 4: its Einstein extension scales D by sqrt(5)/10
FIL4 = "dim 4\n1 2 3 1\n1 3 4 1\n"


def _float_matches_exact(exact, flt, where=()) -> int:
    """Walk an exact report and the float report of the same job together.

    Each float must be float(Fraction(s)) for the exact string s at its place,
    and not -0.0; algebra texts are compared token by token the same way.
    Returns how many numbers were compared.
    """
    if isinstance(flt, float):
        assert flt == float(Fraction(exact)), where
        assert not (flt == 0 and math.copysign(1.0, flt) < 0), where
        return 1
    if isinstance(flt, str) and "\n" in flt:
        pairs = [(e, f) for le, lf in itertools.zip_longest(exact.splitlines(), flt.splitlines())
                 for e, f in itertools.zip_longest(le.split(), lf.split())]
        numbers = [(e, f) for e, f in pairs if e != f]
        for e, f in numbers:
            assert float(f) == float(Fraction(e)) and not (float(f) == 0 and f.startswith("-")), (where, e, f)
        return len(numbers)
    if isinstance(flt, dict):
        assert exact.keys() == flt.keys(), where
        return sum(_float_matches_exact(exact[k], flt[k], where + (k,)) for k in flt)
    if isinstance(flt, list):
        assert len(exact) == len(flt), where
        return sum(_float_matches_exact(e, f, where + (i,)) for i, (e, f) in enumerate(zip(exact, flt)))
    assert exact == flt, where
    return 0


def test_to_float_is_the_nearest_double():
    assert to_float(Fraction(43, 72)) == 0.5972222222222222 and to_float(3) == 3.0
    assert to_float(sqrt_to_tower(Fraction(1, 20))) == 0.22360679774997896
    # a + c sqrt(2) with a = -isqrt(2 c^2): the two terms cancel about twice
    # the digits of c, which 40 fixed digits would lose
    for k in (5, 30, 60):
        c = 10 ** k
        a = -math.isqrt(2 * c * c)
        with localcontext() as ctx:
            ctx.prec = 400
            want = float(Decimal(a) + Decimal(c) * Decimal(2).sqrt())
        assert to_float(TowerScalar(a, 0, c, 0, 2)) == want, k
    for x in (TowerScalar(0, 1), sqrt_to_tower(-2), Fraction(10 ** 400), Fraction(-1, 10 ** 400)):
        with pytest.raises(ValueError):
            to_float(x)


def test_float_reports_are_the_exact_reports_rounded(tmp_path, capsys):
    texts = {"heis3.alg": HEIS3, "heis5.alg": HEIS5_MIXED, "su2.alg": SU2,
             "heis3_lorentz.alg": HEIS3_LORENTZ, "fil5.alg": FIL5_MIXED, "fil4.alg": FIL4,
             **CLASSIFY_INPUTS}
    rng = random.Random(26)
    for q in range(20):
        L = random_nilpotent(rng)
        signs = tuple(rng.choice((1, -1)) for _ in range(L.dim))
        texts["random%d.alg" % q] = serialize_algebra(MetricLieAlgebra(L, signs))
    compared = irrational = 0
    for name, text in texts.items():
        path = tmp_path / name
        path.write_text(text)
        for command in ("validate", "curvature", "nilsoliton", "extend"):
            reports = []
            for backend in ("exact", "float"):
                code = main([command, str(path), "--backend", backend, "--json"])
                report = json.loads(capsys.readouterr().out)
                del report["backend"], report["timing_ms"]
                reports.append((code, report))
            (code, exact), (float_code, flt) = reports
            if command == "extend" and "irrational" in exact.get("error", ""):
                # the .alg format cannot write sqrt(m); the float form writes its digits
                assert code == 1 and float_code == 0, name
                irrational += 1
                continue
            assert code == float_code, (command, name)
            compared += _float_matches_exact(exact, flt, (command, name))
    assert compared > 700 and irrational >= 1


def test_float_extension_of_filiform_4_matches_golden_text(tmp_path, capsys):
    p = tmp_path / "fil4.alg"
    p.write_text(FIL4)
    assert main(["extend", str(p), "--backend", "float"]) == 0
    assert capsys.readouterr().out.replace(str(tmp_path) + os.sep, "") == (
        "command: extend (float backend)\n"
        "input: fil4.alg\n"
        "einstein extension with lambda = -1.5\n"
        "dim 5\n"
        "signs +1 +1 +1 +1 +1\n"
        "1 2 3 1.0\n"
        "1 3 4 1.0\n"
        "1 5 1 0.22360679774997896\n"
        "2 5 2 0.4472135954999579\n"
        "3 5 3 0.6708203932499369\n"
        "4 5 4 0.8944271909999159\n"
        "abelian: 5\n")


# the .alg format cannot write a square root, so the Einstein extension of
# filiform 4, whose brackets carry sqrt(5), is built in process and the
# `curvature` command's results are hashed as above
TOWER_CURVATURE_DIGEST = "e06ae0e88c4319ee3e55026680b209a4873263604d4755b76d04c1ee7b27b331"


def test_tower_curvature_matches_golden_digest():
    M, _ = parse_algebra_text("dim 4\n1 2 3 1\n1 3 4 1\n")
    ext, decomp, _ = einstein_extension(M)
    assert any(not isinstance(x, Fraction) and not x.is_rational for *_, x in ext.algebra.brackets)
    results, ok = _IMPLS["curvature"](ext, decomp, None, JobSpec("curvature", ()))
    text = json.dumps(results, indent=2, sort_keys=True)
    assert ok and hashlib.sha256(text.encode("utf-8")).hexdigest() == TOWER_CURVATURE_DIGEST


def test_halfspace_verdicts_have_radius_one_over_two_lambda():
    # the classifier reads r = ng/|Tr phi_0| once the trace identity holds;
    # that identity is then also r = 1/(2|lambda|), checked here on every
    # HyperbolicHalfSpace verdict of the classify inputs above and of every
    # half-space signature with n <= 5
    M, _ = parse_algebra_text(HEIS3)
    ext, ext_decomp, _ = einstein_extension(M)
    cases = [parse_algebra_text(text) for text in CLASSIFY_INPUTS.values()] + [(ext, ext_decomp)]
    models = [parse_halfspace_spec("halfspace n=4 r=1/2 signs=1,-1,1,-1")] + [
        HalfSpaceModel(n, signs, r) for n in range(2, 6)
        for signs in itertools.product((1, -1), repeat=n) for r in (Fraction(1, 2), Fraction(2, 3))]
    cases += [(model.algebra, model.decomposition) for model in models]
    radii = []
    for M, decomp in cases:
        verdict = classify_pseudo_iwasawa(M, decomp).verdict
        if verdict.kind == "HyperbolicHalfSpace":
            lam_sq = lambda_candidates(M)[0].lam_squared
            assert 4 * verdict.r * verdict.r * abs(lam_sq) == 1, (M, verdict)
            radii.append(verdict.r)
    # twice_id.alg and every half-space model
    assert radii == [Fraction(1, 2)] + [model.r for model in models]
