"""CLI contract tests: formats, exit codes, determinism, round trips."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from cica import ci_curve, cli
from conftest import random_basis_joint, whitened_diag_joint

RUN = [sys.executable, "-m", "cica.cli"]


def run_cli(*args):
    return subprocess.run(RUN + list(args), capture_output=True, text=True)


@pytest.fixture
def cov_file(tmp_path):
    path = tmp_path / "cov.json"
    path.write_text(
        json.dumps(
            {
                "k_x": [[1.0, 0.0], [0.0, 1.0]],
                "k_y": [[1.0, 0.0], [0.0, 1.0]],
                "k_xy": [[0.8, 0.0], [0.0, 0.5]],
            }
        )
    )
    return path


@pytest.fixture
def dsbs_file(tmp_path):
    path = tmp_path / "dsbs.csv"
    path.write_text("x,y,p\n0,0,0.45\n0,1,0.05\n1,0,0.05\n1,1,0.45\n")
    return path


class TestCmdCca:
    def test_cov_input(self, cov_file, tmp_path):
        out = tmp_path / "r.json"
        r = run_cli("cca", "--cov", str(cov_file), "-k", "1", "--out", str(out))
        assert r.returncode == 0
        rep = json.loads(out.read_text())
        assert rep["rho"] == [0.8, 0.5]
        assert len(rep["u_k"][0]) == 1

    def test_sample_input_with_projections(self, tmp_path, rng):
        n = 500
        x = rng.standard_normal((n, 2))
        y = 0.6 * x + 0.8 * rng.standard_normal((n, 2))
        xp = tmp_path / "x.csv"
        yp = tmp_path / "y.csv"
        xp.write_text("a,b\n" + "\n".join(f"{float(r[0])!r},{float(r[1])!r}" for r in x) + "\n")
        yp.write_text("a,b\n" + "\n".join(f"{float(r[0])!r},{float(r[1])!r}" for r in y) + "\n")
        out = tmp_path / "r.json"
        r = run_cli("cca", "--x", str(xp), "--y", str(yp), "-k", "2", "--out", str(out))
        assert r.returncode == 0, r.stderr
        rep = json.loads(out.read_text())
        assert len(rep["projections"]["u"]) == n

    def test_missing_inputs_exit_2(self, tmp_path):
        r = run_cli("cca", "-k", "1", "--out", str(tmp_path / "r.json"))
        assert r.returncode == 2
        assert "usage" in r.stderr.lower() or "provide" in r.stderr

    def test_both_inputs_exit_2(self, cov_file, tmp_path):
        r = run_cli(
            "cca", "--cov", str(cov_file), "--x", "nope.csv", "--y", "nope.csv",
            "-k", "1", "--out", str(tmp_path / "r.json"),
        )
        assert r.returncode == 2

    def test_bad_k_exit_3(self, cov_file, tmp_path):
        r = run_cli("cca", "--cov", str(cov_file), "-k", "5", "--out", str(tmp_path / "r.json"))
        assert r.returncode == 3

    def test_invalid_model_exit_3(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"k_x": [[1.0]], "k_y": [[1.0]], "k_xy": [[1.5]]}))
        r = run_cli("cca", "--cov", str(bad), "-k", "1", "--out", str(tmp_path / "r.json"))
        assert r.returncode == 3

    def test_missing_file_exit_2(self, tmp_path):
        r = run_cli("cca", "--cov", str(tmp_path / "absent.json"), "-k", "1",
                    "--out", str(tmp_path / "r.json"))
        assert r.returncode == 2


class TestCmdGaussian:
    def test_scalar_wyner_value(self, tmp_path):
        cov = tmp_path / "cov.json"
        cov.write_text(json.dumps({"k_x": [[1.0]], "k_y": [[1.0]], "k_xy": [[0.5]]}))
        out = tmp_path / "r.json"
        r = run_cli("gaussian", "--cov", str(cov), "--gamma", "0", "--out", str(out))
        assert r.returncode == 0
        rep = json.loads(out.read_text())
        assert rep["c_gamma"] == pytest.approx(0.5 * math.log(3.0), abs=1e-12)

    def test_gamma_beyond_total_information(self, cov_file, tmp_path):
        out = tmp_path / "r.json"
        r = run_cli("gaussian", "--cov", str(cov_file), "--gamma", "2.0", "--out", str(out))
        assert r.returncode == 0
        rep = json.loads(out.read_text())
        assert rep["k"] == 0
        assert rep["u_map"] == []
        assert rep["warnings"]

    def test_units_bits(self, cov_file, tmp_path):
        nats = tmp_path / "nats.json"
        bits = tmp_path / "bits.json"
        run_cli("gaussian", "--cov", str(cov_file), "--gamma", "0.2", "--out", str(nats))
        run_cli("gaussian", "--cov", str(cov_file), "--gamma", "0.2", "--units", "bits",
                "--out", str(bits))
        rn = json.loads(nats.read_text())
        rb = json.loads(bits.read_text())
        assert rb["c_gamma"] == pytest.approx(rn["c_gamma"] / math.log(2.0), rel=1e-12)
        assert rb["units"] == "bits"

    def test_curve_csv(self, cov_file, tmp_path):
        out = tmp_path / "r.json"
        curve = tmp_path / "curve.csv"
        r = run_cli("gaussian", "--cov", str(cov_file), "--gamma", "0.2",
                    "--curve", str(curve), "--out", str(out))
        assert r.returncode == 0
        lines = curve.read_text().splitlines()
        assert lines[0] == "gamma,c_gamma,k"
        c = [float(line.split(",")[1]) for line in lines[1:]]
        k = [int(line.split(",")[2]) for line in lines[1:]]
        assert all(a >= b - 1e-12 for a, b in zip(c, c[1:]))
        assert all(a >= b for a, b in zip(k, k[1:]))

    def test_non_finite_cov_exit_3(self, tmp_path):
        cov = tmp_path / "cov.json"
        cov.write_text(json.dumps({"k_x": [[float("nan")]], "k_y": [[1.0]], "k_xy": [[0.5]]}))
        r = run_cli("gaussian", "--cov", str(cov), "--gamma", "0", "--out", str(tmp_path / "r.json"))
        assert r.returncode == 3
        assert "Traceback" not in r.stderr

    def test_perfect_correlation_exit_4(self, tmp_path):
        cov = tmp_path / "cov.json"
        cov.write_text(json.dumps({"k_x": [[1.0]], "k_y": [[1.0]], "k_xy": [[0.9999999999]]}))
        r = run_cli("gaussian", "--cov", str(cov), "--gamma", "0", "--out", str(tmp_path / "r.json"))
        assert r.returncode == 4
        # a correlation within 1e-6 of 1 behind a rotated basis: clamped, then
        # exit 4 from gaussian and 3 from cca, never a report or a traceback
        j = random_basis_joint(np.random.default_rng(6), [1.0 - 5e-7, 0.6, 0.2])
        cov.write_text(json.dumps({"k_x": j.k_x.tolist(), "k_y": j.k_y.tolist(),
                                   "k_xy": j.k_xy.tolist()}))
        for command, flags, code in (("gaussian", ["--gamma", "0"], 4), ("cca", ["-k", "1"], 3)):
            r = run_cli(command, "--cov", str(cov), *flags, "--out", str(tmp_path / "near.json"))
            assert r.returncode == code, r.stderr
            assert "clamped" in r.stderr and "Traceback" not in r.stderr
            assert not (tmp_path / "near.json").exists()

    def test_one_svd_per_call(self, cov_file, tmp_path, monkeypatch):
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(1) or svd(*a, **kw))
        argv = ["gaussian", "--cov", str(cov_file), "--gamma", "0.2", "--curve",
                str(tmp_path / "curve.csv"), "--out", str(tmp_path / "r.json")]
        assert cli.main(argv) == 0
        assert len(calls) == 1
        ci_curve(whitened_diag_joint([0.8, 0.5]), np.linspace(0.0, 1.0, 50))
        assert len(calls) == 2


class TestCmdDiscrete:
    def test_dsbs_report(self, dsbs_file, tmp_path):
        out = tmp_path / "d.json"
        r = run_cli("discrete", "--pmf", str(dsbs_file), "--gamma", "0", "--seed", "7",
                    "--threads", "1", "--out", str(out))
        assert r.returncode == 0, r.stderr
        rep = json.loads(out.read_text())
        assert abs(rep["upper_bound"] - 0.6049515261814267) < 2e-2
        assert rep["value_is_upper_bound"] is True
        assert rep["achieved_gamma"] <= 5e-3
        assert len(rep["coupling"]["q_w_given_xy"]) == rep["card_w"]

    def test_product_pmf_collapses(self, tmp_path):
        pmf = tmp_path / "prod.csv"
        pmf.write_text("x,y,p\n0,0,0.18\n0,1,0.42\n1,0,0.12\n1,1,0.28\n")
        out = tmp_path / "d.json"
        r = run_cli("discrete", "--pmf", str(pmf), "--gamma", "0", "--seed", "3",
                    "--threads", "1", "--out", str(out))
        assert r.returncode == 0
        rep = json.loads(out.read_text())
        assert rep["upper_bound"] <= 1e-6

    def test_multi_three_sources(self, tmp_path):
        pmf = tmp_path / "m.csv"
        pmf.write_text("x1,x2,x3,p\n0,0,0,0.5\n1,1,1,0.5\n")
        out = tmp_path / "m.json"
        r = run_cli("discrete", "--pmf", str(pmf), "--gamma", "0", "--multi", "--seed", "7",
                    "--threads", "1", "--out", str(out))
        assert r.returncode == 0, r.stderr
        rep = json.loads(out.read_text())
        assert abs(rep["upper_bound"] - math.log(2.0)) < 2e-2
        assert len(rep["map_features"]["per_source_map"]) == 3

    def test_solver_failure_exit_5(self, dsbs_file, tmp_path):
        r = run_cli("discrete", "--pmf", str(dsbs_file), "--gamma", "0", "--seed", "1",
                    "--restarts", "1", "--threads", "1", "--out", str(tmp_path / "d.json"),
                    "--card-w", "1")
        # card_w=1 forces W constant: infeasible at gamma=0 for a dependent pair
        assert r.returncode == 5
        assert "telemetry" in r.stderr

    def test_bad_pmf_exit_2(self, tmp_path):
        pmf = tmp_path / "bad.csv"
        pmf.write_text("x,y\n0,0\n")
        r = run_cli("discrete", "--pmf", str(pmf), "--gamma", "0", "--out", str(tmp_path / "d.json"))
        assert r.returncode == 2

    def test_non_finite_pmf_exit_3(self, tmp_path):
        pmf = tmp_path / "nan.csv"
        pmf.write_text("x,y,p\n0,0,nan\n0,1,0.5\n1,0,0.25\n1,1,0.25\n")
        r = run_cli("discrete", "--pmf", str(pmf), "--gamma", "0", "--out", str(tmp_path / "d.json"))
        assert r.returncode == 3
        assert "Traceback" not in r.stderr

    def test_lagrangian_increase_exit_5_under_optimize(self, dsbs_file, tmp_path):
        # the monotonicity check must not be an assert, which -O strips
        script = (
            "import itertools, sys\n"
            "from cica import cli, discrete_ci\n"
            "calls = itertools.count()\n"
            "lagrangian = discrete_ci._Engine._lagrangian\n"
            "discrete_ci._Engine._lagrangian = (\n"
            "    lambda self, parts, lam: lagrangian(self, parts, lam) + next(calls))\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        r = subprocess.run(
            [sys.executable, "-O", "-c", script, "discrete", "--pmf", str(dsbs_file),
             "--gamma", "0", "--restarts", "1", "--threads", "1", "--out", str(tmp_path / "d.json")],
            capture_output=True, text=True,
        )
        assert r.returncode == 5, r.stderr
        assert "Lagrangian increased" in r.stderr
        assert "Traceback" not in r.stderr

    def test_unnormalized_pmf_exit_3(self, tmp_path):
        pmf = tmp_path / "bad.csv"
        pmf.write_text("x,y,p\n0,0,0.5\n1,1,0.4\n")
        r = run_cli("discrete", "--pmf", str(pmf), "--gamma", "0", "--out", str(tmp_path / "d.json"))
        assert r.returncode == 3


class TestCmdToy:
    def test_comparison_block(self, tmp_path):
        out = tmp_path / "toy.json"
        r = run_cli("toy", "--a0", "0.1", "--seed", "7", "--threads", "1", "--out", str(out))
        assert r.returncode == 0, r.stderr
        rep = json.loads(out.read_text())
        assert rep["cca"]["max_rho"] <= 1e-10
        assert rep["comparison"]["cica_features_capture"] > 0.3
        u = rep["cica"]["u"]
        assert u[0] == u[3] and u[1] == u[2] and u[0] != u[1]


class TestDeterminismAndRoundTrip:
    def test_byte_identical_reports(self, dsbs_file, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            r = run_cli("discrete", "--pmf", str(dsbs_file), "--gamma", "0.05", "--seed", "11",
                        "--threads", "2", "--out", str(out), "--no-meta")
            assert r.returncode == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_gaussian_byte_identical(self, cov_file, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            run_cli("gaussian", "--cov", str(cov_file), "--gamma", "0.2", "--out", str(out),
                    "--no-meta")
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_json_round_trip_exact(self, dsbs_file, tmp_path):
        out = tmp_path / "d.json"
        run_cli("discrete", "--pmf", str(dsbs_file), "--gamma", "0", "--seed", "7",
                "--threads", "1", "--out", str(out), "--no-meta")
        rep = json.loads(out.read_text())
        again = json.loads(json.dumps(rep))
        assert again == rep
        # numeric fields survive the round trip bit-exactly
        assert again["upper_bound"] == rep["upper_bound"]
        arr = np.asarray(again["coupling"]["q_w_given_xy"])
        np.testing.assert_array_equal(arr, np.asarray(rep["coupling"]["q_w_given_xy"]))
