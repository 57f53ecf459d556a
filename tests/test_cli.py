"""CLI contract tests: formats, exit codes, determinism, round trips."""

import json
import math
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import cica
from cica import cca_decompose, ci_curve, cli, component_count, discrete_ci, waterfill
from conftest import (
    mutual_info_rho,
    random_basis_joint,
    random_gaussian_joint,
    reference_read_csv_matrix,
    reference_report_text,
    whitened_diag_joint,
)

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

    @pytest.mark.parametrize("ridge", ["-0.05", "nan"])
    def test_bad_ridge_exit_2(self, tmp_path, rng, ridge, capsys):
        x = tmp_path / "x.csv"
        y = tmp_path / "y.csv"
        for path, cols in ((x, rng.standard_normal((20, 2))), (y, rng.standard_normal((20, 1)))):
            header = ",".join("ab"[: cols.shape[1]])
            np.savetxt(path, cols, delimiter=",", header=header, comments="")
        out = tmp_path / "r.json"
        for command, flags in (("cca", ["-k", "1"]), ("gaussian", ["--gamma", "0.1"])):
            argv = [command, "--x", str(x), "--y", str(y), "--ridge", ridge, *flags]
            assert cli.main([*argv, "--out", str(out)]) == 2
            assert "ridge must be finite and >= 0" in capsys.readouterr().err
            assert not out.exists()

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

    def test_gamma_at_total_information_keeps_no_component(self, tmp_path):
        # gamma equal to the report's own total information once gave k = 1,
        # a one-row u_map and no warning while every gamma_i was saturated
        cov = tmp_path / "cov.json"
        cov.write_text(json.dumps({"k_x": np.eye(3).tolist(), "k_y": np.eye(3).tolist(),
                                   "k_xy": np.diag([0.9, 0.6, 0.3]).tolist()}))
        out, curve = tmp_path / "r.json", tmp_path / "curve.csv"
        gamma = "1.1006644944606558"
        argv = ["gaussian", "--cov", str(cov), "--gamma", gamma, "--curve", str(curve),
                "--out", str(out), "--no-meta"]
        assert cli.main(argv) == 0
        rep = json.loads(out.read_text())
        assert repr(rep["total_mutual_information"]) == gamma
        assert rep["c_gamma"] == 0.0
        saturated = [float(mutual_info_rho(r)) for r in rep["rho"]]
        assert rep["gamma_i"] == pytest.approx(saturated, rel=0, abs=1e-15)
        assert rep["k"] == 0
        assert rep["u_map"] == [] and rep["v_map"] == []
        assert "no components are retained" in rep["warnings"][0]
        assert curve.read_text().splitlines()[-1] == f"{gamma},0.0,0"

    @pytest.mark.parametrize("gamma", ["nan", "inf"])
    def test_non_finite_gamma_exit_2(self, cov_file, tmp_path, gamma):
        # NaN wrote c_gamma 0.0 and inf wrote "gamma": Infinity, which is not JSON
        out = tmp_path / "r.json"
        r = run_cli("gaussian", "--cov", str(cov_file), "--gamma", gamma, "--out", str(out))
        assert r.returncode == 2
        assert f"gamma must be finite and >= 0, got {gamma}" in r.stderr
        assert "Traceback" not in r.stderr
        assert not out.exists()

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
        assert "0.999999999900 >= 1 - 1e-6" in r.stderr
        assert "Warning" not in r.stderr and "Traceback" not in r.stderr
        # a correlation within 1e-6 of 1 behind a rotated basis: exit 4 from
        # gaussian and 3 from cca with the measured value, never a report, a
        # Python warning or a traceback
        j = random_basis_joint(np.random.default_rng(6), [1.0 - 5e-7, 0.6, 0.2])
        cov.write_text(json.dumps({"k_x": j.k_x.tolist(), "k_y": j.k_y.tolist(),
                                   "k_xy": j.k_xy.tolist()}))
        for command, flags, code in (("gaussian", ["--gamma", "0"], 4), ("cca", ["-k", "1"], 3)):
            r = run_cli(command, "--cov", str(cov), *flags, "--out", str(tmp_path / "near.json"))
            assert r.returncode == code, r.stderr
            assert "leading canonical correlation 0.9999995" in r.stderr
            assert "Warning" not in r.stderr and "Traceback" not in r.stderr
            assert not (tmp_path / "near.json").exists()

    def test_one_svd_per_call(self, cov_file, tmp_path, monkeypatch):
        # validation whitens each block (one eigh each) and takes the one SVD,
        # which also decides consistency; the basis and the curve reuse it
        calls = {"eigh": 0, "eigvalsh": 0, "svd": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        argv = ["gaussian", "--cov", str(cov_file), "--gamma", "0.2", "--curve",
                str(tmp_path / "curve.csv"), "--out", str(tmp_path / "r.json")]
        assert cli.main(argv) == 0
        assert calls == {"eigh": 2, "eigvalsh": 0, "svd": 1}
        joint = whitened_diag_joint([0.8, 0.5])
        ci_curve(joint, np.linspace(0.0, 1.0, 50))
        assert calls == {"eigh": 4, "eigvalsh": 0, "svd": 2}

    def test_report_matches_separate_waterfill_and_count(self, tmp_path, rng):
        # one water-filling call must give what waterfill plus component_count gave
        cov = tmp_path / "cov.json"
        out = tmp_path / "r.json"
        for _ in range(20):
            j = random_gaussian_joint(rng, 3, 4)
            cov.write_text(json.dumps({"k_x": j.k_x.tolist(), "k_y": j.k_y.tolist(),
                                       "k_xy": j.k_xy.tolist()}))
            j = cli.validate_gaussian(*cli._read_cov_json(cov))  # the model the CLI solves
            rho = cca_decompose(j).rho
            gamma = rng.uniform(0.0, 1.2) * sum(float(mutual_info_rho(r)) for r in rho)
            argv = ["gaussian", "--cov", str(cov), "--gamma", repr(gamma), "--out", str(out),
                    "--no-meta"]
            assert cli.main(argv) == 0
            rep = json.loads(out.read_text())
            alloc = waterfill(rho, gamma)
            assert rep["k"] == component_count(rho, gamma)
            assert rep["c_gamma"] == float(alloc.c_gamma)
            assert rep["water_level"] == alloc.water_level
            assert rep["gamma_i"] == alloc.gamma_i.tolist()


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

    def test_multi_reports_per_source_ties(self, tmp_path, monkeypatch):
        # x3's symbol 1 has no mass, so p(w | x3 = 1) is flat: always a tie
        monkeypatch.setattr(discrete_ci, "_RESTARTS", 2)
        pmf = tmp_path / "m.csv"
        pmf.write_text("x1,x2,x3,p\n0,0,0,0.4\n1,1,0,0.4\n0,1,0,0.2\n1,0,1,0\n")
        out = tmp_path / "m.json"
        code = cli.main(["discrete", "--pmf", str(pmf), "--gamma", "0", "--multi", "--seed", "7",
                         "--out", str(out), "--no-meta"])
        assert code == 0
        features = json.loads(out.read_text())["map_features"]
        ties = features["per_source_ties"]
        assert [len(t) for t in ties] == [len(m) for m in features["per_source_map"]] == [2, 2, 2]
        assert ties[2][1] is True
        assert "u_ties" not in features
        # a pair keeps its u_ties and v_ties keys, the same flags
        pmf.write_text("x,y,p\n0,0,0.45\n0,1,0.05\n1,0,0.05\n1,1,0.45\n")
        code = cli.main(["discrete", "--pmf", str(pmf), "--gamma", "0", "--seed", "7",
                         "--out", str(out), "--no-meta"])
        assert code == 0
        features = json.loads(out.read_text())["map_features"]
        assert features["per_source_ties"] == [features["u_ties"], features["v_ties"]]

    def test_multi_per_source_map_is_the_library_map(self, tmp_path, rng, monkeypatch):
        monkeypatch.setattr(discrete_ci, "_RESTARTS", 2)
        pmf = rng.dirichlet(np.ones(8)).reshape(2, 2, 2)
        path = tmp_path / "m.csv"
        rows = [f"{a},{b},{c},{float(pmf[a, b, c])!r}" for a, b, c in np.ndindex(2, 2, 2)]
        path.write_text("x1,x2,x3,p\n" + "\n".join(rows) + "\n")
        out = tmp_path / "m.json"
        code = cli.main(["discrete", "--pmf", str(path), "--gamma", "0", "--multi",
                         "--seed", "7", "--out", str(out), "--no-meta"])
        assert code == 0
        coupling, _ = cica.solve_relaxed_wyner(
            cica.validate_discrete(pmf), 0.0, cica.SolverOptions(seed=7)
        )
        features = json.loads(out.read_text())["map_features"]
        maps = cica.project_discrete_map(coupling).maps
        assert features["per_source_map"] == [m.tolist() for m in maps]

    def test_solver_failure_exit_5(self, dsbs_file, tmp_path):
        r = run_cli("discrete", "--pmf", str(dsbs_file), "--gamma", "0", "--seed", "1",
                    "--threads", "1", "--out", str(tmp_path / "d.json"), "--card-w", "1")
        # card_w=1 forces W constant and cannot hold the relaxation-0 coupling W = Y
        assert r.returncode == 5
        telemetry = json.loads(r.stderr.split("cica: telemetry: ", 1)[1])
        assert telemetry["card_w"] == 1 and telemetry["card_w_needed"] == 2
        assert "lambda_max" not in telemetry
        assert "use card_w >= 2" in r.stderr

    @pytest.mark.parametrize("flag, value", [("--threads", "0"), ("--threads", "-1")])
    def test_solver_counts_below_one_exit_2(self, dsbs_file, tmp_path, flag, value):
        out = tmp_path / "d.json"
        r = run_cli("discrete", "--pmf", str(dsbs_file), "--gamma", "0", flag, value,
                    "--out", str(out))
        assert r.returncode == 2
        assert f"{flag[2:]} must be >= 1, got {value}" in r.stderr
        assert "Traceback" not in r.stderr
        assert not out.exists()

    @pytest.mark.parametrize("gamma", ["nan", "inf"])
    def test_non_finite_gamma_exit_2(self, dsbs_file, tmp_path, gamma):
        out = tmp_path / "d.json"
        r = run_cli("discrete", "--pmf", str(dsbs_file), "--gamma", gamma, "--out", str(out))
        assert r.returncode == 2
        assert f"gamma must be finite and >= 0, got {gamma}" in r.stderr
        assert "Traceback" not in r.stderr
        assert not out.exists()

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
            "    lambda self, *args: lagrangian(self, *args) + next(calls))\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        r = subprocess.run(
            [sys.executable, "-O", "-c", script, "discrete", "--pmf", str(dsbs_file),
             "--gamma", "0", "--threads", "1", "--out", str(tmp_path / "d.json")],
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


_COV = json.dumps({"k_x": [[1.0]], "k_y": [[1.0]], "k_xy": [[0.5]]})
_COV2 = json.dumps({"k_x": [[1.0, 0.0], [0.0, 1.0]], "k_y": [[1.0, 0.0], [0.0, 1.0]],
                    "k_xy": [[0.5, 0.0], [0.0, 0.3]]})


def _cap_address_space():
    # a regression that sizes a table from a huge index fails fast with
    # MemoryError instead of claiming gigabytes
    resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))


@pytest.mark.parametrize(
    "name, content, flags, code",
    [
        pytest.param("cov.json", "[1, 2]", [], 2, id="cov-list"),
        pytest.param("cov.json", '{"k_x": {"a": 1}, "k_y": [[1.0]], "k_xy": [[0.5]]}', [], 2,
                     id="cov-dict-matrix"),
        pytest.param("cov.json", "", [], 2, id="cov-empty"),
        pytest.param("cov.json", _COV, ["--curve-points", "0"], 2, id="curve-points-0"),
        # the curve's arrays are sized points x components before the grid is built
        pytest.param("cov.json", _COV, ["--curve-points", "1000000000"], 3, id="curve-points-1e9"),
        pytest.param("cov.json", _COV2, ["--curve-points", str(2**23 + 1)], 3,
                     id="curve-points-times-components"),
        pytest.param("p.csv", "x,y,p\n0,0,0.5\n1.5,1,0.5\n", [], 2, id="index-1.5"),
        pytest.param("p.csv", "x,y,p\n0,0,0.5\n0,1000000000,0.5\n", [], 3, id="index-1e9"),
        pytest.param("p.csv", "", [], 2, id="empty"),
        pytest.param("p.csv", "x,y,p\n", [], 2, id="header-only"),
        pytest.param("p.csv", "x,y,p\n0,0,0.5\n1,1,0.25,0.25\n", [], 2, id="ragged"),
        pytest.param("p.csv", "x,y,p\n0,0,half\n1,1,0.5\n", [], 2, id="non-numeric"),
        pytest.param("p.csv", "x,y,p\n0,0,nan\n1,1,0.5\n", [], 3, id="nan-entry"),
        pytest.param("p.csv", "x,y,p\n-1,0,0.5\n1,1,0.5\n", [], 2, id="negative-index"),
        pytest.param("p.csv", "x,y,p\n0,inf,0.5\n1,1,0.5\n", [], 2, id="infinite-index"),
        # a cell named twice was summed; estimate_pmf still counts repeated samples
        pytest.param("p.csv", "x,y,p\n0,0,0.25\n0,0,0.25\n1,1,0.5\n", [], 2, id="repeated-cell"),
        pytest.param("x.csv", "", [], 2, id="sample-empty"),
        pytest.param("x.csv", "x0,x1\n", [], 2, id="sample-header-only"),
        pytest.param("x.csv", "x0,x1\n\n\n", [], 2, id="sample-header-blank-lines"),
        pytest.param("x.csv", "x0,x1\n1,2\n3\n4,5\n", [], 2, id="sample-ragged"),
        pytest.param("x.csv", "x0\n1\nabc\n3\n", [], 2, id="sample-non-numeric"),
        pytest.param("x.csv", "x0,x1\n1,2,\n3,4,\n5,6,\n", [], 2, id="sample-trailing-comma"),
        # float() accepted digit separators; numpy's reader does not
        pytest.param("x.csv", "x0\n1_0\n2\n3\n4\n", [], 2, id="sample-underscore"),
        pytest.param("x.csv", "x0\n1\nnan\n3\n4\n", [], 3, id="sample-nan"),
        pytest.param("x.csv", "x0\n1\n", [], 3, id="sample-single-row"),
    ],
)
def test_malformed_input_exit_code(tmp_path, name, content, flags, code):
    path = tmp_path / name
    path.write_text(content)
    out, curve = tmp_path / "r.json", tmp_path / "curve.csv"
    if name.endswith(".json"):
        argv = ["gaussian", "--cov", str(path), "--gamma", "0.1", "--curve", str(curve)]
    elif name == "x.csv":
        # a valid y with as many rows as x has data lines
        y = tmp_path / "y.csv"
        rows = max(1, sum(1 for line in content.splitlines()[1:] if line.strip()))
        y.write_text("y0\n" + "".join(f"{i}.5\n" for i in range(rows)))
        argv = ["cca", "--x", str(path), "--y", str(y), "-k", "1"]
    else:
        argv = ["discrete", "--pmf", str(path), "--gamma", "0"]
    r = subprocess.run(RUN + argv + flags + ["--out", str(out)], capture_output=True, text=True,
                       preexec_fn=_cap_address_space)
    assert r.returncode == code, r.stderr
    assert "Traceback" not in r.stderr
    assert not out.exists() and not curve.exists()


def _write_csv(path, data):
    path.write_text(
        ",".join(f"c{j}" for j in range(data.shape[1])) + "\n"
        + "".join(",".join(repr(float(v)) for v in row) + "\n" for row in data)
    )


def _assert_reads_like_float(path):
    got = cli._read_csv_matrix(path)
    want = reference_read_csv_matrix(path)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("a,b\n 1.5 , -2\n3 ,\t4e-3 \n", id="spaces"),
        pytest.param('a,b\n"1.5","-2"\n3,"4e-3"\n', id="quoted"),
        pytest.param("a,b\n\n1.5,-2\n\n3,4e-3\n\n", id="blank-lines"),
        pytest.param("a,b\r\n1.5,-2\r\n3,4e-3\r\n", id="crlf"),
        pytest.param("a,b\n1.5,-2\n3,4e-3", id="no-final-newline"),
        pytest.param("a,b,c\nnan,inf,-inf\n-nan,Infinity,NaN\n+inf,INF,-Infinity\n", id="nan-inf"),
    ],
)
def test_sample_csv_values_match_float(tmp_path, text):
    path = tmp_path / "s.csv"
    path.write_bytes(text.encode())
    _assert_reads_like_float(path)


def test_sample_csv_random_matrix_matches_float(tmp_path):
    gen = np.random.default_rng(20261018)
    data = gen.standard_normal((200, 7)) * 10.0 ** gen.uniform(-310, 300, (200, 7))
    data[0, :2] = 0.0, -0.0
    _write_csv(tmp_path / "s.csv", data)
    _assert_reads_like_float(tmp_path / "s.csv")


_SHAPES = st.sampled_from([(), (0,), (3, 0), (0, 3), (2, 3, 4), (4,), (3, 2)])
_ARRAYS = st.one_of(
    hnp.arrays(np.float64, _SHAPES, elements=st.floats()),
    hnp.arrays(np.float32, _SHAPES, elements=st.floats(width=32)),
    hnp.arrays(np.int64, _SHAPES),
    hnp.arrays(np.uint8, _SHAPES),
    hnp.arrays(np.bool_, _SHAPES),
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(),
    st.sampled_from(["a, b", ", ", "\u00e4, \u00df", "\u65e5\u672c, \u8a9e"]),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
)
_BLOCK = cli._REPORT_BLOCK_ROWS
_REPORTS = st.recursive(
    st.one_of(_ARRAYS, _SCALARS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=12,
)


@given(_REPORTS)
@example({
    "scalar": np.array(2.5),
    "empty": [np.zeros(0), np.zeros((3, 0)), np.zeros((0, 3), dtype=int)],
    "cube": np.arange(24).reshape(2, 3, 4),
    "special": np.array([[np.nan, np.inf], [-np.inf, -0.0]]),
    "flags": (np.array([True, False]), None, np.int64(3), np.float64(0.1)),
    "text, \u00e4": "a, b \u65e5\u672c",
})
@example({
    # arrays that end just before, on and after a block boundary of the writer
    "rows": [np.arange(n * 3).reshape(n, 3) / 7.0
             for n in (_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3)],
    "flat": np.linspace(-1.0, 1.0, 2 * _BLOCK + 3),
    "cube": np.arange((_BLOCK + 2) * 6).reshape(_BLOCK + 2, 2, 3),
    "column": np.arange(2 * _BLOCK + 3, dtype=float).reshape(-1, 1) / 3.0,
    "empty": [np.zeros((0, 3)), np.zeros((3, 0))],
})
def test_encode_matches_json_indent(report):
    assert "".join(cli._encode(report)) + "\n" == reference_report_text(report)


def test_report_writer_peak_below_array_bytes(tmp_path):
    # the writer holds one block of rows as text at a time; encoding the
    # whole array at once peaked at about 23 times its bytes
    a = np.random.default_rng(5).standard_normal((50_000, 5))
    out = tmp_path / "r.json"
    tracemalloc.start()
    try:
        cli._write_report(out, {"a": a}, no_meta=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < a.nbytes, f"peak {peak} bytes for a {a.nbytes}-byte array"
    np.testing.assert_array_equal(np.array(json.loads(out.read_text())["a"]), a)


@pytest.mark.parametrize("command", ["cca", "gaussian", "discrete", "toy"])
def test_report_text_matches_json_indent(command, dsbs_file, tmp_path, rng, monkeypatch):
    x = rng.standard_normal((60, 3))
    y = 0.6 * x[:, :2] + 0.8 * rng.standard_normal((60, 2))
    _write_csv(tmp_path / "x.csv", x)
    _write_csv(tmp_path / "y.csv", y)
    samples = ["--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv")]
    argv = {
        "cca": ["cca", *samples, "-k", "2"],
        "gaussian": ["gaussian", *samples, "--gamma", "0.1"],
        "discrete": ["discrete", "--pmf", str(dsbs_file), "--gamma", "0.05", "--seed", "3"],
        "toy": ["toy", "--a0", "0.1"],
    }[command]
    reports = []
    write = cli._write_report

    def spy(path, report, no_meta):
        reports.append(report)
        write(path, report, no_meta)

    monkeypatch.setattr(cli, "_write_report", spy)
    out = tmp_path / "r.json"
    assert cli.main(argv + ["--out", str(out), "--no-meta"]) == 0
    assert out.read_text() == reference_report_text(reports[0])


def test_curve_k_zero_rows_read_zero(tmp_path):
    # the last grid point is the total information, where k = 0 once read
    # c_gamma a few 1e-16 above zero
    rho = 0.97 * 0.95 ** np.arange(100)
    cov = tmp_path / "cov.json"
    eye = np.eye(100).tolist()
    cov.write_text(json.dumps({"k_x": eye, "k_y": eye, "k_xy": np.diag(rho).tolist()}))
    curve = tmp_path / "curve.csv"
    argv = ["gaussian", "--cov", str(cov), "--gamma", "0.5", "--curve", str(curve),
            "--curve-points", "200", "--out", str(tmp_path / "r.json"), "--no-meta"]
    assert cli.main(argv) == 0
    rows = [line.split(",") for line in curve.read_text().splitlines()[1:]]
    assert rows[-1][2] == "0"
    assert all(c == "0.0" for _, c, k in rows if k == "0")


class TestCmdToy:
    def test_card_w_defaults_to_4(self):
        parser = cli.build_parser()
        assert parser.parse_args(["toy", "--a0", "0.1", "--out", "t.json"]).card_w == 4
        assert parser.parse_args(["toy", "--a0", "0.1", "--card-w", "9", "--out", "t.json"]).card_w == 9
        assert parser.parse_args(["discrete", "--pmf", "p.csv", "--gamma", "0", "--out", "d.json"]).card_w is None

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

    def test_byte_identical_across_thread_counts(self, dsbs_file, tmp_path):
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}.json"
            r = run_cli("discrete", "--pmf", str(dsbs_file), "--gamma", "0.05", "--seed", "11",
                        "--threads", threads, "--out", str(out), "--no-meta")
            assert r.returncode == 0, r.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_byte_identical_across_blas_threads(self, dsbs_file, tmp_path):
        # the discrete engine's marginals are BLAS products
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"blas{threads}.json"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            r = subprocess.run(
                RUN + ["discrete", "--pmf", str(dsbs_file), "--gamma", "0.05", "--seed", "11",
                       "--out", str(out), "--no-meta"],
                capture_output=True, text=True, env=env,
            )
            assert r.returncode == 0, r.stderr
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


def test_cli_import_skips_scipy_and_thread_pool():
    # a fresh `import cica.cli` is the benchmark's setup cost
    probe = "import sys, cica.cli; print(sorted({'scipy', 'concurrent.futures'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(Path(cica.__file__).resolve().parents[1]))
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"
