"""The fixed-case comparison script: its diff rules and its exit codes."""

import json
import math

import numpy as np
import pytest

import solve_cases
from cica import SolverOptions, ci_curve_discrete, validate_discrete, waterfill
from conftest import quantized_gaussian

CASE = {
    "objective": "0x1.3333333333333p-2",
    "lam": 50.0,
    "restarts_used": 128,
    "bracket_gap": 0.25,
    "seconds": 1.5,
}


def case_file(tmp_path, name, cases):
    path = tmp_path / name
    path.write_text(json.dumps(cases), encoding="utf-8")
    return str(path)


def test_compare_ignores_seconds():
    assert solve_cases.compare({"a": CASE}, {"a": dict(CASE, seconds=9.0)}) == []


def test_compare_reports_a_differing_field():
    diffs = solve_cases.compare({"a": CASE}, {"a": dict(CASE, restarts_used=8)})
    assert diffs == ["a: restarts_used 128 != 8"]


def test_compare_reports_a_field_only_one_side_has():
    diffs = solve_cases.compare({"a": CASE}, {"a": dict(CASE, ceiling_gap=0.1)})
    assert diffs == ["a: ceiling_gap None != 0.1"]


def test_compare_reports_differing_case_sets():
    diffs = solve_cases.compare({"a": CASE, "b": CASE}, {"a": CASE, "c": CASE})
    assert diffs == ["case sets differ: ['b', 'c']"]


def test_main_exit_codes(tmp_path, capsys):
    a = case_file(tmp_path, "a.json", {"a": CASE})
    same = case_file(tmp_path, "same.json", {"a": dict(CASE, seconds=0.1)})
    other = case_file(tmp_path, "other.json", {"a": dict(CASE, lam=25.0)})
    assert solve_cases.main(["--compare", a, same]) == 0
    assert "1 cases match in every field but seconds" in capsys.readouterr().out
    assert solve_cases.main(["--compare", a, other]) == 1
    assert "a: lam 50.0 != 25.0" in capsys.readouterr().out


def test_compare_ends_with_each_files_totals(tmp_path, capsys):
    # a diff in counts alone reads at a glance; the exit status still follows the diffs
    cases = {"a": dict(CASE, parts_rows=10, parts_calls=3),
             "b": dict(CASE, parts_rows=5, parts_calls=2)}
    a = case_file(tmp_path, "a.json", cases)
    b = case_file(tmp_path, "b.json", dict(cases, b=dict(cases["b"], parts_rows=4, seconds=0.25)))
    assert solve_cases.main(["--compare", a, b]) == 1
    totals_a = f"{a} parts_rows 15, parts_calls 5, 3.00 s"
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["b: parts_rows 5 != 4",
                     f"totals: {totals_a}; {b} parts_rows 14, parts_calls 5, 1.75 s"]
    assert solve_cases.main(["--compare", a, a]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "2 cases match in every field but seconds", f"totals: {totals_a}; {totals_a}"]


def test_run_case_gaps():
    # (0.9, 2) at gamma 0.1: the lower bound is I(X;Y) - gamma, the ceiling the Gaussian C_gamma
    pmf = quantized_gaussian(0.9, 2)
    info = sum(p * math.log(p / (pmf.sum(axis=1)[x] * pmf.sum(axis=0)[y]))
               for (x, y), p in np.ndenumerate(pmf))
    ceiling = float(waterfill([0.9], 0.1).c_gamma)
    got = solve_cases.run_case(pmf, 0.1, None, 0, ceiling)
    objective = float.fromhex(got["objective"])
    assert got["bracket_gap"] == pytest.approx(objective - (info - 0.1), abs=1e-12)
    assert got["bracket_gap"] >= 0.0
    assert got["ceiling_gap"] == objective - ceiling < 0.0  # a 2x2 value is at most ln 2
    assert "ceiling_gap" not in solve_cases.run_case(pmf, 0.1, None, 0)


def test_curve_rows_are_float_hex_and_compared():
    name, pmf, grid, seed, rho = solve_cases.curve_cases()[0]  # DSBS(0.1), 9 points
    got = solve_cases.run_curve(pmf, grid, seed, rho)
    rows = [tuple(float.fromhex(v) for v in row) for row in got["rows"]]
    assert rows == ci_curve_discrete(validate_discrete(pmf), grid, SolverOptions(seed=seed))
    changed = [list(row) for row in got["rows"]]
    changed[3][1] = (rows[3][1] + 1e-12).hex()
    diffs = solve_cases.compare({name: got}, {name: dict(got, rows=changed)})
    assert len(diffs) == 1 and diffs[0].startswith(f"{name}: rows ")


def test_run_curve_ceiling_gap():
    pmf, grid = quantized_gaussian(0.9, 2), [0.0, 0.1]
    got = solve_cases.run_curve(pmf, grid, 0, 0.9)
    want = max(float.fromhex(row[1]) - float(waterfill([0.9], g).c_gamma)
               for g, row in zip(grid, got["rows"]))
    assert got["ceiling_gap"] == want
    assert "ceiling_gap" not in solve_cases.run_curve(pmf, grid, 0)
