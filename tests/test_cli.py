"""Command line driver: exit codes, config plumbing, deterministic outputs."""

import argparse
import json
import math
import sys

import numpy as np
import pytest

import tubespec.cli as cli
from tubespec.cli import main
from tubespec.jsonio import check_bool, check_float, check_int

SL_CONFIG = {
    "problem": {
        "m0": 0.0, "m1": math.pi,
        "q": {"type": "constant", "value": 0.0},
        "bc_left": {"kind": "dirichlet"},
        "bc_right": {"kind": "dirichlet"},
    },
    "window": [0.0, 30.0],
}

BOUND_CONFIG = {
    "mu_set": [1.0, 1.0],
    "adjacency": [[1], [0]],
    "mu_pair": {"0-1": 1.0},
    "C_rho": 1.0,
}


def _write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _read_json(tmp_path, name):
    return json.loads((tmp_path / name).read_text(encoding="utf-8"))


def test_no_subcommand_is_input_error(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err


@pytest.mark.xfail(strict=True, reason="ROADMAP item 17")
def test_sl_solve_is_not_fooled_by_an_aliased_potential(tmp_path):
    # q = 10 + 5 cos(1024 u) equals 15 at every midpoint of shooting's meshes
    # 64 and 128 and at every node of FD's meshes 256 and 512, so both solvers
    # agree on the spectrum of q = 15; the true eigenvalues are about 10 + j^2
    doc = {**SL_CONFIG, "grid_n": 256, "method": "cross"}
    doc["problem"] = {**SL_CONFIG["problem"], "q": {
        "type": "fourier", "period": math.pi, "a0": 10.0, "cos": [0.0] * 511 + [5.0]}}
    cfg = _write_config(tmp_path, doc)
    code = main(["sl-solve", "--config", cfg, "--out", str(tmp_path)])
    if code == 1:
        return
    assert code == 0
    res = _read_json(tmp_path, "sl_solve.json")["results"]["cross_validated"]
    assert len(res["eigenvalues"]) == 4
    for got, want, err in zip(res["eigenvalues"], (11, 14, 19, 26),
                              res["error_estimate"]):
        assert abs(got - want) <= err


def test_sl_solve_cross_records_three_result_sets(tmp_path):
    cfg = _write_config(tmp_path, SL_CONFIG)
    assert main(["sl-solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    doc = _read_json(tmp_path, "sl_solve.json")
    assert set(doc["results"]) == {"fd", "shooting", "cross_validated"}
    got = doc["results"]["cross_validated"]["eigenvalues"]
    assert got == pytest.approx([1.0, 4.0, 9.0, 16.0, 25.0], rel=1e-8)
    csv_lines = (tmp_path / "sl_solve.csv").read_text().splitlines()
    assert csv_lines[0] == "index,eigenvalue,error"
    assert len(csv_lines) == 6


def test_sl_solve_cross_solves_each_method_once(tmp_path, monkeypatch):
    import tubespec.sturm_liouville as sl
    counts = {"fd": 0, "shooting": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    fd = counted("fd", sl.solve_fd)
    shooting = counted("shooting", sl.solve_shooting)
    for module in (cli, sl):
        monkeypatch.setattr(module, "solve_fd", fd)
        monkeypatch.setattr(module, "solve_shooting", shooting)
    cfg = _write_config(tmp_path, SL_CONFIG)
    assert main(["sl-solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert counts == {"fd": 1, "shooting": 1}

    results = _read_json(tmp_path, "sl_solve.json")["results"]
    checked = sl.cross_check(sl.SpectrumResult(**results["fd"]),
                             sl.SpectrumResult(**results["shooting"]),
                             SL_CONFIG["window"])
    assert results["cross_validated"] == checked.to_json()


def test_sl_solve_exits_1_when_the_methods_disagree(tmp_path, monkeypatch, capsys):
    import tubespec.sturm_liouville as sl
    from tubespec.sturm_liouville import SpectrumResult
    real = sl.solve_shooting

    def shifted(problem, window, **kwargs):
        # 1e-3 above every eigenvalue, far outside FD's bar of 3e-6 at 1
        res = real(problem, window, **kwargs)
        return SpectrumResult(tuple(x + 1e-3 for x in res.eigenvalues),
                              res.error_estimate, res.method, res.grid_n)

    # cross runs solve_cross_validated, which calls the module's solve_shooting
    monkeypatch.setattr(sl, "solve_shooting", shifted)
    out = tmp_path / "out"
    cfg = _write_config(tmp_path, SL_CONFIG)
    assert main(["sl-solve", "--config", cfg, "--out", str(out)]) == 1
    assert "verification failure: method disagreement: FD" in capsys.readouterr().err
    assert not out.exists()


def test_sl_solve_fd_alone(tmp_path):
    from tubespec.sturm_liouville import problem_from_json, solve_fd

    cfg = _write_config(tmp_path, {**SL_CONFIG, "method": "fd", "grid_n": 64})
    assert main(["sl-solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    doc = _read_json(tmp_path, "sl_solve.json")
    assert set(doc["results"]) == {"fd"}
    want = solve_fd(problem_from_json(SL_CONFIG["problem"]), 64,
                    tuple(SL_CONFIG["window"]))
    assert doc["results"]["fd"] == json.loads(json.dumps(want.to_json()))
    lines = (tmp_path / "sl_solve.csv").read_text().splitlines()
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    assert rows == [[i, ev, er] for i, (ev, er) in
                    enumerate(zip(want.eigenvalues, want.error_estimate))]


@pytest.mark.parametrize("method, m1, window", [
    # 318 309 eigenvalues below 1 on [0, 1e6]: shooting refuses the count,
    # FD a window top above its coarse matrix's largest diagonal entry
    pytest.param("shooting", 1e6, [0.0, 1.0], id="shooting"),
    pytest.param("fd", 1e6, [0.0, 1.0], id="fd"),
    # 414 214 eigenvalues j^2 on [0, pi]; the 256-cell FD matrix's largest
    # diagonal entry is about 1.3e4, so its empty answer would be wrong
    pytest.param("fd", math.pi, [1e12, 2e12], id="fd-above-mesh"),
])
def test_sl_solve_refuses_a_window_of_too_many_eigenvalues(tmp_path, capsys, method,
                                                           m1, window):
    doc = {**SL_CONFIG, "method": method, "window": window}
    doc["problem"] = {**SL_CONFIG["problem"], "m1": m1}
    cfg = _write_config(tmp_path, doc)
    assert main(["sl-solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "input error" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


# finite at SLProblem's 65 nodes on [0, 2], but at u = 0.328125, the peak
# of the sine, a0 plus the sine term passes the largest float.  That point
# is a midpoint of shooting's first mesh (64 cells) and a node of FD's probe
_BIG = 1e308
_PEAK_OVERFLOW = {"type": "fourier", "period": 1.3125, "a0": _BIG,
                  "sin": [(sys.float_info.max - _BIG) * (1.0 + 1e-9)]}


@pytest.mark.parametrize("method, q, bc_left, want", [
    *[pytest.param(method, _PEAK_OVERFLOW, {"kind": "dirichlet"},
                   "q is not finite at u = 0.328125", id=f"peak-{method}")
      for method in ("fd", "shooting", "cross")],
    # 2 beta / h overflows the first diagonal entry of the FD matrix
    pytest.param("fd", {"type": "constant", "value": 1.0},
                 {"kind": "robin", "beta": 1e308}, "non-finite FD assembly",
                 id="robin-overflow-fd"),
])
def test_sl_solve_non_finite_input_exits_2(tmp_path, capsys, method, q, bc_left, want):
    doc = {"problem": {"m0": 0.0, "m1": 2.0, "q": q, "bc_left": bc_left,
                       "bc_right": {"kind": "dirichlet"}},
           "window": [0.0, 10.0], "method": method}
    cfg = _write_config(tmp_path, doc)
    # pytest turns a RuntimeWarning into an error, so an overflow in q that
    # escapes sample_potential fails here
    code = main(["sl-solve", "--config", cfg, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert f"input error: {want}" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_sl_solve_method_override_is_string(tmp_path):
    cfg = _write_config(tmp_path, SL_CONFIG)
    assert main(["sl-solve", "--config", cfg, "--out", str(tmp_path),
                 "--override", "method=shooting"]) == 0
    doc = _read_json(tmp_path, "sl_solve.json")
    assert set(doc["results"]) == {"shooting"}
    assert doc["method"] == "shooting"


def test_missing_config_file_is_input_error(tmp_path):
    assert main(["sl-solve", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path)]) == 2


def test_malformed_json_is_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["sl-solve", "--config", str(bad), "--out", str(tmp_path)]) == 2


def test_missing_required_key_is_input_error(tmp_path):
    cfg = _write_config(tmp_path, {"problem": SL_CONFIG["problem"]})
    assert main(["sl-solve", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_unknown_config_key_is_input_error(tmp_path):
    cfg = _write_config(tmp_path, {**SL_CONFIG, "mystery": 1})
    assert main(["sl-solve", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_bound_two_set_fixture(tmp_path):
    cfg = _write_config(tmp_path, BOUND_CONFIG)
    assert main(["bound", "--config", cfg, "--out", str(tmp_path)]) == 0
    doc = _read_json(tmp_path, "bound.json")
    assert doc["laplacian"]["mu_bound"] == 1.0 / 34.0
    assert doc["laplacian"]["per_set_terms"] == [17.0, 17.0]
    assert doc["dirac"]["lambda_bound"] == pytest.approx(
        math.sqrt(1.0 / 34.0), rel=1e-15)
    csv_lines = (tmp_path / "bound.csv").read_text().splitlines()
    assert len(csv_lines) == 5  # header + 2 bounds x 2 sets


def test_bound_dirac_only_flag(tmp_path):
    cfg = _write_config(tmp_path, BOUND_CONFIG)
    assert main(["bound", "--config", cfg, "--out", str(tmp_path),
                 "--dirac"]) == 0
    doc = _read_json(tmp_path, "bound.json")
    assert "dirac" in doc and "laplacian" not in doc


def test_bound_ordered_flag_changes_N(tmp_path):
    cfg = _write_config(tmp_path, {**BOUND_CONFIG, "h_pair": {"0-1": 2}})
    assert main(["bound", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert _read_json(tmp_path, "bound.json")["laplacian"]["N"] == 3
    assert main(["bound", "--config", cfg, "--out", str(tmp_path),
                 "--ordered"]) == 0
    assert _read_json(tmp_path, "bound.json")["laplacian"]["N"] == 5


def test_bound_partition_form_for_c_rho(tmp_path):
    x = [i / 10.0 for i in range(11)]
    cfg = _write_config(tmp_path, {
        **BOUND_CONFIG,
        "C_rho": {"step": 0.1, "rho": [x, [1.0 - v for v in x]]},
    })
    assert main(["bound", "--config", cfg, "--out", str(tmp_path)]) == 0
    doc = _read_json(tmp_path, "bound.json")
    assert doc["cover"]["C_rho"] == pytest.approx(0.5)


def test_bound_partition_form_validation(tmp_path):
    cfg = _write_config(tmp_path, {**BOUND_CONFIG, "C_rho": {"step": 0.1}})
    assert main(["bound", "--config", cfg, "--out", str(tmp_path)]) == 2
    # "no" is a string, not false: read as bool() it would wrap the ramp
    # and give C_rho 2 instead of 0.5
    cfg = _write_config(tmp_path, {**BOUND_CONFIG, "C_rho": {
        "step": 0.5, "rho": [[0.0, 0.5, 1.0], [1.0, 0.5, 0.0]], "periodic": "no"}})
    assert main(["bound", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_s1_dissect_default_run(tmp_path):
    assert main(["s1-dissect", "--out", str(tmp_path)]) == 0
    doc = _read_json(tmp_path, "s1_dissect.json")
    assert doc["valid"] is True
    assert doc["n"] == 64
    assert 0.0 < doc["bound"] <= doc["true_mu_N"]


def test_s1_dissect_exits_1_when_n_exceeds_the_exact_spectrum(tmp_path, monkeypatch,
                                                              capsys):
    import tubespec.discrete_hodge as dh
    from tubespec.dissection import BoundResult
    real = dh.laplacian_bound

    def too_many(cover, **kwargs):
        # the circle of 32 nodes has 31 positive exact eigenvalues
        res = real(cover, **kwargs)
        return BoundResult(res.mu_bound, res.lambda_bound, 32, res.per_set_terms)

    monkeypatch.setattr(dh, "laplacian_bound", too_many)
    out = tmp_path / "out"
    assert main(["s1-dissect", "--override", "n=32", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "verification failure: N exceeds the number of positive exact" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_s1_dissect_override_fraction(tmp_path):
    assert main(["s1-dissect", "--out", str(tmp_path),
                 "--override", "overlap_fraction=0.25"]) == 0
    assert _read_json(tmp_path, "s1_dissect.json")["overlap_fraction"] == 0.25


def test_compare_ode_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    argv = ["compare-ode", "--override", "suite=A.2", "--override", "count=3"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert (a / "compare_ode.json").read_bytes() == \
        (b / "compare_ode.json").read_bytes()
    assert (a / "compare_ode.csv").read_bytes() == \
        (b / "compare_ode.csv").read_bytes()


def test_compare_ode_seed_flag_reaches_suite(tmp_path):
    assert main(["compare-ode", "--out", str(tmp_path), "--seed", "3",
                 "--override", "suite=A.2", "--override", "count=2"]) == 0
    doc = _read_json(tmp_path, "compare_ode.json")
    assert doc["seed"] == 3 and doc["count"] == 2


@pytest.mark.parametrize("doc, argv, want", [
    ({"seed": 5}, ["--seed", "3"], 3),  # the flag wins over the config file
    ({}, ["--override", "seed=5", "--seed", "3"], 3),  # and over --override
    ({"seed": 5}, [], 5),
    ({}, [], 7),  # run_suite's default
])
def test_compare_ode_seed_precedence(tmp_path, doc, argv, want):
    cfg = _write_config(tmp_path, {"suite": "A.2", "count": 1, **doc})
    assert main(["compare-ode", "--config", cfg, "--out", str(tmp_path)] + argv) == 0
    assert _read_json(tmp_path, "compare_ode.json")["seed"] == want


@pytest.mark.parametrize("argv, seed", [(["--seed", "-5"], -5),
                                        (["--override", "seed=-1"], -1)])
def test_compare_ode_refuses_a_negative_seed(tmp_path, capsys, argv, seed):
    # the refusal names the field, in place of numpy's "expected
    # non-negative integer"
    out = tmp_path / "out"
    assert main(["compare-ode", "--out", str(out)] + argv) == 2
    err = capsys.readouterr().err
    assert f"input error: seed must be a non-negative integer, got {seed}\n" in err
    assert "Traceback" not in err and not out.exists()


def test_compare_ode_csv_header_follows_the_suite_table(tmp_path, monkeypatch):
    from tubespec import ode_compare

    fake = ode_compare.Suite(
        horizon_over_k=10.0, count=2,
        check=lambda case: {"gap": case.k, "flag": True, "passed": True},
        minima={"worst_gap": lambda c: c["gap"]}, columns=("gap", "flag"))
    monkeypatch.setitem(ode_compare.SUITES, "Z.9", fake)
    assert main(["compare-ode", "--override", "suite=Z.9",
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "compare_ode.csv").read_text().splitlines()
    assert lines[0] == "index,k,alpha,gap,flag,passed"
    assert len(lines) == 3
    doc = _read_json(tmp_path, "compare_ode.json")
    assert doc["suite"] == "Z.9" and doc["count"] == 2
    assert doc["worst_gap"] == min(c["k"] for c in doc["cases"])


def test_compare_ode_failure_exit(tmp_path, monkeypatch):
    def fake_run_suite(config):
        return {"suite": "A.1", "seed": 0, "count": 0, "cases": [],
                "all_passed": False}

    monkeypatch.setattr(cli, "run_suite", fake_run_suite)
    assert main(["compare-ode", "--out", str(tmp_path)]) == 1


def test_berger_curve_defaults(tmp_path):
    assert main(["berger-curve", "--out", str(tmp_path)]) == 0
    doc = _read_json(tmp_path, "berger_curve.json")
    # 0.1 (1 + t) reaches 10 exactly at t = 99 on the unit grid
    assert doc["t_star"] == {"10.0": 99.0}
    assert doc["m"] == 2


def test_tube_sweep_empty_grid_passes(tmp_path):
    assert main(["tube-sweep", "--out", str(tmp_path)]) == 0
    doc = _read_json(tmp_path, "tube_sweep.json")
    assert doc["rows"] == [] and doc["all_computed_pass"] is True


def test_tube_sweep_short_tube_documents_failure(tmp_path):
    assert main(["tube-sweep", "--out", str(tmp_path),
                 "--override", "R_grid=[1.2]"]) == 0
    doc = _read_json(tmp_path, "tube_sweep.json")
    assert len(doc["rows"]) == 1
    row = doc["rows"][0]
    assert row["pass"] is None and "too small" in row["failure"]
    csv_text = (tmp_path / "tube_sweep.csv").read_text()
    assert "FAILED:" in csv_text


def test_tube_sweep_unbuildable_geometry_documents_failure(tmp_path):
    # epsilon = e^{-800} underflows to 0: that R becomes a failure row, and
    # the R = 6 row before it is still written
    assert main(["tube-sweep", "--out", str(tmp_path),
                 "--override", "R_grid=[6, 400]",
                 "--override", "lambda_max=10"]) == 0
    good, bad = _read_json(tmp_path, "tube_sweep.json")["rows"]
    assert good["R"] == 6.0 and good["pass"] is True and good["n_entries"] == 2
    assert bad["R"] == 400.0 and bad["pass"] is None
    assert bad["failure"] == "epsilon must be positive, got 0.0"
    csv_lines = (tmp_path / "tube_sweep.csv").read_text().splitlines()
    assert csv_lines[-1] == '400,,,,"FAILED: epsilon must be positive, got 0.0",,'


def test_tube_sweep_far_wraparound_tube(tmp_path):
    # at D1 = 0.1, R = 3 the smallest off-zero kappa sits at +-(126, -1),
    # so r0 = 0 already clears the threshold and the window (0, 10] is empty
    assert main(["tube-sweep", "--out", str(tmp_path), "--override", "D1=0.1",
                 "--override", "D2=0.1", "--override", "R_grid=[3]",
                 "--override", "lambda_max=10"]) == 0
    row = _read_json(tmp_path, "tube_sweep.json")["rows"][0]
    assert row["failure"] is None and row["pass"] is True
    assert row["r0"] == 0 and row["achieved_inf"] == 174.29862220464287
    assert row["n_entries"] == 0


def test_tube_sweep_reference_tube(tmp_path):
    assert main(["tube-sweep", "--out", str(tmp_path),
                 "--override", "R_grid=[6.0]"]) == 0
    doc = _read_json(tmp_path, "tube_sweep.json")
    row = doc["rows"][0]
    assert row["pass"] is True and row["r0"] == 0.2
    assert row["n_entries"] == 0  # default window (0, 2] is empty
    assert "empty-window" in (tmp_path / "tube_sweep.csv").read_text()


def test_tube_sweep_floor_violation_is_verification_failure(
        tmp_path, monkeypatch, capsys):
    import tubespec.tube_spectrum as ts
    from tubespec.sturm_liouville import SpectrumResult

    def below_floor(problem, window, grid_n=256, phase_tol=1e-9):
        return SpectrumResult((-100.0,), (1e-9,), "CrossValidated", 2 * grid_n)

    monkeypatch.setattr(ts, "solve_cross_validated", below_floor)
    code = main(["tube-sweep", "--out", str(tmp_path),
                 "--override", "R_grid=[6.0]", "--override", "lambda_max=10"])
    err = capsys.readouterr().err
    assert code == 1
    assert "quadratic-form floor" in err and "Traceback" not in err


def test_parser_is_built_once_and_overrides_stay_per_call(tmp_path, monkeypatch):
    seen = []

    def handler(args, config):
        seen.append((list(args.override), config))
        return {}, ("x",), [], cli.EXIT_OK

    monkeypatch.setitem(cli._COMMANDS, "s1-dissect",
                        (handler,) + cli._COMMANDS["s1-dissect"][1:])
    built = []
    real = argparse.ArgumentParser.add_subparsers

    def counting(self, **kwargs):
        built.append(self.prog)
        return real(self, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counting)
    cli.build_parser.cache_clear()
    for override in (["n=32"], ["n=64"], []):
        argv = ["s1-dissect", "--out", str(tmp_path)]
        argv += [arg for value in override for arg in ("--override", value)]
        assert main(argv) == 0
    assert seen == [(["n=32"], {"n": 32}), (["n=64"], {"n": 64}), ([], {})]
    assert built == ["tubespec"]


def test_sl_solve_input_error_leaves_no_out_directory(tmp_path, capsys):
    # solve_fd refuses grid_n below 16; the output directory is made only
    # once there is something to write into it
    cfg = _write_config(tmp_path, SL_CONFIG)
    out = tmp_path / "fresh"
    assert main(["sl-solve", "--config", cfg, "--override", "grid_n=8",
                 "--out", str(out)]) == 2
    assert "input error" in capsys.readouterr().err
    assert not out.exists()


def test_bad_override_shape_is_input_error(tmp_path, capsys):
    sl_cfg = _write_config(tmp_path, SL_CONFIG)
    bound_cfg = _write_config(tmp_path, BOUND_CONFIG, "bound.json")
    bad = [
        ["s1-dissect", "--override", "no_equals_sign"],
        ["bound", "--config", bound_cfg, "--override", "mu_pair=5"],
        ["bound", "--config", bound_cfg, "--override", "mu_pair=[1.0]"],
        ["bound", "--config", bound_cfg, "--override", "h_pair=[2]"],
        ["sl-solve", "--config", sl_cfg, "--override", "window=[0,10,3]"],
        ["tube-sweep", "--override", "family=Bogus", "--override", "R_grid=[6]"],
        ["tube-sweep", "--override", "lambda_max=-1", "--override", "R_grid=[6]"],
        ["tube-sweep", "--override", "threshold=NaN", "--override", "R_grid=[1.2]"],
        # a string or number is not read as a boolean, nor a boolean as a number
        ["tube-sweep", "--override", 'include_zero_mode="false"',
         "--override", "R_grid=[6]"],
        ["tube-sweep", "--override", "include_zero_mode=0", "--override", "R_grid=[6]"],
        ["tube-sweep", "--override", "D1=true", "--override", "R_grid=[6]"],
        ["tube-sweep", "--override", 'E2="2"', "--override", "R_grid=[6]"],
        # a grid past cli.MAX_T_GRID_POINTS, or a non-finite one, is refused
        # before any grid point is built
        ["berger-curve", "--override", "t_max=1e12"],
        ["berger-curve", "--override", "t_max=Infinity"],
        # sizes past ode_compare.MAX_SUITE_COUNT, discrete_hodge.MAX_CASE_STUDY_N
        # and sturm_liouville.MAX_FD_GRID_N are refused before any work
        ["compare-ode", "--override", "count=1e9"],
        ["s1-dissect", "--override", "n=100000000"],
        ["sl-solve", "--config", sl_cfg, "--override", "grid_n=100000000"],
        # 1/mu overflows, so the bound comes out 0 and is refused after the
        # cover was read
        ["bound", "--override", "mu_set=[1e-320]", "--override", "adjacency=[[]]",
         "--override", "C_rho=1"],
        # an infinite integer is an OverflowError, not a traceback
        ["sl-solve", "--config", sl_cfg, "--override", "grid_n=Infinity"],
        ["s1-dissect", "--override", "n=-Infinity"],
        ["compare-ode", "--override", "count=Infinity"],
        ["compare-ode", "--override", "seed=Infinity"],
        ["berger-curve", "--override", "m=Infinity"],
        ["bound", "--config", bound_cfg, "--override", 'h_pair={"0-1": Infinity}'],
        # a fractional or boolean integer is refused, not truncated by int()
        ["sl-solve", "--config", sl_cfg, "--override", "grid_n=64.5"],
        ["s1-dissect", "--override", "n=64.7"],
        ["compare-ode", "--override", "count=1.9", "--override", "suite=A.2"],
        ["compare-ode", "--override", "count=true", "--override", "suite=A.2"],
        ["compare-ode", "--override", "seed=7.5"],
        ["berger-curve", "--override", "m=2.5"],
        ["bound", "--config", bound_cfg, "--override", 'h_pair={"0-1": 1.5}'],
        ["bound", "--config", bound_cfg, "--override", 'h_pair={"0-1": "2"}'],
        # non-finite inputs, and a curve that overflows from finite ones, are
        # refused before anything is serialized
        ["tube-sweep", "--override", "D2=Infinity", "--override", "R_grid=[6]"],
        ["tube-sweep", "--override", "E2=Infinity"],
        ["berger-curve", "--override", "a=Infinity"],
        ["berger-curve", "--override", "b=Infinity"],
        ["berger-curve", "--override", "epsilon_bound=Infinity"],
        ["berger-curve", "--override", "t_step=1e300", "--override", "t_max=1e301",
         "--override", "b=1e10"],
    ]
    out = tmp_path / "out"
    for argv in bad:
        assert main(argv + ["--out", str(out)]) == 2, argv
        err = capsys.readouterr().err
        assert "input error" in err and "Traceback" not in err, argv
        assert not out.exists(), argv


def test_check_int_accepts_integral_values_only():
    assert [check_int(v, "k") for v in (3, 3.0, -2.0, np.int64(5), np.float64(6.0))] \
        == [3, 3, -2, 5, 6]
    assert type(check_int(np.int64(5), "k")) is int
    for bad in (True, False, 2.5, math.nan, math.inf, "3", None, [3]):
        with pytest.raises(ValueError, match="k must be an integer"):
            check_int(bad, "k")


def test_check_bool_accepts_booleans_only():
    assert [check_bool(v, "flag") for v in (True, False, np.bool_(True))] == [True, False, True]
    assert type(check_bool(np.bool_(False), "flag")) is bool
    for bad in ("false", "true", "no", 0, 1, 0.0, None, []):
        with pytest.raises(ValueError, match="flag must be true or false"):
            check_bool(bad, "flag")


def test_check_float_accepts_finite_numbers_only():
    got = [check_float(v, "x") for v in (3, -2.5, np.int64(5), np.float64(0.25))]
    assert got == [3.0, -2.5, 5.0, 0.25]
    assert all(type(v) is float for v in got)
    for bad in (True, False, np.bool_(True), "3.14", None, [1.0], {},
                math.nan, math.inf, -math.inf, 10**400):
        with pytest.raises(ValueError, match="x must be a finite number"):
            check_float(bad, "x")


def _nested(base, path, value):
    doc = json.loads(json.dumps(base))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


_PARTITION = {"step": 0.5, "rho": [[0.0, 0.5, 1.0], [1.0, 0.5, 0.0]]}


_NOT_NUMBERS = [
    ("sl-solve", SL_CONFIG, ("problem", "m1"), True),
    ("sl-solve", SL_CONFIG, ("problem", "m1"), "3.14"),
    ("sl-solve", SL_CONFIG, ("problem", "m0"), False),
    ("sl-solve", SL_CONFIG, ("problem", "q", "value"), True),
    ("sl-solve", SL_CONFIG, ("problem", "q"), {"type": "poly", "coeffs": ["1"]}),
    ("sl-solve", SL_CONFIG, ("problem", "q"),
     {"type": "fourier", "period": True, "cos": [1.0]}),
    ("sl-solve", SL_CONFIG, ("problem", "q"),
     {"type": "fourier", "period": 2.0, "sin": [True]}),
    ("sl-solve", SL_CONFIG, ("problem", "bc_left"), {"kind": "robin", "beta": True}),
    ("sl-solve", SL_CONFIG, ("window",), [True, 30.0]),
    ("bound", BOUND_CONFIG, ("mu_pair", "0-1"), True),
    ("bound", {**BOUND_CONFIG, "C_rho": _PARTITION}, ("C_rho", "step"), True),
    ("bound", {**BOUND_CONFIG, "C_rho": _PARTITION}, ("C_rho", "rho"),
     [[True, "0.5", 0.0], [False, 0.5, 1.0]]),
    ("bound", BOUND_CONFIG, ("adjacency",), [[True], [False]]),
    ("bound", BOUND_CONFIG, ("mu_set",), [True, 1.0]),
    ("bound", BOUND_CONFIG, ("C_rho",), "1.0"),
    ("tube-sweep", {"R_grid": [6.0]}, ("R_grid",), [True]),
    ("tube-sweep", {"R_grid": [6.0]}, ("lambda_max",), True),
    ("tube-sweep", {"R_grid": [6.0]}, ("threshold",), "5"),
    ("s1-dissect", {}, ("overlap_fraction",), "0.125"),
    ("s1-dissect", {}, ("overlap_fraction",), True),
    ("berger-curve", {}, ("a",), True),
    ("berger-curve", {}, ("b",), "1"),
    ("berger-curve", {}, ("epsilon_bound",), True),
    ("berger-curve", {}, ("t_step",), True),
    ("berger-curve", {}, ("t_max",), "20"),
    ("berger-curve", {}, ("thresholds",), [True]),
]


@pytest.mark.parametrize(
    "command, base, path, value", _NOT_NUMBERS,
    ids=[f"{c}:{'.'.join(p)}={json.dumps(v, separators=(',', ':'))}"
         for c, _, p, v in _NOT_NUMBERS])
def test_booleans_and_strings_are_not_read_as_numbers(command, base, path, value,
                                                      tmp_path, capsys):
    cfg = _write_config(tmp_path, _nested(base, path, value))
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "must be a finite number" in err or "must be an integer" in err, err
    assert not out.exists()


@pytest.mark.parametrize("command, as_int", [
    ("sl-solve", {**SL_CONFIG, "window": [0, 30],
                  "problem": {**SL_CONFIG["problem"], "m0": 0, "m1": 3,
                              "q": {"type": "poly", "coeffs": [1, 0, 2]},
                              "bc_left": {"kind": "robin", "beta": 1}}}),
    ("bound", {"mu_set": [1, 2], "adjacency": [[1], [0]], "mu_pair": {"0-1": 3},
               "C_rho": {"step": 1, "rho": [[0, 1, 1], [1, 0, 0]]}}),
    ("berger-curve", {"a": 1, "b": 2, "epsilon_bound": 1, "t_step": 1, "t_max": 20,
                      "thresholds": [10]}),
])
def test_integer_inputs_write_the_bytes_of_their_floats(command, as_int, tmp_path):
    def floated(doc):
        if isinstance(doc, dict):
            return {k: floated(v) for k, v in doc.items()}
        if isinstance(doc, list):
            return [floated(v) for v in doc]
        return float(doc) if isinstance(doc, int) and not isinstance(doc, bool) else doc

    stem = command.replace("-", "_")
    written = []
    for i, doc in enumerate((as_int, floated(as_int))):
        cfg = _write_config(tmp_path, doc, f"config{i}.json")
        out = tmp_path / f"out{i}"
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        written.append([(out / f"{stem}.{ext}").read_bytes() for ext in ("json", "csv")])
    assert written[0] == written[1]


def test_integral_float_input_is_read_as_that_integer(tmp_path):
    assert main(["s1-dissect", "--override", "n=64.0", "--out", str(tmp_path)]) == 0
    assert _read_json(tmp_path, "s1_dissect.json")["n"] == 64


def test_seed_is_an_option_of_compare_ode_alone(tmp_path):
    # compare-ode takes it (test_compare_ode_seed_flag_reaches_suite); every
    # other subcommand refuses it as a usage error
    for command in sorted(set(cli._COMMANDS) - {"compare-ode"}):
        with pytest.raises(SystemExit) as exc:
            main([command, "--seed", "3", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2, command
    assert not (tmp_path / "out").exists()


# small, fast configs; the junk sweep below spoils one key at a time, at the
# top level and at the nested paths of JUNK_NESTED
JUNK_BASE = {
    "sl-solve": {**SL_CONFIG, "method": "cross", "grid_n": 64},
    "tube-sweep": {"R_grid": [6], "lambda_max": 2,
                   "D1": 1.0, "D2": 1.0, "E1": 1.0, "E2": 1.0,
                   "include_zero_mode": False, "threshold": 5.0, "family": "Both"},
    "bound": {**BOUND_CONFIG, "C_rho": {"step": 0.5, "periodic": False,
                                        "rho": [[0.0, 0.5, 1.0], [1.0, 0.5, 0.0]]}},
    "s1-dissect": {"n": 32, "overlap_fraction": 0.125},
    "compare-ode": {"suite": "A.1", "count": 1, "seed": 7},
    "berger-curve": {"a": 1.0, "b": 1.0, "m": 2, "epsilon_bound": 0.1,
                     "t_max": 20.0, "t_step": 1.0, "thresholds": [10.0]},
}
JUNK_NESTED = {
    "sl-solve": [("problem", key) for key in SL_CONFIG["problem"]],
    "bound": [("mu_pair", "0-1"), ("C_rho", "step"), ("C_rho", "rho"),
              ("C_rho", "periodic")],
}
JUNK_VALUES = [None, True, "x", [], {}, math.nan, math.inf, -math.inf, -1, 0]
_DELETE = object()


def _spoiled(base, path, value):
    doc = json.loads(json.dumps(base))
    *outer, key = path
    target = doc
    for step in outer:
        target = target[step]
    if value is _DELETE:
        del target[key]
    else:
        target[key] = value
    return doc


@pytest.mark.parametrize("command", sorted(JUNK_BASE))
def test_junk_config_exits_cleanly(command, tmp_path):
    base = JUNK_BASE[command]
    paths = [(key,) for key in base] + JUNK_NESTED.get(command, [])
    variants = [{**base, "mystery": 1}] + [
        _spoiled(base, path, value)
        for path in paths for value in JUNK_VALUES + [_DELETE]]
    for i, doc in enumerate(variants):
        # json.dumps writes NaN and Infinity, which the config reader accepts
        cfg = _write_config(tmp_path, doc, f"config{i}.json")
        out = tmp_path / f"out{i}"
        code = main([command, "--config", cfg, "--out", str(out)])
        assert code in (0, 1, 2), (doc, code)
        if code == 2:
            assert not out.exists(), doc
        if code == 0:
            stem = command.replace("-", "_")
            assert {p.name for p in out.iterdir()} == {f"{stem}.json",
                                                       f"{stem}.csv"}, doc
