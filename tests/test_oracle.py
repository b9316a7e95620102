"""Reported eigenvalues against an oracle that shares no solver code.

Each case passes when |reported - oracle| <= error_estimate + the oracle's
bar, for every eigenvalue, with the same count (oracle.py).
"""

import csv
import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tubespec.sturm_liouville as sl
from oracle import assert_within_oracle, collocation_eigenvalues
from test_sturm_liouville import _dirichlet_q0, _neumann_q0, _tube_mode_problem

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


def _benchmark_workloads(monkeypatch):
    """perfbench/workloads.py, whose sl_problems makes the sl_solve configs."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve annotations through sys.modules; undone after the test
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("problem, want", [
    (_dirichlet_q0(), [1.0, 4.0, 9.0, 16.0, 25.0]),
    (_neumann_q0(), [0.0, 1.0, 4.0, 9.0, 16.0, 25.0]),
], ids=["dirichlet", "neumann"])
def test_oracle_matches_closed_forms(problem, want):
    ev, bars = collocation_eigenvalues(problem, (-0.5, 30.0))
    assert len(ev) == len(want)
    for got, bar, w in zip(ev, bars, want):
        assert abs(got - w) <= bar


def test_oracle_fails_without_a_plateau():
    # cos(1024 u) oscillates faster than any N up to 256 resolves
    p = sl.SLProblem(q=lambda u: 10.0 + 5.0 * np.cos(1024.0 * u),
                     m0=0.0, m1=math.pi, bc_left=sl.BoundaryCondition.dirichlet(),
                     bc_right=sl.BoundaryCondition.dirichlet())
    with pytest.raises(AssertionError, match="no plateau by N"):
        collocation_eigenvalues(p, (0.0, 30.0))


@pytest.mark.parametrize("case", ["sl-solve", "sl-solve-fourier"])
def test_golden_sl_solve_lies_within_its_bars_of_the_oracle(case):
    doc = json.loads((GOLDEN / case / "sl_solve.json").read_text(encoding="ascii"))
    problem = sl.problem_from_json(doc["problem"])
    assert set(doc["results"]) == {"fd", "shooting", "cross_validated"}
    for result in doc["results"].values():
        assert_within_oracle(sl.SpectrumResult(**result), problem, doc["window"])


def test_golden_tube_sweep_lies_within_its_bars_of_the_oracle():
    with open(GOLDEN / "tube-sweep" / "tube_sweep.csv", newline="", encoding="ascii") as fh:
        rows = [row for row in csv.DictReader(fh) if row["eigenvalue"]]
    # modes (-1, 0) and (1, 0) share one problem: (1, 0) Abs1 at R = 10
    assert [(row["R"], row["mode_r"], row["mode_s"], row["family"]) for row in rows] == [
        ("10", "-1", "0", "Abs1"), ("10", "1", "0", "Abs1")]
    problem = _tube_mode_problem(10.0, "Abs1")
    for row in rows:
        result = sl.SpectrumResult((float(row["eigenvalue"]),), (float(row["error"]),),
                                   "CrossValidated", 0)
        assert_within_oracle(result, problem, (0.0, 10.0))


@pytest.mark.parametrize("seed", [1, 7, 11])
def test_benchmark_sl_solve_lies_within_its_bars_of_the_oracle(seed, monkeypatch):
    problems = _benchmark_workloads(monkeypatch).sl_problems(seed)
    assert len(problems) == 3
    for item in problems:
        problem = sl.problem_from_json(item["config"]["problem"])
        window = item["config"]["window"]
        fd = sl.solve_fd(problem, 256, window)
        sh = sl.solve_shooting(problem, window, fd_seeds=fd)
        assert_within_oracle(sh, problem, window)
        assert_within_oracle(sl.cross_check(fd, sh, window), problem, window)


def test_tube_sweep_lies_within_its_bars_of_the_oracle(monkeypatch):
    import tubespec.tube_spectrum as ts
    from tubespec.geometry import DegenerationSchedule
    solved = []

    def record(problem, window, grid_n, phase_tol):
        result = sl.solve_cross_validated(problem, window, grid_n, phase_tol)
        solved.append((problem, window, result))
        return result

    monkeypatch.setattr(ts, "solve_cross_validated", record)
    ts.sweep(DegenerationSchedule(R_grid=(5, 6, 7, 8, 9, 10)),
             ts.SweepOptions(lambda_max=10.0))
    # the (1, 0) mode in both families at every R; Abs2 holds no eigenvalue
    assert len(solved) == 12
    assert sum(len(result.eigenvalues) for *_, result in solved) == 6
    for problem, window, result in solved:
        assert_within_oracle(result, problem, window)


# Window counts.  The oracle has no inertia count, so its count of a window
# decides nothing where one of its eigenvalues lies within rounding of an
# end; these gates compare counts only where every oracle eigenvalue lies
# farther than CLEAR bars from both ends.
CLEAR = 100.0


def _clear_of(window, ev, bars) -> bool:
    return all(abs(v - end) > CLEAR * bar for v, bar in zip(ev, bars) for end in window)


def test_window_counts_next_to_eigenvalues_match_the_oracle():
    from test_sturm_liouville import _sl_solve_shapes
    checked = 0
    for problem, (lo, hi), _, _ in _sl_solve_shapes():
        ev, bars = collocation_eigenvalues(problem, (lo, hi))
        assert ev
        # ends 1e-7 relative to either side of each eigenvalue: one
        # eigenvalue between a pair around it, none between a pair inside a gap
        eps = [1e-7 * max(1.0, abs(v)) for v in ev]
        windows = [(v - e, v + e) for v, e in zip(ev, eps)]
        windows += [(v + e, w - f) for v, e, w, f in zip(ev, eps, ev[1:], eps[1:])]
        for window in windows:
            assert _clear_of(window, ev, bars), window
            want = sum(window[0] < v <= window[1] for v in ev)
            assert len(sl.solve_shooting(problem, window).eigenvalues) == want, window
            checked += 1
    assert checked == 9


_COEFF = st.floats(-3.0, 3.0)


@settings(max_examples=12, deadline=None)
@given(length=st.floats(0.5, 4.0), period=st.floats(1.0, 8.0), a0=st.floats(-5.0, 5.0),
       cos_c=st.lists(_COEFF, max_size=4), sin_c=st.lists(_COEFF, max_size=4),
       betas=st.tuples(*[st.none() | st.floats(-2.0, 2.0)] * 2),
       width=st.floats(1.0, 60.0))
def test_fourier_potentials_lie_within_their_bars_of_the_oracle(
        length, period, a0, cos_c, sin_c, betas, width):
    spec = {"type": "fourier", "period": period, "a0": a0, "cos": cos_c, "sin": sin_c}
    bc = [sl.BoundaryCondition.dirichlet() if b is None else sl.BoundaryCondition.robin(b)
          for b in betas]
    problem = sl.SLProblem(q=sl.potential_from_json(spec), m0=0.0, m1=length,
                           bc_left=bc[0], bc_right=bc[1])
    inf_q = a0 - sum(map(abs, cos_c)) - sum(map(abs, sin_c))
    lo = sl.spectral_floor(problem, inf_q=inf_q) - 1.0
    window = (lo, lo + width)
    # the oracle one unit past both ends sees the eigenvalues next to them
    ev, bars = collocation_eigenvalues(problem, (lo - 1.0, lo + width + 1.0))
    assume(_clear_of(window, ev, bars))
    inside = [(v, bar) for v, bar in zip(ev, bars) if lo < v <= lo + width]
    result = sl.solve_cross_validated(problem, window)
    assert len(result.eigenvalues) == len(inside), (result.eigenvalues, inside)
    for got, err, (want, bar) in zip(result.eigenvalues, result.error_estimate, inside):
        assert abs(got - want) <= err + bar, (got, err, want, bar)
