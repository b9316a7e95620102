"""The benchmark's own checks: generator, oracle, spans, counters, refusal.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import importlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spans
import workloads
import tubespec.cli as cli

BENCH = Path(__file__).resolve().parents[1]

# names imported by value; each must reach the wrapper too
REBINDING_SITES = (
    ("tube_spectrum", "solve_cross_validated"),
    ("tube_spectrum", "min_offzero_kappa"),
    ("cli", "solve_fd"),
    ("cli", "solve_shooting"),
    ("cli", "solve_cross_validated"),
    ("cli", "sweep"),
    ("cli", "s1_case_study"),
    ("cli", "run_suite"),
    ("cli", "write_json"),
    ("cli", "write_csv"),
    ("discrete_hodge", "laplacian_bound"),
)


def test_generator_is_seeded_and_never_vacuous():
    first = workloads.sl_problems(3)
    assert first == workloads.sl_problems(3)
    assert first != workloads.sl_problems(4)
    for seed in range(40):  # raises on an empty window or a boundary eigenvalue
        for problem in workloads.sl_problems(seed):
            assert problem["oracle"]["eigenvalues"]
    ode = workloads.configs("compare_ode", 11)
    assert [c["seed"] for _, c, _ in ode] == [11, 11]


def test_oracle_matches_closed_forms():
    free = {"type": "fourier", "period": 2 * math.pi, "a0": 0.0, "cos": [], "sin": []}
    dirichlet = {"m0": 0.0, "m1": math.pi, "q": free,
                 "bc_left": {"kind": "dirichlet"}, "bc_right": {"kind": "dirichlet"}}
    ev, err = workloads.oracle_spectrum(dirichlet, (0.5, 30.0))
    assert len(ev) == 5
    assert all(abs(a - b) <= e < 1e-6 for a, b, e in zip(ev, [1, 4, 9, 16, 25], err))
    # Robin a'(0) = beta a(0), Dirichlet at pi: a = sin(k (pi - u)) with
    # beta sin(k pi) + k cos(k pi) = 0
    beta = 0.5
    robin = dict(dirichlet, bc_left={"kind": "robin", "beta": beta})
    ev, err = workloads.oracle_spectrum(robin, (-5.0, 5.0))
    assert len(ev) == 2
    for lam in ev:
        k = math.sqrt(lam)
        assert abs(beta * math.sin(k * math.pi) + k * math.cos(k * math.pi)) < 1e-8
    assert workloads.spectral_floor(robin) == pytest.approx(0.0)


def test_tracer_rebinds_every_site_and_restores():
    originals = {site: getattr(importlib.import_module(f"tubespec.{site[0]}"), site[1])
                 for site in REBINDING_SITES}
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (module, name), fn in originals.items():
            bound = getattr(importlib.import_module(f"tubespec.{module}"), name)
            assert bound is not fn and bound.__wrapped__ is fn, (module, name)
    finally:
        tracer.remove()
    for (module, name), fn in originals.items():
        assert getattr(importlib.import_module(f"tubespec.{module}"), name) is fn


def test_self_time_subtracts_children():
    s = [spans.Span("a", 0.0, -1, 10.0), spans.Span("b", 1.0, 0, 4.0),
         spans.Span("c", 2.0, 1, 3.0), spans.Span("b", 5.0, 0, 6.0)]
    assert spans.self_times(s) == {"a": 6.0, "b": 3.0, "c": 1.0}


def _small_iteration(tmp_path):
    """One call per CLI path the workloads use, sized to run in seconds."""
    configs = [("tube-sweep", {"R_grid": [10], "lambda_max": 10, "threshold": 5}),
               ("sl-solve", workloads.sl_problems(0)[1]["config"]),
               ("s1-dissect", {"n": 64, "overlap_fraction": 0.125}),
               ("compare-ode", {"suite": "A.1", "seed": 3, "count": 2}),
               ("compare-ode", {"suite": "A.2", "seed": 3, "count": 2})]
    argvs = []
    for i, (sub, config) in enumerate(configs):
        path = tmp_path / f"c{i}.json"
        path.write_text(json.dumps(config))
        argvs.append([sub, "--config", str(path), "--out", str(tmp_path / f"o{i}")])
    return argvs


def _traced_counters(argvs):
    tracer = spans.Tracer()
    tracer.install()
    try:
        codes = [tracer.call(argv, cli.main) for argv in argvs]
    finally:
        tracer.remove()
    assert codes == [0] * len(argvs)
    return spans.layer_metrics(tracer.spans)


def test_counters_repeat_exactly_and_spans_cover_the_calls(tmp_path):
    argvs = _small_iteration(tmp_path)
    first = _traced_counters(argvs)
    second = _traced_counters(argvs)
    assert {k: first[k] for k in spans.COUNTERS} == {k: second[k] for k in spans.COUNTERS}
    for key in ("sturm_liouville.solve_shooting_calls", "sturm_liouville.shooting_mesh_n",
                "tube_spectrum.mode_solves", "torus_modes.min_offzero_kappa_calls",
                "discrete_hodge.dense_bytes", "ode_compare.rk4_steps",
                "jsonio.bytes_written"):
        assert first[key] > 0, key
    # sl-solve: FD and shooting once each, then once more inside cross
    assert first["sturm_liouville.solve_fd_calls"] == first["tube_spectrum.mode_solves"] + 2
    assert first["trace.top_span_coverage"] > 0.95


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sl_solve",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
