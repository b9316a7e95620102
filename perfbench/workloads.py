"""The benchmark's workloads: configs made from the seed, CLI calls, output checks.

Each workload is a list of `Call`s, run one after another through
`tubespec.cli.main` in one process.  The program sees only the generated
config files; every output is checked against a reference captured at the
seed commit (`reference.json`) or, for seeded `sl_solve` problems, against
an independent fine-mesh oracle as well.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

NAMES = ("tube_sweep", "sl_solve", "s1_dissect", "compare_ode")
# reported in raw seconds: dense OpenBLAS linear algebra, whose speed the
# pure-Python calibration kernel of run.Speed does not measure (rescaled,
# its ten-run spread grew from 0.08 to 0.20)
RAW_SECONDS = ("s1_dissect",)

TUBE_SWEEP_CONFIG = {"R_grid": [5, 6, 7, 8, 9, 10], "lambda_max": 10,
                     "threshold": 5, "family": "Both"}
S1_SIZES = (256, 1024)
S1_OVERLAP = 0.125
# the CLI's default counts: a run repeats this 1 s iteration many times, and
# short calls give the per-call medians in run.py more samples
ODE_COUNTS = {"A.1": 20, "A.2": 10}

# sl_solve problems on [0, 2]: q = a0 + sum cos_k cos(k u) + sin_k sin(k u),
# like acceptance criterion 2.  The three shapes accept shooting meshes of
# 32k, 8k and 16k cells under the default phase tolerance; the seed jitters
# every coefficient and beta by up to JITTER, which keeps each shape on its
# mesh so the workload's cost does not depend on the seed.
SL_TEMPLATES = (
    {"a0": 1.897, "cos": [0.0, 0.901, -0.342], "sin": [0.024, 0.0, -0.625],
     "robin": "right", "beta": -0.565},
    {"a0": 1.099, "cos": [0.0, 0.655, -0.087], "sin": [-0.153, 0.0, -0.160],
     "robin": "left", "beta": -1.417},
    {"a0": 1.961, "cos": [0.0, -0.439, -0.014], "sin": [0.501, 0.0, -0.026],
     "robin": "right", "beta": 1.385},
)
SL_DOMAIN = (0.0, 2.0)
SL_WINDOW_TOP = 12.0
JITTER = 0.05
# an oracle eigenvalue this close to a window end would make the count
# check depend on roundoff, so generation refuses it
WINDOW_MARGIN = 0.05
# every error estimate the solvers emit is at least 1e-12 * max(1, |lambda|)
REL_ERR_FLOOR = 1e-12
ORACLE_FLOOR = 1e-9


class CheckFailed(Exception):
    """A CLI call exited non-zero or its output disagrees with the reference."""


@dataclass
class Call:
    argv: list
    out: Path
    check: Callable[[int, Path], list]  # (exit code, out dir) -> relative error estimates


def _fourier(template, factors):
    n = len(template["cos"])
    return {"type": "fourier", "period": 2.0 * math.pi,
            "a0": template["a0"] * factors[0],
            "cos": [c * f for c, f in zip(template["cos"], factors[1:1 + n])],
            "sin": [c * f for c, f in zip(template["sin"], factors[1 + n:1 + 2 * n])]}


def _q_values(q, u):
    out = q["a0"] * np.ones_like(u)
    for k, c in enumerate(q["cos"], start=1):
        out = out + c * np.cos(2.0 * math.pi * k * u / q["period"])
    for k, c in enumerate(q["sin"], start=1):
        out = out + c * np.sin(2.0 * math.pi * k * u / q["period"])
    return out


def _bc(spec):
    return spec.get("beta") if spec["kind"] == "robin" else None


def spectral_floor(problem) -> float:
    """inf q - C(beta): no eigenvalue lies below it (quadratic-form bound).

    Computed here rather than with tubespec, so that the generated inputs
    cannot change when the program does.
    """
    m0, m1 = problem["m0"], problem["m1"]
    inf_q = float(np.min(_q_values(problem["q"], np.linspace(m0, m1, 4097))))
    c = 0.0
    for spec, sign in ((problem["bc_left"], -1.0), (problem["bc_right"], 1.0)):
        beta = _bc(spec)
        if beta is not None:
            b = max(0.0, sign * beta)
            c += b * (1.0 / (m1 - m0) + 2.0 * b)
    return inf_q - c


def _lumped_fem(problem, n):
    """Symmetric tridiagonal of linear elements with lumped mass on n cells.

    Quadratic form int a'^2 + q a^2 + beta0 a(m0)^2 - beta1 a(m1)^2;
    Dirichlet ends drop their node.
    """
    m0, m1 = problem["m0"], problem["m1"]
    h = (m1 - m0) / n
    u = m0 + h * np.arange(n + 1)
    w = np.full(n + 1, h)
    w[0] = w[-1] = h / 2.0
    stiff = np.full(n + 1, 2.0 / h)
    stiff[0] = stiff[-1] = 1.0 / h
    diag = stiff + w * _q_values(problem["q"], u)
    beta_l, beta_r = _bc(problem["bc_left"]), _bc(problem["bc_right"])
    if beta_l is not None:
        diag[0] += beta_l
    if beta_r is not None:
        diag[-1] -= beta_r
    i0 = 0 if beta_l is not None else 1
    i1 = n if beta_r is not None else n - 1
    w = w[i0:i1 + 1]
    d = diag[i0:i1 + 1] / w
    e = -1.0 / h / np.sqrt(w[:-1] * w[1:])
    return d, e


def oracle_spectrum(problem, window, n=256):
    """Eigenvalues in (lo, hi] from twice Richardson-extrapolated lumped FEM.

    Returns (eigenvalues, error bounds).  The bound is the change between
    the extrapolations on meshes (n, 2n) and (2n, 4n) plus ORACLE_FLOOR:
    on finer meshes tridiagonal roundoff (eps * 4/h^2) outgrows the h^4
    truncation error, so about 1e-10 is as close as this oracle gets.
    """
    lo, hi = window
    d, e = _lumped_fem(problem, 4 * n)
    fine = eigvalsh_tridiagonal(d, e, select="v", select_range=(lo, hi))
    if fine.size == 0:
        return [], []
    gershgorin = float(np.min(d) - 2.0 * np.max(np.abs(e))) - 1.0
    k0 = eigvalsh_tridiagonal(d, e, select="v", select_range=(gershgorin, lo)).size
    idx = (k0, k0 + fine.size - 1)
    lam = [eigvalsh_tridiagonal(*_lumped_fem(problem, m), select="i",
                                select_range=idx) for m in (n, 2 * n)] + [fine]
    r1 = (4.0 * lam[1] - lam[0]) / 3.0
    r2 = (4.0 * lam[2] - lam[1]) / 3.0
    err = np.abs(r2 - r1) + ORACLE_FLOOR * np.maximum(1.0, np.abs(r2))
    return [float(x) for x in r2], [float(x) for x in err]


def sl_problems(seed: int) -> list:
    """The sl_solve configs for this seed, each with its oracle spectrum."""
    rng = np.random.default_rng(seed)
    out = []
    for template in SL_TEMPLATES:
        factors = 1.0 + JITTER * rng.uniform(-1.0, 1.0, size=8)
        robin = {"kind": "robin", "beta": template["beta"] * factors[7]}
        dirichlet = {"kind": "dirichlet"}
        problem = {"m0": SL_DOMAIN[0], "m1": SL_DOMAIN[1],
                   "q": _fourier(template, factors[:7]),
                   "bc_left": robin if template["robin"] == "left" else dirichlet,
                   "bc_right": robin if template["robin"] == "right" else dirichlet}
        window = [spectral_floor(problem) - 1.0, SL_WINDOW_TOP]
        ev, err = oracle_spectrum(problem, window)
        if not ev:
            raise RuntimeError(f"seed {seed}: generated problem has an empty window")
        if min(ev[0] - window[0], window[1] - ev[-1]) < WINDOW_MARGIN:
            raise RuntimeError(f"seed {seed}: an eigenvalue sits on a window end")
        out.append({"config": {"problem": problem, "window": window},
                    "oracle": {"eigenvalues": ev, "error_estimate": err}})
    return out


# ---------------------------------------------------------------------------
# output checks


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="ascii"))


def _within(ev, err, ref_ev, ref_err, what):
    _require(len(ev) == len(ref_ev),
             f"{what}: {len(ev)} eigenvalues, reference has {len(ref_ev)}")
    for lam, e, ref, re in zip(ev, err, ref_ev, ref_err):
        _require(abs(lam - ref) <= e + re + REL_ERR_FLOOR * max(1.0, abs(ref)),
                 f"{what}: eigenvalue {lam!r} misses reference {ref!r} "
                 f"by more than {e + re:.3e}")


def _rel_errors(ev, err):
    return [e / max(1.0, abs(lam)) for lam, e in zip(ev, err)]


def tube_rows(out: Path) -> dict:
    """tube_sweep.csv as {"R|mode_r|mode_s|family": ([eigenvalue], [error])}.

    Failure and empty-window rows keep their key with no eigenvalue.
    """
    with open(out / "tube_sweep.csv", newline="", encoding="ascii") as fh:
        rows = list(csv.DictReader(fh))
    table = {}
    for row in rows:
        key = "|".join((row["R"], row["mode_r"], row["mode_s"], row["family"]))
        table[key] = ([float(row["eigenvalue"])], [float(row["error"])]) \
            if row["eigenvalue"] else ([], [])
    return table


def _check_tube(reference):
    def check(code, out):
        _require(code == 0, f"tube-sweep exited {code}")
        _require(_read_json(out / "tube_sweep.json")["all_computed_pass"],
                 "tube-sweep: a row fails the threshold")
        got = tube_rows(out)
        _require(sorted(got) == sorted(reference),
                 f"tube-sweep rows {sorted(got)} differ from the reference")
        errs = []
        for key, (ev, err) in got.items():
            _within(ev, err, *reference[key], f"tube-sweep {key}")
            errs += _rel_errors(ev, err)
        return errs
    return check


def _check_sl(oracle, reference):
    def check(code, out):
        _require(code == 0, f"sl-solve exited {code}")
        res = _read_json(out / "sl_solve.json")["results"]["cross_validated"]
        ev, err = res["eigenvalues"], res["error_estimate"]
        _within(ev, err, oracle["eigenvalues"], oracle["error_estimate"],
                "sl-solve vs oracle")
        if reference is not None:
            _within(ev, err, reference["eigenvalues"], reference["error_estimate"],
                    "sl-solve vs seed-commit reference")
        return _rel_errors(ev, err)
    return check


def _check_s1(reference):
    def check(code, out):
        _require(code == 0, f"s1-dissect exited {code}")
        rep = _read_json(out / "s1_dissect.json")
        _require(rep["valid"] is True, "s1-dissect: report not valid")
        _require(rep["bound"] <= rep["true_mu_N"], "s1-dissect: bound above true mu_N")
        for key in ("N", "arc_nodes", "harmonic_dim_arcs", "harmonic_dim_overlap_total"):
            _require(rep[key] == reference[key], f"s1-dissect: {key} changed")
        for key in ("bound", "true_mu_N", "mu_arcs", "mu_overlap", "C_rho"):
            _require(math.isclose(rep[key], reference[key], rel_tol=1e-8),
                     f"s1-dissect: {key} {rep[key]!r} vs reference {reference[key]!r}")
        return []
    return check


def _check_ode(count):
    def check(code, out):
        _require(code == 0, f"compare-ode exited {code}")
        rep = _read_json(out / "compare_ode.json")
        _require(rep["all_passed"] is True, "compare-ode: a case failed")
        _require(len(rep["cases"]) == count, "compare-ode: case count changed")
        return []
    return check


def configs(name: str, seed: int) -> list:
    """(subcommand, config, oracle or None) for each call of one iteration."""
    if name == "tube_sweep":
        return [("tube-sweep", dict(TUBE_SWEEP_CONFIG), None)]
    if name == "sl_solve":
        return [("sl-solve", p["config"], p["oracle"]) for p in sl_problems(seed)]
    if name == "s1_dissect":
        return [("s1-dissect", {"n": n, "overlap_fraction": S1_OVERLAP}, None)
                for n in S1_SIZES]
    if name == "compare_ode":
        return [("compare-ode", {"suite": s, "seed": seed, "count": c}, None)
                for s, c in ODE_COUNTS.items()]
    raise ValueError(f"unknown workload {name!r} (expected one of {NAMES})")


def _check(name, i, config, oracle, seed, reference):
    if name == "tube_sweep":
        return _check_tube(reference["tube_sweep"])
    if name == "sl_solve":
        seeded = reference["sl_solve"].get(str(seed))
        return _check_sl(oracle, seeded[i] if seeded else None)
    if name == "s1_dissect":
        return _check_s1(reference["s1_dissect"][str(config["n"])])
    return _check_ode(config["count"])


def build(name: str, seed: int, workdir: Path, reference) -> list:
    """Write the workload's configs under workdir; return its calls.

    With reference None the calls carry no check (for capturing one).
    """
    calls = []
    for i, (sub, config, oracle) in enumerate(configs(name, seed)):
        out = workdir / f"call{i}"
        out.mkdir(parents=True, exist_ok=True)
        path = workdir / f"call{i}.json"
        path.write_text(json.dumps(config), encoding="ascii")
        check = None if reference is None else \
            _check(name, i, config, oracle, seed, reference)
        calls.append(Call([sub, "--config", str(path), "--out", str(out)], out, check))
    return calls
