"""Fiber eigenvalues on the twisted torus: values, minima, mode identities."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import checks
import tubespec
from checks import verify_mode_identities
from tubespec.geometry import DegenerationSchedule, TubeGeometry, schedule_instantiate
from tubespec.torus_modes import (
    MAX_MODE_CANDIDATES,
    ModeCapExceeded,
    ModeIndex,
    kappa_value,
    min_offzero_kappa,
    modes_below,
)


def _tube(R: float, r0: float = 0.2) -> TubeGeometry:
    sched = DegenerationSchedule(R_grid=(R,))
    return schedule_instantiate(sched, 0).with_r0(r0)


def test_zero_mode_is_zero_everywhere():
    geom = _tube(6.0)
    for u in (0.0, 1.0, 4.9):
        assert kappa_value(0, 0, u, geom) == 0.0


def test_unit_s_mode_at_epsilon_two_pi():
    # kappa_(0,1) = (2 pi)^2 / (eps^2 f^2) = 1/f^2 when eps = 2 pi; near u = R
    # where f -> 1 the value tends to 1
    geom = TubeGeometry(R=6.0, epsilon=2.0 * math.pi, rho=0.0, r0=0.0, R0=5.0)
    val = kappa_value(0, 1, 6.0 - 1e-9, geom)
    assert val == pytest.approx(1.0, abs=1e-8)


def test_unit_r_mode_high_precision_oracle():
    # rho = 0, mode (1,0), u = R-1: kappa = 1/sinh(1)^2
    geom = TubeGeometry(R=6.0, epsilon=math.exp(-12.0), rho=0.0, r0=0.0, R0=5.0)
    val = kappa_value(1, 0, 5.0, geom)
    with mpmath.workdps(40):
        oracle = float(1 / mpmath.sinh(1)**2)
        # second route through the identity coth^2 - 1 = csch^2
        oracle2 = float(1 / mpmath.tanh(1)**2 - 1)
    assert oracle == pytest.approx(oracle2, rel=1e-15)
    assert val == pytest.approx(oracle, rel=1e-14)
    assert oracle == pytest.approx(0.7240616609663105, rel=1e-12)


def test_kappa_domain_guard():
    geom = _tube(6.0)
    with pytest.raises(ValueError):
        kappa_value(1, 0, 6.0, geom)


def _box(r_max, s_max):
    r, s = np.meshgrid(np.arange(-r_max, r_max + 1), np.arange(-s_max, s_max + 1),
                       indexing="ij")
    return r.ravel(), s.ravel()


def _brute_force_cases():
    cases = []
    for D1, E1 in ((1.0, 1.0), (0.1, 1.0), (1.0, 10.0)):
        sched = DegenerationSchedule(D1=D1, D2=D1, E1=E1, E2=E1, R_grid=(3.0, 6.0, 10.0))
        for j in range(3):
            geom = schedule_instantiate(sched, j).with_r0(0.2)
            bound = float(kappa_value([0, 1], [1, 0], geom.r0, geom).min())
            for cutoff in (0.0, 0.5 * bound, bound, 2.0, 12.0):
                cases.append((geom, cutoff))
    # short tubes where one floor term is the least of the three and close to
    # the true minimum: the rows past the r range, ((r_max + 1) / h0)^2, at
    # (D, E) = (10, 10), and the modes outside each row's r band,
    # (w_gap / (epsilon f0))^2, at (100, 1)
    for (D, E), pairs in (((10.0, 10.0), ((0.0, 1.0), (0.5, math.e))),
                          ((100.0, 1.0), ((0.5, 2.0), (0.9, math.e)))):
        sched = DegenerationSchedule(D1=D, D2=D, E1=E, E2=E, R_grid=(2.0,))
        cases += [(schedule_instantiate(sched, 0).with_r0(r0), cutoff)
                  for r0, cutoff in pairs]
    # rho = 0: one s row, and a wide leaf whose ellipse spans several rows
    for geom, cutoffs in (
            (TubeGeometry(R=6.0, epsilon=math.exp(-12.0), rho=0.0, r0=0.2, R0=5.0),
             (1e-4, 0.01, 0.5)),
            (TubeGeometry(R=3.0, epsilon=1.0, rho=0.0, r0=0.0, R0=2.0),
             (0.3, 1.0, 4.0))):
        cases += [(geom, c) for c in cutoffs]
    return cases


@pytest.mark.parametrize(
    "geom,cutoff", _brute_force_cases(),
    ids=lambda v: f"{v:.4g}" if isinstance(v, float) else
    f"R={v.R:g}-eps={v.epsilon:.3g}-rho={v.rho:.3g}")
def test_modes_below_matches_brute_force(geom, cutoff):
    # a box that holds the ellipse with room to spare on every side, so the
    # floor faces rejected candidates, rows past the r range and modes
    # outside each row's r band
    x0 = geom.R - geom.r0
    r_e = math.sinh(x0) * math.sqrt(cutoff)
    w_e = geom.epsilon * math.cosh(x0) * math.sqrt(cutoff)
    r_box = int(r_e) + 4
    r, s = _box(r_box, int((w_e + r_box * geom.rho) / (2.0 * math.pi)) + 4)
    k = kappa_value(r, s, geom.r0, geom)
    modes, kappa, floor = modes_below(geom, cutoff)
    inside = k <= cutoff
    assert modes == sorted(ModeIndex(int(a), int(b)) for a, b in zip(r[inside], s[inside]))
    assert cutoff < floor <= k[~inside].min()
    # the returned kappa is each mode's kappa_value at r0, bit for bit
    assert np.array_equal(kappa, kappa_value([m.r for m in modes], [m.s for m in modes],
                                             geom.r0, geom))


def test_modes_below_refuses_past_the_cap():
    geom = TubeGeometry(R=6.0, epsilon=math.exp(-12.0), rho=0.0, r0=0.2, R0=5.0)
    # rho = 0 puts every |r| <= sinh(5.8) sqrt(cutoff) in the s = 0 row
    with pytest.raises(ModeCapExceeded, match=str(MAX_MODE_CANDIDATES)):
        modes_below(geom, 10.0)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="cutoff"):
            modes_below(geom, bad)
    with pytest.raises(ValueError, match="r0"):
        modes_below(TubeGeometry(R=6.0, epsilon=1.0, rho=0.0), 1.0)


def test_mode_index_validation():
    with pytest.raises(TypeError):
        ModeIndex(0.5, 0)
    assert ModeIndex(0, 0).is_zero
    assert not ModeIndex(1, 0).is_zero


@settings(max_examples=80, deadline=None)
@given(r=st.integers(-5, 5), s=st.integers(-5, 5), frac=st.floats(0.0, 0.99))
def test_kappa_symmetry_and_sign(r, s, frac):
    geom = _tube(8.0)
    u = geom.r0 + frac * (geom.R0 - geom.r0)
    plus = kappa_value(r, s, u, geom)
    minus = kappa_value(-r, -s, u, geom)
    assert plus == minus  # exact: both summands are even in (r, s)
    if (r, s) == (0, 0):
        assert plus == 0.0
    else:
        assert plus > 0.0


def test_min_offzero_against_brute_force():
    # a square lattice plus a fine u grid must not find less
    geom = _tube(8.0, r0=3.0)
    achieved, cert = min_offzero_kappa(geom)
    u = np.linspace(geom.r0, geom.R0, 20001)
    brute = math.inf
    for r in range(-8, 9):
        for s in range(-8, 9):
            if (r, s) == (0, 0):
                continue
            brute = min(brute, float(np.min(kappa_value(r, s, u, geom))))
    assert achieved == pytest.approx(brute, rel=1e-9)
    assert achieved > 0.0
    assert cert["achieved"] == achieved


def test_min_offzero_far_wraparound_minimum():
    # at D1 = 0.1 the smallest off-zero kappa sits far out along the twist:
    # every |r|, |s| <= 16 has kappa >= 398
    sched = DegenerationSchedule(D1=0.1, D2=0.1, R_grid=(3.0,))
    geom = schedule_instantiate(sched, 0).with_r0(0.0)
    achieved, cert = min_offzero_kappa(geom)
    assert achieved == 174.29862220464287
    assert tuple(cert["argmin_mode"]) in {(126, -1), (-126, 1)}
    r, s = _box(16, 16)
    assert kappa_value(r, s, 0.0, geom)[(r != 0) | (s != 0)].min() > 398.0


@pytest.mark.parametrize("R,r0", [(2.0, 0.0), (6.0, 1.5)])
def test_min_offzero_seeded_past_the_wraparound(R, r0):
    # at (D1, E1) = (0.01, 3) min(kappa(0, 1), kappa(1, 0)) is so large that
    # modes_below refuses on the candidate cap; the modes where the twist
    # wraps (r near 2 pi / rho, s = -1) bring the seed down to the minimum
    sched = DegenerationSchedule(D1=0.01, D2=0.01, E1=3.0, E2=3.0, R_grid=(R,))
    geom = schedule_instantiate(sched, 0).with_r0(r0)
    achieved, cert = min_offzero_kappa(geom)
    # every mode with kappa(r0) <= achieved has |r| <= h0 sqrt(achieved) and
    # |2 pi s| <= |r| rho + epsilon f0 sqrt(achieved)
    x0 = R - r0
    r_max = math.ceil(math.sinh(x0) * math.sqrt(achieved))
    s_max = math.ceil((r_max * geom.rho
                       + geom.epsilon * math.cosh(x0) * math.sqrt(achieved))
                      / (2.0 * math.pi))
    r, s = _box(r_max, s_max)
    kappa = kappa_value(r, s, r0, geom)
    offzero = (r != 0) | (s != 0)
    assert achieved == kappa[offzero].min()
    assert kappa_value(*cert["argmin_mode"], r0, geom) == achieved


def test_min_offzero_schedule_floor():
    # under the tight schedule the off-zero minimum clears (E1/D2 e^{r0})^2
    for R in (6.0, 8.0, 10.0):
        geom = _tube(R)
        achieved, _ = min_offzero_kappa(geom)
        assert achieved >= math.exp(2.0 * geom.r0)


def test_min_offzero_rho_zero_minimizer():
    geom = TubeGeometry(R=6.0, epsilon=math.exp(-12.0), rho=0.0, r0=0.2, R0=5.0)
    achieved, cert = min_offzero_kappa(geom)
    assert tuple(cert["argmin_mode"]) in {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert achieved > 0.0


def _monotonicity_geometries():
    out = []
    for R in range(2, 13):
        geom = schedule_instantiate(DegenerationSchedule(R_grid=(float(R),)), 0)
        out += [geom.with_r0(0.0), geom.with_r0(geom.R0 - 1e-3)]
    out.append(TubeGeometry(R=6.0, epsilon=math.exp(-12.0), rho=0.0, r0=0.2, R0=5.0))
    out.append(TubeGeometry(R=6.0, epsilon=math.exp(-12.0), rho=math.exp(-6.0),
                            r0=0.2, R0=6.0 - 1e-3))
    return out


@pytest.mark.parametrize(
    "geom", _monotonicity_geometries(),
    ids=lambda g: f"R={g.R:g}-r0={g.r0:g}-R0={g.R0:g}-rho={g.rho:.3g}")
def test_kappa_nondecreasing_on_the_interval(geom):
    # min_offzero_kappa and the skip floors evaluate every mode at r0 only;
    # that is exact because no kappa_i decreases on [r0, R0]
    r, s = _box(4, 4)
    u = np.linspace(geom.r0, geom.R0, 4001)
    k = kappa_value(r[:, None], s[:, None], u, geom)
    assert k.shape == (r.size, u.size)
    assert np.all(np.diff(k, axis=1) >= 0.0)
    achieved, _ = min_offzero_kappa(geom)
    # both evaluate kappa_value, and u[0] is r0
    assert achieved == k[(r != 0) | (s != 0), 0].min()


def test_min_offzero_returns_value_and_certificate():
    result = min_offzero_kappa(_tube(6.0))
    assert isinstance(result, tuple) and len(result) == 2
    achieved, cert = result
    assert isinstance(achieved, float) and isinstance(cert, dict)
    assert cert == {"achieved": achieved, "argmin_mode": (-1, 0)}
    with pytest.raises(TypeError):
        min_offzero_kappa(_tube(6.0), 2)


def test_verify_identities_zero_mode_trivial():
    rep = verify_mode_identities(ModeIndex(0, 0), _tube(6.0))
    assert rep["passed"]
    assert rep["max_residual"] <= 1e-10


def test_verify_identities_mixed_mode():
    rep = verify_mode_identities(ModeIndex(1, 1), _tube(6.0))
    assert rep["passed"]
    assert rep["max_residual"] <= 1e-6
    assert rep["normalization_rel_error"] <= 1e-8


def test_verify_identities_catches_a_misnormalized_mode(monkeypatch):
    real = checks._g_value
    # a constant factor leaves every derivative identity intact; only the
    # normalization quadrature can see it
    monkeypatch.setattr(checks, "_g_value", lambda *args: 1.37 * real(*args))
    rep = verify_mode_identities(ModeIndex(1, 1), _tube(6.0))
    assert rep["max_residual"] <= 1e-6
    assert rep["normalization_rel_error"] == pytest.approx(1.37**2 - 1.0)
    assert not rep["passed"]


def test_verify_identities_sees_a_modulus_that_varies_in_t(monkeypatch):
    real = checks._g_value
    geom = _tube(6.0)

    # |g|^2 gains (1 + 0.5 cos)^2, whose mean over a period is 1 + 1/8
    def wobbly(mode, geometry, u, t, theta):
        return real(mode, geometry, u, t, theta) * (
            1.0 + 0.5 * np.cos(2.0 * math.pi * np.asarray(t) / geometry.epsilon))

    monkeypatch.setattr(checks, "_g_value", wobbly)
    rep = verify_mode_identities(ModeIndex(1, 1), geom)
    assert rep["normalization_rel_error"] == pytest.approx(0.125, rel=1e-12)
    assert not rep["passed"]


def test_importing_the_cli_leaves_scipy_integrate_unloaded(tmp_path):
    # the import alone, then each subcommand on its golden config, each in a
    # fresh interpreter, so a lazy import inside a solve shows too.  Only
    # solve_fd imports scipy (scipy.linalg), and only tube-sweep and sl-solve
    # by fd or cross reach it; the rest start without scipy
    from test_golden import CASES
    code = ("import json, sys, tubespec.cli; "
            "codes = [tubespec.cli.main(argv) for argv in json.loads(sys.argv[1])]; "
            "scipy = [m for m in sys.modules if m.split('.')[0] == 'scipy']; "
            "print(json.dumps([codes, len(scipy), sorted({m.split('.')[1] for m in scipy "
            "if '.' in m and not m.split('.')[1].startswith('_')})]))")
    env = dict(os.environ, PYTHONPATH=str(Path(tubespec.__file__).resolve().parents[1]))
    runs, uses_fd = {"import": ([], [])}, set()
    for i, (name, sub, config, exit_code) in enumerate(CASES):
        if sub == "tube-sweep" or sub == "sl-solve" and config["method"] != "shooting":
            uses_fd.add(name)
        argv = [sub, "--out", str(tmp_path / f"out{i}")]
        if config is not None:
            path = tmp_path / f"config{i}.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            argv += ["--config", str(path)]
        runs[name] = ([argv], [exit_code])
    loaded = {}
    for name, (argvs, codes_expected) in runs.items():
        out = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], env=env,
                             capture_output=True, text=True, check=True).stdout
        codes, count, subpackages = json.loads(out.splitlines()[-1])
        assert codes == codes_expected, name
        loaded[name] = subpackages if count else None
    # scipy.version comes with any import of scipy
    assert loaded == {name: ["linalg", "version"] if name in uses_fd else None
                      for name in runs}


def test_verify_identities_r10_mode():
    rep = verify_mode_identities(ModeIndex(2, -1), _tube(10.0))
    assert rep["passed"], rep
