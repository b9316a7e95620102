"""Fiber eigenvalues on the twisted torus: values, minima, mode identities."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubespec.geometry import DegenerationSchedule, TubeGeometry, schedule_instantiate
from tubespec.torus_modes import (
    ModeIndex,
    enumerate_modes,
    kappa_value,
    min_offzero_kappa,
    verify_mode_identities,
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


def test_enumerate_modes_counts_and_order():
    assert enumerate_modes(0) == [ModeIndex(0, 0)]
    assert len(enumerate_modes(1)) == 9
    modes2 = enumerate_modes(2)
    assert len(modes2) == 25
    assert modes2[0] == ModeIndex(-2, -2)
    assert modes2 == sorted(modes2)


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
    # dense lattice at doubled M_max plus a fine u grid must not find less
    geom = _tube(8.0, r0=3.0)
    achieved, cert = min_offzero_kappa(geom, M_max=4)
    u = np.linspace(geom.r0, geom.R0, 20001)
    brute = math.inf
    for r in range(-8, 9):
        for s in range(-8, 9):
            if (r, s) == (0, 0):
                continue
            brute = min(brute, float(np.min(kappa_value(r, s, u, geom))))
    assert achieved == pytest.approx(brute, rel=1e-9)
    assert achieved > 0.0
    assert cert["ring_min"] > achieved
    assert cert["outside_floor"] > achieved


def test_min_offzero_stable_under_M_doubling():
    geom = _tube(6.0)
    v1, _ = min_offzero_kappa(geom, M_max=2)
    v2, _ = min_offzero_kappa(geom, M_max=4)
    assert v1 == v2


def test_min_offzero_schedule_floor():
    # under the tight schedule the off-zero minimum clears (E1/D2 e^{r0})^2
    for R in (6.0, 8.0, 10.0):
        geom = _tube(R)
        achieved, _ = min_offzero_kappa(geom, M_max=2)
        assert achieved >= math.exp(2.0 * geom.r0)


def test_min_offzero_rho_zero_minimizer():
    geom = TubeGeometry(R=6.0, epsilon=math.exp(-12.0), rho=0.0, r0=0.2, R0=5.0)
    achieved, cert = min_offzero_kappa(geom, 2)
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
    modes = enumerate_modes(4)
    r = np.array([[m.r] for m in modes])
    s = np.array([[m.s] for m in modes])
    u = np.linspace(geom.r0, geom.R0, 4001)
    k = kappa_value(r, s, u, geom)
    assert k.shape == (len(modes), u.size)
    assert np.all(np.diff(k, axis=1) >= 0.0)
    for M in (1, 2, 4):
        achieved, _ = min_offzero_kappa(geom, M)
        inside = [(abs(m.r) <= M and abs(m.s) <= M and not m.is_zero) for m in modes]
        # both evaluate kappa_value, and u[0] is r0
        assert achieved == k[np.asarray(inside)].min()


def test_min_offzero_returns_value_and_certificate():
    result = min_offzero_kappa(_tube(6.0), 2)
    assert isinstance(result, tuple) and len(result) == 2
    achieved, cert = result
    assert isinstance(achieved, float) and isinstance(cert, dict)
    assert cert["achieved"] == achieved
    assert set(cert) == {"M_max", "achieved", "argmin_mode", "ring_min", "outside_floor"}
    with pytest.raises(TypeError):
        min_offzero_kappa(_tube(6.0), 2, with_certificate=True)


def test_min_offzero_insufficient_lattice():
    with pytest.raises(ValueError):
        min_offzero_kappa(_tube(6.0), 0)


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
    import tubespec.torus_modes as tm
    real = tm._g_value
    # a constant factor leaves every derivative identity intact; only the
    # normalization quadrature can see it
    monkeypatch.setattr(tm, "_g_value", lambda *args: 1.37 * real(*args))
    rep = verify_mode_identities(ModeIndex(1, 1), _tube(6.0))
    assert rep["max_residual"] <= 1e-6
    assert rep["normalization_rel_error"] == pytest.approx(1.37**2 - 1.0)
    assert not rep["passed"]


def test_verify_identities_r10_mode():
    rep = verify_mode_identities(ModeIndex(2, -1), _tube(10.0))
    assert rep["passed"], rep
