"""Tube geometry: validation, schedule membership, profile identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubespec.geometry import (
    DegenerationSchedule,
    TubeGeometry,
    WarpedProfile,
    schedule_from_json,
    schedule_instantiate,
    schedule_to_json,
)


def test_make_tube_valid_and_schedule_member():
    geom = TubeGeometry(R=6.0, r0=2.0, R0=5.0,
                        epsilon=math.exp(-12.0), rho=math.exp(-6.0))
    assert geom.r0 == 2.0 and geom.R0 == 5.0
    sched = DegenerationSchedule(R_grid=(6.0,))
    assert sched.check_member(geom)


def test_make_tube_ordering_violation():
    with pytest.raises(ValueError):
        TubeGeometry(R=6.0, r0=5.0, R0=2.0,
                     epsilon=math.exp(-12.0), rho=math.exp(-6.0))


def test_make_tube_wide_schedule_member():
    geom = TubeGeometry(R=10.0, r0=3.0, R0=9.0,
                        epsilon=2.0 * math.exp(-20.0), rho=0.5 * math.exp(-10.0))
    sched = DegenerationSchedule(D1=1.0, D2=2.0, E1=0.5, E2=1.0, R_grid=(10.0,))
    assert sched.check_member(geom)
    tight = DegenerationSchedule(R_grid=(10.0,))
    assert not tight.check_member(geom)


def test_validation_rejects_bad_parameters():
    with pytest.raises(ValueError):
        TubeGeometry(R=6.0, epsilon=0.0, rho=0.1)
    with pytest.raises(ValueError):
        TubeGeometry(R=6.0, epsilon=1.0, rho=math.pi)
    with pytest.raises(ValueError):
        TubeGeometry(R=6.0, epsilon=1.0, rho=0.1, r0=-0.5)
    with pytest.raises(ValueError):
        TubeGeometry(R=-1.0, epsilon=1.0, rho=0.1)


def test_schedule_instantiate_fixture():
    sched = DegenerationSchedule(R_grid=(6.0,))
    geom = schedule_instantiate(sched, 0)
    assert geom.R == 6.0
    assert geom.epsilon == math.exp(-12.0)
    assert geom.rho == math.exp(-6.0)
    assert geom.R0 == 5.0
    assert geom.r0 is None


def test_schedule_instantiate_d1_scaling():
    sched = DegenerationSchedule(D1=2.0, D2=2.0, R_grid=(8.0,))
    geom = schedule_instantiate(sched, 0)
    assert geom.epsilon == 2.0 * math.exp(-16.0)


def test_schedule_instantiate_index_errors():
    sched = DegenerationSchedule(R_grid=(6.0, 8.0, 10.0))
    with pytest.raises(IndexError):
        schedule_instantiate(sched, 5)
    with pytest.raises(TypeError):
        schedule_instantiate(sched, 1.5)


def test_schedule_validation():
    with pytest.raises(ValueError):
        DegenerationSchedule(D1=2.0, D2=1.0)
    with pytest.raises(ValueError):
        DegenerationSchedule(R_grid=(6.0, 6.0))
    with pytest.raises(ValueError):
        DegenerationSchedule(R_grid=(-1.0, 6.0))
    # booleans and strings are refused, not read as 1.0 or compared
    for bad in (True, "1.0", None):
        with pytest.raises(ValueError, match="D1 must be a finite number"):
            DegenerationSchedule(D1=bad)
    sched = DegenerationSchedule(D1=1, D2=np.float64(2), E1=1, E2=1)
    assert [type(v) for v in (sched.D1, sched.D2, sched.E1, sched.E2)] == [float] * 4


def test_profile_H_identity_against_numerical_log_derivative():
    # H(u) = 1/2 (tanh + coth)(R - u) must match -1/2 d/du log(f h) to O(step^2)
    geom = TubeGeometry(R=6.0, r0=0.5, R0=5.0,
                        epsilon=math.exp(-12.0), rho=math.exp(-6.0))
    prof = WarpedProfile(geom)
    u = np.linspace(0.6, 4.9, 41)
    for step in (1e-3, 5e-4):
        log_fh = lambda x: np.log(prof.f(x) * prof.h(x))
        numeric = -0.5 * (log_fh(u + step) - log_fh(u - step)) / (2.0 * step)
        assert np.max(np.abs(numeric - prof.H(u))) < 10.0 * step**2


def test_profile_bounds_and_beta():
    geom = TubeGeometry(R=8.0, r0=0.2, R0=7.0,
                        epsilon=math.exp(-16.0), rho=math.exp(-8.0))
    prof = WarpedProfile(geom)
    u = np.linspace(0.2, 7.0, 101)
    assert np.all(prof.f(u) >= 1.0)
    assert np.all(prof.h(u) > 0.0)
    assert np.all(prof.H(u) >= 1.0)
    assert np.all(prof.beta(u) < 0.0)
    # at u = R - 1 the Robin coefficient is exactly -(tanh 1 + coth 1)
    expected = -(math.tanh(1.0) + 1.0 / math.tanh(1.0))
    assert prof.beta(geom.R - 1.0) == pytest.approx(expected, rel=1e-15)


def test_profile_domain_guard():
    geom = TubeGeometry(R=4.0, r0=0.0, R0=3.0,
                        epsilon=math.exp(-8.0), rho=math.exp(-4.0))
    prof = WarpedProfile(geom)
    with pytest.raises(ValueError):
        prof.h(4.0)
    assert prof.f(4.0) == 1.0  # f is defined through u = R


@settings(max_examples=50, deadline=None)
@given(R=st.floats(2.0, 20.0), frac=st.floats(0.0, 0.9))
def test_profile_identities_hold_for_random_geometries(R, frac):
    geom = TubeGeometry(R=R, epsilon=math.exp(-2 * R), rho=0.0,
                        r0=frac * (R - 1.0), R0=R - 1.0)
    prof = WarpedProfile(geom)
    u = np.linspace(geom.r0, geom.R0, 17)
    x = R - u
    assert np.allclose(prof.H(u), 0.5 * (np.tanh(x) + 1.0 / np.tanh(x)),
                       rtol=1e-13)
    assert np.all(prof.beta(u) == -2.0 * prof.H(u))
    assert np.all(prof.f(u) >= 1.0) and np.all(prof.h(u) > 0.0)


def test_schedule_json_round_trip():
    sched = DegenerationSchedule(D1=1.0, D2=2.0, E1=0.5, E2=1.0,
                                 R_grid=(6.0, 8.0))
    assert schedule_from_json(schedule_to_json(sched)) == sched
    with pytest.raises(ValueError):
        schedule_from_json({"R_grid": [6.0], "bogus": 1})
