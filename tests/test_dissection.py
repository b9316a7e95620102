"""Cover-based eigenvalue bounds: hand fixtures, invariants, JSON forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubespec.dissection import (
    BergerCurve,
    BoundResult,
    CoverSpec,
    berger_scaling,
    c_rho_from_partition,
    compute_N,
    cover_from_json,
    cover_to_json,
    dirac_bound,
    laplacian_bound,
)


def _two_set(mu=1.0, mu_pair=1.0, C_rho=1.0, **kw):
    return CoverSpec(mu_set=(mu, mu), adjacency=((1,), (0,)),
                     mu_pair={(0, 1): mu_pair}, C_rho=C_rho, **kw)


def test_single_set_pass_through():
    for mu in (1.0, 2.0, 0.5, 4.0):
        cover = CoverSpec(mu_set=(mu,), adjacency=((),), mu_pair={}, C_rho=1.0)
        res = laplacian_bound(cover)
        assert res.mu_bound == mu  # no overlap terms, dyadic reciprocal exact
        assert res.per_set_terms == (1.0 / mu,)
        assert res.N == 1
    generic = CoverSpec(mu_set=(3.7,), adjacency=((),), mu_pair={}, C_rho=0.0)
    assert laplacian_bound(generic).mu_bound == pytest.approx(3.7, rel=1e-15)


def test_two_set_symmetric_fixture():
    res = laplacian_bound(_two_set())
    # per set: 1/1 + 4 (1/1 + 1)(1/1 + 1/1) = 17
    assert res.per_set_terms == (17.0, 17.0)
    assert res.mu_bound == 1.0 / 34.0
    assert res.N == 1


def test_two_set_symmetric_dirac():
    res = dirac_bound(_two_set())
    assert res.mu_bound == 1.0 / 34.0
    assert res.lambda_bound == math.sqrt(1.0 / 34.0)


def test_three_set_chain_fixture():
    # end sets at mu 2, middle at 1, both overlaps at 1, C_rho = 2:
    # ends 1/2 + 4 (2 + 1)(1/2 + 1) = 18.5, middle 1 + 2 * 4 * 3 * 1.5 = 37
    cover = CoverSpec(mu_set=(2.0, 1.0, 2.0),
                      adjacency=((1,), (0, 2), (1,)),
                      mu_pair={(0, 1): 1.0, (1, 2): 1.0},
                      C_rho=2.0)
    res = laplacian_bound(cover)
    assert res.per_set_terms == (18.5, 37.0, 18.5)
    assert res.mu_bound == 1.0 / 74.0


def test_dirac_equals_sqrt_of_squared_laplacian():
    rng = np.random.default_rng(11)
    for _ in range(100):
        mu = rng.uniform(0.1, 30.0, size=2)
        cover = _two_set(mu=float(mu[0]), mu_pair=float(mu[1]),
                         C_rho=float(rng.uniform(0.0, 5.0)))
        d = dirac_bound(cover)
        l_sq = laplacian_bound(cover.squared())
        assert d.mu_bound == l_sq.mu_bound
        assert d.lambda_bound == math.sqrt(l_sq.mu_bound)


def test_count_conventions():
    cover = CoverSpec(
        mu_set=(1.0, 1.0, 1.0),
        adjacency=((1, 2), (0, 2), (0, 1)),
        mu_pair={(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0},
        C_rho=1.0,
        h_pair={(0, 1): 2},
        h_triple={(0, 1, 2): 1},
    )
    assert compute_N(cover) == 2 + 1 + 1
    assert compute_N(cover, ordered=True) == 4 + 6 + 1
    assert laplacian_bound(cover).N == 4
    assert laplacian_bound(cover, ordered=True).N == 11


def test_bound_result_validation():
    with pytest.raises(ValueError, match="sqrt"):
        BoundResult(mu_bound=4.0, lambda_bound=3.0, N=1, per_set_terms=(0.25,))
    with pytest.raises(ValueError, match="positive"):
        BoundResult(mu_bound=0.0, lambda_bound=0.0, N=1, per_set_terms=())


@settings(max_examples=60, deadline=None)
@given(mu=st.floats(0.05, 50.0), mu_pair=st.floats(0.05, 50.0),
       C=st.floats(0.0, 10.0))
def test_bound_always_positive_and_below_inputs(mu, mu_pair, C):
    res = laplacian_bound(_two_set(mu=mu, mu_pair=mu_pair, C_rho=C))
    assert 0.0 < res.mu_bound <= mu
    assert res.lambda_bound == math.sqrt(res.mu_bound)


@settings(max_examples=60, deadline=None)
@given(mu=st.floats(0.05, 50.0), mu_pair=st.floats(0.05, 50.0),
       C=st.floats(0.0, 10.0), factor=st.floats(1.0, 8.0))
def test_bound_monotone_in_inputs(mu, mu_pair, C, factor):
    base = laplacian_bound(_two_set(mu=mu, mu_pair=mu_pair, C_rho=C)).mu_bound
    better_mu = laplacian_bound(
        _two_set(mu=mu * factor, mu_pair=mu_pair, C_rho=C)).mu_bound
    better_pair = laplacian_bound(
        _two_set(mu=mu, mu_pair=mu_pair * factor, C_rho=C)).mu_bound
    better_C = laplacian_bound(
        _two_set(mu=mu, mu_pair=mu_pair, C_rho=C / factor)).mu_bound
    tol = 1e-12 * base
    assert better_mu >= base - tol
    assert better_pair >= base - tol
    assert better_C >= base - tol


def test_cover_validation_errors():
    with pytest.raises(ValueError, match="at least one"):
        CoverSpec(mu_set=(), adjacency=(), mu_pair={}, C_rho=1.0)
    with pytest.raises(ValueError, match="positive"):
        CoverSpec(mu_set=(0.0,), adjacency=((),), mu_pair={}, C_rho=1.0)
    with pytest.raises(ValueError, match="one row per set"):
        CoverSpec(mu_set=(1.0, 1.0), adjacency=((),), mu_pair={}, C_rho=1.0)
    with pytest.raises(ValueError, match="symmetric"):
        CoverSpec(mu_set=(1.0, 1.0), adjacency=((1,), ()),
                  mu_pair={(0, 1): 1.0}, C_rho=1.0)
    with pytest.raises(ValueError, match="itself"):
        CoverSpec(mu_set=(1.0,), adjacency=((0,),), mu_pair={}, C_rho=1.0)
    with pytest.raises(ValueError, match="without mu_pair"):
        CoverSpec(mu_set=(1.0, 1.0), adjacency=((1,), (0,)),
                  mu_pair={}, C_rho=1.0)
    with pytest.raises(ValueError, match="C_rho"):
        _two_set(C_rho=-1.0)
    with pytest.raises(ValueError, match="not an adjacent pair"):
        CoverSpec(mu_set=(1.0, 1.0, 1.0),
                  adjacency=((1,), (0,), ()),
                  mu_pair={(0, 1): 1.0}, C_rho=1.0, h_pair={(0, 2): 1})
    with pytest.raises(ValueError, match=">= 0"):
        _two_set(h_pair={(0, 1): -1})
    with pytest.raises(ValueError, match="pairwise overlaps"):
        CoverSpec(mu_set=(1.0, 1.0, 1.0),
                  adjacency=((1,), (0, 2), (1,)),
                  mu_pair={(0, 1): 1.0, (1, 2): 1.0},
                  C_rho=1.0, h_triple={(0, 1, 2): 1})


def test_berger_curve_fixture():
    # exponent 2/m = 1/2: the curve hits 10 exactly at t = 99
    res = berger_scaling(1.0, 1.0, 4, 1.0, range(100), thresholds=(10.0,))
    assert res.curve[99] == pytest.approx(10.0)
    assert res.curve[98] < 10.0
    assert res.t_star == {10.0: 99.0}
    assert all(c2 > c1 for c1, c2 in zip(res.curve, res.curve[1:]))


def test_berger_unreachable_threshold():
    res = berger_scaling(1.0, 1.0, 4, 1.0, (0.0, 1.0), thresholds=(100.0,))
    assert res.t_star == {100.0: None}


def test_berger_validation():
    with pytest.raises(ValueError, match="positive"):
        berger_scaling(0.0, 1.0, 2, 1.0, (0.0,))
    with pytest.raises(ValueError, match="at least 2"):
        berger_scaling(1.0, 1.0, 1, 1.0, (0.0,))
    with pytest.raises(ValueError, match="non-empty"):
        berger_scaling(1.0, 1.0, 2, 1.0, ())
    with pytest.raises(ValueError, match="increasing"):
        berger_scaling(1.0, 1.0, 2, 1.0, (1.0, 1.0))
    with pytest.raises(ValueError, match=">= 0"):
        berger_scaling(1.0, 1.0, 2, 1.0, (-1.0, 0.0))


def test_c_rho_from_partition_ramp():
    x = np.linspace(0.0, 1.0, 11)
    rows = np.vstack([x, 1.0 - x])
    assert c_rho_from_partition(rows, 0.1) == pytest.approx(0.5)


def test_c_rho_periodic_wrap_counts():
    rows = np.array([[0.0, 0.5, 1.0], [1.0, 0.5, 0.0]])
    assert c_rho_from_partition(rows, 1.0) == pytest.approx(0.125)
    # wrapping sees the jump from the last column back to the first
    assert c_rho_from_partition(rows, 1.0, periodic=True) == pytest.approx(0.5)


def test_c_rho_validation():
    good = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="2-D"):
        c_rho_from_partition(np.array([0.0, 1.0]), 1.0)
    with pytest.raises(ValueError, match="step"):
        c_rho_from_partition(good, 0.0)
    with pytest.raises(ValueError, match="finite"):
        c_rho_from_partition(np.array([[np.inf, 1.0], [1.0, 0.0]]), 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        c_rho_from_partition(np.array([[-0.5, 1.0], [1.5, 0.0]]), 1.0)
    with pytest.raises(ValueError, match="sum to 1"):
        c_rho_from_partition(np.array([[0.0, 1.0], [0.5, 0.0]]), 1.0)
    # a string is not read as True
    with pytest.raises(ValueError, match="periodic must be true or false"):
        c_rho_from_partition(good, 1.0, periodic="no")


def test_cover_json_round_trip():
    cover = CoverSpec(
        mu_set=(1.0, 2.0, 3.0),
        adjacency=((1, 2), (0, 2), (0, 1)),
        mu_pair={(0, 1): 1.5, (0, 2): 2.5, (1, 2): 3.5},
        C_rho=0.75,
        h_pair={(0, 1): 1},
        h_triple={(0, 1, 2): 2},
    )
    doc = cover_to_json(cover)
    again = cover_from_json(doc)
    assert again == cover
    assert cover_to_json(again) == doc


def test_cover_json_validation():
    base = cover_to_json(_two_set())
    with pytest.raises(ValueError, match="unknown"):
        cover_from_json({**base, "extra": 1})
    with pytest.raises(ValueError, match="missing"):
        cover_from_json({k: v for k, v in base.items() if k != "C_rho"})
    with pytest.raises(ValueError, match="dash-separated"):
        cover_from_json({**base, "mu_pair": {"0": 1.0}})
    with pytest.raises(ValueError, match="non-integer"):
        cover_from_json({**base, "mu_pair": {"a-b": 1.0}})


def test_berger_json_shape():
    res = berger_scaling(1.0, 1.0, 4, 1.0, (0.0, 99.0), thresholds=(10.0,))
    doc = res.to_json()
    assert doc["t_star"] == {"10.0": 99.0}
    assert doc["m"] == 4
    assert len(doc["t"]) == len(doc["curve"]) == 2
