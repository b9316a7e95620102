"""Comparison-ODE checks: fixtures with closed forms, seeded suites."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from tubespec.ode_compare import (
    MAX_RK4_CELLS,
    MODES,
    ComparisonCase,
    PairTrajectories,
    _closed_form_v,
    _rk4,
    dirichlet_growth,
    integrate_pair,
    run_suite,
)


def _const_case(qval, k, alpha=0.0, m0=0.0, m1=8.0, n=1024):
    return ComparisonCase(q=lambda u: np.full_like(u, qval), k=k, alpha=alpha,
                          m0=m0, m1=m1, step=(m1 - m0) / n)


def _slope(case, m1):
    """The Robin-start slope check at m1, on the case stretched to [m0, m1]."""
    return integrate_pair(replace(case, m1=m1), "RobinStart")._slope_check(case.k)


def test_dirichlet_start_dominates_comparison_solution():
    case = _const_case(6.0, 2.0)
    traj = integrate_pair(case, "DirichletStart")
    assert np.all(traj.a >= traj.v - 1e-9 * np.max(np.abs(traj.a)))
    # v is sinh(k t)/k exactly
    want = np.sinh(case.k * traj.u) / case.k
    assert traj.v == pytest.approx(want, rel=1e-8)
    assert traj.v_prime == pytest.approx(np.cosh(case.k * traj.u), rel=1e-8)


def test_asymptotic_slope_constant_potential():
    # q = k^2 + 1 with k = 2: the true slope settles at sqrt(5)
    case = _const_case(5.0, 2.0, alpha=0.5)
    rep = _slope(case, 8.0)
    assert rep["passed"]
    assert rep["slope"] == pytest.approx(math.sqrt(5.0), rel=1e-9)
    assert rep["v_slope_limit"] == 2.0
    assert rep["threshold"] == pytest.approx(1.0 - 1e-6)


def test_asymptotic_slope_alpha_at_edge():
    # alpha = k is the extreme admissible start; slope still finds sqrt(2)
    case = _const_case(2.0, 1.0, alpha=1.0, m1=12.0, n=2048)
    rep = _slope(case, 12.0)
    assert rep["passed"]
    assert rep["slope"] == pytest.approx(math.sqrt(2.0), rel=1e-9)


def test_dirichlet_growth_constant_potential():
    case = _const_case(6.0, 2.0)
    rep = dirichlet_growth(case)
    assert rep["passed"] and rep["no_zero"] and rep["a_m1_nonzero"]
    assert rep["min_relative_margin"] >= -1e-8
    assert rep["a_m1"] == pytest.approx(
        math.sinh(math.sqrt(6.0) * case.m1) / math.sqrt(6.0), rel=1e-7)


def test_dirichlet_growth_delta_sweep():
    case = _const_case(6.0, 2.0)
    for delta in (0.25, 1.0, 4.0):
        rep = dirichlet_growth(case, delta=delta)
        assert rep["passed"]
        assert abs(rep["delta_used"] - delta) <= case.step
    with pytest.raises(ValueError, match="delta"):
        dirichlet_growth(case, delta=0.0)
    with pytest.raises(ValueError, match="delta"):
        dirichlet_growth(case, delta=case.m1)


def test_step_instability_is_reported():
    # 16 RK4 steps across 60 oscillations cannot hold 1e-7
    wobble = ComparisonCase(q=lambda u: 25.0 + 10.0 * np.sin(40.0 * u),
                            k=1.0, alpha=0.0, m0=0.0, m1=10.0, step=10.0 / 16.0)
    # halving moves a by about 1e-4 of its scale: under any gate looser
    # than 1e-4, above the 1e-7 one
    near_gate = _const_case(5.0, 2.0, n=128)
    for case in (wobble, near_gate):
        for mode in MODES:
            with pytest.raises(RuntimeError, match="step instability") as got:
                integrate_pair(case, mode)
            # the same text as the per-stage callback reference (further below)
            with pytest.raises(RuntimeError) as want:
                _reference_pair(case, mode)
            assert str(got.value) == str(want.value)


def test_case_validation():
    with pytest.raises(ValueError, match="k must be positive"):
        _const_case(5.0, -1.0)
    with pytest.raises(ValueError, match="alpha"):
        _const_case(5.0, 2.0, alpha=2.5)
    with pytest.raises(ValueError, match="m1 - m0"):
        _const_case(5.0, 2.0, m1=1e-9)
    with pytest.raises(ValueError, match="step"):
        ComparisonCase(q=lambda u: np.full_like(u, 5.0), k=2.0, alpha=0.0,
                       m0=0.0, m1=1.0, step=2.0)
    with pytest.raises(ValueError, match="endpoints must be finite"):
        _const_case(5.0, 2.0, m1=math.inf)
    with pytest.raises(ValueError, match="not finite"):
        _const_case(math.inf, 2.0)
    # inf q = k^2 lies outside the propositions
    with pytest.raises(ValueError, match="inf q > k"):
        _const_case(4.0, 2.0)
    with pytest.raises(ValueError, match="mode"):
        integrate_pair(_const_case(5.0, 2.0), "NeumannStart")
    assert MODES == ("RobinStart", "DirichletStart")


def test_a1_suite_seed7():
    rep = run_suite({"suite": "A.1", "seed": 7, "count": 20})
    assert rep["all_passed"]
    assert len(rep["cases"]) == 20
    assert all(c["passed"] for c in rep["cases"])
    assert rep["worst_riccati_margin"] >= -1e-8
    assert rep["worst_slope_gap"] > 0.0
    # case 0 always takes the alpha = k edge
    assert rep["cases"][0]["alpha"] == rep["cases"][0]["k"]


def test_a2_suite_seed7():
    rep = run_suite({"suite": "A.2", "seed": 7, "count": 10})
    assert rep["all_passed"]
    assert len(rep["cases"]) == 10
    assert rep["worst_growth_margin"] >= -1e-8
    assert all(c["no_zero"] and c["a_m1"] > 0.0 for c in rep["cases"])


def test_suites_are_deterministic():
    for suite in ("A.1", "A.2"):
        config = {"suite": suite, "seed": 3, "count": 4}
        assert run_suite(config) == run_suite(dict(config))


def test_run_suite_defaults():
    # suite A.1, seed 7 and the count of A.1's row
    assert run_suite({}) == run_suite({"suite": "A.1", "seed": 7, "count": 20})


def test_run_suite_dispatch():
    rep = run_suite({"suite": "A.2", "seed": 7, "count": 3})
    assert rep["suite"] == "A.2" and rep["count"] == 3
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite({"suite": "B.1"})
    with pytest.raises(ValueError, match=r"unknown suite \['A.1'\]"):
        run_suite({"suite": ["A.1"]})
    with pytest.raises(ValueError, match="unknown suite config"):
        run_suite({"suite": "A.1", "junk": 1})
    with pytest.raises(ValueError, match="JSON object"):
        run_suite("A.1")


def test_tube_mode_potential_feeds_comparison():
    # the (1, 0) fiber potential of the reference tube exceeds k^2 = 4 near
    # the inner end, so the comparison propositions apply on [r0, r0 + 1],
    # and the window count confirms no eigenvalue sneaks below 1
    from tubespec.geometry import DegenerationSchedule, schedule_instantiate
    from tubespec.sturm_liouville import count_below
    from tubespec.torus_modes import ModeIndex
    from tubespec.tube_spectrum import assemble_mode_problem, find_r0

    geom = schedule_instantiate(DegenerationSchedule(R_grid=(10.0,)), 0)
    r0, _ = find_r0(geom)
    geom = geom.with_r0(r0)

    for family in ("Abs1", "Abs2"):
        problem = assemble_mode_problem(ModeIndex(1, 0), geom, family)
        assert count_below(problem, 1.0) == 0

    problem = assemble_mode_problem(ModeIndex(1, 0), geom, "Abs2")
    case = ComparisonCase(q=problem.q, k=2.0, alpha=0.0,
                          m0=problem.m0, m1=problem.m0 + 1.0,
                          step=1.0 / 1024.0)
    assert integrate_pair(case, "RobinStart")._riccati_check()["passed"]
    assert dirichlet_growth(case, delta=problem.m0 + 0.25)["passed"]


def test_a1_suite_integrates_each_case_once(monkeypatch):
    import tubespec.ode_compare as oc
    calls = []
    real = oc.integrate_pair

    def counting(case, mode):
        calls.append(mode)
        return real(case, mode)

    monkeypatch.setattr(oc, "integrate_pair", counting)
    report = run_suite({"suite": "A.1", "count": 3})
    assert calls == ["RobinStart"] * 3
    assert report["all_passed"]


@pytest.mark.parametrize("k", [0.5, 1.7, 3.0])
@pytest.mark.parametrize("horizon", [10.0, 8.0])
def test_rk4_matches_closed_form_v(k, horizon):
    # integrate_pair takes v from _closed_form_v, so this is where _rk4 meets
    # an exact solution, and the closed form an independent one.  RK4 on
    # c = k^2 over the suites' spans [0, horizon / k], at their step
    # (span / 2048) and at half of it, from the A.2 start and the A.1 starts
    # at alpha = k and alpha = -k / 2
    span = horizon / k
    case = _const_case(k * k + 1.0, k, m1=span, n=2048)
    u = np.linspace(0.0, span, 2049)
    for y0 in ((0.0, 1.0), (1.0, -k), (1.0, k / 2.0)):
        v, vp = _closed_form_v(case, *y0, u)
        scale = max(1.0, float(np.max(np.abs(v))))
        coarse, fine = (_rk4([k * k] * (n + 1), [k * k] * n, y0, span / n, n)
                        for n in (2048, 4096))
        fine = fine[:, ::2]
        for run in (coarse, fine):
            assert np.max(np.abs(run[0] - v)) <= 1e-7 * scale, y0
            assert np.max(np.abs(run[1] - vp)) <= 1e-7 * max(scale, k * scale), y0
        assert np.max(np.abs(coarse - fine)) <= 1e-7 * scale, y0


def test_integrate_pair_runs_rk4_on_a_alone(monkeypatch):
    # one coarse and one fine run of a; v takes no integration
    import tubespec.ode_compare as oc
    calls = []
    real = oc._rk4

    def counting(c_node, c_mid, y0, h, n):
        calls.append(n)
        return real(c_node, c_mid, y0, h, n)

    monkeypatch.setattr(oc, "_rk4", counting)
    case = _const_case(5.0, 2.0, n=1024)
    for mode in MODES:
        calls.clear()
        integrate_pair(case, mode)
        assert calls == [1024, 2048]


def _callback_rk4(f, y0, m0: float, m1: float, n: int):
    """Fixed-step RK4 for y' = f(u, y), y a pair; both components as arrays."""
    h = (m1 - m0) / n
    a, b = y0
    out = [(a, b)]
    u = m0
    for i in range(n):
        k1a, k1b = f(u, a, b)
        k2a, k2b = f(u + 0.5 * h, a + 0.5 * h * k1a, b + 0.5 * h * k1b)
        k3a, k3b = f(u + 0.5 * h, a + 0.5 * h * k2a, b + 0.5 * h * k2b)
        u2 = m0 + (i + 1) * h
        k4a, k4b = f(u2, a + h * k3a, b + h * k3b)
        a += h * (k1a + 2 * k2a + 2 * k3a + k4a) / 6.0
        b += h * (k1b + 2 * k2b + 2 * k3b + k4b) / 6.0
        u = u2
        out.append((a, b))
    return np.array(out).T


def _reference_pair(case, mode):
    """integrate_pair's fields from the per-stage callback RK4 for a.

    Each stage evaluates q at its own point, one point per call; v is
    written out from its closed form.
    """
    y0 = (1.0, -case.alpha) if mode == "RobinStart" else (0.0, 1.0)

    def q(u):
        return float(case.q(np.array([u]))[0])

    def f_a(u, a, b):
        return (b, q(u) * a)

    n = max(16, int(math.ceil((case.m1 - case.m0) / case.step)))
    coarse_a = _callback_rk4(f_a, y0, case.m0, case.m1, n)
    fine_a = _callback_rk4(f_a, y0, case.m0, case.m1, 2 * n)[:, ::2]
    a, ap = fine_a
    u = np.linspace(case.m0, case.m1, n + 1)
    scale_a = max(1.0, float(np.max(np.abs(a))))
    err_a = float(np.max(np.abs(coarse_a - fine_a)))
    if err_a > 1e-7 * scale_a:
        raise RuntimeError(
            f"step instability: halving moved a by {err_a:.3e} (scale {scale_a:.3e}); "
            f"reduce step={case.step}")
    kt = case.k * (u - case.m0)
    v = y0[0] * np.cosh(kt) + y0[1] / case.k * np.sinh(kt)
    v_prime = case.k * (y0[0] * np.sinh(kt) + y0[1] / case.k * np.cosh(kt))
    return {"u": u, "a": a, "a_prime": ap, "v": v, "v_prime": v_prime,
            "a_error": err_a}


def _wavy_case(rng, m0, cells, ragged):
    k = float(rng.uniform(0.5, 3.0))
    amp, omega, phase = (float(x) for x in rng.uniform([0.1, 0.5, 0.0],
                                                       [1.0, 3.0, 6.0]))
    m1 = m0 + float(rng.uniform(1.0, 8.0)) / k
    # a ragged step leaves a partial cell that ceil rounds up to a whole one
    step = (m1 - m0) / (cells - 0.37) if ragged else (m1 - m0) / cells
    return ComparisonCase(
        q=lambda u: k * k + amp * (1.5 + np.sin(omega * u + phase)),
        k=k, alpha=float(k * rng.uniform(-0.5, 1.0)), m0=m0, m1=m1, step=step)


@pytest.mark.parametrize("mode", MODES)
def test_integrate_pair_matches_callback_rk4_bit_for_bit(mode):
    rng = np.random.default_rng(2024)
    cases = [_wavy_case(rng, m0, cells, ragged)
             for m0 in (0.0, -0.0, 1.7, -2.3)
             for cells, ragged in ((400, False), (999, True), (3000, False))]
    cases.append(_const_case(4.5, 2.0, m0=-0.0))
    # a q that reads the sign of zero sees node 0 = m0 = -0.0 on both sides
    cases.append(ComparisonCase(q=lambda u: 5.0 + 1e-9 * np.signbit(u), k=2.0,
                                alpha=0.0, m0=-0.0, m1=8.0, step=8.0 / 1024))
    for case in cases:
        got = integrate_pair(case, mode)
        reference = _reference_pair(case, mode)
        assert {"mode", *reference} == {f.name for f in fields(PairTrajectories)}
        assert got.mode == mode
        for name, want in reference.items():
            value = getattr(got, name)
            assert np.array_equal(value, want), (case, name)
            assert np.array_equal(np.signbit(value), np.signbit(want)), (case, name)


@pytest.mark.parametrize("cells", [64, 257, 2048])
def test_integrate_pair_samples_q_at_most_once_per_node_and_midpoint(cells):
    # one call each for the 2n + 1 fine nodes, the 2n fine midpoints and the
    # n coarse midpoints; the coarse nodes are the even fine nodes.  Four
    # points per RK4 step on the coarse and fine runs would make 12n.
    calls = []

    def q(u):
        calls.append(u.size)
        return 5.0 + np.sin(u)

    case = ComparisonCase(q=q, k=2.0, alpha=0.0, m0=0.0, m1=1.0,
                          step=1.0 / cells)
    assert len(calls) == 1
    for mode in MODES:
        calls.clear()
        integrate_pair(case, mode)
        assert len(calls) <= 3
        assert 0 < sum(calls) <= 5 * cells + 1


def test_scalar_potential_is_refused():
    with pytest.raises(ValueError, match="array of the same shape"):
        ComparisonCase(q=lambda u: 5.0, k=2.0, alpha=0.0, m0=0.0, m1=1.0,
                       step=1.0 / 64)


def test_rk4_mesh_is_bounded():
    # refused at construction, before q is sampled or any mesh is built
    def q(u):
        raise AssertionError("q sampled for a refused case")

    over = 1.0 / (MAX_RK4_CELLS + 0.5)
    with pytest.raises(ValueError, match=f"{MAX_RK4_CELLS + 1} RK4 cells"):
        ComparisonCase(q=q, k=2.0, alpha=0.0, m0=0.0, m1=1.0, step=over)
    with pytest.raises(ValueError, match="above the limit"):
        ComparisonCase(q=q, k=2.0, alpha=0.0, m0=0.0, m1=1.0, step=1e-12)
    with pytest.raises(ValueError, match="inf RK4 cells"):
        ComparisonCase(q=q, k=2.0, alpha=0.0, m0=0.0, m1=1.0, step=5e-324)
    # a case stretched to a longer interval is bounded the same way
    case = _const_case(5.0, 2.0, m1=1.0, n=MAX_RK4_CELLS)
    with pytest.raises(ValueError, match="above the limit"):
        replace(case, m1=6.0)


@pytest.mark.parametrize("suite,count,horizon", [("A.1", 20, 10.0),
                                                 ("A.2", 10, 8.0)])
@pytest.mark.parametrize("seed", [1, 7, 17])
def test_suite_potential_sampled_as_arrays_equals_pointwise(suite, count,
                                                           horizon, seed):
    # The reports' bytes rest on numpy's sin agreeing with math.sin on every
    # point that integrate_pair samples; a build where they differ fails here
    from tubespec.ode_compare import _draw_case

    rng = np.random.default_rng(seed)
    for i in range(count):
        case, p = _draw_case(rng, i, horizon_over_k=horizon)
        grids = []

        def recording(u, q=case.q):
            values = q(u)
            grids.append((u.copy(), values.copy()))
            return values

        integrate_pair(replace(case, q=recording), "RobinStart")
        assert len(grids) == 4  # the construction sample and three grids
        for u, got in grids:
            want = np.array([p["k"] * p["k"] + p["amp"] * (
                p["offset"] + math.sin(p["omega"] * x + p["phase"]))
                for x in u.tolist()])
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (
                suite, seed, i)
