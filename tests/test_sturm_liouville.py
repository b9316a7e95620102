"""Windowed 1-D eigenvalue solvers: classical fixtures, counts, agreement."""

import dataclasses
import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import assert_within_oracle
from tubespec.sturm_liouville import (
    BoundaryCondition,
    SLProblem,
    SpectrumResult,
    attractive_boundary_constant,
    count_below,
    cross_check,
    potential_from_json,
    problem_from_json,
    problem_to_json,
    sample_potential,
    solve_cross_validated,
    solve_fd,
    solve_shooting,
    spectral_floor,
)

DIR = BoundaryCondition.dirichlet()


def _dirichlet_q0() -> SLProblem:
    return SLProblem(q=lambda u: 0.0 * u, m0=0.0, m1=math.pi,
                     bc_left=DIR, bc_right=DIR)


def _neumann_q0() -> SLProblem:
    free = BoundaryCondition.robin(0.0)
    return SLProblem(q=lambda u: 0.0 * u, m0=0.0, m1=math.pi,
                     bc_left=free, bc_right=free)


def test_dirichlet_classical_shooting():
    res = solve_shooting(_dirichlet_q0(), (0.0, 30.0))
    assert len(res.eigenvalues) == 5
    for got, want in zip(res.eigenvalues, (1, 4, 9, 16, 25)):
        assert got == pytest.approx(want, rel=1e-10)


def test_dirichlet_classical_fd():
    res = solve_fd(_dirichlet_q0(), 128, (0.0, 30.0))
    for got, want, err in zip(res.eigenvalues, (1, 4, 9, 16, 25),
                              res.error_estimate):
        assert got == pytest.approx(want, rel=1e-6)
        assert abs(got - want) <= 10 * err + 1e-12


def test_neumann_classical():
    res = solve_cross_validated(_neumann_q0(), (-0.5, 20.0), grid_n=128)
    for got, want in zip(res.eigenvalues, (0, 1, 4, 9, 16)):
        assert got == pytest.approx(want, abs=1e-8)


def test_mixed_dirichlet_neumann():
    # a(0) = 0, a'(pi) = 0: eigenvalues (k + 1/2)^2
    p = SLProblem(q=lambda u: 0.0 * u, m0=0.0, m1=math.pi,
                  bc_left=DIR, bc_right=BoundaryCondition.robin(0.0))
    res = solve_shooting(p, (0.0, 10.0))
    want = [(k + 0.5)**2 for k in range(3)]
    assert len(res.eigenvalues) == len(want)
    for got, w in zip(res.eigenvalues, want):
        assert got == pytest.approx(w, rel=1e-10)


def test_harmonic_oscillator_cross_validated():
    # q = u^2 on [-5, 5] approximates the line problem: eigenvalues 2n + 1.
    # Truncating the line to [-5, 5] shifts the two lowest eigenvalues by
    # less than 1e-8, so the tight tolerance is really testing the solver.
    p = SLProblem(q=lambda u: u**2, m0=-5.0, m1=5.0,
                  bc_left=DIR, bc_right=DIR)
    res = solve_cross_validated(p, (0.0, 4.0), grid_n=512)
    assert len(res.eigenvalues) == 2
    for got, want in zip(res.eigenvalues, (1.0, 3.0)):
        assert got == pytest.approx(want, abs=1e-7)


def test_window_is_half_open():
    # exact eigenvalues {1, 4, 9, ...}: window (1, 4] keeps 4, drops 1
    res = solve_shooting(_dirichlet_q0(), (1.0, 4.0))
    assert len(res.eigenvalues) == 1
    assert res.eigenvalues[0] == pytest.approx(4.0, rel=1e-10)
    res_fd = solve_fd(_dirichlet_q0(), 128, (1.0, 4.0))
    assert len(res_fd.eigenvalues) == 1
    assert res_fd.eigenvalues[0] == pytest.approx(4.0, rel=1e-6)


def test_count_below_is_strict():
    p = _dirichlet_q0()
    assert count_below(p, 9.0) == 2
    assert count_below(p, 9.0 + 1e-6) == 3
    assert count_below(p, 0.5) == 0
    assert count_below(p, 1000.0) == 31  # floor(sqrt(1000)) = 31


def test_count_below_matches_window_length():
    p = SLProblem(q=lambda u: np.sin(3.0 * u) + 2.0, m0=0.0, m1=4.0,
                  bc_left=DIR, bc_right=BoundaryCondition.robin(-0.7))
    floor = spectral_floor(p, inf_q=1.0)
    for lam_star in (5.0, 14.0):
        n = count_below(p, lam_star)
        res = solve_shooting(p, (floor - 1.0, lam_star))
        # lam_star is not an eigenvalue for these probes, so the half-open
        # window and the strict count agree
        assert n == len(res.eigenvalues)


def _sin2_well():
    # q = 20 sin^2(3u): lowest eigenvalue 9.546986..., in the well at pi/3
    return SLProblem(q=lambda u: 20.0 * np.sin(3.0 * u) ** 2, m0=0.0, m1=3.0,
                     bc_left=DIR, bc_right=DIR)


@pytest.mark.parametrize("lam, want", [(9.5469, 0), (9.54699, 1), (9.547, 1),
                                       (9.6, 1)])
def test_count_below_settles_next_to_the_first_eigenvalue(lam, want):
    # the right-end phase changes by more than 1e-9 from n = 2^17 to 2^18
    # at each of these lam; the phase at the matching node settles
    assert count_below(_sin2_well(), lam) == want


def test_mesh_rule_accepts_a_window_just_above_the_first_eigenvalue():
    p = problem_from_json({
        "m0": 0.0, "m1": 3.0,
        "q": {"type": "fourier", "period": math.pi / 3.0, "a0": 10.0,
              "cos": [-10.0]},
        "bc_left": {"kind": "dirichlet"}, "bc_right": {"kind": "dirichlet"}})
    res = solve_cross_validated(p, (0.0, 9.6))
    assert res.eigenvalues == pytest.approx((9.546986471228905,), rel=1e-9)
    assert_within_oracle(res, p, (0.0, 9.6))


def test_mesh_rule_solves_a_window_of_dozens_of_eigenvalues():
    # both window ends are counted on meshes 64 and 128; the right-end phase
    # at lam = 0, where q > lam, still changed by 1.07e-9 from 2^17 to 2^18
    # cells, which the rule on the raw phase refused
    p = problem_from_json({
        "m0": 0.0, "m1": 20.0,
        "q": {"type": "fourier", "period": 2.0 * math.pi / 3.0, "a0": 2.0,
              "sin": [1.0]},
        "bc_left": {"kind": "dirichlet"}, "bc_right": {"kind": "dirichlet"}})
    res = solve_cross_validated(p, (0.0, 40.0))
    assert len(res.eigenvalues) == 39
    assert_within_oracle(res, p, (0.0, 40.0))


def test_methods_agree_on_smooth_potentials():
    rng = np.random.default_rng(5)
    for trial in range(3):
        c = rng.uniform(-1.0, 1.0, size=3)
        base = float(rng.uniform(0.0, 2.0))

        def q(u, c=c, base=base):
            return (base + c[0] * np.sin(u) + c[1] * np.cos(2.0 * u)
                    + c[2] * np.sin(3.0 * u + 0.5))

        bcs = [DIR, BoundaryCondition.robin(float(rng.uniform(-1.5, 1.5)))]
        p = SLProblem(q=q, m0=0.0, m1=3.0, bc_left=bcs[trial % 2],
                      bc_right=bcs[(trial + 1) % 2])
        # |sin|, |cos| <= 1 bound q below
        window = (spectral_floor(p, inf_q=base - float(np.sum(np.abs(c)))) - 1.0, 25.0)
        fd = solve_fd(p, 256, window)
        sh = solve_shooting(p, window)
        assert len(fd.eigenvalues) == len(sh.eigenvalues)
        for lf, ef, ls, es in zip(fd.eigenvalues, fd.error_estimate,
                                  sh.eigenvalues, sh.error_estimate):
            assert abs(lf - ls) <= ef + es + 1e-9 * max(1.0, abs(lf))


def test_cross_validation_rejects_inconsistent_count(monkeypatch):
    import tubespec.sturm_liouville as sl
    p = _dirichlet_q0()
    real = sl.solve_fd

    def broken(problem, grid_n, window):
        res = real(problem, grid_n, window)
        return sl.SpectrumResult(eigenvalues=res.eigenvalues[:-1],
                                 error_estimate=res.error_estimate[:-1],
                                 method=res.method, grid_n=res.grid_n)

    monkeypatch.setattr(sl, "solve_fd", broken)
    with pytest.raises(RuntimeError, match="disagree"):
        sl.solve_cross_validated(p, (0.0, 30.0), grid_n=128)


def test_cross_check_refuses_a_count_mismatch():
    fd = SpectrumResult((1.0, 4.0), (1e-6, 1e-6), "FD", 512)
    sh = SpectrumResult((1.0,), (1e-9,), "Shooting", 1024)
    with pytest.raises(RuntimeError, match=r"method disagreement: FD found 2 "
                                           r"eigenvalues, shooting found 1 in window"):
        cross_check(fd, sh, (0.0, 5.0))
    with pytest.raises(RuntimeError, match="FD found 1 eigenvalues, shooting found 2"):
        cross_check(SpectrumResult((1.0,), (1e-6,), "FD", 512),
                    SpectrumResult((1.0, 4.0), (1e-9, 1e-9), "Shooting", 1024), (0.0, 5.0))


def test_cross_validated_keeps_the_results_it_checked():
    # checked holds the FD result and the shooting result seeded by it, field
    # by field; seeds move the roots' last bits, so an unseeded one differs
    p = problem_from_json({
        "m0": 0.0, "m1": 2.0,
        "q": {"type": "fourier", "period": 2.0 * math.pi, "a0": 1.961,
              "cos": [0.0, -0.439, -0.014], "sin": [0.501, 0.0, -0.026]},
        "bc_left": {"kind": "dirichlet"}, "bc_right": {"kind": "robin", "beta": 1.385}})
    window, tol = (0.0, 12.0), 1e-8
    res = solve_cross_validated(p, window, grid_n=128, phase_tol=tol)
    fd = solve_fd(p, 128, window)
    sh = solve_shooting(p, window, phase_tol=tol, fd_seeds=fd)
    assert len(res.checked) == 2
    for got, want in zip(res.checked, (fd, sh)):
        assert dataclasses.astuple(got) == dataclasses.astuple(want)
    assert res.checked[1].eigenvalues != solve_shooting(p, window, phase_tol=tol).eigenvalues
    # checked changes neither == nor to_json nor repr
    bare = dataclasses.replace(res, checked=())
    assert res == bare == cross_check(fd, sh, window)
    assert res.to_json() == bare.to_json() and "checked" not in res.to_json()
    assert repr(res) == repr(bare)


@pytest.mark.parametrize("side", [1.0, -1.0], ids=["fd-above", "fd-below"])
def test_cross_check_gate_sits_at_the_combined_bar(side):
    # the gate is gap > ef + es + 1e-9 max(1, |ls|); at ls = 100 each of its
    # three terms is larger than the 0.1 % steps on either side of it
    ls, es, ef = 100.0, 1e-8, 1e-7
    bar = ef + es + 1e-9 * ls
    sh = SpectrumResult((ls,), (es,), "Shooting", 1024)
    window = (0.0, 200.0)
    res = cross_check(SpectrumResult((ls + side * 0.999 * bar,), (ef,), "FD", 512),
                      sh, window)
    assert res.method == "CrossValidated" and res.grid_n == 512
    assert res.eigenvalues == (ls,)
    # the error absorbs the gap, which is above the shooting bar
    assert res.error_estimate[0] == pytest.approx(0.999 * bar, rel=1e-6)
    with pytest.raises(RuntimeError, match=r"method disagreement: FD .* vs shooting "
                                           r"100\.0 exceeds combined error"):
        cross_check(SpectrumResult((ls + side * 1.001 * bar,), (ef,), "FD", 512),
                    sh, window)
    # a gap below the shooting bar leaves the shooting bar
    res = cross_check(SpectrumResult((ls + side * 0.5 * es,), (ef,), "FD", 512), sh, window)
    assert res.error_estimate == (es,)


def test_monotonicity_in_q():
    p1 = SLProblem(q=lambda u: np.sin(u) + 1.0, m0=0.0, m1=3.0,
                   bc_left=DIR, bc_right=DIR)
    p2 = SLProblem(q=lambda u: np.sin(u) + 1.5 + 0.3 * np.cos(u)**2,
                   m0=0.0, m1=3.0, bc_left=DIR, bc_right=DIR)
    r1 = solve_shooting(p1, (0.0, 25.0))
    r2 = solve_shooting(p2, (0.0, 25.0))
    for a, b in zip(r1.eigenvalues, r2.eigenvalues):
        assert a <= b + 1e-9


def test_lower_bound_with_attractive_boundaries():
    # beta_left = -1 and beta_right = +1 are both attractive
    p = SLProblem(q=lambda u: 0.0 * u + 2.0, m0=0.0, m1=2.0,
                  bc_left=BoundaryCondition.robin(-1.0),
                  bc_right=BoundaryCondition.robin(1.0))
    c = attractive_boundary_constant(p)
    assert c > 0.0
    res = solve_shooting(p, (spectral_floor(p, inf_q=2.0) - 0.5, 30.0))
    assert all(ev >= 2.0 - c - 1e-9 for ev in res.eigenvalues)
    assert res.eigenvalues[0] < 2.0  # the boundary terms do pull downward


def test_spectral_floor_below_ground_state():
    for bc in (DIR, BoundaryCondition.robin(0.4), BoundaryCondition.robin(-2.0)):
        p = SLProblem(q=lambda u: np.cos(u) + 1.0, m0=0.0, m1=2.5,
                      bc_left=bc, bc_right=DIR)
        # cos decreases on [0, 2.5], so q is smallest at the right end
        floor = spectral_floor(p, inf_q=math.cos(2.5) + 1.0)
        res = solve_shooting(p, (floor - 1.0, 12.0))
        assert res.eigenvalues[0] >= floor - 1e-9


@settings(max_examples=20, deadline=None)
@given(shift=st.floats(-5.0, 5.0))
def test_spectrum_shifts_with_constant_offset(shift):
    base = solve_shooting(_dirichlet_q0(), (0.0, 20.0))
    p = SLProblem(q=lambda u: 0.0 * u + shift, m0=0.0, m1=math.pi,
                  bc_left=DIR, bc_right=DIR)
    res = solve_shooting(p, (0.0 + shift, 20.0 + shift))
    assert len(res.eigenvalues) == len(base.eigenvalues)
    for a, b in zip(base.eigenvalues, res.eigenvalues):
        assert b - a == pytest.approx(shift, abs=1e-8)


def test_validation_errors():
    with pytest.raises(ValueError):
        SLProblem(q=lambda u: 0.0 * u, m0=0.0, m1=1e-9,
                  bc_left=DIR, bc_right=DIR)
    with pytest.raises(ValueError):
        BoundaryCondition.robin(math.inf)
    p = _dirichlet_q0()
    with pytest.raises(ValueError):
        solve_fd(p, 8, (0.0, 10.0))  # grid too coarse
    with pytest.raises(ValueError):
        solve_shooting(p, (5.0, 5.0))  # empty window
    with pytest.raises(ValueError):
        solve_shooting(p, (7.0, 3.0))


def test_potential_json_forms():
    const = potential_from_json({"type": "constant", "value": 2.5})
    assert const(1.3) == 2.5
    poly = potential_from_json({"type": "poly", "coeffs": [1.0, 0.0, 2.0]})
    assert poly(3.0) == pytest.approx(1.0 + 2.0 * 9.0)
    four = potential_from_json({"type": "fourier", "period": 2.0 * math.pi,
                                "a0": 1.0, "cos": [0.5], "sin": [0.25]})
    assert four(0.0) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        potential_from_json({"type": "constant", "value": 1.0, "junk": 2})
    with pytest.raises(ValueError):
        potential_from_json({"type": "mystery"})


def test_problem_json_round_trip():
    doc = {
        "m0": 0.0, "m1": 3.0,
        "q": {"type": "poly", "coeffs": [1.0, -0.5]},
        "bc_left": {"kind": "dirichlet"},
        "bc_right": {"kind": "robin", "beta": -1.25},
    }
    p = problem_from_json(doc)
    assert problem_to_json(p) == doc
    with pytest.raises(ValueError):
        problem_from_json({**doc, "extra": True})


def _count_phase_evaluations(monkeypatch, matching_only=False):
    """Mesh size n of every new (lam, n, k) that the phase advances; with
    matching_only, only those at the matching node k = node(n)."""
    import tubespec.sturm_liouville as sl
    calls = []
    real = sl._phase_engine

    def counting(problem):
        phase, node = real(problem)
        seen = set()

        def call(lam, n, k):
            # the engine memoizes, so only a new (lam, n, k) advances n cells
            if (lam, n, k) not in seen and (k == node(n) or not matching_only):
                seen.add((lam, n, k))
                calls.append(n)
            return phase(lam, n, k)
        return call, node

    monkeypatch.setattr(sl, "_phase_engine", counting)
    return calls


def _tube_mode_problem(R, family="Abs1"):
    """Mode (1, 0) of the schedule's tube at R: a stiff problem whose
    potential reaches ~7e4 (R = 6) to ~2e8 (R = 10) at the right end."""
    from tubespec.geometry import DegenerationSchedule, schedule_instantiate
    from tubespec.torus_modes import ModeIndex
    from tubespec.tube_spectrum import assemble_mode_problem, find_r0
    geom = schedule_instantiate(DegenerationSchedule(R_grid=(R,)), 0)
    geom = geom.with_r0(find_r0(geom)[0])
    return assemble_mode_problem(ModeIndex(1, 0), geom, family)


def _seed_test_problems():
    smooth = SLProblem(q=lambda u: 1.5 + np.sin(2.0 * u) - 0.4 * np.cos(u),
                       m0=0.0, m1=3.0, bc_left=BoundaryCondition.robin(-0.8),
                       bc_right=DIR)
    # stiff: theta(m1; lam) is a staircase in lam
    tube = _tube_mode_problem(10.0)
    # |sin|, |cos| <= 1 bound q below: inf q >= 1.5 - 1 - 0.4
    floor = spectral_floor(smooth, inf_q=1.5 - 1.0 - 0.4)
    return [(smooth, (floor - 1.0, 20.0), 256, 1e-7),
            (tube, (0.0, 10.0), 2048, 1e-7)]


@pytest.mark.parametrize("case", [0, 1], ids=["smooth", "tube"])
def test_fd_seeds_cut_phase_work_but_cannot_steer_roots(case, monkeypatch):
    from types import SimpleNamespace
    p, window, grid_n, tol = _seed_test_problems()[case]
    fd = solve_fd(p, grid_n, window)
    calls = _count_phase_evaluations(monkeypatch)
    plain = solve_shooting(p, window, phase_tol=tol)
    plain_cells = sum(calls)
    calls.clear()
    seeded = solve_shooting(p, window, phase_tol=tol, fd_seeds=fd)
    assert sum(calls) < plain_cells
    assert len(plain.eigenvalues) >= 1

    lo, hi = window
    half = 0.5 * (hi - lo)
    bad_hints = [
        SimpleNamespace(eigenvalues=[x + half for x in fd.eigenvalues],
                        error_estimate=fd.error_estimate, grid_n=fd.grid_n),
        SimpleNamespace(eigenvalues=fd.eigenvalues[::-1],
                        error_estimate=fd.error_estimate[::-1], grid_n=fd.grid_n),
        SimpleNamespace(eigenvalues=fd.eigenvalues[:-1],
                        error_estimate=fd.error_estimate[:-1], grid_n=fd.grid_n),
    ]
    tol_ev = 1e-11 * max(1.0, abs(hi))
    for res in [seeded] + [solve_shooting(p, window, phase_tol=tol, fd_seeds=h)
                           for h in bad_hints]:
        assert res.grid_n == plain.grid_n
        assert len(res.eigenvalues) == len(plain.eigenvalues)
        for got, want in zip(res.eigenvalues, plain.eigenvalues):
            assert abs(got - want) <= tol_ev


def _matched_test_problems():
    """(problem, window, grid_n, phase_tol): smooth Robin/Dirichlet, the stiff
    R = 6 tube mode, and repulsive Robin ends around an interior well."""
    smooth = _seed_test_problems()[0]
    repulsive = SLProblem(q=lambda u: 4.0 * (u - 1.1)**2 + np.sin(3.0 * u),
                          m0=0.0, m1=3.0, bc_left=BoundaryCondition.robin(0.9),
                          bc_right=BoundaryCondition.robin(-1.3))
    return [smooth, (_tube_mode_problem(6.0), (0.0, 10.0), 2048, 1e-7),
            # the square is nonnegative and sin >= -1
            (repulsive, (spectral_floor(repulsive, inf_q=-1.0) - 1.0, 30.0), 256, 1e-7)]


_MATCHED_IDS = ["smooth", "tube", "repulsive"]


def _matched_setup(case):
    """The phase engine of a matched test problem and its converged mesh: the
    settle rule with no decided counts, so the right-end phase at both window
    ends changes by less than the tolerance from n to 2n."""
    import tubespec.sturm_liouville as sl
    p, (lo, hi), _, tol = _matched_test_problems()[case]
    phase, node = sl._phase_engine(p)
    target = sl._theta_target(p)
    with mock.patch.object(sl, "_decided_count", lambda *args: None):
        n, _ = sl._settled(lambda lam, m: phase(lam, m, m), (lo, hi), target, tol)
    return phase, node, target, n, (lo, hi)


def _indices(theta_lo, theta_hi, target):
    """Window indices floor(u_lo) + 1 ... floor(u_hi) from the phases at its ends."""
    import tubespec.sturm_liouville as sl
    u_lo, u_hi = (sl._phase_units(t, target) for t in (theta_lo, theta_hi))
    return range(max(0, math.floor(u_lo) + 1), math.floor(u_hi) + 1)


def _matching_nodes(node, mesh):
    """Matching nodes to test: both ends, the engine's own node, the middle."""
    return sorted({0, node(mesh), mesh // 2, mesh})


@pytest.mark.parametrize("case", [0, 1, 2], ids=_MATCHED_IDS)
def test_matched_phase_counts_like_the_right_end_phase(case):
    import tubespec.sturm_liouville as sl
    phase, node, target, n, (lo, hi) = _matched_setup(case)

    def count(lam, k):
        return max(0, math.ceil(sl._phase_units(phase(lam, n, k), target)))

    js = _indices(phase(lo, n, n), phase(hi, n, n), target)
    assert js
    for k in _matching_nodes(node, n):
        # eigenvalue j sits at target + j pi whichever node the runs meet at
        assert _indices(phase(lo, n, k), phase(hi, n, k), target) == js, k
        for lam in np.linspace(lo, hi, 21).tolist():
            assert count(lam, k) == count(lam, n), (k, lam)


@pytest.mark.parametrize("case", [0, 1, 2], ids=_MATCHED_IDS)
def test_matched_roots_agree_with_right_end_roots(case):
    from scipy.optimize import brentq
    import tubespec.sturm_liouville as sl
    phase, node, target, n, (lo, hi) = _matched_setup(case)
    xtol = 1e-13 * max(1.0, abs(hi))
    for mesh in (n, 2 * n):
        js = _indices(phase(lo, mesh, mesh), phase(hi, mesh, mesh), target)
        assert js
        refs = [brentq(lambda x: phase(x, mesh, mesh) - (target + j * math.pi),
                       lo, hi, xtol=xtol, rtol=8.9e-16) for j in js]
        for k in _matching_nodes(node, mesh):
            assert _indices(phase(lo, mesh, k), phase(hi, mesh, k), target) == js, (mesh, k)
            for j, ref in zip(js, refs):
                got = sl._bracketed_root(
                    lambda x: phase(x, mesh, k) - (target + j * math.pi),
                    lo, hi, None, xtol)
                assert abs(got - ref) <= 2.0 * xtol, (mesh, k, j)


def test_stiff_roots_cost_a_few_matched_phase_evaluations(monkeypatch):
    p, window, grid_n, tol = _matched_test_problems()[1]
    fd = solve_fd(p, grid_n, window)
    calls = _count_phase_evaluations(monkeypatch, matching_only=True)
    for seeds in (fd, None):
        calls.clear()
        res = solve_shooting(p, window, phase_tol=tol, fd_seeds=seeds)
        # the right-end phase of this mode is a staircase on which brentq
        # bisects: 27-40 evaluations per root and mesh
        roots = len(res.eigenvalues)
        assert roots >= 1
        # roots on meshes 64, 128, ... up to grid_n: at least three levels
        meshes = sorted(set(calls))
        assert meshes == [64 << i for i in range(len(meshes))] and len(meshes) >= 3
        assert meshes[-1] == res.grid_n
        assert len(calls) <= 10 * len(meshes) * roots
        if seeds is not None:
            # FD's bar, scaled to each shooting mesh, sizes every bracket
            assert all(calls.count(m) <= 10 * roots for m in meshes)


def test_no_sign_change_of_the_matched_phase_is_a_runtime_error(monkeypatch):
    import tubespec.sturm_liouville as sl
    real = sl._phase_engine

    def shifted(problem):
        phase, node = real(problem)
        return (lambda lam, n, k: phase(lam, n, k)
                + (2.0 * math.pi if k == node(n) else 0.0)), node

    monkeypatch.setattr(sl, "_phase_engine", shifted)
    with pytest.raises(RuntimeError, match="no sign change for eigenvalue 0"):
        solve_shooting(_dirichlet_q0(), (0.0, 30.0))


def _increasing(kind, r, c, w):
    """An increasing function with f(r) == 0 exactly."""
    if kind == "tanh":
        return lambda x: c * (x - r) + math.tanh(x - r)
    if kind == "cubic":
        return lambda x: (x - r) ** 3 + c * (x - r)
    return lambda x: math.atan((x - r) / w)


_KINDS = st.sampled_from(["tanh", "cubic", "arctan"])


@settings(max_examples=300, deadline=None)
@given(kind=_KINDS, r=st.floats(-5.0, 5.0), c=st.floats(0.01, 10.0),
       w_exp=st.floats(-12.0, -2.0), left=st.floats(1e-3, 5.0),
       right=st.floats(1e-3, 5.0), zero_end=st.sampled_from([None, "left", "right"]),
       xtol_exp=st.floats(-15.0, -3.0))
def test_brent_port_returns_the_float_of_scipy_brentq(kind, r, c, w_exp, left, right,
                                                      zero_end, xtol_exp):
    from scipy.optimize import brentq
    import tubespec.sturm_liouville as sl
    f = _increasing(kind, r, c, 10.0 ** w_exp)
    a = r if zero_end == "left" else r - left
    b = r if zero_end == "right" else r + right
    xtol = 10.0 ** xtol_exp
    want = brentq(f, a, b, xtol=xtol, rtol=sl._RTOL)
    assert sl._brentq(f, a, b, f(a), f(b), xtol) == want


def _searches(a, b, xtol):
    """scipy's brentq and the port, each run on a function g."""
    from scipy.optimize import brentq
    import tubespec.sturm_liouville as sl
    return (lambda g: brentq(g, a, b, xtol=xtol, rtol=sl._RTOL),
            lambda g: sl._brentq(g, a, b, g(a), g(b), xtol))


@settings(max_examples=100, deadline=None)
@given(kind=_KINDS, r=st.floats(-5.0, 5.0), c=st.floats(0.01, 10.0),
       w_exp=st.floats(-12.0, -2.0), xtol_exp=st.floats(-15.0, -3.0),
       draw=st.integers(0, 1 << 20))
def test_brent_port_raises_value_error_on_a_nan_at_any_evaluation(kind, r, c, w_exp,
                                                                  xtol_exp, draw):
    f = _increasing(kind, r, c, 10.0 ** w_exp)
    a, b, xtol = r - 1.0, r + 2.0, 10.0 ** xtol_exp
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    _searches(a, b, xtol)[1](counted)
    nan_at = draw % len(calls)

    def poisoned():
        seen = []

        def g(x):
            seen.append(x)
            return math.nan if len(seen) == nan_at + 1 else f(x)
        return g

    for search in _searches(a, b, xtol):
        with pytest.raises(ValueError, match="NaN"):
            search(poisoned())


@pytest.mark.parametrize("a, b", [(1.0, 2.0), (-2.0, -1.0)])
def test_brent_port_rejects_ends_of_one_sign(a, b):
    for search in _searches(a, b, 1e-12):
        with pytest.raises(ValueError, match="different signs"):
            search(lambda x: x)


def test_brent_port_raises_runtime_error_after_100_iterations():
    # a sign step at 0.1 bisected from a width of 2e30: about 150 halvings
    # reach the tolerance, 100 do not
    for search in _searches(-1e30, 1e30, 1e-300):
        with pytest.raises(RuntimeError, match="converge"):
            search(lambda x: -1.0 if x < 0.1 else 1.0)


def test_solves_leave_no_reference_cycles(tmp_path):
    # A cycle keeps a solve's phase engine and its mesh arrays alive until
    # the cyclic collector runs; scipy.optimize.brentq's NaN wrapper left one
    # in every root search.
    import gc
    import json
    from tubespec.cli import main
    p = problem_from_json({
        "m0": 0.0, "m1": 2.0,
        "q": {"type": "fourier", "period": 2.0 * math.pi, "a0": 1.961,
              "cos": [0.0, -0.439, -0.014], "sin": [0.501, 0.0, -0.026]},
        "bc_left": {"kind": "dirichlet"}, "bc_right": {"kind": "robin", "beta": 1.385}})
    window = (0.0, 12.0)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"R_grid": [6.0], "lambda_max": 10}), encoding="utf-8")
    argv = ["tube-sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]
    runs = [lambda: solve_shooting(p, window),
            lambda: solve_cross_validated(p, window),
            lambda: main(argv)]
    for run in runs:
        run()
    gc.collect()
    gc.disable()
    try:
        found = []
        for run in runs:
            run()
            found.append(gc.collect())
    finally:
        gc.enable()
    assert found == [0, 0, 0]


def test_fd_assembly_rejects_non_finite_potential():
    import tubespec.sturm_liouville as sl
    # finite on the 65 validation samples, infinite at u = 1/6: a node of
    # FD's mesh 24, which solve_fd samples once on its mesh 96
    p = SLProblem(q=lambda u: np.where(np.abs(u - 1.0 / 6.0) < 1e-12, np.inf, 0.0),
                  m0=0.0, m1=1.0, bc_left=DIR, bc_right=DIR)
    with pytest.raises(ValueError, match=r"q is not finite at u = 0\.1666"):
        solve_fd(p, 24, (0.0, 10.0))
    # a finite Robin beta whose 2 beta / h overflows the diagonal
    p = SLProblem(q=lambda u: 0.0 * u, m0=0.0, m1=1.0,
                  bc_left=BoundaryCondition.robin(1e308), bc_right=DIR)
    with pytest.raises(ValueError, match="non-finite FD assembly"):
        sl._fd_arrays(p, np.zeros(7), 6)


def test_scalar_potential_is_rejected_at_construction():
    with pytest.raises(ValueError, match="same shape"):
        SLProblem(q=lambda u: 1.0, m0=0.0, m1=1.0, bc_left=DIR, bc_right=DIR)


@pytest.mark.parametrize("solve", [
    lambda p: solve_fd(p, 64, (0.0, 10.0)),
    lambda p: solve_shooting(p, (0.0, 10.0)),
    lambda p: count_below(p, 10.0),
], ids=["fd", "shooting", "count_below"])
def test_potential_shape_is_checked_on_every_mesh(solve):
    # the shape holds at the 65 validation points but not on longer meshes
    p = SLProblem(q=lambda u: 0.0 * u if u.size <= 65 else 0.0, m0=0.0, m1=math.pi,
                  bc_left=DIR, bc_right=DIR)
    with pytest.raises(ValueError, match=r"got shape \(\) for \(\d+,\)"):
        solve(p)


def test_potential_errors_reach_the_caller_unchanged():
    class Boom(Exception):
        pass

    def q(u):
        raise Boom("from q")

    with pytest.raises(Boom, match="from q"):
        SLProblem(q=q, m0=0.0, m1=1.0, bc_left=DIR, bc_right=DIR)

    def q_small_arrays_only(u):
        # passes the 65-point construction check, fails on the FD meshes
        if u.size > 65:
            raise Boom("mesh too long")
        return 0.0 * u

    p = SLProblem(q=q_small_arrays_only, m0=0.0, m1=1.0, bc_left=DIR, bc_right=DIR)
    with pytest.raises(Boom, match="mesh too long"):
        solve_fd(p, 64, (0.0, 50.0))


def _reference_advance_phase(theta, c, h):
    """Scalar one-cell phase update, the per-cell loop the engine replaced."""
    if c > 0.0:
        om = math.sqrt(c)
        k = round(theta / math.pi)
        delta = theta - k * math.pi
        phi = k * math.pi + math.atan2(om * math.sin(delta), math.cos(delta)) + om * h
        k2 = round(phi / math.pi)
        d2 = phi - k2 * math.pi
        return k2 * math.pi + math.atan2(math.sin(d2), om * math.cos(d2))
    n_in = math.floor(theta / math.pi)
    delta = theta - n_in * math.pi
    a, b = math.sin(delta), math.cos(delta)
    if c == 0.0:
        a2, b2 = a + h * b, b
    else:
        om = math.sqrt(-c)
        em = -math.expm1(-2.0 * om * h)
        E = 1.0 - em
        a2 = 0.5 * ((1.0 + E) * a + em / om * b)
        b2 = 0.5 * (om * em * a + (1.0 + E) * b)
    if a2 > 0.0:
        return n_in * math.pi + math.atan2(a2, b2)
    if a2 == 0.0:
        return (n_in + 1) * math.pi
    return (n_in + 1) * math.pi + math.atan2(-a2, -b2)


def _mp_advance(theta, qbar_cells, lam, h):
    """Lifted phase after the frozen cells, from their exact transfer maps
    on (a, a') carried in 40-digit arithmetic.

    Each step turns (a, a') by less than pi either way: an oscillatory cell
    is split until its modified phase turns by less than pi/4, and a
    forbidden or flat cell never turns by pi.  So the angle between the
    vectors before and after a step is the step's phase increment.
    """
    with mpmath.workdps(40):
        h, theta = mpmath.mpf(h), mpmath.mpf(theta)
        a, b = mpmath.sin(theta), mpmath.cos(theta)
        for qc in qbar_cells:
            c = mpmath.mpf(lam) - mpmath.mpf(qc)
            om = mpmath.sqrt(abs(c))
            pieces = int(om * h / (mpmath.pi / 4)) + 1 if c > 0 else 1
            x = om * h / pieces
            if c > 0:
                cs, sn = mpmath.cos(x), mpmath.sin(x)
                m = (cs, sn / om, -om * sn, cs)
            elif c < 0:
                cs, sn = mpmath.cosh(x), mpmath.sinh(x)
                m = (cs, sn / om, om * sn, cs)
            else:
                m = (1, h, 0, 1)
            for _ in range(pieces):
                a2, b2 = m[0] * a + m[1] * b, m[2] * a + m[3] * b
                theta += mpmath.atan2(a2 * b - b2 * a, a2 * a + b2 * b)
                r = mpmath.sqrt(a2 * a2 + b2 * b2)
                a, b = a2 / r, b2 / r
        return theta


def _mp_phase(p, lam, n, k):
    """The engine's phase(lam, n, k), from _mp_advance."""
    import tubespec.sturm_liouville as sl
    h = p.length / n
    qbar = sample_potential(p.q, p.m0 + h * (np.arange(n) + 0.5))
    bc = p.bc_right
    mirror0 = math.atan2(1.0, -bc.beta) if bc.is_robin else 0.0
    return (_mp_advance(sl._theta_start(p), qbar[:k].tolist(), lam, h)
            + _mp_advance(mirror0, qbar[k:][::-1].tolist(), lam, h) - mirror0)


def _assert_close_to(got, want, tol=1e-13):
    assert abs(got - want) <= tol * max(1.0, abs(want)), (got, float(want))


@pytest.mark.parametrize("lam", [2.0, 40.0, -30.0])
def test_phase_engine_matches_mpmath_transfer_maps(lam):
    import tubespec.sturm_liouville as sl
    # q crosses lam = 2 on a plateau where lam - q is exactly 0, so all
    # three kinds of cell occur; the per-cell loop the engine replaced was
    # off by 2e-12 at lam = 2, where its 1/om amplified rounding
    p = SLProblem(q=lambda u: np.clip(8.0 * u - 4.0, -1.0, 2.0) * (u < 0.9)
                  + 50.0 * (u >= 0.9),
                  m0=0.0, m1=1.0, bc_left=BoundaryCondition.robin(0.3),
                  bc_right=DIR)
    n = 5000
    h = p.length / n
    qbar = sample_potential(p.q, p.m0 + h * (np.arange(n) + 0.5))
    want = _mp_advance(sl._theta_start(p), qbar.tolist(), lam, h)
    _assert_close_to(sl._phase_engine(p)[0](lam, n, n), want)


@pytest.mark.parametrize("lam", [30.0, 49.0, 80.0])
def test_identical_cells_advance_like_one_exact_cell(lam):
    import tubespec.sturm_liouville as sl
    # with q constant every cell map is the same, so a rounding repeated per
    # cell would grow with the mesh; one cell spanning the interval is the
    # exact transfer
    p = SLProblem(q=lambda u: 0.0 * u + 50.0, m0=0.0, m1=1.0,
                  bc_left=BoundaryCondition.robin(0.3), bc_right=DIR)
    want = _mp_advance(sl._theta_start(p), [50.0], lam, 1.0)
    phase, _ = sl._phase_engine(p)
    for n in (1024, 65536):
        _assert_close_to(phase(lam, n, n), want)


@pytest.mark.parametrize("shift", [None, -6.0, 2.2])
def test_stiff_phases_match_mpmath_transfer_maps(shift):
    from scipy.optimize import brentq
    import tubespec.sturm_liouville as sl
    # the potential reaches 2e8, so most cells are stiff; shift None puts
    # lam 1e-9 above the mesh's lowest eigenvalue, where the solution from
    # m0 decays over most of the interval before it grows: a composed cell
    # map is then nearly of rank one, and the entry vector nearly in its
    # kernel
    p, n = _tube_mode_problem(10.0), 2048
    phase, node = sl._phase_engine(p)
    k, target = node(n), sl._theta_target(p)
    lam0 = brentq(lambda x: phase(x, n, k) - target, 5.0, 5.6, xtol=1e-14)
    lam = lam0 + (1e-9 if shift is None else shift)
    _assert_close_to(phase(lam, n, n), _mp_phase(p, lam, n, n))
    _assert_close_to(phase(lam, n, k), _mp_phase(p, lam, n, k))


@pytest.mark.parametrize("R", [5.0, 6.0])
def test_phase_engine_matches_scalar_loop_on_stiff_modes(R):
    import tubespec.sturm_liouville as sl
    p, n = _tube_mode_problem(R), 1024
    phase, _ = sl._phase_engine(p)
    h = p.length / n
    qbar = sample_potential(p.q, p.m0 + h * (np.arange(n) + 0.5)).tolist()
    for lam in (0.5, 3.0, 7.5, 10.0):
        want = sl._theta_start(p)
        for qc in qbar:
            want = _reference_advance_phase(want, lam - qc, h)
        assert abs(phase(lam, n, n) - want) <= 1e-12 * max(1.0, abs(want)), lam


def test_matching_node_sits_left_of_the_lowest_coarse_cell():
    import tubespec.sturm_liouville as sl

    def node(q):
        return sl._phase_engine(SLProblem(q=q, m0=0.0, m1=2.0, bc_left=DIR,
                                          bc_right=DIR))[1]

    # the same u on every doubled mesh
    well = node(lambda u: (u - 0.7) ** 2)
    assert [well(n) for n in (64, 128, 4096)] == [22, 44, 1408]
    # a well at an end leaves the other run empty
    assert [node(lambda u: u * u)(n) for n in (64, 4096)] == [0, 0]
    assert [node(lambda u: (2.0 - u) ** 2)(n) for n in (64, 4096)] == [64, 4096]


def test_phase_engine_advances_each_phase_once(monkeypatch):
    import tubespec.sturm_liouville as sl
    cells = []
    real = sl._cell_nodes

    def counting(c, h):
        cells.append(len(c))
        return real(c, h)

    # every cell a phase advances passes through _cell_nodes once
    monkeypatch.setattr(sl, "_cell_nodes", counting)
    p = SLProblem(q=lambda u: 1.0 + u, m0=0.0, m1=2.0,
                  bc_left=BoundaryCondition.robin(0.5), bc_right=DIR)
    phase, node = sl._phase_engine(p)
    first = phase(3.5, 512, 512)
    assert sum(cells) == 512
    assert phase(3.5, 512, 512) == first
    assert sum(cells) == 512
    phase(3.5, 1024, 1024)
    assert sum(cells) == 512 + 1024
    # the matching node splits the mesh between the two runs
    first = phase(3.5, 512, node(512))
    assert sum(cells) == 2 * 512 + 1024
    assert phase(3.5, 512, node(512)) == first
    assert sum(cells) == 2 * 512 + 1024


def _slow_converging_problem():
    # its phase converges to the default phase tolerance on meshes 1024 and 2048
    return SLProblem(q=lambda u: 0.01 * u * u, m0=0.0, m1=math.pi,
                     bc_left=DIR, bc_right=DIR)


def test_shooting_evaluates_no_mesh_above_the_limit(monkeypatch):
    import tubespec.sturm_liouville as sl
    p = _slow_converging_problem()
    calls = _count_phase_evaluations(monkeypatch)
    # the window's count is decided on meshes 64 and 128, and its roots
    # settle to the default tolerance on meshes 64, 128 and 256
    res = solve_shooting(p, (0.0, 10.0))
    assert len(res.eigenvalues) == 3 and res.grid_n == 256
    assert min(calls) == 64 and max(calls) == 256
    monkeypatch.setattr(sl, "_N_MAX", 256)
    calls.clear()
    with pytest.raises(RuntimeError, match=r"step failure: extrapolated eigenvalues "
                                           r"change by .* at n=256 still above 1e-12"):
        solve_shooting(p, (0.0, 10.0), phase_tol=1e-12)
    assert max(calls) == 256
    # a window end on an eigenvalue is never decided, and its right-end
    # phase needs more than 512 cells to converge to 1e-9
    monkeypatch.setattr(sl, "_N_MAX", 512)
    calls.clear()
    with pytest.raises(RuntimeError, match=r"step failure: the count below .* is not "
                                           r"settled on meshes 256 and 512: .* relative "
                                           r"phase change .* against 1e-09"):
        solve_shooting(p, (0.0, res.eigenvalues[0]))
    assert max(calls) == 512


def test_count_below_evaluates_no_mesh_above_the_limit(monkeypatch):
    from scipy.optimize import brentq
    import tubespec.sturm_liouville as sl
    p = _slow_converging_problem()
    phase, node = sl._phase_engine(p)
    n, target = 1024, sl._theta_target(p)

    def at_node(x, m):
        return phase(x, m, node(m))

    # lam between the second eigenvalues of meshes n and 2n: their counts
    # differ although the phase has converged, so the count settles on
    # meshes 2n and 4n
    roots = [brentq(lambda x: at_node(x, m) - target - math.pi, 0.5, 8.0,
                    xtol=1e-15) for m in (n, 2 * n)]
    lam = 0.5 * sum(roots)
    t1, t2 = at_node(lam, n), at_node(lam, 2 * n)
    assert abs(t2 - t1) / max(1.0, abs(t2)) < sl._PHASE_TOL
    assert sl._settled(at_node, (lam,), target, sl._PHASE_TOL)[0] == 2 * n
    assert count_below(p, lam) == 2
    monkeypatch.setattr(sl, "_N_MAX", 2 * n)
    calls = _count_phase_evaluations(monkeypatch)
    with pytest.raises(RuntimeError, match="the count below .* is not settled on "
                                           "meshes 1024 and 2048"):
        count_below(p, lam)
    assert max(calls) == 2 * n


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, math.inf, True, "1e-9"],
                         ids=["nan", "zero", "negative", "inf", "bool", "str"])
def test_phase_tol_must_be_a_positive_number(tol):
    p = _dirichlet_q0()
    with pytest.raises(ValueError, match="phase_tol"):
        solve_shooting(p, (0.0, 30.0), phase_tol=tol)
    with pytest.raises(ValueError, match="phase_tol"):
        solve_cross_validated(p, (0.0, 30.0), grid_n=128, phase_tol=tol)


_BAD_NUMBERS = [
    ("count_below", "3", "lambda_star must be a finite number"),
    ("count_below", True, "lambda_star must be a finite number"),
    ("count_below", math.nan, "lambda_star must be a finite number"),
    ("count_below", math.inf, "lambda_star must be a finite number"),
    ("solve_fd", 256.5, "grid_n must be an integer"),
    ("solve_fd", True, "grid_n must be an integer"),
    ("solve_fd", "256", "grid_n must be an integer"),
    ("solve_fd", math.nan, "grid_n must be an integer"),
]


@pytest.mark.parametrize("solver, value, message", _BAD_NUMBERS,
                         ids=[f"{f}-{v!r}" for f, v, _ in _BAD_NUMBERS])
def test_solver_number_arguments_must_be_numbers(solver, value, message):
    p = _dirichlet_q0()
    solve = {"count_below": lambda v: count_below(p, v),
             "solve_fd": lambda v: solve_fd(p, v, (0.0, 30.0))}[solver]
    with pytest.raises(ValueError, match=message):
        solve(value)


def test_fd_takes_an_integral_float_grid_n():
    p = _dirichlet_q0()
    assert solve_fd(p, 256.0, (0.0, 30.0)) == solve_fd(p, 256, (0.0, 30.0))


def test_phase_is_monotone_just_above_a_plateau_of_q():
    import tubespec.sturm_liouville as sl
    # q == 2 with attractive Robin ends: 2 is an eigenvalue, so theta(m1)
    # sits one half-turn above the target there and grows like lam - 2 just
    # above it.  The integer half-turns must stay out of the O(om) modified
    # phase, or rounding amplified by 1/om buries that growth in noise
    p = SLProblem(q=lambda u: 0.0 * u + 2.0, m0=0.0, m1=2.0,
                  bc_left=BoundaryCondition.robin(-1.0),
                  bc_right=BoundaryCondition.robin(1.0))
    phase, _ = sl._phase_engine(p)
    target = sl._theta_target(p)
    excess = [phase(2.0 + eps, 128, 128) - target - math.pi
              for eps in (1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8)]
    assert all(e > 0.0 for e in excess), excess
    assert all(a < b for a, b in zip(excess, excess[1:])), excess


# Counts decided before the phase converges.  The oracles: solve_fd, which
# shares no code with the phase engine, and solve_shooting with the rule
# switched off, which leaves the settle rule its converged-phase path alone.


def _without_decided_counts(monkeypatch):
    import tubespec.sturm_liouville as sl
    monkeypatch.setattr(sl, "_decided_count", lambda *args: None)


def _tube_sweep_solves(monkeypatch):
    """(problem, window, grid_n, phase_tol) of every (mode, family) pair that a
    sweep over R = 5..10 at lambda_max 10 solves."""
    import tubespec.sturm_liouville as sl
    import tubespec.tube_spectrum as ts
    from tubespec.geometry import DegenerationSchedule
    solves = []

    def record(problem, window, grid_n, phase_tol):
        solves.append((problem, window, grid_n, phase_tol))
        return sl.SpectrumResult((), (), "CrossValidated", grid_n)

    with monkeypatch.context() as m:
        m.setattr(ts, "solve_cross_validated", record)
        ts.sweep(DegenerationSchedule(R_grid=(5, 6, 7, 8, 9, 10)),
                 ts.SweepOptions(lambda_max=10.0))
    return solves


def _sl_solve_shapes():
    """The three fourier shapes on [0, 2] of the benchmark's sl_solve
    workload, without its jitter, with the top of the window it gives them.
    The bottom is a proven floor minus 1, at or below the benchmark's, which
    takes inf q as a sample minimum."""
    shapes = [((1.897, [0.0, 0.901, -0.342], [0.024, 0.0, -0.625]), None, -0.565),
              ((1.099, [0.0, 0.655, -0.087], [-0.153, 0.0, -0.160]), -1.417, None),
              ((1.961, [0.0, -0.439, -0.014], [0.501, 0.0, -0.026]), None, 1.385)]
    out = []
    for (a0, cos_c, sin_c), beta_left, beta_right in shapes:
        p = SLProblem(
            q=potential_from_json({"type": "fourier", "period": 2.0 * math.pi,
                                   "a0": a0, "cos": cos_c, "sin": sin_c}),
            m0=0.0, m1=2.0,
            bc_left=DIR if beta_left is None else BoundaryCondition.robin(beta_left),
            bc_right=DIR if beta_right is None else BoundaryCondition.robin(beta_right))
        inf_q = a0 - sum(map(abs, cos_c)) - sum(map(abs, sin_c))
        out.append((p, (spectral_floor(p, inf_q=inf_q) - 1.0, 12.0), 256, 1e-9))
    return out


def test_window_counts_match_fd_and_the_converged_rule(monkeypatch):
    import tubespec.sturm_liouville as sl
    cases = _tube_sweep_solves(monkeypatch)
    # the (1, 0) mode in both families at every R
    assert len(cases) == 12
    cases += _sl_solve_shapes()
    counted_on = []
    real = sl._settled

    def spy(*args, **kwargs):
        settled = real(*args, **kwargs)
        counted_on.append(settled[0])
        return settled

    results = []
    with monkeypatch.context() as m:
        m.setattr(sl, "_settled", spy)
        for p, window, grid_n, tol in cases:
            fd = solve_fd(p, grid_n, window)
            res = solve_shooting(p, window, phase_tol=tol, fd_seeds=fd)
            assert len(res.eigenvalues) == len(fd.eigenvalues)
            results.append((p, window, tol, fd, res))
    assert sum(not res.eigenvalues for *_, res in results) == 6
    # every window is counted on meshes 64 and 128
    assert counted_on == [64] * len(cases)
    _without_decided_counts(monkeypatch)
    for p, window, tol, fd, res in results:
        # the converged rule counts on meshes of 2k-8k cells, and its roots
        # start there: the same eigenvalues within both bars, on finer meshes
        old = solve_shooting(p, window, phase_tol=tol, fd_seeds=fd)
        assert len(old.eigenvalues) == len(res.eigenvalues)
        assert res.grid_n <= old.grid_n
        for new, new_err, was, was_err in zip(res.eigenvalues, res.error_estimate,
                                              old.eigenvalues, old.error_estimate):
            assert abs(new - was) <= new_err + was_err


@pytest.mark.parametrize("R", [5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
def test_empty_tube_windows_are_decided_on_a_few_hundred_cells(R, monkeypatch):
    p = _tube_mode_problem(R, "Abs2")
    calls = _count_phase_evaluations(monkeypatch)
    res = solve_shooting(p, (0.0, 10.0), phase_tol=1e-7)
    assert res.eigenvalues == ()
    # meshes 64 and 128 at both window ends
    assert sum(calls) <= 384
    assert res.grid_n == 128


def _tube_count_cases():
    return [(R, fam, _tube_mode_problem(R, fam), lam)
            for R in (5.0, 6.0, 7.0, 8.0, 9.0, 10.0) for fam in ("Abs1", "Abs2")
            for lam in (5.3, 10.0)]


def test_count_below_on_tube_modes_is_cheap_and_matches_fd(monkeypatch):
    cases = _tube_count_cases()
    assert len(cases) == 24
    calls = _count_phase_evaluations(monkeypatch)
    for R, fam, p, lam in cases:
        calls.clear()
        got = count_below(p, lam)
        # kappa is smallest at r0 = m0 (torus_modes.modes_below)
        inf_q = float(sample_potential(p.q, np.array([p.m0]))[0])
        fd = solve_fd(p, 2048, (spectral_floor(p, inf_q=inf_q) - 1.0, lam))
        assert got == len(fd.eigenvalues), (R, fam, lam)
        # the converged rule spent 131k-524k cells here, and raised on
        # Abs2 at lam = 10 for R = 7..10
        assert sum(calls) <= 2048, (R, fam, lam)


@pytest.mark.parametrize("window, want", [((1.0, 4.0), 4.0), ((8.9, 9.1), 9.0)])
def test_undecided_window_ends_take_the_converged_path(window, want, monkeypatch):
    # (1, 4): both ends are eigenvalues, which snapping keeps undecided;
    # (8.9, 9.1) holds the eigenvalue 9
    p = _dirichlet_q0()
    new = solve_shooting(p, window)
    assert new.eigenvalues == pytest.approx((want,), rel=1e-10)
    _without_decided_counts(monkeypatch)
    assert solve_shooting(p, window) == new


def test_a_gap_between_eigenvalues_is_decided_empty(monkeypatch):
    import tubespec.sturm_liouville as sl
    decided = []
    real = sl._decided_count

    def spy(*args):
        decided.append(real(*args))
        return decided[-1]

    monkeypatch.setattr(sl, "_decided_count", spy)
    p = _dirichlet_q0()
    calls = _count_phase_evaluations(monkeypatch)
    new = solve_shooting(p, (4.5, 8.9))
    # two eigenvalues, 1 and 4, below both ends of the window
    assert new.eigenvalues == () and new.grid_n == 128
    assert decided[:2] == [2, 2]
    assert sum(calls) == 2 * (64 + 128)
    _without_decided_counts(monkeypatch)
    assert solve_shooting(p, (4.5, 8.9)).eigenvalues == ()


def test_a_count_is_decided_only_clear_of_the_integer():
    import tubespec.sturm_liouville as sl
    target = 0.5
    at = [target + math.pi * u for u in (1.30, 1.31)]
    assert sl._decided_count(*at, target) == 2
    assert sl._decided_count(at[1], at[0], target) == 2
    # the ceiling moves between the meshes
    assert sl._decided_count(target + 0.98 * math.pi, target + 1.01 * math.pi,
                             target) is None
    # within _COUNT_MARGIN times the change of the nearest integer
    assert sl._decided_count(target + 1.05 * math.pi, target + 1.04 * math.pi,
                             target) is None
    # on an eigenvalue the units snap to an integer even with no change
    on = target + 3.0 * math.pi * (1.0 + 1e-15)
    assert sl._decided_count(on, on, target) is None
    # below the lowest eigenvalue the count is 0
    assert sl._decided_count(target - 0.5 * math.pi, target - 0.5 * math.pi,
                             target) == 0


def _sturm_count_reference(d, e, sigma):
    # the numpy-scalar loop, with its special first pivot, that _sturm_count
    # replaced; kept as the oracle of the Python-float loop
    count = 0
    t = d[0] - sigma
    if t == 0.0:
        t = -1e-300
    if t < 0.0:
        count += 1
    for i in range(1, d.size):
        t = d[i] - sigma - e[i - 1] ** 2 / t
        if t == 0.0:
            t = -1e-300
        if t < 0.0:
            count += 1
    return count


def _sturm_cases(size, rng):
    from scipy.linalg import eigvalsh_tridiagonal
    cases = []
    d, e = rng.standard_normal(size), rng.standard_normal(size - 1)
    lam = eigvalsh_tridiagonal(d, e) if size > 1 else d.copy()
    # sigma on an eigenvalue (as computed), between two, and outside them all
    for sigma in (lam[size // 2], 0.5 * (lam[0] + lam[-1]), lam[0] - 1.0, lam[-1] + 1.0):
        cases.append((d, e, np.float64(sigma)))
    # small integers hit exact zero pivots, at the first row and further in
    d = rng.integers(-2, 3, size).astype(float)
    e = rng.integers(-1, 2, size - 1).astype(float)
    for sigma in (-1.0, 0.0, 1.0, d[0]):
        cases.append((d, e, np.float64(sigma)))
    # the free Laplacian 2, -1 has eigenvalue 2 at every odd size; sigma = 2
    # zeroes the first pivot
    cases.append((np.full(size, 2.0), np.full(size - 1, -1.0), np.float64(2.0)))
    return cases


@pytest.mark.parametrize("size", [1, 2, 3, 17, 513, 4097])
def test_sturm_count_matches_the_numpy_scalar_loop(size):
    from tubespec.sturm_liouville import _sturm_count
    rng = np.random.default_rng(size)
    zero_pivots = 0
    for d, e, sigma in _sturm_cases(size, rng):
        assert _sturm_count(d, e, sigma) == _sturm_count_reference(d, e, sigma)
        zero_pivots += d[0] == sigma
    assert zero_pivots >= 2
    # [[2, 1], [1, 2]] at its eigenvalue 1: the second pivot is exactly 0
    d, e = np.array([2.0, 2.0]), np.array([1.0])
    assert _sturm_count(d, e, np.float64(1.0)) == _sturm_count_reference(d, e, 1.0) == 1



@pytest.mark.parametrize("m1, window, count", [
    (math.pi, (1e12, 2e12), 414214),  # j^2 in the window
    (1e6, (0.0, 1.0), 318309),        # (j pi / 1e6)^2 in the window
    # about 1e150 indices: no list of them is built, and len() would overflow
    (math.pi, (0.0, 1e300), r"\d{150}"),
])
def test_shooting_refuses_a_window_of_too_many_eigenvalues(monkeypatch, m1, window,
                                                           count):
    import tubespec.sturm_liouville as sl
    p = SLProblem(q=lambda u: 0.0 * u, m0=0.0, m1=m1, bc_left=DIR, bc_right=DIR)
    # the count is read once the mesh is accepted, before any root search
    monkeypatch.setattr(sl, "_bracketed_root", None)
    with pytest.raises(ValueError, match=f"holds {count} eigenvalues, above the "
                                         f"limit of {sl.MAX_SHOOTING_EIGENVALUES}"):
        solve_shooting(p, window)


def test_shooting_solves_a_window_at_the_eigenvalue_limit():
    from tubespec.sturm_liouville import MAX_SHOOTING_EIGENVALUES as most
    # j^2 for j = 1 .. most lie in (0.5, most^2 + 0.5]
    res = solve_shooting(_dirichlet_q0(), (0.5, most**2 + 0.5))
    assert len(res.eigenvalues) == most
    with pytest.raises(ValueError, match=f"holds {most + 1} eigenvalues"):
        solve_shooting(_dirichlet_q0(), (0.5, (most + 1)**2 + 0.5))


def test_fd_refuses_a_window_beyond_its_coarse_mesh():
    # a spike of 1e6 at the node u = 1/2 keeps a diagonal entry above the
    # window top, yet 30 eigenvalues of the 32-cell matrix lie below it,
    # where the 16-cell one has 15 in all
    p = SLProblem(q=lambda u: 1e6 * (np.abs(u - 0.5) < 0.01), m0=0.0, m1=1.0,
                  bc_left=DIR, bc_right=DIR)
    with pytest.raises(ValueError, match="beyond the coarse mesh"):
        solve_fd(p, 16, (0.0, 1e5))


@pytest.mark.parametrize("m1, window", [
    (1e6, (0.0, 1.0)),          # all 127 eigenvalues of the 128-cell matrix lie below 1
    (math.pi, (1e12, 2e12)),    # holds 414 214 eigenvalues j^2, all above the mesh's
])
def test_fd_refuses_a_window_above_its_coarse_mesh(m1, window):
    p = SLProblem(q=lambda u: 0.0 * u, m0=0.0, m1=m1, bc_left=DIR, bc_right=DIR)
    with pytest.raises(ValueError, match="at or above the coarse matrix's largest diagonal entry"):
        solve_fd(p, 128, window)


def test_shooting_checks_the_window_on_both_meshes_before_any_root(monkeypatch):
    import tubespec.sturm_liouville as sl
    real = sl._phase_engine

    def shifted(problem):
        phase, node = real(problem)
        # one more eigenvalue below both window ends at the right end of mesh
        # 128, which is mesh 2n for the first mesh n = 64
        return (lambda lam, n, k: phase(lam, n, k) + (math.pi if k == n == 128 else 0.0),
                node)

    monkeypatch.setattr(sl, "_phase_engine", shifted)
    calls = _count_phase_evaluations(monkeypatch, matching_only=True)
    # a count is decided only where meshes n and 2n agree, so the counts on
    # (64, 128) and (128, 256) stay undecided, the window is counted on
    # (256, 512), and no root is searched on a coarser mesh
    res = solve_shooting(_dirichlet_q0(), (0.5, 30.0))
    assert res.eigenvalues == pytest.approx((1.0, 4.0, 9.0, 16.0, 25.0), rel=1e-10)
    assert min(calls) == 256
    calls.clear()
    # even a loose phase_tol settles no count on meshes that disagree: with
    # no mesh above 256, the window is refused before any root
    monkeypatch.setattr(sl, "_N_MAX", 256)
    every = _count_phase_evaluations(monkeypatch)
    with pytest.raises(RuntimeError, match=r"step failure: the count below 0\.5 is not "
                                           r"settled on meshes 128 and 256: "):
        solve_shooting(_dirichlet_q0(), (0.5, 30.0), phase_tol=10.0)
    assert calls == []
    assert max(every) == 256
