"""Windowed 1-D eigenvalue solvers: classical fixtures, counts, agreement."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubespec.sturm_liouville import (
    BoundaryCondition,
    SLProblem,
    attractive_boundary_constant,
    count_below,
    potential_from_json,
    problem_from_json,
    problem_to_json,
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
    floor = spectral_floor(p)
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


@pytest.mark.xfail(strict=True, raises=RuntimeError,
                   reason="the raw n-vs-2n right-end phase rule needs more than "
                          "2^18 cells at 9.6 (ROADMAP item 8)")
def test_mesh_rule_accepts_a_window_just_above_the_first_eigenvalue():
    p = problem_from_json({
        "m0": 0.0, "m1": 3.0,
        "q": {"type": "fourier", "period": math.pi / 3.0, "a0": 10.0,
              "cos": [-10.0]},
        "bc_left": {"kind": "dirichlet"}, "bc_right": {"kind": "dirichlet"}})
    res = solve_cross_validated(p, (0.0, 9.6))
    assert res.eigenvalues == pytest.approx((9.546986471228905,), rel=1e-9)


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
        window = (spectral_floor(p) - 1.0, 25.0)
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
    res = solve_shooting(p, (spectral_floor(p) - 0.5, 30.0))
    assert all(ev >= 2.0 - c - 1e-9 for ev in res.eigenvalues)
    assert res.eigenvalues[0] < 2.0  # the boundary terms do pull downward


def test_spectral_floor_below_ground_state():
    for bc in (DIR, BoundaryCondition.robin(0.4), BoundaryCondition.robin(-2.0)):
        p = SLProblem(q=lambda u: np.cos(u) + 1.0, m0=0.0, m1=2.5,
                      bc_left=bc, bc_right=DIR)
        res = solve_shooting(p, (spectral_floor(p) - 1.0, 12.0))
        assert res.eigenvalues[0] >= spectral_floor(p) - 1e-9


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


def _tube_mode_problem(R):
    """Mode (1, 0), family Abs1, of the schedule's tube at R: a stiff problem
    whose potential reaches ~7e4 (R = 6) to ~2e8 (R = 10) at the right end."""
    from tubespec.geometry import DegenerationSchedule, schedule_instantiate
    from tubespec.torus_modes import ModeIndex
    from tubespec.tube_spectrum import assemble_mode_problem, find_r0
    geom = schedule_instantiate(DegenerationSchedule(R_grid=(R,)), 0)
    geom = geom.with_r0(find_r0(geom)[0])
    return assemble_mode_problem(ModeIndex(1, 0), geom, "Abs1")


def _seed_test_problems():
    smooth = SLProblem(q=lambda u: 1.5 + np.sin(2.0 * u) - 0.4 * np.cos(u),
                       m0=0.0, m1=3.0, bc_left=BoundaryCondition.robin(-0.8),
                       bc_right=DIR)
    # stiff: theta(m1; lam) is a staircase in lam
    tube = _tube_mode_problem(10.0)
    return [(smooth, (spectral_floor(smooth) - 1.0, 20.0), 256, 1e-7),
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
                        error_estimate=fd.error_estimate),
        SimpleNamespace(eigenvalues=fd.eigenvalues[::-1],
                        error_estimate=fd.error_estimate[::-1]),
        SimpleNamespace(eigenvalues=fd.eigenvalues[:-1],
                        error_estimate=fd.error_estimate[:-1]),
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
            (repulsive, (spectral_floor(repulsive) - 1.0, 30.0), 256, 1e-7)]


_MATCHED_IDS = ["smooth", "tube", "repulsive"]


def _matched_setup(case):
    """The phase engine of a matched test problem and its converged mesh."""
    import tubespec.sturm_liouville as sl
    p, (lo, hi), _, tol = _matched_test_problems()[case]
    phase, node = sl._phase_engine(p)
    target = sl._theta_target(p)
    n = sl._converged_mesh(lambda lam, m: phase(lam, m, m), (lo, hi), tol=tol)
    return phase, node, target, n, (lo, hi)


def _matching_nodes(node, mesh):
    """Matching nodes to test: both ends, the engine's own node, the middle."""
    return sorted({0, node(mesh), mesh // 2, mesh})


@pytest.mark.parametrize("case", [0, 1, 2], ids=_MATCHED_IDS)
def test_matched_phase_counts_like_the_right_end_phase(case):
    import tubespec.sturm_liouville as sl
    phase, node, target, n, (lo, hi) = _matched_setup(case)

    def count(lam, k):
        return max(0, math.ceil(sl._phase_units(phase(lam, n, k), target)))

    js = sl._window_indices(phase(lo, n, n), phase(hi, n, n), target)
    assert js
    for k in _matching_nodes(node, n):
        # eigenvalue j sits at target + j pi whichever node the runs meet at
        assert sl._window_indices(phase(lo, n, k), phase(hi, n, k), target) == js, k
        for lam in np.linspace(lo, hi, 21).tolist():
            assert count(lam, k) == count(lam, n), (k, lam)


@pytest.mark.parametrize("case", [0, 1, 2], ids=_MATCHED_IDS)
def test_matched_roots_agree_with_right_end_roots(case):
    from scipy.optimize import brentq
    import tubespec.sturm_liouville as sl
    phase, node, target, n, (lo, hi) = _matched_setup(case)
    xtol = 1e-13 * max(1.0, abs(hi))
    for mesh in (n, 2 * n):
        js = sl._window_indices(phase(lo, mesh, mesh), phase(hi, mesh, mesh), target)
        assert js
        refs = [brentq(lambda x: phase(x, mesh, mesh) - (target + j * math.pi),
                       lo, hi, xtol=xtol, rtol=8.9e-16) for j in js]
        for k in _matching_nodes(node, mesh):
            assert sl._window_indices(phase(lo, mesh, k), phase(hi, mesh, k),
                                      target) == js, (mesh, k)
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
        assert len(res.eigenvalues) >= 1
        assert len(calls) <= 10 * 2 * len(res.eigenvalues)


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


def test_fd_assembly_rejects_non_finite_potential():
    import tubespec.sturm_liouville as sl
    # finite on the 65 validation samples, infinite at the node u = 1/6
    p = SLProblem(q=lambda u: np.where(np.abs(u - 1.0 / 6.0) < 1e-12, np.inf, 0.0),
                  m0=0.0, m1=1.0, bc_left=DIR, bc_right=DIR)
    with pytest.raises(RuntimeError, match="non-finite"):
        sl._fd_arrays(p, 6)


def test_scalar_potential_is_rejected_at_construction():
    with pytest.raises(ValueError, match="same shape"):
        SLProblem(q=lambda u: 1.0, m0=0.0, m1=1.0, bc_left=DIR, bc_right=DIR)


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
    qbar = p.q_values(p.m0 + h * (np.arange(n) + 0.5))
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
    qbar = p.q_values(p.m0 + h * (np.arange(n) + 0.5))
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
    qbar = p.q_values(p.m0 + h * (np.arange(n) + 0.5)).tolist()
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
    # converges to the default phase tolerance on meshes 1024 and 2048
    return SLProblem(q=lambda u: 0.01 * u * u, m0=0.0, m1=math.pi,
                     bc_left=DIR, bc_right=DIR)


def test_shooting_evaluates_no_mesh_above_the_limit(monkeypatch):
    import tubespec.sturm_liouville as sl
    monkeypatch.setattr(sl, "_N_MAX", 1024)
    calls = _count_phase_evaluations(monkeypatch)
    with pytest.raises(RuntimeError, match=r"step failure: .* at n=1024 still"):
        solve_shooting(_slow_converging_problem(), (0.0, 10.0))
    assert max(calls) == 1024


def test_count_below_evaluates_no_mesh_above_the_limit(monkeypatch):
    from scipy.optimize import brentq
    import tubespec.sturm_liouville as sl
    p = _slow_converging_problem()
    phase, node = sl._phase_engine(p)
    n, target = 1024, sl._theta_target(p)

    def at_node(x, m):
        return phase(x, m, node(m))

    # lam between the second eigenvalues of meshes n and 2n: their counts
    # differ, and count_below would settle it on mesh 4n
    roots = [brentq(lambda x: at_node(x, m) - target - math.pi, 0.5, 8.0,
                    xtol=1e-15) for m in (n, 2 * n)]
    lam = 0.5 * sum(roots)
    assert sl._converged_mesh(at_node, (lam,)) == n
    assert count_below(p, lam) == 2
    monkeypatch.setattr(sl, "_N_MAX", 2 * n)
    calls = _count_phase_evaluations(monkeypatch)
    with pytest.raises(RuntimeError, match="mesh 4096 is above the limit"):
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
