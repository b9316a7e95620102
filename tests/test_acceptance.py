"""Acceptance gate: the nine headline checks, one test and one line each.

Criterion 4 also has a non-vacuous companion test, whose window holds
eigenvalues.

Each test prints a single summary line so a verbose run reads as a
checklist.  Stated runtime budgets are asserted, not just hoped for.
"""

import math
import time

import numpy as np
import pytest

from checks import (
    group_eigenvalues,
    structure_report,
    verify_decomposition,
    verify_eigenspace_pairing,
    verify_mode_identities,
)
from tubespec.dissection import (
    CoverSpec,
    berger_scaling,
    compute_N,
    cover_from_json,
    dirac_bound,
    laplacian_bound,
)
from tubespec.discrete_hodge import (
    build_circle_complex,
    build_interval_complex,
    exact_positive_spectrum,
    harmonic_dimension,
    s1_case_study,
)
from tubespec.geometry import DegenerationSchedule, schedule_instantiate
from tubespec.ode_compare import run_suite
from tubespec.sturm_liouville import (
    BoundaryCondition,
    SLProblem,
    solve_fd,
    solve_shooting,
    spectral_floor,
)
from tubespec.torus_modes import ModeIndex
from tubespec.tube_spectrum import (
    SweepOptions,
    find_r0,
    tube_absolute_spectrum,
)

DIR = BoundaryCondition.dirichlet()
FREE = BoundaryCondition.robin(0.0)


def test_criterion_1_classical_spectra():
    start = time.perf_counter()

    dirichlet = SLProblem(q=lambda u: 0.0 * u, m0=0.0, m1=math.pi,
                          bc_left=DIR, bc_right=DIR)
    res = solve_fd(dirichlet, 128, (0.0, 30.0))
    want = (1.0, 4.0, 9.0, 16.0, 25.0)
    assert len(res.eigenvalues) == 5
    worst = 0.0
    for got, w in zip(res.eigenvalues, want):
        worst = max(worst, abs(got - w) / w)
    assert worst <= 1e-6

    neumann = SLProblem(q=lambda u: 0.0 * u, m0=0.0, m1=1.0,
                        bc_left=FREE, bc_right=FREE)
    res = solve_fd(neumann, 128, (-0.5, 160.0))
    want = [0.0] + [(k * math.pi) ** 2 for k in range(1, 5)]
    assert len(res.eigenvalues) == 5
    for got, w in zip(res.eigenvalues, want):
        worst = max(worst, abs(got - w) / max(w, 1.0))
    assert worst <= 1e-6

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 1 PASS: classical spectra, worst relative error "
          f"{worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_method_agreement():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(10):
        c = rng.uniform(-1.0, 1.0, size=3)
        base = float(rng.uniform(0.0, 2.0))

        def q(u, c=c, base=base):
            return (base + c[0] * np.sin(u) + c[1] * np.cos(2.0 * u)
                    + c[2] * np.sin(3.0 * u + 0.5))

        beta = float(rng.uniform(-1.5, 1.5))
        bcs = [DIR, BoundaryCondition.robin(beta)]
        p = SLProblem(q=q, m0=0.0, m1=2.0,
                      bc_left=bcs[trial % 2], bc_right=bcs[(trial + 1) % 2])
        # |sin|, |cos| <= 1 bound q below
        window = (spectral_floor(p, inf_q=base - float(np.sum(np.abs(c)))) - 1.0, 12.0)
        fd = solve_fd(p, 256, window)
        sh = solve_shooting(p, window, phase_tol=1e-8)
        assert len(fd.eigenvalues) == len(sh.eigenvalues)
        for lf, ef, ls, es in zip(fd.eigenvalues, fd.error_estimate,
                                  sh.eigenvalues, sh.error_estimate):
            assert abs(lf - ls) <= ef + es
            worst = max(worst, abs(lf - ls))
    assert worst <= 1e-6

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"criterion 2 PASS: 10 seeded potentials, max discrepancy "
          f"{worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_fiber_mode_identities():
    start = time.perf_counter()
    modes = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1),
             (1, 1), (-1, 1), (2, 0), (1, -1), (2, -1)]
    worst_res, worst_norm = 0.0, 0.0
    for R in (6.0, 10.0):
        geom = schedule_instantiate(DegenerationSchedule(R_grid=(R,)), 0)
        geom = geom.with_r0(find_r0(geom)[0])
        for r, s in modes:
            rep = verify_mode_identities(ModeIndex(r, s), geom)
            assert rep["passed"], (R, r, s, rep)
            worst_res = max(worst_res, rep["max_residual"])
            worst_norm = max(worst_norm, rep["normalization_rel_error"])
    assert worst_res <= 1e-6
    assert worst_norm <= 1e-8

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"criterion 3 PASS: 10 modes x 2 geometries, worst residual "
          f"{worst_res:.2e}, normalization {worst_norm:.2e}, {elapsed:.2f}s")


def test_criterion_4_tube_threshold():
    start = time.perf_counter()
    total_entries = 0
    for R in (6.0, 8.0, 10.0):
        geom = schedule_instantiate(DegenerationSchedule(R_grid=(R,)), 0)
        r0, achieved = find_r0(geom, threshold=5.0)
        assert achieved > 5.0
        spectrum = tube_absolute_spectrum(geom.with_r0(r0),
                                          SweepOptions(lambda_max=2.0))
        cert = spectrum.truncation_certificate
        assert cert["outside_floor"] > cert["skip_cutoff"]
        for entry in spectrum.entries:
            assert entry.eigenvalue >= 1.0 - 1e-3, (R, entry)
        total_entries += len(spectrum.entries)
        if spectrum.min_positive_offzero is not None:
            assert spectrum.min_positive_offzero >= 1.0 - 1e-3

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 4 PASS: R in (6, 8, 10), {total_entries} off-zero "
          f"eigenvalues in (0, 2], all certified above 1, {elapsed:.2f}s")


def test_criterion_4_tube_threshold_nonvacuous():
    # companion to criterion 4: the window (0, 10] at R=6 does hold
    # eigenvalues, the Abs1 (+-1, 0) pair at 5.30851 (six digits)
    start = time.perf_counter()
    geom = schedule_instantiate(DegenerationSchedule(R_grid=(6.0,)), 0)
    r0, _ = find_r0(geom, threshold=5.0)
    spectrum = tube_absolute_spectrum(geom.with_r0(r0),
                                      SweepOptions(lambda_max=10.0))
    assert spectrum.entries
    for entry in spectrum.entries:
        assert entry.eigenvalue >= 1.0, entry
    pair = [e for e in spectrum.entries
            if e.family == "Abs1" and (e.mode.r, e.mode.s) in ((1, 0), (-1, 0))]
    assert len(pair) == 2
    for e in pair:
        assert abs(e.eigenvalue - 5.30851) <= 5e-6 + e.error_estimate, e

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"criterion 4 (non-vacuous) PASS: R=6, {len(spectrum.entries)} "
          f"eigenvalues in (0, 10], Abs1 (+-1, 0) at "
          f"{pair[0].eigenvalue:.6f}, {elapsed:.2f}s")


def test_criterion_5_comparison_suites():
    start = time.perf_counter()
    a1 = run_suite({"suite": "A.1", "seed": 7, "count": 20})
    assert a1["all_passed"]
    assert a1["worst_riccati_margin"] >= -1e-8
    assert all(c["slope"] >= c["k"] / 2.0 - 1e-6 for c in a1["cases"])

    a2 = run_suite({"suite": "A.2", "seed": 7, "count": 10})
    assert a2["all_passed"]
    assert a2["worst_growth_margin"] >= -1e-8
    assert all(c["no_zero"] for c in a2["cases"])

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"criterion 5 PASS: A.1 20/20 and A.2 10/10, worst margins "
          f"{a1['worst_riccati_margin']:.2e} / "
          f"{a2['worst_growth_margin']:.2e}, {elapsed:.2f}s")


def _random_chain_cover(rng):
    n = int(rng.integers(1, 5))
    mu = rng.uniform(0.05, 40.0, size=n)
    adjacency = [[] for _ in range(n)]
    mu_pair = {}
    for i in range(n - 1):
        adjacency[i].append(i + 1)
        adjacency[i + 1].append(i)
        mu_pair[(i, i + 1)] = float(rng.uniform(0.05, 40.0))
    h_pair = {k: int(rng.integers(0, 3)) for k in mu_pair}
    return CoverSpec(mu_set=tuple(float(m) for m in mu),
                     adjacency=tuple(tuple(row) for row in adjacency),
                     mu_pair=mu_pair,
                     C_rho=float(rng.uniform(0.0, 5.0)),
                     h_pair=h_pair)


def test_criterion_6_dissection_regression():
    # single set passes through; dyadic inputs make the reciprocal exact
    for mu in (1.0, 2.0, 0.5, 4.0):
        solo = CoverSpec(mu_set=(mu,), adjacency=((),), mu_pair={}, C_rho=1.0)
        assert laplacian_bound(solo).mu_bound == mu

    two = CoverSpec(mu_set=(1.0, 1.0), adjacency=((1,), (0,)),
                    mu_pair={(0, 1): 1.0}, C_rho=1.0)
    lap = laplacian_bound(two)
    dir_ = dirac_bound(two)
    assert lap.mu_bound == 1.0 / 34.0
    assert dir_.lambda_bound == math.sqrt(1.0 / 34.0)
    assert dir_.lambda_bound == 0.17149858514250885

    rng = np.random.default_rng(606)
    for _ in range(100):
        cover = _random_chain_cover(rng)
        d = dirac_bound(cover)
        l_sq = laplacian_bound(cover.squared())
        assert d.mu_bound == l_sq.mu_bound
        assert d.lambda_bound == math.sqrt(l_sq.mu_bound)

    rng = np.random.default_rng(607)
    for _ in range(100):
        cover = _random_chain_cover(rng)
        base = laplacian_bound(cover).mu_bound
        kind = int(rng.integers(0, 3))
        factor = float(rng.uniform(1.0, 4.0))
        if kind == 0:
            i = int(rng.integers(0, len(cover.mu_set)))
            mu_set = tuple(m * factor if j == i else m
                           for j, m in enumerate(cover.mu_set))
            bumped = CoverSpec(mu_set=mu_set, adjacency=cover.adjacency,
                               mu_pair=cover.mu_pair, C_rho=cover.C_rho,
                               h_pair=cover.h_pair)
        elif kind == 1 and cover.mu_pair:
            key = sorted(cover.mu_pair)[int(rng.integers(0, len(cover.mu_pair)))]
            mu_pair = {k: (v * factor if k == key else v)
                       for k, v in cover.mu_pair.items()}
            bumped = CoverSpec(mu_set=cover.mu_set, adjacency=cover.adjacency,
                               mu_pair=mu_pair, C_rho=cover.C_rho,
                               h_pair=cover.h_pair)
        else:
            bumped = CoverSpec(mu_set=cover.mu_set, adjacency=cover.adjacency,
                               mu_pair=cover.mu_pair, C_rho=cover.C_rho / factor,
                               h_pair=cover.h_pair)
        assert laplacian_bound(bumped).mu_bound >= base * (1.0 - 1e-12)

    print("criterion 6 PASS: fixtures exact, 100 dirac/laplacian identities, "
          "100 monotone perturbations")


def test_criterion_7_end_to_end_validity():
    start = time.perf_counter()
    for n in (64, 128):
        for frac in (0.125, 0.25):
            rep = s1_case_study(n, frac)
            assert rep["valid"], (n, frac, rep)
            assert 0.0 < rep["bound"] <= rep["true_mu_N"]
            cover = cover_from_json(rep["cover"])
            assert compute_N(cover) == rep["N"]
            # kernel bookkeeping: one constant per overlap component
            assert rep["harmonic_dim_overlap_total"] == 2
            assert rep["N"] == rep["harmonic_dim_overlap_total"] + 1
            overlap = build_interval_complex(
                rep["overlap_component_nodes"], 1.0, "Absolute")
            assert 2 * harmonic_dimension(overlap) == \
                rep["harmonic_dim_overlap_total"]

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"criterion 7 PASS: 4 case-study configurations, bound below "
          f"truth in each, N bookkeeping consistent, {elapsed:.2f}s")


def test_criterion_8_structure_suite():
    worst = 0.0
    complexes = [build_circle_complex(n) for n in (8, 32, 128)]
    complexes += [build_interval_complex(n, 1.0, cond)
                  for n in (9, 33, 128) for cond in ("Absolute", "Relative")]
    for cx in complexes:
        rep = structure_report(cx)
        worst = max(worst, max(rep.values()))
        assert max(rep.values()) <= 1e-12, (cx.name, rep)

        zero_mult = verify_decomposition(cx)["dims"][0]
        assert zero_mult == harmonic_dimension(cx)

    checked = 0
    for cx in (build_circle_complex(16),
               build_interval_complex(16, 1.0, "Absolute")):
        for lam, mult in group_eigenvalues(exact_positive_spectrum(cx)):
            split = verify_eigenspace_pairing(cx, lam)
            assert split.E_exact.shape[1] == mult
            assert split.E_coexact.shape[1] == mult
            checked += 1

    print(f"criterion 8 PASS: structure residuals below 1e-12 (worst "
          f"{worst:.1e}), zero multiplicity matches harmonic dimension, "
          f"{checked} eigenvalues pair exactly")


def test_criterion_9_berger_curve():
    res = berger_scaling(1.0, 1.0, 2, 0.1, [float(t) for t in range(201)],
                         thresholds=(10.0,))
    t_star = res.t_star[10.0]
    assert t_star == 99.0
    i = res.t_values.index(t_star)
    assert res.curve[i] >= 10.0
    assert res.curve[i - 1] < 10.0
    assert all(b > a for a, b in zip(res.curve, res.curve[1:]))

    print("criterion 9 PASS: curve crosses 10 exactly at t* = 99 and is "
          "strictly increasing")
