"""Per-mode tube spectra: truncation search, certificates, merged windows."""

import math

import numpy as np
import pytest

import tubespec.tube_spectrum as ts
from tubespec.cli import main
from tubespec.geometry import DegenerationSchedule, schedule_instantiate
from tubespec.sturm_liouville import (
    SpectrumResult, sample_potential, solve_cross_validated, spectral_floor)
from tubespec.torus_modes import ModeIndex, kappa_value, modes_below
from tubespec.tube_spectrum import (
    FloorViolation,
    SweepOptions,
    SweepRow,
    TubeSpectrum,
    assemble_mode_problem,
    find_r0,
    sweep_csv_rows,
    sweep,
    tube_absolute_spectrum,
)


def _tube(R: float):
    sched = DegenerationSchedule(R_grid=(R,))
    return schedule_instantiate(sched, 0)


@pytest.fixture(scope="module")
def tube6():
    geom = _tube(6.0)
    r0, _ = find_r0(geom)
    return geom.with_r0(r0)


@pytest.fixture(scope="module")
def spectrum6(tube6):
    return tube_absolute_spectrum(tube6, SweepOptions(lambda_max=10.0))


def test_find_r0_reference_tubes():
    for R in (6.0, 8.0, 10.0):
        r0, achieved = find_r0(_tube(R))
        assert r0 == pytest.approx(0.2)
        assert achieved > 5.0
        # the floor saturates as R grows; all three land near 1/sinh^2(0.8)
        assert achieved == pytest.approx(5.9672, abs=1e-3)


def test_find_r0_short_tube_fails():
    with pytest.raises(RuntimeError, match="too small"):
        find_r0(_tube(1.2))
    # R = 1 leaves no grid point below R0 at all
    with pytest.raises(RuntimeError, match="no valid r0"):
        find_r0(_tube(1.0))


def test_find_r0_threshold_sensitivity():
    geom = _tube(6.0)
    r0_low, ach_low = find_r0(geom, threshold=1.0)
    r0_ref, _ = find_r0(geom, threshold=5.0)
    assert r0_low <= r0_ref
    assert ach_low > 1.0


def _modes_below_raising_at_r0_01(monkeypatch, exc):
    import tubespec.torus_modes as tm
    real = tm.modes_below

    def patched(geometry, cutoff):
        if geometry.r0 == 0.1:
            raise exc
        return real(geometry, cutoff)

    monkeypatch.setattr(tm, "modes_below", patched)


def test_find_r0_skips_a_capped_r0(monkeypatch):
    _modes_below_raising_at_r0_01(
        monkeypatch, ts.ModeCapExceeded("more than 1089 candidates"))
    r0, achieved = find_r0(_tube(6.0))
    assert r0 == pytest.approx(0.2)
    assert achieved == pytest.approx(5.9672, abs=1e-3)


def test_find_r0_raises_on_a_floor_that_does_not_clear(monkeypatch):
    # a broken certificate, not a refusal: the scan must not step past it
    # to r0 = 0.2
    _modes_below_raising_at_r0_01(
        monkeypatch, RuntimeError("mode floor 1.0 does not clear the cutoff 2.0"))
    with pytest.raises(RuntimeError, match="mode floor") as info:
        find_r0(_tube(6.0))
    assert not isinstance(info.value, ts.ModeCapExceeded)
    rows = sweep(DegenerationSchedule(R_grid=(6.0,)), SweepOptions())
    assert len(rows) == 1 and not rows[0].ok
    assert "mode floor" in rows[0].failure


def test_assemble_abs1_matches_profile_beta(tube6):
    p = assemble_mode_problem(ModeIndex(1, 0), tube6, "Abs1")
    assert p.bc_left.beta == pytest.approx(float(tube6.beta(tube6.r0)))
    assert p.bc_right.beta == pytest.approx(float(tube6.beta(tube6.R0)))
    assert p.m0 == tube6.r0 and p.m1 == tube6.R0


def test_assemble_abs2_is_dirichlet(tube6):
    p = assemble_mode_problem(ModeIndex(1, 0), tube6, "Abs2")
    assert not p.bc_left.is_robin and not p.bc_right.is_robin


def test_assemble_potential_is_mode_kappa(tube6):
    p = assemble_mode_problem(ModeIndex(2, -1), tube6, "Abs1")
    for u in (tube6.r0, 1.0, 3.7, tube6.R0):
        assert p.q(u) == pytest.approx(kappa_value(2, -1, u, tube6), rel=1e-14)


def test_assemble_rejects_merged_family(tube6):
    with pytest.raises(ValueError, match="family"):
        assemble_mode_problem(ModeIndex(0, 0), tube6, "Both")


def test_zero_mode_dirichlet_is_classical(tube6):
    # kappa vanishes for (0, 0), so Abs2 is the free Dirichlet string on
    # [r0, R0] and the window keeps (k pi / L)^2 for k = 1, 2
    spec = tube_absolute_spectrum(tube6, SweepOptions(
        lambda_max=2.0, include_zero_mode=True, family="Abs2"))
    L = tube6.R0 - tube6.r0
    want = [(k * math.pi / L) ** 2 for k in (1, 2)]
    got = [e.eigenvalue for e in spec.entries]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=1e-9)
    assert all(e.mode.is_zero and e.family == "Abs2" for e in spec.entries)


def test_zero_mode_included_only_on_request(tube6):
    spec = tube_absolute_spectrum(tube6, SweepOptions(
        lambda_max=2.0, include_zero_mode=True))
    assert any(e.mode.is_zero for e in spec.entries)
    assert all(e.mode.is_zero for e in spec.entries)  # off-zero floors exceed 2
    default = tube_absolute_spectrum(tube6, SweepOptions(lambda_max=2.0))
    assert default.entries == ()
    assert default.min_positive_offzero is None


@pytest.mark.parametrize("lam_max", [0.5, 10.0])
def test_spectrum_holds_every_enumerated_pair(tube6, lam_max):
    # the skip rule drops a pair only when its floor lies above the window.
    # At lambda_max 0.5 the zero mode's Dirichlet eigenvalue (pi / L)^2 = 0.43
    # lies within 1 above its floor 0, so a rule that skipped floors within 1
    # of the window top would lose it
    options = SweepOptions(lambda_max=lam_max, include_zero_mode=True)
    spec = tube_absolute_spectrum(tube6, options)
    modes, _, _ = modes_below(tube6, spec.truncation_certificate["skip_cutoff"])
    want = sorted(ev for mode in modes for fam in ("Abs1", "Abs2")
                  for ev in solve_cross_validated(
                      assemble_mode_problem(mode, tube6, fam), (0.0, lam_max),
                      grid_n=2048, phase_tol=1e-7).eigenvalues)
    assert want
    assert sorted(e.eigenvalue for e in spec.entries) == want


def test_reference_tube_first_offzero_eigenvalue(spectrum6):
    # the (1, 0) Robin problem owns the bottom of the off-zero spectrum
    assert len(spectrum6.entries) == 2
    for e in spectrum6.entries:
        assert e.family == "Abs1"
        assert abs(e.mode.r) == 1 and e.mode.s == 0
        assert e.eigenvalue == pytest.approx(5.308505705869899, rel=1e-7)
        assert e.error_estimate < 1e-5
    assert spectrum6.min_positive_offzero == spectrum6.entries[0].eigenvalue


def test_opposite_modes_share_eigenvalues(spectrum6):
    by_mode = {(e.mode.r, e.mode.s): e.eigenvalue for e in spectrum6.entries}
    for (r, s), ev in by_mode.items():
        assert by_mode[(-r, -s)] == ev  # same cached solve, bitwise equal


def test_entries_sorted_and_inside_window(spectrum6):
    evs = [e.eigenvalue for e in spectrum6.entries]
    assert evs == sorted(evs)
    assert all(0.0 < ev <= 10.0 for ev in evs)


def test_truncation_certificate_contents(spectrum6):
    cert = spectrum6.truncation_certificate
    assert cert["lambda_max"] == 10.0
    assert set(cert["C_beta"]) == {"Abs1", "Abs2"}
    assert cert["C_beta"]["Abs2"] == 0.0
    assert cert["C_beta"]["Abs1"] > 0.0
    assert cert["skip_cutoff"] == pytest.approx(
        cert["lambda_max"] + max(cert["C_beta"].values()))
    # the certificate is only valid when the outside floor clears the cutoff
    assert cert["outside_floor"] > cert["skip_cutoff"]
    assert set(cert) == {"kappa_min_offzero", "outside_floor", "skip_cutoff",
                         "C_beta", "lambda_max"}


def test_merged_matches_single_family_solve(tube6):
    # the merged spectrum must agree with solving the (1, 0) problem directly
    p = assemble_mode_problem(ModeIndex(1, 0), tube6, "Abs1")
    direct = solve_cross_validated(p, (0.0, 10.0), grid_n=2048, phase_tol=1e-7)
    spec = tube_absolute_spectrum(tube6, SweepOptions(
        lambda_max=10.0, family="Abs1"))
    merged = [e.eigenvalue for e in spec.entries if e.mode == ModeIndex(1, 0)]
    assert merged == list(direct.eigenvalues)


def test_dirichlet_family_lies_above_robin(tube6):
    spec = tube_absolute_spectrum(tube6, SweepOptions(
        lambda_max=10.0, family="Abs2"))
    # removing the attractive boundary terms pushes everything past the window
    assert spec.entries == ()


def test_request_validation():
    with pytest.raises(ValueError, match="lambda_max"):
        SweepOptions(lambda_max=-1.0)
    with pytest.raises(ValueError, match="family"):
        SweepOptions(lambda_max=2.0, family="Abs3")
    with pytest.raises(ValueError, match="include_zero_mode"):
        SweepOptions(lambda_max=2.0, include_zero_mode="false")
    options = SweepOptions(threshold=5, lambda_max=2, family="Abs1",
                           include_zero_mode=np.bool_(True))
    assert [type(v) for v in (options.threshold, options.lambda_max,
                              options.include_zero_mode)] == [float, float, bool]
    assert options.families == ("Abs1",)
    assert SweepOptions().families == ("Abs1", "Abs2")


def test_spectrum_without_r0_names_find_r0():
    with pytest.raises(ValueError, match="find_r0"):
        tube_absolute_spectrum(_tube(6.0), SweepOptions(lambda_max=2.0))


def test_sweep_hands_its_options_to_the_spectrum(monkeypatch):
    seen = []
    real = ts.tube_absolute_spectrum

    def recording(geometry, options):
        seen.append(options)
        return real(geometry, options)

    monkeypatch.setattr(ts, "tube_absolute_spectrum", recording)
    options = SweepOptions(lambda_max=2.0, family="Abs1")
    rows = sweep(DegenerationSchedule(R_grid=(6.0, 8.0)), options)
    assert all(row.ok for row in rows)
    assert len(seen) == 2 and all(o is options for o in seen)


def test_sweep_keeps_an_unbuildable_geometry_as_a_row():
    # epsilon = D1 e^{-2R} underflows to 0 at R = 400, so TubeGeometry
    # refuses it; the R = 6 row must survive
    rows = sweep(DegenerationSchedule(R_grid=(6.0, 400.0)),
                 SweepOptions(lambda_max=10.0))
    assert [row.R for row in rows] == [6.0, 400.0]
    good, bad = rows
    assert good.min_positive_offzero == pytest.approx(5.308505705869899, rel=1e-7)
    assert not bad.ok and bad.spectrum is None
    assert bad.failure == "epsilon must be positive, got 0.0"


def test_spectrum_container_requires_sorted_entries(spectrum6):
    backwards = tuple(reversed(spectrum6.entries))
    if backwards[0].eigenvalue > backwards[-1].eigenvalue:
        with pytest.raises(ValueError, match="sorted"):
            TubeSpectrum(entries=backwards, min_positive_offzero=None,
                         truncation_certificate={})


def test_sweep_keeps_failures_as_rows():
    rows = sweep(DegenerationSchedule(R_grid=(1.2, 6.0)))
    assert [row.R for row in rows] == [1.2, 6.0]
    bad, good = rows
    assert not bad.ok
    assert "too small" in bad.failure
    assert bad.min_positive_offzero is None
    assert good.ok and good.r0 == pytest.approx(0.2)
    assert good.spectrum.entries == ()  # default window (0, 2] is empty


def test_sweep_empty_grid():
    assert sweep(DegenerationSchedule(R_grid=())) == []


def test_csv_rows_document_failures_and_empty_windows():
    rows = sweep(DegenerationSchedule(R_grid=(1.2, 6.0)))
    flat = sweep_csv_rows(rows)
    assert len(flat) == 2
    assert flat[0][0] == 1.2 and flat[0][4].startswith("FAILED:")
    assert flat[1][0] == 6.0 and flat[1][4] == "empty-window"


def test_csv_rows_list_eigenvalues(tube6, spectrum6):
    row = SweepRow(R=6.0, r0=tube6.r0, achieved_inf=5.97, spectrum=spectrum6)
    flat = sweep_csv_rows([row])
    assert len(flat) == len(spectrum6.entries)
    for out, e in zip(flat, spectrum6.entries):
        assert out == (6.0, tube6.r0, e.mode.r, e.mode.s, e.family,
                       e.eigenvalue, e.error_estimate)


def _below_floor(depth):
    """A solve_cross_validated stand-in: one eigenvalue depth below the floor.

    The floor is inf kappa - C(beta) with inf kappa at r0, where the mode's
    potential is smallest.
    """
    def solve(problem, window, grid_n, phase_tol):
        inf_q = float(sample_potential(problem.q, np.array([problem.m0]))[0])
        ev = spectral_floor(problem, inf_q=inf_q) - depth
        return SpectrumResult((ev,), (1e-9,), "CrossValidated", 2 * grid_n)
    return solve


def test_eigenvalue_below_floor_raises(tube6, monkeypatch):
    monkeypatch.setattr(ts, "solve_cross_validated", _below_floor(2e-6))
    with pytest.raises(FloorViolation, match="quadratic-form floor"):
        tube_absolute_spectrum(tube6, SweepOptions(lambda_max=10.0))


def test_eigenvalue_within_floor_slack_passes(tube6, monkeypatch):
    monkeypatch.setattr(ts, "solve_cross_validated", _below_floor(0.5e-6))
    spectrum = tube_absolute_spectrum(tube6, SweepOptions(lambda_max=10.0))
    assert spectrum.entries
    for e in spectrum.entries:
        problem = assemble_mode_problem(e.mode, tube6, e.family)
        floor = spectral_floor(problem, inf_q=kappa_value(e.mode.r, e.mode.s,
                                                          tube6.r0, tube6))
        assert e.eigenvalue == pytest.approx(floor - 0.5e-6, abs=1e-9)


def test_sweep_propagates_floor_violation(monkeypatch):
    monkeypatch.setattr(ts, "solve_cross_validated", _below_floor(2e-6))
    with pytest.raises(FloorViolation):
        sweep(DegenerationSchedule(R_grid=(6.0,)), SweepOptions(lambda_max=10.0))


def test_cli_floor_violation_exits_1_and_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.setattr(ts, "solve_cross_validated", _below_floor(2e-6))
    out = tmp_path / "out"
    assert main(["tube-sweep", "--out", str(out), "--override", "R_grid=[6.0]",
                 "--override", "lambda_max=10"]) == 1
    assert not out.exists()
