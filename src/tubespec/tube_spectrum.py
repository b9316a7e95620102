"""Absolute boundary spectrum of the truncated tube, mode by mode.

Separation of variables turns the tube eigenproblem on [r0, R0] x torus
into one scalar problem per fiber mode (r, s):

    -a'' + kappa_{(r,s)}(u) a = lambda a

under either Robin conditions a' - beta a = 0 with beta = (log fh)' = -2H
at both ends (family "Abs1") or Dirichlet conditions (family "Abs2").  The
two families together make up the absolute boundary condition; the zero
mode is excluded from the merged spectrum by default because its
eigenvalues do not belong to the absolute spectrum of the ambient operator.

Mode selection is certified: a mode is skipped only when its potential
floor minus the attractive-boundary constant exceeds the window top.  The
modes that can reach the window are the lattice points of an ellipse
(torus_modes.modes_below), and its floor certifies that every mode left
out is skippable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import DegenerationSchedule, TubeGeometry, schedule_instantiate
from .jsonio import check_bool, check_float
from .sturm_liouville import (
    BoundaryCondition,
    SLProblem,
    attractive_boundary_constant,
    solve_cross_validated,
)
from .torus_modes import ModeCapExceeded, ModeIndex, kappa_value, min_offzero_kappa, modes_below

__all__ = [
    "FloorViolation",
    "TubeSpectrum",
    "SpectrumEntry",
    "SweepOptions",
    "SweepRow",
    "assemble_mode_problem",
    "tube_absolute_spectrum",
    "find_r0",
    "sweep",
    "sweep_csv_rows",
]

FAMILIES = ("Abs1", "Abs2")

# solver sizing for the per-mode problems: shooting accepts a mesh when the
# Richardson values of its eigenvalues change by less than _PHASE_TOL,
# relative, which the (1, 0) modes of R = 5..10 reach on 256-512 cells,
# within 3e-8 of a Chebyshev collocation reference
_GRID_N = 2048
_PHASE_TOL = 1e-7


class FloorViolation(RuntimeError):
    """A solved eigenvalue lies below the quadratic-form floor.

    That cannot happen for a correct solve, so unlike the per-R failures
    that sweep records as rows, it stops the whole sweep.
    """


@dataclass(frozen=True)
class SweepOptions:
    """Settings of a sweep; the last three are the window of each spectrum.

    threshold is find_r0's floor on inf kappa; lambda_max (positive) is the
    window top; family is "Abs1", "Abs2" or "Both"; include_zero_mode keeps
    the (0, 0) mode's eigenvalues.  Numbers are stored as floats.
    """

    threshold: float = 5.0
    lambda_max: float = 2.0
    family: str = "Both"
    include_zero_mode: bool = False

    def __post_init__(self):
        object.__setattr__(self, "lambda_max", check_float(self.lambda_max, "lambda_max"))
        object.__setattr__(self, "include_zero_mode",
                           check_bool(self.include_zero_mode, "include_zero_mode"))
        if not self.lambda_max > 0:
            raise ValueError("lambda_max must be positive")
        if self.family not in ("Abs1", "Abs2", "Both"):
            raise ValueError(f"unknown family {self.family!r}")
        object.__setattr__(self, "threshold", check_float(self.threshold, "threshold"))

    @property
    def families(self) -> tuple:
        return FAMILIES if self.family == "Both" else (self.family,)


@dataclass(frozen=True)
class SpectrumEntry:
    mode: ModeIndex
    family: str
    eigenvalue: float
    error_estimate: float


@dataclass(frozen=True)
class TubeSpectrum:
    entries: tuple
    min_positive_offzero: float | None
    truncation_certificate: dict

    def __post_init__(self):
        ev = [e.eigenvalue for e in self.entries]
        if any(ev[i] > ev[i + 1] for i in range(len(ev) - 1)):
            raise ValueError("entries must be sorted by eigenvalue")


def assemble_mode_problem(mode: ModeIndex, geometry: TubeGeometry,
                          family: str) -> SLProblem:
    """The scalar problem of one fiber mode on [r0, R0] under one family."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    r0 = geometry.require_r0()
    R0 = geometry.R0

    def q(u, _r=mode.r, _s=mode.s, _g=geometry):
        return kappa_value(_r, _s, u, _g)

    if family == "Abs1":
        bc_l = BoundaryCondition.robin(float(geometry.beta(r0)))
        bc_r = BoundaryCondition.robin(float(geometry.beta(R0)))
    else:
        bc_l = BoundaryCondition.dirichlet()
        bc_r = BoundaryCondition.dirichlet()
    return SLProblem(q=q, m0=r0, m1=R0, bc_left=bc_l, bc_right=bc_r)


def _canonical(mode: ModeIndex) -> ModeIndex:
    # kappa depends on (r, s) only through w^2 and r^2, so (r, s) and
    # (-r, -s) share one scalar problem
    if mode.r > 0 or (mode.r == 0 and mode.s >= 0):
        return mode
    return ModeIndex(-mode.r, -mode.s)


def tube_absolute_spectrum(geometry: TubeGeometry,
                           options: SweepOptions = SweepOptions()) -> TubeSpectrum:
    """Merged windowed spectra of every mode that can reach the window.

    geometry needs r0 set (find_r0).  options gives the window (0,
    lambda_max], the families and whether the zero mode is kept; its
    threshold is find_r0's and unused here.  A mode/family pair is solved
    unless inf_u kappa - C(beta) > lambda_max, where C is the
    attractive-boundary constant of that family (zero for Dirichlet) and
    inf_u kappa is the mode's kappa at r0, where it is smallest on [r0, R0].
    Only the modes with inf kappa at most the largest such cutoff are
    enumerated; the floor of modes_below shows that every other mode is
    skipped.  Every solve runs both methods and must
    cross-validate, and no eigenvalue may lie more than 1e-6 below the
    mode's floor inf_u kappa - C(beta), or FloorViolation is raised.
    """
    geometry.require_r0()
    lam_max = options.lambda_max
    window = (0.0, lam_max)

    c_beta = {}
    for fam in options.families:
        probe = assemble_mode_problem(ModeIndex(0, 0), geometry, fam)
        c_beta[fam] = attractive_boundary_constant(probe)
    cutoff = lam_max + max(c_beta.values())

    kappa_min, _ = min_offzero_kappa(geometry)
    modes, inf_kappa, outside_floor = modes_below(geometry, cutoff)

    solved = {}
    entries = []
    for mode, inf_q in zip(modes, inf_kappa.tolist()):
        if mode.is_zero and not options.include_zero_mode:
            continue
        for fam in options.families:
            floor = inf_q - c_beta[fam]
            if floor > lam_max:
                continue
            key = (_canonical(mode).r, _canonical(mode).s, fam)
            if key not in solved:
                problem = assemble_mode_problem(mode, geometry, fam)
                result = solve_cross_validated(problem, window,
                                               grid_n=_GRID_N,
                                               phase_tol=_PHASE_TOL)
                if not all(ev >= floor - 1e-6 for ev in result.eigenvalues):
                    raise FloorViolation(
                        f"mode {mode} {fam}: eigenvalue "
                        f"{min(result.eigenvalues)!r} below the quadratic-form "
                        f"floor {floor!r}")
                solved[key] = result
            result = solved[key]
            for ev, er in zip(result.eigenvalues, result.error_estimate):
                entries.append(SpectrumEntry(mode, fam, ev, er))

    entries.sort(key=lambda e: (e.eigenvalue, e.mode.r, e.mode.s, e.family))
    offzero = [e.eigenvalue for e in entries
               if not e.mode.is_zero and e.eigenvalue > 0]
    certificate = {
        "kappa_min_offzero": kappa_min,
        "outside_floor": outside_floor,
        "skip_cutoff": cutoff,
        "C_beta": dict(c_beta),
        "lambda_max": lam_max,
    }
    return TubeSpectrum(
        entries=tuple(entries),
        min_positive_offzero=(min(offzero) if offzero else None),
        truncation_certificate=certificate,
    )


def find_r0(geometry: TubeGeometry, threshold: float = 5.0):
    """Smallest r0 on the 0.1-grid with certified inf kappa above threshold.

    Accepts a geometry with or without r0 (any preset value is ignored, the
    scan always starts at 0).  Returns (r0, achieved_infimum).  A grid point
    that modes_below refuses (ModeCapExceeded) is skipped; any other error,
    such as a floor that does not clear its cutoff, propagates.  When no
    grid point below R0 reaches the threshold the failure is explicit: the
    tube is too short for the requested floor.
    """
    threshold = float(threshold)
    candidates = []
    k = 0
    while k * 0.1 < geometry.R0 - 1e-12:
        candidates.append(round(k * 0.1, 10))
        k += 1
    best = None
    for r0 in candidates:
        try:
            achieved, _ = min_offzero_kappa(geometry.with_r0(r0))
        except ModeCapExceeded:
            continue
        best = achieved if best is None else max(best, achieved)
        if achieved > threshold:
            return r0, achieved
    detail = f"best inf kappa {best:.6g}" if best is not None else "no valid r0 grid point"
    raise RuntimeError(
        f"no r0 below R0={geometry.R0} reaches threshold {threshold} "
        f"({detail}); R={geometry.R} is too small")


@dataclass(frozen=True)
class SweepRow:
    R: float
    r0: float | None
    achieved_inf: float | None
    spectrum: TubeSpectrum | None
    failure: str | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None

    @property
    def min_positive_offzero(self) -> float | None:
        return self.spectrum.min_positive_offzero if self.spectrum else None


def sweep(schedule: DegenerationSchedule,
          options: SweepOptions = SweepOptions()) -> list:
    """Run find_r0 + tube_absolute_spectrum for every R in the schedule.

    options goes to tube_absolute_spectrum as it is.  Per-R failures (a
    geometry that cannot be built, such as one whose epsilon underflows to
    0, a short tube, certificate trouble) become rows with a failure reason
    and the sweep continues to the next R; a FloorViolation is a solver
    defect and propagates.  Rows follow the schedule's increasing R_grid.
    """
    rows = []
    for j, R in enumerate(schedule.R_grid):
        try:
            geom = schedule_instantiate(schedule, j)
            r0, achieved = find_r0(geom, threshold=options.threshold)
            spectrum = tube_absolute_spectrum(geom.with_r0(r0), options)
            rows.append(SweepRow(R=float(R), r0=r0, achieved_inf=achieved,
                                 spectrum=spectrum))
        except FloorViolation:
            raise
        except (RuntimeError, ValueError) as exc:
            rows.append(SweepRow(R=float(R), r0=None, achieved_inf=None,
                                 spectrum=None, failure=str(exc)))
    return rows


def sweep_csv_rows(rows) -> list:
    """Flatten sweep rows to (R, r0, mode_r, mode_s, family, eigenvalue, error).

    Failure rows keep their place with empty mode columns and the reason in
    the family column, so a sweep over a bad schedule still documents itself.
    """
    out = []
    for row in rows:
        if not row.ok:
            out.append((row.R, "", "", "", f"FAILED: {row.failure}", "", ""))
            continue
        if not row.spectrum.entries:
            out.append((row.R, row.r0, "", "", "empty-window", "", ""))
            continue
        for e in row.spectrum.entries:
            out.append((row.R, row.r0, e.mode.r, e.mode.s, e.family,
                        e.eigenvalue, e.error_estimate))
    return out
