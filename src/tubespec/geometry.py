"""Warped tube geometry and degeneration schedules.

A tube of radius R around a short closed geodesic carries the metric

    du^2 + e^{-2u} ((1+phi) cosh^2(R) dt^2 + (1+psi) sinh^2(R) dtheta^2)

in the radial coordinate u measured from the outer boundary.  After the
standard reparametrization the relevant warping functions are

    f(u) = cosh(R - u),      h(u) = sinh(R - u),

defined for u < R; TubeGeometry evaluates them, together with H and beta
below, and no other module writes them out.  These are exact: the
corrections phi and psi only carry the e^{-2u} form of the metric onto
f^2 dt^2 + h^2 dtheta^2, so nothing here evaluates them.  The boundary tori F_u have mean curvature
H(u) = -1/2 d/du log(f h), and the Robin coefficient used by the absolute
boundary condition is beta(u) = d/du log(f h) = -2 H(u).

A DegenerationSchedule pins the core length epsilon and twist rho to the
tube radius: D1 e^{-2R} <= epsilon <= D2 e^{-2R} and
E1 e^{-R} <= rho <= E2 e^{-R} along an increasing grid of R values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .jsonio import check_fields, check_float

__all__ = [
    "TubeGeometry",
    "DegenerationSchedule",
    "schedule_instantiate",
    "schedule_to_json",
    "schedule_from_json",
]


@dataclass(frozen=True)
class TubeGeometry:
    """Parameters of a truncated tube and its warping functions.

    r0 may be None ("unset"): schedules do not determine the inner
    truncation, it is chosen downstream by a threshold search.  Operations
    that need r0 raise if it is unset.  f, h, H and beta (module docstring)
    accept scalars or arrays; h, H and beta need u < R, f allows u = R.
    """

    R: float
    epsilon: float
    rho: float
    r0: float | None = None
    R0: float | None = None

    def __post_init__(self):
        R = float(self.R)
        if not (R > 0 and math.isfinite(R)):
            raise ValueError(f"R must be positive and finite, got {self.R}")
        object.__setattr__(self, "R", R)
        R0 = R - 1.0 if self.R0 is None else float(self.R0)
        object.__setattr__(self, "R0", R0)
        if not R0 < R:
            raise ValueError(f"need R0 < R, got R0={R0}, R={R}")
        if self.r0 is not None:
            r0 = float(self.r0)
            if not (0.0 <= r0 < R0):
                raise ValueError(f"need 0 <= r0 < R0, got r0={r0}, R0={R0}")
            object.__setattr__(self, "r0", r0)
        eps = float(self.epsilon)
        if not (eps > 0 and math.isfinite(eps)):
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        object.__setattr__(self, "epsilon", eps)
        rho = float(self.rho)
        if not (0.0 <= rho < math.pi):
            raise ValueError(f"rho must lie in [0, pi), got {self.rho}")
        object.__setattr__(self, "rho", rho)

    def require_r0(self) -> float:
        if self.r0 is None:
            raise ValueError("geometry has no r0 set; run find_r0 first")
        return self.r0

    def with_r0(self, r0: float) -> "TubeGeometry":
        return TubeGeometry(R=self.R, epsilon=self.epsilon, rho=self.rho,
                            r0=r0, R0=self.R0)

    def f(self, u):
        return np.cosh(self._from_core(u, allow_R=True))

    def h(self, u):
        return np.sinh(self._from_core(u))

    def H(self, u):
        """Mean curvature of the torus leaf at u: -1/2 d/du log(f h)."""
        x = self._from_core(u)
        return 0.5 * (np.tanh(x) + 1.0 / np.tanh(x))

    def beta(self, u):
        """Robin coefficient d/du log(f h) = -2 H(u) < 0."""
        return -2.0 * self.H(u)

    def _from_core(self, u, allow_R: bool = False):
        """R - u, after checking that u stays below R (or at most R)."""
        u = np.asarray(u, dtype=float)
        bad = (u > self.R) if allow_R else (u >= self.R)
        if bad.any():
            raise ValueError(f"u must stay below R={self.R} (h vanishes at R)")
        return self.R - u


@dataclass(frozen=True)
class DegenerationSchedule:
    D1: float = 1.0
    D2: float = 1.0
    E1: float = 1.0
    E2: float = 1.0
    R_grid: tuple = field(default_factory=tuple)

    def __post_init__(self):
        for name in ("D1", "D2", "E1", "E2"):
            object.__setattr__(self, name, check_float(getattr(self, name), name))
        if not (0 < self.D1 <= self.D2):
            raise ValueError(f"need 0 < D1 <= D2, got D1={self.D1}, D2={self.D2}")
        if not (0 < self.E1 <= self.E2):
            raise ValueError(f"need 0 < E1 <= E2, got E1={self.E1}, E2={self.E2}")
        grid = tuple(check_float(R, "R_grid entry") for R in self.R_grid)
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("R_grid must be strictly increasing")
        if any(R <= 0 for R in grid):
            raise ValueError("R_grid entries must be positive")
        object.__setattr__(self, "R_grid", grid)

    def check_member(self, geom: TubeGeometry) -> bool:
        """Whether epsilon and rho of geom satisfy the schedule inequalities."""
        R = geom.R
        eps_ok = self.D1 * math.exp(-2 * R) <= geom.epsilon <= self.D2 * math.exp(-2 * R)
        rho_ok = self.E1 * math.exp(-R) <= geom.rho <= self.E2 * math.exp(-R)
        return eps_ok and rho_ok


def schedule_instantiate(schedule: DegenerationSchedule, j: int) -> TubeGeometry:
    """Geometry at grid index j: epsilon = D1 e^{-2R}, rho = E1 e^{-R}, R0 = R-1.

    r0 is left unset; the inner truncation is a downstream choice.
    """
    if not isinstance(j, int) or isinstance(j, bool):
        raise TypeError(f"grid index must be an int, got {j!r}")
    if not 0 <= j < len(schedule.R_grid):
        raise IndexError(f"grid index {j} out of range for {len(schedule.R_grid)} entries")
    R = schedule.R_grid[j]
    return TubeGeometry(
        R=R,
        epsilon=schedule.D1 * math.exp(-2.0 * R),
        rho=schedule.E1 * math.exp(-R),
        r0=None,
        R0=R - 1.0,
    )


def schedule_to_json(sched: DegenerationSchedule) -> dict:
    return {"D1": sched.D1, "D2": sched.D2, "E1": sched.E1, "E2": sched.E2,
            "R_grid": list(sched.R_grid)}


def schedule_from_json(doc: dict) -> DegenerationSchedule:
    check_fields(doc, "schedule", {"D1", "D2", "E1", "E2", "R_grid"})
    return DegenerationSchedule(**doc)
