"""Numerical toolkit for tube spectra, dissection bounds, and discrete Hodge checks.

The package has three legs that share one goal, certified lower bounds on
small eigenvalues:

  * warped tube eigenproblems reduced to 1-D Sturm-Liouville windows
    (`geometry`, `torus_modes`, `sturm_liouville`, `tube_spectrum`),
  * the dissection lower bound assembled from cover data (`dissection`),
    exercised end to end on discrete circle complexes (`discrete_hodge`),
  * comparison-ODE verifiers for the slope and growth estimates the tube
    argument leans on (`ode_compare`).

`cli` exposes each scenario as a subcommand with deterministic JSON/CSV
output.
"""

from .dissection import (
    BoundResult,
    CoverSpec,
    berger_scaling,
    compute_N,
    dirac_bound,
    laplacian_bound,
)
from .discrete_hodge import (
    DiracComplexMatrix,
    build_circle_complex,
    build_interval_complex,
    s1_case_study,
    verify_decomposition,
    verify_eigenspace_pairing,
    verify_minimax,
)
from .geometry import DegenerationSchedule, TubeGeometry, schedule_instantiate
from .ode_compare import (
    ComparisonCase,
    asymptotic_slope,
    dirichlet_growth,
    integrate_pair,
    verify_riccati,
)
from .sturm_liouville import (
    BoundaryCondition,
    SLProblem,
    SpectrumResult,
    count_below,
    solve_cross_validated,
    solve_fd,
    solve_shooting,
    spectral_floor,
)
from .torus_modes import ModeIndex, min_offzero_kappa, verify_mode_identities
from .tube_spectrum import (
    SweepOptions,
    TubeSpectrum,
    find_r0,
    sweep,
    tube_absolute_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "BoundResult",
    "BoundaryCondition",
    "ComparisonCase",
    "CoverSpec",
    "DegenerationSchedule",
    "DiracComplexMatrix",
    "ModeIndex",
    "SLProblem",
    "SpectrumResult",
    "SweepOptions",
    "TubeGeometry",
    "TubeSpectrum",
    "asymptotic_slope",
    "berger_scaling",
    "build_circle_complex",
    "build_interval_complex",
    "compute_N",
    "count_below",
    "dirac_bound",
    "dirichlet_growth",
    "find_r0",
    "integrate_pair",
    "laplacian_bound",
    "min_offzero_kappa",
    "s1_case_study",
    "schedule_instantiate",
    "solve_cross_validated",
    "solve_fd",
    "solve_shooting",
    "spectral_floor",
    "sweep",
    "tube_absolute_spectrum",
    "verify_decomposition",
    "verify_eigenspace_pairing",
    "verify_minimax",
    "verify_mode_identities",
    "verify_riccati",
]
