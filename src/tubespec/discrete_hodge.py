"""Finite-dimensional Dirac complexes on discretized circles and intervals.

The model is the rolled-up De Rham complex in one dimension: the graded
space V = V_plus (+) V_minus holds node functions and edge 1-forms, the
derivative d is the forward difference divided by the step (placed in the
plus -> minus block), delta is its transpose, T is +1/-1 on the grades,
Q = d + delta and P = Q^2.  A complex stores that block, D, alone, and
P = blockdiag(D^T D, D D^T).  The spectra come from the Gram blocks alone:
the positive exact spectrum is that of D D^T, and d pairs it with the
coexact one, so dim ker P = dim - 2 rank D.  What the decomposition theory
asserts on these complexes (d^2 = 0, Green identity with no boundary term,
T anticommutation, P = d delta + delta d, harmonic/exact/coexact splitting,
eigenspace pairing, the minimax description) is checked by the tests, by
dense linear algebra on the graded matrices (tests/checks.py).

Boundary conditions on the interval follow the continuum recipe: Absolute
keeps all edge coefficients and all nodes (the function Laplacian comes out
Neumann, the adjoint is a plain transpose so the Green boundary term is
gone); Relative removes the endpoint nodes instead (Dirichlet on
functions, the constant 1-form survives in the kernel).

The S^1 case study at the bottom feeds the dissection bound with data
measured on these complexes (two dense eigensolves, arc and overlap) and
compares it against the true spectrum of the full circle, which is the
end-to-end validity oracle for the bound.  The circle's D D^T is circulant,
so that spectrum comes from its closed form; build_circle_complex builds
the circle itself, for the tests that check the closed form against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dissection import (CoverSpec, c_rho_from_partition, cover_to_json,
                         laplacian_bound)

__all__ = [
    "DiracComplexMatrix",
    "build_interval_complex",
    "exact_positive_spectrum",
    "s1_case_study",
]

# the zero cutoff of P's eigenvalues
REL_TOL = 1e-9
ABS_TOL = 1e-12
# s1_case_study diagonalizes dense Gram blocks, the largest the arc's of about
# n/2 + 2e rows: O(n^2) memory, O(n^3) time
MAX_CASE_STUDY_N = 2048
CIRCLE_LENGTH = 2.0 * math.pi


@dataclass(frozen=True)
class DiracComplexMatrix:
    """A complex stored as D alone; d, delta, T, Q and P are built when accessed."""
    name: str
    step: float
    D: np.ndarray

    @property
    def dim_plus(self) -> int:
        return self.D.shape[1]

    @property
    def dim_minus(self) -> int:
        return self.D.shape[0]

    @property
    def dim(self) -> int:
        return self.dim_plus + self.dim_minus

    @property
    def d(self) -> np.ndarray:
        return np.pad(self.D, ((self.dim_plus, 0), (0, self.dim_minus)))

    @property
    def delta(self) -> np.ndarray:
        return self.d.T

    @property
    def T(self) -> np.ndarray:
        return np.diag(np.repeat([1.0, -1.0], [self.dim_plus, self.dim_minus]))

    @property
    def Q(self) -> np.ndarray:
        return self.d + self.delta

    @property
    def P(self) -> np.ndarray:
        return self.Q @ self.Q


def build_circle_complex(n: int) -> DiracComplexMatrix:
    """Periodic complex on n nodes and n edges of the circle of length 2 pi.

    The step is CIRCLE_LENGTH / n and the P blocks are circulant: the
    closed-form spectrum of each is {4 sin^2(pi k / n) / step^2}.
    """
    if n < 4:
        raise ValueError("circle complex needs n >= 4")
    step = CIRCLE_LENGTH / n
    D = (np.roll(np.eye(n), -1, axis=1) - np.eye(n)) / step
    return DiracComplexMatrix(f"circle(n={n})", step, D)


def build_interval_complex(n: int, length: float,
                           condition: str = "Absolute") -> DiracComplexMatrix:
    """Complex on an interval with n nodes and n-1 edges.

    Absolute keeps every node (functions free at the ends, Neumann
    Laplacian); Relative drops the two endpoint nodes (Dirichlet).  In both
    cases delta is the exact transpose of d, so the discrete Green identity
    holds with no boundary term on the constrained space.
    """
    if n < 4:
        raise ValueError("interval complex needs n >= 4 nodes")
    if not length > 0:
        raise ValueError("length must be positive")
    if condition not in ("Absolute", "Relative"):
        raise ValueError(f"unknown boundary condition {condition!r}")
    step = length / (n - 1)
    full = (np.eye(n, n, 1) - np.eye(n)) / step  # (n, n) forward difference
    D = full[:n - 1, :]                          # n-1 edges x n nodes
    if condition == "Relative":
        D = D[:, 1:n - 1]                        # drop endpoint nodes
    return DiracComplexMatrix(f"interval(n={n},{condition})", step, D)


def _zero_tol(evals: np.ndarray) -> float:
    """Eigenvalues of P at or below this count as zero; evals sorted ascending."""
    return REL_TOL * max(1.0, float(abs(evals[-1]))) + ABS_TOL


def _positive_eigenvalues(gram: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Gram block of P above the zero cutoff."""
    evals = np.linalg.eigvalsh(gram)
    return evals[evals > _zero_tol(evals)]


def exact_positive_spectrum(cx: DiracComplexMatrix) -> np.ndarray:
    """Sorted positive eigenvalues of P restricted to range(d): those of D D^T."""
    return _positive_eigenvalues(cx.D @ cx.D.T)


def _hodge_data(cx: DiracComplexMatrix) -> tuple:
    """The positive exact spectrum and dim ker P, from one eigensolve.

    d pairs the coexact and exact eigenspaces, so D^T D and D D^T share their
    rank D positive eigenvalues, and dim ker P = dim - 2 rank D.
    """
    spectrum = exact_positive_spectrum(cx)
    return spectrum, cx.dim - 2 * spectrum.size


def harmonic_dimension(cx: DiracComplexMatrix) -> int:
    """dim ker P, as dim - 2 rank D with rank D read off the exact spectrum."""
    return _hodge_data(cx)[1]


# ---------------------------------------------------------------------------
# S^1 dissection case study


def _circle_exact_spectrum(n: int) -> np.ndarray:
    """Sorted positive exact spectrum of build_circle_complex(n), in closed form.

    The circle's D D^T is circulant, so its eigenvalues are
    4 sin^2(pi k / n) / step^2 for k = 1..n-1, with step = CIRCLE_LENGTH / n.
    Each is taken at min(k, n - k): the float sin of an angle near pi is up
    to 1e-13 off, so each pair of twins comes out bit-equal and within a few
    ulp of exact.
    """
    step = CIRCLE_LENGTH / n
    k = np.arange(1, n)
    return np.sort(4.0 * np.sin(np.pi * np.minimum(k, n - k) / n) ** 2 / step**2)


def _smoothstep(y: float) -> float:
    return 3.0 * y**2 - 2.0 * y**3


def s1_case_study(n: int, arcs_overlap_fraction: float) -> dict:
    """Cover the discrete circle by two arcs and audit the dissection bound.

    The circle of n nodes is covered by arcs U_0 and U_1, each slightly more
    than half the circle; their intersection has two components of 2e edges
    where e = round(fraction n / 2).  Arc and overlap data (smallest
    positive exact eigenvalues, harmonic dimensions) are measured on
    Absolute interval complexes with the circle's own step, both read off
    one exact spectrum per complex; C_rho is c_rho_from_partition of an
    explicit smoothstep partition of unity, whose periodic forward
    differences are the circle's d.  The report compares the assembled bound
    against the true mu_N of the circle, read off the closed form of its
    circulant exact spectrum, so the study runs two dense eigensolves: arc
    and overlap component.
    """
    if n < 32:
        raise ValueError("case study needs n >= 32")
    if n > MAX_CASE_STUDY_N:
        raise ValueError(f"case study n={n} exceeds the limit of {MAX_CASE_STUDY_N}")
    if n % 2:
        raise ValueError("case study needs even n")
    frac = float(arcs_overlap_fraction)
    if not 0.0 < frac < 0.5:
        raise ValueError("overlap fraction must lie in (0, 1/2)")
    e = int(round(frac * n / 2.0))
    if e < 1 or n // 2 + 2 * e >= n:
        raise ValueError(f"degenerate overlap: e={e} for n={n}")

    step = CIRCLE_LENGTH / n
    half = n // 2

    # arcs as interval complexes: U_0 covers nodes [-e, half + e]
    arc_nodes = half + 2 * e + 1
    arc = build_interval_complex(arc_nodes, (arc_nodes - 1) * step, "Absolute")
    arc_spectrum, h_arc = _hodge_data(arc)
    mu_arc = float(arc_spectrum[0])

    # each overlap component spans 2e edges
    ov_nodes = 2 * e + 1
    overlap = build_interval_complex(ov_nodes, (ov_nodes - 1) * step, "Absolute")
    overlap_spectrum, h_overlap = _hodge_data(overlap)
    mu_overlap = float(overlap_spectrum[0])
    h_overlap_total = 2 * h_overlap

    # partition of unity: rho_0 is 1 on U_0 \ U_1, 0 on U_1 \ U_0, and ramps
    # 1 -> 0 over nodes half - e .. half + e, 0 -> 1 over n - e .. n + e mod n.
    # _smoothstep runs on float64 scalars; an array form rounds differently.
    up = np.array([_smoothstep(y) for y in np.arange(2 * e + 1) / (2.0 * e)])
    rho0 = np.ones(n)
    rho0[half + e + 1:n - e] = 0.0
    rho0[half - e:half + e + 1] = 1.0 - up
    rho0[np.arange(n - e, n + e + 1) % n] = up
    c_rho = c_rho_from_partition([rho0, 1.0 - rho0], step, periodic=True)

    cover = CoverSpec(
        mu_set=(mu_arc, mu_arc),
        adjacency=((1,), (0,)),
        mu_pair={(0, 1): mu_overlap},
        C_rho=c_rho,
        h_pair={(0, 1): h_overlap_total},
    )
    bound = laplacian_bound(cover)
    true_exact = _circle_exact_spectrum(n)
    if bound.N > true_exact.size:
        raise RuntimeError("N exceeds the number of positive exact eigenvalues")
    mu_N_true = float(true_exact[bound.N - 1])

    return {
        "n": n,
        "overlap_fraction": frac,
        "edge_extension": e,
        "arc_nodes": arc_nodes,
        "overlap_component_nodes": ov_nodes,
        "mu_arcs": mu_arc,
        "mu_overlap": mu_overlap,
        "harmonic_dim_arcs": h_arc,
        "harmonic_dim_overlap_total": h_overlap_total,
        "C_rho": c_rho,
        "cover": cover_to_json(cover),
        "N": bound.N,
        "bound": bound.mu_bound,
        "per_set_terms": list(bound.per_set_terms),
        "true_mu_N": mu_N_true,
        "margin": mu_N_true - bound.mu_bound,
        "valid": bool(bound.mu_bound <= mu_N_true and bound.mu_bound > 0),
    }
