"""Finite-dimensional Dirac complexes on discretized circles and intervals.

The model is the rolled-up De Rham complex in one dimension: the graded
space V = V_plus (+) V_minus holds node functions and edge 1-forms, the
derivative d is the forward difference divided by the step (placed in the
plus -> minus block), delta is its transpose, T is +1/-1 on the grades,
Q = d + delta and P = Q^2.  A complex stores that block, D, alone, and
P = blockdiag(D^T D, D D^T).  Everything the decomposition theory asserts
(d^2 = 0, Green identity with no boundary term, T anticommutation,
P = d delta + delta d, harmonic/exact/coexact splitting, eigenspace pairing)
is checkable here by dense linear algebra against closed-form spectra.

Boundary conditions on the interval follow the continuum recipe: Absolute
keeps all edge coefficients and all nodes (the function Laplacian comes out
Neumann, the adjoint is a plain transpose so the Green boundary term is
gone); Relative removes the endpoint nodes instead (Dirichlet on
functions, the constant 1-form survives in the kernel).

The S^1 case study at the bottom feeds the dissection bound with data
measured on these complexes and compares it against the true spectrum of
the full circle, which is the end-to-end validity oracle for the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .dissection import (CoverSpec, c_rho_from_partition, cover_to_json,
                         laplacian_bound)

__all__ = [
    "DiracComplexMatrix",
    "EigenspaceSplit",
    "build_circle_complex",
    "build_interval_complex",
    "structure_report",
    "verify_decomposition",
    "verify_eigenspace_pairing",
    "verify_minimax",
    "exact_positive_spectrum",
    "group_eigenvalues",
    "s1_case_study",
]

# eigenvalue grouping and membership tolerances
REL_TOL = 1e-9
ABS_TOL = 1e-12
# rank / orthogonality cutoff for dense bases
RANK_TOL = 1e-10
# s1_case_study diagonalizes dense n x n Gram blocks: O(n^2) memory, O(n^3) time
MAX_CASE_STUDY_N = 2048


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


def build_circle_complex(n: int, length: float = 2.0 * math.pi) -> DiracComplexMatrix:
    """Periodic complex on n nodes and n edges; P blocks are circulant.

    The closed-form spectrum of each block is {4 sin^2(pi k / n) / step^2}.
    """
    if n < 4:
        raise ValueError("circle complex needs n >= 4")
    if not length > 0:
        raise ValueError("length must be positive")
    step = length / n
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


def structure_report(cx: DiracComplexMatrix) -> dict:
    """Max residuals of the defining algebraic identities (all should be ~0)."""
    ident = np.eye(cx.dim)
    scale = max(1.0, float(np.abs(cx.P).max()))
    return {
        "d_squared": float(np.abs(cx.d @ cx.d).max()),
        "delta_squared": float(np.abs(cx.delta @ cx.delta).max()),
        "adjointness": float(np.abs(cx.delta - cx.d.T).max()),
        "T_involution": float(np.abs(cx.T @ cx.T - ident).max()),
        "anticommutation": float(np.abs(cx.Q @ cx.T + cx.T @ cx.Q).max()),
        "laplacian_split": float(
            np.abs(cx.P - (cx.d @ cx.delta + cx.delta @ cx.d)).max()) / scale,
    }


def group_eigenvalues(values) -> list:
    """Group a sorted eigenvalue array into (value, multiplicity) clusters."""
    groups = []
    for v in np.sort(np.asarray(values, dtype=float)):
        if groups and abs(v - groups[-1][0]) <= REL_TOL * max(abs(v), abs(groups[-1][0])) + ABS_TOL:
            val, mult = groups[-1]
            groups[-1] = ((val * mult + v) / (mult + 1), mult + 1)
        else:
            groups.append((float(v), 1))
    return groups


def _zero_tol(evals: np.ndarray) -> float:
    """Eigenvalues of P at or below this count as zero; evals sorted ascending."""
    return REL_TOL * max(1.0, float(abs(evals[-1]))) + ABS_TOL


def _orth_basis(columns: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span, rank-truncated by RANK_TOL."""
    if columns.size == 0:
        return np.zeros((columns.shape[0], 0))
    u, s, _ = np.linalg.svd(columns, full_matrices=False)
    rank = int(np.sum(s > RANK_TOL * max(1.0, s[0] if s.size else 1.0)))
    return u[:, :rank]


def verify_decomposition(cx: DiracComplexMatrix) -> dict:
    """Harmonic (+) exact (+) coexact splitting of the full graded space.

    Returns the three dimensions, the worst pairwise orthogonality residual,
    and whether the dimensions exhaust the space.
    """
    evals, evecs = np.linalg.eigh(cx.P)
    kernel = evecs[:, np.abs(evals) <= _zero_tol(evals)]
    exact = _orth_basis(cx.d @ evecs)       # range(d)
    coexact = _orth_basis(cx.delta @ evecs)  # range(delta)
    dims = (kernel.shape[1], exact.shape[1], coexact.shape[1])
    residual = 0.0
    for a, b in ((kernel, exact), (kernel, coexact), (exact, coexact)):
        if a.shape[1] and b.shape[1]:
            residual = max(residual, float(np.abs(a.T @ b).max()))
    return {
        "dims": dims,
        "complete": sum(dims) == cx.dim,
        "max_orthogonality_residual": residual,
        "structure": structure_report(cx),
    }


def _positive_eigenvalues(gram: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Gram block of P above the zero cutoff."""
    evals = np.linalg.eigvalsh(gram)
    return evals[evals > _zero_tol(evals)]


def exact_positive_spectrum(cx: DiracComplexMatrix) -> np.ndarray:
    """Sorted positive eigenvalues of P restricted to range(d): those of D D^T."""
    return _positive_eigenvalues(cx.D @ cx.D.T)


def coexact_positive_spectrum(cx: DiracComplexMatrix) -> np.ndarray:
    return _positive_eigenvalues(cx.D.T @ cx.D)


def harmonic_dimension(cx: DiracComplexMatrix) -> int:
    """dim ker P: the eigenvalues of D^T D and of D D^T at or below the cutoff."""
    return cx.dim - coexact_positive_spectrum(cx).size - exact_positive_spectrum(cx).size


@dataclass(frozen=True)
class EigenspaceSplit:
    eigenvalue: float
    E: np.ndarray
    E_exact: np.ndarray
    E_coexact: np.ndarray


def verify_eigenspace_pairing(cx: DiracComplexMatrix, lam: float) -> EigenspaceSplit:
    """Split the lambda-eigenspace of P and check d pairs its halves.

    For lambda > 0 the eigenspace is E_exact (+) E_coexact with d an
    isomorphism coexact -> exact scaling norms by sqrt(lambda), and delta
    the reverse; both are verified numerically here.
    """
    lam = float(lam)
    evals, evecs = np.linalg.eigh(cx.P)
    if lam <= _zero_tol(evals):
        raise ValueError("pairing is claimed only for positive eigenvalues")
    mask = np.abs(evals - lam) <= REL_TOL * abs(lam) + ABS_TOL
    if not mask.any():
        raise ValueError(f"{lam} is not an eigenvalue of P within tolerance")
    E = evecs[:, mask]
    E_exact = _orth_basis(cx.d @ E)
    E_coexact = _orth_basis(cx.delta @ E)
    if E_exact.shape[1] != E_coexact.shape[1]:
        raise AssertionError("exact and coexact multiplicities differ")
    if E_exact.shape[1] + E_coexact.shape[1] != E.shape[1]:
        raise AssertionError("eigenspace does not split into exact + coexact")
    # d restricted to E_coexact, written in the E_exact basis, must be
    # sqrt(lam) times an orthogonal matrix
    M = E_exact.T @ cx.d @ E_coexact
    sv = np.linalg.svd(M, compute_uv=False)
    if sv.size and not np.allclose(sv, math.sqrt(lam), rtol=1e-8, atol=1e-10):
        raise AssertionError("d is not a sqrt(lambda)-isometry on the coexact part")
    Mb = E_coexact.T @ cx.delta @ E_exact
    svb = np.linalg.svd(Mb, compute_uv=False)
    if svb.size and not np.allclose(svb, math.sqrt(lam), rtol=1e-8, atol=1e-10):
        raise AssertionError("delta is not a sqrt(lambda)-isometry on the exact part")
    return EigenspaceSplit(eigenvalue=lam, E=E, E_exact=E_exact, E_coexact=E_coexact)


def verify_minimax(cx: DiracComplexMatrix, i: int) -> dict:
    """Assertable facets of the variational description of exact eigenvalues.

    (a) the i-th positive exact and coexact eigenvalues agree;
    (b) over L = span of the first i exact eigenvectors, the sup of
        ||eta||^2 / ||chi_min(eta)||^2 with chi_min the minimal-norm
        d-preimage equals the i-th exact eigenvalue.
    """
    if i < 1:
        raise ValueError("i must be >= 1")
    ex = exact_positive_spectrum(cx)
    co = coexact_positive_spectrum(cx)
    if i > ex.size:
        return {"degenerate": True, "available": int(ex.size)}
    lam_i = float(ex[i - 1])
    facet_a = abs(lam_i - float(co[i - 1])) <= REL_TOL * lam_i + ABS_TOL

    basis = _orth_basis(cx.d)
    M = basis.T @ cx.P @ basis
    evals, evecs = np.linalg.eigh(M)
    order = np.argsort(evals)
    L = basis @ evecs[:, order[:i]]          # first i exact eigenvectors
    pinv_d = np.linalg.pinv(cx.d, rcond=RANK_TOL)
    chi = pinv_d @ L                          # minimal-norm preimages
    A = L.T @ L
    B = chi.T @ chi
    quot = scipy.linalg.eigh(A, B, eigvals_only=True)
    sup_quot = float(np.max(quot))
    facet_b = abs(sup_quot - lam_i) <= 1e-8 * max(1.0, lam_i)
    return {
        "i": i,
        "lambda_exact": lam_i,
        "lambda_coexact": float(co[i - 1]),
        "facet_a_equal": bool(facet_a),
        "sup_quotient": sup_quot,
        "facet_b_equal": bool(facet_b),
        "degenerate": False,
    }


# ---------------------------------------------------------------------------
# S^1 dissection case study


def _smoothstep(y: float) -> float:
    return 3.0 * y**2 - 2.0 * y**3


def s1_case_study(n: int, arcs_overlap_fraction: float) -> dict:
    """Cover the discrete circle by two arcs and audit the dissection bound.

    The circle of n nodes is covered by arcs U_0 and U_1, each slightly more
    than half the circle; their intersection has two components of 2e edges
    where e = round(fraction n / 2).  Arc and overlap data (smallest
    positive exact eigenvalues, harmonic dimensions) are measured on
    Absolute interval complexes with the circle's own step; C_rho is
    c_rho_from_partition of an explicit smoothstep partition of unity, whose
    periodic forward differences are the circle's d.  The report compares
    the assembled bound against the true mu_N of the circle from full
    diagonalization.
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

    circle = build_circle_complex(n)
    step = circle.step
    half = n // 2

    # arcs as interval complexes: U_0 covers nodes [-e, half + e]
    arc_nodes = half + 2 * e + 1
    arc = build_interval_complex(arc_nodes, (arc_nodes - 1) * step, "Absolute")
    mu_arc = float(exact_positive_spectrum(arc)[0])
    h_arc = harmonic_dimension(arc)

    # each overlap component spans 2e edges
    ov_nodes = 2 * e + 1
    overlap = build_interval_complex(ov_nodes, (ov_nodes - 1) * step, "Absolute")
    mu_overlap = float(exact_positive_spectrum(overlap)[0])
    h_overlap_total = 2 * harmonic_dimension(overlap)

    # partition of unity: rho_0 is 1 on U_0 \ U_1, 0 on U_1 \ U_0, smoothstep
    # ramps across the two overlap components
    rho0 = np.zeros(n)
    idx = np.arange(n)
    # component A: nodes half - e .. half + e (rho_0 ramps 1 -> 0)
    # component B: nodes n - e .. n + e (mod n)   (rho_0 ramps 0 -> 1)
    for k in idx:
        pos_a = (k - (half - e)) / (2.0 * e)
        pos_b = ((k - (n - e)) % n) / (2.0 * e)
        if 0.0 <= pos_a <= 1.0:
            rho0[k] = 1.0 - _smoothstep(pos_a)
        elif 0.0 <= pos_b <= 1.0:
            rho0[k] = _smoothstep(pos_b)
        elif half + e < k < n - e:  # inside U_1 only
            rho0[k] = 0.0
        else:
            rho0[k] = 1.0
    c_rho = c_rho_from_partition([rho0, 1.0 - rho0], step, periodic=True)

    cover = CoverSpec(
        mu_set=(mu_arc, mu_arc),
        adjacency=((1,), (0,)),
        mu_pair={(0, 1): mu_overlap},
        C_rho=c_rho,
        h_pair={(0, 1): h_overlap_total},
    )
    bound = laplacian_bound(cover)
    true_exact = exact_positive_spectrum(circle)
    if bound.N > true_exact.size:
        raise AssertionError("N exceeds the number of positive exact eigenvalues")
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
