"""Checks of the paper's statements on the model problems, run only by the tests.

No subcommand runs these, so they live beside the tests, as oracle.py does;
pytest collects only test_*.py and leaves this module alone.

  * The discrete Hodge theory of the first theorem on the complexes of
    tubespec.discrete_hodge: the algebraic identities of d, delta, T, Q and
    P, the harmonic (+) exact (+) coexact splitting, the pairing of the
    exact and coexact halves of each eigenspace by d, and the variational
    description of the exact eigenvalues.  All by dense linear algebra on
    the graded matrices, a route that shares nothing with the Gram blocks
    the package diagonalizes.
  * The closed-form derivative identities and the normalization of the
    fiber modes g_i of tubespec.torus_modes, by step-extrapolated finite
    differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from tubespec.discrete_hodge import (ABS_TOL, REL_TOL, DiracComplexMatrix, _zero_tol,
                                     exact_positive_spectrum)
from tubespec.geometry import TubeGeometry
from tubespec.torus_modes import ModeIndex, kappa_value

# rank / orthogonality cutoff for dense bases
RANK_TOL = 1e-10


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


def orth_basis(columns: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span, rank-truncated by RANK_TOL."""
    if columns.size == 0:
        return np.zeros((columns.shape[0], 0))
    u, s, _ = np.linalg.svd(columns, full_matrices=False)
    rank = int(np.sum(s > RANK_TOL * max(1.0, s[0] if s.size else 1.0)))
    return u[:, :rank]


def projected_eigh(cx: DiracComplexMatrix, span: np.ndarray):
    """Ascending eigenpairs of P projected onto the column span of span.

    The eigenvectors are returned in the full graded space.  Projected onto
    range(d) or range(delta), these are the exact or coexact eigenpairs.
    """
    basis = orth_basis(span)
    evals, evecs = np.linalg.eigh(basis.T @ cx.P @ basis)
    return evals, basis @ evecs


def verify_decomposition(cx: DiracComplexMatrix) -> dict:
    """Harmonic (+) exact (+) coexact splitting of the full graded space.

    Returns the three dimensions, the worst pairwise orthogonality residual,
    and whether the dimensions exhaust the space.  The harmonic dimension is
    the number of eigenvalues of P at or below discrete_hodge's zero cutoff.
    """
    evals, evecs = np.linalg.eigh(cx.P)
    kernel = evecs[:, np.abs(evals) <= _zero_tol(evals)]
    exact = orth_basis(cx.d @ evecs)       # range(d)
    coexact = orth_basis(cx.delta @ evecs)  # range(delta)
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
    E_exact = orth_basis(cx.d @ E)
    E_coexact = orth_basis(cx.delta @ E)
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
    """The variational description of the i-th positive exact eigenvalue.

    Over L = span of the first i exact eigenvectors, the sup of
    ||eta||^2 / ||chi_min(eta)||^2, with chi_min the minimal-norm
    d-preimage, equals the i-th exact eigenvalue.
    """
    if i < 1:
        raise ValueError("i must be >= 1")
    ex = exact_positive_spectrum(cx)
    if i > ex.size:
        return {"degenerate": True, "available": int(ex.size)}
    lam_i = float(ex[i - 1])
    L = projected_eigh(cx, cx.d)[1][:, :i]   # first i exact eigenvectors
    pinv_d = np.linalg.pinv(cx.d, rcond=RANK_TOL)
    chi = pinv_d @ L                          # minimal-norm preimages
    A = L.T @ L
    B = chi.T @ chi
    # the generalized problem A x = q B x, reduced with B = C C^T to the
    # standard one of inv(C) A inv(C)^T
    c = np.linalg.inv(np.linalg.cholesky(B))
    quot = np.linalg.eigvalsh(c @ A @ c.T)
    sup_quot = float(np.max(quot))
    return {
        "i": i,
        "lambda_exact": lam_i,
        "sup_quotient": sup_quot,
        "passed": abs(sup_quot - lam_i) <= 1e-8 * max(1.0, lam_i),
        "degenerate": False,
    }


# ---------------------------------------------------------------------------
# fiber mode identities


def _g_value(mode: ModeIndex, geometry: TubeGeometry, u, t, theta):
    """The fiber mode g_i of the torus_modes docstring at (u, t, theta)."""
    omega_t = (2.0 * math.pi * mode.s + mode.r * geometry.rho) / geometry.epsilon
    phase = omega_t * np.asarray(t, dtype=float) - mode.r * np.asarray(theta, dtype=float)
    norm = np.sqrt(2.0 * math.pi * geometry.epsilon * geometry.f(u) * geometry.h(u))
    return np.exp(1j * phase) / norm


def _deriv1(fun, x, h):
    d1 = (fun(x + h) - fun(x - h)) / (2.0 * h)
    d2 = (fun(x + h / 2) - fun(x - h / 2)) / h
    return (4.0 * d2 - d1) / 3.0


def _deriv2(fun, x, h):
    c = fun(x)
    s1 = (fun(x + h) - 2.0 * c + fun(x - h)) / h**2
    s2 = (fun(x + h / 2) - 2.0 * c + fun(x - h / 2)) / (h / 2) ** 2
    return (4.0 * s2 - s1) / 3.0


def verify_mode_identities(mode: ModeIndex, geometry: TubeGeometry) -> dict:
    """Check the closed-form derivative identities of g_i numerically.

    At u = r0 + (R0 - r0) * {1/4, 1/2, 3/4} the following are compared
    against step-extrapolated finite differences of g_i (complex values are
    a pair of real fields; residuals take both components):

        d_u g     = H(u) g            (only the 1/sqrt(fh) factor varies)
        d_t g     = i (2 pi s + r rho)/epsilon g
        d_theta g = -i r g
        Delta_0 g = kappa g   with  Delta_0 = -f^-2 d_t^2 - h^-2 d_theta^2

    plus the normalization at the middle sample: 2 pi epsilon times the
    mean of |g_i|^2 f h on a uniform 64 x 64 grid of [0, epsilon) x [0, 2 pi)
    equals 1.  For a correct g_i that integrand is constant, so the mean is
    exact; a modulus that varies over either period moves it.

    Returns a report dict; residuals above 1e-6 ("tolerance") or a
    normalization error above 1e-8 mark it failed rather than raising.
    """
    r0 = geometry.require_r0()
    R0 = geometry.R0
    tol = 1e-6
    u_samples = [r0 + frac * (R0 - r0) for frac in (0.25, 0.5, 0.75)]
    h_step = min(1e-3, 3e-3 * (R0 - r0))

    eps, rho = geometry.epsilon, geometry.rho
    omega_t = (2.0 * math.pi * mode.s + mode.r * rho) / eps
    t0, th0 = 0.3 * eps, 1.1
    res = {"du": 0.0, "dt": 0.0, "dtheta": 0.0, "laplacian": 0.0}
    for u in u_samples:
        g = complex(_g_value(mode, geometry, u, t0, th0))
        ga = abs(g)
        f_u = float(geometry.f(u))
        h_u = float(geometry.h(u))
        kap = float(kappa_value(mode.r, mode.s, u, geometry))

        num = _deriv1(lambda x: _g_value(mode, geometry, x, t0, th0), u, h_step)
        exact = float(geometry.H(u)) * g
        res["du"] = max(res["du"], abs(num - exact) / ((abs(float(geometry.H(u))) + 1.0) * ga))

        ht = 1e-3 / (abs(omega_t) + 1.0 / eps)
        num = _deriv1(lambda x: _g_value(mode, geometry, u, x, th0), t0, ht)
        res["dt"] = max(res["dt"],
                        abs(num - 1j * omega_t * g) / ((abs(omega_t) + 1.0 / eps) * ga))

        hth = 1e-3 / (abs(mode.r) + 1.0)
        num = _deriv1(lambda x: _g_value(mode, geometry, u, t0, x), th0, hth)
        res["dtheta"] = max(res["dtheta"],
                            abs(num + 1j * mode.r * g) / ((abs(mode.r) + 1.0) * ga))

        dtt = _deriv2(lambda x: _g_value(mode, geometry, u, x, th0), t0, ht)
        dthth = _deriv2(lambda x: _g_value(mode, geometry, u, t0, x), th0, hth)
        lap = -dtt / f_u**2 - dthth / h_u**2
        scale = (kap + (abs(omega_t) + 1.0 / eps) ** 2 / f_u**2
                 + (abs(mode.r) + 1.0) ** 2 / h_u**2) * ga
        res["laplacian"] = max(res["laplacian"], abs(lap - kap * g) / scale)

    # normalization at the middle sample
    u_mid = u_samples[len(u_samples) // 2]
    f_u = float(geometry.f(u_mid))
    h_u = float(geometry.h(u_mid))

    grid = np.arange(64) / 64
    g = _g_value(mode, geometry, u_mid, eps * grid[:, None], 2.0 * math.pi * grid)
    norm_rel = abs(float(np.mean(np.abs(g) ** 2)) * f_u * h_u * 2.0 * math.pi * eps - 1.0)

    max_res = max(res.values())
    return {
        "mode": (mode.r, mode.s),
        "residuals": res,
        "max_residual": max_res,
        "normalization_rel_error": norm_rel,
        "tolerance": tol,
        "passed": bool(max_res <= tol and norm_rel <= 1e-8),
    }
