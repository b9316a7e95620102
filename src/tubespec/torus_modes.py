"""Fiber mode spectrum of the twisted flat torus boundary leaves.

At height u the boundary leaf of the tube is a flat torus with metric
f(u)^2 dt^2 + h(u)^2 dtheta^2 and identifications
(t, theta) ~ (t + epsilon, theta + rho) ~ (t, theta + 2 pi).  Its scalar
Laplacian diagonalizes over the lattice of modes i = (r, s) in Z^2 with
eigenfunctions

    g_i(u, t, theta) = exp(i [ (2 pi s + r rho) t / epsilon - r theta ])
                       / sqrt(2 pi epsilon f(u) h(u))

and eigenvalues

    kappa_i(u) = (2 pi s + r rho)^2 / (f(u)^2 epsilon^2) + r^2 / h(u)^2.

With f = cosh(x) and h = sinh(x) at x = R - u, both kappa summands are
nondecreasing in u on [r0, R0]: x > 0 (R0 < R) falls as u rises, and cosh
and sinh increase on x > 0, so 1/f^2 and 1/h^2 rise.  The infimum of every
kappa_i over [r0, R0] is therefore kappa_i(r0), and the truncation
certificate evaluates every floor there: the lattice modes, the
wraparound strip |r| <= 2 pi / rho and the closed-form tails outside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .geometry import TubeGeometry, WarpedProfile

__all__ = [
    "ModeIndex",
    "kappa_value",
    "enumerate_modes",
    "min_offzero_kappa",
    "verify_mode_identities",
]


@dataclass(frozen=True, order=True)
class ModeIndex:
    r: int
    s: int

    def __post_init__(self):
        if not (isinstance(self.r, (int, np.integer)) and isinstance(self.s, (int, np.integer))):
            raise TypeError("mode indices must be integers")
        object.__setattr__(self, "r", int(self.r))
        object.__setattr__(self, "s", int(self.s))

    @property
    def is_zero(self) -> bool:
        return self.r == 0 and self.s == 0


def kappa_value(r, s, u, geometry: TubeGeometry):
    """kappa_{(r,s)}(u), vectorized over u or over (r, s).

    Valid for u < R; no [r0, R0] restriction so sweeps may probe [r0, R).
    """
    u = np.asarray(u, dtype=float)
    if np.any(u >= geometry.R):
        raise ValueError(f"u must stay below R={geometry.R} (h vanishes at R)")
    x = geometry.R - u
    f = np.cosh(x)
    h = np.sinh(x)
    w = 2.0 * math.pi * np.asarray(s, dtype=float) + np.asarray(r, dtype=float) * geometry.rho
    return (w / (geometry.epsilon * f)) ** 2 + (np.asarray(r, dtype=float) / h) ** 2


def enumerate_modes(M_max: int) -> list[ModeIndex]:
    """All (r, s) with |r|, |s| <= M_max, in lexicographic order."""
    if M_max < 0:
        raise ValueError("M_max must be >= 0")
    return [ModeIndex(r, s)
            for r in range(-M_max, M_max + 1)
            for s in range(-M_max, M_max + 1)]


def _outside_lattice_floor(geometry: TubeGeometry, M_max: int) -> float:
    """Certified lower bound on inf_u kappa over all modes outside the lattice.

    Outside means |r| > M_max or |s| > M_max.  Pieces:
      * |s| > M_max, |r| <= M_max:  |w| >= 2 pi (M_max+1) - M_max rho > 0.
      * |r| in the wraparound strip (M_max, 2 pi/rho]: evaluated exactly at
        u = r0 over the three s nearest -r rho / (2 pi); any other s has
        |w| >= 3 pi.
      * |r| beyond the strip: kappa >= r^2 / h(r0)^2 already clears it.
    All evaluations at u = r0, where every kappa_i takes its infimum over
    [r0, R0] (module docstring), so this floor covers the whole interval.
    """
    r0 = geometry.require_r0()
    eps, rho = geometry.epsilon, geometry.rho
    x0 = geometry.R - r0
    f0 = float(np.cosh(x0))
    h0 = float(np.sinh(x0))

    w_min = 2.0 * math.pi * (M_max + 1) - M_max * rho
    tail_s = (w_min / (eps * f0)) ** 2

    if rho == 0.0:
        # no wraparound: s = 0 tail is r^2/h^2, any s != 0 has |w| >= 2 pi
        tail_r = ((M_max + 1) / h0) ** 2
        tail_ws = (2.0 * math.pi / (eps * f0)) ** 2
        return min(tail_s, tail_r, tail_ws)

    r_strip = int(math.ceil(2.0 * math.pi / rho))
    if r_strip > 50_000_000:
        raise RuntimeError(
            "increase M_max: twist too small for the wraparound strip certificate")
    strip_min = math.inf
    if r_strip > M_max:
        rr = np.arange(M_max + 1, r_strip + 1, dtype=float)
        s_near = np.rint(-rr * rho / (2.0 * math.pi))
        strip_min = min(float(kappa_value(rr, s_near + ds, r0, geometry).min())
                        for ds in (-1.0, 0.0, 1.0))
    tail_far = ((max(M_max, r_strip) + 1) / h0) ** 2
    tail_ws = (3.0 * math.pi / (eps * f0)) ** 2
    return min(tail_s, strip_min, tail_far, tail_ws)


def min_offzero_kappa(geometry: TubeGeometry, M_max: int):
    """Minimum of kappa over u in [r0, R0] and lattice modes != (0, 0).

    Returns (minimum, certificate).  Each mode's infimum over [r0, R0] is
    its value at r0 (module docstring), so the minimum is taken over the
    lattice at u = r0.  The certificate shows that enlarging M_max cannot
    lower it: the lattice boundary ring and everything outside the lattice
    are bounded below by the achieved minimum.  Certificate failure raises
    with an "increase M_max" message.
    """
    if M_max < 1:
        raise ValueError("increase M_max: lattice holds no off-zero mode")
    modes = [m for m in enumerate_modes(M_max) if not m.is_zero]
    per_mode = kappa_value([m.r for m in modes], [m.s for m in modes],
                           geometry.require_r0(), geometry)
    imin = int(np.argmin(per_mode))
    achieved = float(per_mode[imin])

    ring = [abs(m.r) == M_max or abs(m.s) == M_max for m in modes]
    ring_min = float(per_mode[np.asarray(ring)].min())
    outside = _outside_lattice_floor(geometry, M_max)
    slack = 1e-12 * max(1.0, achieved)
    if min(ring_min, outside) < achieved - slack:
        raise RuntimeError(
            f"increase M_max: lattice M_max={M_max} cannot certify the minimum "
            f"(achieved {achieved:.6g}, boundary ring {ring_min:.6g}, "
            f"outside floor {outside:.6g})")
    cert = {
        "M_max": M_max,
        "achieved": achieved,
        "argmin_mode": (modes[imin].r, modes[imin].s),
        "ring_min": ring_min,
        "outside_floor": outside,
    }
    return achieved, cert


def _g_value(mode: ModeIndex, geometry: TubeGeometry, u, t, theta):
    prof = WarpedProfile(geometry)
    omega_t = (2.0 * math.pi * mode.s + mode.r * geometry.rho) / geometry.epsilon
    phase = omega_t * np.asarray(t, dtype=float) - mode.r * np.asarray(theta, dtype=float)
    norm = np.sqrt(2.0 * math.pi * geometry.epsilon * prof.f(u) * prof.h(u))
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


def verify_mode_identities(mode: ModeIndex, geometry: TubeGeometry,
                           u_samples=None, tol: float = 1e-6) -> dict:
    """Check the closed-form derivative identities of g_i numerically.

    At each sample u (interior to [r0, R0]) the following are compared
    against step-extrapolated finite differences of g_i (complex values are
    a pair of real fields; residuals take both components):

        d_u g     = H(u) g            (only the 1/sqrt(fh) factor varies)
        d_t g     = i (2 pi s + r rho)/epsilon g
        d_theta g = -i r g
        Delta_0 g = kappa g   with  Delta_0 = -f^-2 d_t^2 - h^-2 d_theta^2

    plus the normalization: the quadrature of |g_i|^2 over one fundamental
    domain [0, epsilon] x [0, 2 pi] against the fiber area element
    f h dt dtheta equals 1.

    Returns a report dict; residuals above tol mark the report failed
    rather than raising.
    """
    r0 = geometry.require_r0()
    R0 = geometry.R0
    if u_samples is None:
        span = R0 - r0
        u_samples = [r0 + frac * span for frac in (0.25, 0.5, 0.75)]
    u_samples = [float(u) for u in u_samples]
    margin = 1e-2 * (R0 - r0)
    for u in u_samples:
        if not (r0 + margin <= u <= R0 - margin):
            raise ValueError(f"u sample {u} too close to the interval ends")

    prof = WarpedProfile(geometry)
    eps, rho = geometry.epsilon, geometry.rho
    omega_t = (2.0 * math.pi * mode.s + mode.r * rho) / eps
    t0, th0 = 0.3 * eps, 1.1
    res = {"du": 0.0, "dt": 0.0, "dtheta": 0.0, "laplacian": 0.0}
    for u in u_samples:
        g = complex(_g_value(mode, geometry, u, t0, th0))
        ga = abs(g)
        f_u = float(prof.f(u))
        h_u = float(prof.h(u))
        kap = float(kappa_value(mode.r, mode.s, u, geometry))

        h_step = min(1e-3, 0.3 * margin)
        num = _deriv1(lambda x: _g_value(mode, geometry, x, t0, th0), u, h_step)
        exact = float(prof.H(u)) * g
        res["du"] = max(res["du"], abs(num - exact) / ((abs(float(prof.H(u))) + 1.0) * ga))

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
    f_u = float(prof.f(u_mid))
    h_u = float(prof.h(u_mid))

    def integrand(theta, t):
        return float(abs(_g_value(mode, geometry, u_mid, t, theta)) ** 2) * f_u * h_u

    quadval, _ = integrate.dblquad(integrand, 0.0, eps, 0.0, 2.0 * math.pi,
                                   epsabs=1e-12, epsrel=1e-12)
    norm_rel = abs(quadval - 1.0)

    max_res = max(res.values())
    return {
        "mode": (mode.r, mode.s),
        "residuals": res,
        "max_residual": max_res,
        "normalization_rel_error": norm_rel,
        "tolerance": tol,
        "passed": bool(max_res <= tol and norm_rel <= 1e-8),
    }
