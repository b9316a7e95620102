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
kappa_i over [r0, R0] is therefore kappa_i(r0), and every floor of the
truncation certificate is taken there.

At u = r0, with w = 2 pi s + r rho, f0 = f(r0) and h0 = h(r0), the modes
with kappa <= c are the lattice points of the ellipse

    w^2 / (epsilon f0)^2 + r^2 / h0^2 <= c,

so |r| <= h0 sqrt(c), and in each row s the admissible r satisfy
|2 pi s + r rho| <= epsilon f0 sqrt(c); when rho = 0 every r of a row
shares w = 2 pi s.  modes_below enumerates those points and bounds
kappa(r0) from below over every other mode: rejected candidates by their
own value, rows past the r range by r^2 / h0^2, and modes outside each
row's r band by w^2 / (epsilon f0)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import TubeGeometry

__all__ = [
    "ModeCapExceeded",
    "ModeIndex",
    "kappa_value",
    "modes_below",
    "min_offzero_kappa",
    "verify_mode_identities",
]

# modes_below refuses to enumerate more candidates than a 33 x 33 lattice
MAX_MODE_CANDIDATES = 33 * 33


class ModeCapExceeded(RuntimeError):
    """modes_below refuses to enumerate; unlike a floor error, no certificate failed."""


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

    Valid for u < R (geometry.h raises otherwise); no [r0, R0] restriction
    so sweeps may probe [r0, R).
    """
    f = geometry.f(u)
    h = geometry.h(u)
    w = 2.0 * math.pi * np.asarray(s, dtype=float) + np.asarray(r, dtype=float) * geometry.rho
    return (w / (geometry.epsilon * f)) ** 2 + (np.asarray(r, dtype=float) / h) ** 2


def modes_below(geometry: TubeGeometry, cutoff: float):
    """(modes, kappa, floor): every mode with kappa(r0) <= cutoff, and a floor on the rest.

    The modes come in lexicographic (r, s) order, with kappa their
    kappa_value at r0 (each one's inf over [r0, R0]) in the same order.  The
    candidates are the lattice points of the ellipse kappa(r0) <= cutoff
    (module docstring), padded by one on every side so that rounding cannot
    drop a mode on its boundary, and they are filtered by kappa_value
    itself.  The floor is a lower bound on kappa(r0), hence on inf kappa
    over [r0, R0], for every mode that is not returned; it exceeds the
    cutoff, or RuntimeError is raised.  Past MAX_MODE_CANDIDATES candidates
    the enumeration raises ModeCapExceeded.
    """
    r0 = geometry.require_r0()
    cutoff = float(cutoff)
    if not (cutoff >= 0.0 and math.isfinite(cutoff)):
        raise ValueError(f"cutoff must be nonnegative and finite, got {cutoff}")
    rho = geometry.rho
    h0 = float(geometry.h(r0))
    ef0 = geometry.epsilon * float(geometry.f(r0))
    root = math.sqrt(cutoff)
    w_max = ef0 * root
    r_max = math.floor(h0 * root) + 1.0
    s_top = math.floor((w_max + r_max * rho) / (2.0 * math.pi)) + 2
    refusal = (f"enumerating the fiber modes below kappa(r0) = {cutoff:.6g} takes "
               f"more than {MAX_MODE_CANDIDATES} candidates or an r range past 2^52")
    # r stays a float, exact only up to 2^52
    if 2 * s_top + 1 > MAX_MODE_CANDIDATES or r_max > 2.0 ** 52:
        raise ModeCapExceeded(refusal)
    s = np.arange(-s_top, s_top + 1, dtype=float)
    if rho > 0.0:
        r_lo = np.ceil((-2.0 * math.pi * s - w_max) / rho) - 1.0
        r_hi = np.floor((-2.0 * math.pi * s + w_max) / rho) + 1.0
    else:
        # every r shares w = 2 pi s; rows past the band get an empty r range
        # whose neighbours 0 and -1 carry that w
        band = np.abs(s) < s_top
        r_lo = np.where(band, -r_max, 0.0)
        r_hi = np.where(band, r_max, -1.0)
    r_lo = np.clip(r_lo, -r_max, r_max + 1)
    r_hi = np.clip(r_hi, -r_max - 1, r_max)
    counts = np.maximum(r_hi - r_lo + 1.0, 0.0)
    if counts.sum() > MAX_MODE_CANDIDATES:
        raise ModeCapExceeded(refusal)

    r = np.concatenate([np.arange(lo, hi + 1.0) for lo, hi in zip(r_lo, r_hi)])
    s_of_r = np.repeat(s, counts.astype(int))
    order = np.lexsort((s_of_r, r))
    r, s_of_r = r[order], s_of_r[order]
    kappa = kappa_value(r, s_of_r, r0, geometry)
    below = kappa <= cutoff

    # a mode that is no candidate lies past the r range, where kappa >=
    # r^2/h0^2, or in a row s beyond the first missing r on one side of the
    # band, where |w| only grows; rows past +-s_top have |w| at least that
    # of (-+r_max, +-s_top) plus 2 pi
    r_next = np.concatenate([r_lo - 1.0, r_hi + 1.0])
    w_next = np.abs(2.0 * math.pi * np.concatenate([s, s]) + r_next * rho)
    w_gap = float(w_next[np.abs(r_next) <= r_max].min())
    floor = min(float(kappa[~below].min(initial=math.inf)),
                (w_gap / ef0) ** 2, ((r_max + 1) / h0) ** 2)
    if not floor > cutoff:
        raise RuntimeError(f"mode floor {floor!r} does not clear the cutoff {cutoff!r}")
    modes = [ModeIndex(int(a), int(b)) for a, b in zip(r[below], s_of_r[below])]
    return modes, kappa[below], floor


def min_offzero_kappa(geometry: TubeGeometry):
    """Minimum of kappa over u in [r0, R0] and all modes != (0, 0).

    Returns (minimum, {"achieved", "argmin_mode"}).  Each mode's infimum
    over [r0, R0] is its value at r0 (module docstring).  The minimum is at
    most the kappa of any off-zero mode: (0, 1), (1, 0) (s = 0 is the s
    nearest -rho/(2 pi), as 0 <= rho < pi), and, for rho > 0, the modes
    (r_w + d, -1) with d in {-1, 0, 1} and r_w = round(2 pi / rho), where
    the twist first wraps w = 2 pi s + r rho back to near 0.  So it is the
    smallest off-zero kappa that modes_below returns at the least of those;
    the argmin is the first minimizer in lexicographic order.
    """
    r0 = geometry.require_r0()
    r, s = [0, 1], [1, 0]
    # r stays exact in kappa_value's float arithmetic only up to 2^52
    if geometry.rho > 0.0 and 2.0 * math.pi / geometry.rho < 2.0 ** 52:
        r_w = round(2.0 * math.pi / geometry.rho)
        r += [r_w - 1, r_w, r_w + 1]
        s += [-1, -1, -1]
    bound = float(kappa_value(r, s, r0, geometry).min())
    modes, kappa, _ = modes_below(geometry, bound)
    imin = min((i for i, m in enumerate(modes) if not m.is_zero), key=kappa.__getitem__)
    achieved = float(kappa[imin])
    return achieved, {"achieved": achieved,
                      "argmin_mode": (modes[imin].r, modes[imin].s)}


def _g_value(mode: ModeIndex, geometry: TubeGeometry, u, t, theta):
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
