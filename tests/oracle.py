"""A referee for the 1-D solvers: Chebyshev collocation, sharing no solver code.

-a'' + q a = lambda a on [m0, m1] is collocated at the N + 1 Chebyshev points
mapped to the interval (L. N. Trefethen, Spectral Methods in MATLAB, SIAM
2000, ch. 6-9 and cheb.m).  The two end rows are replaced by the boundary
rows, a = 0 or a' - beta a = 0, and the same rows of the mass matrix are
zeroed, so the ends contribute only infinite eigenvalues to the generalized
problem.  Only the problem's q, m0, m1 and boundary conditions are read.

The matrix is not symmetric and has no inertia count, so this oracle checks
values, not miss-proof counts; and its rounding grows like N^2, so it needs
a plateau rule and a bar of its own.
"""

import math

import numpy as np
from scipy.linalg import eig

N_FIRST = 16
N_LAST = 256
# successive N agree when every window eigenvalue moves by less than this,
# relative to max(1, |lambda|)
AGREE = 1e-8
# the bar is this many times the smallest change, and at least FLOOR relative
BAR_FACTOR = 4.0
FLOOR = 1e-12


def cheb(n: int):
    """Trefethen's differentiation matrix D and points x = cos(pi j / n)."""
    x = np.cos(math.pi * np.arange(n + 1) / n)
    c = np.hstack([2.0, np.ones(n - 1), 2.0]) * (-1.0) ** np.arange(n + 1)
    dx = x[:, None] - x[None, :]
    d = np.outer(c, 1.0 / c) / (dx + np.eye(n + 1))
    return d - np.diag(d.sum(axis=1)), x


def _boundary_row(bc, d_row, e_row):
    return e_row if not bc.is_robin else d_row - bc.beta * e_row


def _collocated(problem, window, n: int) -> np.ndarray:
    """Real eigenvalues in (lo, hi] of the degree-n collocation, sorted."""
    d, x = cheb(n)
    # x = 1 is u = m1 (row 0), x = -1 is u = m0 (row n)
    u = problem.m0 + 0.5 * (x + 1.0) * problem.length
    du = d * (2.0 / problem.length)
    a = -du @ du + np.diag(np.asarray(problem.q(u), dtype=float))
    b = np.eye(n + 1)
    a[0] = _boundary_row(problem.bc_right, du[0], b[0])
    a[n] = _boundary_row(problem.bc_left, du[n], b[n])
    b[0] = b[n] = 0.0
    lam = eig(a, b, right=False)
    lam = lam[np.isfinite(lam)]
    real = lam[np.abs(lam.imag) <= 1e-8 * np.maximum(1.0, np.abs(lam.real))].real
    lo, hi = window
    return np.sort(real[(real > lo) & (real <= hi)])


def collocation_eigenvalues(problem, window):
    """(eigenvalues in (lo, hi], bars) at the plateau of N.

    N rises by 3/2 from N_FIRST.  Two successive N agree when they hold the
    same number of window eigenvalues and each moves by less than AGREE
    relative.  From the first agreement on, N keeps rising while the largest
    relative move keeps falling; the values of the smallest move are
    returned, each with a bar of BAR_FACTOR times its move, at least FLOOR
    relative.  Past that, rounding, which grows like N^2, outgrows the
    truncation error.  Raises AssertionError when no two N agree by N_LAST:
    the oracle then has no answer, and a test that needs one must fail, not
    skip.
    """
    n, last, best, history = N_FIRST, _collocated(problem, window, N_FIRST), None, []
    while (3 * n) // 2 <= N_LAST:
        n = (3 * n) // 2
        now = _collocated(problem, window, n)
        if len(now) != len(last):
            history.append(f"N={n}: count {len(last)} -> {len(now)}")
            if best is not None:
                break
        else:
            moves = np.abs(now - last)
            scale = np.maximum(1.0, np.abs(now))
            worst = float(np.max(moves / scale, initial=0.0))
            history.append(f"N={n}: {worst:.1e}")
            if best is not None and not worst < best[0]:
                break
            if worst < AGREE:
                best = (worst, now, np.maximum(BAR_FACTOR * moves, FLOOR * scale))
        last = now
    if best is None:
        raise AssertionError(f"collocation found no plateau by N = {n} on window "
                             f"{tuple(window)}; largest relative moves {history}")
    return [float(v) for v in best[1]], [float(e) for e in best[2]]


def assert_within_oracle(result, problem, window):
    """Every eigenvalue of result within its error_estimate plus the oracle's
    bar of the matching oracle eigenvalue, and the same count."""
    ev, bars = collocation_eigenvalues(problem, window)
    assert len(result.eigenvalues) == len(ev), (result.eigenvalues, ev)
    for got, err, want, bar in zip(result.eigenvalues, result.error_estimate, ev, bars):
        assert abs(got - want) <= err + bar, (got, err, want, bar)
