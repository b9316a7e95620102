"""Self-adjoint second order eigenproblems on an interval, two independent ways.

Solves -a'' + q(u) a = lambda a on [m0, m1] under Dirichlet or Robin
conditions (a' - beta a = 0 with the coordinate derivative at both ends)
inside a finite eigenvalue window.  Two methods that share no code path:

  * symmetric finite differences with ghost-point Robin elimination, on
    meshes n and 2n, Richardson-extrapolated;
  * Pruefer phase shooting, propagating the phase exactly across cells on
    which q is frozen at its midpoint.  One phase, run from both ends to a
    matching node, puts eigenvalue j at theta_target + j pi at every node.
    Met at the right end it picks the mesh and counts the window; met where
    q is lowest it stays smooth in lambda where q is stiff, and finds roots.

Shooting may take FD eigenvalues as seeds for its root brackets.  A seeded
bracket is used only after phase evaluations at its ends show the sign
change; otherwise it is widened, up to the whole window.  The phase is
monotone in lambda, so every accepted bracket holds the same unique root:
seeds save phase evaluations but cannot change which roots shooting finds,
and the window count still comes from the right-end phase alone.

The piecewise-frozen propagation replaces naive Runge-Kutta stepping of the
phase ODE: the tube potentials reach ~1e8 where any explicit stepper needs
absurd step counts, while the frozen-cell transfer is exact per cell and
second order in the cell width overall.  The phase across a mesh is a
reduction of exact cell maps: each cell is its 2x2 transfer matrix with one
lifted phase, pairs of maps compose into one, and a mesh of n cells costs
O(n) numpy work with no Python loop over cells.  Both methods report
per-eigenvalue error estimates from mesh doubling so that results can be
cross-checked within combined error bars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.optimize import brentq

from .jsonio import check_fields, check_float

__all__ = [
    "BoundaryCondition",
    "SLProblem",
    "SpectrumResult",
    "solve_fd",
    "solve_shooting",
    "solve_cross_validated",
    "cross_check",
    "count_below",
    "attractive_boundary_constant",
    "spectral_floor",
    "potential_from_json",
    "problem_from_json",
    "problem_to_json",
]

MIN_INTERVAL = 1e-6
# solve_fd time and memory grow linearly in grid_n: 2^18 took about 4 s and
# a 52 MB peak on a 5-eigenvalue window (2-core VM); the shooting mesh stops
# at the same size (_N_MAX)
MAX_FD_GRID_N = 1 << 18


@dataclass(frozen=True)
class BoundaryCondition:
    kind: str
    beta: float | None = None

    def __post_init__(self):
        if self.kind not in ("dirichlet", "robin"):
            raise ValueError(f"unknown boundary condition kind {self.kind!r}")
        if self.kind == "robin":
            if self.beta is None or not math.isfinite(float(self.beta)):
                raise ValueError("robin condition needs a finite beta")
            object.__setattr__(self, "beta", float(self.beta))
        elif self.beta is not None:
            raise ValueError("dirichlet condition takes no beta")

    @classmethod
    def dirichlet(cls) -> "BoundaryCondition":
        return cls("dirichlet")

    @classmethod
    def robin(cls, beta: float) -> "BoundaryCondition":
        return cls("robin", float(beta))

    @property
    def is_robin(self) -> bool:
        return self.kind == "robin"


@dataclass(frozen=True)
class SLProblem:
    """-a'' + q a = lambda a on [m0, m1]; q maps an array of u to an array."""

    q: object
    m0: float
    m1: float
    bc_left: BoundaryCondition
    bc_right: BoundaryCondition
    q_json: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "m0", float(self.m0))
        object.__setattr__(self, "m1", float(self.m1))
        if not (math.isfinite(self.m0) and math.isfinite(self.m1)):
            raise ValueError("interval endpoints must be finite")
        if self.m1 - self.m0 < MIN_INTERVAL:
            raise ValueError(
                f"interval [{self.m0}, {self.m1}] shorter than {MIN_INTERVAL}")
        if not callable(self.q):
            raise TypeError("q must be callable")
        u = np.linspace(self.m0, self.m1, 65)
        sample = self.q_values(u)
        if sample.shape != u.shape:
            raise ValueError(
                f"q must map an array of points to an array of the same shape, "
                f"got shape {sample.shape} for {u.shape}")
        if not np.all(np.isfinite(sample)):
            raise ValueError("potential is not bounded on the interval")

    @property
    def length(self) -> float:
        return self.m1 - self.m0

    def q_values(self, u):
        return np.asarray(self.q(np.asarray(u, dtype=float)), dtype=float)


@dataclass(frozen=True)
class SpectrumResult:
    eigenvalues: tuple
    error_estimate: tuple
    method: str
    grid_n: int

    def __post_init__(self):
        ev = tuple(float(x) for x in self.eigenvalues)
        err = tuple(float(x) for x in self.error_estimate)
        if len(ev) != len(err):
            raise ValueError("eigenvalues and error_estimate lengths differ")
        if any(e < 0 for e in err):
            raise ValueError("error estimates must be nonnegative")
        if any(ev[i] >= ev[i + 1] for i in range(len(ev) - 1)):
            raise ValueError("eigenvalues must be strictly increasing")
        object.__setattr__(self, "eigenvalues", ev)
        object.__setattr__(self, "error_estimate", err)

    def to_json(self) -> dict:
        return {
            "method": self.method,
            "grid_n": self.grid_n,
            "eigenvalues": list(self.eigenvalues),
            "error_estimate": list(self.error_estimate),
        }


def _check_phase_tol(phase_tol) -> float:
    tol = check_float(phase_tol, "phase_tol")
    if not tol > 0.0:
        raise ValueError(f"phase_tol must be positive, got {phase_tol!r}")
    return tol


def _check_window(window):
    if len(window) != 2:
        raise ValueError(f"window must be a pair (lo, hi), got {window}")
    lo, hi = check_float(window[0], "window lo"), check_float(window[1], "window hi")
    if not lo < hi:
        raise ValueError(f"window must have lo < hi, got {window}")
    return lo, hi


def _err_floor(lam: float) -> float:
    return 1e-12 * max(1.0, abs(lam))


# ---------------------------------------------------------------------------
# finite differences


def _fd_arrays(problem: SLProblem, n: int):
    """Symmetric tridiagonal (diag, offdiag) for mesh with n subintervals.

    Robin ends keep their boundary node; the ghost-point row is halved, which
    makes the problem generalized with mass 1/2 at that node, then rescaled
    by M^(-1/2) on both sides back to an ordinary symmetric one.  The scaling
    shows up as sqrt(2) on the off-diagonal entry next to a Robin node.
    """
    h = problem.length / n
    u = problem.m0 + h * np.arange(n + 1)
    qv = problem.q_values(u)
    i0 = 0 if problem.bc_left.is_robin else 1
    i1 = n if problem.bc_right.is_robin else n - 1
    m = i1 - i0 + 1
    if m < 2:
        raise ValueError("mesh too coarse for the boundary conditions")
    d = 2.0 / h**2 + qv[i0:i1 + 1]
    e = np.full(m - 1, -1.0 / h**2)
    if problem.bc_left.is_robin:
        d[0] += 2.0 * problem.bc_left.beta / h
        e[0] = -math.sqrt(2.0) / h**2
    if problem.bc_right.is_robin:
        d[-1] += -2.0 * problem.bc_right.beta / h
        e[-1] = -math.sqrt(2.0) / h**2
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        raise RuntimeError("non-finite FD assembly")
    return d, e


def _sturm_count(d: np.ndarray, e: np.ndarray, sigma: float) -> int:
    """Number of eigenvalues of the tridiagonal below sigma (LDL inertia)."""
    count = 0
    t = d[0] - sigma
    if t == 0.0:
        t = -1e-300
    if t < 0.0:
        count += 1
    for i in range(1, d.size):
        t = d[i] - sigma - e[i - 1] ** 2 / t
        if t == 0.0:
            t = -1e-300
        if t < 0.0:
            count += 1
    return count


def solve_fd(problem: SLProblem, grid_n: int, window) -> SpectrumResult:
    """Windowed FD spectrum on meshes grid_n and 2 grid_n, extrapolated.

    Selection happens on the finer mesh (half-open window (lo, hi]); the
    coarse mesh supplies the matching global-index eigenvalues for the
    Richardson combination (4 l_2n - l_n)/3 and the error |l_2n - l_n|/3.
    """
    if grid_n < 16:
        raise ValueError("grid_n must be at least 16")
    if grid_n > MAX_FD_GRID_N:
        raise ValueError(f"grid_n={grid_n} exceeds the limit of {MAX_FD_GRID_N}")
    lo, hi = _check_window(window)
    probe = problem.q_values(np.linspace(problem.m0, problem.m1, 4 * grid_n + 1))
    if not np.all(np.isfinite(probe)):
        raise ValueError("potential is not bounded on the interval")

    d1, e1 = _fd_arrays(problem, grid_n)
    d2, e2 = _fd_arrays(problem, 2 * grid_n)
    lam2 = eigvalsh_tridiagonal(d2, e2, select="v", select_range=(lo, hi))
    if lam2.size == 0:
        return SpectrumResult((), (), "FD", 2 * grid_n)
    k0 = _sturm_count(d2, e2, np.nextafter(lo, math.inf))
    k1 = k0 + lam2.size - 1
    if k1 >= d1.size:
        raise RuntimeError(
            "window reaches eigenvalue indices beyond the coarse mesh; "
            "increase grid_n")
    lam1 = eigvalsh_tridiagonal(d1, e1, select="i", select_range=(k0, k1))
    extrap = (4.0 * lam2 - lam1) / 3.0
    err = np.abs(lam2 - lam1) / 3.0
    order = np.argsort(extrap)
    ev = [float(extrap[i]) for i in order]
    er = [max(float(err[i]), _err_floor(ev[j])) for j, i in enumerate(order)]
    return SpectrumResult(tuple(ev), tuple(er), "FD", 2 * grid_n)


# ---------------------------------------------------------------------------
# Pruefer shooting


def _theta_start(problem: SLProblem) -> float:
    bc = problem.bc_left
    return 0.0 if not bc.is_robin else math.atan2(1.0, bc.beta)


def _theta_target(problem: SLProblem) -> float:
    bc = problem.bc_right
    return math.pi if not bc.is_robin else math.atan2(1.0, bc.beta)


# Cell maps.  A run of cells acts on the phase as a node (M, det, L): M is
# the run's exact 2x2 transfer on (a, a'), up to a positive factor, det is
# the determinant of that M, and L is the lifted phase the run returns for
# entry phase 0.  The lift of an exact linear flow is increasing and
# commutes with +pi, so L fixes it at every entry phase (see _apply), and
# composing two nodes is one matrix product plus one application.


def _cell_nodes(c, h: float):
    """(M, det, L) of the cells of width h with lambda - q frozen at c; M has
    shape (2, 2, len(c)).

    For c > 0 (oscillatory) M is [[cos x, sin x/om], [-om sin x, cos x]]
    with x = om h and det 1, and L is within pi/2 of the modified phase x,
    which fixes its lift.  For c < 0 (forbidden) the cosh/sinh transfer is
    scaled by exp(-x); its det is exp(-2x), and expm1 keeps 1 - exp(-2x)
    accurate when x is tiny.  For c = 0 both reduce to the shear
    [[1, h], [0, 1]].
    """
    om = np.sqrt(np.abs(c))
    x = om * h
    osc = c > 0.0
    em = -np.expm1(-2.0 * x)                         # 1 - exp(-2x)
    diag = np.where(osc, np.cos(x), 1.0 - 0.5 * em)
    s = np.where(osc, np.sin(x), 0.5 * em)           # sin x, or exp(-x) sinh x
    upper = np.divide(s, om, out=np.full_like(x, h), where=om > 0.0)
    L = np.arctan2(upper, diag)
    L = np.where(osc, L + 2.0 * math.pi * np.round((x - L) / (2.0 * math.pi)), L)
    M = np.array([[diag, upper], [np.where(osc, -om, om) * s, diag]])
    return M, np.exp(np.where(osc, 0.0, -2.0 * x)), L


def _apply(M, det, L, x):
    """Phase out of the node(s) (M, det, L) entered at phase x.

    With x = k pi + t, t in [0, pi], the exit phase is L + k pi + d, where d
    in [0, pi] is the angle from u = M (0, 1) to w = M (sin t, cos t).
    Vector angles, not line angles, keep the steps of stiff cells.  The
    cross product of u and w is det sin t: from det it keeps its sign and
    its relative accuracy where M is nearly of rank one and w is small.
    """
    k = np.floor(x / math.pi)
    # rounding can put t a few ulps outside [0, pi]: below 0 it only moves
    # d by as much, but past pi it would turn d into -pi
    t = np.minimum(x - k * math.pi, math.pi)
    st, ct = np.sin(t), np.cos(t)
    wa = M[0, 0] * st + M[0, 1] * ct
    wb = M[1, 0] * st + M[1, 1] * ct
    d = np.arctan2(det * st, M[0, 1] * wa + M[1, 1] * wb)
    return L + k * math.pi + d


def _reduce(M, det, L):
    """The one node of a run of nodes, composed pairwise: O(len(L)) work."""
    while L.size > 1:
        m = L.size - L.size % 2
        A, B = M[:, :, 0:m:2], M[:, :, 1:m:2]
        P = B[:, :1] * A[:1] + B[:, 1:] * A[1:]
        # a power of two per product puts its largest entry in [1/2, 1), so
        # nothing overflows and nothing is rounded
        e = np.frexp(np.abs(P).max(axis=(0, 1)))[1]
        P = np.ldexp(P, -e)
        # det becomes the determinant of the rounded P wherever that loses
        # at most three bits to cancellation: a mesh of identical cells
        # would otherwise pile up the same rounding of M against an exact det
        own = P[0, 0] * P[1, 1] - P[0, 1] * P[1, 0]
        dP = np.where(own >= 0.125, own,
                      np.ldexp(det[0:m:2] * det[1:m:2], -2 * e))
        LP = _apply(B, det[1:m:2], L[1:m:2], L[0:m:2])
        if m < L.size:
            P = np.concatenate([P, M[:, :, m:]], axis=2)
            dP, LP = np.append(dP, det[m]), np.append(LP, L[m])
        M, det, L = P, dP, LP
    return M[:, :, 0], det[0], L[0]


# cells per chunk: the cell maps of a chunk are reduced to one node that
# then advances the phase, so a long mesh never holds full-length
# temporaries next to its cached midpoint samples
_CHUNK = 16384


def _advance(theta: float, qbar_cells, lam: float, h: float) -> float:
    """Phase after the cells of width h whose frozen q values are qbar_cells,
    entered at phase theta: a pairwise reduction of the exact cell maps."""
    for start in range(0, len(qbar_cells), _CHUNK):
        node = _reduce(*_cell_nodes(lam - qbar_cells[start:start + _CHUNK], h))
        theta = float(_apply(*node, theta))
    return theta


def _phase_engine(problem: SLProblem):
    """(phase, node) of one solve.

    phase(lam, n, k) runs from m0 across the first k of n cells and adds the
    turn of the mirrored problem a(m0 + m1 - u), run from m1 across the
    other n - k.  Mirroring flips the sign of a', so that run starts at
    atan2(1, -beta_right), or 0 for Dirichlet: pi - theta_target.  So for
    every k the phase increases with lam, eigenvalue j sits at
    theta_target + j pi, and at k = n it is the right-end phase.  node(n) is
    the node left of the lowest of the _N_START coarse cells, at the same u
    on every doubled mesh; both runs head into the well there, so the phase
    has no staircase where q is stiff.  A lowest last cell gives n, as a
    lowest first cell gives 0: a run of n/64 cells would cost a second
    reduction per evaluation.  Each mesh samples q once, and phase
    remembers every value it has returned.
    """
    theta0 = _theta_start(problem)
    bc = problem.bc_right
    mirror0 = math.atan2(1.0, -bc.beta) if bc.is_robin else 0.0
    meshes: dict[int, tuple] = {}
    memo: dict[tuple, float] = {}

    def mesh(n: int):
        """(qbar, h): midpoint samples and cell width."""
        if n not in meshes:
            h = problem.length / n
            qbar = problem.q_values(problem.m0 + h * (np.arange(n) + 0.5))
            if not np.all(np.isfinite(qbar)):
                raise RuntimeError("integrator step failure: potential not finite")
            meshes[n] = (qbar, h)
        return meshes[n]

    def node(n: int) -> int:
        k = int(np.argmin(mesh(_N_START)[0]))
        return (k if k < _N_START - 1 else _N_START) * n // _N_START

    def phase(lam: float, n: int, k: int) -> float:
        if (lam, n, k) not in memo:
            qbar, h = mesh(n)
            # views, not copies: qbar[k:][::-1] runs the mirrored cells
            turn = _advance(mirror0, qbar[k:][::-1], lam, h) - mirror0
            memo[lam, n, k] = _advance(theta0, qbar[:k], lam, h) + turn
        return memo[lam, n, k]

    return phase, node


_PHASE_TOL = 1e-9
_N_START = 64
_N_MAX = 1 << 18


def _converged_mesh(theta_at, probes, tol=_PHASE_TOL) -> int:
    """Smallest n (doubling from 64) with stable phases at all probe lambdas
    on meshes n and 2n; no mesh above _N_MAX is evaluated."""
    n, worst = _N_START, math.inf
    while 2 * n <= _N_MAX:
        worst = 0.0
        for lam in probes:
            t1 = theta_at(lam, n)
            t2 = theta_at(lam, 2 * n)
            worst = max(worst, abs(t2 - t1) / max(1.0, abs(t2)))
        if worst < tol:
            return n
        n *= 2
    raise RuntimeError(
        f"integrator step failure: phase residual {worst:.3e} at n={n} "
        f"still above {tol}")


_SNAP_TOL = 1e-12


def _phase_units(theta: float, target: float) -> float:
    """(theta - target)/pi, snapped to the nearest integer within 1e-12.

    A window bound sitting exactly on an eigenvalue lands within rounding
    of an integer phase count; snapping keeps the half-open semantics
    deterministic there instead of letting the last few ulps decide.
    """
    r = (theta - target) / math.pi
    nearest = round(r)
    if abs(r - nearest) <= _SNAP_TOL * max(1.0, abs(r)):
        return float(nearest)
    return r


def _window_indices(theta_lo, theta_hi, target):
    j_min = math.floor(_phase_units(theta_lo, target)) + 1
    j_max = math.floor(_phase_units(theta_hi, target))
    return list(range(max(0, j_min), j_max + 1))


# Root brackets.  Root j is found on each mesh's phase at the matching
# node; it is first bracketed in [g - w, g + w] around an estimate g, the
# bracket is kept only when the phase at its ends shows the sign change, and
# w grows by _WIDEN up to the whole window otherwise.  Because the phase is
# increasing in lam, any bracket that passes holds the same unique root, so
# a wrong estimate costs phase evaluations, never a different answer.  An
# FD seed with error bar e starts at w = _FD_WIDTH e.  Every w is at least
# _MIN_WIDTH max(1, |g|), about the smallest shift of a root between meshes
# n and 2n at the default phase tolerance.
_FD_WIDTH = 2.0
_MIN_WIDTH = 1e-8
_WIDEN = 4.0


def _fd_guesses(fd_seeds, js) -> dict:
    """{j: (estimate, half-width)} from FD results whose count matches js."""
    if fd_seeds is None or len(fd_seeds.eigenvalues) != len(js):
        return {}
    return {j: (lam, _FD_WIDTH * err) for j, lam, err in
            zip(js, fd_seeds.eigenvalues, fd_seeds.error_estimate)}


def _bracketed_root(f, lo, hi, guess, xtol):
    """Root of the increasing f in [lo, hi], searched near guess=(g, w) first.

    None when f shows no sign change even over the whole of [lo, hi].
    """
    a, b = lo, hi
    if guess is not None:
        g = min(max(guess[0], lo), hi)
        w = max(guess[1], _MIN_WIDTH * max(1.0, abs(g)))
        a, b = max(lo, g - w), min(hi, g + w)
    while not f(a) <= 0.0 <= f(b):
        if a == lo and b == hi:
            return None
        w *= _WIDEN
        a, b = max(lo, g - w), min(hi, g + w)
    return brentq(f, a, b, xtol=xtol, rtol=8.9e-16)


def solve_shooting(problem: SLProblem, window, phase_tol=_PHASE_TOL, *,
                   fd_seeds: SpectrumResult | None = None) -> SpectrumResult:
    """Windowed spectrum by Pruefer phase root finding, mesh-doubled.

    The phase of _phase_engine is strictly increasing in lambda and reaches
    theta_target + j pi at eigenvalue j, at every matching node k.  At the
    right end (k = n) it picks the mesh, and its values at the window ends
    decide exactly which j fall inside; this is what makes the method
    miss-proof.  Each root is then found at the matching node: where q is
    stiff the right-end phase jumps by pi in an exponentially narrow
    interval of lambda, on which a root finder can only bisect.

    Each root is searched in a small bracket first: on the accepted mesh n
    around the matching FD eigenvalue of fd_seeds (used only when its count
    equals the phase count, sized from its error bar), on mesh 2n around the
    mesh-n root.  A bracket is used only when the phase at its ends shows the
    sign change, otherwise it is widened up to the whole window, so the seeds
    can change the cost of a solve but not its result.
    """
    lo, hi = _check_window(window)
    phase_tol = _check_phase_tol(phase_tol)
    phase, node = _phase_engine(problem)
    target = _theta_target(problem)
    n = _converged_mesh(lambda lam, m: phase(lam, m, m), (lo, hi), tol=phase_tol)
    xtol = 1e-13 * max(1.0, abs(hi))

    roots = {}
    index_sets = []
    for mesh in (n, 2 * n):
        th_lo = phase(lo, mesh, mesh)
        th_hi = phase(hi, mesh, mesh)
        js = _window_indices(th_lo, th_hi, target)
        index_sets.append(js)
        if mesh == n:
            guesses = seeds = _fd_guesses(fd_seeds, js)
        else:
            # a mesh-2n root lies near the mesh-n one, and it moves less than
            # the mesh-n root moved away from its FD seed
            guesses = {j: (r[n], abs(r[n] - seeds[j][0]) if j in seeds else 0.0)
                       for j, r in roots.items()}
        for j in js:
            tau = target + j * math.pi
            if th_hi - tau <= 0.0:
                # The window test snapped theta(hi) onto this index, so the
                # eigenvalue coincides with hi to within phase roundoff and
                # there is nothing for the root finder to bracket.
                lam = hi
            else:
                k = node(mesh)
                lam = _bracketed_root(lambda x: phase(x, mesh, k) - tau, lo, hi,
                                      guesses.get(j), xtol)
                if lam is None:
                    raise RuntimeError(
                        f"phase at node {k} shows no sign change for eigenvalue "
                        f"{j} on mesh {mesh} over the window {(lo, hi)}")
            roots.setdefault(j, {})[mesh] = lam
    if index_sets[0] != index_sets[1]:
        raise RuntimeError(
            f"phase-count / root-count mismatch between meshes {n} and {2*n}: "
            f"{index_sets[0]} vs {index_sets[1]}")

    ev, er = [], []
    for j in index_sets[1]:
        l1, l2 = roots[j][n], roots[j][2 * n]
        lam = (4.0 * l2 - l1) / 3.0
        ev.append(lam)
        er.append(max(abs(l2 - l1) / 3.0, _err_floor(lam)))
    return SpectrumResult(tuple(ev), tuple(er), "Shooting", 2 * n)


def count_below(problem: SLProblem, lambda_star: float) -> int:
    """Exact number of eigenvalues strictly below lambda_star.

    Independent of the windowed solvers: the phase at the matching node,
    which next to an eigenvalue settles on far coarser meshes than the
    right-end phase, gives the count ceil((phase - theta_target)/pi),
    stabilized by mesh doubling until two consecutive meshes agree.
    """
    lam = float(lambda_star)
    if not math.isfinite(lam):
        raise ValueError("lambda_star must be finite")
    phase, node = _phase_engine(problem)
    target = _theta_target(problem)
    n = _converged_mesh(lambda x, m: phase(x, m, node(m)), (lam,))

    def count_at(mesh):
        return max(0, math.ceil(_phase_units(phase(lam, mesh, node(mesh)), target)))

    c1, c2 = count_at(n), count_at(2 * n)
    if c1 != c2:
        if 4 * n > _N_MAX:
            raise RuntimeError(
                f"phase-count mismatch: counts {c1}, {c2} on meshes {n} and "
                f"{2*n}, and mesh {4*n} is above the limit of {_N_MAX}")
        c3 = count_at(4 * n)
        if c3 != c2:
            raise RuntimeError(
                f"phase-count mismatch: counts {c1}, {c2}, {c3} over mesh doubling")
        c2 = c3
    return c2


def cross_check(fd: SpectrumResult, sh: SpectrumResult, window) -> SpectrumResult:
    """Accept shooting results only if FD agrees within the error bars.

    Reported eigenvalues come from the shooting method (exact per cell, so
    typically the tighter of the two); the error estimate also absorbs the
    observed cross-method discrepancy.
    """
    if len(fd.eigenvalues) != len(sh.eigenvalues):
        raise RuntimeError(
            f"method disagreement: FD found {len(fd.eigenvalues)} eigenvalues, "
            f"shooting found {len(sh.eigenvalues)} in window {tuple(window)}")
    ev, er = [], []
    for lf, ef, ls, es in zip(fd.eigenvalues, fd.error_estimate,
                              sh.eigenvalues, sh.error_estimate):
        gap = abs(lf - ls)
        if gap > ef + es + 1e-9 * max(1.0, abs(ls)):
            raise RuntimeError(
                f"method disagreement: FD {lf!r} vs shooting {ls!r} "
                f"exceeds combined error {ef + es:.3e}")
        ev.append(ls)
        er.append(max(es, gap))
    return SpectrumResult(tuple(ev), tuple(er), "CrossValidated", fd.grid_n)


def solve_cross_validated(problem: SLProblem, window, grid_n: int = 256,
                          phase_tol: float = _PHASE_TOL) -> SpectrumResult:
    """Run both methods and accept only if they agree within error bars.

    FD runs first and seeds the shooting root brackets; see cross_check.
    """
    phase_tol = _check_phase_tol(phase_tol)
    fd = solve_fd(problem, grid_n, window)
    sh = solve_shooting(problem, window, phase_tol=phase_tol, fd_seeds=fd)
    return cross_check(fd, sh, window)


# ---------------------------------------------------------------------------
# lower-bound form constant and serialization


def attractive_boundary_constant(problem: SLProblem) -> float:
    """C >= 0 with spectrum(problem) >= inf q - C, from the boundary form.

    Integration by parts leaves +beta0 a(m0)^2 - beta1 a(m1)^2 in the
    quadratic form; an end is attractive when its term is negative.  Each
    attractive strength b costs at most b(1/L + 2b) by the trace inequality
    a(end)^2 <= ||a||^2/L + 2||a|| ||a'|| and Young's inequality, spending
    half of ||a'||^2 per end.
    """
    L = problem.length
    C = 0.0
    if problem.bc_left.is_robin:
        b = max(0.0, -problem.bc_left.beta)
        C += b * (1.0 / L + 2.0 * b)
    if problem.bc_right.is_robin:
        b = max(0.0, problem.bc_right.beta)
        C += b * (1.0 / L + 2.0 * b)
    return C


def spectral_floor(problem: SLProblem, inf_q: float | None = None) -> float:
    """inf q - C(beta); pass inf_q when it is known exactly."""
    if inf_q is None:
        inf_q = float(np.min(problem.q_values(
            np.linspace(problem.m0, problem.m1, 4097))))
    return inf_q - attractive_boundary_constant(problem)


def potential_from_json(spec: dict):
    """Potential callable from its JSON description.

    Supported forms:
      {"type": "constant", "value": v}
      {"type": "poly", "coeffs": [c0, c1, ...]}          sum c_k u^k
      {"type": "fourier", "period": L, "a0": v,
       "cos": [...], "sin": [...]}                        harmonics of 2 pi u/L
    """
    kind = check_fields(spec, "potential", required=("type",))["type"]
    if kind == "constant":
        check_fields(spec, "constant potential", {"type", "value"}, ("value",))
        v = check_float(spec["value"], "constant potential value")
        return lambda u: v * np.ones_like(np.asarray(u, dtype=float))
    if kind == "poly":
        check_fields(spec, "poly potential", {"type", "coeffs"}, ("coeffs",))
        coeffs = [check_float(c, "poly coefficient") for c in spec["coeffs"]]
        if not coeffs:
            raise ValueError("poly potential needs at least one coefficient")
        return lambda u: np.polynomial.polynomial.polyval(
            np.asarray(u, dtype=float), coeffs)
    if kind == "fourier":
        check_fields(spec, "fourier potential",
                     {"type", "period", "a0", "cos", "sin"}, ("period",))
        period = check_float(spec["period"], "fourier period")
        if period <= 0:
            raise ValueError("fourier period must be positive")
        a0 = check_float(spec.get("a0", 0.0), "fourier a0")
        cos_c = [check_float(c, "fourier cos coefficient") for c in spec.get("cos", [])]
        sin_c = [check_float(c, "fourier sin coefficient") for c in spec.get("sin", [])]

        def q(u):
            u = np.asarray(u, dtype=float)
            out = a0 * np.ones_like(u)
            for k, c in enumerate(cos_c, start=1):
                out = out + c * np.cos(2.0 * math.pi * k * u / period)
            for k, c in enumerate(sin_c, start=1):
                out = out + c * np.sin(2.0 * math.pi * k * u / period)
            return out

        return q
    raise ValueError(f"unknown potential type {kind!r}")


def _bc_from_json(spec: dict) -> BoundaryCondition:
    kind = check_fields(spec, "boundary condition", required=("kind",))["kind"]
    if kind == "dirichlet":
        check_fields(spec, "dirichlet bc", {"kind"})
        return BoundaryCondition.dirichlet()
    if kind == "robin":
        check_fields(spec, "robin bc", {"kind", "beta"}, ("beta",))
        return BoundaryCondition.robin(check_float(spec["beta"], "robin beta"))
    raise ValueError(f"unknown boundary condition kind {kind!r}")


def _bc_to_json(bc: BoundaryCondition) -> dict:
    if bc.is_robin:
        return {"kind": "robin", "beta": bc.beta}
    return {"kind": "dirichlet"}


_PROBLEM_FIELDS = ("m0", "m1", "q", "bc_left", "bc_right")


def problem_from_json(spec: dict) -> SLProblem:
    check_fields(spec, "problem", _PROBLEM_FIELDS, _PROBLEM_FIELDS)
    return SLProblem(
        q=potential_from_json(spec["q"]),
        m0=check_float(spec["m0"], "problem m0"),
        m1=check_float(spec["m1"], "problem m1"),
        bc_left=_bc_from_json(spec["bc_left"]),
        bc_right=_bc_from_json(spec["bc_right"]),
        q_json=dict(spec["q"]),
    )


def problem_to_json(problem: SLProblem) -> dict:
    if problem.q_json is None:
        raise ValueError("problem was not built from a JSON potential spec")
    return {
        "m0": problem.m0,
        "m1": problem.m1,
        "q": dict(problem.q_json),
        "bc_left": _bc_to_json(problem.bc_left),
        "bc_right": _bc_to_json(problem.bc_right),
    }
