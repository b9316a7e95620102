"""Comparison checks for -a'' + q a = 0 against the constant-coefficient ODE.

Under inf q > k^2 the solution a dominates the solution v of -v'' + k^2 v = 0
started from the same initial data, in three assertable senses:

  * Riccati slopes: a'/a >= v'/v pointwise (PairTrajectories._riccati_check
    of a Robin-start run),
  * the slope a'/a eventually clears k/2 (_slope_check of the same run,
    taken at its right end),
  * Dirichlet data a(m0) = 0, a'(m0) > 0 forces at-least-exponential growth
    a(u) >= a(delta) e^{k(u - delta)/2} past any fixed delta > m0, and in
    particular a never returns to zero (dirichlet_growth).  By linearity
    the start a'(m0) < 0 mirrors it.

All three are checked by direct integration of a: classical fixed-step RK4
run at h and h/2, with the halving disagreement as the acceptance test.  v
is known exactly, so it is taken from its closed form (a cosh/sinh
combination), not integrated; the tests check _rk4 against that form over
the suites' range of k and step.  q maps an array of points to an array, as
SLProblem.q does; integrate_pair samples it with three calls (the fine
nodes, the fine midpoints and the coarse midpoints) before the two RK4 runs
start, and the coarse run shares the fine run's even nodes.  The seeded
suites at the bottom draw randomized valid cases; SUITES describes each in
one Suite row (A.1: the Riccati and asymptotic slopes of one Robin-start run
on [0, 10/k]; A.2: the Dirichlet growth on [0, 8/k]), and run_suite runs one
for the command line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .jsonio import check_fields, check_int
from .sturm_liouville import MIN_INTERVAL, sample_potential

__all__ = [
    "ComparisonCase",
    "PairTrajectories",
    "integrate_pair",
    "dirichlet_growth",
    "SUITES",
    "run_suite",
]

MODES = ("RobinStart", "DirichletStart")

_INF_SAMPLES = 2049
_DENOM_GUARD = 1e-10
_RICCATI_TOL = 1e-8
_SLOPE_TOL = 1e-6
_GROWTH_TOL = 1e-8
# cases per suite run: each A.1 or A.2 case takes about 3.5 ms (2-core VM),
# so the limit is about 3.5 s of work
MAX_SUITE_COUNT = 1000
# cells of the coarse RK4 mesh, ceil((m1 - m0) / step); the fine run takes
# twice as many.  One integrate_pair at 2^18 cells took 0.5 s and raised the
# peak RSS by 115 MB (2-core VM), both linear in the cells; FD and shooting
# stop at the same size (sturm_liouville.MAX_FD_GRID_N)
MAX_RK4_CELLS = 1 << 18


@dataclass(frozen=True)
class ComparisonCase:
    """One instance of the comparison problem.

    q maps an array of u to an array of the same shape, the contract of
    SLProblem.q, and must satisfy inf q > k^2 on [m0, m1] (checked on a
    dense sample); step must not ask for more than MAX_RK4_CELLS cells;
    alpha is the starting slope coefficient a'(m0) = -alpha for the Robin
    start and must not exceed k.
    """

    q: Callable[[np.ndarray], np.ndarray]
    k: float
    alpha: float
    m0: float
    m1: float
    step: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.k) and self.k > 0):
            raise ValueError("k must be positive and finite")
        if not (math.isfinite(self.alpha) and self.alpha <= self.k):
            raise ValueError("alpha must be finite and <= k")
        if not (math.isfinite(self.m0) and math.isfinite(self.m1)):
            raise ValueError("interval endpoints must be finite")
        if not (self.m1 - self.m0 >= MIN_INTERVAL):
            raise ValueError(f"need m1 - m0 >= {MIN_INTERVAL}")
        if not (0 < self.step <= self.m1 - self.m0):
            raise ValueError("step must lie in (0, m1 - m0]")
        # ceil(x) > MAX_RK4_CELLS exactly when x > MAX_RK4_CELLS, and x may
        # overflow to inf for a subnormal step
        cells = (self.m1 - self.m0) / self.step
        if cells > MAX_RK4_CELLS:
            shown = math.ceil(cells) if math.isfinite(cells) else cells
            raise ValueError(f"step={self.step} makes {shown} RK4 cells on "
                             f"[{self.m0}, {self.m1}], above the limit of "
                             f"{MAX_RK4_CELLS}")
        qs = sample_potential(self.q, np.linspace(self.m0, self.m1, _INF_SAMPLES))
        floor = float(qs.min()) - self.k**2
        if floor <= 0:
            raise ValueError(f"need inf q > k^2, got inf q - k^2 = {floor}")


def _rk4(c_node, c_mid, y0, h: float, n: int) -> np.ndarray:
    """Fixed-step RK4 for the pair y' = (y', c(u) y) over n cells of width h.

    c_node[i] is c at node i and c_mid[i] at the middle of cell i, so the
    loop calls nothing per step.  Returns y and y' at the n + 1 nodes as the
    two rows of one array.
    """
    hh = 0.5 * h
    a, b = y0
    out_a = [a]
    out_b = [b]
    c0 = c_node[0]
    # k1 = (b, c0 a); 2.0 * x rounds as 2 * x does, without the int operand
    for cm, c1 in zip(c_mid[:n], c_node[1:n + 1]):
        k1b = c0 * a
        k2a, k2b = b + hh * k1b, cm * (a + hh * b)
        k3a, k3b = b + hh * k2b, cm * (a + hh * k2a)
        k4a, k4b = b + h * k3b, c1 * (a + h * k3a)
        a += h * (b + 2.0 * k2a + 2.0 * k3a + k4a) / 6.0
        b += h * (k1b + 2.0 * k2b + 2.0 * k3b + k4b) / 6.0
        out_a.append(a)
        out_b.append(b)
        c0 = c1
    return np.array([out_a, out_b])


@dataclass(frozen=True)
class PairTrajectories:
    """a and v on a shared grid, with the integrator diagnostic of a.

    a comes from RK4 at step h/2 and v from its closed form; a_error is
    the max halving disagreement of a (step h vs h/2).
    """

    mode: str
    u: np.ndarray
    a: np.ndarray
    a_prime: np.ndarray
    v: np.ndarray
    v_prime: np.ndarray
    a_error: float

    def _riccati_check(self) -> dict:
        guard_a = _DENOM_GUARD * max(1.0, float(np.max(np.abs(self.a))))
        guard_v = _DENOM_GUARD * max(1.0, float(np.max(np.abs(self.v))))
        ok = (np.abs(self.a) >= guard_a) & (np.abs(self.v) >= guard_v)
        diffs = self.a_prime[ok] / self.a[ok] - self.v_prime[ok] / self.v[ok]
        margin = float(np.min(diffs)) if diffs.size else math.inf
        return {
            "margin": margin,
            "tolerance": _RICCATI_TOL,
            "passed": bool(margin >= -_RICCATI_TOL),
            "points_checked": int(np.sum(ok)),
            "points_skipped": int(np.sum(~ok)),
        }

    def _slope_check(self, k: float) -> dict:
        a_end, ap_end = float(self.a[-1]), float(self.a_prime[-1])
        if abs(a_end) <= 1e-12 * max(1.0, float(np.max(np.abs(self.a)))):
            raise RuntimeError("a vanishes at the evaluation point; slope undefined")
        slope = ap_end / a_end
        threshold = k / 2.0 - _SLOPE_TOL
        return {
            "slope": slope,
            "threshold": threshold,
            "v_slope_limit": k,
            "passed": bool(slope >= threshold),
        }


def _closed_form_v(case: ComparisonCase, v0: float, vp0: float, u: np.ndarray):
    k = case.k
    t = u - case.m0
    c1, c2 = v0, vp0 / k
    v = c1 * np.cosh(k * t) + c2 * np.sinh(k * t)
    vp = k * (c1 * np.sinh(k * t) + c2 * np.cosh(k * t))
    return v, vp


def integrate_pair(case: ComparisonCase, mode: str) -> PairTrajectories:
    """Integrate a and verify it by step halving; v is its closed form.

    RobinStart: a(m0) = 1, a'(m0) = -alpha.  DirichletStart: a(m0) = 0,
    a'(m0) = 1.  v always gets the same initial data.  Raises RuntimeError
    when halving the step moves a by more than the acceptance tolerance.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if mode == "RobinStart":
        y0 = (1.0, -case.alpha)
    else:
        y0 = (0.0, 1.0)

    n = max(16, int(math.ceil((case.m1 - case.m0) / case.step)))
    h = (case.m1 - case.m0) / n
    h_fine = (case.m1 - case.m0) / (2 * n)
    # h_fine is h / 2 exactly, so fine node 2i is coarse node i bit for bit
    # and q is sampled once per node; only the coarse midpoints are extra.
    # Node j is m0 + j * h_fine, but node 0 is m0 itself: m0 + 0 * h would
    # turn -0.0 into 0.0
    nodes = case.m0 + np.arange(2 * n + 1) * h_fine
    nodes[0] = case.m0
    q_node = sample_potential(case.q, nodes).tolist()
    q_mid = sample_potential(case.q, nodes[:-1] + 0.5 * h_fine).tolist()
    q_mid_coarse = sample_potential(case.q, nodes[:-1:2] + 0.5 * h).tolist()

    coarse_a = _rk4(q_node[::2], q_mid_coarse, y0, h, n)
    # the fine run (step h/2) taken on the coarse grid
    fine_a = _rk4(q_node, q_mid, y0, h_fine, 2 * n)[:, ::2]
    a, ap = fine_a
    u = np.linspace(case.m0, case.m1, n + 1)

    scale_a = max(1.0, float(np.max(np.abs(a))))
    err_a = float(np.max(np.abs(coarse_a - fine_a)))
    if err_a > 1e-7 * scale_a:
        raise RuntimeError(
            f"step instability: halving moved a by {err_a:.3e} (scale {scale_a:.3e}); "
            f"reduce step={case.step}")

    v, vp = _closed_form_v(case, y0[0], y0[1], u)
    return PairTrajectories(mode=mode, u=u, a=a, a_prime=ap, v=v, v_prime=vp,
                            a_error=err_a)


def dirichlet_growth(case: ComparisonCase, delta: float | None = None) -> dict:
    """Exponential lower bound past delta for the Dirichlet start.

    With a(m0) = 0 and a'(m0) = 1, checks a(u) >= a(delta) e^{k(u-delta)/2}
    for u in [delta, m1], that a has no zero in (m0, m1], and that
    a(m1) > 0.  delta defaults to m0 + 1/k; any delta in (m0, m1) is
    accepted.
    """
    if delta is None:
        delta = case.m0 + 1.0 / case.k
    if not case.m0 < delta < case.m1:
        raise ValueError("delta must lie strictly inside (m0, m1)")
    traj = integrate_pair(case, "DirichletStart")
    a = traj.a
    no_zero = bool(np.all(a[1:] > 0.0))
    i0 = int(np.searchsorted(traj.u, delta))
    if i0 >= traj.u.size:
        i0 = traj.u.size - 1
    delta_used = float(traj.u[i0])
    ref = a[i0] * np.exp(case.k * (traj.u[i0:] - delta_used) / 2.0)
    rel = (a[i0:] - ref) / np.maximum(np.abs(a[i0:]), 1e-300)
    margin = float(np.min(rel))
    return {
        "delta_requested": float(delta),
        "delta_used": delta_used,
        "min_relative_margin": margin,
        "tolerance": _GROWTH_TOL,
        "no_zero": no_zero,
        "a_m1": float(a[-1]),
        "a_m1_nonzero": bool(a[-1] != 0.0),
        "passed": bool(margin >= -_GROWTH_TOL and no_zero and a[-1] > 0.0),
    }


# ---------------------------------------------------------------------------
# seeded randomized suites


def _draw_case(rng: np.random.Generator, index: int, horizon_over_k: float) -> tuple:
    """One random valid case: k in [0.5, 3], q = k^2 + positive smooth noise.

    The noise floor amp * (offset - 1) stays >= 0.05 so the strict
    inequality inf q > k^2 has real room.  Case 0 pins alpha to the k edge.
    """
    k = float(rng.uniform(0.5, 3.0))
    amp = float(rng.uniform(0.1, 1.0))
    offset = float(rng.uniform(1.5, 2.5))
    omega = float(rng.uniform(0.5, 3.0))
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    alpha = k if index == 0 else float(k * rng.uniform(-0.5, 1.0))
    ksq = k * k

    def q(u, _a=amp, _o=offset, _w=omega, _p=phase, _k2=ksq):
        return _k2 + _a * (_o + np.sin(_w * u + _p))

    m0, m1 = 0.0, horizon_over_k / k
    case = ComparisonCase(q=q, k=k, alpha=alpha, m0=m0, m1=m1,
                          step=(m1 - m0) / 2048.0)
    params = {"index": index, "k": k, "alpha": alpha, "amp": amp,
              "offset": offset, "omega": omega, "phase": phase,
              "m0": m0, "m1": m1}
    return case, params


def _riccati_and_slope(case: ComparisonCase) -> dict:
    # the case spans [0, 10/k], so the slope at its right end has settled
    traj = integrate_pair(case, "RobinStart")
    ric, slope = traj._riccati_check(), traj._slope_check(case.k)
    return {"riccati_margin": ric["margin"], "slope": slope["slope"],
            "slope_threshold": slope["threshold"],
            "v_slope_limit": slope["v_slope_limit"],
            "passed": ric["passed"] and slope["passed"]}


def _growth(case: ComparisonCase) -> dict:
    rep = dirichlet_growth(case)
    return {"delta": rep["delta_used"],
            "min_relative_margin": rep["min_relative_margin"],
            "no_zero": rep["no_zero"], "a_m1": rep["a_m1"],
            "passed": rep["passed"]}


@dataclass(frozen=True)
class Suite:
    horizon_over_k: float  # case i spans [0, horizon_over_k / k]
    count: int  # the default count
    check: Callable[[ComparisonCase], dict]  # one case's columns and "passed"
    minima: dict  # report key -> function of a case row; the report holds its least
    columns: tuple  # the check columns of a CSV row


SUITES = {
    "A.1": Suite(10.0, 20, _riccati_and_slope,
                 {"worst_riccati_margin": lambda c: c["riccati_margin"],
                  "worst_slope_gap": lambda c: c["slope"] - c["k"] / 2.0},
                 ("riccati_margin", "slope", "slope_threshold")),
    "A.2": Suite(8.0, 10, _growth,
                 {"worst_growth_margin": lambda c: c["min_relative_margin"]},
                 ("delta", "min_relative_margin", "no_zero")),
}


def run_suite(config: dict) -> dict:
    """Run the suite of config {"suite", "seed", "count"}, each optional;
    a missing count is the count of the suite's row."""
    check_fields(config, "suite config", {"suite", "seed", "count"})
    name = config.get("suite", "A.1")
    seed = check_int(config.get("seed", 7), "seed")
    if not (isinstance(name, str) and name in SUITES):
        raise ValueError(f"unknown suite {name!r} "
                         f"(expected {' or '.join(map(repr, SUITES))})")
    suite = SUITES[name]
    count = check_int(config.get("count", suite.count), "count")
    if count < 1:
        raise ValueError("count must be >= 1")
    if count > MAX_SUITE_COUNT:
        raise ValueError(f"count {count} exceeds the limit of {MAX_SUITE_COUNT}")
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        case, params = _draw_case(rng, i, suite.horizon_over_k)
        cases.append({**params, **suite.check(case)})
    # from inf, as a running minimum: a NaN never becomes the minimum
    worst = {key: min([math.inf, *map(f, cases)])
             for key, f in suite.minima.items()}
    return {"suite": name, "seed": seed, "count": count, "cases": cases,
            **worst, "all_passed": all(c["passed"] for c in cases)}
