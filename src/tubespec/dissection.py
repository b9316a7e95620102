"""Lower bounds on the N-th positive eigenvalue from a cover of the space.

Given a finite cover {U_0..U_K} with smallest positive exact-section
eigenvalues mu(U_i), overlap eigenvalues mu(U_ij), the partition-of-unity
gradient constant C_rho, and harmonic dimensions of the overlaps, the
N-th positive eigenvalue of the glued space is bounded below by

    mu_N >= 1 / sum_i [ 1/mu(U_i)
                        + 4 sum_{j ~ i} (C_rho/mu(U_ij) + 1)(1/mu(U_i) + 1/mu(U_j)) ]

with N = N1 + N2 + 1, N1 and N2 counting harmonic dimensions of double and
triple overlaps.  The first-order (Dirac) version is the square root of the
same expression fed with squared eigenvalues.

This module is deliberately arithmetic only: eigenvalue inputs come from
elsewhere (discrete complexes, the tube solvers, hand data), which keeps
every bracketed term auditable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .jsonio import check_bool, check_fields, check_float, check_int

__all__ = [
    "CoverSpec",
    "BoundResult",
    "BergerCurve",
    "compute_N",
    "laplacian_bound",
    "dirac_bound",
    "berger_scaling",
    "c_rho_from_partition",
    "cover_from_json",
    "cover_to_json",
]


def _pair_key(i: int, j: int) -> tuple:
    if i == j:
        raise ValueError(f"pair indices must differ, got ({i}, {j})")
    return (i, j) if i < j else (j, i)


def _triple_key(i: int, j: int, k: int) -> tuple:
    t = tuple(sorted((i, j, k)))
    if len(set(t)) != 3:
        raise ValueError(f"triple indices must be distinct, got ({i}, {j}, {k})")
    return t


@dataclass(frozen=True)
class CoverSpec:
    """Cover data; pair/triple dicts are keyed by sorted index tuples."""

    mu_set: tuple
    adjacency: tuple
    mu_pair: dict
    C_rho: float
    h_pair: dict = field(default_factory=dict)
    h_triple: dict = field(default_factory=dict)

    def __post_init__(self):
        mu_set = tuple(check_float(m, "mu_set entry") for m in self.mu_set)
        if not mu_set:
            raise ValueError("cover needs at least one set")
        if any(not m > 0 for m in mu_set):
            raise ValueError("every mu(U_i) must be positive and finite")
        K = len(mu_set) - 1

        adjacency = tuple(tuple(check_int(j, "adjacency index") for j in row)
                          for row in self.adjacency)
        if len(adjacency) != len(mu_set):
            raise ValueError("adjacency must have one row per set")
        for i, row in enumerate(adjacency):
            if len(set(row)) != len(row):
                raise ValueError(f"adjacency row {i} has duplicates")
            for j in row:
                if not 0 <= j <= K:
                    raise ValueError(f"adjacency index {j} out of range")
                if j == i:
                    raise ValueError(f"set {i} listed adjacent to itself")
                if i not in adjacency[j]:
                    raise ValueError(f"adjacency not symmetric at ({i}, {j})")

        mu_pair = {_pair_key(*k): check_float(v, f"mu_pair {k}")
                   for k, v in self.mu_pair.items()}
        for key, v in mu_pair.items():
            if not v > 0:
                raise ValueError(f"mu(U_{key}) must be positive and finite")
        pairs = {(i, j) for i, row in enumerate(adjacency) for j in row if i < j}
        missing = pairs - set(mu_pair)
        if missing:
            raise ValueError(f"adjacent pairs without mu_pair entry: {sorted(missing)}")

        h_pair = {_pair_key(*k): check_int(v, f"h_pair {k}")
                  for k, v in self.h_pair.items()}
        for key, v in h_pair.items():
            if key not in pairs:
                raise ValueError(f"h_pair key {key} is not an adjacent pair")
            if v < 0:
                raise ValueError("harmonic dimensions must be >= 0")
        h_triple = {_triple_key(*k): check_int(v, f"h_triple {k}")
                    for k, v in self.h_triple.items()}
        for key, v in h_triple.items():
            if v < 0:
                raise ValueError("harmonic dimensions must be >= 0")
            for a, b in ((key[0], key[1]), (key[0], key[2]), (key[1], key[2])):
                if (a, b) not in pairs:
                    raise ValueError(
                        f"h_triple key {key} needs pairwise overlaps; ({a}, {b}) missing")

        C = check_float(self.C_rho, "C_rho")
        if not C >= 0:
            raise ValueError("C_rho must be finite and >= 0")

        object.__setattr__(self, "mu_set", mu_set)
        object.__setattr__(self, "adjacency", adjacency)
        object.__setattr__(self, "mu_pair", mu_pair)
        object.__setattr__(self, "h_pair", h_pair)
        object.__setattr__(self, "h_triple", h_triple)
        object.__setattr__(self, "C_rho", C)

    def squared(self) -> "CoverSpec":
        """Cover with every eigenvalue input squared (Dirac -> Laplacian form)."""
        return CoverSpec(
            mu_set=tuple(m * m for m in self.mu_set),
            adjacency=self.adjacency,
            mu_pair={k: v * v for k, v in self.mu_pair.items()},
            C_rho=self.C_rho,
            h_pair=dict(self.h_pair),
            h_triple=dict(self.h_triple),
        )


@dataclass(frozen=True)
class BoundResult:
    mu_bound: float
    lambda_bound: float
    N: int
    per_set_terms: tuple

    def __post_init__(self):
        if not self.mu_bound > 0:
            raise ValueError("bound must be positive")
        if self.lambda_bound != math.sqrt(self.mu_bound):
            raise ValueError("lambda_bound must equal sqrt(mu_bound)")

    def to_json(self) -> dict:
        return {
            "mu_bound": self.mu_bound,
            "lambda_bound": self.lambda_bound,
            "N": self.N,
            "per_set_terms": list(self.per_set_terms),
        }


def compute_N(cover: CoverSpec, ordered: bool = False) -> int:
    """N = N1 + N2 + 1 from overlap harmonic dimensions.

    Default convention sums each unordered pair and triple once (one
    harmonic obstruction per overlap).  ordered=True counts ordered index
    tuples instead (x2 on pairs, x6 on triples) for sensitivity reporting.
    """
    n1 = sum(cover.h_pair.values())
    n2 = sum(cover.h_triple.values())
    if ordered:
        n1, n2 = 2 * n1, 6 * n2
    return n1 + n2 + 1


def laplacian_bound(cover: CoverSpec, ordered: bool = False) -> BoundResult:
    """Lower bound for the N-th positive eigenvalue of the Laplacian form."""
    terms = []
    for i, mu_i in enumerate(cover.mu_set):
        term = 1.0 / mu_i
        for j in cover.adjacency[i]:
            mu_ij = cover.mu_pair[_pair_key(i, j)]
            term += 4.0 * (cover.C_rho / mu_ij + 1.0) * (1.0 / mu_i + 1.0 / cover.mu_set[j])
        terms.append(term)
    mu_bound = 1.0 / sum(terms)
    return BoundResult(
        mu_bound=mu_bound,
        lambda_bound=math.sqrt(mu_bound),
        N=compute_N(cover, ordered=ordered),
        per_set_terms=tuple(terms),
    )


def dirac_bound(cover: CoverSpec, ordered: bool = False) -> BoundResult:
    """Lower bound when the cover's eigenvalue inputs are Dirac eigenvalues.

    The inputs lambda(U) are squared into the Laplacian form, so by
    construction dirac lambda_bound == sqrt(laplacian mu_bound of the
    squared cover) exactly.
    """
    return laplacian_bound(cover.squared(), ordered=ordered)


@dataclass(frozen=True)
class BergerCurve:
    a: float
    b: float
    m: int
    epsilon_bound: float
    t_values: tuple
    curve: tuple
    t_star: dict

    def to_json(self) -> dict:
        return {
            "a": self.a, "b": self.b, "m": self.m,
            "epsilon_bound": self.epsilon_bound,
            "t": list(self.t_values),
            "curve": list(self.curve),
            "t_star": {str(k): v for k, v in self.t_star.items()},
        }


def berger_scaling(a: float, b: float, m: int, epsilon_bound: float,
                   t_grid, thresholds=()) -> BergerCurve:
    """epsilon (a + b t)^(2/m): squared-eigenvalue bound after unit-volume rescaling.

    Volume grows linearly in t while the pre-rescaling eigenvalue bound
    stays fixed, so the normalized bound diverges.  t_star maps each
    requested threshold to the smallest grid t whose curve value reaches
    it (None when the grid never gets there).
    """
    a, b, eps = float(a), float(b), float(epsilon_bound)
    if not all(0 < v < math.inf for v in (a, b, eps)):
        raise ValueError("a, b, epsilon_bound must all be positive and finite")
    m = check_int(m, "m")
    if m < 2:
        raise ValueError("dimension m must be at least 2")
    ts = tuple(float(t) for t in t_grid)
    if not ts:
        raise ValueError("t_grid must be non-empty")
    if not all(0 <= t < math.inf for t in ts):
        raise ValueError("t values must be finite and >= 0")
    if any(ts[i] >= ts[i + 1] for i in range(len(ts) - 1)):
        raise ValueError("t_grid must be strictly increasing")
    curve = tuple(eps * (a + b * t) ** (2.0 / m) for t in ts)
    if not all(math.isfinite(c) for c in curve):
        raise ValueError(f"curve overflows the float range on t <= {ts[-1]:.6g}; "
                         "lower t_max, a, b or epsilon_bound")
    t_star = {}
    for lam in thresholds:
        lam = float(lam)
        hit = next((t for t, c in zip(ts, curve) if c >= lam), None)
        t_star[lam] = hit
    return BergerCurve(a=a, b=b, m=m, epsilon_bound=eps,
                       t_values=ts, curve=curve, t_star=t_star)


def c_rho_from_partition(samples, step: float, periodic: bool = False) -> float:
    """C_rho = half the squared max gradient of a sampled partition of unity.

    samples holds one row per cover set, all rows the same length, sampled
    on a uniform grid of the given step; gradients are forward differences
    (wrapping when periodic).  Rows must be nonnegative and sum to 1 at
    every node within 1e-8, which is what makes them a partition of unity.
    """
    periodic = check_bool(periodic, "periodic")
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 2:
        raise ValueError("partition samples must be a 2-D array with >= 2 columns")
    if not (math.isfinite(step) and step > 0):
        raise ValueError("step must be positive and finite")
    if not np.all(np.isfinite(arr)):
        raise ValueError("partition samples must be finite")
    if arr.min() < -1e-12:
        raise ValueError("partition samples must be nonnegative")
    sums = arr.sum(axis=0)
    if np.max(np.abs(sums - 1.0)) > 1e-8:
        raise ValueError("partition rows must sum to 1 at every sample node")
    if periodic:
        diffs = np.roll(arr, -1, axis=1) - arr
    else:
        diffs = arr[:, 1:] - arr[:, :-1]
    return 0.5 * float(np.max(np.abs(diffs)) / step) ** 2


# ---------------------------------------------------------------------------
# JSON schema: { "mu_set": [..], "adjacency": [[..],..], "mu_pair": {"i-j": v},
#                "C_rho": v, "h_pair": {"i-j": d}, "h_triple": {"i-j-k": d} }
# C_rho may instead be a sampled partition of unity,
#   {"step": h, "rho": [[..], ..], "periodic": bool (default false)},
# which cover_from_json reads as c_rho_from_partition(rho, h, periodic).
# cover_to_json writes C_rho as the number.


def _parse_dash_key(key: str, parts: int) -> tuple:
    bits = key.split("-")
    if len(bits) != parts:
        raise ValueError(f"key {key!r} must have {parts} dash-separated indices")
    try:
        return tuple(int(b) for b in bits)
    except ValueError as exc:
        raise ValueError(f"key {key!r} has non-integer indices") from exc


def _dash_keyed(spec: dict, name: str, parts: int) -> dict:
    return {_parse_dash_key(k, parts): v
            for k, v in check_fields(spec.get(name, {}), name).items()}


def _c_rho_from_json(value):
    """C_rho as given, or computed from its partition form."""
    if not isinstance(value, dict):
        return value
    check_fields(value, "C_rho", {"step", "rho", "periodic"}, ("step", "rho"))
    rho = [[check_float(x, "C_rho rho sample") for x in row] for row in value["rho"]]
    return c_rho_from_partition(rho, check_float(value["step"], "C_rho step"),
                                periodic=value.get("periodic", False))


def cover_from_json(spec: dict) -> CoverSpec:
    check_fields(spec, "CoverSpec",
                 {"mu_set", "adjacency", "mu_pair", "C_rho", "h_pair", "h_triple"},
                 ("mu_set", "adjacency", "C_rho"))
    return CoverSpec(
        mu_set=tuple(spec["mu_set"]),
        adjacency=tuple(tuple(row) for row in spec["adjacency"]),
        mu_pair=_dash_keyed(spec, "mu_pair", 2),
        C_rho=_c_rho_from_json(spec["C_rho"]),
        h_pair=_dash_keyed(spec, "h_pair", 2),
        h_triple=_dash_keyed(spec, "h_triple", 3),
    )


def cover_to_json(cover: CoverSpec) -> dict:
    return {
        "mu_set": list(cover.mu_set),
        "adjacency": [list(row) for row in cover.adjacency],
        "mu_pair": {f"{i}-{j}": v for (i, j), v in sorted(cover.mu_pair.items())},
        "C_rho": cover.C_rho,
        "h_pair": {f"{i}-{j}": v for (i, j), v in sorted(cover.h_pair.items())},
        "h_triple": {f"{i}-{j}-{k}": v
                     for (i, j, k), v in sorted(cover.h_triple.items())},
    }
