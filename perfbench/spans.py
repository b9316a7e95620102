"""Spans around the public functions of each tubespec module, from outside the package.

`Tracer.install()` wraps every function in `TARGETS` and rebinds each module
global that is bound to the original, so names imported by value (for
example `from .sturm_liouville import solve_shooting` in `cli`) reach the
wrapper as well.  `Tracer.remove()` puts the originals back, so untraced
iterations run the package exactly as shipped.

A span is (name, start, end, parent) kept in memory; its counters are
derived only from the wrapped call's public arguments and return value.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time
from dataclasses import dataclass, field


def _grid_n(result, args, kwargs):
    return {"grid_n": result.grid_n}


def _eigenvalues(result, args, kwargs):
    return {"eigenvalues": len(result.eigenvalues)}


def _dense_bytes(result, args, kwargs):
    # d, delta, T, Q and P are dense dim x dim float64 matrices
    return {"dense_bytes": 5 * result.dim ** 2 * 8}


def _rk4_steps(result, args, kwargs):
    case = args[0] if args else kwargs["case"]
    n = max(16, int(math.ceil((case.m1 - case.m0) / case.step)))
    # a and v, each on the coarse mesh n and the fine mesh 2n
    return {"rk4_steps": 6 * n}


def _bytes_written(result, args, kwargs):
    return {"bytes_written": os.path.getsize(result)}


# (module, function, span name, counter); functions sharing a span name are
# one layer step
TARGETS = (
    ("sturm_liouville", "solve_shooting", "sturm_liouville.solve_shooting", _grid_n),
    ("sturm_liouville", "solve_fd", "sturm_liouville.solve_fd", None),
    ("sturm_liouville", "solve_cross_validated",
     "sturm_liouville.solve_cross_validated", _eigenvalues),
    ("tube_spectrum", "sweep", "tube_spectrum.sweep", None),
    ("tube_spectrum", "find_r0", "tube_spectrum.find_r0", None),
    ("tube_spectrum", "tube_absolute_spectrum",
     "tube_spectrum.tube_absolute_spectrum", None),
    ("torus_modes", "min_offzero_kappa", "torus_modes.min_offzero_kappa", None),
    ("discrete_hodge", "build_circle_complex", "discrete_hodge.build_complex",
     _dense_bytes),
    ("discrete_hodge", "build_interval_complex", "discrete_hodge.build_complex",
     _dense_bytes),
    ("discrete_hodge", "exact_positive_spectrum",
     "discrete_hodge.exact_positive_spectrum", None),
    ("discrete_hodge", "harmonic_dimension", "discrete_hodge.harmonic_dimension", None),
    ("discrete_hodge", "s1_case_study", "discrete_hodge.s1_case_study", None),
    ("dissection", "laplacian_bound", "dissection.laplacian_bound", None),
    ("ode_compare", "integrate_pair", "ode_compare.integrate_pair", _rk4_steps),
    ("ode_compare", "run_suite", "ode_compare.run_suite", None),
    ("jsonio", "write_json", "jsonio.write", _bytes_written),
    ("jsonio", "write_csv", "jsonio.write", _bytes_written),
)

ROOT = "cli.main"


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = math.nan
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while installed; one instance per benchmark run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")

    def call(self, argv, main):
        """Run main(argv) under a root span; returns its exit code."""
        index = self.open(ROOT)
        try:
            return main(argv)
        finally:
            self.close(index)

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if counter is not None:
                self.spans[index].counts = counter(result, args, kwargs)
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every target and rebind each tubespec global that names one."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for module, func, name, counter in TARGETS:
            fn = getattr(importlib.import_module(f"tubespec.{module}"), func)
            wrappers[fn] = self._wrap(fn, name, counter)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "tubespec" and not mod_name.startswith("tubespec."):
                continue
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def remove(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved = []

    def to_json(self) -> list:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "counts": s.counts} for s in self.spans]


def self_times(spans) -> dict:
    """Seconds per span name, each span minus the time its children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    out: dict = {}
    for s, c in zip(spans, child):
        out[s.name] = out.get(s.name, 0.0) + s.duration - c
    return out


def layer_metrics(spans) -> dict:
    """The per-layer metrics of one workload iteration, keyed by metric name."""
    selfs = self_times(spans)
    calls: dict = {}
    counts: dict = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        for key, value in s.counts.items():
            counts[key] = counts.get(key, 0) + value
    mode_solves = [s for s in spans
                   if s.name == "sturm_liouville.solve_cross_validated"
                   and s.parent >= 0
                   and spans[s.parent].name == "tube_spectrum.tube_absolute_spectrum"]
    useful = sum(1 for s in mode_solves if s.counts.get("eigenvalues", 0) > 0)
    roots = [s for s in spans if s.parent < 0]
    root_total = sum(s.duration for s in roots)
    root_self = selfs.get(ROOT, 0.0)

    def t(name):
        return selfs.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    return {
        "sturm_liouville.solve_shooting_s": t("sturm_liouville.solve_shooting"),
        "sturm_liouville.solve_shooting_calls": n("sturm_liouville.solve_shooting"),
        "sturm_liouville.shooting_mesh_n": counts.get("grid_n", 0),
        "sturm_liouville.solve_fd_s": t("sturm_liouville.solve_fd"),
        "sturm_liouville.solve_fd_calls": n("sturm_liouville.solve_fd"),
        "sturm_liouville.solve_cross_validated_s":
            t("sturm_liouville.solve_cross_validated"),
        "sturm_liouville.eigenvalues": counts.get("eigenvalues", 0),
        "tube_spectrum.tube_absolute_spectrum_s":
            t("tube_spectrum.tube_absolute_spectrum"),
        "tube_spectrum.find_r0_s": t("tube_spectrum.find_r0"),
        "tube_spectrum.mode_solves": len(mode_solves),
        "tube_spectrum.useful_solve_ratio":
            useful / len(mode_solves) if mode_solves else 0.0,
        "torus_modes.min_offzero_kappa_s": t("torus_modes.min_offzero_kappa"),
        "torus_modes.min_offzero_kappa_calls": n("torus_modes.min_offzero_kappa"),
        "discrete_hodge.exact_positive_spectrum_s":
            t("discrete_hodge.exact_positive_spectrum"),
        "discrete_hodge.build_complex_s": t("discrete_hodge.build_complex"),
        "discrete_hodge.harmonic_dimension_s": t("discrete_hodge.harmonic_dimension"),
        "discrete_hodge.s1_case_study_s": t("discrete_hodge.s1_case_study"),
        "discrete_hodge.dense_bytes": counts.get("dense_bytes", 0),
        "dissection.laplacian_bound_s": t("dissection.laplacian_bound"),
        "ode_compare.integrate_pair_s": t("ode_compare.integrate_pair"),
        "ode_compare.integrate_pair_calls": n("ode_compare.integrate_pair"),
        "ode_compare.run_suite_s": t("ode_compare.run_suite"),
        "ode_compare.rk4_steps": counts.get("rk4_steps", 0),
        "jsonio.write_s": t("jsonio.write"),
        "jsonio.bytes_written": counts.get("bytes_written", 0),
        "trace.top_span_coverage":
            1.0 - root_self / root_total if root_total > 0 else 0.0,
    }


COUNTERS = tuple(k for k in layer_metrics([]) if not k.endswith("_s")
                 and k != "trace.top_span_coverage")
