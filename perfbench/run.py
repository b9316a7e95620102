#!/usr/bin/env python3
"""Benchmark of the tubespec command line: one workload per invocation.

Run from the repository root:

    python3 perfbench/run.py --workload tube_sweep --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): tube_sweep, sl_solve, s1_dissect, compare_ode.
Each iteration runs the workload's CLI calls one after another through
`tubespec.cli.main` in this process; iterations repeat until --seconds have
passed (at least MIN_ITERATIONS).  Every call's output is checked.

--trace 0 prints the end-to-end metrics: solve_s (each call's median time
over the iterations, summed over the calls), setup_s (median import time of
tubespec.cli in fresh interpreters), peak_rss_mb, ok_frac and
max_rel_err_est.  --trace 1 alternates untraced and traced iterations and
prints the per-layer metrics of spans.py plus the tracing overhead.  Times
are at the reference machine speed (see `Speed`), except for the workloads
in workloads.RAW_SECONDS.  The last
line of stdout is one JSON object with keys correct, attempted, failed and
metrics.
"""

import os

# fixed before numpy loads, in this process and in the set-up probes; two
# threads, never more than the machine's cores
BLAS_THREADS = str(min(2, os.cpu_count() or 1))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
MIN_ITERATIONS = 4
MIN_TRACED_PAIRS = 2
SETUP_PROBES = 3
# share of cli.main time the top-level spans must cover; less means a call
# escaped its span (a missed rebinding)
MIN_COVERAGE = 0.95
SETUP_PROBE = ("import time; t = time.perf_counter(); import tubespec.cli; "
               "print(time.perf_counter() - t)")


class Speed:
    """Rescales wall times to a reference machine speed.

    On a shared host the same code runs up to a third slower for stretches
    of seconds to minutes, so raw times of runs minutes apart do not
    compare.  A calibration kernel (a pure-Python math loop that shares no
    code with tubespec) is timed between consecutive timed steps, and each
    step's time is multiplied by KERNEL_REF_S over the mean kernel time
    just before and just after it: times read as if the kernel took 6 ms,
    about its time on an idle 2-core Xeon virtual machine.  A change to
    tubespec cannot move the kernel, so a slower program still reads slower.
    """

    KERNEL_REF_S = 0.006

    def __init__(self):
        self._last = None
        self._before = None

    @staticmethod
    def _kernel() -> float:
        """Median of five timings of the kernel, about 50 ms in all."""
        times = []
        for _ in range(5):
            start = time.perf_counter()
            x = 0.0
            for i in range(1, 40000):
                x += math.atan2(math.sin(i * 1e-3), math.sqrt(i))
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def begin(self) -> None:
        """Call just before a timed step."""
        if self._last is None:
            self._last = self._kernel()
        self._before = self._last

    def end(self) -> float:
        """Call just after the step; returns its factor to reference speed."""
        self._last = self._kernel()
        return 2.0 * self.KERNEL_REF_S / (self._before + self._last)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_seconds(root: Path, speed: Speed) -> float:
    """Median import time of tubespec.cli over fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    times = []
    for _ in range(SETUP_PROBES):
        speed.begin()
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env,
                              cwd=root, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]) * speed.end())
    return statistics.median(times)


class Iterations:
    """Runs the workload's calls and tallies outcomes across iterations."""

    def __init__(self, calls, main, speed):
        self.calls = calls
        self.main = main
        self.speed = speed  # None: report raw seconds
        self.attempted = 0
        self.failed = 0
        self.rel_errors = []

    def run(self, tracer=None) -> list:
        """One iteration; (reference-speed, raw) seconds of each cli.main call."""
        times = []
        for call in self.calls:
            self.attempted += 1
            shutil.rmtree(call.out, ignore_errors=True)  # no stale output passes a check
            if self.speed:
                self.speed.begin()
            start = time.perf_counter()
            try:
                try:
                    code = (self.main(call.argv) if tracer is None
                            else tracer.call(call.argv, self.main))
                finally:
                    raw = time.perf_counter() - start
                    times.append((raw * self.speed.end() if self.speed else raw, raw))
                self.rel_errors += call.check(code, call.out)
            except Exception:  # a crash or a wrong output fails this call only
                self.failed += 1
                traceback.print_exc()
        return times


def solve_seconds(iterations: list) -> float:
    """Sum over calls of each call's median reference-speed time."""
    return sum(statistics.median(t[0] for t in call) for call in zip(*iterations))


def show(label: str, iterations: list) -> None:
    for j, call in enumerate(zip(*iterations)):
        print(f"{label} call {j}: raw s " + " ".join(f"{raw:.3f}" for _, raw in call)
              + "  speed factor " + " ".join(f"{ref / raw:.3f}" for ref, raw in call))


def end_to_end(it: Iterations, root: Path, seconds: float, rel_err_floor: float):
    times = []
    start = time.perf_counter()
    while len(times) < MIN_ITERATIONS or time.perf_counter() - start < seconds:
        times.append(it.run())
    show("untraced", times)
    metrics = {
        "solve_s": solve_seconds(times),
        "setup_s": setup_seconds(root, Speed()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - it.failed / it.attempted,
        "max_rel_err_est": max([rel_err_floor] + it.rel_errors),
    }
    return metrics, []


def traced_run(it: Iterations, spans_mod, layers: list, dumps: list) -> list:
    tracer = spans_mod.Tracer()
    tracer.install()
    try:
        times = it.run(tracer)
    finally:
        tracer.remove()
    # span times at the iteration's mean speed factor, like its solve time
    factor = sum(ref for ref, _ in times) / sum(raw for _, raw in times)
    layers.append({key: value * factor if key.endswith("_s") else value
                   for key, value in spans_mod.layer_metrics(tracer.spans).items()})
    dumps.append(tracer.to_json())
    return times


def per_layer(it: Iterations, seconds: float, spans_mod, spans_path: Path):
    untraced, traced, layers, dumps = [], [], [], []
    start = time.perf_counter()
    while (len(traced) < MIN_TRACED_PAIRS
           or time.perf_counter() - start < seconds):
        # pairs alternate their order, so a slow first iteration or a drift
        # in machine speed does not land on one side
        if len(traced) % 2:
            traced.append(traced_run(it, spans_mod, layers, dumps))
            untraced.append(it.run())
        else:
            untraced.append(it.run())
            traced.append(traced_run(it, spans_mod, layers, dumps))
    spans_path.write_text(json.dumps(dumps), encoding="ascii")
    show("untraced", untraced)
    show("traced", traced)

    problems = []
    for key in spans_mod.COUNTERS:
        values = {layer[key] for layer in layers}
        if len(values) != 1:
            problems.append(f"counter {key} differs across iterations: {sorted(values)}")
    # counters repeat exactly (checked above), so any iteration's value will do
    metrics = {key: value if key in spans_mod.COUNTERS
               else statistics.median(layer[key] for layer in layers)
               for key, value in layers[0].items()}
    coverage = min(layer["trace.top_span_coverage"] for layer in layers)
    metrics["trace.top_span_coverage"] = coverage
    if coverage < MIN_COVERAGE:
        problems.append(f"top-level spans cover only {coverage:.3f} of cli.main time")
    metrics["trace.overhead_s"] = solve_seconds(traced) - solve_seconds(untraced)
    return metrics, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "tubespec" / "cli.py").is_file():
        print(f"no tubespec sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(HERE))
    import spans as spans_mod
    import workloads
    import tubespec.cli

    if args.workload not in workloads.NAMES:
        print(f"unknown workload {args.workload!r}; choose from {workloads.NAMES}",
              file=sys.stderr)
        return 2
    work = root / ".perfbench_work"
    workdir = work / f"{args.workload}-{os.getpid()}"
    try:
        reference = json.loads((HERE / "reference.json").read_text(encoding="ascii"))
        calls = workloads.build(args.workload, args.seed, workdir, reference)
        speed = None if args.workload in workloads.RAW_SECONDS else Speed()
        it = Iterations(calls, tubespec.cli.main, speed)
        if args.trace:
            spans_path = work / f"spans-{args.workload}-seed{args.seed}.json"
            metrics, problems = per_layer(it, args.seconds, spans_mod, spans_path)
        else:
            metrics, problems = end_to_end(it, root, args.seconds,
                                           workloads.REL_ERR_FLOOR)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="ascii"))
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json's "
                           f"{sorted(units)}")

    for problem in problems:
        print(f"self-check failed: {problem}", file=sys.stderr)
    for key, value in metrics.items():
        print(f"{key:45s} {value:.6g} {units[key]}")
    print(json.dumps({
        "correct": it.failed == 0 and not problems,
        "attempted": it.attempted,
        "failed": it.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
