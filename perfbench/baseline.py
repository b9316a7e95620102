#!/usr/bin/env python3
"""Run every workload over several seeds and record the baseline.

From the repository root:

    python3 perfbench/baseline.py --seeds 10 --out perfbench/baseline.json

Each workload runs `--seeds` times with --trace 0 (seeds 1..N) and once
with --trace 1.  For every end-to-end metric the summary holds the median,
the quartiles and the spread (quartile distance over median), and whether
the spread is within a third of the metric's bound in BENCHMARK.json.  The
machine, library versions, BLAS thread count and the layer predictions are
recorded alongside.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# layer metric -> (end-to-end metric it should move, workloads)
PREDICTIONS = {
    "sturm_liouville.solve_shooting_s": ("solve_s", ["tube_sweep", "sl_solve"]),
    "sturm_liouville.solve_shooting_calls": ("solve_s", ["tube_sweep", "sl_solve"]),
    "sturm_liouville.shooting_mesh_n": ("solve_s", ["tube_sweep", "sl_solve"]),
    "sturm_liouville.solve_fd_s": ("solve_s", ["sl_solve"]),
    "sturm_liouville.solve_fd_calls": ("solve_s", ["sl_solve"]),
    "sturm_liouville.solve_cross_validated_s": ("solve_s", ["sl_solve"]),
    "sturm_liouville.eigenvalues": ("max_rel_err_est", ["sl_solve", "tube_sweep"]),
    "tube_spectrum.tube_absolute_spectrum_s": ("solve_s", ["tube_sweep"]),
    "tube_spectrum.find_r0_s": ("solve_s", ["tube_sweep"]),
    "tube_spectrum.mode_solves": ("solve_s", ["tube_sweep"]),
    "tube_spectrum.useful_solve_ratio": ("solve_s", ["tube_sweep"]),
    "torus_modes.min_offzero_kappa_s": ("solve_s (flat under shooting changes)", ["tube_sweep"]),
    "torus_modes.min_offzero_kappa_calls": ("solve_s (flat under shooting changes)", ["tube_sweep"]),
    "discrete_hodge.exact_positive_spectrum_s": ("solve_s, peak_rss_mb", ["s1_dissect"]),
    "discrete_hodge.build_complex_s": ("solve_s, peak_rss_mb", ["s1_dissect"]),
    "discrete_hodge.harmonic_dimension_s": ("solve_s, peak_rss_mb", ["s1_dissect"]),
    "discrete_hodge.s1_case_study_s": ("solve_s, peak_rss_mb", ["s1_dissect"]),
    "discrete_hodge.dense_bytes": ("peak_rss_mb", ["s1_dissect"]),
    "dissection.laplacian_bound_s": ("solve_s (flat)", ["s1_dissect"]),
    "ode_compare.integrate_pair_s": ("solve_s", ["compare_ode"]),
    "ode_compare.integrate_pair_calls": ("solve_s", ["compare_ode"]),
    "ode_compare.run_suite_s": ("solve_s", ["compare_ode"]),
    "ode_compare.rk4_steps": ("solve_s", ["compare_ode"]),
    "jsonio.write_s": ("solve_s (tiny)", ["tube_sweep", "sl_solve", "s1_dissect", "compare_ode"]),
    "jsonio.bytes_written": ("none: must never change",
                             ["tube_sweep", "sl_solve", "s1_dissect", "compare_ode"]),
}


def run(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
          + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                     if trace == 0), flush=True)
    return result


def summary(values, bound):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("nan")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread,
            "steady": spread <= bound / 3.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bench = json.loads(Path("BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    import numpy
    import scipy
    sys.path.insert(0, str(HERE))
    import run as runner
    doc = {
        "machine": {"platform": platform.platform(), "processor": _cpu_model(),
                    "cores": os.cpu_count()},
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "blas_threads": int(runner.BLAS_THREADS),
        "run_seconds": bench["run_seconds"],
        "predictions": {k: {"moves": m, "workloads": w} for k, (m, w) in PREDICTIONS.items()},
        "workloads": {},
    }
    for name in names:
        runs = [run(bench, name, seed, 0) for seed in range(1, args.seeds + 1)]
        traced = run(bench, name, 1, 1)
        doc["workloads"][name] = {
            "all_correct": all(r["correct"] for r in runs + [traced]),
            "end_to_end": {k: summary([r["metrics"][k]["value"] for r in runs], bounds[k])
                           for k in bounds},
            "per_layer_seed1": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for k, s in doc["workloads"][name]["end_to_end"].items():
            print(f"  {name} {k}: median {s['median']:.6g} spread {s['spread']:.4f} "
                  f"(bound {bounds[k]}) {'steady' if s['steady'] else 'NOT STEADY'}")
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="ascii")
    return 0


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


if __name__ == "__main__":
    sys.exit(main())
