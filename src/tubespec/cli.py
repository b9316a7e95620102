"""Experiment runner: every scenario as a subcommand with JSON/CSV outputs.

Subcommands: sl-solve, tube-sweep, bound, s1-dissect, compare-ode,
berger-curve.  Each reads an optional JSON config (--config) with flat
--override key=value pairs applied on top, and returns its report as a
JSON document plus CSV rows; it never touches the filesystem.  main writes
both reports, <command>.json and <command>.csv with '-' turned into '_',
into --out, and creates --out only after the subcommand has returned, so a
run that fails on its input leaves nothing behind.  --seed belongs to
compare-ode alone.  Outputs are canonicalized (sorted keys, 17 significant
digits, '.' decimal) so identical inputs produce byte-identical files.

Exit codes: 0 success, 1 verification failure (a checked inequality or
cross-validation did not hold), 2 input error (missing file, malformed
JSON, schema violation, bad arguments).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

from .dissection import berger_scaling, cover_from_json, cover_to_json, \
    dirac_bound, laplacian_bound
from .discrete_hodge import s1_case_study
from .geometry import DegenerationSchedule, schedule_from_json, schedule_to_json
from .jsonio import check_fields, check_float, check_int, write_csv, write_json
from .ode_compare import SUITES, run_suite
from .sturm_liouville import problem_from_json, problem_to_json, \
    solve_cross_validated, solve_fd, solve_shooting
from .tube_spectrum import SweepOptions, sweep, sweep_csv_rows

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2

TUBE_THRESHOLD_LAMBDA = 1.0
TUBE_THRESHOLD_TOL = 1e-3
# berger-curve builds its t grid as a list; the default grid has 201 points
MAX_T_GRID_POINTS = 100_000


def _load_config(args) -> dict:
    config = {}
    if args.config is not None:
        text = Path(args.config).read_text(encoding="utf-8")
        config = check_fields(json.loads(text), "config file")
    for item in args.override:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ValueError(f"override must look like key=value, got {item!r}")
        try:
            config[key] = json.loads(raw)
        except json.JSONDecodeError:
            config[key] = raw
    return config


def cmd_sl_solve(args, config: dict):
    check_fields(config, "config", {"problem", "window", "method", "grid_n"},
                 ("problem", "window"))
    problem = problem_from_json(config["problem"])
    window = tuple(config["window"])
    method = config.get("method", "cross")
    grid_n = check_int(config.get("grid_n", 256), "grid_n")

    if method == "fd":
        primary = solve_fd(problem, grid_n, window)
        results = {"fd": primary}
    elif method == "shooting":
        primary = solve_shooting(problem, window)
        results = {"shooting": primary}
    elif method == "cross":
        primary = solve_cross_validated(problem, window, grid_n)
        fd, sh = primary.checked
        results = {"fd": fd, "shooting": sh, "cross_validated": primary}
    else:
        raise ValueError(f"method must be fd, shooting, or cross, got {method!r}")
    doc = {
        "problem": problem_to_json(problem),
        "window": list(window),
        "method": method,
        "results": {name: res.to_json() for name, res in results.items()},
    }
    rows = [(i, ev, er) for i, (ev, er) in
            enumerate(zip(primary.eigenvalues, primary.error_estimate))]
    return doc, ("index", "eigenvalue", "error"), rows, EXIT_OK


def _tube_row_pass(row):
    """True/False against the threshold; None when the row never solved."""
    if not row.ok:
        return None
    m = row.min_positive_offzero
    if m is None:
        return True  # empty window: nothing violates the threshold
    return bool(m >= TUBE_THRESHOLD_LAMBDA - TUBE_THRESHOLD_TOL)


def _fields_of(cls, config: dict) -> dict:
    """The entries of config that name fields of the dataclass cls."""
    names = {f.name for f in dataclasses.fields(cls)}
    return {key: value for key, value in config.items() if key in names}


def cmd_tube_sweep(args, config: dict):
    schedule_doc = _fields_of(DegenerationSchedule, config)
    options_doc = _fields_of(SweepOptions, config)
    check_fields(config, "config", {*schedule_doc, *options_doc})
    schedule = schedule_from_json(schedule_doc)
    options = SweepOptions(**options_doc)
    rows = sweep(schedule, options)
    summary_rows = []
    for row in rows:
        summary_rows.append({
            "R": row.R,
            "r0": row.r0,
            "achieved_inf": row.achieved_inf,
            "failure": row.failure,
            "min_positive_offzero": row.min_positive_offzero,
            "n_entries": len(row.spectrum.entries) if row.spectrum else 0,
            "pass": _tube_row_pass(row),
        })
    computed = [r["pass"] for r in summary_rows if r["pass"] is not None]
    all_pass = all(computed) if computed else True
    doc = {
        "schedule": schedule_to_json(schedule),
        "options": dataclasses.asdict(options),
        "threshold_lambda": TUBE_THRESHOLD_LAMBDA,
        "threshold_tolerance": TUBE_THRESHOLD_TOL,
        "rows": summary_rows,
        "all_computed_pass": all_pass,
    }
    header = ("R", "r0", "mode_r", "mode_s", "family", "eigenvalue", "error")
    return (doc, header, sweep_csv_rows(rows),
            EXIT_OK if all_pass else EXIT_VERIFY)


def cmd_bound(args, config: dict):
    cover = cover_from_json(config)
    ordered = bool(args.ordered)
    want_dirac = args.dirac or not args.laplacian
    want_laplacian = args.laplacian or not args.dirac

    doc = {"cover": cover_to_json(cover), "ordered": ordered}
    csv_rows = []
    if want_laplacian:
        res = laplacian_bound(cover, ordered=ordered)
        doc["laplacian"] = res.to_json()
        csv_rows += [("laplacian", i, t) for i, t in enumerate(res.per_set_terms)]
    if want_dirac:
        res = dirac_bound(cover, ordered=ordered)
        doc["dirac"] = res.to_json()
        csv_rows += [("dirac", i, t) for i, t in enumerate(res.per_set_terms)]
    return doc, ("bound", "set_index", "term"), csv_rows, EXIT_OK


def cmd_s1_dissect(args, config: dict):
    check_fields(config, "config", {"n", "overlap_fraction"})
    report = s1_case_study(check_int(config.get("n", 64), "n"),
                           check_float(config.get("overlap_fraction", 0.125),
                                       "overlap_fraction"))
    return (report, ("set_index", "term"),
            list(enumerate(report["per_set_terms"])),
            EXIT_OK if report["valid"] else EXIT_VERIFY)


def cmd_compare_ode(args, config: dict):
    if args.seed is not None:
        config["seed"] = args.seed
    report = run_suite(config)
    header = ("index", "k", "alpha") + SUITES[report["suite"]].columns + ("passed",)
    return (report, header,
            [[c[key] for key in header] for c in report["cases"]],
            EXIT_OK if report["all_passed"] else EXIT_VERIFY)


def cmd_berger_curve(args, config: dict):
    check_fields(config, "config", {"a", "b", "m", "epsilon_bound", "t_max",
                                    "t_step", "thresholds"})
    t_step = check_float(config.get("t_step", 1.0), "t_step")
    t_max = check_float(config.get("t_max", 200.0), "t_max")
    if not (t_step > 0 and t_max >= t_step):
        raise ValueError("need t_step > 0 and t_max >= t_step")
    n = t_max / t_step + 1e-9
    if not n < MAX_T_GRID_POINTS:
        raise ValueError(f"t grid of {n + 1:.6g} points exceeds the limit of "
                         f"{MAX_T_GRID_POINTS}; raise t_step or lower t_max")
    t_grid = [i * t_step for i in range(int(n) + 1)]
    curve = berger_scaling(
        a=check_float(config.get("a", 1.0), "a"),
        b=check_float(config.get("b", 1.0), "b"),
        m=config.get("m", 2),
        epsilon_bound=check_float(config.get("epsilon_bound", 0.1), "epsilon_bound"),
        t_grid=t_grid,
        thresholds=tuple(check_float(lam, "threshold")
                         for lam in config.get("thresholds", (10.0,))),
    )
    return (curve.to_json(), ("t", "curve"),
            list(zip(curve.t_values, curve.curve)), EXIT_OK)


# name -> (handler, help, the options of that subcommand alone).  A handler
# (args, config) returns (JSON document, CSV header, CSV rows, exit code);
# main writes them to <--out>/<name with '-' as '_'>.json and .csv
_COMMANDS = {
    "sl-solve": (cmd_sl_solve,
                 "solve one eigenvalue window from a problem JSON", {}),
    "tube-sweep": (cmd_tube_sweep,
                   "sweep tube spectra over an R grid; summary vs threshold 1",
                   {}),
    "bound": (cmd_bound, "dissection lower bound from a cover JSON", {
        "--dirac": {"action": "store_true",
                    "help": "emit only the first-order bound"},
        "--laplacian": {"action": "store_true",
                        "help": "emit only the second-order bound"},
        "--ordered": {"action": "store_true",
                      "help": "count ordered multi-indices in N"},
    }),
    "s1-dissect": (cmd_s1_dissect,
                   "two-arc circle case study: bound vs full spectrum", {}),
    "compare-ode": (cmd_compare_ode,
                    "seeded comparison-ODE suites (A.1 slopes, A.2 growth)",
                    {"--seed": {"type": int, "help": "seed of the randomized "
                                "suite; wins over --config and --override"}}),
    "berger-curve": (cmd_berger_curve,
                     "normalized squared-eigenvalue scaling curve", {}),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once: each parse fills a fresh
    namespace, and the append of --override copies its default list."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--config", default=None, help="JSON config file")
    common.add_argument("--override", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override a config entry (value parsed as JSON "
                             "when possible, else kept as a string)")

    parser = argparse.ArgumentParser(
        prog="tubespec",
        description="spectral verification experiments: Sturm-Liouville "
                    "windows, tube sweeps, dissection bounds, discrete Hodge "
                    "case study, ODE comparison suites, Berger scaling curve")
    sub = parser.add_subparsers(dest="command")
    for name, (_, help_text, options) in _COMMANDS.items():
        command = sub.add_parser(name, parents=[common], help=help_text)
        for flag, kwargs in options.items():
            command.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(sys.stderr)
        return EXIT_INPUT
    handler = _COMMANDS[args.command][0]
    stem = args.command.replace("-", "_")
    try:
        doc, header, rows, code = handler(args, _load_config(args))
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_json(out / f"{stem}.json", doc)
        write_csv(out / f"{stem}.csv", header, rows)
        return code
    except RuntimeError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (ValueError, KeyError, TypeError, OverflowError, OSError,
            json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
