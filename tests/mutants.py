"""Mutation check of the count, certificate and comparison-ODE paths: tier-1 must fail on each mutant.

Run by hand from the repository root; pytest does not collect this file:

    python3 tests/mutants.py              # every mutant
    python3 tests/mutants.py NAME ...     # the named mutants

For each mutant the tree is copied to a temporary directory, one text
replacement is made in one file under src/, and tier-1 runs there with -x.
A mutant is killed when that run fails.  The checkout itself is never
changed, and no mutant edits a test.  A mutant whose text no longer occurs
exactly once is reported as stale, not run.  A run takes 2-45 s, and the
whole list about 7 minutes on a 2-core machine; the exit code is 1 when
any mutant survives without an argument for its equivalence, or is stale.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SL = "src/tubespec/sturm_liouville.py"
TM = "src/tubespec/torus_modes.py"
TS = "src/tubespec/tube_spectrum.py"
OC = "src/tubespec/ode_compare.py"

# (name, file, old text, new text, why the mutant is equivalent or None)
MUTANTS = [
    ("count_margin_1", SL, "_COUNT_MARGIN = 4.0", "_COUNT_MARGIN = 1.0", None),
    ("settle_without_floor_ceil", SL,
     "change < tol and math.floor(u1) == math.floor(u2)\n"
     "                    and math.ceil(u1) == math.ceil(u2)):",
     "change < tol):", None),
    ("settle_tol_10x", SL, "change < tol and", "change <= 10 * tol and", None),
    ("snap_tol_1e-7", SL, "_SNAP_TOL = 1e-12", "_SNAP_TOL = 1e-7", None),
    ("window_from_floor_lo", SL, "math.floor(u_lo) + 1", "math.floor(u_lo)", None),
    ("cross_check_no_count", SL,
     "if len(fd.eigenvalues) != len(sh.eigenvalues):", "if False:", None),
    ("cross_check_gap_10x", SL,
     "if gap > ef + es + 1e-9 * max(1.0, abs(ls)):",
     "if gap > 10.0 * (ef + es) + 1e-9 * max(1.0, abs(ls)):", None),
    ("cross_check_error_es", SL, "er.append(max(es, gap))", "er.append(es)", None),
    # the one cross-validation recipe: what it keeps, and how it seeds shooting
    ("cross_check_checked_swapped", SL, "checked=(fd, sh))", "checked=(sh, fd))", None),
    ("cross_validated_unseeded", SL, "phase_tol=phase_tol, fd_seeds=fd)",
     "phase_tol=phase_tol, fd_seeds=None)", None),
    # the truncation certificate: the three floor terms of modes_below, each
    # raised past what it may claim, and its check against the cutoff
    ("modes_below_no_rejected_term", TM,
     "min(float(kappa[~below].min(initial=math.inf)),", "min(math.inf,", None),
    ("modes_below_w_gap_next_row", TM,
     "(w_gap / ef0) ** 2,", "((w_gap + 2.0 * math.pi) / ef0) ** 2,", None),
    ("modes_below_rows_past_r_max_plus_2", TM,
     "((r_max + 1) / h0) ** 2)", "((r_max + 2) / h0) ** 2)", None),
    ("modes_below_no_cutoff_check", TM, "if not floor > cutoff:", "if False:",
     "each term clears the cutoff by construction (rejected candidates by the "
     "filter, r_max + 1 > h0 sqrt(cutoff), the first r past a row's band by rho or "
     "2 pi in |w|), so the check guards rounding alone"),
    ("skip_rule_within_1", TS, "if floor > lam_max:", "if floor > lam_max - 1.0:", None),
    ("attractive_left_sign", SL, "b = max(0.0, -problem.bc_left.beta)",
     "b = max(0.0, problem.bc_left.beta)", None),
    ("attractive_right_sign", SL, "b = max(0.0, problem.bc_right.beta)",
     "b = max(0.0, -problem.bc_right.beta)", None),
    ("floor_slack_1e-2", TS, "ev >= floor - 1e-6", "ev >= floor - 1e-2", None),
    # solve_fd's two refusals, and the Richardson step that FD and shooting share
    ("fd_no_window_top_refusal", SL, "if hi >= d1.max():", "if False:", None),
    ("fd_no_index_refusal", SL, "if k1 >= d1.size:", "if False:", None),
    ("richardson_over_30", SL, "np.asarray(coarse, dtype=float)) / 3.0",
     "np.asarray(coarse, dtype=float)) / 30.0", None),
    # compare-ode takes v from its closed form and checks a by step halving
    # alone, so the tests must catch a wrong closed form or a loose gate
    ("closed_form_v_sinh_sign", OC,
     "v = c1 * np.cosh(k * t) + c2 * np.sinh(k * t)",
     "v = c1 * np.cosh(k * t) - c2 * np.sinh(k * t)", None),
    ("closed_form_v_c2_unscaled", OC, "c1, c2 = v0, vp0 / k", "c1, c2 = v0, vp0", None),
    ("halving_gate_1e-2", OC, "err_a > 1e-7 * scale_a", "err_a > 1e-2 * scale_a", None),
    # the step maps: with a constant q every cell has the same map, so only a
    # varying q sees the order of the fine pair or the coarse cells' end sample
    ("fine_pair_order", OC,
     "x00, x01, x10, x11 = (t[1::2] for t in fine)\n"
     "    y00, y01, y10, y11 = (t[::2] for t in fine)",
     "x00, x01, x10, x11 = (t[::2] for t in fine)\n"
     "    y00, y01, y10, y11 = (t[1::2] for t in fine)", None),
    ("coarse_end_sample", OC, "q_mid_coarse, q_node[2::2], h)",
     "q_mid_coarse, q_node[:-1:2], h)", None),
]

TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                ".perfbench_work", "*.egg-info")


def run_mutant(name, path, old, new, timeout=900.0):
    """('killed' | 'survived' | 'stale', seconds, first failing line)."""
    if not path.startswith("src/"):
        raise ValueError(f"mutant {name} edits {path}, outside src/")
    source = (ROOT / path).read_text(encoding="utf-8")
    if source.count(old) != 1:
        return "stale", 0.0, f"{old!r} occurs {source.count(old)} times in {path}"
    with tempfile.TemporaryDirectory(prefix=f"mutant-{name}-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        (tree / path).write_text(source.replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        start = time.perf_counter()
        proc = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=timeout)
        seconds = time.perf_counter() - start
    failed = next((line for line in proc.stdout.splitlines()
                   if line.startswith(("FAILED", "ERROR"))), "")
    return ("killed" if proc.returncode != 0 else "survived"), seconds, failed


def main(argv) -> int:
    chosen = [m for m in MUTANTS if not argv or m[0] in argv]
    unknown = set(argv) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    bad = 0
    for name, path, old, new, equivalent in chosen:
        status, seconds, detail = run_mutant(name, path, old, new)
        if status == "survived" and equivalent:
            status, detail = "equivalent", equivalent
        bad += status in ("survived", "stale")
        print(f"{name:28s} {status:10s} {seconds:6.1f} s  {detail}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
