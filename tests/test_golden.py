"""Golden CLI outputs: every JSON/CSV byte and the exit code of each subcommand.

The files under tests/golden/<case>/ were written by the CLI on the configs
below.  A change that means to keep behaviour must reproduce them byte for
byte.  A change that means to alter an output rewrites them with

    PYTHONPATH=src python3 tests/test_golden.py

and the diff of tests/golden/ then shows exactly what changed.
"""

import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from tubespec.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

_X = [i / 10.0 for i in range(11)]

# perfbench's first sl_solve template without jitter, which has a Robin end
FOURIER = {
    "problem": {
        "m0": 0.0, "m1": 2.0,
        "q": {"type": "fourier", "period": 2.0 * math.pi, "a0": 1.897,
              "cos": [0.0, 0.901, -0.342], "sin": [0.024, 0.0, -0.625]},
        "bc_left": {"kind": "dirichlet"},
        "bc_right": {"kind": "robin", "beta": -0.565},
    },
    "window": [0.0, 12.0],
}

# (case directory, subcommand, config or None, exit code)
CASES = [
    ("sl-solve", "sl-solve", {
        "problem": {
            "m0": 0.0, "m1": math.pi,
            "q": {"type": "constant", "value": 0.0},
            "bc_left": {"kind": "dirichlet"},
            "bc_right": {"kind": "dirichlet"},
        },
        "window": [0.0, 30.0],
        "method": "cross",
    }, 0),
    ("sl-solve-fourier", "sl-solve", {**FOURIER, "method": "cross"}, 0),
    # the same problem by each method alone
    ("sl-solve-fourier-fd", "sl-solve", {**FOURIER, "method": "fd"}, 0),
    ("sl-solve-fourier-shooting", "sl-solve", {**FOURIER, "method": "shooting"}, 0),
    ("tube-sweep", "tube-sweep", {"R_grid": [1.2, 10], "lambda_max": 10}, 0),
    ("bound", "bound", {
        "mu_set": [1.0, 1.0],
        "adjacency": [[1], [0]],
        "mu_pair": {"0-1": 1.0},
        "h_pair": {"0-1": 2},
        "C_rho": {"step": 0.1, "rho": [_X, [1.0 - v for v in _X]]},
    }, 0),
    ("s1-dissect", "s1-dissect", None, 0),
    ("compare-ode/A.1", "compare-ode", {"suite": "A.1", "count": 3}, 0),
    ("compare-ode/A.2", "compare-ode", {"suite": "A.2", "count": 3}, 0),
    # the benchmark's sizes at the default seed
    ("compare-ode/A.1-count20", "compare-ode", {"suite": "A.1", "count": 20}, 0),
    ("compare-ode/A.2-count10", "compare-ode", {"suite": "A.2", "count": 10}, 0),
    ("berger-curve", "berger-curve", None, 0),
]


def _run(case, workdir: Path, out: Path) -> int:
    _, sub, config, _ = case
    argv = [sub, "--out", str(out)]
    if config is not None:
        path = workdir / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", str(path)]
    return main(argv)


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_golden_outputs(case, tmp_path):
    out = tmp_path / "out"
    assert _run(case, tmp_path, out) == case[3]
    golden = GOLDEN / case[0]
    expected = sorted(p.name for p in golden.iterdir())
    assert sorted(p.name for p in out.iterdir()) == expected
    for name in expected:
        assert (out / name).read_bytes() == (golden / name).read_bytes(), name


if __name__ == "__main__":
    for case in CASES:
        target = GOLDEN / case[0]
        shutil.rmtree(target, ignore_errors=True)
        with tempfile.TemporaryDirectory() as work:
            code = _run(case, Path(work), target)
        if code != case[3]:
            sys.exit(f"{case[0]}: exit {code}, expected {case[3]}")
