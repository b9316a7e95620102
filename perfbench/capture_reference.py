#!/usr/bin/env python3
"""Write perfbench/reference.json from the current tree's CLI outputs.

The references were captured at the seed commit; re-run this only at a
commit whose outputs are trusted, from the repository root:

    python3 perfbench/capture_reference.py --sl-seeds 64

tube_sweep and s1_dissect have fixed configs.  sl_solve is stored for seeds
0 .. sl-seeds-1; other seeds are checked against the oracle alone.
"""

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run(cli, workloads, name, seed, workdir):
    """Outputs of one iteration, one entry per call."""
    calls = workloads.build(name, seed, workdir, reference=None)
    outs = []
    for call in calls:
        code = cli.main(call.argv)
        if code != 0:
            raise SystemExit(f"{name} seed {seed}: {call.argv[0]} exited {code}")
        outs.append(call.out)
    return outs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sl-seeds", type=int, default=64)
    args = parser.parse_args(argv)
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(HERE))
    import workloads
    import tubespec.cli as cli

    workdir = root / ".perfbench_work" / "capture"
    try:
        [tube] = run(cli, workloads, "tube_sweep", 0, workdir)
        s1 = run(cli, workloads, "s1_dissect", 0, workdir)
        reference = {
            "tube_sweep": workloads.tube_rows(tube),
            "s1_dissect": {str(n): json.loads((out / "s1_dissect.json").read_text())
                           for n, out in zip(workloads.S1_SIZES, s1)},
            "sl_solve": {},
        }
        for seed in range(args.sl_seeds):
            results = []
            for out in run(cli, workloads, "sl_solve", seed, workdir):
                doc = json.loads((out / "sl_solve.json").read_text())
                res = doc["results"]["cross_validated"]
                results.append({"eigenvalues": res["eigenvalues"],
                                "error_estimate": res["error_estimate"]})
            reference["sl_solve"][str(seed)] = results
            print(f"sl_solve seed {seed} captured", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (HERE / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
