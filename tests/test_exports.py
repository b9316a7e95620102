"""Package-wide checks: every __all__ name exists, every public function is
reached by a subcommand or is a named hook, no assert statement in the
source, and every function the benchmark's tracer wraps is still there."""

import ast
import importlib
import importlib.util
import inspect
import json
import pkgutil
import sys
from pathlib import Path

import pytest

import tubespec
from tubespec import torus_modes, tube_spectrum
from tubespec.cli import main

MODULES = ["tubespec"] + [f"tubespec.{m.name}"
                          for m in pkgutil.iter_modules(tubespec.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate __all__ entry"
    assert [n for n in exported if not hasattr(module, n)] == []


# the public functions that no subcommand reaches yet, each with the ROADMAP
# item that will call it
HOOKS = {
    "tubespec.sturm_liouville.count_below": "items 2, 4 and 9",
    "tubespec.sturm_liouville.spectral_floor": "item 11",
    "tubespec.geometry.DegenerationSchedule.check_member": "item 15",
}


def _public_functions() -> dict:
    """Qualified name -> code of every function in a module's __all__ and of
    every public method of a class there, each under its home module."""
    found = {}
    for name in MODULES:
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", []):
            obj = getattr(module, attr)
            if getattr(obj, "__module__", None) != name:
                continue  # a re-export, checked in its home module
            if inspect.isfunction(obj):
                found[f"{name}.{attr}"] = obj.__code__
            elif inspect.isclass(obj):
                for meth, value in vars(obj).items():
                    # classmethods and staticmethods hold their function
                    value = getattr(value, "__func__", value)
                    if not meth.startswith("_") and inspect.isfunction(value):
                        found[f"{name}.{attr}.{meth}"] = value.__code__
    return found


def test_every_public_function_is_reached_by_a_subcommand_or_is_a_hook(tmp_path):
    # every golden run (sl-solve by fd, by shooting and by cross among them),
    # and bound with each of its flags, under a profiler that records the
    # code of every Python call
    from test_golden import CASES
    runs = []
    for i, (_, sub, config, exit_code) in enumerate(CASES):
        argv = [sub, "--out", str(tmp_path / f"out{i}")]
        if config is not None:
            path = tmp_path / f"config{i}.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            argv += ["--config", str(path)]
        runs.append((argv, exit_code))
        if sub == "bound":
            runs += [(argv + [flag], exit_code)
                     for flag in ("--dirac", "--laplacian", "--ordered")]
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    sys.setprofile(profile)
    try:
        codes = [main(argv) for argv, _ in runs]
    finally:
        sys.setprofile(None)
    assert codes == [exit_code for _, exit_code in runs]
    unreached = {name for name, code in _public_functions().items() if code not in reached}
    assert unreached == set(HOOKS)


def test_no_assert_statements_in_src():
    # python -O strips assert statements, so an invariant must raise instead
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(tubespec.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def _imports(tree, in_function=False):
    """(import node, imported names, whether it runs inside a function)."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Import):
            yield node, [alias.name for alias in node.names], in_function
        elif isinstance(node, ast.ImportFrom):
            yield node, [node.module or ""] + [f"{node.module}.{alias.name}"
                                               for alias in node.names], in_function
        else:
            yield from _imports(node, in_function or isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)))


def test_no_import_of_scipy_optimize_integrate_or_special_in_src():
    # scipy.linalg alone costs a process 0.17 s and 28 MB, so only solve_fd
    # imports it, inside its body: bound, s1-dissect and compare-ode start
    # without scipy.  A module-level import of any scipy package would put
    # that cost back on every start.  scipy.optimize adds 18 MB and 0.19 s
    # on top of scipy.linalg and scipy.integrate 22 MB and 0.26 s;
    # scipy.special, which both load, would be a first step back towards them
    banned = ("scipy.optimize", "scipy.integrate", "scipy.special")
    found = []
    for path in sorted(Path(tubespec.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node, names, in_function in _imports(tree):
            if (any(n == b or n.startswith(b + ".") for n in names for b in banned)
                    or not in_function and any(n.split(".")[0] == "scipy" for n in names)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_benchmark_trace_targets_exist(monkeypatch):
    # perfbench/spans.py wraps these by name and rebinds the module globals
    # bound to them; a refactor that renames or re-imports one breaks traced
    # benchmark runs, so it fails here first
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("_perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    # dataclasses resolve annotations through sys.modules; undone after the test
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    missing = [f"{module}.{func}" for module, func, _, _ in spans.TARGETS
               if not callable(getattr(importlib.import_module(f"tubespec.{module}"),
                                       func, None))]
    assert missing == []
    assert tube_spectrum.min_offzero_kappa is torus_modes.min_offzero_kappa
