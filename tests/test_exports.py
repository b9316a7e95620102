"""Package-wide checks: every __all__ name exists, no assert statement in the
source, and every function the benchmark's tracer wraps is still there."""

import ast
import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import tubespec
from tubespec import torus_modes, tube_spectrum

MODULES = ["tubespec"] + [f"tubespec.{m.name}"
                          for m in pkgutil.iter_modules(tubespec.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate __all__ entry"
    assert [n for n in exported if not hasattr(module, n)] == []


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
