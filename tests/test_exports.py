"""Package-wide checks: every __all__ name exists, no assert statement in the source."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import tubespec

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
