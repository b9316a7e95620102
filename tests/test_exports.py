"""Every name that a tubespec module exports through __all__ exists."""

import importlib
import pkgutil

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
