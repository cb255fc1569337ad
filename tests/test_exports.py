import importlib
import pkgutil

import pytest

import fracsym

MODULES = ["fracsym"] + sorted(f"fracsym.{m.name}" for m in pkgutil.iter_modules(fracsym.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
    exec(f"from {name} import *", {})
