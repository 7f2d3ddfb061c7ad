import importlib
import pkgutil

import pytest

import expann

MODULES = ["expann"] + [f"expann.{m.name}" for m in pkgutil.iter_modules(expann.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from expann import *", namespace)
    assert set(expann.__all__) <= namespace.keys()
