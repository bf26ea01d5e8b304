"""Every name a module exports exists: a stale ``__all__`` entry fails
here, not only on ``from ... import *``."""

import importlib
import pkgutil

import pytest

import aste

MODULES = [aste] + [importlib.import_module(f"aste.{info.name}")
                    for info in pkgutil.iter_modules(aste.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names what it does not define: {missing}"
