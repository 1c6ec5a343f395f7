"""Every exported name resolves: a deleted function cannot leave its export behind."""

import importlib
import pkgutil

import pytest

import tribvp

MODULES = [tribvp] + [importlib.import_module(f"tribvp.{info.name}")
                      for info in pkgutil.iter_modules(tribvp.__path__)
                      if info.name != "__main__"]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert missing == []
