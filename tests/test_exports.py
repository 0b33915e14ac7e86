"""Every name that the package or a submodule lists in __all__ resolves.

Star imports and the benchmark's tracer read these lists by name, so a
deleted helper left in one fails here rather than at the first traced run.
"""

import importlib
import pkgutil

import pytest

import gptrank

MODULES = ["gptrank"] + [f"gptrank.{m.name}" for m in pkgutil.iter_modules(gptrank.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    mod = importlib.import_module(name)
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert missing == []
