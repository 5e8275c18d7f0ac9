"""The public surface of every biharm module."""

import importlib
import pkgutil

import pytest

import biharm

MODULES = ["biharm"] + [f"biharm.{info.name}"
                        for info in pkgutil.iter_modules(biharm.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert missing == []
