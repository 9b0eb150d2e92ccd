"""The package's import surface: the top level keeps the README quick start."""

import importlib
import pkgutil
import types

import pytest

import qcausal

MODULES = sorted(info.name for info in pkgutil.iter_modules(qcausal.__path__))


def test_top_level_names_are_the_quick_start():
    public = {
        name
        for name, value in vars(qcausal).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == {"AlgoConfig", "edge_cc", "edge_dc", "identify", "make_oracle", "pauli_vector"}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"qcausal.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
