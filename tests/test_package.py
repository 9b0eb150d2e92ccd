"""The package's import surface: the top level keeps the README quick start."""

import importlib
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

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


def test_cli_import_leaves_numpy_random_unloaded():
    # numpy.random takes about 8 ms to import: the CLI loads it when a run first seeds, not at start-up
    src = str(Path(qcausal.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, qcausal.cli; print(sorted(name for name in sys.modules if name.startswith('numpy.random')))"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"
