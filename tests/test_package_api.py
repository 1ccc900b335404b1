"""Public API surface: everything advertised in __all__ must import."""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.tensor",
    "repro.nn",
    "repro.optim",
    "repro.data",
    "repro.models",
    "repro.core",
    "repro.baselines",
    "repro.analysis",
    "repro.experiments",
    "repro.utils",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{package}.__all__ lists missing '{name}'"


def test_version():
    import repro

    assert repro.__version__


def test_quickstart_docstring_names_exist():
    """The README/package quickstart imports must stay valid."""
    from repro import EDDEConfig, EDDETrainer, Ensemble, FitResult, ModelFactory
    from repro.data import make_cifar10_like
    from repro.models import ResNetCIFAR

    assert all([EDDEConfig, EDDETrainer, Ensemble, FitResult, ModelFactory,
                make_cifar10_like, ResNetCIFAR])


_IMPORT_ALL_WITHOUT_SCIPY = """
import pkgutil, sys
sys.modules["scipy"] = None      # any `import scipy` now raises ImportError
import repro
names = sorted(m.name for m in pkgutil.walk_packages(repro.__path__, "repro."))
for name in names:
    __import__(name)
print(len(names))
"""


def test_every_module_imports_without_scipy():
    """The package depends on numpy alone: no module may import scipy."""
    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_ALL_WITHOUT_SCIPY],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) > 100
