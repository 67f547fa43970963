"""Every name the package and its modules export resolves."""

import importlib
import pkgutil

import pytest

import equinn

MODULES = sorted(m.name for m in pkgutil.iter_modules(equinn.__path__) if not m.name.startswith("_"))


@pytest.mark.parametrize("name", ["equinn"] + [f"equinn.{m}" for m in MODULES])
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_autodiff_exports_the_tape_and_nothing_of_numpy():
    from equinn import autodiff

    assert set(autodiff.__all__) == {
        "Var", "Jet2", "NonFiniteLossError", "loss_gradient", "grad_check",
        "elemental", "linear", "sum_all", "mean_all", "value_of",
    }
