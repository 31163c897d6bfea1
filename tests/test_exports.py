"""Every module imports and every exported name resolves: a deletion that
leaves a name behind in a module's ``__all__``, or in the package's, fails
here. Modules without an ``__all__`` are only imported."""

import importlib
import pkgutil

import pytest

import semimatch

MODULES = sorted(f"semimatch.{info.name}" for info in pkgutil.iter_modules(semimatch.__path__))


def test_every_module_is_found():
    assert "semimatch.losses" in MODULES and len(MODULES) >= 12


@pytest.mark.parametrize("name", ["semimatch"] + MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names what the module lacks: {missing}"
