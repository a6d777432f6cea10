"""The package's public surface: every module's ``__all__`` names
something it defines, and the package re-exports only names that its
module lists there."""

import importlib
import inspect
import pkgutil

import combexit

MODULES = [importlib.import_module(f"combexit.{info.name}")
           for info in pkgutil.iter_modules(combexit.__path__)]


def test_every_all_entry_resolves():
    for module in MODULES:
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.__all__ lists {name!r}"


def test_package_reexports_only_listed_names():
    owners = {name: module for module in MODULES for name in module.__all__}
    for name, value in vars(combexit).items():
        if name.startswith("_") or inspect.ismodule(value):
            continue
        assert name in owners, f"combexit.{name} is in no module's __all__"
        assert value is getattr(owners[name], name)
