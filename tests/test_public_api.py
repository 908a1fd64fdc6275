"""Every exported name resolves: the package's and each module's ``__all__``."""

import importlib
import pkgutil

import pytest

import symseq

MODULES = [symseq] + [
    importlib.import_module(f"symseq.{info.name}")
    for info in pkgutil.iter_modules(symseq.__path__)
]


@pytest.mark.parametrize("mod", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(mod):
    names = getattr(mod, "__all__", [])
    missing = [name for name in names if not hasattr(mod, name)]
    assert not missing, f"{mod.__name__}.__all__ names missing attributes: {missing}"
    assert len(set(names)) == len(names)
