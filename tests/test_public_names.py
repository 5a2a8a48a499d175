"""Every name a module exports resolves.

The benchmark's tracer reads each module's ``__all__`` and skips names it
cannot find without a word, so a stale entry would go unnoticed.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import smoothgen

MODULES = [smoothgen] + [
    importlib.import_module(f"smoothgen.{info.name}") for info in pkgutil.iter_modules(smoothgen.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    names = getattr(module, "__all__", ())
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(module, name)] == []
