"""Package-level checks: every module's public name list is importable."""

import importlib
import pkgutil

import pytest

import anytime_iter

MODULES = sorted(m.name for m in pkgutil.iter_modules(anytime_iter.__path__))


def test_modules_are_found():
    assert {"algorithms", "harness", "streams"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a stale __all__ entry otherwise fails only under `import *`
    module = importlib.import_module(f"anytime_iter.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
