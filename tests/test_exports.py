"""Every name a package exports resolves, so ``import *`` cannot break."""

from __future__ import annotations

import importlib

import pytest


@pytest.mark.parametrize("package", ["lignn", "lignn.model", "lignn.service"])
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
