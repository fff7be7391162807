"""The traced benchmark (``perfbench/run.py --trace 1``) wraps lignn functions
and methods by name. These checks fail when one of them is deleted or
renamed, without running the benchmark."""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _bindings() -> dict[tuple, int]:
    """Identity of every attribute of the loaded lignn modules and their classes."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "lignn" or name.startswith("lignn.")):
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = id(value)
            if isinstance(value, type):
                for member, v in vars(value).items():
                    out[(name, attr, member)] = id(v)
    return out


def test_instrumentation_installs_and_removes(monkeypatch):
    monkeypatch.syspath_prepend(ROOT)
    from perfbench import layers, spans

    # checked before anything is patched, so a missing name patches nothing
    for name, module, attr in layers.FUNCTIONS:
        assert callable(getattr(module, attr, None)), name
    for name, cls, attr in layers.METHODS:
        assert attr in vars(cls), name
    before = _bindings()
    instrumentation = layers.Instrumentation(spans.Recorder())
    try:
        assert _bindings() != before
    finally:
        instrumentation.remove()
    assert _bindings() == before
