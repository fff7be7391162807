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


def test_client_metrics_read_existing_names(monkeypatch):
    """The traced ``remote`` run reads wire names (an ``Opcode`` member among
    them) in ``_client_metrics``; deleting one fails here."""
    monkeypatch.syspath_prepend(ROOT)
    from types import SimpleNamespace

    from lignn.service import wire
    from perfbench import layers

    rpc = SimpleNamespace(latency_s={int(wire.Opcode.NEIGHBORS_BATCH): [0.001]}, rpc_spans=[],
                          rpcs=1, total_bytes=0, retries=0, backoff_s=0.0)
    out = layers._client_metrics([], layers.Counters(neighbors_ext_calls=1), rpc, 1)
    assert out["client.rpcs"] == 1
    assert out["client.adjacency_hit_ratio"] == 1.0


def test_nearline_walk_config_builds(monkeypatch):
    """The ``nearline`` workload builds ``WalkConfig`` with the walk count and
    RNG seed that the exact 2-hop PPR ignores; removing those fields fails
    here before it breaks the benchmark."""
    monkeypatch.syspath_prepend(ROOT)
    from lignn.samplers import WalkConfig
    from perfbench import nearline

    config = WalkConfig(num_walks=nearline.WALKS, top_k=nearline.TOP_K, rng_seed=1)
    assert config.top_k == nearline.TOP_K
