"""``remote``: two loopback shards behind one client, one caller thread.

Each shard's graph is built from ``shard_edge_lines`` and served in this
process. One caller runs a closed loop over a fixed, seeded request mix, the
way a trainer's sampler waits for each reply. A group is one cycle of the
mix: every cycle holds each kind of request in the same number, in its own
seeded order. With one outstanding request client and server never compete
for the interpreter lock. Sharing one client between threads is a known
defect and is not exercised.

Checks follow the client's documented contracts: fan-out samples equal the
in-process samplers on the unpartitioned graph, and the other requests equal
the local call on the owning shard's graph.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

import numpy as np

from lignn import graph as graph_mod
from lignn.samplers import (
    PPRConfig,
    ppr_forward_push,
    ppr_forward_push_batch,
    sample_random_multihop,
    sample_temporal_last_n,
)
from lignn.service import client as client_mod
from lignn.service import partition, serve, wire

from . import checks, gen, stats
from .harness import Phase, Workload
from .layers import REMOTE_OPS
from .rpc import RpcStats

SIZES = gen.Sizes(
    members=2000, items=1000, engagements_per_member=3.0, affinity_per_member=1,
    zipf_exponent=0.7,
)
SHARDS = 2
# requests of each kind in one cycle of the mix; chosen so that no kind takes
# more than about half of the run time
MIX = {"random_2hop": 30, "ppr_push_client": 3, "ppr_push_batch": 10, "features": 40, "temporal": 40}
FANOUTS = (10, 10)
PUSH = PPRConfig(alpha=0.15, r_max=1e-3, top_k=20)
BATCH_SEEDS_PER_SHARD = 2
TEMPORAL_N = 10
CYCLE = sum(MIX.values())  # requests in one cycle, one group of the harness
CYCLES = 40  # distinct cycles before the mix repeats


class Remote(Workload):
    name = "remote"
    tail_pct = 99
    # client and server threads hand over on one core; across cores every
    # reply waits for an idle core to wake, which made runs up to 3x slower
    one_cpu = True
    setups = 5

    def generate(self, seed: int) -> None:
        self.seed = seed
        self.inputs = inp = gen.generate(seed, SIZES)
        self.schema = graph_mod.GraphSchema.parse(inp.schema_text)
        self.owners = partition.PartitionMap(("127.0.0.1:0",) * SHARDS)
        self.whole, _ = graph_mod.build_graph(inp.edge_rows, inp.node_rows, self.schema)
        self.requests = self._requests(np.random.default_rng(seed))
        self.expected: dict[int, object] = {}
        self.servers: list = []
        self.client = None
        self.build_rates: list[float] = []
        self.pos = 0
        self.rpc: RpcStats | None = None
        self.rpcs_by_kind: dict[str, int] = defaultdict(int)
        self.count_by_kind: dict[str, int] = defaultdict(int)

    def _requests(self, rng: np.random.Generator) -> list[tuple]:
        members = [(gen.MEMBER, m) for m in self.inputs.members]
        items = [(gen.ITEM, i) for i in self.inputs.items]
        nodes = members + items
        by_owner = defaultdict(list)
        for node in nodes:
            by_owner[self.owners.owner(node)].append(node)
        kinds = [k for k, n in MIX.items() for _ in range(n)]
        out = []
        for kind in (k for _ in range(CYCLES) for k in rng.permutation(kinds)):
            if kind == "ppr_push_batch":
                seeds = [
                    by_owner[s][j]
                    for s in range(SHARDS)
                    for j in rng.integers(0, len(by_owner[s]), size=BATCH_SEEDS_PER_SHARD)
                ]
                arg = tuple(seeds[j] for j in rng.permutation(len(seeds)))
            elif kind == "temporal":
                member = members[rng.integers(0, len(members))]
                arg = (member, 1_600_000_000_000 + int(rng.integers(0, 10**8)))
            else:
                arg = nodes[rng.integers(0, len(nodes))]
            out.append((str(kind), arg, int(rng.integers(0, 1 << 31))))
        return out

    # -- set-up ----------------------------------------------------------------

    def setup(self) -> None:
        self.servers = []
        rows, build_s = 0, 0.0
        for shard in range(SHARDS):
            lines = list(partition.shard_edge_lines(self.inputs.edge_rows, self.owners, shard))
            t0 = time.perf_counter()
            graph, _ = graph_mod.build_graph(lines, self.inputs.node_rows, self.schema)
            build_s += time.perf_counter() - t0
            rows += len(lines) + len(self.inputs.node_rows)
            self.servers.append(serve(graph, "127.0.0.1:0", self.owners, shard))
        self.build_rates.append(rows / build_s)
        self.pmap = partition.PartitionMap(tuple(s.address for s in self.servers))
        self.client = client_mod.GraphEngineClient(self.pmap)
        warm = {}
        for i, (kind, _, _) in enumerate(self.requests):
            warm.setdefault(kind, i)
        for i in warm.values():
            self._call(i)

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        for server in self.servers:
            server.stop()
        self.servers, self.client = [], None
        deadline = time.monotonic() + 5.0
        while threading.active_count() > 1 and time.monotonic() < deadline:
            time.sleep(0.01)  # handler threads end once their socket closes

    # -- operations -------------------------------------------------------------

    def rewind(self) -> None:
        self.pos = 0

    def _call(self, i: int):
        kind, arg, rng_seed = self.requests[i]
        client = self.client
        if kind == "random_2hop":
            [hops] = client_mod.fan_out_sample(
                client, [arg], "random", fanouts=FANOUTS, rng_seed=rng_seed
            )
            return tuple(checks.sample_key(h) for h in hops)
        if kind == "ppr_push_client":
            [sample] = client_mod.fan_out_sample(client, [arg], "ppr-push", ppr=PUSH)
            return checks.sample_key(sample)
        if kind == "ppr_push_batch":
            req = wire.PPRPushBatchRequest(
                tuple(wire.WireNode(*s) for s in arg), PUSH.alpha, PUSH.r_max, PUSH.top_k
            )
            return tuple(checks.wire_sample_key(r) for r in client.call(req).results)
        if kind == "features":
            resp = client.call(wire.GetFeaturesRequest(wire.WireNode(*arg)))
            return int(resp.status), resp.values
        node, before = arg
        resp = client.call(
            wire.TemporalLastNRequest(wire.WireNode(*node), gen.ENGAGEMENT, before, TEMPORAL_N)
        )
        return int(resp.status), tuple((e.node.node_type, e.node.node_id, e.timestamp) for e in resp.events)

    def _counted_call(self, i: int):
        before = self.rpc.rpcs
        out = self._call(i)
        kind = self.requests[i][0]
        self.rpcs_by_kind[kind] += self.rpc.rpcs - before
        self.count_by_kind[kind] += 1
        return out

    def next_group(self):
        start = self.pos % len(self.requests)
        self.pos += CYCLE
        self.last = range(start, start + CYCLE)
        call = self._call if self.rpc is None else self._counted_call
        return [lambda i=i: call(i) for i in self.last]

    def check_group(self, outputs) -> list[str]:
        problems = []
        for i, out in zip(self.last, outputs):
            if i not in self.expected:
                self.expected[i] = self._reference(i)
            if out != self.expected[i]:
                problems.append(f"{self.requests[i][0]} answer differs from the local reference")
        return problems

    def _shard_graph(self, node):
        return self.servers[self.owners.owner(node)].graph

    def _reference(self, i: int):
        kind, arg, rng_seed = self.requests[i]
        if kind == "random_2hop":
            [hops] = sample_random_multihop(self.whole, [arg], list(FANOUTS), rng_seed)
            return tuple(checks.sample_key(h) for h in hops)
        if kind == "ppr_push_client":
            return checks.sample_key(ppr_forward_push(self.whole, arg, PUSH))
        if kind == "ppr_push_batch":
            out = {}
            for shard in range(SHARDS):
                mine = [s for s in arg if self.owners.owner(s) == shard]
                for s, sample in zip(mine, ppr_forward_push_batch(self.servers[shard].graph, mine, PUSH)):
                    out[s] = (int(wire.Status.OK), sample.truncated, tuple(
                        (e.node.node_type, e.node.node_id, e.score, min(255, e.hop))
                        for e in sample.entries
                    ))
            return tuple(out[s] for s in arg)
        if kind == "features":
            graph = self._shard_graph(arg)
            vec = graph.features_of(graph.resolve(arg))
            return int(wire.Status.OK), () if vec is None else tuple(float(x) for x in vec)
        node, before = arg
        events = sample_temporal_last_n(self._shard_graph(node), node, gen.ENGAGEMENT, before, TEMPORAL_N)
        return int(wire.Status.OK), tuple((r.node_type, r.node_id, ts) for r, ts in events)

    # -- metrics ----------------------------------------------------------------

    def ingest_rates(self) -> list[float]:
        return self.build_rates

    def instrument(self, inst) -> RpcStats:
        self.rpc = RpcStats(inst.recorder)
        self.client.close()
        self.client = client_mod.GraphEngineClient(
            self.pmap, connector=self.rpc.connector(), sleep=self.rpc.sleep
        )
        for server in self.servers:
            inst.wrap_server(server)
        return self.rpc

    def layer_extras(self, untraced: Phase) -> dict[str, float]:
        by_kind = defaultdict(list)
        for i, d in enumerate(untraced.durations):
            by_kind[self.requests[i % len(self.requests)][0]].append(d)
        out = {}
        for kind in REMOTE_OPS:
            out[f"remote.{kind}.ms_p50"] = 1000 * stats.median(by_kind[kind])
            out[f"remote.{kind}.rpcs_per_request"] = (
                self.rpcs_by_kind[kind] / max(1, self.count_by_kind[kind])
            )
        return out
