"""``nearline``: the refresher draining an ordered event backlog.

One consumer in a closed loop applies events one at a time; an operation is
one ``NearlineRefresher.apply``. A group is a replay of one whole stream on
a fresh refresher over the same base graph, so every replay grows its
overlay from empty. The replays take the seeded streams in turn: a run
spreads its events over several short streams rather than one long one, so
neither the few events that hit a popular item in one stream nor a slow
stretch of the machine at the end of one long replay decides its tail.

Each stream's last fifth repeats the interactions of its first fifth. While
the refresher applies that last fifth, a second fresh refresher (the probe)
applies the first fifth again, one event before each twin.
``nearline.late_over_early`` is the median over twins of late time over
early time: the same work at a grown and at an empty overlay, measured
milliseconds apart, so a drift in machine speed over the replay does not
read as growth.
"""

from __future__ import annotations

import time

from lignn import graph as graph_mod
from lignn.model import ModelConfig, init_params
from lignn.samplers import WalkConfig
from lignn.service import nearline as nearline_mod

from . import checks, gen, stats
from .harness import Phase, Workload

SIZES = gen.Sizes(
    members=2000, items=1000, engagements_per_member=3.0, affinity_per_member=1,
    zipf_exponent=0.4, events=600, streams=8,
)
MODEL = ModelConfig(hops=2)
WALKS = 200
TOP_K = 20


class Nearline(Workload):
    name = "nearline"
    tail_pct = 90
    setups = 9

    def generate(self, seed: int) -> None:
        self.seed = seed
        self.inputs = gen.generate(seed, SIZES)
        events = nearline_mod.parse_events(self.inputs.event_rows)
        self.streams = [events[k:k + SIZES.events] for k in range(0, len(events), SIZES.events)]
        self.replays = 0
        self.fifth = SIZES.events // 5
        self.known = {(gen.MEMBER, m) for m in self.inputs.members}
        self.known |= {(gen.ITEM, i) for i in self.inputs.items}
        self.build_s: list[float] = []
        self.reports: list = []

    def setup(self) -> None:
        t0 = time.perf_counter()
        self.graph, _ = graph_mod.build_graph(
            self.inputs.edge_rows, self.inputs.node_rows,
            graph_mod.GraphSchema.parse(self.inputs.schema_text),
        )
        self.build_s.append(time.perf_counter() - t0)
        self.config = MODEL.with_graph(self.graph)
        self.params = init_params(self.config)
        self.walk = WalkConfig(num_walks=WALKS, top_k=TOP_K, rng_seed=self.seed)

    def _refresher(self) -> nearline_mod.NearlineRefresher:
        return nearline_mod.NearlineRefresher(
            self.graph, self.params, self.config, nearline_mod.EmbeddingStore(),
            walk=self.walk,
        )

    def rewind(self) -> None:
        self.replays = 0

    def next_group(self):
        self.events = self.streams[self.replays % len(self.streams)]
        self.replays += 1
        self.refresher, self.probe = self._refresher(), self._refresher()
        apply, probe = self.refresher.apply, self.probe.apply
        ev, f = self.events, self.fifth
        ops = [lambda e=e: apply(e) for e in ev[: len(ev) - f]]
        for early, late in zip(ev[:f], ev[len(ev) - f:]):
            ops += [lambda e=early: probe(e), lambda e=late: apply(e)]
        return ops

    def check_group(self, outputs) -> list[str]:
        dim = self.config.embedding_dim
        self.reports.append(self.refresher.report)
        return checks.check_nearline(
            self.refresher.report, self.refresher.embeddings, self.events, self.known, dim
        ) + checks.check_nearline(
            self.probe.report, self.probe.embeddings, self.events[: self.fifth], self.known, dim
        )

    def _twins(self, group: list[float]) -> tuple[list[float], list[float]]:
        pairs = group[SIZES.events - self.fifth:]
        return pairs[0::2], pairs[1::2]

    def ingest_rates(self) -> list[float]:
        rows = len(self.inputs.edge_rows) + len(self.inputs.node_rows)
        return [rows / s for s in self.build_s]

    def layer_extras(self, untraced: Phase) -> dict[str, float]:
        traced = self.reports[len(untraced.groups):]
        events = len(traced) * SIZES.events
        twins = [self._twins(g) for g in untraced.groups]
        growth = [stats.median([b / a for a, b in zip(e, l)]) for e, l in twins]
        return {
            "nearline.late_over_early": stats.median(growth),
            "nearline.skipped": sum(len(r.skipped) for r in traced) / events,
            "nearline.out_of_order": sum(r.out_of_order for r in traced) / events,
            "nearline.event_ms_first_fifth": 1000 * stats.median([t for e, _ in twins for t in e]),
            "nearline.event_ms_last_fifth": 1000 * stats.median([t for _, l in twins for t in l]),
        }
