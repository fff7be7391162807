"""``offline``: the batch pipeline, one pass per operation.

A pass builds the graph from TSV rows (with a planted share of malformed
rows), densifies it against an external embedding table, and trains one
epoch on the densified graph: hops=2, random sampling, grouped batches, no
prefetch. The work unit is a training record, so ``work_per_s`` is records
per second of the whole pipeline at the stated input size.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from lignn import densify as densify_mod
from lignn import graph as graph_mod
from lignn import training
from lignn.densify import DensifyConfig, ExternalEmbeddingTable
from lignn.model import DecoderKind, ModelConfig
from lignn.pipeline import engine_query_count, parse_records
from lignn.training import split_records
from lignn.training import TrainSettings

from . import checks, gen, stats
from .harness import Phase, Workload

SIZES = gen.Sizes(members=350, items=220, records=240)
DENSIFY = DensifyConfig(k=3, artificial_edge_type=gen.ARTIFICIAL)
MODEL = ModelConfig(hops=2, encoder="dual", decoder=DecoderKind("mlp"))
SETTINGS = TrainSettings(
    epochs=1, lr=0.2, group_size=4, neighbor_count=5, strategy="random",
    val_fraction=0.3,
)
AUC_FLOOR = 0.6
DENSIFY_SAMPLE = 8  # low nodes whose top-k is recomputed with numpy


class Offline(Workload):
    name = "offline"
    tail_pct = 75
    setups = 5
    units_per_op = float(SIZES.records)

    def generate(self, seed: int) -> None:
        self.seed = seed
        self.inputs = gen.generate(seed, SIZES)
        self.stage_s: list[tuple[float, float, float]] = []
        self.first: tuple | None = None

    def setup(self) -> None:
        inp = self.inputs
        self.schema = graph_mod.GraphSchema.parse(inp.schema_text)
        self.table = ExternalEmbeddingTable(gen.EMBED_DIM)
        for row in inp.embedding_rows:
            nt, nid, vec = row.rstrip("\n").split("\t")
            self.table.put(int(nt), int(nid), [float(x) for x in vec.split(",")])
        self.records = parse_records(inp.record_rows)
        self.settings = replace(SETTINGS, rng_seed=self.seed)
        self._pass()  # warm-up: first-call costs are paid before timing
        self.stage_s.clear()

    def _pass(self):
        t0 = time.perf_counter()
        graph, report = graph_mod.build_graph(
            self.inputs.edge_rows, self.inputs.node_rows, self.schema
        )
        t1 = time.perf_counter()
        result = densify_mod.densify(graph, self.table, DENSIFY)
        t2 = time.perf_counter()
        trainer = training.Trainer(result.graph, MODEL, self.settings)
        history = trainer.train(self.records)
        t3 = time.perf_counter()
        self.stage_s.append((t1 - t0, t2 - t1, t3 - t2))
        return graph, report, result, trainer, history

    def next_group(self):
        return [self._pass]

    def check_group(self, outputs) -> list[str]:
        graph, report, result, trainer, history = outputs[0]
        digest = (
            report.rejected_rows,
            [(lo.ext(), hi.ext()) for lo, hi in result.edges],
            [(m.auc, m.train_loss) for m in history],
        )
        if self.first is not None:
            return [] if digest == self.first else ["pass differs from the first pass"]
        problems = []
        if report.rejected_rows != self.inputs.malformed_rows:
            problems.append(
                f"rejected {report.rejected_rows} rows, planted {self.inputs.malformed_rows}"
            )
        rng = np.random.default_rng(self.seed)
        sample = rng.integers(0, 1 << 30, size=DENSIFY_SAMPLE)
        problems += checks.check_densify(graph, self.table, DENSIFY, result, sample)
        problems += checks.check_training(history, trainer.model.store, AUC_FLOOR)
        if not problems:
            self.first = digest
            self.val_auc = history[-1].auc
        return problems

    def ingest_rates(self) -> list[float]:
        rows = len(self.inputs.edge_rows) + len(self.inputs.node_rows)
        return [rows / b for b, _, _ in self.stage_s]

    def layer_extras(self, untraced: Phase) -> dict[str, float]:
        edges = len(self.first[1]) if self.first else 0
        train, _ = split_records(self.records, SETTINGS.val_fraction, self.seed)
        stages = self.stage_s[: untraced.attempted]
        return {
            "densify.edges_per_s": stats.median([edges / d for _, d, _ in stages]),
            "training.records_per_s": stats.median([len(self.records) / t for _, _, t in stages]),
            "model.val_auc": self.val_auc,
            "pipeline.query_reduction": engine_query_count(train, SETTINGS.group_size).reduction,
        }
