"""Command line interface: build | densify | sample | train | serve | refresh.

Benchmarks are not a subcommand: ``python3 perfbench/run.py`` is the one
seeded benchmark (see ``perfbench/README.md``).

A ``--config`` file of key=value lines overrides parsed flags (file wins).
``LIGNN_LOG`` sets the log level.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import time

from .densify import DensifyConfig, ExternalEmbeddingTable, densify
from .graph import GraphSchema, load_graph
from .model import DecoderKind, ModelConfig, ParamStore, TemporalConfig
from .pipeline import AdaptiveState, parse_records
from .samplers import (
    PPRConfig,
    WalkConfig,
    ppr_forward_push_batch,
    ppr_two_hop_random_walk,
    sample_random_multihop,
    sample_temporal_last_n,
    sample_weighted_multihop,
)
from .service import PartitionMap, nearline_refresh, parse_events, serve
from .training import Trainer, TrainSettings

logger = logging.getLogger("lignn")


def _setup_logging() -> None:
    level = os.environ.get("LIGNN_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(asctime)s %(name)s %(levelname)s %(message)s")


def _apply_config_file(args: argparse.Namespace) -> None:
    """key=value rows override flags; types follow the parsed defaults."""
    path = getattr(args, "config", None)
    if not path:
        return
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SystemExit(f"{path}:{lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if not hasattr(args, key):
                raise SystemExit(f"{path}:{lineno}: unknown option {key!r}")
            current = getattr(args, key)
            if isinstance(current, bool):
                setattr(args, key, value.lower() in ("1", "true", "yes", "on"))
            elif isinstance(current, int):
                setattr(args, key, int(value))
            elif isinstance(current, float):
                setattr(args, key, float(value))
            else:
                setattr(args, key, value)


def _add_graph_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--edges", required=True, help="edges.tsv path")
    p.add_argument("--nodes", default=None, help="nodes.tsv path")
    p.add_argument("--schema", required=True, help="schema key=value file")
    p.add_argument("--config", default=None, help="key=value file overriding flags")


def _load(args) -> tuple:
    schema = GraphSchema.load(args.schema)
    t0 = time.perf_counter()
    graph, report = load_graph(args.edges, args.nodes, schema)
    seconds = max(time.perf_counter() - t0, 1e-9)
    logger.info("graph built: %d rows read in %.3f s (%.0f rows/s), %d rejected %s",
                report.rows_read, seconds, report.rows_read / seconds, report.rejected_rows,
                json.dumps(report.rejected_reasons, sort_keys=True))
    return graph, report


def _report_json(report) -> str:
    return json.dumps(
        {
            "node_counts": report.node_counts,
            "edge_counts": report.edge_counts,
            "rejected_rows": report.rejected_rows,
            "rejected_reasons": report.rejected_reasons,
            "duplicates_collapsed": report.duplicates_collapsed,
        },
        sort_keys=True,
    )


# -- subcommands --------------------------------------------------------------------


def cmd_build(args) -> int:
    graph, report = _load(args)
    print(_report_json(report))
    if args.dump_edges:
        graph.dump_edges(args.dump_edges)
        logger.info("edge dump written to %s", args.dump_edges)
    return 0


def cmd_densify(args) -> int:
    graph, _ = _load(args)
    table = ExternalEmbeddingTable.load(args.embeddings)
    cfg = DensifyConfig(
        degree_lower_quantile=args.lower_q,
        degree_upper_quantile=args.upper_q,
        k=args.k,
        artificial_edge_type=args.edge_type,
    )
    result = densify(graph, table, cfg)
    with open(args.out, "w", encoding="utf-8") as fh:
        for row in result.edge_rows():
            fh.write(row + "\n")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            for nt, nid, reason in result.skipped:
                fh.write(json.dumps({"node_type": nt, "node_id": nid, "reason": reason}) + "\n")
    print(
        json.dumps(
            {
                "artificial_edges": len(result.edges),
                "low_threshold": result.low_threshold,
                "high_threshold": result.high_threshold,
                "skipped": len(result.skipped),
            }
        )
    )
    return 0


def _read_seeds(path: str) -> list[tuple[int, int]]:
    seeds = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            if not raw.strip() or raw.lstrip().startswith("#"):
                continue
            t, i = raw.split()[:2]
            seeds.append((int(t), int(i)))
    return seeds


def cmd_sample(args) -> int:
    graph, _ = _load(args)
    seeds = _read_seeds(args.seeds)
    fanouts = [int(x) for x in args.fanout.split(",") if x] if args.fanout else [args.topk]
    rows: list[tuple[tuple[int, int], tuple[int, int], float, int]] = []

    def emit(seed, sample_or_hops):
        hops = sample_or_hops if isinstance(sample_or_hops, list) else [sample_or_hops]
        for hop in hops:
            if hop.error is not None:
                logger.warning("seed %s: %s", seed, hop.error)
                continue
            for e in hop.entries:
                rows.append((seed, e.node.ext(), e.score, e.hop))

    if args.strategy == "random":
        for seed, hops in zip(seeds, sample_random_multihop(graph, seeds, fanouts, args.rng_seed)):
            emit(seed, hops)
    elif args.strategy == "weighted":
        for seed, hops in zip(
            seeds, sample_weighted_multihop(graph, seeds, fanouts, args.rng_seed)
        ):
            emit(seed, hops)
    elif args.strategy == "ppr-push":
        cfg = PPRConfig(alpha=args.alpha, r_max=args.rmax, top_k=args.topk)
        for seed, sample in zip(seeds, ppr_forward_push_batch(graph, seeds, cfg)):
            emit(seed, sample)
    elif args.strategy == "ppr-2hop":
        cfg = WalkConfig(alpha=args.alpha, top_k=args.topk)
        for seed in seeds:
            emit(seed, ppr_two_hop_random_walk(graph, seed, cfg))
    elif args.strategy == "temporal":
        before = math.inf if args.before_ts is None else args.before_ts
        for seed in seeds:
            events = sample_temporal_last_n(graph, seed, args.edge_type, before, args.topk)
            for ref, ts in events:
                rows.append((seed, ref.ext(), float(ts), 1))
    else:
        raise SystemExit(f"unknown strategy {args.strategy}")

    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        for seed, neighbor, score, hop in rows:
            out.write(f"{seed[0]}:{seed[1]}\t{neighbor[0]}:{neighbor[1]}\t{score:.17g}\t{hop}\n")
    finally:
        if args.out:
            out.close()
    return 0


def _model_config(args, graph) -> ModelConfig:
    decoder = {
        "cosine": DecoderKind("cosine"),
        "mlp": DecoderKind("mlp", mlp_hidden=(args.mlp_hidden,)),
        "inbatch": DecoderKind("in_batch_negative", temperature=args.temperature),
    }[args.decoder]
    temporal = None
    if args.temporal:
        temporal = TemporalConfig(
            heads=args.H,
            token_dim=args.d,
            seq_len=args.N,
            future_len=args.future_len,
            mask_mode="prefix_causal" if args.mask == "prefix" else "regular_causal",
            positional_mode={"none": "none", "sin": "sinusoidal", "ts": "timestamp"}[args.pos],
        )
        out_dim = args.H * args.d
    else:
        out_dim = args.out_dim
    return ModelConfig(
        encoder="dual" if args.encoder == "dual" else "single",
        aggregator=args.aggregator.replace("-", "_"),
        decoder=decoder,
        hops=args.hops,
        out_dim=out_dim,
        id_embeddings=args.id_embeddings,
        id_dim=args.id_dim,
        temporal=temporal,
        init_seed=args.rng_seed,
    ).with_graph(graph)


def cmd_train(args) -> int:
    graph, _ = _load(args)
    with open(args.records, encoding="utf-8") as fh:
        records = parse_records(fh)
    config = _model_config(args, graph)
    adaptive = None
    if args.adaptive:
        adaptive = AdaptiveState(
            current_count=args.adaptive_start,
            final_count=args.neighbors,
            stride=args.adaptive_stride,
        )
    settings = TrainSettings(
        epochs=args.epochs,
        lr=args.lr,
        group_size=args.group_size,
        gradient_step=args.gradient_step,
        neighbor_count=args.neighbors,
        strategy=args.strategy,
        rng_seed=args.rng_seed,
        adaptive=adaptive,
        mlp_init_epochs=args.mlp_init_epochs,
        metrics_path=args.metrics,
        activity_edge_type=args.edge_type,
    )
    trainer = Trainer(graph, config, settings)
    history = trainer.train(records)
    for m in history:
        print(m.as_json())
    if args.out:
        trainer.model.store.save(args.out)
        with open(args.out + ".json", "w", encoding="utf-8") as fh:
            fh.write(trainer.config.to_json())
        logger.info("checkpoint written to %s", args.out)
    return 0


def cmd_serve(args) -> int:
    graph, report = _load(args)
    peers = tuple(args.peers.split(",")) if args.peers else (args.bind,)
    pmap = PartitionMap(peers)
    server = serve(graph, args.bind, pmap, args.shard_index)
    print(json.dumps({"address": server.address, "shard": args.shard_index,
                      "nodes": report.total_nodes, "edges": report.total_edges}))
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        server.stop()
    return 0


def cmd_refresh(args) -> int:
    graph, _ = _load(args)
    store = ParamStore.load(args.checkpoint)
    with open(args.checkpoint + ".json", encoding="utf-8") as fh:
        config = ModelConfig.from_json(fh.read())
    with open(args.events, encoding="utf-8") as fh:
        events = parse_events(fh)
    walk = WalkConfig(top_k=args.topk)
    embeddings, _, report = nearline_refresh(
        events, graph, store, config, engagement_edge_type=args.edge_type, walk=walk
    )
    embeddings.dump(args.out)
    print(
        json.dumps(
            {
                "processed": report.processed,
                "skipped": len(report.skipped),
                "out_of_order": report.out_of_order,
                "embeddings": len(embeddings),
            }
        )
    )
    return 0


# -- parser ---------------------------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lignn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a graph from TSV inputs and report")
    _add_graph_args(p)
    p.add_argument("--dump-edges", default=None, help="write canonical edge dump")
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("densify", help="add cold-start artificial edges")
    _add_graph_args(p)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--lower-q", type=float, default=0.30)
    p.add_argument("--upper-q", type=float, default=0.90)
    p.add_argument("--k", type=int, default=50)
    p.add_argument("--edge-type", type=int, required=True)
    p.add_argument("--out", default="artificial_edges.tsv")
    p.add_argument("--report", default=None, help="JSON-lines skipped-node report")
    p.set_defaults(fn=cmd_densify)

    p = sub.add_parser("sample", help="run a sampling strategy over seed nodes")
    _add_graph_args(p)
    p.add_argument("--strategy", required=True,
                   choices=["random", "weighted", "ppr-push", "ppr-2hop", "temporal"])
    p.add_argument("--seeds", required=True, help="file of node_type<TAB>node_id")
    p.add_argument("--fanout", default="", help="per-hop counts, e.g. 20,10")
    p.add_argument("--alpha", type=float, default=0.15)
    p.add_argument("--rmax", type=float, default=1e-4)
    p.add_argument("--topk", type=int, default=200)
    p.add_argument("--before-ts", type=int, default=None)
    p.add_argument("--edge-type", type=int, default=0)
    p.add_argument("--rng-seed", type=int, default=0,
                   help="seed of the random and weighted draws; ppr-push and ppr-2hop draw none")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("train", help="train the link-prediction model")
    _add_graph_args(p)
    p.add_argument("--records", required=True)
    p.add_argument("--encoder", choices=["single", "dual"], default="single")
    p.add_argument("--aggregator", choices=["mean", "attention", "self-attention"],
                   default="mean")
    p.add_argument("--decoder", choices=["cosine", "mlp", "inbatch"], default="cosine")
    p.add_argument("--id-embeddings", action="store_true")
    p.add_argument("--id-dim", type=int, default=32)
    p.add_argument("--temporal", action="store_true")
    p.add_argument("--H", type=int, default=4)
    p.add_argument("--d", type=int, default=64)
    p.add_argument("--N", type=int, default=100)
    p.add_argument("--future-len", type=int, default=10)
    p.add_argument("--mask", choices=["regular", "prefix"], default="prefix")
    p.add_argument("--pos", choices=["none", "sin", "ts"], default="sin")
    p.add_argument("--hops", type=int, default=1)
    p.add_argument("--out-dim", type=int, default=32)
    p.add_argument("--mlp-hidden", type=int, default=32)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--group-size", type=int, default=4)
    p.add_argument("--gradient-step", type=int, default=1)
    p.add_argument("--neighbors", type=int, default=20)
    p.add_argument("--strategy", choices=["random", "weighted", "ppr-push", "ppr-2hop"],
                   default="random")
    p.add_argument("--adaptive", action="store_true")
    p.add_argument("--adaptive-start", type=int, default=2)
    p.add_argument("--adaptive-stride", type=int, default=20)
    p.add_argument("--mlp-init-epochs", type=int, default=0)
    p.add_argument("--edge-type", type=int, default=0, help="activity edge type")
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--metrics", default=None, help="JSON-lines metrics path")
    p.add_argument("--out", default=None, help="checkpoint path")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("serve", help="serve one graph shard")
    _add_graph_args(p)
    p.add_argument("--bind", default="127.0.0.1:7439")
    p.add_argument("--shard-index", type=int, default=0)
    p.add_argument("--peers", default=None, help="comma-joined shard addresses")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("refresh", help="nearline embedding refresh from events")
    _add_graph_args(p)
    p.add_argument("--events", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="embedding dump path")
    p.add_argument("--edge-type", type=int, default=0)
    p.add_argument("--topk", type=int, default=50,
                   help="neighbours per refreshed node: top exact PPR scores on its 2-hop ball")
    p.set_defaults(fn=cmd_refresh)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = make_parser()
    args = parser.parse_args(argv)
    _apply_config_file(args)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
