"""Heterogeneous graph engine, neighbor samplers, densification, and a
link-prediction GNN trainer with a nearline embedding refresher."""

__version__ = "0.1.0"

from .graph import (
    EdgeKind,
    GraphBuildReport,
    GraphSchema,
    HeteroGraph,
    NodeRef,
    build_graph,
    load_graph,
    mix64,
)

__all__ = [
    "EdgeKind",
    "GraphBuildReport",
    "GraphSchema",
    "HeteroGraph",
    "NodeRef",
    "build_graph",
    "load_graph",
    "mix64",
]
