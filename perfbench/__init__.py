"""Seeded end-to-end and per-layer benchmark for lignn; run ``perfbench/run.py``."""
