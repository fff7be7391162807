"""BENCHMARK.json agrees with the code, and the command refuses to run
without the program's sources."""

import json
import os
import shutil
import subprocess
import sys

from perfbench.harness import END_TO_END
from perfbench.layers import PER_LAYER
from perfbench.run import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_names_what_the_code_reports():
    spec = load()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")


def test_command_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "offline", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
