"""Run the benchmark over a fixed seed list and write one BENCH_<n>.json.

    python3 tools/bench.py                       # this checkout, next free BENCH_<n>.json
    python3 tools/bench.py --root ../other --out BENCH_0.json

For each workload, ``perfbench/run.py`` runs once per seed in ``SEEDS``,
untraced, for ``SECONDS`` seconds, then once traced on the first seed. Each
run is a subprocess started from the root of the checkout under test, so the
benchmark measures that checkout's sources. The file holds, per workload and
end-to-end metric, the median, first and third quartiles and the value of
each seed; the traced run's per-layer metrics; and the git sha of the checkout
with the Python, numpy and BLAS versions and the CPU count of the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("offline", "nearline", "remote")
SEEDS = (11, 12, 13, 14, 15)
SECONDS = 30.0  # the run length BENCHMARK.json sets


def run_one(root: str, workload: str, seed: int, trace: bool) -> dict:
    """One ``perfbench/run.py`` result: its last output line, parsed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd)} printed nothing: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def summary(values: dict[int, float], unit: str) -> dict:
    """Median and quartiles over the seeds, with each seed's value."""
    q1, median, q3 = statistics.quantiles(values.values(), n=4, method="inclusive")
    return {"unit": unit, "median": median, "q1": q1, "q3": q3,
            "values": {str(seed): x for seed, x in values.items()}}


def bench_workload(root: str, workload: str) -> dict:
    runs = {}
    for seed in SEEDS:
        runs[seed] = run_one(root, workload, seed, trace=False)
        print(f"{workload} seed {seed}: correct {runs[seed]['correct']}", file=sys.stderr)
    names = runs[SEEDS[0]]["metrics"]
    end_to_end = {
        name: summary({seed: r["metrics"][name]["value"] for seed, r in runs.items()},
                      names[name]["unit"])
        for name in names
    }
    traced = run_one(root, workload, SEEDS[0], trace=True)
    return {
        "correct": {str(seed): r["correct"] for seed, r in runs.items()},
        "failed": {str(seed): r["failed"] for seed, r in runs.items()},
        "end_to_end": end_to_end,
        "traced": {"seed": SEEDS[0], "correct": traced["correct"],
                   "metrics": {k: m["value"] for k, m in traced["metrics"].items()}},
    }


def git_sha(root: str) -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                          text=True, check=False)
    return proc.stdout.strip() or None


def blas() -> str:
    info = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"{info.get('name', '?')} {info.get('version', '?')}"


def next_out(root: str) -> str:
    n = 0
    while os.path.exists(os.path.join(root, f"BENCH_{n}.json")):
        n += 1
    return os.path.join(root, f"BENCH_{n}.json")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--root", default=HERE, help="checkout whose sources are measured")
    p.add_argument("--out", help="file to write (default: the next free BENCH_<n>.json here)")
    args = p.parse_args(argv)
    root = os.path.abspath(args.root)
    result = {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas(),
        "cpu_count": os.cpu_count(),
        "seconds": SECONDS,
        "seeds": list(SEEDS),
        "workloads": {w: bench_workload(root, w) for w in WORKLOADS},
    }
    out = args.out or next_out(HERE)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
