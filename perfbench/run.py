"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload offline --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: lignn is imported from ``src/`` there and
nowhere else. With ``--trace 0`` the last line of output holds the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced run
(its spans are written under ``.bench_out/``). The exit code is 0 only when
every operation succeeded and passed its output check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("offline", "nearline", "remote")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # one BLAS thread: the operations use small matrices, and a pool of
    # spinning BLAS threads would compete with the caller for the few cores
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "lignn", "__init__.py")):
        print(f"perfbench: no lignn sources in {src}; run from a repository checkout",
              file=sys.stderr)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:] = [src, ROOT] + [p for p in sys.path if os.path.abspath(p or ".") != here]
    from perfbench import harness, nearline, offline, remote

    workload = {
        "offline": offline.Offline,
        "nearline": nearline.Nearline,
        "remote": remote.Remote,
    }[args.workload]()
    result = harness.run(workload, args.seed, args.seconds, bool(args.trace),
                         os.path.join(ROOT, ".bench_out"))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
