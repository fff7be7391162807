"""Measurement loop shared by the workloads.

A workload runs its operations in groups: an offline pipeline pass, a
nearline replay of the whole event stream, or one remote request. Each
operation is timed on its own; a group's outputs are checked after the
group, outside the timed region. A phase starts another group while the
last group's time still fits in its budget, and until it has enough samples
for the workload's tail percentile, so a phase always ends on a group
boundary.

With tracing off, one phase gives the end-to-end metrics. With tracing on,
an untraced phase runs first and a traced phase then repeats the same
operations with the wrappers installed; the per-layer metrics come from the
traced phase and the difference in wall time is the tracing overhead.
"""

from __future__ import annotations

import gc
import os
import resource
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

from . import stats
from .layers import PER_LAYER, Instrumentation, layer_metrics
from .spans import Recorder

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "share",
    "work_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
}


class Workload:
    """Interface of one workload; see offline.py, nearline.py, remote.py."""

    name = ""
    tail_pct = 50
    one_cpu = False  # run the whole process on the core it started on
    setups = 3
    units_per_op = 1.0

    def generate(self, seed: int) -> None:
        """Make the seeded inputs (and check references); not timed."""

    def setup(self) -> None:
        """Everything before the first timed operation; timed.

        The harness calls ``close`` before each repeated set-up.
        """

    def rewind(self) -> None:
        """Restart the operation sequence from its first group."""

    def next_group(self) -> list[Callable[[], object]]:
        raise NotImplementedError

    def check_group(self, outputs: list[object]) -> list[str]:
        raise NotImplementedError

    def ingest_rates(self) -> list[float]:
        """TSV rows per second of each ``build_graph`` call measured so far."""
        raise NotImplementedError

    def instrument(self, inst: Instrumentation) -> object:
        """Hook the traced phase's wrappers into workload-owned objects."""

    def layer_extras(self, untraced: "Phase") -> dict[str, float]:
        return {}

    def close(self) -> None:
        pass


@dataclass
class Phase:
    durations: list[float] = field(default_factory=list)
    groups: list[list[float]] = field(default_factory=list)
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.durations)

    @property
    def busy_s(self) -> float:
        return sum(self.durations)


def run_phase(w: Workload, budget_s: float, max_ops: int | None = None,
              recorder: Recorder | None = None) -> Phase:
    phase = Phase()
    need = stats.min_samples(w.tail_pct)
    gc.collect()
    while True:
        done = phase.attempted
        if max_ops is not None:
            if done >= max_ops:
                break
        elif phase.groups and done >= need and phase.busy_s + sum(phase.groups[-1]) > budget_s:
            break
        ops = w.next_group()
        outputs, times = [], []
        for k, op in enumerate(ops):
            if recorder is not None:
                recorder.request = done + k
            t0 = time.perf_counter()
            try:
                out = op()
            except Exception as exc:  # a failed operation is counted, not fatal
                out = exc
            times.append(time.perf_counter() - t0)
            outputs.append(out)
        problems = [f"{type(o).__name__}: {o}" for o in outputs if isinstance(o, Exception)]
        if not problems:
            problems = w.check_group(outputs)
        if problems:
            phase.failed += len(ops)
            phase.problems.extend(problems[:3])
        phase.durations.extend(times)
        phase.groups.append(times)
    return phase


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(w: Workload, setup_times: list[float], phase: Phase) -> dict[str, float]:
    d = phase.durations
    return {
        "setup_s": stats.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
        "success_rate": 1.0 - phase.failed / phase.attempted,
        "work_per_s": stats.windowed_rate(phase.groups, w.units_per_op),
        "op_ms_p50": 1000.0 * stats.median(d),
        "op_ms_tail": 1000.0 * stats.percentile(d, w.tail_pct),
    }


def current_cpu() -> int:
    """The core this thread runs on now (field 39 of its stat line)."""
    try:
        with open("/proc/thread-self/stat") as f:
            return int(f.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return max(os.sched_getaffinity(0))


def run(w: Workload, seed: int, seconds: float, trace: bool, out_dir: str) -> dict:
    if w.one_cpu:
        # the core the scheduler placed this process on, so that two runs at
        # once are not put on the same core by a fixed choice
        os.sched_setaffinity(0, {current_cpu()})
    w.generate(seed)
    setup_times = []
    try:
        for k in range(1 if trace else w.setups):
            if k:
                w.close()
            gc.collect()
            t0 = time.perf_counter()
            w.setup()
            setup_times.append(time.perf_counter() - t0)
        if not trace:
            phase = run_phase(w, seconds)
            metrics = end_to_end(w, setup_times, phase)
            phases = [phase]
        else:
            untraced = run_phase(w, seconds / 2)
            ingest = stats.median(w.ingest_rates())
            w.rewind()
            recorder = Recorder()
            inst = Instrumentation(recorder)
            try:
                rpc = w.instrument(inst)
                traced = run_phase(w, 0.0, max_ops=untraced.attempted, recorder=recorder)
            finally:
                inst.remove()
            metrics = layer_metrics(recorder.spans, inst.counters, rpc, traced.busy_s,
                                    traced.attempted)
            metrics.update(w.layer_extras(untraced))
            metrics["graph.ingest_rows_per_s"] = ingest
            metrics["trace.overhead_share"] = traced.busy_s / untraced.busy_s - 1.0
            metrics["bench.samples"] = untraced.attempted
            os.makedirs(out_dir, exist_ok=True)
            recorder.dump(os.path.join(out_dir, f"spans-{w.name}-{seed}.jsonl"))
            phases = [untraced, traced]
    finally:
        w.close()
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    for p in phases:
        for problem in p.problems:
            print(f"{w.name}: check failed: {problem}", file=sys.stderr)
    first = phases[0]
    print(
        f"{w.name}: seed {seed}, {first.attempted} timed operations in "
        f"{first.busy_s:.1f} s, tail = p{w.tail_pct}, {failed} failed"
    )
    units = {**END_TO_END, **{k: unit for k, (unit, _) in PER_LAYER.items()}}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
