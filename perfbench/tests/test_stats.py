import os

import pytest

from perfbench import stats
from perfbench.harness import Phase, Workload, current_cpu, run_phase
from perfbench.nearline import Nearline
from perfbench.offline import Offline
from perfbench.remote import Remote


@pytest.mark.parametrize("pct, n", [(50, 20), (75, 40), (90, 100), (99, 1000)])
def test_min_samples_leaves_ten_beyond(pct, n):
    assert stats.min_samples(pct) == n
    assert stats.samples_beyond(n, pct) == stats.TAIL_BEYOND
    assert stats.samples_beyond(n - 1, pct) < stats.TAIL_BEYOND


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 99) == 99
    assert stats.percentile([3.0], 99) == 3.0


def test_windowed_rate_is_median_over_windows_of_groups():
    # windows: [0.5, 0.5], [1.0], [0.25, 0.25, 0.25, 0.25, 0.1] (short tail joined)
    groups = [[0.5], [0.5], [1.0], [0.25, 0.25, 0.25, 0.25], [0.1]]
    assert stats.windowed_rate(groups, 2.0) == pytest.approx(4.0)
    assert stats.windowed_rate([[0.2, 0.2]], 1.0) == pytest.approx(5.0)
    # a window never splits a group
    assert stats.windowed_rate([[0.6, 0.6], [0.3]], 1.0) == pytest.approx(3 / 1.5)
    # one slow window out of three leaves the median alone
    assert stats.windowed_rate([[1.0], [1.0], [3.0]], 1.0) == pytest.approx(1.0)


def test_current_cpu_is_one_this_process_may_use():
    assert current_cpu() in os.sched_getaffinity(0)


class _Tiny(Workload):
    tail_pct = 99

    def next_group(self):
        return [lambda: None]

    def check_group(self, outputs):
        return []


@pytest.mark.parametrize("workload", [Offline, Nearline, Remote])
def test_each_workload_tail_has_ten_samples_beyond(workload):
    w = _Tiny()
    w.tail_pct = workload.tail_pct
    phase = run_phase(w, budget_s=0.0)
    assert isinstance(phase, Phase)
    assert stats.samples_beyond(phase.attempted, workload.tail_pct) >= stats.TAIL_BEYOND

