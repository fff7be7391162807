import threading

import pytest

from perfbench import spans
from perfbench.spans import Patcher, Recorder, covered_time, self_times, summarize


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def run(rec: Recorder, clock: Clock, script):
    """script: ("begin", name) / ("end",) / ("tick", dt) steps on one thread."""
    open_ = []
    for step in script:
        if step[0] == "begin":
            open_.append(rec.begin(step[1]))
        elif step[0] == "end":
            rec.end(open_.pop())
        else:
            clock.now += step[1]


def test_nested_self_time_subtracts_children():
    clock = Clock()
    rec = Recorder(clock)
    run(rec, clock, [
        ("begin", "a"), ("tick", 1), ("begin", "b"), ("tick", 2), ("end",),
        ("tick", 3), ("begin", "c"), ("tick", 4), ("end",), ("end",),
    ])
    assert self_times(rec.spans) == [4.0, 2.0, 4.0]
    table = summarize(rec.spans)
    assert table["a"] == {"calls": 1, "self_s": 4.0, "total_s": 10.0}


def test_recursive_spans_count_one_call_and_no_double_time():
    clock = Clock()
    rec = Recorder(clock)
    run(rec, clock, [
        ("begin", "m"), ("tick", 1), ("begin", "m"), ("tick", 2), ("begin", "x"),
        ("tick", 4), ("end",), ("end",), ("tick", 1), ("end",),
    ])
    table = summarize(rec.spans)
    assert table["m"]["calls"] == 1
    assert table["m"]["self_s"] == 4.0  # 1 + 1 outer, 2 inner
    assert table["m"]["total_s"] == 8.0
    assert table["x"]["self_s"] == 4.0
    assert sum(self_times(rec.spans)) == covered_time(rec.spans) == 8.0


def test_cross_thread_child_links_to_the_in_flight_span():
    clock = Clock()
    rec = Recorder(clock)
    rpc = rec.begin("client.rpc")
    rec.link = rpc
    clock.now += 1

    def server():
        idx = rec.begin("server")
        clock.now += 5
        rec.end(idx)

    t = threading.Thread(target=server)
    t.start()
    t.join(timeout=10)
    assert not t.is_alive()
    clock.now += 2
    rec.link = -1
    rec.end(rpc)
    assert rec.spans[1][spans.PARENT] == rpc
    assert self_times(rec.spans) == [3.0, 5.0]


def test_overlapping_children_are_counted_once():
    # a child on another thread can overlap its sibling; the union counts
    s = [["p", 0.0, 10.0, -1, 0, 1], ["a", 1.0, 5.0, 0, 0, 1], ["b", 3.0, 7.0, 0, 0, 2],
         ["c", 9.0, 12.0, 0, 0, 2]]
    assert self_times(s)[0] == pytest.approx(10.0 - 6.0 - 1.0)
    assert covered_time(s) == 12.0


def test_wrap_records_and_runs_after_hook():
    rec = Recorder()
    seen = []
    f = rec.wrap("f", lambda x: x + 1, after=lambda result, args: seen.append((result, args)))
    assert f(1) == 2
    assert seen == [(2, (1,))]
    assert rec.spans[0][spans.NAME] == "f" and rec.spans[0][spans.END] is not None


def test_wrap_closes_span_when_call_raises():
    rec = Recorder()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        rec.wrap("boom", boom)()
    assert rec.spans[0][spans.END] is not None
    assert rec.begin("next") == 1 and rec.spans[1][spans.PARENT] == -1


def test_patcher_restores_functions_methods_and_instances():
    import lignn.graph as graph_mod
    import lignn.samplers as samplers
    import lignn.training as training

    original = samplers.sample_random_multihop
    method = graph_mod.HeteroGraph.merged_neighbors
    obj = type("Obj", (), {"f": lambda self: 1})()
    p = Patcher()
    assert p.function(original, "stub") >= 2  # samplers and training both bind it
    p.set(graph_mod.HeteroGraph, "merged_neighbors", "stub")
    p.set(obj, "f", lambda: 2)
    assert training.sample_random_multihop == "stub" and obj.f() == 2
    p.restore()
    assert samplers.sample_random_multihop is original
    assert training.sample_random_multihop is original
    assert graph_mod.HeteroGraph.merged_neighbors is method
    assert obj.f() == 1 and "f" not in vars(obj)
