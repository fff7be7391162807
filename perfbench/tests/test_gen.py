from dataclasses import replace

import hashlib

from lignn.graph import GraphSchema, build_graph
from lignn.service.nearline import parse_events

from perfbench import gen

SIZES = gen.Sizes(members=120, items=80, records=60, events=50)


ROWS = ("edge_rows", "node_rows", "embedding_rows", "record_rows", "event_rows")


def digest(inputs: gen.Inputs) -> str:
    h = hashlib.sha256(inputs.schema_text.encode())
    for field in ROWS:
        h.update("".join(getattr(inputs, field)).encode() + b"\0")
    return h.hexdigest()


def test_same_seed_gives_byte_identical_inputs():
    assert digest(gen.generate(7, SIZES)) == digest(gen.generate(7, SIZES))


def test_different_seed_gives_different_inputs():
    a, b = gen.generate(7, SIZES), gen.generate(8, SIZES)
    for field in ROWS:
        assert getattr(a, field) != getattr(b, field)


def test_planted_malformed_rows_are_exactly_the_rejected_rows():
    inputs = gen.generate(3, SIZES)
    assert inputs.malformed_rows > 0
    _, report = build_graph(inputs.edge_rows, inputs.node_rows, GraphSchema.parse(inputs.schema_text))
    assert report.rejected_rows == inputs.malformed_rows


def test_every_generated_node_exists_in_the_graph():
    inputs = gen.generate(4, SIZES)
    graph, _ = build_graph(inputs.edge_rows, inputs.node_rows, GraphSchema.parse(inputs.schema_text))
    assert all(graph.has_node(gen.MEMBER, m) for m in inputs.members)
    assert all(graph.has_node(gen.ITEM, i) for i in inputs.items)


def test_last_fifth_of_events_repeats_the_first_fifth():
    events = parse_events(gen.generate(5, SIZES).event_rows)
    fifth = len(events) // 5
    head = [(e.kind, e.member, e.item) for e in events[:fifth]]
    tail = [(e.kind, e.member, e.item) for e in events[-fifth:]]
    assert head == tail
    assert events[-1].timestamp > events[fifth - 1].timestamp


def test_each_stream_repeats_its_own_first_fifth():
    sizes = replace(SIZES, streams=3)
    events = parse_events(gen.generate(5, sizes).event_rows)
    assert len(events) == 3 * sizes.events
    fifth = sizes.events // 5
    keys = []
    for k in range(0, len(events), sizes.events):
        stream = [(e.kind, e.member, e.item) for e in events[k:k + sizes.events]]
        assert stream[:fifth] == stream[-fifth:]
        keys.append(stream)
    assert keys[0] != keys[1] != keys[2]
