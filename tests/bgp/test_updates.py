"""Tests for the churn/update-stream simulation."""

from __future__ import annotations

import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.collectors import RouteCollector
from repro.bgp.engine import PropagationEngine
from repro.bgp.updates import (
    SequencedUpdate,
    StampedStream,
    UpdateMessage,
    simulate_update_stream,
    stamp,
)
from repro.bgp.prepending import PrependingPolicy
from repro.exceptions import SimulationError
from repro.topology.asgraph import ASGraph


@pytest.fixture()
def multihomed() -> ASGraph:
    """Origin 100 dual-homed to 1 and 2; monitor candidates above."""
    graph = ASGraph()
    graph.add_p2p(1, 2)
    graph.add_p2c(1, 100)
    graph.add_p2c(2, 100)
    graph.add_p2c(1, 10)
    graph.add_p2c(2, 20)
    return graph


def test_failures_produce_updates(multihomed):
    collector = RouteCollector(multihomed, [10, 20])
    prepending = PrependingPolicy()
    prepending.set_padding(100, 2, 4)  # backup link heavily padded
    messages = simulate_update_stream(
        PropagationEngine(multihomed),
        100,
        collector,
        prefix="192.0.2.0/24",
        prepending=prepending,
        events=4,
        rng=random.Random(1),
    )
    assert messages, "link failures must surface as updates"
    # Some failover route must expose the padded backup path.
    assert any(
        message.path and message.path.count(100) == 4 for message in messages
    )
    assert all(message.prefix == "192.0.2.0/24" for message in messages)


def test_updates_are_deterministic(multihomed):
    collector = RouteCollector(multihomed, [10, 20])
    runs = [
        simulate_update_stream(
            PropagationEngine(multihomed),
            100,
            collector,
            prefix="192.0.2.0/24",
            events=3,
            rng=random.Random(9),
        )
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_no_events_no_updates(multihomed):
    collector = RouteCollector(multihomed, [10])
    assert (
        simulate_update_stream(
            PropagationEngine(multihomed), 100, collector, prefix="p", events=0, rng=random.Random(0)
        )
        == []
    )


def test_negative_events_rejected(multihomed):
    collector = RouteCollector(multihomed, [10])
    with pytest.raises(SimulationError):
        simulate_update_stream(
            PropagationEngine(multihomed), 100, collector, prefix="p", events=-1, rng=random.Random(0)
        )


def test_isolated_origin_rejected():
    graph = ASGraph()
    graph.add_as(1)
    graph.add_p2c(2, 3)
    collector = RouteCollector(graph, [2])
    with pytest.raises(SimulationError):
        simulate_update_stream(
            PropagationEngine(graph), 1, collector, prefix="p", events=1, rng=random.Random(0)
        )


def test_original_graph_untouched(multihomed):
    collector = RouteCollector(multihomed, [10])
    edges_before = list(multihomed.edges())
    simulate_update_stream(
        PropagationEngine(multihomed), 100, collector, prefix="p", events=3, rng=random.Random(2)
    )
    assert list(multihomed.edges()) == edges_before


# -- sequence stamps ------------------------------------------------------------

_messages = st.lists(
    st.builds(
        UpdateMessage,
        monitor=st.integers(1, 10**5),
        prefix=st.sampled_from(("203.0.113.0/24", "10.0.0.0/8")),
        path=st.lists(st.integers(1, 10**5), max_size=6).map(tuple),
        withdrawn=st.booleans(),
    ),
    max_size=40,
)


@settings(max_examples=50, deadline=None)
@given(messages=_messages, first_seq=st.integers(-(10**6), 10**12))
def test_stamp_equals_the_comprehension(messages, first_seq):
    expected = [
        SequencedUpdate(seq=seq, message=message)
        for seq, message in enumerate(messages, first_seq)
    ]
    stamped = stamp(messages, first_seq)
    assert stamped == expected
    assert all(type(update) is SequencedUpdate for update in stamped)
    assert [repr(update) for update in stamped] == [repr(update) for update in expected]
    assert stamp(iter(messages), first_seq) == expected


def test_stamps_are_immutable_hashable_values():
    message = UpdateMessage(monitor=3, prefix="203.0.113.0/24", path=(3, 2, 1))
    (update,) = stamp([message], 41)
    assert update == SequencedUpdate(seq=41, message=message)
    assert update != SequencedUpdate(seq=42, message=message)
    assert hash(update) == hash(SequencedUpdate(41, message))
    assert len({update, SequencedUpdate(41, message)}) == 1
    assert repr(update) == (
        "SequencedUpdate(seq=41, message=UpdateMessage(monitor=3, "
        "prefix='203.0.113.0/24', path=(3, 2, 1), withdrawn=False))"
    )
    with pytest.raises(AttributeError):
        update.seq = 0
    assert stamp([]) == []


# -- the stamped view -------------------------------------------------------------


def _plain(count: int) -> list[UpdateMessage]:
    return [
        UpdateMessage(monitor=i % 7 + 1, prefix="203.0.113.0/24", path=(i % 5 + 1, 100))
        for i in range(count)
    ]


def test_indexing_reads_one_update_per_position():
    messages = _plain(10)
    stamped = stamp(messages, 40)
    assert len(stamped) == 10
    assert stamped[0] == SequencedUpdate(40, messages[0])
    assert stamped[-1] == SequencedUpdate(49, messages[-1])
    assert stamped[-1].seq == 49
    assert stamped[-10] == stamped[0]
    assert all(type(stamped[i]) is SequencedUpdate for i in range(-10, 10))
    for index in (10, -11):
        with pytest.raises(IndexError):
            stamped[index]


@pytest.mark.parametrize(
    "window",
    [slice(None), slice(2, 7), slice(1, None, 3), slice(None, None, 4), slice(8, 1, -2), slice(5, 5)],
    ids=repr,
)
def test_slices_are_views_equal_to_the_lists_slices(window):
    stamped = stamp(_plain(12), 100)
    as_list = list(stamped)
    sliced = stamped[window]
    assert type(sliced) is StampedStream
    assert sliced == as_list[window]
    assert list(sliced) == as_list[window]
    assert len(sliced) == len(as_list[window])
    # a slice of a slice is still positions of the one stream
    assert sliced[::2] == as_list[window][::2]


def test_iteration_yields_exact_sequenced_updates():
    messages = _plain(6)
    updates = list(stamp(messages, 3))
    assert [type(update) for update in updates] == [SequencedUpdate] * 6
    assert [(update.seq, update.message) for update in updates] == list(enumerate(messages, 3))
    assert list(reversed(stamp(messages, 3))) == updates[::-1]


def test_equality_against_lists_and_other_streams():
    messages = _plain(5)
    stamped = stamp(messages, 7)
    expected = [SequencedUpdate(seq, m) for seq, m in enumerate(messages, 7)]
    assert stamped == expected
    assert expected == stamped
    assert stamped == tuple(expected)
    assert stamped == stamp(list(messages), 7)
    assert stamped != stamp(messages, 8)  # same messages, other stamps
    assert stamped != expected[:-1]
    assert stamped != expected + expected[:1]
    assert stamped != [*expected[:2], SequencedUpdate(9, messages[3]), *expected[3:]]
    assert stamped != stamp(_plain(4) + [messages[0]], 7)
    assert stamped != "not a stream"
    assert stamped != 5
    with pytest.raises(TypeError):
        hash(stamped)


def test_stamping_an_iterator_and_the_empty_stream():
    messages = _plain(4)
    assert stamp(iter(messages), 2) == stamp(messages, 2)
    assert stamp(m for m in messages) == list(stamp(messages))
    empty = stamp([])
    assert empty == [] and len(empty) == 0 and not empty
    assert list(empty) == [] and empty[:] == []
    assert stamp(iter(()), 9) == empty
    with pytest.raises(IndexError):
        empty[-1]


def test_stamping_builds_no_object_per_update():
    messages = _plain(200_000)
    gc.collect()
    before = len(gc.get_objects())
    stamped = stamp(messages)
    grown = len(gc.get_objects()) - before
    assert len(stamped) == 200_000
    assert grown < 100


def test_link_down_equals_a_graph_without_the_link(small_world):
    """A failed link converges exactly where a copy of the graph with
    the link removed does."""
    graph = small_world.graph
    engine = PropagationEngine(graph)
    origin = small_world.stubs[0]
    prepending = PrependingPolicy.uniform_origin(origin, 2)
    for failed in sorted(graph.neighbors_of(origin)):
        degraded = graph.copy()
        degraded.remove_edge(origin, failed)
        filtered = engine.propagate(
            origin, prepending=prepending, failed_links=((origin, failed),)
        )
        removed = PropagationEngine(degraded).propagate(origin, prepending=prepending)
        assert {asn: filtered.path_of(asn) for asn in graph.ases} == {
            asn: removed.path_of(asn) for asn in graph.ases
        }
