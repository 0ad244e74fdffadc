"""Tests for the churn/update-stream simulation."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.collectors import RouteCollector
from repro.bgp.updates import SequencedUpdate, UpdateMessage, simulate_update_stream, stamp
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
        multihomed,
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
            multihomed,
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
            multihomed, 100, collector, prefix="p", events=0, rng=random.Random(0)
        )
        == []
    )


def test_negative_events_rejected(multihomed):
    collector = RouteCollector(multihomed, [10])
    with pytest.raises(SimulationError):
        simulate_update_stream(
            multihomed, 100, collector, prefix="p", events=-1, rng=random.Random(0)
        )


def test_isolated_origin_rejected():
    graph = ASGraph()
    graph.add_as(1)
    graph.add_p2c(2, 3)
    collector = RouteCollector(graph, [2])
    with pytest.raises(SimulationError):
        simulate_update_stream(
            graph, 1, collector, prefix="p", events=1, rng=random.Random(0)
        )


def test_original_graph_untouched(multihomed):
    collector = RouteCollector(multihomed, [10])
    edges_before = list(multihomed.edges())
    simulate_update_stream(
        multihomed, 100, collector, prefix="p", events=3, rng=random.Random(2)
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
