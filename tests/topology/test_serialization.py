"""Tests for CAIDA serial-1 reading/writing."""

from __future__ import annotations

import pytest

from repro.exceptions import SerializationError
from repro.topology.asgraph import ASGraph
from repro.topology.serialization import dumps_caida, load_caida, loads_caida, save_caida


@pytest.fixture()
def graph() -> ASGraph:
    g = ASGraph()
    g.add_p2c(1, 2)
    g.add_p2p(2, 3)
    g.add_s2s(3, 4)
    return g


def test_round_trip(graph):
    restored = loads_caida(dumps_caida(graph))
    assert list(restored.edges()) == list(graph.edges())


def test_file_round_trip(graph, tmp_path):
    path = tmp_path / "topology.txt"
    save_caida(graph, path, header="test topology\nsecond line")
    text = path.read_text()
    assert text.startswith("# test topology\n# second line\n")
    restored = load_caida(path)
    assert list(restored.edges()) == list(graph.edges())


def test_relationship_codes(graph):
    text = dumps_caida(graph)
    assert "1|2|-1" in text
    assert "2|3|0" in text
    assert "3|4|2" in text


def test_comments_and_blank_lines_skipped():
    graph = loads_caida("# header\n\n1|2|-1\n")
    assert graph.relationship(1, 2).value == "customer"


@pytest.mark.parametrize(
    "bad",
    ["1|2", "a|b|-1", "1|2|7", "1|1|-1"],
)
def test_malformed_lines_rejected(bad):
    with pytest.raises(SerializationError):
        loads_caida(bad)


def test_generated_world_round_trips(small_world):
    text = dumps_caida(small_world.graph)
    restored = loads_caida(text)
    assert restored.num_edges == small_world.graph.num_edges
    assert list(restored.edges()) == list(small_world.graph.edges())


def test_round_trip_property():
    """Random generated graphs survive the serial-1 round trip."""
    import random

    from hypothesis import given, settings
    from hypothesis import strategies as st

    from repro.topology.generators import InternetTopologyConfig, generate_internet_topology

    tiny = InternetTopologyConfig(
        num_tier1=3, num_tier2=4, num_tier3=8, num_tier4=6,
        num_stubs=20, num_content=2, sibling_pairs=2,
    )

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def check(seed):
        world = generate_internet_topology(tiny, random.Random(seed))
        restored = loads_caida(dumps_caida(world.graph))
        assert list(restored.edges()) == list(world.graph.edges())

    check()
