"""The bulk loader against the per-edge one, and the edge-column memo.

Three contracts:

* **Load.**  ``loads_asrel2`` / ``loads_caida`` fill three edge columns
  and build the graph with :meth:`ASGraph.from_edge_columns`.  The graph
  must equal what the per-edge parser (:mod:`tests.topology.load_oracle`)
  builds — the same ASes in the same order, every adjacency set in the
  same iteration order, the same edges — and a malformed file must fail
  with the oracle's exact message, the earliest bad line winning whether
  its fault is the line's shape or the edge it names (the hand-picked
  cases are ``test_asrel2.py``'s).
* **Compile.**  :meth:`CompiledTopology.from_graph` is one NumPy pass
  over edge columns, fed by the loader's columns or gathered from the
  adjacency sets; either way its nine CSR columns equal the per-slot
  oracle's (:mod:`tests.bgp.compile_oracle`).
* **Memo.**  A loaded graph keeps its columns until it is compiled or
  mutated; a copy or a pickle never carries them.
"""

from __future__ import annotations

import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.compiled import CompiledTopology
from repro.exceptions import DuplicateEdgeError, SerializationError, TopologyError
from repro.experiments.base import generate_world
from repro.topology.asgraph import ASGraph
from repro.topology.generators import PowerLawConfig, generate_powerlaw_topology
from repro.topology.serialization import dumps_caida, loads_asrel2, loads_caida
from tests.bgp.compile_oracle import columns, compile_oracle
from tests.topology.load_oracle import loads_asrel2_oracle, loads_caida_oracle

FIXTURES = Path(__file__).parent / "fixtures"

#: the end-to-end benchmark's 10k-AS power-law shape
SCALE_10K = PowerLawConfig(
    num_ases=10_000,
    tier1_size=20,
    transit_fraction=0.30,
    transit_providers=(2, 4),
    stub_providers=(1, 3),
    transit_peering_degree=(4, 24),
)


def assert_same_graph(graph: ASGraph, oracle: ASGraph) -> None:
    """Same ASes in the same order and every set in the same order."""
    for role in ("_providers", "_customers", "_peers", "_siblings"):
        ours, theirs = getattr(graph, role), getattr(oracle, role)
        assert list(ours) == list(theirs), role
        assert [list(members) for members in ours.values()] == [
            list(members) for members in theirs.values()
        ], role
    assert graph.num_edges == oracle.num_edges
    assert list(graph.edges()) == list(oracle.edges())


def outcome(load, text: str):
    """``load(text)``, or the message of the error it raised."""
    try:
        return load(text)
    except SerializationError as exc:
        return str(exc)


def assert_loads_alike(text: str) -> None:
    for load, oracle in ((loads_asrel2, loads_asrel2_oracle), (loads_caida, loads_caida_oracle)):
        ours, theirs = outcome(load, text), outcome(oracle, text)
        if isinstance(theirs, str):
            assert ours == theirs
        else:
            assert not isinstance(ours, str), ours
            assert_same_graph(ours, theirs)


@pytest.fixture(scope="module")
def dump_10k() -> str:
    return dumps_caida(generate_powerlaw_topology(SCALE_10K, seed=7).graph)


@pytest.fixture(scope="module")
def dump_scale4() -> str:
    return dumps_caida(generate_world(seed=7, scale=4.0).graph, header="seed 7, scale 4.0")


class TestLoadMatchesOracle:
    def test_mini_snapshot(self):
        assert_loads_alike((FIXTURES / "mini.as-rel2.txt").read_text())

    def test_mangled_snapshot(self):
        assert_loads_alike((FIXTURES / "mangled.as-rel2.txt").read_text())

    def test_seed7_world_at_scale_4(self, dump_scale4):
        assert_loads_alike(dump_scale4)

    def test_10k_powerlaw_dump(self, dump_10k):
        assert_same_graph(loads_asrel2(dump_10k), loads_asrel2_oracle(dump_10k))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_arbitrary_clean_snapshots(self, data):
        """Unique links of every kind, with source fields, comments,
        blank lines and padding between them."""
        asns = data.draw(
            st.lists(st.integers(1, 2**32 - 1), min_size=2, max_size=16, unique=True)
        )
        pairs = data.draw(
            st.lists(
                st.tuples(st.sampled_from(asns), st.sampled_from(asns)).filter(
                    lambda pair: pair[0] != pair[1]
                ),
                unique_by=frozenset,
                max_size=40,
            )
        )
        lines = []
        for a, b in pairs:
            code = data.draw(st.sampled_from(["-1", "0", "2"]))
            source = data.draw(st.sampled_from(["", "|bgp", "|mlp"]))
            pad = data.draw(st.sampled_from(["", " ", "\t"]))
            lines.append(f"{pad}{a}|{b}|{code}{source}{pad}")
            lines += data.draw(st.lists(st.sampled_from(["", "# clique", "   "]), max_size=2))
        assert_loads_alike("\n".join(lines))

    @settings(max_examples=200, deadline=None)
    @given(
        lines=st.lists(
            st.one_of(
                st.tuples(
                    st.sampled_from(["1", "2", "3", "0", "-4", "4294967295", "4294967296",
                                     str(2**63), str(-(2**63) - 1), "x"]),
                    st.sampled_from(["1", "2", "3", "4294967295", str(2**64)]),
                    st.sampled_from(["-1", "0", "2", "1", "7", "y"]),
                    st.sampled_from(["", "|bgp", "|bgp|extra"]),
                ).map(lambda parts: "|".join(parts[:3]) + parts[3]),
                st.sampled_from(["", "# note", "1|2", "1"]),
            ),
            max_size=12,
        )
    )
    def test_arbitrary_mangled_snapshots(self, lines):
        """Any mix of bad shapes, bad fields, bad ASNs, self-loops and
        repeats: the same graph or the same message."""
        assert_loads_alike("\n".join(lines))


class TestFromEdgeColumns:
    def test_the_first_refused_row_raises_its_insert_error(self):
        with pytest.raises(DuplicateEdgeError) as raised:
            ASGraph.from_edge_columns([1, 2, 3, 2], [2, 3, 4, 1], [-1, 0, 2, 2])
        assert raised.value.row == 3
        assert str(raised.value) == "edge AS2-AS1 already exists with relationship provider"

    @pytest.mark.parametrize(
        ("a", "b", "code", "message"),
        [
            (9, 9, 0, "self-loop on AS9 is not allowed"),
            (0, 9, 0, "AS numbers must be positive integers, got 0"),
            (9, 2**32, 0, "AS numbers are 32-bit (at most 4294967295), got 4294967296"),
            (1, 9, 1, "unknown relationship code 1"),
        ],
    )
    def test_a_refused_row_says_why(self, a, b, code, message):
        with pytest.raises(TopologyError) as raised:
            ASGraph.from_edge_columns([1, a], [2, b], [-1, code])
        assert raised.value.row == 1
        assert str(raised.value) == message

    def test_no_rows_is_an_empty_graph(self):
        graph = ASGraph.from_edge_columns([], [], [])
        assert len(graph) == 0 and graph.num_edges == 0


class TestCompileMatchesOracle:
    def test_loaded_graphs(self, dump_scale4, dump_10k):
        for text in ((FIXTURES / "mini.as-rel2.txt").read_text(), dump_scale4, dump_10k):
            graph = loads_asrel2(text)
            assert graph._columns is not None
            assert columns(CompiledTopology.of(graph)) == columns(compile_oracle(graph))

    def test_generated_graphs(self, small_world):
        for graph in (small_world.graph, generate_powerlaw_topology(SCALE_10K, seed=23).graph):
            assert graph._columns is None
            assert columns(CompiledTopology.of(graph)) == columns(compile_oracle(graph))

    def test_isolated_ases_and_no_edges(self):
        graph = ASGraph()
        for asn in (30, 4294967295, 7):
            graph.add_as(asn)
        topo = CompiledTopology.of(graph)
        assert columns(topo) == columns(compile_oracle(graph))
        assert list(topo.asn) == [7, 30, 4294967295]
        assert list(topo.iter_order) == [1, 2, 0]


MUTATIONS = {
    "add_as": lambda g: g.add_as(77),
    "add_p2c": lambda g: g.add_p2c(64515, 77),
    "add_p2p": lambda g: g.add_p2p(174, 64515),
    "add_s2s": lambda g: g.add_s2s(64512, 64513),
    "remove_edge": lambda g: g.remove_edge(174, 3356),
}


class TestColumnMemo:
    @staticmethod
    def loaded() -> ASGraph:
        return loads_asrel2((FIXTURES / "mini.as-rel2.txt").read_text())

    def test_compiling_releases_the_columns(self):
        graph = self.loaded()
        topo = CompiledTopology.of(graph)
        assert graph._columns is None
        assert CompiledTopology.of(graph) is topo

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_a_mutation_after_load_is_compiled(self, name):
        graph = self.loaded()
        before = columns(compile_oracle(graph))
        MUTATIONS[name](graph)
        assert graph._columns is None
        topo = CompiledTopology.of(graph)
        assert columns(topo) == columns(compile_oracle(graph))
        assert columns(topo) != before

    def test_copy_and_pickle_carry_no_columns(self):
        graph = self.loaded()
        clone = graph.copy()
        restored = pickle.loads(pickle.dumps(graph))
        assert graph._columns is not None
        assert clone._columns is None and restored._columns is None
        expected = columns(compile_oracle(graph))
        assert columns(CompiledTopology.of(clone)) == expected
        assert columns(CompiledTopology.of(restored)) == expected
