"""Unit tests for the relationship-annotated AS graph."""

from __future__ import annotations

import pytest

from repro.bgp.compiled import CompiledTopology
from repro.exceptions import DuplicateEdgeError, TopologyError, UnknownASError
from repro.topology.asgraph import ASGraph
from repro.topology.relationships import Relationship
from tests.topology.adjacency_oracle import is_path_valley_free


class TestConstruction:
    def test_add_as_idempotent(self):
        graph = ASGraph()
        graph.add_as(1)
        graph.add_as(1)
        assert len(graph) == 1

    @pytest.mark.parametrize("bad", [0, -1, "x", 1.5, True])
    def test_invalid_asn_rejected(self, bad):
        graph = ASGraph()
        with pytest.raises(TopologyError):
            graph.add_as(bad)

    def test_self_loop_rejected(self):
        graph = ASGraph()
        with pytest.raises(TopologyError):
            graph.add_p2p(1, 1)

    def test_duplicate_edge_rejected(self):
        graph = ASGraph()
        graph.add_p2c(1, 2)
        with pytest.raises(DuplicateEdgeError):
            graph.add_p2p(1, 2)
        with pytest.raises(DuplicateEdgeError):
            graph.add_p2c(2, 1)

    @pytest.mark.parametrize("add", ["add_p2c", "add_p2p", "add_s2s"])
    @pytest.mark.parametrize(
        ("endpoints", "error", "message"),
        [
            # True and 1.0 hash like AS1, which exists: still refused
            ((True, 5), TopologyError, "AS numbers must be positive integers, got True"),
            ((5, True), TopologyError, "AS numbers must be positive integers, got True"),
            ((1.0, 2), TopologyError, "AS numbers must be positive integers, got 1.0"),
            ((-1, 2), TopologyError, "AS numbers must be positive integers, got -1"),
            (([1], 2), TopologyError, "AS numbers must be positive integers, got [1]"),
            ((1, 1), TopologyError, "self-loop on AS1 is not allowed"),
            ((9, 9), TopologyError, "self-loop on AS9 is not allowed"),
            ((1, 2), DuplicateEdgeError, "edge AS1-AS2 already exists with relationship customer"),
            ((2, 1), DuplicateEdgeError, "edge AS2-AS1 already exists with relationship provider"),
            ((3, 2), DuplicateEdgeError, "edge AS3-AS2 already exists with relationship peer"),
            ((3, 4), DuplicateEdgeError, "edge AS3-AS4 already exists with relationship sibling"),
        ],
    )
    def test_refused_insert_says_why_and_adds_no_edge(self, add, endpoints, error, message):
        graph = ASGraph()
        graph.add_p2c(1, 2)
        graph.add_p2p(2, 3)
        graph.add_s2s(3, 4)
        before = list(graph.edges())
        with pytest.raises(error) as raised:
            getattr(graph, add)(*endpoints)
        assert type(raised.value) is error
        assert str(raised.value) == message
        assert graph.num_edges == 3
        assert list(graph.edges()) == before
        assert all(graph.degree(asn) == 0 for asn in graph if asn > 4)

    def test_insert_after_a_memoised_read_is_seen(self):
        """The compiled CSR form is memoised on the graph; an insert
        after a read drops it."""
        graph = ASGraph()
        graph.add_p2c(1, 2)
        assert len(CompiledTopology.of(graph).nbr) == 2
        graph.add_p2p(1, 3)
        topo = CompiledTopology.of(graph)
        assert [topo.asn[k] for k in topo.nbr] == [2, 3, 1, 1]

    def test_add_edge_dispatch(self):
        graph = ASGraph()
        graph.add_edge(1, 2, Relationship.CUSTOMER)   # 2 is 1's customer
        graph.add_edge(2, 3, Relationship.PROVIDER)   # 3 is 2's provider
        graph.add_edge(4, 5, Relationship.PEER)
        graph.add_edge(6, 7, Relationship.SIBLING)
        assert graph.relationship(1, 2) is Relationship.CUSTOMER
        assert graph.relationship(3, 2) is Relationship.CUSTOMER
        assert graph.relationship(4, 5) is Relationship.PEER
        assert graph.relationship(7, 6) is Relationship.SIBLING

    def test_add_edge_rejects_none(self):
        graph = ASGraph()
        with pytest.raises(TopologyError):
            graph.add_edge(1, 2, Relationship.NONE)

    def test_remove_edge(self):
        graph = ASGraph()
        graph.add_p2c(1, 2)
        graph.add_p2p(2, 3)
        graph.remove_edge(2, 1)
        assert not graph.has_edge(1, 2)
        assert graph.num_edges == 1
        with pytest.raises(TopologyError):
            graph.remove_edge(1, 2)


class TestQueries:
    @pytest.fixture()
    def graph(self) -> ASGraph:
        g = ASGraph()
        g.add_p2c(1, 2)
        g.add_p2c(1, 3)
        g.add_p2p(2, 3)
        g.add_s2s(3, 4)
        return g

    def test_role_sets(self, graph):
        assert graph.customers_of(1) == {2, 3}
        assert graph.providers_of(2) == {1}
        assert graph.peers_of(2) == {3}
        assert graph.siblings_of(4) == {3}

    def test_neighbors_and_degree(self, graph):
        assert graph.neighbors_of(3) == {1, 2, 4}
        assert graph.degree(3) == 3
        assert graph.transit_degree(1) == 2
        assert graph.transit_degree(4) == 0

    def test_unknown_as_raises(self, graph):
        with pytest.raises(UnknownASError):
            graph.customers_of(99)

    def test_relationship_directionality(self, graph):
        assert graph.relationship(1, 2) is Relationship.CUSTOMER
        assert graph.relationship(2, 1) is Relationship.PROVIDER
        assert graph.relationship(2, 3) is Relationship.PEER
        assert graph.relationship(1, 4) is Relationship.NONE
        assert graph.relationship(1, 99) is Relationship.NONE

    def test_edges_iteration_is_canonical(self, graph):
        edges = list(graph.edges())
        assert (1, 2, Relationship.CUSTOMER) in edges
        assert (2, 3, Relationship.PEER) in edges
        assert (3, 4, Relationship.SIBLING) in edges
        assert len(edges) == graph.num_edges

    def test_copy_is_deep(self, graph):
        clone = graph.copy()
        clone.remove_edge(1, 2)
        assert graph.has_edge(1, 2)
        assert not clone.has_edge(1, 2)

    def test_copy_preserves_order_edges_and_count(self, small_world):
        graph = small_world.graph
        clone = graph.copy()
        assert list(clone) == list(graph)
        assert list(clone.edges()) == list(graph.edges())
        assert clone.num_edges == graph.num_edges
        clone.add_p2c(max(graph.ases) + 1, graph.ases[0])
        assert clone.num_edges == graph.num_edges + 1
        assert len(clone) == len(graph) + 1

    def test_ases_sorted(self, graph):
        assert graph.ases == sorted(graph.ases)


class TestValleyFree:
    """The test-side valley-free check the engine suites rely on."""

    @pytest.fixture()
    def graph(self) -> ASGraph:
        # 1 -peer- 2 at the top; 3 below 1; 4 below 2; 5 below 3.
        g = ASGraph()
        g.add_p2p(1, 2)
        g.add_p2c(1, 3)
        g.add_p2c(2, 4)
        g.add_p2c(3, 5)
        g.add_s2s(4, 5)
        return g

    def test_pure_uphill_valid(self, graph):
        # Announcement 5 -> 3 -> 1 appears at 1 as [3 5].
        assert is_path_valley_free(graph, (3, 5))

    def test_up_peer_down_valid(self, graph):
        # 5 announces, 3 -> 1 -peer- 2 -> 4; at 4 the path is [2 1 3 5].
        assert is_path_valley_free(graph, (2, 1, 3, 5))

    def test_two_peer_hops_invalid(self, graph):
        graph.add_p2p(3, 4)
        # 5 -> 3 -peer- 4 ... -peer- 2 would need two peer hops.
        assert not is_path_valley_free(graph, (2, 4, 3, 5))

    def test_pure_downhill_valid(self, graph):
        # Announcement 1 -> 3 -> 5: at 5 the path is [3, 1]; a provider
        # route chain is legal.
        assert is_path_valley_free(graph, (3, 1))

    def test_valley_invalid(self, graph):
        # Give 3 a second provider 6; travelling 1 -> 3 (down) and then
        # 3 -> 6 (up) is the canonical forbidden valley.
        graph.add_p2c(6, 3)
        assert not is_path_valley_free(graph, (6, 3, 1))

    def test_peer_after_down_invalid(self, graph):
        # 1 -> 3 (down) then a peering hop is equally forbidden.
        graph.add_p2p(3, 4)
        assert not is_path_valley_free(graph, (4, 3, 1))

    def test_prepending_transparent(self, graph):
        assert is_path_valley_free(graph, (3, 3, 3, 5, 5))

    def test_sibling_transparent(self, graph):
        # 5 -sibling- 4: path [4 5] at 2 came 5 -> 4 (sibling) -> 2 (up).
        assert is_path_valley_free(graph, (4, 5))

    def test_unknown_edge_invalid(self, graph):
        assert not is_path_valley_free(graph, (1, 5))

    def test_trivial_paths_valid(self, graph):
        assert is_path_valley_free(graph, ())
        assert is_path_valley_free(graph, (1,))
