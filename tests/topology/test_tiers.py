"""Tests for tier classification and customer cones."""

from __future__ import annotations

import pytest

from repro.exceptions import TopologyError, UnknownASError
from repro.topology.asgraph import ASGraph
from repro.topology.tiers import classify_tiers, customer_cone, tier1_ases


@pytest.fixture()
def hierarchy() -> ASGraph:
    """2-AS Tier-1 clique, a Tier-2, a Tier-3 and a multi-tier stub."""
    g = ASGraph()
    g.add_p2p(1, 2)
    g.add_p2c(1, 10)
    g.add_p2c(2, 10)
    g.add_p2c(10, 20)
    g.add_p2c(20, 30)
    g.add_p2c(1, 30)  # 30 is also directly below tier-1
    return g


class TestTier1:
    def test_clique_detection(self, hierarchy):
        assert tier1_ases(hierarchy) == {1, 2}

    def test_empty_graph_raises(self):
        with pytest.raises(TopologyError):
            tier1_ases(ASGraph())

    def test_largest_mutual_clique_chosen(self):
        g = ASGraph()
        g.add_p2p(1, 2)
        g.add_p2p(2, 3)
        g.add_p2p(1, 3)
        g.add_as(4)  # provider-free but peers with nobody
        clique = tier1_ases(g)
        assert clique == {1, 2, 3}


class TestClassification:
    def test_tier_numbers(self, hierarchy):
        tiers = classify_tiers(hierarchy)
        assert tiers[1] == tiers[2] == 1
        assert tiers[10] == 2
        assert tiers[20] == 3
        assert tiers[30] == 2  # best-placed provider wins

    def test_generated_world_tiers(self, small_world):
        tiers = classify_tiers(small_world.graph)
        assert set(small_world.tier1) == {a for a, t in tiers.items() if t == 1}
        assert all(tiers[t2] == 2 for t2 in small_world.tier2)
        assert max(tiers.values()) >= 4


class TestCones:
    def test_customer_cone_includes_self(self, hierarchy):
        assert customer_cone(hierarchy, 20) == {20, 30}

    def test_customer_cone_transitive(self, hierarchy):
        assert customer_cone(hierarchy, 1) == {1, 10, 20, 30}

    def test_customer_cone_of_a_stub_is_itself(self, hierarchy):
        assert customer_cone(hierarchy, 30) == {30}

    def test_customer_cone_unknown_as(self, hierarchy):
        with pytest.raises(UnknownASError):
            customer_cone(hierarchy, 999)

    def test_customer_cone_matches_public_query_walk(self, small_world):
        graph = small_world.graph

        def walk(asn):
            seen, stack = {asn}, [asn]
            while stack:
                for customer in graph.customers_of(stack.pop()) - seen:
                    seen.add(customer)
                    stack.append(customer)
            return seen

        for asn in graph:
            assert customer_cone(graph, asn) == walk(asn)
