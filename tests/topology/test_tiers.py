"""Tests for tier classification and customer cones.

``TestMatchesOracle`` holds the tier and cone queries, which read the
graph's relatives maps, to the set-walking oracle
(``tests/topology/tiers_oracle.py``) on generated, loaded and
arbitrary graphs.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings

from repro.exceptions import SerializationError, TopologyError, UnknownASError
from repro.experiments.base import generate_world
from repro.topology.asgraph import ASGraph
from repro.topology.generators import generate_powerlaw_topology
from repro.topology.relationships import Relationship
from repro.topology.serialization import dumps_caida, loads_asrel2
from repro.topology.tiers import (
    classify_tiers,
    customer_cone,
    provider_ancestors,
    tier1_ases,
)
from tests.topology import tiers_oracle
from tests.topology.test_bulk_load import SCALE_10K, clean_snapshots, mangled_snapshots

FIXTURES = Path(__file__).parent / "fixtures"


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


def outcome(query, *args):
    """``query(*args)``, or the type and message of the error it raised."""
    try:
        return query(*args)
    except (TopologyError, UnknownASError) as exc:
        return type(exc), str(exc)


def assert_tiers_alike(graph: ASGraph, *, every: int = 1) -> None:
    """Tier-1 set, tiers, and every ``every``-th AS's cone and
    ancestors, as the oracle computes them (or the same error)."""
    for name in ("tier1_ases", "classify_tiers"):
        ours, theirs = globals()[name], getattr(tiers_oracle, name)
        assert outcome(ours, graph) == outcome(theirs, graph), name
    for asn in [*list(graph)[::every], 0, 2**32]:  # and two unknown ASes
        for ours, theirs in (
            (customer_cone, tiers_oracle.customer_cone),
            (provider_ancestors, tiers_oracle.provider_ancestors),
        ):
            assert outcome(ours, graph, asn) == outcome(theirs, graph, asn), (ours, asn)


class TestMatchesOracle:
    def test_mini_fixture(self):
        assert_tiers_alike(loads_asrel2((FIXTURES / "mini.as-rel2.txt").read_text()))

    def test_hand_built_graphs(self, hierarchy):
        assert_tiers_alike(hierarchy)
        assert_tiers_alike(ASGraph())
        island = ASGraph()
        island.add_p2p(1, 2)
        island.add_p2c(1, 3)
        island.add_p2c(5, 6)  # provider-free outside the clique
        island.add_p2c(7, 8)
        island.add_p2c(8, 7 + 2)
        island.add_p2c(9, 7)  # a transit cycle with no way in from the core
        assert_tiers_alike(island)

    @pytest.mark.parametrize("scale", [0.2, 1.0, 4.0])
    def test_seed7_worlds(self, scale):
        graph = generate_world(seed=7, scale=scale).graph
        assert_tiers_alike(graph, every=1 if scale < 4 else 5)
        assert_tiers_alike(loads_asrel2(dumps_caida(graph)), every=7)

    def test_10k_dump_reads_no_set(self):
        graph = loads_asrel2(dumps_caida(generate_powerlaw_topology(SCALE_10K, seed=7).graph))
        ours = (tier1_ases(graph), classify_tiers(graph), [customer_cone(graph, a) for a in graph])
        # the customer map alone: no pair map, degree count or other role map
        assert set(graph._relatives) == {Relationship.CUSTOMER}
        assert graph._pairs is None and graph._degrees is None
        assert ours[0] == tiers_oracle.tier1_ases(graph)
        assert ours[1] == tiers_oracle.classify_tiers(graph)
        assert ours[2] == [tiers_oracle.customer_cone(graph, a) for a in graph]
        assert_tiers_alike(graph, every=11)

    @settings(max_examples=100, deadline=None)
    @given(text=clean_snapshots())
    def test_arbitrary_clean_snapshots(self, text):
        assert_tiers_alike(loads_asrel2(text))

    @settings(max_examples=100, deadline=None)
    @given(text=mangled_snapshots())
    def test_arbitrary_mangled_snapshots(self, text):
        try:
            graph = loads_asrel2(text)
        except SerializationError:
            return
        assert_tiers_alike(graph)

    def test_a_mutation_is_seen(self, hierarchy):
        assert customer_cone(hierarchy, 20) == {20, 30}
        hierarchy.add_p2c(20, 40)
        assert customer_cone(hierarchy, 20) == {20, 30, 40}
        assert classify_tiers(hierarchy)[40] == 4
        assert_tiers_alike(hierarchy)
