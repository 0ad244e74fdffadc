"""Unit semantics of the security policies, in both path spaces."""

from __future__ import annotations

import pickle
import random

import pytest

from repro.attack.interception import simulate_interception
from repro.bgp.aspath import split_origin_padding
from repro.bgp.compiled import CompiledTopology, InternTable
from repro.bgp.engine import PropagationEngine
from repro.bgp.prepending import PrependingPolicy
from repro.secpol import (
    AspaPolicy,
    PrependGuardPolicy,
    RovPolicy,
    padding_registry,
)
from repro.topology.generators import InternetTopologyConfig, generate_internet_topology
from repro.topology.relationships import Relationship
from tests.bgp.reference_engine import ReferenceEngine

TINY = InternetTopologyConfig(
    num_tier1=3,
    num_tier2=5,
    num_tier3=10,
    num_tier4=8,
    num_stubs=25,
    num_content=2,
    sibling_pairs=2,
)


@pytest.fixture(scope="module")
def world():
    return generate_internet_topology(TINY, random.Random(42))


@pytest.fixture(scope="module")
def attack_paths(world):
    """Every (receiver, sender, path) offer a leaking attack produces —
    a corpus rich in honest, padded, stripped and leaked paths."""
    engine = ReferenceEngine(world.graph)
    victim = world.tier1[0]
    attacker = world.tier2[0]
    result = simulate_interception(
        engine,
        victim=victim,
        attacker=attacker,
        origin_padding=3,
        violate_policy=True,
    )
    corpus = []
    for outcome in (result.baseline, result.attacked):
        for receiver, offers in outcome.adj_rib_in.items():
            for sender, offer in offers.items():
                if offer is not None:
                    corpus.append((receiver, sender, offer[0]))
    registry = padding_registry(result.baseline, victim)
    return victim, attacker, corpus, registry


class TestRov:
    def test_accepts_any_path_ending_at_origin(self):
        policy = RovPolicy(9)
        assert policy.check(1, 2, (2, 9))
        assert policy.check(1, 2, (2, 9, 9, 9))  # padding is irrelevant
        assert policy.check(1, 2, (9,))

    def test_rejects_other_origins_and_empty(self):
        policy = RovPolicy(9)
        assert not policy.check(1, 2, (2, 8))
        assert not policy.check(1, 2, (9, 8))  # origin is the last hop
        assert not policy.check(1, 2, ())


class TestAspaStepMachine:
    def test_up_steps_only_before_the_apex(self):
        step = AspaPolicy._step
        up, down = 0, 1
        assert step(Relationship.CUSTOMER, up) == up
        assert step(Relationship.CUSTOMER, down) == -1  # a valley

    def test_peer_is_the_apex(self):
        step = AspaPolicy._step
        up, down = 0, 1
        assert step(Relationship.PEER, up) == down
        assert step(Relationship.PEER, down) == -1  # second crossing

    def test_provider_descends_and_siblings_are_transparent(self):
        step = AspaPolicy._step
        up, down = 0, 1
        assert step(Relationship.PROVIDER, up) == down
        assert step(Relationship.PROVIDER, down) == down
        assert step(Relationship.SIBLING, up) == up
        assert step(Relationship.SIBLING, down) == down

    def test_unknown_adjacency_is_rejected(self):
        assert AspaPolicy._step(Relationship.NONE, 0) == -1


class TestAspa:
    def test_accepts_every_honest_best_route(self, world):
        engine = ReferenceEngine(world.graph)
        origin = world.tier2[1]
        outcome = engine.propagate(
            origin, prepending=PrependingPolicy.uniform_origin(origin, 3)
        )
        policy = AspaPolicy(world.graph)
        for asn, route in outcome.best.items():
            if asn == origin or route is None:
                continue
            assert policy.check(asn, route.path[0], route.path), (asn, route.path)

    def test_rejects_fabricated_links(self, world):
        policy = AspaPolicy(world.graph)
        ases = world.graph.ases
        a = ases[0]
        non_neighbors = [b for b in ases if b != a and b not in world.graph.neighbors_of(a)]
        b = non_neighbors[0]
        receiver = sorted(world.graph.neighbors_of(b))[0]
        assert not policy.check(receiver, b, (b, a))

    def test_rejects_paths_through_unknown_ases(self, world):
        policy = AspaPolicy(world.graph)
        foreign = max(world.graph.ases) + 5
        a = world.graph.ases[0]
        assert not policy.check(a, foreign, (foreign, a))


class TestPrependGuard:
    def test_registry_matches_cautious_defense_layer(self, world):
        """The oracle's eager baseline (the tuple walk) and the engine's
        (the interned-chain walk) give one registry."""
        victim = world.tier1[0]
        prepending = PrependingPolicy.uniform_origin(victim, 3)
        eager = ReferenceEngine(world.graph).propagate(victim, prepending=prepending)
        compiled = PropagationEngine(world.graph).propagate(
            victim, prepending=prepending
        )
        assert eager.compiled_state is None
        assert padding_registry(eager, victim) == padding_registry(compiled, victim)

    def test_compiled_state_registry_matches_tuple_build(self, world):
        engine = PropagationEngine(world.graph)
        victim = world.tier1[0]
        baseline = engine.propagate(
            victim, prepending=PrependingPolicy.uniform_origin(victim, 3)
        )
        assert baseline.compiled_state is not None
        unpickled = pickle.loads(pickle.dumps(baseline))
        assert unpickled.compiled_state is None
        assert padding_registry(baseline, victim) == padding_registry(
            unpickled, victim
        )

    def test_verdicts_match_cautious_guard(self, attack_paths):
        """On every offer an actual attack produces the policy states
        cautious padding adoption: a route for the victim is refused iff
        its origin padding undercuts the history of its first hop (the
        last non-victim AS on it, or the sender)."""
        victim, _, corpus, registry = attack_paths
        policy = PrependGuardPolicy(victim, registry)
        for receiver, sender, path in corpus:
            expected = True
            if path and path[-1] == victim:
                head, _, padding = split_origin_padding(path)
                hops = [hop for hop in head if hop != victim]
                known = registry.get(hops[-1] if hops else sender)
                expected = known is None or padding >= known
            assert policy.check(receiver, sender, path) == expected, path

    def test_routes_for_other_origins_pass(self):
        policy = PrependGuardPolicy(9, {5: 3})
        assert policy.check(1, 5, (5, 7))
        assert not policy.check(1, 5, (5, 9))  # shrunk below the history
        assert policy.check(1, 5, (5, 9, 9, 9))
        assert policy.check(1, 6, (6, 9))  # unknown first hop: no history


class TestCompiledCheckers:
    @pytest.fixture(scope="class")
    def table(self, world):
        return InternTable(CompiledTopology.from_graph(world.graph))

    def _policies(self, world, victim, registry):
        return (
            RovPolicy(victim),
            AspaPolicy(world.graph),
            PrependGuardPolicy(victim, registry),
        )

    def test_pid_space_matches_tuple_space(self, world, attack_paths, table):
        victim, _, corpus, registry = attack_paths
        for policy in self._policies(world, victim, registry):
            checker = policy.compiled_checker(table)
            for receiver, sender, path in corpus:
                expected = policy.check(receiver, sender, path)
                got = checker(
                    table.index_of(receiver),
                    table.index_of(sender),
                    table.intern_tuple(path),
                )
                assert got == expected, (policy.name, receiver, sender, path)

    def test_checker_memoised_per_table(self, world, table):
        policy = AspaPolicy(world.graph)
        assert policy.compiled_checker(table) is policy.compiled_checker(table)
        other = InternTable(CompiledTopology.from_graph(world.graph))
        assert policy.compiled_checker(other) is not policy.compiled_checker(table)
