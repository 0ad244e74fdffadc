"""Deployment strategies: rankings, nesting, exclusions, validation."""

from __future__ import annotations

import random

import pytest

from repro.bgp.prepending import PrependingPolicy
from repro.exceptions import SimulationError
from repro.secpol import (
    SecurityDeployment,
    build_deployment,
    deployment_ranking,
    make_policy,
    select_deployers,
)
from repro.topology.generators import InternetTopologyConfig, generate_internet_topology
from repro.topology.tiers import customer_cone, tier1_ases
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
    return generate_internet_topology(TINY, random.Random(7))


class TestRankings:
    @pytest.mark.parametrize(
        "strategy", ["random", "top-degree-first", "tier1-only", "victim-cone"]
    )
    def test_deterministic(self, world, strategy):
        victim = world.tier1[0]
        first = deployment_ranking(world.graph, strategy, victim=victim, seed=3)
        second = deployment_ranking(world.graph, strategy, victim=victim, seed=3)
        assert first == second

    def test_random_is_seeded(self, world):
        a = deployment_ranking(world.graph, "random", seed=1)
        b = deployment_ranking(world.graph, "random", seed=2)
        assert sorted(a) == sorted(b) == sorted(world.graph.ases)
        assert a != b

    def test_top_degree_first_is_sorted_by_degree(self, world):
        ranking = deployment_ranking(world.graph, "top-degree-first")
        degrees = [world.graph.degree(a) for a in ranking]
        assert degrees == sorted(degrees, reverse=True)
        assert sorted(ranking) == sorted(world.graph.ases)

    def test_tier1_only_pool_is_the_clique(self, world):
        ranking = deployment_ranking(world.graph, "tier1-only")
        assert set(ranking) == set(tier1_ases(world.graph))

    def test_victim_cone_pool_is_the_cone(self, world):
        victim = world.tier1[0]
        ranking = deployment_ranking(world.graph, "victim-cone", victim=victim)
        assert set(ranking) == set(customer_cone(world.graph, victim))

    def test_victim_cone_requires_a_victim(self, world):
        with pytest.raises(SimulationError):
            deployment_ranking(world.graph, "victim-cone")

    def test_unknown_strategy_rejected(self, world):
        with pytest.raises(SimulationError):
            deployment_ranking(world.graph, "alphabetical")


class TestSelectDeployers:
    def test_nested_across_fractions(self, world):
        ranking = deployment_ranking(world.graph, "top-degree-first")
        previous: set[int] = set()
        for fraction in (0.0, 0.25, 0.5, 0.75, 1.0):
            deployers = set(select_deployers(ranking, fraction))
            assert previous <= deployers
            previous = deployers
        assert previous == set(ranking)

    def test_exclusions_shrink_the_pool_not_the_prefix(self, world):
        ranking = deployment_ranking(world.graph, "top-degree-first")
        excluded = ranking[0]
        deployers = select_deployers(ranking, 1.0, exclude=(excluded,))
        assert excluded not in deployers
        assert len(deployers) == len(ranking) - 1

    @pytest.mark.parametrize("fraction", [-0.1, 1.01, 2.0])
    def test_out_of_range_fraction_rejected(self, fraction):
        with pytest.raises(SimulationError):
            select_deployers((1, 2, 3), fraction)


class TestMakePolicy:
    def test_unknown_policy_rejected(self, world):
        with pytest.raises(SimulationError):
            make_policy("bgpsec", graph=world.graph, victim=world.tier1[0])

    def test_prependguard_requires_a_registry(self, world):
        with pytest.raises(SimulationError):
            make_policy("prependguard", graph=world.graph, victim=world.tier1[0])

    @pytest.mark.parametrize("name", ["rov", "aspa"])
    def test_known_policies_build(self, world, name):
        policy = make_policy(name, graph=world.graph, victim=world.tier1[0])
        assert policy.name == name


class TestBuildDeployment:
    def test_none_policy_and_zero_fraction_are_noops(self, world):
        victim, attacker = world.tier1[0], world.tier2[0]
        common = dict(
            strategy="top-degree-first",
            victim=victim,
            attacker=attacker,
        )
        assert build_deployment(world.graph, policy="none", fraction=1.0, **common) is None
        assert build_deployment(world.graph, policy=None, fraction=1.0, **common) is None
        assert build_deployment(world.graph, policy="rov", fraction=0.0, **common) is None

    def test_victim_and_attacker_never_deploy(self, world):
        victim, attacker = world.tier1[0], world.tier2[0]
        deployment = build_deployment(
            world.graph,
            policy="aspa",
            strategy="top-degree-first",
            fraction=1.0,
            victim=victim,
            attacker=attacker,
        )
        assert isinstance(deployment, SecurityDeployment)
        assert victim not in deployment.deployers
        assert attacker not in deployment.deployers

    def test_prependguard_needs_baseline_or_registry(self, world):
        victim, attacker = world.tier1[0], world.tier2[0]
        with pytest.raises(SimulationError):
            build_deployment(
                world.graph,
                policy="prependguard",
                strategy="top-degree-first",
                fraction=0.5,
                victim=victim,
                attacker=attacker,
            )
        engine = ReferenceEngine(world.graph)
        baseline = engine.propagate(
            victim, prepending=PrependingPolicy.uniform_origin(victim, 3)
        )
        deployment = build_deployment(
            world.graph,
            policy="prependguard",
            strategy="top-degree-first",
            fraction=0.5,
            victim=victim,
            attacker=attacker,
            baseline=baseline,
        )
        assert deployment is not None
        assert deployment.name == "prependguard"
