"""The two ``ablation-defense`` defences: reactive padding reduction
(:mod:`repro.mitigation.reactive`) and cautious padding adoption
(:class:`repro.secpol.PrependGuardPolicy` at a random deployment
fraction)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attack.interception import simulate_interception
from repro.bgp.engine import PropagationEngine
from repro.bgp.prepending import PrependingPolicy
from repro.exceptions import SimulationError
from repro.mitigation import reactive_padding_reduction
from repro.secpol import (
    PrependGuardPolicy,
    padding_registry,
    simulate_cautious_deployment,
)


@pytest.fixture(scope="module")
def attack_world(request):
    """The first effective Tier-1-vs-content attack in the small world."""
    small_world = request.getfixturevalue("small_world")
    engine = PropagationEngine(small_world.graph)
    for attacker in small_world.tier1 + small_world.tier2[:5]:
        for victim in small_world.content + small_world.tier3[:5]:
            if victim == attacker:
                continue
            result = simulate_interception(
                engine, victim=victim, attacker=attacker, origin_padding=4
            )
            if result.report.gain > 0.02:
                return small_world, engine, result
    pytest.fail("no effective attack found in the small world")


class TestReactiveMitigation:
    def test_padding_reduction_removes_gain(self, attack_world):
        world, engine, result = attack_world
        assert result.report.gain > 0, "need an effective attack to mitigate"
        mitigation = reactive_padding_reduction(engine, result)
        assert mitigation.report.gain == pytest.approx(0.0, abs=1e-12)
        assert mitigation.new_padding == 1

    def test_partial_reduction_shrinks_gain(self, attack_world):
        world, engine, result = attack_world
        partial = reactive_padding_reduction(engine, result, new_padding=2)
        assert partial.report.gain <= result.report.gain + 1e-9

    def test_te_shift_bounded(self, attack_world):
        _, engine, result = attack_world
        mitigation = reactive_padding_reduction(engine, result)
        assert 0.0 <= mitigation.traffic_engineering_shift <= 1.0

    def test_invalid_padding_rejected(self, attack_world):
        _, engine, result = attack_world
        with pytest.raises(SimulationError):
            reactive_padding_reduction(engine, result, new_padding=0)


class TestPaddingRegistry:
    def test_registry_matches_configured_policy(self, small_world, small_engine):
        origin = small_world.tier3[1]
        prepending = PrependingPolicy()
        paddings = {}
        for index, neighbor in enumerate(
            sorted(small_world.graph.neighbors_of(origin))
        ):
            count = 1 + index % 3
            prepending.set_padding(origin, neighbor, count)
            paddings[neighbor] = count
        outcome = small_engine.propagate(origin, prepending=prepending)
        registry = padding_registry(outcome, origin)
        for first_hop, padding in registry.items():
            assert paddings[first_hop] == padding


class TestCautiousGuard:
    """The guard a deployer runs is ``PrependGuardPolicy.check``."""

    def test_guard_rejects_undercut_padding(self):
        guard = PrependGuardPolicy(100, {1: 3})
        assert not guard.check(5, 9, (9, 1, 100))          # padding 1 < history 3
        assert guard.check(5, 9, (9, 1, 100, 100, 100))    # padding matches
        assert guard.check(5, 9, (9, 1, 100, 100, 100, 100))  # more padding is fine

    def test_guard_ignores_other_origins(self):
        guard = PrependGuardPolicy(100, {1: 3})
        assert guard.check(5, 9, (9, 1, 55))
        assert guard.check(5, 9, ())

    def test_guard_accepts_unknown_first_hop(self):
        guard = PrependGuardPolicy(100, {1: 3})
        assert guard.check(5, 9, (9, 2, 100))

    def test_refresh_updates_history(self):
        """A legitimately learned padding is a new registry, and the
        guard built from it accepts what the old history refused."""
        registry = {1: 3}
        assert not PrependGuardPolicy(100, registry).check(5, 9, (9, 1, 100))
        registry[1] = 1
        assert PrependGuardPolicy(100, registry).check(5, 9, (9, 1, 100))


class TestCautiousDeployment:
    def test_full_deployment_blocks_pollution(self, attack_world):
        world, engine, result = attack_world
        report = simulate_cautious_deployment(
            engine,
            victim=result.attack.victim,
            attacker=result.attack.attacker,
            origin_padding=4,
            deployment_fraction=1.0,
            rng=random.Random(0),
        )
        assert report.gain <= 0.0 + 1e-12

    def test_zero_deployment_equals_attack(self, attack_world):
        world, engine, result = attack_world
        report = simulate_cautious_deployment(
            engine,
            victim=result.attack.victim,
            attacker=result.attack.attacker,
            origin_padding=4,
            deployment_fraction=0.0,
            rng=random.Random(0),
        )
        assert report.after_fraction == pytest.approx(
            result.report.after_fraction, abs=1e-9
        )

    def test_invalid_fraction_rejected(self, attack_world):
        _, engine, result = attack_world
        with pytest.raises(SimulationError):
            simulate_cautious_deployment(
                engine,
                victim=result.attack.victim,
                attacker=result.attack.attacker,
                origin_padding=4,
                deployment_fraction=1.5,
                rng=random.Random(0),
            )

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_deployment_never_helps_the_attacker(self, seed):
        """Property: at any deployment fraction the attack never gains
        more than undefended."""
        from tests.conftest import SMALL_CONFIG
        from repro.topology.generators import generate_internet_topology

        rng = random.Random(seed)
        world = generate_internet_topology(SMALL_CONFIG, rng)
        engine = PropagationEngine(world.graph)
        attacker = rng.choice(world.tier1 + world.tier2)
        victim = rng.choice([a for a in world.graph.ases if a != attacker])
        undefended = simulate_interception(
            engine, victim=victim, attacker=attacker, origin_padding=3
        )
        fraction = rng.choice((0.25, 0.5, 0.75))
        defended = simulate_cautious_deployment(
            engine,
            victim=victim,
            attacker=attacker,
            origin_padding=3,
            deployment_fraction=fraction,
            rng=rng,
        )
        assert defended.after_fraction <= undefended.report.after_fraction + 1e-9
