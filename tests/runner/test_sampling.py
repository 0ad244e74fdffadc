"""Bounded attacker/victim sampling.

The seed implementation retried colliding draws forever; the runner's
sampler must keep the exact seeded draw sequence (reproducibility) while
turning the pathological pools into immediate, diagnosable errors.
"""

from __future__ import annotations

import random

import pytest

import repro.runner.sampling as sampling
from repro.exceptions import ExperimentError
from repro.detection.monitors import top_degree_monitors
from repro.experiments.base import build_world
from repro.experiments.base import sample_attack_pairs as world_sample
from repro.experiments.sweeps import campaign
from repro.runner import sample_attack_pairs


def _reference_pairs(attackers, victims, count, rng):
    """The seed repo's unbounded rejection loop, for draw-sequence pins."""
    pairs = []
    while len(pairs) < count:
        attacker = rng.choice(attackers)
        victim = rng.choice(victims)
        if attacker != victim:
            pairs.append((attacker, victim))
    return pairs


def test_draw_sequence_matches_the_unbounded_loop():
    attackers = list(range(1, 20))
    victims = list(range(10, 40))
    for seed in (0, 7, 123):
        expected = _reference_pairs(attackers, victims, 25, random.Random(seed))
        sampled = sample_attack_pairs(attackers, victims, 25, random.Random(seed))
        assert sampled == expected
        assert all(a != v for a, v in sampled)


def test_identical_singleton_pools_fail_fast():
    """The case the seed code spun forever on: every draw collides."""
    with pytest.raises(ExperimentError, match="attacker == victim"):
        sample_attack_pairs([7], [7], 3, random.Random(1))
    # Duplicated entries of one AS are still a singleton pool.
    with pytest.raises(ExperimentError, match="attacker == victim"):
        sample_attack_pairs([7, 7, 7], [7, 7], 3, random.Random(1))


def test_exhausted_attempt_budget_raises(monkeypatch):
    # Two attempts can never yield three pairs, collisions or not.
    monkeypatch.setattr(sampling, "BASE_ATTEMPTS", 2)
    monkeypatch.setattr(sampling, "ATTEMPTS_PER_PAIR", 0)
    with pytest.raises(ExperimentError, match="after 2 draws"):
        sample_attack_pairs([1], [1, 2], 3, random.Random(0))


def test_degenerate_requests_raise():
    rng = random.Random(0)
    with pytest.raises(ExperimentError):
        sample_attack_pairs([1, 2], [3, 4], 0, rng)
    with pytest.raises(ExperimentError):
        sample_attack_pairs([], [3, 4], 1, rng)
    with pytest.raises(ExperimentError):
        sample_attack_pairs([1, 2], [], 1, rng)


def test_campaign_with_colliding_pools_raises():
    """A campaign used to hang on pools that only ever produce
    attacker == victim; now it raises before simulating."""
    world = build_world(seed=3, scale=0.1)
    fleet = top_degree_monitors(world.graph, 10)
    only = world.graph.ases[0]

    def run(pairs, pool):
        return campaign(
            world.engine,
            fleet,
            pairs=pairs,
            padding=3,
            attackers=pool,
            victims=pool,
            rng=random.Random(3),
        )

    with pytest.raises(ExperimentError):
        run(2, [only])
    with pytest.raises(ExperimentError):
        run(0, world.graph.ases)


def test_experiment_sampler_delegates_to_bounded_sampler():
    world = build_world(seed=3, scale=0.1)
    pairs = world_sample(world, 10, random.Random(5))
    transit = set(world.topology.transit_ases)
    assert len(pairs) == 10
    for attacker, victim in pairs:
        assert attacker in transit
        assert attacker != victim
    only = world.graph.ases[0]
    with pytest.raises(ExperimentError):
        world_sample(world, 2, random.Random(5), attacker_pool=[only], victim_pool=[only])
