"""The baseline cache is a memo, and the invariant it used to exploit.

A miss converges the schedule asked for on the engine, exactly once;
everything else is a hit.  The tests cover that accounting, the LRU
bound and the error paths — and pin, as one property, the exactness
claim the impact kernel's length shift and Figure 14's clock still rest
on: a uniform-origin schedule at λ has the activation trace of λ=1 with
the victim's trailing run rewritten.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

import repro.runner.cache as cache_mod
from repro.attack.interception import simulate_interception
from repro.bgp.engine import PropagationEngine
from repro.bgp.prepending import PrependingPolicy
from repro.bgp.route import Route
from repro.detection.monitors import top_degree_monitors
from repro.exceptions import SimulationError
from repro.runner import (
    BaselineCache,
    CampaignPairTask,
    RunConfig,
    run_batch,
    sample_attack_pairs,
)
from repro.telemetry.metrics import RunMetrics

from tests.bgp.loop_oracle import LoopEngine
from tests.bgp.reference_engine import ReferenceEngine
from tests.strategies import cold_convergences, paddings, seeds, tiny_world


def rewrite_uniform(canonical, victim, padding):
    """The λ=1 world with the victim's trailing run padded to ``padding``
    copies: ``(best, adj_rib_in)`` in tuple space."""
    run = (victim,) * padding

    def pad(path):
        return path[:-1] + run if path else path  # the victim's own route is ()

    best = {
        asn: None
        if route is None
        else Route(route.prefix, pad(route.path), route.learned_from, route.pref)
        for asn, route in canonical.best.items()
    }
    adj_rib_in = {
        asn: {
            sender: None if offer is None else (pad(offer[0]), offer[1])
            for sender, offer in offers.items()
        }
        for asn, offers in canonical.adj_rib_in.items()
    }
    return best, adj_rib_in


@pytest.mark.parametrize(
    "backend",
    [
        pytest.param(LoopEngine, id="compiled"),
        pytest.param(ReferenceEngine, id="reference"),
        # as shipped: cold runs are kernel columns
        pytest.param(PropagationEngine, id="vectorized"),
    ],
)
@settings(max_examples=15, deadline=None)
@given(seed=seeds, padding=paddings(2, 6))
def test_uniform_padding_only_rewrites_the_victims_run(backend, seed, padding):
    world, rng = tiny_world(seed)
    victim = rng.choice(world.graph.ases)
    engine = backend(world.graph)
    canonical = engine.propagate(victim)
    padded = engine.propagate(
        victim, prepending=PrependingPolicy.uniform_origin(victim, padding)
    )
    best, adj_rib_in = rewrite_uniform(canonical, victim, padding)
    assert padded.best == best
    assert padded.adj_rib_in == adj_rib_in
    assert padded.adoption_round == canonical.adoption_round
    assert padded.rounds == canonical.rounds


def test_cache_memoises_each_schedule(small_world):
    engine = PropagationEngine(small_world.graph)
    cache = BaselineCache(engine)
    victim = small_world.tier1[0]
    lambdas = range(1, 9)
    for padding in lambdas:
        prepending = PrependingPolicy.uniform_origin(victim, padding)
        cold = engine.propagate(victim, prepending=prepending)
        warm = cache.baseline(victim, prepending=prepending)
        assert warm == cold
        assert warm.best_keys == cold.best_keys
    # One convergence per λ, no hits yet.
    assert cache.misses == len(lambdas)
    assert cache.hits == 0
    # A second sweep is pure cache hits returning identical objects.
    for padding in lambdas:
        prepending = PrependingPolicy.uniform_origin(victim, padding)
        again = cache.baseline(victim, prepending=prepending)
        assert again is cache.baseline(victim, prepending=prepending)
    assert cache.misses == len(lambdas)
    assert cache.hits == 2 * len(lambdas)


def test_a_miss_is_exactly_one_convergence(small_world):
    """A serial 10-pair campaign books one miss, one convergence and one
    cold propagation — on whichever core the engine picked — per distinct
    victim; the same batch again on the same cache is all hits."""
    graph = small_world.graph
    engine = PropagationEngine(graph)
    cache = BaselineCache(engine)
    monitors = tuple(top_degree_monitors(graph, 20))
    pairs = sample_attack_pairs(
        small_world.transit_ases, graph.ases[:6], 10, random.Random(7)
    )
    tasks = [CampaignPairTask(attacker=a, victim=v, padding=3) for a, v in pairs]
    victims = len({v for _, v in pairs})
    assert victims < len(tasks)

    def run():
        metrics = RunMetrics()
        run_batch(
            engine, tasks, RunConfig(metrics=metrics), cache=cache, monitors=monitors
        )
        counts = {
            name: metrics.counter_value(name)
            for name in (
                "cache.baseline_misses",
                "cache.canonical_convergences",
                "cache.baseline_hits",
            )
        }
        return counts | {"cold convergences": cold_convergences(metrics)}

    assert run() == {
        "cache.baseline_misses": victims,
        "cache.canonical_convergences": victims,
        "cold convergences": victims,
        "cache.baseline_hits": len(tasks) - victims,
    }
    assert cache.misses == victims
    assert run() == {
        "cache.baseline_misses": 0,
        "cache.canonical_convergences": 0,
        "cold convergences": 0,
        "cache.baseline_hits": len(tasks),
    }


def test_arbitrary_schedules_take_the_cold_path(small_world):
    """Per-link schedules converge directly and memoise like any other;
    an equal schedule built separately hits the same entry."""
    engine = PropagationEngine(small_world.graph)
    cache = BaselineCache(engine)
    victim = small_world.tier1[0]
    neighbor = sorted(small_world.graph.neighbors_of(victim))[0]
    schedule = PrependingPolicy.uniform_origin(victim, 2)
    schedule.set_padding(victim, neighbor, 4)
    warm = cache.baseline(victim, prepending=schedule)
    cold = engine.propagate(victim, prepending=schedule)
    assert warm == cold
    assert cache.baseline(victim, prepending=schedule.copy()) is warm


def test_lru_bound_is_respected(small_world, monkeypatch):
    monkeypatch.setattr(cache_mod, "MAX_ENTRIES", 2)
    engine = PropagationEngine(small_world.graph)
    cache = BaselineCache(engine)
    victims = small_world.tier1[:3]
    for victim in victims:
        cache.baseline(victim)
    assert len(cache) == 2
    # The first victim was evicted: asking again is a fresh miss.
    misses_before = cache.misses
    cache.baseline(victims[0])
    assert cache.misses == misses_before + 1


def test_warm_started_attack_equals_cold_start(small_world):
    engine = PropagationEngine(small_world.graph)
    cache = BaselineCache(engine)
    attacker, victim = small_world.tier1[0], small_world.tier1[1]
    for padding in (1, 3, 5):
        prepending = PrependingPolicy.uniform_origin(victim, padding)
        cached = simulate_interception(
            engine,
            victim=victim,
            attacker=attacker,
            origin_padding=padding,
            prepending=prepending,
            baseline=cache.baseline(victim, prepending=prepending),
        )
        cold = simulate_interception(
            engine, victim=victim, attacker=attacker, origin_padding=padding
        )
        assert cached.baseline == cold.baseline
        assert cached.attacked == cold.attacked
        assert cached.report.before_fraction == cold.report.before_fraction
        assert cached.report.after_fraction == cold.report.after_fraction


# ----------------------------------------------------------------------
# schedule fingerprints (the cache key)

def test_fingerprint_canonicalises_equivalent_schedules():
    empty = PrependingPolicy()
    unity = PrependingPolicy.uniform_origin(9, 1)
    assert unity.fingerprint() == empty.fingerprint()
    uniform = PrependingPolicy.uniform_origin(9, 3)
    restated = PrependingPolicy.uniform_origin(9, 3)
    restated.set_padding(9, 4, 3)  # restates the uniform setting
    assert restated.fingerprint() == uniform.fingerprint()
    differs = PrependingPolicy.uniform_origin(9, 3)
    differs.set_padding(9, 4, 5)
    assert differs.fingerprint() != uniform.fingerprint()


# ----------------------------------------------------------------------
# error paths

def test_interception_rejects_foreign_baseline(small_engine, small_world):
    victim, other = small_world.tier1[0], small_world.tier1[1]
    baseline = small_engine.propagate(other)
    with pytest.raises(SimulationError):
        simulate_interception(
            small_engine,
            victim=victim,
            attacker=small_world.tier1[2],
            origin_padding=3,
            baseline=baseline,
        )
