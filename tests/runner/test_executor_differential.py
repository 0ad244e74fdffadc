"""Serial vs parallel differential tests.

The runner's contract is bit-identical output for every worker count.
Single-CPU hosts clamp requested workers to 1, so the pool paths are
exercised under the ``real_pool`` fixture — real worker processes, real
pickling, even when the scheduler grants one core.
"""

from __future__ import annotations

import pytest

from repro.bgp.engine import PropagationEngine
from repro.detection.monitors import top_degree_monitors
from repro.exceptions import SimulationError
from repro.experiments.base import attack_pools, build_world
from repro.experiments.sweeps import campaign, padding_sweep, pair_grid
from repro.runner import (
    BaselineCache,
    CampaignPairTask,
    DeploymentPointTask,
    RunConfig,
    SweepPointTask,
    WorkerContext,
    available_cpus,
    resolve_workers,
    run_batch,
)
from repro.utils.rand import derive_rng, make_rng

PADDINGS = tuple(range(1, 9))


def test_resolve_workers_semantics():
    assert resolve_workers(None) == 1
    assert resolve_workers(0) == 1
    assert resolve_workers(1) == 1
    assert resolve_workers(4) == min(4, available_cpus())
    with pytest.raises(SimulationError):
        resolve_workers(-1)


def test_sweep_results_identical_for_any_worker_count(small_world, real_pool):
    victim, attacker = small_world.tier1[0], small_world.tier1[1]
    engine = PropagationEngine(small_world.graph)
    tasks = [
        SweepPointTask(victim=victim, attacker=attacker, padding=p) for p in PADDINGS
    ]
    reference = run_batch(engine, tasks)
    for workers in (2, 4):
        assert run_batch(engine, tasks, RunConfig(workers=workers)) == reference


def test_campaign_tasks_identical_serial_vs_pool(small_world, real_pool):
    monitors = tuple(top_degree_monitors(small_world.graph, 25))
    engine = PropagationEngine(small_world.graph)
    tier1 = small_world.tier1
    tasks = [
        CampaignPairTask(attacker=tier1[0], victim=tier1[1], padding=3),
        CampaignPairTask(attacker=tier1[1], victim=tier1[2], padding=3),
        CampaignPairTask(attacker=tier1[2], victim=tier1[1], padding=2),
        CampaignPairTask(attacker=tier1[0], victim=tier1[3], padding=4),
    ]
    context = WorkerContext(engine, monitors=monitors)
    reference = [task.run(context) for task in tasks]
    parallel = run_batch(engine, tasks, RunConfig(workers=2), monitors=monitors)
    assert parallel == reference


def test_padding_sweep_api_identical_across_worker_requests(small_world):
    engine = PropagationEngine(small_world.graph)
    victim, attacker = small_world.tier1[1], small_world.tier1[0]
    reference = padding_sweep(
        engine, victim=victim, attacker=attacker, paddings=PADDINGS
    )
    for workers in (1, 2, 4):
        rows = padding_sweep(
            engine,
            victim=victim,
            attacker=attacker,
            paddings=PADDINGS,
            run=RunConfig(workers=workers),
        )
        assert rows == reference


def test_pair_grid_preserves_pair_order(small_world):
    engine = PropagationEngine(small_world.graph)
    tier1 = small_world.tier1
    pairs = [(tier1[0], tier1[1]), (tier1[2], tier1[3]), (tier1[1], tier1[0])]
    points = pair_grid(engine, pairs, origin_padding=3)
    assert [(p.attacker, p.victim) for p in points] == pairs
    assert all(p.padding == 3 for p in points)


def test_campaign_identical_across_worker_requests():
    world = build_world(seed=11, scale=0.15)
    fleet = top_degree_monitors(world.graph, 20)
    attackers, victims = attack_pools(world.topology)

    def rows(run=RunConfig()):
        return campaign(
            world.engine,
            fleet,
            pairs=5,
            padding=3,
            attackers=attackers,
            victims=victims,
            rng=derive_rng(make_rng(11), "study-campaign"),
            run=run,
        )

    reference = rows()
    for workers in (1, 2):
        assert rows(RunConfig(workers=workers)) == reference


def test_executor_reuse_and_empty_batches(small_world):
    """Serial batches sharing one cache reuse its baselines, and an
    empty batch runs nothing."""
    victim, attacker = small_world.tier1[0], small_world.tier1[1]
    engine = PropagationEngine(small_world.graph)
    cache = BaselineCache(engine)
    assert run_batch(engine, [], cache=cache) == []
    # (a route-building task: sweep points never touch the cache)
    first = run_batch(
        engine,
        [DeploymentPointTask(victim=victim, attacker=attacker, padding=2)],
        cache=cache,
    )
    assert (cache.hits, cache.misses) == (0, 1)
    # The second batch reuses the warm cache: the same (victim, λ)
    # baseline is a cache hit, a new λ one more convergence.
    second = run_batch(
        engine,
        [
            DeploymentPointTask(victim=victim, attacker=attacker, padding=2),
            DeploymentPointTask(victim=victim, attacker=attacker, padding=3),
        ],
        cache=cache,
    )
    assert (cache.hits, cache.misses) == (1, 2)
    assert first == second[:1] and second[1].padding == 3


def test_worker_context_guards(small_world):
    engine = PropagationEngine(small_world.graph)
    context = WorkerContext(engine)  # no monitor fleet
    with pytest.raises(SimulationError):
        context.collector
    foreign_cache = BaselineCache(PropagationEngine(small_world.graph))
    with pytest.raises(SimulationError):
        WorkerContext(engine, cache=foreign_cache)
