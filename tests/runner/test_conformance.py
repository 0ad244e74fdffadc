"""One batch path, one contract.

Every production batch goes through :func:`run_batch` under one
:class:`RunConfig`.  The same task list must come back identical for
every worker count and persistence state a ``RunConfig`` can name,
and whenever every task actually executes, the deterministic
metric snapshot must equal the plain path's — one
:class:`WorkerContext` and a loop over :func:`execute_task`, no
``RunConfig`` involved.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.bgp.engine import PropagationEngine
from repro.detection.monitors import top_degree_monitors
from repro.runner import (
    CampaignPairTask,
    DeploymentPointTask,
    RunConfig,
    SweepPointTask,
    WorkerContext,
    execute_task,
    run_batch,
)
from repro.store import CampaignStore
from repro.telemetry.metrics import RunMetrics

KINDS = ("sweep", "deployment", "campaign")


def _batch(kind, world):
    """``(tasks, monitors)`` as the production caller of each task type
    hands them to ``run_batch``."""
    victim, attacker = world.tier1[0], world.tier1[1]
    if kind == "sweep":
        tasks = [
            SweepPointTask(victim=victim, attacker=attacker, padding=padding)
            for padding in range(1, 7)
        ]
    elif kind == "deployment":
        tasks = [
            DeploymentPointTask(
                victim=victim,
                attacker=attacker,
                padding=3,
                policy=policy,
                fraction=fraction,
            )
            for policy in ("aspa", "prependguard")
            for fraction in (0.0, 0.5)
        ]
    else:
        tasks = [
            CampaignPairTask(attacker=a, victim=v, padding=3)
            for a, v in zip(world.tier1[:4], world.content[:4])
        ]
    monitors = (
        tuple(top_degree_monitors(world.graph, 20)) if kind == "campaign" else None
    )
    return tasks, monitors


@pytest.fixture(scope="module")
def references(small_world):
    """Results and deterministic snapshot of the plain path, per kind."""
    plain = {}
    for kind in KINDS:
        tasks, monitors = _batch(kind, small_world)
        metrics = RunMetrics()
        ctx = WorkerContext(
            PropagationEngine(small_world.graph), monitors=monitors, metrics=metrics
        )
        ctx.park_impact(tasks)
        results = [execute_task(task, ctx) for task in tasks]
        plain[kind] = (results, metrics.deterministic_snapshot())
    return plain


PERSISTENCE = ("none", "cold-store", "warm-store")


@pytest.mark.parametrize("persistence", PERSISTENCE)
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", KINDS)
def test_every_route_returns_the_plain_results(
    small_world, references, tmp_path, real_pool, kind, workers, persistence
):
    tasks, monitors = _batch(kind, small_world)
    expected, expected_snapshot = references[kind]

    def run(batch, config):
        engine = PropagationEngine(small_world.graph)
        return run_batch(engine, batch, config, monitors=monitors)

    metrics = RunMetrics()
    route = RunConfig(workers=workers, metrics=metrics)
    if persistence == "none":
        results, hits = run(tasks, route), 0
    else:
        path = tmp_path / "store"
        hits = len(tasks) if persistence == "warm-store" else 0
        if hits:
            with CampaignStore(path) as store:
                run(tasks, RunConfig(store=store))
        with CampaignStore(path) as store:
            results = run(tasks, dataclasses.replace(route, store=store))
            assert len(store) == len(tasks)

    executed = len(tasks) - hits
    assert results == expected
    assert metrics.counter_value("scheduler.store_hits") == hits
    assert metrics.counter_value("scheduler.executed") == executed
    assert metrics.counter_value("worker.tasks") == executed
    if executed == len(tasks):
        assert metrics.deterministic_snapshot() == expected_snapshot
    # tripwire: a pooled route really ran its cells in pool workers
    assert any(name.startswith("worker.pid") for name in metrics.info) == (
        workers == 2 and executed > 0
    )
