"""Detection cells read monitor rows; they build no world.

A detector needs AS-paths at M monitors, not at N ASes.  Collectors
read ``PropagationOutcome.route_of`` rows, so fig13, fig14 and a
campaign cell never run an outcome's deferred emission — and when
something does touch ``best`` on such a path, the compiled cores
count it (``engine.compiled.worlds_emitted``) instead of paying for it
silently.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.bgp.engine import PropagationEngine, PropagationOutcome
from repro.bgp.prepending import PrependingPolicy
from repro.detection.monitors import top_degree_monitors
from repro.experiments.fig13_detection_accuracy import Fig13Config
from repro.experiments.fig13_detection_accuracy import run as run_fig13
from repro.experiments.fig14_pollution_before_detection import Fig14Config
from repro.experiments.fig14_pollution_before_detection import run as run_fig14
from repro.runner import (
    BaselineCache,
    CampaignPairTask,
    RunConfig,
    WorkerContext,
    run_batch,
)
from repro.store import CampaignStore
from repro.telemetry import RunMetrics
from tests.bgp.loop_oracle import LoopEngine

WORLDS = "engine.compiled.worlds_emitted"


@pytest.fixture()
def worlds_built(monkeypatch) -> list[PropagationOutcome]:
    """Every outcome whose deferred emission ran during the test."""
    built: list[PropagationOutcome] = []
    materialise = PropagationOutcome._materialise

    def counted(self):
        built.append(self)
        materialise(self)

    monkeypatch.setattr(PropagationOutcome, "_materialise", counted)
    return built


def test_fig13_builds_no_world(worlds_built):
    metrics = RunMetrics()
    run_fig13(Fig13Config(scale=0.25, pairs=10), metrics=metrics)
    assert worlds_built == []
    # ... and says so: the counter is registered, at zero, next to the
    # rows that were served instead.
    assert metrics.counters[WORLDS].value == 0
    assert metrics.counter_value("collector.rows") > 0


def test_fig14_builds_no_world(worlds_built):
    run_fig14(Fig14Config(scale=0.25, pairs=10))
    assert worlds_built == []


def test_serial_campaign_pair_builds_no_world(small_world, worlds_built):
    graph = small_world.graph
    ctx = WorkerContext(
        PropagationEngine(graph),
        monitors=tuple(top_degree_monitors(graph, 25)),
        metrics=RunMetrics(),
    )
    tier1 = small_world.tier1
    row = CampaignPairTask(attacker=tier1[0], victim=tier1[1], padding=3).run(ctx)
    assert worlds_built == []
    assert ctx.metrics.counters[WORLDS].value == 0
    assert (row.attacker, row.victim) == (tier1[0], tier1[1])


@pytest.mark.parametrize("route", ["pooled", "stored"])
def test_a_campaign_pair_ships_and_stores_a_row_not_worlds(
    small_world, tmp_path, real_pool, route
):
    """Pickling a pair's result — to come home from a pool worker, or
    into a store record — builds no world: the result is a row."""
    graph = small_world.graph
    tasks = [
        CampaignPairTask(attacker=attacker, victim=victim, padding=3)
        for attacker, victim in zip(small_world.tier1, small_world.content)
    ]
    monitors = tuple(top_degree_monitors(graph, 25))
    metrics = RunMetrics()
    with CampaignStore(tmp_path / "store") as store:
        run = RunConfig(workers=2 if route == "pooled" else 1, metrics=metrics)
        if route == "stored":
            run = dataclasses.replace(run, store=store)
        rows = run_batch(PropagationEngine(graph), tasks, run, monitors=monitors)
    assert metrics.counters[WORLDS].value == 0
    assert metrics.counter_value("worker.tasks") == len(tasks)
    # tripwire: the pooled route really ran in pool workers
    assert any(name.startswith("worker.pid") for name in metrics.info) == (route == "pooled")
    assert rows == run_batch(PropagationEngine(graph), tasks, monitors=monitors)


#: the loop by name, and the engine as shipped (kernel cold runs)
BACKENDS = [
    pytest.param(LoopEngine, id="compiled"),
    pytest.param(PropagationEngine, id="vectorized"),
]


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_built_world_is_counted(small_world, backend):
    """One count per outcome whose ``best`` is touched: the cached cold
    baseline and the warm run started from it."""
    metrics = RunMetrics()
    engine = backend(small_world.graph, metrics=metrics)
    cache = BaselineCache(engine, metrics=metrics)
    victim, attacker = small_world.tier1[0], small_world.tier1[1]
    prepending = PrependingPolicy.uniform_origin(victim, 3)
    baseline = cache.baseline(victim, prepending=prepending)
    attacked = engine.propagate(
        victim,
        prepending=prepending,
        modifiers={attacker: lambda path: path},
        warm_start=baseline,
    )
    assert metrics.counters[WORLDS].value == 0
    attacked.best  # the warm run and the baseline it copies from
    assert metrics.counters[WORLDS].value == 2
    attacked.best, baseline.adj_rib_in  # already built: not again
    assert metrics.counters[WORLDS].value == 2

