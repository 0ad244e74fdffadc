"""Differential guarantees of the telemetry layer.

Two contracts are pinned here:

* **metrics never change results** — experiment artefacts (rows,
  summary, rendered text) are bit-identical with a registry or with
  ``metrics=None``;
* **pooled aggregation is exact** — the merged registry of a
  process-pool run equals the serial registry for every deterministic
  section (counters and histograms; wall-clock timers and the
  per-worker ``info`` split legitimately differ).
"""

from __future__ import annotations

import pytest

from repro.bgp.engine import PropagationEngine
from repro.detection.monitors import top_degree_monitors
from repro.experiments.base import attack_pools, build_world
from repro.experiments.fig09_tier1_vs_tier1 import Fig09Config
from repro.experiments.fig09_tier1_vs_tier1 import run as run_fig09
from repro.experiments.sweeps import campaign, deployment_sweep, padding_sweep
from repro.runner import (
    BaselineCache,
    DeploymentPointTask,
    RunConfig,
    SweepPointTask,
    run_batch,
)
from repro.telemetry import RunMetrics
from repro.utils.rand import derive_rng, make_rng

SCALE = 0.25
SEED = 7


@pytest.fixture()
def generated_world(small_world):
    """A fresh engine over the shared small world (fresh so tests can
    attach registries without touching the session-scoped engine)."""
    return PropagationEngine(small_world.graph), small_world


class TestMetricsDoNotChangeResults:
    def test_fig09_artefact_is_bit_identical(self):
        plain = run_fig09(Fig09Config(seed=SEED, scale=SCALE))
        metrics = RunMetrics()
        instrumented = run_fig09(Fig09Config(seed=SEED, scale=SCALE), metrics=metrics)
        assert instrumented.rows == plain.rows
        assert instrumented.summary == plain.summary
        assert instrumented.to_text() == plain.to_text()
        assert plain.metrics is None
        assert instrumented.metrics is metrics
        # λ-sweep points are impact-only: the kernel answers them.
        points = len(plain.rows)
        assert metrics.counter_value("engine.impact.cells") == points
        assert metrics.counter_value("engine.warm.propagations") == 0
        assert instrumented.metrics.summary_table().startswith("run metrics")
        assert not plain.metrics

    def test_padding_sweep_rows_identical_with_metrics(self, generated_world):
        engine, world = generated_world
        victim = world.stubs[0]
        attacker = world.tier1[0]
        plain = padding_sweep(
            engine, victim=victim, attacker=attacker, paddings=range(1, 5)
        )
        metrics = RunMetrics()
        instrumented = padding_sweep(
            engine,
            victim=victim,
            attacker=attacker,
            paddings=range(1, 5),
            run=RunConfig(metrics=metrics),
        )
        assert instrumented == plain
        assert metrics.counter_value("worker.tasks") == 4

    def test_adopted_engine_attachment_is_restored(self, generated_world):
        engine, world = generated_world
        sentinel = RunMetrics()
        engine.metrics = sentinel
        padding_sweep(
            engine,
            victim=world.stubs[1],
            attacker=world.tier1[0],
            paddings=(1, 2),
            run=RunConfig(metrics=RunMetrics()),
        )
        assert engine.metrics is sentinel
        assert not sentinel


def _sweep_tasks(world):
    """Both routes a sweep cell can take: impact-only points (the
    kernel) and route-building deployment points (cache + engine)."""
    victims = world.stubs[:3]
    return [
        kind(victim=victim, attacker=world.tier1[0], padding=padding)
        for kind in (SweepPointTask, DeploymentPointTask)
        for victim in victims
        for padding in (1, 2, 3)
    ]


class TestPooledAggregationIsExact:
    def test_forced_pool_matches_serial_registry(self, generated_world, real_pool):
        engine, world = generated_world
        tasks = _sweep_tasks(world)
        serial_metrics = RunMetrics()
        serial_results = run_batch(engine, tasks, RunConfig(metrics=serial_metrics))
        pooled_metrics = RunMetrics()
        pooled_results = run_batch(
            engine, tasks, RunConfig(workers=2, metrics=pooled_metrics)
        )
        assert pooled_results == serial_results
        assert (
            pooled_metrics.deterministic_snapshot()
            == serial_metrics.deterministic_snapshot()
        )
        # The cache-shape namespaces are allowed to differ (each pool
        # worker converges its own baselines) but must still
        # be present in both registries.
        assert pooled_metrics.counter_value("cache.canonical_convergences") >= (
            serial_metrics.counter_value("cache.canonical_convergences")
        )
        assert serial_metrics.counter_value("worker.tasks") == len(tasks)
        # The info section carries the run-shape split: serial labels vs
        # per-PID labels.
        assert "worker.serial.tasks" in serial_metrics.info
        assert all(key.startswith("worker.pid") for key in pooled_metrics.info)

    def test_serial_sweep_converges_its_baseline_once(self, generated_world):
        """A deployment sweep's points share one (victim, λ) baseline:
        the first point converges it, the rest are cache hits."""
        engine, world = generated_world
        victim = world.stubs[4]
        metrics = RunMetrics()
        cache = BaselineCache(engine)
        deployment_sweep(
            engine,
            victim=victim,
            attacker=world.tier1[0],
            padding=3,
            policy="none",
            fractions=(0.0, 0.1, 0.2, 0.3, 0.4),
            cache=cache,
            run=RunConfig(metrics=metrics),
        )
        assert metrics.counter_value("cache.canonical_convergences") == 1
        assert metrics.counter_value("cache.baseline_misses") == 1
        assert metrics.counter_value("cache.baseline_hits") == 4


class TestCampaignAggregation:
    @staticmethod
    def _campaign(pairs, run=RunConfig()):
        world = build_world(seed=SEED, scale=SCALE)
        attackers, victims = attack_pools(world.topology)
        return campaign(
            world.engine,
            top_degree_monitors(world.graph, 40),
            pairs=pairs,
            padding=3,
            attackers=attackers,
            victims=victims,
            rng=derive_rng(make_rng(SEED), "study-campaign"),
            run=run,
        )

    def test_campaign_metrics_match_across_worker_counts(self):
        serial_metrics = RunMetrics()
        serial = self._campaign(8, RunConfig(workers=None, metrics=serial_metrics))
        pooled_metrics = RunMetrics()
        pooled = self._campaign(8, RunConfig(workers=4, metrics=pooled_metrics))
        assert pooled == serial
        assert (
            pooled_metrics.deterministic_snapshot()
            == serial_metrics.deterministic_snapshot()
        )
        assert serial_metrics.counter_value("detection.timings") == 8

    def test_campaign_without_metrics_unchanged(self):
        rows = self._campaign(4)
        assert len(rows) == 4
        assert rows == self._campaign(4, RunConfig(metrics=RunMetrics()))
