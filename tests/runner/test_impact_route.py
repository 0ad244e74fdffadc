"""Which route computes a sweep cell, and that it never matters.

Impact-only cells (``SweepPointTask``: λ-sweeps, pair grids, the
exhaustive grid) are answered by the impact kernel, always; the engine
route (a cached baseline, then a warm-started ``simulate_interception``)
lives test-side as ``tests/strategies.py::engine_route_points``.
Pinned here:

* rows equal across the kernel, the engine route and the reference
  oracle's engine route — serial, through a forced two-worker pool, and
  against a cold and a warm store;
* a cell outside the kernel's packed key raises at its own turn, after
  the cells before it settled, with the message a cold run gets;
* bad inputs raise exactly what the oracle's engine route raises;
* a serial batch parks its kernel cells as one batch, pool workers run single columns
  against the per-victim baseline memo, and ``execute_task`` still runs
  once per task either way.
"""

from __future__ import annotations

import pytest

from repro.bgp import vectorized
from repro.bgp.engine import PropagationEngine
from repro.bgp.prepending import PrependingPolicy
from repro.exceptions import ReproError, SimulationError
from repro.experiments.sweeps import exhaustive_grid, padding_sweep, pair_grid
from repro.runner import (
    RunConfig,
    SweepPointTask,
    WorkerContext,
    execute_task,
    run_batch,
)
from repro.store import CampaignStore
from repro.telemetry.metrics import RunMetrics
from tests.bgp.loop_oracle import LoopEngine
from tests.bgp.reference_engine import ReferenceEngine
from tests.strategies import engine_route_points

PADDINGS = tuple(range(1, 7))


def _pair(world):
    return world.tier1[0], world.stubs[3]  # attacker, victim


def _grid_pools(world):
    return world.tier1[:2] + world.tier2[:2], world.stubs[:3] + world.tier1[2:3]


def _converged_nothing(metrics: RunMetrics) -> bool:
    return not any(name.startswith(("engine.", "cache.")) for name in metrics.counters)


class TestRoutesAgree:
    def test_padding_sweep_rows_equal_on_every_route(self, small_world):
        attacker, victim = _pair(small_world)
        graph = small_world.graph
        for violate in (False, True):
            kernel_metrics = RunMetrics()
            kernel_rows = padding_sweep(
                PropagationEngine(graph),
                victim=victim,
                attacker=attacker,
                paddings=PADDINGS,
                violate_policy=violate,
                run=RunConfig(metrics=kernel_metrics),
            )
            assert kernel_metrics.counter_value("engine.impact.cells") == len(PADDINGS)

            def engine_rows(engine):
                cells = [(attacker, victim, padding) for padding in PADDINGS]
                points = engine_route_points(engine, cells, violate_policy=violate)
                return [point.row() for point in points]

            assert (
                kernel_rows
                == engine_rows(PropagationEngine(graph))
                == engine_rows(ReferenceEngine(graph))
            )

    def test_grids_equal_on_every_route(self, small_world):
        attackers, victims = _grid_pools(small_world)
        graph = small_world.graph
        pairs = [(a, v) for a in attackers for v in victims if a != v]
        kernel_cells = exhaustive_grid(
            PropagationEngine(graph),
            attackers=attackers,
            victims=victims,
            origin_padding=3,
        )
        # the engine route from kernel-column baselines, from the loop's,
        # and the oracle's
        for engine in (
            PropagationEngine(graph), LoopEngine(graph), ReferenceEngine(graph)
        ):
            assert kernel_cells == engine_route_points(
                engine, [(a, v, 3) for a, v in pairs]
            )

    def test_forced_pool_equals_serial_with_deterministic_counters(self, small_world, real_pool):
        attackers, victims = _grid_pools(small_world)
        tasks = [
            SweepPointTask(victim=v, attacker=a, padding=3)
            for a in attackers
            for v in victims
            if a != v
        ]
        engine = PropagationEngine(small_world.graph)
        serial_metrics, pooled_metrics = RunMetrics(), RunMetrics()
        reference = run_batch(engine, tasks, RunConfig(metrics=serial_metrics))
        pooled = run_batch(engine, tasks, RunConfig(workers=2, metrics=pooled_metrics))
        assert pooled == reference
        for metrics in (serial_metrics, pooled_metrics):
            assert metrics.counter_value("engine.impact.cells") == len(tasks)
            assert metrics.counter_value("worker.tasks") == len(tasks)
        assert (
            serial_metrics.deterministic_snapshot()
            == pooled_metrics.deterministic_snapshot()
        )
        # Each worker converges the victims it meets once, not per cell.
        attack_columns = len(tasks)
        assert pooled_metrics.counter_value("engine.impact.columns") <= (
            attack_columns + 2 * len(victims)
        )

    def test_cold_and_warm_store_rows_equal_the_storeless_run(
        self, small_world, tmp_path
    ):
        attacker, victim = _pair(small_world)
        engine = PropagationEngine(small_world.graph)
        plain = padding_sweep(
            engine, victim=victim, attacker=attacker, paddings=PADDINGS
        )
        cold_metrics, warm_metrics = RunMetrics(), RunMetrics()
        with CampaignStore(tmp_path / "store") as store:
            cold = padding_sweep(
                engine, victim=victim, attacker=attacker, paddings=PADDINGS,
                run=RunConfig(store=store, metrics=cold_metrics),
            )
            warm = padding_sweep(
                engine, victim=victim, attacker=attacker, paddings=PADDINGS,
                run=RunConfig(store=store, metrics=warm_metrics),
            )
        assert cold == warm == plain
        assert cold_metrics.counter_value("engine.impact.cells") == len(PADDINGS)
        # A warm store executes nothing: no cell, no column.
        assert warm_metrics.counter_value("scheduler.store_hits") == len(PADDINGS)
        assert warm_metrics.counter_value("engine.impact.cells") == 0
        assert warm_metrics.counter_value("engine.impact.columns") == 0


class TestBatchingAndTheMemo:
    def test_prepare_parks_one_batch_and_tasks_take_their_result(self, small_world):
        attacker, victim = _pair(small_world)
        metrics = RunMetrics()
        padding_sweep(
            PropagationEngine(small_world.graph),
            victim=victim,
            attacker=attacker,
            paddings=PADDINGS,
            run=RunConfig(metrics=metrics),
        )
        # One canonical baseline column, then every λ as one batch.
        assert metrics.counter_value("engine.impact.batches") == 2
        assert metrics.counter_value("engine.impact.columns") == 1 + len(PADDINGS)
        assert metrics.counter_value("worker.tasks") == len(PADDINGS)
        assert metrics.counter_value("engine.cold.propagations") == 0
        assert metrics.counter_value("cache.baseline_misses") == 0

    def test_unprepared_tasks_share_one_baseline_column_per_victim(self, small_world):
        """The pool-worker shape: tasks arrive one at a time."""
        attacker, victim = _pair(small_world)
        metrics = RunMetrics()
        ctx = WorkerContext(PropagationEngine(small_world.graph), metrics=metrics)
        tasks = [
            SweepPointTask(victim=victim, attacker=attacker, padding=p)
            for p in PADDINGS
        ]
        results = [execute_task(task, ctx) for task in tasks]
        assert [r.row() for r in results] == padding_sweep(
            PropagationEngine(small_world.graph),
            victim=victim, attacker=attacker, paddings=PADDINGS,
        )
        assert metrics.counter_value("engine.impact.columns") == 1 + len(PADDINGS)
        assert metrics.counter_value("engine.impact.batches") == 1 + len(PADDINGS)

    def test_duplicate_and_mixed_tasks_keep_their_slots(self, small_world):
        attackers, victims = _grid_pools(small_world)
        pairs = [(attackers[0], victims[0]), (attackers[1], victims[1])]
        doubled = pairs + pairs[:1]
        cells = pair_grid(PropagationEngine(small_world.graph), doubled, origin_padding=2)
        assert [(c.attacker, c.victim) for c in cells] == doubled
        assert cells[0] == cells[2]


class TestFallbacks:
    """Nothing falls back: a cell the kernel does not answer is an
    error at its own turn, before anything converges for it."""

    def _sweep(self, small_world, store=None, metrics=None):
        attacker, victim = _pair(small_world)
        return padding_sweep(
            PropagationEngine(small_world.graph),
            victim=victim,
            attacker=attacker,
            paddings=PADDINGS,
            run=RunConfig(store=store, metrics=metrics),
        )

    def test_domain_topology_too_large(self, small_world, monkeypatch):
        monkeypatch.setattr(vectorized, "_MAX_N", 8)
        metrics = RunMetrics()
        with pytest.raises(SimulationError, match="packed decision key"):
            self._sweep(small_world, metrics=metrics)
        assert _converged_nothing(metrics)

    def test_domain_padding_overflows_the_key(self, small_world, monkeypatch, tmp_path):
        expected = self._sweep(small_world)
        n = len(small_world.graph)
        with CampaignStore(tmp_path / "store") as store:
            monkeypatch.setattr(vectorized, "_MAX_LEN", n * 4)  # admits λ <= 3
            with pytest.raises(SimulationError, match="packed decision key"):
                self._sweep(small_world, store)
            # a cold run at that λ is refused with the same words
            attacker, victim = _pair(small_world)
            engine = PropagationEngine(small_world.graph)
            with pytest.raises(SimulationError) as cold:
                engine.propagate(victim, prepending=PrependingPolicy.uniform_origin(victim, 4))
            with pytest.raises(SimulationError) as point:
                execute_task(
                    SweepPointTask(victim=victim, attacker=attacker, padding=4),
                    WorkerContext(engine),
                )
            assert str(point.value) == str(cold.value)
            monkeypatch.undo()
            metrics = RunMetrics()
            assert self._sweep(small_world, store, metrics) == expected
        # the cells before the first out-of-domain one had settled
        assert metrics.counter_value("scheduler.store_hits") == 3

    def test_strip_mode(self, small_world):
        attacker, victim = _pair(small_world)
        metrics = RunMetrics()
        ctx = WorkerContext(PropagationEngine(small_world.graph), metrics=metrics)
        collapse = SweepPointTask(
            victim=victim, attacker=attacker, padding=3, strip_mode="all", keep=2
        )
        origin = SweepPointTask(victim=victim, attacker=attacker, padding=3)
        # "all" is inside the domain (it is origin-stripping to one copy)...
        assert execute_task(collapse, ctx).row() == execute_task(origin, ctx).row()
        # ...anything else is rejected with the attack's own words.
        bogus = SweepPointTask(
            victim=victim, attacker=attacker, padding=3, strip_mode="bogus"
        )
        metrics = RunMetrics()
        ctx = WorkerContext(PropagationEngine(small_world.graph), metrics=metrics)
        with pytest.raises(SimulationError, match="strip_mode"):
            execute_task(bogus, ctx)
        assert _converged_nothing(metrics)


class TestBadInputs:
    @pytest.mark.parametrize(
        "fields",
        [
            dict(victim=1, attacker=1, padding=3),
            dict(victim=1, attacker=2, padding=0),
            dict(victim=1, attacker=2, padding=3, keep=0),
            dict(victim=10**9, attacker=2, padding=3),
            dict(victim=1, attacker=10**9, padding=3),
        ],
        ids=["self-attack", "padding<1", "keep<1", "unknown-victim", "unknown-attacker"],
    )
    def test_raise_exactly_what_the_engine_route_raises(self, small_world, fields):
        ases = small_world.graph.ases
        fields = {
            key: ases[value - 1] if key in ("victim", "attacker") and value < 10**9 else value
            for key, value in fields.items()
        }
        task = SweepPointTask(**fields)
        metrics = RunMetrics()
        ctx = WorkerContext(PropagationEngine(small_world.graph), metrics=metrics)
        with pytest.raises(ReproError) as kernel_route:
            execute_task(task, ctx)
        # rejected before anything converged
        assert _converged_nothing(metrics)
        # and a batch around it is unharmed
        good = SweepPointTask(victim=ases[0], attacker=ases[1], padding=2)
        assert ctx.park_impact([good, task]) == [task]
        with pytest.raises(ReproError) as oracle_route:
            engine_route_points(
                ReferenceEngine(small_world.graph),
                [(task.attacker, task.victim, task.padding)],
                keep=task.keep,
            )
        assert (type(kernel_route.value), str(kernel_route.value)) == (
            type(oracle_route.value),
            str(oracle_route.value),
        )

