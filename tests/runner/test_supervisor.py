"""Executor lifecycle and the one failure rule.

The shared-memory segment must never outlive a failed pool
(construction failure, interpreter exit), a closed executor must refuse
reuse instead of respawning onto an unlinked segment, shm transport
accounting must land on the executor's effective registry in every
metric mode, and a failing cell must fail the batch the same way on
every route.
"""

from __future__ import annotations

import os

import pytest

import repro.runner.executor as executor_mod
import repro.runner.supervisor as supervisor_mod
from repro.bgp.engine import PropagationEngine
from repro.exceptions import PolicyError, SimulationError
from repro.runner import (
    RunConfig,
    SupervisedExecutor,
    SweepPointTask,
    WorkerSpec,
    run_batch,
    task_fingerprint,
)
from repro.store import CampaignStore
from repro.telemetry.metrics import RunMetrics


def _tasks(world, count=4):
    victim, attacker = world.tier1[0], world.tier1[1]
    return [
        SweepPointTask(victim=victim, attacker=attacker, padding=p)
        for p in range(1, count + 1)
    ]


class TestReuseAfterClose:
    def test_sweep_executor_run_after_close_raises(self, small_world):
        """The plain serial loop (nothing recorded)."""
        executor = SupervisedExecutor(WorkerSpec(small_world.graph), workers=1)
        executor.close()
        assert executor.closed
        with pytest.raises(SimulationError, match="closed"):
            executor.run(_tasks(small_world))

    def test_closed_pool_executor_does_not_respawn(self, small_world, real_pool):
        executor = SupervisedExecutor(
            WorkerSpec(small_world.graph), workers=2
        )
        executor.close()
        with pytest.raises(SimulationError, match="closed"):
            executor.run(_tasks(small_world))
        assert executor._pool is None
        assert executor._shm_segment is None

    def test_supervised_executor_run_after_close_raises(self, small_world):
        """The same with a listener attached, as ``run_batch`` runs it."""
        executor = SupervisedExecutor(WorkerSpec(small_world.graph), workers=1)
        executor.close()
        assert executor.closed
        with pytest.raises(SimulationError, match="closed"):
            executor.run(_tasks(small_world), lambda index, value: None)

    def test_context_manager_closes(self, small_world):
        with SupervisedExecutor(WorkerSpec(small_world.graph), workers=1) as executor:
            assert not executor.closed
        assert executor.closed


class TestShmLifecycle:
    def test_pool_construction_failure_unlinks_segment(
        self, small_world, monkeypatch, real_pool
    ):
        """If ``ProcessPoolExecutor()`` itself raises after the topology
        was published, the segment must be unlinked on the spot, and the
        run fails with one :class:`SimulationError` — it does not
        degrade to serial."""

        def explode(*args, **kwargs):
            raise OSError("no more processes")

        monkeypatch.setattr(supervisor_mod, "ProcessPoolExecutor", explode)
        before = set(executor_mod._LIVE_SEGMENTS)
        tasks = _tasks(small_world)
        executor = SupervisedExecutor(
            WorkerSpec(small_world.graph), workers=2
        )
        with pytest.raises(SimulationError, match="could not start a pool of 2 workers"):
            executor.run(tasks)
        assert executor._shm_segment is None
        assert executor_mod._LIVE_SEGMENTS == before
        executor.close()

    def test_atexit_guard_reaps_orphaned_segments(self, small_world, real_pool):
        """A segment published but never released (crash between publish
        and pool construction) is unlinked by the atexit sweep."""
        executor = SupervisedExecutor(
            WorkerSpec(small_world.graph), workers=2
        )
        executor._pool_spec()
        segment = executor._shm_segment
        assert segment is not None
        assert segment in executor_mod._LIVE_SEGMENTS

        executor_mod._cleanup_segments()
        assert segment not in executor_mod._LIVE_SEGMENTS
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=segment.name)
        executor.close()  # idempotent: double-release must not raise

    def test_supervised_close_releases_segment(self, small_world, real_pool):
        tasks = _tasks(small_world)
        spec = WorkerSpec(small_world.graph)
        executor = SupervisedExecutor(spec, workers=2)
        executor.run(tasks)
        executor.close()
        assert executor._shm_segment is None
        assert executor._pool is None


class TestEffectiveRegistry:
    """Satellite: ``_pool_spec`` must account shm transport on the
    executor's effective registry in *all* metric modes."""

    def test_publish_recorded_on_caller_registry_with_unmetered_spec(
        self, small_world, real_pool
    ):
        metrics = RunMetrics()
        executor = SupervisedExecutor(
            WorkerSpec(small_world.graph, metrics_enabled=False),
            workers=2,
            metrics=metrics,
        )
        executor._pool_spec()
        try:
            assert metrics.counter_value("runner.shm.publishes") == 1
            assert metrics.counter_value("runner.shm.published_bytes") > 0
        finally:
            executor.close()

    def test_fallback_recorded_on_caller_registry(self, small_world, monkeypatch, real_pool):
        def refuse(topo):
            raise OSError("/dev/shm unavailable")

        monkeypatch.setattr(supervisor_mod, "publish_topology", refuse)
        metrics = RunMetrics()
        executor = SupervisedExecutor(
            WorkerSpec(small_world.graph, metrics_enabled=False),
            workers=2,
            metrics=metrics,
        )
        spec = executor._pool_spec()
        try:
            assert metrics.counter_value("runner.shm.fallbacks") == 1
            # The fallback spec ships the pickled graph unchanged.
            assert spec.graph is small_world.graph
            assert spec.shared_topology is None
            assert executor._shm_segment is None
        finally:
            executor.close()

    def test_fallback_recorded_on_auto_registry_with_metered_spec(
        self, small_world, monkeypatch, real_pool
    ):
        monkeypatch.setattr(
            supervisor_mod,
            "publish_topology",
            lambda topo: (_ for _ in ()).throw(OSError("nope")),
        )
        executor = SupervisedExecutor(
            WorkerSpec(small_world.graph, metrics_enabled=True),
            workers=2,
        )
        executor._pool_spec()
        try:
            assert executor.metrics is not None
            assert executor.metrics.counter_value("runner.shm.fallbacks") == 1
        finally:
            executor.close()

    def test_disabled_registry_records_nothing(self, small_world, real_pool):
        metrics = RunMetrics(enabled=False)
        executor = SupervisedExecutor(
            WorkerSpec(small_world.graph, metrics_enabled=False),
            workers=2,
            metrics=metrics,
        )
        executor._pool_spec()
        try:
            assert metrics.counter_value("runner.shm.publishes") == 0
        finally:
            executor.close()


class TestOneFailureRule:
    """A failing cell fails the batch as itself, serial or pooled, and
    with or without a store."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_failing_cell_raises_the_same_exception_on_every_route(
        self, small_world, tmp_path, real_pool, workers
    ):
        # λ=0 is rejected by the engine route with a PolicyError
        victim, attacker = small_world.tier1[0], small_world.tier1[1]
        bad = SweepPointTask(victim=victim, attacker=attacker, padding=0)
        tasks = [*_tasks(small_world), bad]
        engine = PropagationEngine(small_world.graph)
        with pytest.raises(PolicyError):
            run_batch(engine, tasks, RunConfig(workers=workers))
        with CampaignStore(tmp_path / "store") as store:
            with pytest.raises(PolicyError):
                run_batch(engine, tasks, RunConfig(workers=workers, store=store))
            assert task_fingerprint(bad) not in store
            if workers == 1:
                assert len(store) == len(tasks) - 1

    def test_a_storeless_worker_death_says_how_to_keep_settled_cells(
        self, small_world, monkeypatch, real_pool
    ):
        tasks = _tasks(small_world)
        parent, plain = os.getpid(), SweepPointTask.run

        def dies(task, ctx):
            if task == tasks[1] and os.getpid() != parent:
                os._exit(86)
            return plain(task, ctx)

        monkeypatch.setattr(SweepPointTask, "run", dies)
        with SupervisedExecutor(WorkerSpec(small_world.graph), workers=2) as executor:
            with pytest.raises(SimulationError) as death:
                executor.run(tasks)
            assert executor._pool is None and executor._shm_segment is None
        assert str(death.value).endswith(
            "pass --store DIR or --resume FILE to keep settled cells across a rerun"
        )
