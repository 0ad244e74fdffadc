"""Supervisor and executor lifecycle regressions.

Covers the robustness satellites: the shared-memory segment must never
outlive a failed pool (construction failure, worker death, interpreter
exit), a closed executor must refuse reuse instead of respawning onto
an unlinked segment, shm transport accounting must land on the
executor's effective registry in every metric mode, and pool
construction failure must degrade to serial with identical results.
"""

from __future__ import annotations

import pytest

import repro.runner.executor as executor_mod
import repro.runner.supervisor as supervisor_mod
from repro.exceptions import PolicyError, SimulationError
from repro.runner import (
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    SupervisedExecutor,
    SweepPointTask,
    TaskFailure,
    WorkerContext,
    WorkerSpec,
)
from repro.telemetry.metrics import RunMetrics

FAST = RetryPolicy()

pytestmark = pytest.mark.usefixtures("fast_backoff")


def _tasks(world, count=4):
    victim, attacker = world.tier1[0], world.tier1[1]
    return [
        SweepPointTask(victim=victim, attacker=attacker, padding=p)
        for p in range(1, count + 1)
    ]


def _serial_reference(world, tasks):
    ctx = WorkerContext(WorkerSpec(world.graph))
    return [task.run(ctx) for task in tasks]


class TestRetryPolicy:
    def test_retry_policy_rejects_bad_values(self):
        with pytest.raises(SimulationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(SimulationError):
            RetryPolicy(deadline=0.0)

    def test_backoff_schedule(self, monkeypatch):
        monkeypatch.setattr(supervisor_mod, "BACKOFF_BASE", 0.1)
        monkeypatch.setattr(supervisor_mod, "BACKOFF_MAX", 0.5)
        backoff = supervisor_mod.backoff
        assert backoff(0) == 0.0
        assert backoff(1) == pytest.approx(0.1)
        assert backoff(2) == pytest.approx(0.2)
        assert backoff(3) == pytest.approx(0.4)
        assert backoff(4) == pytest.approx(0.5)  # capped
        assert backoff(10) == pytest.approx(0.5)


class TestReuseAfterClose:
    def test_sweep_executor_run_after_close_raises(self, small_world):
        """The plain serial loop (no retry policy, nothing recorded)."""
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
        executor = SupervisedExecutor(
            WorkerSpec(small_world.graph), workers=1, retry=FAST
        )
        executor.close()
        assert executor.closed
        with pytest.raises(SimulationError, match="closed"):
            executor.run(_tasks(small_world))

    def test_context_manager_closes(self, small_world):
        with SupervisedExecutor(WorkerSpec(small_world.graph), workers=1) as executor:
            assert not executor.closed
        assert executor.closed


class TestSerialUnsupervisedPredicate:
    """The one semantic difference between routes, decided in one place."""

    def _bad(self, world):
        # λ=0 is rejected by the engine route with a PolicyError
        return [SweepPointTask(victim=world.tier1[0], attacker=world.tier1[1], padding=0)]

    def test_plain_serial_run_propagates_the_task_exception(self, small_world):
        with SupervisedExecutor(WorkerSpec(small_world.graph), workers=1) as executor:
            with pytest.raises(PolicyError):
                executor.run(self._bad(small_world))

    def test_a_retry_policy_or_a_listener_gives_supervision(self, small_world):
        spec = WorkerSpec(small_world.graph)
        with SupervisedExecutor(spec, workers=1, retry=FAST) as executor:
            (failure,) = executor.run(self._bad(small_world))
        assert isinstance(failure, TaskFailure)
        assert (failure.kind, failure.attempts) == ("error", FAST.max_attempts)
        settled = []
        with SupervisedExecutor(spec, workers=1) as executor:
            (failure,) = executor.run(
                self._bad(small_world), lambda index, value: settled.append((index, value))
            )
        assert isinstance(failure, TaskFailure)
        assert settled == [(0, failure)]


class TestShmLifecycle:
    def test_pool_construction_failure_unlinks_segment(
        self, small_world, monkeypatch, real_pool
    ):
        """If ``ProcessPoolExecutor()`` itself raises after the topology
        was published, the segment must be unlinked on the spot."""

        def explode(*args, **kwargs):
            raise OSError("no more processes")

        monkeypatch.setattr(supervisor_mod, "ProcessPoolExecutor", explode)
        before = set(executor_mod._LIVE_SEGMENTS)
        tasks = _tasks(small_world)
        executor = SupervisedExecutor(
            WorkerSpec(small_world.graph), workers=2
        )
        # The run itself degrades to serial and completes.
        assert executor.run(tasks) == _serial_reference(small_world, tasks)
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
        executor = SupervisedExecutor(
            spec, workers=2, retry=FAST
        )
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


class TestGracefulDegradation:
    def test_unbuildable_pool_degrades_to_serial(self, small_world, monkeypatch, real_pool):
        tasks = _tasks(small_world)
        reference = _serial_reference(small_world, tasks)

        def explode(*args, **kwargs):
            raise OSError("fork failed")

        monkeypatch.setattr(supervisor_mod, "ProcessPoolExecutor", explode)
        metrics = RunMetrics()
        with SupervisedExecutor(
            WorkerSpec(small_world.graph),
            workers=2,
            metrics=metrics,
            retry=FAST,
        ) as executor:
            results = executor.run(tasks)
        assert results == reference
        assert metrics.counter_value("runner.serial_degradations") == 1

    def test_persistently_dying_pool_degrades_to_serial(self, small_world, monkeypatch, real_pool):
        """A pool that keeps crashing without completing anything stalls
        out after ``MAX_POOL_RESTARTS`` losses and finishes serially."""
        tasks = _tasks(small_world, count=2)
        reference = _serial_reference(small_world, tasks)
        plan = FaultPlan.for_tasks(
            {task: FaultSpec("crash", attempts=tuple(range(6))) for task in tasks}
        )
        spec = WorkerSpec(small_world.graph, fault_plan=plan)
        metrics = RunMetrics()
        monkeypatch.setattr(supervisor_mod, "MAX_POOL_RESTARTS", 1)
        policy = RetryPolicy(max_attempts=10)
        with SupervisedExecutor(
            spec, workers=2, metrics=metrics, retry=policy
        ) as executor:
            results = executor.run(tasks)
        # In-process the crash fault surfaces as InjectedCrashError, so
        # the serial fallback retries through the remaining faulty
        # attempts and still converges.
        assert results == reference
        assert metrics.counter_value("runner.serial_degradations") == 1
        assert metrics.counter_value("runner.pool_restarts") >= 1

    def test_degraded_run_still_retries_faults(self, small_world, monkeypatch, real_pool):
        tasks = _tasks(small_world)
        reference = _serial_reference(small_world, tasks)
        plan = FaultPlan.for_tasks({tasks[1]: FaultSpec("raise", attempts=(0,))})
        monkeypatch.setattr(
            supervisor_mod,
            "ProcessPoolExecutor",
            lambda *a, **k: (_ for _ in ()).throw(OSError("fork failed")),
        )
        metrics = RunMetrics()
        spec = WorkerSpec(small_world.graph, metrics_enabled=True, fault_plan=plan)
        with SupervisedExecutor(
            spec, workers=2, metrics=metrics, retry=FAST
        ) as executor:
            results = executor.run(tasks)
        assert results == reference
        assert metrics.counter_value("runner.serial_degradations") == 1
        assert metrics.counter_value("runner.retries") == 1
        assert metrics.counter_value("worker.tasks") == len(tasks)
