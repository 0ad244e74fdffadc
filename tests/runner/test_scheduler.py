"""ShardedScheduler: bit-identity with a bare executor, store dedupe,
interrupted-run replay, supervision composition."""

from __future__ import annotations

import pytest

import repro.runner.executor as executor_mod
from repro.bgp.engine import PropagationEngine
from repro.exceptions import SimulationError
from repro.experiments.sweeps import padding_sweep
from repro.runner import (
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    RunConfig,
    ShardedScheduler,
    SupervisedExecutor,
    SweepPointTask,
    TaskFailure,
    WorkerSpec,
    task_fingerprint,
)
from repro.store import CampaignStore
from repro.telemetry.metrics import RunMetrics

FAST = RetryPolicy(max_attempts=5)

pytestmark = pytest.mark.usefixtures("fast_backoff")


def _tasks(world, count=10):
    victim, attacker = world.tier1[0], world.tier1[1]
    pairs = [(victim, attacker), (attacker, victim)]
    return [
        SweepPointTask(victim=v, attacker=a, padding=p)
        for v, a in pairs
        for p in range(1, count // 2 + 1)
    ]


def _single_pool_reference(world, tasks, *, retry=None, fault_plan=None):
    spec = WorkerSpec(world.graph, fault_plan=fault_plan)
    with SupervisedExecutor(spec, workers=1, retry=retry) as executor:
        return executor.run(tasks)


class TestMatchesBareExecutor:
    def test_matches_single_pool(self, small_world):
        tasks = _tasks(small_world)
        reference = _single_pool_reference(small_world, tasks)
        with ShardedScheduler(WorkerSpec(small_world.graph)) as scheduler:
            assert scheduler.run(tasks) == reference
            assert scheduler.stats == {
                "tasks": len(tasks),
                "store_hits": 0,
                "executed": len(tasks),
            }

    def test_matches_single_pool_under_fault_injection(self, small_world):
        tasks = _tasks(small_world)
        plan = FaultPlan.seeded(tasks, seed=3, rate=0.5, modes=("crash", "raise"))
        assert plan  # the seed must actually schedule faults
        reference = _single_pool_reference(
            small_world, tasks, retry=FAST, fault_plan=plan
        )
        with ShardedScheduler(
            WorkerSpec(small_world.graph, fault_plan=plan), retry=FAST
        ) as scheduler:
            assert scheduler.run(tasks) == reference

    def test_results_keep_task_order(self, small_world, tmp_path):
        """Also when only every other cell is missing from the store."""
        tasks = _tasks(small_world)
        with CampaignStore(tmp_path / "store") as store:
            with ShardedScheduler(
                WorkerSpec(small_world.graph), stores=[store]
            ) as scheduler:
                scheduler.run(tasks[::2])
            with ShardedScheduler(
                WorkerSpec(small_world.graph), stores=[store]
            ) as scheduler:
                results = scheduler.run(tasks)
        for task, result in zip(tasks, results):
            assert result.padding == task.padding
            assert result.victim == task.victim
            assert result.attacker == task.attacker


class TestStoreIntegration:
    def test_warm_store_executes_nothing(self, small_world, tmp_path):
        tasks = _tasks(small_world)
        root = tmp_path / "store"
        with CampaignStore(root) as store:
            with ShardedScheduler(
                WorkerSpec(small_world.graph), stores=[store]
            ) as scheduler:
                first = scheduler.run(tasks)
            assert scheduler.stats["executed"] == len(tasks)
            assert len(store) == len(tasks)

        metrics = RunMetrics()
        with CampaignStore(root, metrics=metrics) as store:
            with ShardedScheduler(
                WorkerSpec(small_world.graph), stores=[store], metrics=metrics
            ) as scheduler:
                second = scheduler.run(tasks)
            assert scheduler.stats == {
                "tasks": len(tasks),
                "store_hits": len(tasks),
                "executed": 0,
            }
        assert second == first
        # an all-hits run never builds an executor, engine or topology
        assert metrics.counter_value("scheduler.store_hits") == len(tasks)
        assert not any(
            name.startswith("engine.") for name in metrics.counters
        )

    def test_partial_warm_store_runs_only_missing_cells(
        self, small_world, tmp_path
    ):
        tasks = _tasks(small_world)
        reference = _single_pool_reference(small_world, tasks)
        with CampaignStore(tmp_path / "store") as store:
            with ShardedScheduler(
                WorkerSpec(small_world.graph), stores=[store]
            ) as scheduler:
                scheduler.run(tasks[: len(tasks) // 2])
            with ShardedScheduler(
                WorkerSpec(small_world.graph), stores=[store]
            ) as scheduler:
                results = scheduler.run(tasks)
            assert scheduler.stats["store_hits"] == len(tasks) // 2
            assert scheduler.stats["executed"] == len(tasks) - len(tasks) // 2
        assert results == reference

    def test_every_store_ends_up_holding_every_cell(self, small_world, tmp_path):
        """Stores are asked in order; a hit in one, or a fresh result,
        is put into the others (``--store D --resume F``)."""
        tasks = _tasks(small_world)
        half = len(tasks) // 2
        spec = WorkerSpec(small_world.graph)
        with CampaignStore(tmp_path / "store") as store, CampaignStore(
            tmp_path / "resume.jsonl", single_file=True
        ) as resume:
            with ShardedScheduler(spec, stores=[resume]) as scheduler:
                first = scheduler.run(tasks[:half])
            with ShardedScheduler(spec, stores=[store, resume]) as scheduler:
                assert scheduler.run(tasks)[:half] == first
            assert scheduler.stats["store_hits"] == half
            assert scheduler.stats["executed"] == len(tasks) - half
            assert len(store) == len(resume) == len(tasks)


class TestSupervisionComposition:
    def test_failures_are_never_recorded(self, small_world, tmp_path):
        """A store is truth about completed work only: a quarantined
        task must be retried by the next run, not remembered forever."""
        tasks = _tasks(small_world)
        poisoned = tasks[3]
        plan = FaultPlan.for_tasks(
            {poisoned: FaultSpec("raise", attempts=tuple(range(FAST.max_attempts)))}
        )
        fp = task_fingerprint(poisoned)
        with CampaignStore(tmp_path / "store") as store:
            with ShardedScheduler(
                WorkerSpec(small_world.graph, fault_plan=plan),
                retry=FAST,
                stores=[store],
            ) as scheduler:
                results = scheduler.run(tasks)
            assert isinstance(results[3], TaskFailure)
            assert fp not in store
            assert len(store) == len(tasks) - 1
            # the next run, fault-free, retries exactly the quarantined cell
            with ShardedScheduler(
                WorkerSpec(small_world.graph), stores=[store]
            ) as scheduler:
                assert scheduler.run(tasks) == _single_pool_reference(
                    small_world, tasks
                )
            assert scheduler.stats["executed"] == 1


class TestInterruptedRunKeepsItsWork:
    """Results are recorded as they settle, whichever persistence is
    attached: a sweep interrupted at cell k replays every cell that
    settled before it."""

    PADDINGS = tuple(range(1, 7))
    INTERRUPT_AT = 5

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("persistence", ["store", "resume-file"])
    def test_settled_cells_replay_after_an_interrupt(
        self, small_engine, small_world, tmp_path, monkeypatch, persistence, workers
    ):
        # the pool must be real even on a one-CPU host
        monkeypatch.setattr(executor_mod, "available_cpus", lambda: 4)
        victim, attacker = small_world.tier1[0], small_world.tier1[1]
        reference = padding_sweep(
            small_engine, victim=victim, attacker=attacker, paddings=self.PADDINGS
        )
        path = tmp_path / persistence

        def sweep(metrics=None):
            def run(**persisted):
                return padding_sweep(
                    small_engine,
                    victim=victim,
                    attacker=attacker,
                    paddings=self.PADDINGS,
                    run=RunConfig(workers=workers, metrics=metrics, **persisted),
                )

            if persistence == "resume-file":
                return run(resume=path)
            with CampaignStore(path) as store:
                return run(store=store)

        plain_run = SweepPointTask.run

        def interrupted_run(task, ctx):
            if task.padding == self.INTERRUPT_AT:
                raise KeyboardInterrupt
            return plain_run(task, ctx)

        with monkeypatch.context() as patch:
            patch.setattr(SweepPointTask, "run", interrupted_run)
            with pytest.raises(KeyboardInterrupt):
                sweep()

        with CampaignStore(path) as store:
            recorded = [
                padding
                for padding in self.PADDINGS
                if task_fingerprint(
                    SweepPointTask(victim=victim, attacker=attacker, padding=padding)
                )
                in store
            ]
        # serially the cells settle in order; a pool settles at least
        # the one whose slot the interrupting cell was submitted into
        assert recorded == [1, 2, 3, 4] if workers == 1 else recorded
        assert self.INTERRUPT_AT not in recorded

        metrics = RunMetrics()
        assert sweep(metrics) == reference
        assert metrics.counter_value("worker.tasks") == len(self.PADDINGS) - len(
            recorded
        )


class TestGuards:
    def test_engine_adoption_requires_serial_workers(self, small_world, monkeypatch):
        monkeypatch.setattr(executor_mod, "available_cpus", lambda: 4)
        engine = PropagationEngine(small_world.graph)
        with pytest.raises(SimulationError, match="engine/cache adoption"):
            ShardedScheduler(WorkerSpec(small_world.graph), workers=2, engine=engine)

    def test_closed_scheduler_refuses_runs(self, small_world):
        scheduler = ShardedScheduler(WorkerSpec(small_world.graph))
        scheduler.close()
        scheduler.close()  # idempotent
        with pytest.raises(SimulationError, match="closed"):
            scheduler.run(_tasks(small_world))

    def test_engine_metrics_restored_on_close(self, small_world):
        """Serial engine adoption must not leave the scheduler's
        registry attached to the caller's engine."""
        engine = PropagationEngine(small_world.graph)
        before = engine.metrics
        metrics = RunMetrics()
        with ShardedScheduler(
            WorkerSpec(small_world.graph), metrics=metrics, engine=engine
        ) as scheduler:
            scheduler.run(_tasks(small_world, count=4))
        assert engine.metrics is before
