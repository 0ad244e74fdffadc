"""ShardedScheduler: bit-identity at any shard count, store dedupe,
work-stealing discipline, supervision composition."""

from __future__ import annotations

from collections import deque

import pytest

from repro.bgp.engine import PropagationEngine
from repro.exceptions import SimulationError
from repro.experiments.sweeps import padding_sweep
from repro.runner import (
    CheckpointJournal,
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
from repro.runner.scheduler import _QueuedTask
from repro.store import CampaignStore
from repro.telemetry.metrics import RunMetrics

FAST = RetryPolicy(max_attempts=5, backoff_base=0.0, backoff_max=0.0)


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


class TestBitIdentityAcrossShards:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_matches_single_pool(self, small_world, shards):
        tasks = _tasks(small_world)
        reference = _single_pool_reference(small_world, tasks)
        with ShardedScheduler(
            WorkerSpec(small_world.graph), shards=shards
        ) as scheduler:
            assert scheduler.run(tasks) == reference
            assert scheduler.stats["tasks"] == len(tasks)
            assert scheduler.stats["executed"] == len(tasks)
            assert scheduler.stats["store_hits"] == 0

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_matches_single_pool_under_fault_injection(self, small_world, shards):
        """Fault plans key on task fingerprints, not placement, so a
        seeded chaos run is shard-count-invariant too."""
        tasks = _tasks(small_world)
        plan = FaultPlan.seeded(tasks, seed=3, rate=0.5, modes=("crash", "raise"))
        assert plan  # the seed must actually schedule faults
        reference = _single_pool_reference(
            small_world, tasks, retry=FAST, fault_plan=plan
        )
        with ShardedScheduler(
            WorkerSpec(small_world.graph, fault_plan=plan),
            shards=shards,
            retry=FAST,
        ) as scheduler:
            assert scheduler.run(tasks) == reference

    def test_results_keep_task_order(self, small_world):
        tasks = _tasks(small_world)
        with ShardedScheduler(
            WorkerSpec(small_world.graph), shards=4
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
                WorkerSpec(small_world.graph), shards=2, store=store
            ) as scheduler:
                first = scheduler.run(tasks)
            assert scheduler.stats["executed"] == len(tasks)
            assert len(store) == len(tasks)

        metrics = RunMetrics()
        with CampaignStore(root, metrics=metrics) as store:
            with ShardedScheduler(
                WorkerSpec(small_world.graph),
                shards=2,
                store=store,
                metrics=metrics,
            ) as scheduler:
                second = scheduler.run(tasks)
            assert scheduler.stats == {
                "tasks": len(tasks),
                "store_hits": len(tasks),
                "executed": 0,
                "steals": 0,
                "stolen_tasks": 0,
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
                WorkerSpec(small_world.graph), shards=2, store=store
            ) as scheduler:
                scheduler.run(tasks[: len(tasks) // 2])
            with ShardedScheduler(
                WorkerSpec(small_world.graph), shards=2, store=store
            ) as scheduler:
                results = scheduler.run(tasks)
            assert scheduler.stats["store_hits"] == len(tasks) // 2
            assert scheduler.stats["executed"] == len(tasks) - len(tasks) // 2
        assert results == reference

    def test_store_hits_cross_scheduler_shapes(self, small_world, tmp_path):
        """Cells computed by a 1-shard serial run serve a 4-shard run:
        content addressing is placement-blind."""
        tasks = _tasks(small_world)
        with CampaignStore(tmp_path / "store") as store:
            with ShardedScheduler(
                WorkerSpec(small_world.graph), shards=1, store=store
            ) as scheduler:
                first = scheduler.run(tasks)
            with ShardedScheduler(
                WorkerSpec(small_world.graph), shards=4, store=store
            ) as scheduler:
                second = scheduler.run(tasks)
            assert scheduler.stats["executed"] == 0
        assert second == first


class TestWorkStealing:
    def _scheduler(self, world):
        return ShardedScheduler(WorkerSpec(world.graph), shards=2)

    def test_own_queue_drains_in_order(self, small_world):
        with self._scheduler(small_world) as scheduler:
            own = [_QueuedTask(i, None, f"fp-{i}") for i in range(4)]
            queues = [deque(own), deque()]
            scheduler.stats = {"steals": 0, "stolen_tasks": 0}
            chunk = scheduler._take(queues, 0)
            assert [q.index for q in chunk] == [0, 1, 2, 3]
            assert not queues[0]
            assert scheduler.stats["steals"] == 0

    def test_steal_takes_tail_half_in_order(self, small_world):
        """Classic discipline: the thief takes the tail half of the most
        loaded queue (reversed back to original order); the owner keeps
        the head it is about to run."""
        with self._scheduler(small_world) as scheduler:
            victim = [_QueuedTask(i, None, f"fp-{i}") for i in range(5)]
            queues = [deque(victim), deque()]
            scheduler.stats = {"steals": 0, "stolen_tasks": 0}
            chunk = scheduler._take(queues, 1)
            assert [q.index for q in chunk] == [2, 3, 4]
            assert [q.index for q in queues[0]] == [0, 1]
            assert scheduler.stats["steals"] == 1
            assert scheduler.stats["stolen_tasks"] == 3

    def test_take_on_all_empty_queues_returns_nothing(self, small_world):
        with self._scheduler(small_world) as scheduler:
            scheduler.stats = {"steals": 0, "stolen_tasks": 0}
            assert scheduler._take([deque(), deque()], 0) == []
            assert scheduler.stats["steals"] == 0


class TestSupervisionComposition:
    def test_shared_journal_checkpoints_every_task(self, small_world, tmp_path):
        tasks = _tasks(small_world)
        path = tmp_path / "journal.jsonl"
        with CheckpointJournal(path) as journal:
            with ShardedScheduler(
                WorkerSpec(small_world.graph), shards=2, journal=journal
            ) as scheduler:
                first = scheduler.run(tasks)
            assert journal.completed_count == len(tasks)

        metrics = RunMetrics()
        with CheckpointJournal(path) as journal:
            with ShardedScheduler(
                WorkerSpec(small_world.graph),
                shards=2,
                journal=journal,
                metrics=metrics,
            ) as scheduler:
                second = scheduler.run(tasks)
        assert second == first
        assert metrics.counter_value("runner.resumed_tasks") == len(tasks)

    @pytest.mark.parametrize("shards", [1, 2])
    def test_failures_go_to_the_journal_never_the_store(
        self, small_world, tmp_path, shards
    ):
        """The store is truth about completed work only: a quarantined
        task must be retried by the next run, not remembered forever."""
        tasks = _tasks(small_world)
        poisoned = tasks[3]
        plan = FaultPlan.for_tasks(
            {poisoned: FaultSpec("raise", attempts=tuple(range(FAST.max_attempts)))}
        )
        fp = task_fingerprint(poisoned)
        with CampaignStore(tmp_path / "store") as store:
            with CheckpointJournal(tmp_path / "journal.jsonl") as journal:
                with ShardedScheduler(
                    WorkerSpec(small_world.graph, fault_plan=plan),
                    shards=shards,
                    retry=FAST,
                    store=store,
                    journal=journal,
                ) as scheduler:
                    results = scheduler.run(tasks)
                assert journal.failed(fp)
                assert journal.completed_count == len(tasks) - 1
            assert isinstance(results[3], TaskFailure)
            assert fp not in store
            assert len(store) == len(tasks) - 1
            # the next run, fault-free, retries exactly the quarantined cell
            with ShardedScheduler(
                WorkerSpec(small_world.graph), shards=shards, store=store
            ) as scheduler:
                assert scheduler.run(tasks) == _single_pool_reference(
                    small_world, tasks
                )
            assert scheduler.stats["executed"] == 1

    def test_shard_metrics_merge_back(self, small_world):
        tasks = _tasks(small_world)
        metrics = RunMetrics()
        with ShardedScheduler(
            WorkerSpec(small_world.graph, metrics_enabled=True),
            shards=2,
            metrics=metrics,
        ) as scheduler:
            scheduler.run(tasks)
        assert metrics.counter_value("worker.tasks") == len(tasks)
        assert metrics.counter_value("scheduler.executed") == len(tasks)


class TestInterruptedRunKeepsItsWork:
    """Results are recorded as they settle, whichever persistence is
    attached and however many shards run: a sweep interrupted at cell k
    replays every cell that settled before it."""

    PADDINGS = tuple(range(1, 7))
    INTERRUPT_AT = 5

    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("persistence", ["store", "checkpoint"])
    def test_settled_cells_replay_after_an_interrupt(
        self, small_engine, small_world, tmp_path, monkeypatch, persistence, shards
    ):
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
                    run=RunConfig(shards=shards, metrics=metrics, **persisted),
                )

            if persistence == "checkpoint":
                return run(resume=path)
            with CampaignStore(path) as store:
                return run(store=store)

        settled: list[int] = []
        plain_run = SweepPointTask.run

        def interrupted_run(task, ctx):
            if task.padding == self.INTERRUPT_AT:
                raise KeyboardInterrupt
            result = plain_run(task, ctx)
            settled.append(task.padding)
            return result

        with monkeypatch.context() as patch:
            patch.setattr(SweepPointTask, "run", interrupted_run)
            with pytest.raises(KeyboardInterrupt):
                sweep()
        # shard 0 always settles λ=1 and λ=3 before it reaches λ=5
        assert {1, 3} <= set(settled)
        assert self.INTERRUPT_AT not in settled

        fingerprints = [
            task_fingerprint(
                SweepPointTask(victim=victim, attacker=attacker, padding=padding)
            )
            for padding in settled
        ]
        if persistence == "checkpoint":
            with CheckpointJournal(path) as journal:
                assert all(journal.completed(fp) for fp in fingerprints)
        else:
            with CampaignStore(path) as store:
                assert all(fp in store for fp in fingerprints)

        metrics = RunMetrics()
        assert sweep(metrics) == reference
        assert metrics.counter_value("worker.tasks") == len(self.PADDINGS) - len(
            settled
        )


class TestGuards:
    def test_zero_shards_rejected(self, small_world):
        with pytest.raises(SimulationError, match="shards must be"):
            ShardedScheduler(WorkerSpec(small_world.graph), shards=0)

    def test_engine_adoption_requires_serial_single_shard(
        self, small_world, monkeypatch
    ):
        import repro.runner.executor as executor_mod

        monkeypatch.setattr(executor_mod, "available_cpus", lambda: 4)
        engine = PropagationEngine(small_world.graph)
        with pytest.raises(SimulationError, match="engine/cache adoption"):
            ShardedScheduler(
                WorkerSpec(small_world.graph), shards=2, engine=engine
            )
        with pytest.raises(SimulationError, match="engine/cache adoption"):
            ShardedScheduler(
                WorkerSpec(small_world.graph), shards=1, workers=2, engine=engine
            )

    def test_closed_scheduler_refuses_runs(self, small_world):
        scheduler = ShardedScheduler(WorkerSpec(small_world.graph), shards=1)
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
            WorkerSpec(small_world.graph),
            shards=1,
            metrics=metrics,
            engine=engine,
        ) as scheduler:
            scheduler.run(_tasks(small_world, count=4))
        assert engine.metrics is before
