"""Checkpoint journal: fingerprints, round-trips, crash tolerance."""

from __future__ import annotations

import json

import pytest

from repro.runner import (
    CampaignPairTask,
    CheckpointJournal,
    DeploymentPointTask,
    RetryPolicy,
    ShardedScheduler,
    SweepPointTask,
    WorkerSpec,
    task_fingerprint,
)
from repro.telemetry.metrics import RunMetrics

TASK = SweepPointTask(victim=10, attacker=20, padding=3)


class TestFingerprints:
    def test_stable_across_equal_tasks(self):
        twin = SweepPointTask(victim=10, attacker=20, padding=3)
        assert task_fingerprint(TASK) == task_fingerprint(twin)

    def test_distinguishes_fields(self):
        fingerprints = {
            task_fingerprint(SweepPointTask(victim=10, attacker=20, padding=p))
            for p in range(1, 9)
        }
        assert len(fingerprints) == 8

    def test_distinguishes_task_types(self):
        """Same field values, different task class: different identity."""
        campaign = CampaignPairTask(attacker=20, victim=10, padding=3)
        assert task_fingerprint(TASK) != task_fingerprint(campaign)

    def test_covers_every_security_policy_field(self):
        """The whole deployment configuration lives in frozen task
        fields, so two sweep points that differ only in policy,
        strategy, fraction or selection seed can never replay each
        other's journaled result."""
        base = dict(victim=10, attacker=20, padding=3)
        variants = [
            DeploymentPointTask(**base),
            DeploymentPointTask(**base, policy="rov", fraction=0.5),
            DeploymentPointTask(**base, policy="aspa", fraction=0.5),
            DeploymentPointTask(**base, policy="prependguard", fraction=0.5),
            DeploymentPointTask(
                **base, policy="aspa", fraction=0.5, strategy="random"
            ),
            DeploymentPointTask(
                **base, policy="aspa", fraction=0.5, strategy="random", seed=1
            ),
            DeploymentPointTask(**base, policy="aspa", fraction=0.25),
            DeploymentPointTask(
                **base, policy="aspa", fraction=0.5, violate_policy=False
            ),
        ]
        fingerprints = {task_fingerprint(task) for task in variants}
        assert len(fingerprints) == len(variants)

    def test_context_changes_the_fingerprint(self):
        """Run-level configuration outside the task descriptor folds in
        through ``context`` — a resume under a different setup that
        shares the task fields must not replay."""
        assert task_fingerprint(TASK) == task_fingerprint(TASK, None)
        assert task_fingerprint(TASK) == task_fingerprint(TASK, "")
        assert task_fingerprint(TASK) != task_fingerprint(TASK, "custom-world")
        assert task_fingerprint(TASK, "a") != task_fingerprint(TASK, "b")


class TestJournal:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        fp = task_fingerprint(TASK)
        with CheckpointJournal(path) as journal:
            assert not journal.completed(fp)
            journal.record_success(fp, {"rows": [1, 2, 3]})
            assert journal.completed(fp)
        reloaded = CheckpointJournal(path)
        assert reloaded.completed(fp)
        assert reloaded.result_for(fp) == {"rows": [1, 2, 3]}
        assert reloaded.completed_count == 1
        assert len(reloaded) == 1

    def test_failure_records_are_not_completed(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        fp = task_fingerprint(TASK)
        with CheckpointJournal(path) as journal:
            journal.record_failure(fp, kind="deadline", attempts=3, error="hung")
        reloaded = CheckpointJournal(path)
        # A journaled failure documents the quarantine but must not be
        # replayed as a result — resume retries the task from scratch.
        assert not reloaded.completed(fp)
        assert reloaded.completed_count == 0
        assert len(reloaded) == 1

    def test_tolerates_truncated_final_line(self, tmp_path):
        """A crash mid-append leaves a partial line; load keeps every
        record before it."""
        path = tmp_path / "journal.jsonl"
        fp = task_fingerprint(TASK)
        with CheckpointJournal(path) as journal:
            journal.record_success(fp, (4.0, 5.0))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"fingerprint": "abc", "status": "ok", "payl')
        reloaded = CheckpointJournal(path)
        assert reloaded.completed(fp)
        assert reloaded.result_for(fp) == (4.0, 5.0)
        assert not reloaded.completed("abc")

    def test_ignores_non_record_json(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text(json.dumps({"unrelated": True}) + "\n[1, 2]\n")
        journal = CheckpointJournal(path)
        assert journal.completed_count == 0

    def test_success_overrides_earlier_failure(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        fp = task_fingerprint(TASK)
        with CheckpointJournal(path) as journal:
            journal.record_failure(fp, kind="error", attempts=3, error="boom")
            journal.record_success(fp, "fine")
        reloaded = CheckpointJournal(path)
        assert reloaded.completed(fp)
        assert reloaded.result_for(fp) == "fine"


class TestResume:
    PADDINGS = tuple(range(1, 6))

    def _tasks(self, world):
        victim, attacker = world.tier1[0], world.tier1[1]
        return [
            SweepPointTask(victim=victim, attacker=attacker, padding=p)
            for p in self.PADDINGS
        ]

    def _run(self, world, tasks, journal_path, metrics, *, context=None):
        spec = WorkerSpec(world.graph, metrics_enabled=True)
        journal = CheckpointJournal(journal_path)
        try:
            with ShardedScheduler(
                spec,
                metrics=metrics,
                retry=RetryPolicy(backoff_base=0.01),
                journal=journal,
                fingerprint_context=context,
            ) as scheduler:
                return scheduler.run(tasks)
        finally:
            journal.close()

    def test_full_journal_executes_nothing(self, small_world, tmp_path):
        tasks = self._tasks(small_world)
        path = tmp_path / "sweep.jsonl"
        first = RunMetrics()
        reference = self._run(small_world, tasks, path, first)
        assert first.counter_value("worker.tasks") == len(tasks)

        second = RunMetrics()
        replayed = self._run(small_world, tasks, path, second)
        assert replayed == reference
        assert second.counter_value("worker.tasks") == 0
        assert second.counter_value("runner.resumed_tasks") == len(tasks)

    def test_partial_journal_executes_only_the_rest(self, small_world, tmp_path):
        tasks = self._tasks(small_world)
        path = tmp_path / "sweep.jsonl"
        reference = self._run(small_world, tasks, path, RunMetrics())
        keep = 2
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:keep]) + "\n")

        metrics = RunMetrics()
        resumed = self._run(small_world, tasks, path, metrics)
        assert resumed == reference
        assert metrics.counter_value("worker.tasks") == len(tasks) - keep
        assert metrics.counter_value("runner.resumed_tasks") == keep

    def test_journal_only_skips_matching_tasks(self, small_world, tmp_path):
        """A journal from one sweep must not poison a different one."""
        tasks = self._tasks(small_world)
        path = tmp_path / "sweep.jsonl"
        self._run(small_world, tasks, path, RunMetrics())

        other_attacker = small_world.tier1[2]
        victim = small_world.tier1[0]
        other_tasks = [
            SweepPointTask(victim=victim, attacker=other_attacker, padding=p)
            for p in self.PADDINGS
        ]
        metrics = RunMetrics()
        self._run(small_world, other_tasks, path, metrics)
        assert metrics.counter_value("worker.tasks") == len(other_tasks)
        assert metrics.counter_value("runner.resumed_tasks") == 0

    def test_fingerprint_context_prevents_cross_setup_replay(
        self, small_world, tmp_path
    ):
        """The same tasks under a different run-level context compute
        fresh results; the same context replays them all."""
        tasks = self._tasks(small_world)
        path = tmp_path / "sweep.jsonl"
        reference = self._run(
            small_world, tasks, path, RunMetrics(), context="setup-a"
        )

        other = RunMetrics()
        self._run(small_world, tasks, path, other, context="setup-b")
        assert other.counter_value("worker.tasks") == len(tasks)
        assert other.counter_value("runner.resumed_tasks") == 0

        same = RunMetrics()
        replayed = self._run(
            small_world, tasks, path, same, context="setup-a"
        )
        assert replayed == reference
        assert same.counter_value("worker.tasks") == 0
        assert same.counter_value("runner.resumed_tasks") == len(tasks)


class TestValidation:
    def test_retry_policy_rejects_bad_values(self):
        from repro.exceptions import SimulationError

        with pytest.raises(SimulationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(SimulationError):
            RetryPolicy(deadline=0.0)
        with pytest.raises(SimulationError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(SimulationError):
            RetryPolicy(max_pool_restarts=-1)

    def test_backoff_schedule(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0, backoff_max=0.5)
        assert policy.backoff(0) == 0.0
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(3) == pytest.approx(0.4)
        assert policy.backoff(4) == pytest.approx(0.5)  # capped
        assert policy.backoff(10) == pytest.approx(0.5)
