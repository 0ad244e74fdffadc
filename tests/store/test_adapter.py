"""Store-backed resume and legacy-journal import: both resume paths stay green."""

from __future__ import annotations

from repro.runner import (
    CheckpointJournal,
    RetryPolicy,
    ShardedScheduler,
    SweepPointTask,
    WorkerContext,
    WorkerSpec,
    task_fingerprint,
)
from repro.store import CampaignStore, import_journal
from repro.telemetry.metrics import RunMetrics

FAST = RetryPolicy(backoff_base=0.01, backoff_max=0.05)


def _tasks(world, count=4):
    victim, attacker = world.tier1[0], world.tier1[1]
    return [
        SweepPointTask(victim=victim, attacker=attacker, padding=p)
        for p in range(1, count + 1)
    ]


class TestSupervisedResumeThroughStore:
    def test_second_run_resumes_everything_from_store(self, tmp_path, small_world):
        tasks = _tasks(small_world)
        root = tmp_path / "store"
        spec = WorkerSpec(small_world.graph)

        with CampaignStore(root) as store:
            with ShardedScheduler(spec, retry=FAST, store=store) as scheduler:
                first = scheduler.run(tasks)
            assert len(store) == len(tasks)

        metrics = RunMetrics()
        with CampaignStore(root) as store:
            with ShardedScheduler(
                spec, retry=FAST, metrics=metrics, store=store
            ) as scheduler:
                second = scheduler.run(tasks)
        assert metrics.counter_value("scheduler.store_hits") == len(tasks)
        assert second == first

    def test_store_resume_matches_serial_reference(self, tmp_path, small_world):
        tasks = _tasks(small_world)
        ctx = WorkerContext(WorkerSpec(small_world.graph))
        reference = [task.run(ctx) for task in tasks]
        with CampaignStore(tmp_path / "store") as store:
            with ShardedScheduler(
                WorkerSpec(small_world.graph), retry=FAST, store=store
            ) as scheduler:
                scheduler.run(tasks)
            replayed = [
                store.get(task_fingerprint(task)) for task in tasks
            ]
        assert replayed == reference


class TestJournalCompaction:
    def test_compact_drops_superseded_records(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with CheckpointJournal(path) as journal:
            journal.record_failure("fp-1", kind="crash", attempts=1, error="x")
            journal.record_success("fp-1", "recovered")
            journal.record_success("fp-2", "clean")
            assert journal.compact() == 1  # the superseded failure line
            # last-record-wins truth is preserved
            assert journal.completed("fp-1")
            assert journal.result_for("fp-1") == "recovered"
        with CheckpointJournal(path) as reopened:
            assert reopened.completed("fp-1")
            assert reopened.result_for("fp-1") == "recovered"
            assert reopened.result_for("fp-2") == "clean"
            assert reopened.compact() == 0

    def test_journal_usable_after_compact(self, tmp_path):
        with CheckpointJournal(tmp_path / "journal.jsonl") as journal:
            journal.record_success("fp-1", 1)
            journal.compact()
            journal.record_success("fp-2", 2)
            assert journal.result_for("fp-2") == 2


class TestImportJournal:
    def test_import_lifts_successes_only(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with CheckpointJournal(path) as journal:
            journal.record_success("fp-1", "one")
            journal.record_success("fp-2", "two")
            journal.record_failure("fp-3", kind="crash", attempts=2, error="x")
        with CampaignStore(tmp_path / "store") as store:
            assert import_journal(path, store) == 2
            assert store.get("fp-1") == "one"
            assert store.get("fp-2") == "two"
            assert "fp-3" not in store
            # idempotent: everything dedupes on the second import
            assert import_journal(path, store) == 0
        # journal left untouched: the legacy path stays green
        with CheckpointJournal(path) as journal:
            assert journal.completed("fp-1")
            assert journal.failed("fp-3")

    def test_import_accepts_open_journal(self, tmp_path):
        with CheckpointJournal(tmp_path / "journal.jsonl") as journal:
            journal.record_success("fp-1", "one")
            with CampaignStore(tmp_path / "store") as store:
                assert import_journal(journal, store) == 1
            # caller-owned journal is not closed by the import
            journal.record_success("fp-2", "two")

    def test_imported_journal_serves_a_supervised_resume(
        self, tmp_path, small_world
    ):
        """The satellite end-to-end: run with a legacy journal, import
        it, and a store-backed rerun resumes every task."""
        tasks = _tasks(small_world)
        spec = WorkerSpec(small_world.graph)
        path = tmp_path / "journal.jsonl"
        with CheckpointJournal(path) as journal:
            with ShardedScheduler(spec, retry=FAST, journal=journal) as scheduler:
                first = scheduler.run(tasks)

        metrics = RunMetrics()
        with CampaignStore(tmp_path / "store") as store:
            assert import_journal(path, store) == len(tasks)
            with ShardedScheduler(
                spec, retry=FAST, metrics=metrics, store=store
            ) as scheduler:
                second = scheduler.run(tasks)
        assert metrics.counter_value("scheduler.store_hits") == len(tasks)
        assert second == first
