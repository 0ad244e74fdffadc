"""CampaignStore: roundtrips, dedupe, corruption tolerance, compaction —
on both shapes of the log (``DIR/records.jsonl`` and a single file), the
lines a pre-store checkpoint journal left behind included."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.exceptions import SimulationError
from repro.runner import RunConfig, SweepPointTask, run_batch, task_fingerprint
from repro.store import MISSING, SCHEMA_VERSION, CampaignStore, import_journal
from repro.store.store import decode_record, encode_record
from repro.telemetry.metrics import RunMetrics


def _fp(padding: int) -> str:
    return task_fingerprint(SweepPointTask(victim=10, attacker=20, padding=padding))


class _Shape:
    """Every class below runs once per log shape: as written on a
    directory store, and through its ``…SingleFile`` subclass on a
    ``--resume``-style file."""

    single_file = False

    @pytest.fixture()
    def root(self, tmp_path):
        """The path a store of this shape is opened at."""
        return tmp_path / ("store.jsonl" if self.single_file else "store")

    @pytest.fixture()
    def log(self, root):
        """The record log behind ``root``."""
        return root if self.single_file else root / "records.jsonl"

    def open(self, root, **kwargs):
        return CampaignStore(root, single_file=self.single_file, **kwargs)


class TestRoundtrip(_Shape):
    def test_put_get_roundtrip(self, root):
        with self.open(root) as store:
            payload = {"rows": [(1, 0.5), (2, 0.75)], "note": "hello"}
            assert store.put(_fp(1), payload) is True
            assert store.get(_fp(1)) == payload

    def test_none_is_a_valid_payload(self, root):
        """The miss sentinel is MISSING, never None."""
        with self.open(root) as store:
            store.put(_fp(1), None)
            assert store.get(_fp(1)) is None
            assert store.get(_fp(2)) is MISSING
            assert store.get(_fp(2), default="fallback") == "fallback"

    def test_contains_len_fingerprints_kind(self, root):
        with self.open(root) as store:
            store.put(_fp(1), 1.0)
            store.put(_fp(2), 2.0, kind="experiment")
            assert _fp(1) in store
            assert _fp(3) not in store
            assert len(store) == 2
            assert set(store.fingerprints()) == {_fp(1), _fp(2)}
            assert store.kind_of(_fp(1)) == "task"
            assert store.kind_of(_fp(2)) == "experiment"
            assert [fp for fp in (_fp(1), _fp(2), _fp(3)) if fp not in store] == [_fp(3)]

    def test_records_survive_reopen(self, root):
        with self.open(root) as store:
            store.put(_fp(1), "alpha")
        with self.open(root) as store:
            assert store.get(_fp(1)) == "alpha"

    def test_cross_instance_visibility_via_refresh(self, root):
        """A second open handle observes appends made by the first."""
        writer = self.open(root)
        reader = self.open(root)
        try:
            writer.put(_fp(1), "from-writer")
            assert reader.get(_fp(1)) == "from-writer"
        finally:
            writer.close()
            reader.close()


class TestDedupe(_Shape):
    def test_second_put_is_a_noop(self, root):
        metrics = RunMetrics()
        with self.open(root, metrics=metrics) as store:
            assert store.put(_fp(1), "first") is True
            size = store.path.stat().st_size
            assert store.put(_fp(1), "first") is False
            assert store.path.stat().st_size == size
            assert metrics.counter_value("store.dedup_writes") == 1
            assert metrics.counter_value("store.puts") == 1

    def test_duplicate_records_on_disk_first_wins(self, root, log):
        """Two racing processes may both append a record for the same
        fingerprint; the scan keeps the first and counts the rest."""
        with self.open(root) as store:
            store.put(_fp(1), "first")
        with open(log, "ab") as handle:
            handle.write(encode_record(_fp(1), "second"))
        metrics = RunMetrics()
        with self.open(root, metrics=metrics) as store:
            assert store.get(_fp(1)) == "first"
            assert len(store) == 1
            assert metrics.counter_value("store.duplicate_records") == 1


class TestCorruptionTolerance(_Shape):
    def test_truncated_tail_is_skipped_then_fenced(self, root, log):
        """A crash mid-append leaves an unterminated line; readers skip
        it and the next append fences it off with a newline."""
        with self.open(root) as store:
            store.put(_fp(1), "whole")
        with open(log, "ab") as handle:
            handle.write(encode_record(_fp(2), "torn")[:40])
        with self.open(root) as store:
            assert store.get(_fp(1)) == "whole"
            assert store.get(_fp(2)) is MISSING
            store.put(_fp(3), "after-crash")
            assert store.get(_fp(3)) == "after-crash"
        # the fragment became one garbled line, fenced by the new append
        with self.open(root) as store:
            assert set(store.fingerprints()) == {_fp(1), _fp(3)}

    def test_newer_schema_records_are_skipped(self, root, log):
        with self.open(root) as store:
            store.put(_fp(1), "current")
        line = json.loads(encode_record(_fp(2), "future").decode())
        line["v"] = SCHEMA_VERSION + 1
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(line) + "\n")
        with self.open(root) as store:
            assert store.get(_fp(1)) == "current"
            assert store.get(_fp(2)) is MISSING

    def test_payload_digest_mismatch_is_skipped(self, root, log):
        record = json.loads(encode_record(_fp(1), "tampered").decode())
        record["sha"] = "0" * 64
        log.parent.mkdir(exist_ok=True)
        log.write_text(json.dumps(record) + "\n")
        metrics = RunMetrics()
        with self.open(root, metrics=metrics) as store:
            assert store.get(_fp(1)) is MISSING
            assert metrics.counter_value("store.corrupt_records") == 1

    def test_stale_records_are_counted_apart_from_corrupt_ones(self, root, log):
        """A whole record this reader has no use for — a newer schema,
        a legacy journal's failure line — is not damage."""
        future = json.loads(encode_record(_fp(1), "future").decode())
        future["v"] = SCHEMA_VERSION + 1
        failed = {"fp": _fp(2), "status": "failed", "kind": "crash", "attempts": 3, "error": "x"}
        log.parent.mkdir(exist_ok=True)
        log.write_text(json.dumps(future) + "\n" + json.dumps(failed) + "\nnot json\n")
        metrics = RunMetrics()
        with self.open(root, metrics=metrics) as store:
            assert len(store) == 0
        assert metrics.counter_value("store.stale_records") == 2
        assert metrics.counter_value("store.corrupt_records") == 1

    @pytest.mark.parametrize("escaped", [True, False], ids=["json-escaped", "raw-utf8"])
    def test_non_ascii_payload_is_corrupt(self, root, log, tmp_path, escaped):
        """Base64 armour is ASCII, so a payload that decodes to anything
        else is damage: counted, skipped, compacted away and never
        imported — whether the line spells it ``\\u00e9`` (pure-ASCII
        bytes) or as raw UTF-8."""
        with self.open(root) as store:
            store.put(_fp(1), "good")
        good = log.read_bytes()
        record = json.loads(encode_record(_fp(2), "bad").decode())
        record["payload"] = "é" + record["payload"]
        line = (json.dumps(record, ensure_ascii=escaped) + "\n").encode("utf-8")
        assert line.isascii() is escaped
        with open(log, "ab") as handle:
            handle.write(line + line)
        metrics = RunMetrics()
        with self.open(root, metrics=metrics) as store:
            assert len(store) == 1
            assert metrics.counter_value("store.corrupt_records") == 2
            with CampaignStore(tmp_path / "imported") as target:
                assert import_journal(log, target) == 1
                assert list(target.fingerprints()) == [_fp(1)]
            assert store.compact() == 2 * len(line)
            assert store.get(_fp(1)) == "good"
        assert log.read_bytes() == good

    def test_decode_record_rejects_garbage(self):
        assert decode_record(b"not json") is None
        assert decode_record(b"[1, 2, 3]") is None
        assert decode_record(b'{"fp": 5, "payload": "x"}') is None
        valid = encode_record(_fp(1), "ok").rstrip(b"\n")
        assert decode_record(valid) is not None
        assert decode_record(valid[: len(valid) // 2]) is None


class TestCompact(_Shape):
    def test_compact_drops_duplicates_and_garbage(self, root, log):
        with self.open(root) as store:
            store.put(_fp(1), "one")
            store.put(_fp(2), "two")
        with open(log, "ab") as handle:
            handle.write(encode_record(_fp(1), "dupe"))
            handle.write(b"garbage line\n")
        dirty = log.stat().st_size
        metrics = RunMetrics()
        with self.open(root, metrics=metrics) as store:
            reclaimed = store.compact()
            assert reclaimed > 0
            assert log.stat().st_size == dirty - reclaimed
            # contents intact after the rewrite
            assert store.get(_fp(1)) == "one"
            assert store.get(_fp(2)) == "two"
            assert len(store) == 2
            assert metrics.counter_value("store.compactions") == 1

    def test_compact_on_empty_store(self, root):
        with self.open(root) as store:
            assert store.compact() == 0

    def test_store_usable_after_compact(self, root):
        with self.open(root) as store:
            store.put(_fp(1), "one")
            store.compact()
            store.put(_fp(2), "two")
            assert store.get(_fp(2)) == "two"


class TestTelemetryAndLifecycle(_Shape):
    def test_hit_miss_put_bytes_counters(self, root):
        metrics = RunMetrics()
        with self.open(root, metrics=metrics) as store:
            store.get(_fp(1))
            store.put(_fp(1), "value")
            store.get(_fp(1))
            store.get(_fp(1))
            assert metrics.counter_value("store.misses") == 1
            assert metrics.counter_value("store.hits") == 2
            assert metrics.counter_value("store.puts") == 1
            assert metrics.counter_value("store.bytes") == store.path.stat().st_size

    def test_store_counters_excluded_from_deterministic_snapshot(self, root):
        """store.* measures work avoided — run-shaped, so it must not
        leak into bit-identity comparisons."""
        metrics = RunMetrics()
        with self.open(root, metrics=metrics) as store:
            store.put(_fp(1), "value")
            store.get(_fp(1))
        snapshot = metrics.deterministic_snapshot()
        assert not any(name.startswith("store.") for name in snapshot["counters"])
        assert metrics.counter_value("store.hits") == 1

    def test_stats(self, root):
        with self.open(root) as store:
            store.put(_fp(1), "task-record")
            store.put(_fp(2), "figure", kind="experiment")
            stats = store.stats()
            assert stats["records"] == 2
            assert stats["kinds"] == {"experiment": 1, "task": 1}
            assert stats["bytes"] == store.path.stat().st_size

    def test_closed_store_refuses_use(self, root):
        store = self.open(root)
        store.put(_fp(1), "value")
        store.close()
        store.close()  # idempotent
        with pytest.raises(SimulationError, match="closed"):
            store.get(_fp(1))
        with pytest.raises(SimulationError, match="closed"):
            store.put(_fp(2), "value")


class TestRoundtripSingleFile(TestRoundtrip):
    single_file = True


class TestDedupeSingleFile(TestDedupe):
    single_file = True


class TestCorruptionToleranceSingleFile(TestCorruptionTolerance):
    single_file = True


class TestCompactSingleFile(TestCompact):
    single_file = True


class TestTelemetryAndLifecycleSingleFile(TestTelemetryAndLifecycle):
    single_file = True


class TestShapeOnDisk:
    """What is on disk decides the shape; the flag only shapes a path
    that does not exist yet, and opening creates nothing."""

    def test_a_new_path_takes_the_shape_asked_for(self, tmp_path):
        with CampaignStore(tmp_path / "s") as store:
            assert store.path == tmp_path / "s" / "records.jsonl"
            assert store.stats()["records"] == 0 and store.compact() == 0
        with CampaignStore(tmp_path / "deep" / "r.jsonl", single_file=True) as store:
            assert store.path == tmp_path / "deep" / "r.jsonl"
            assert list(tmp_path.iterdir()) == []  # nothing was created
            store.put(_fp(1), "value")
        assert (tmp_path / "deep" / "r.jsonl").is_file()

    @pytest.mark.parametrize("single_file", [False, True])
    def test_an_existing_path_is_opened_as_what_it_is(self, tmp_path, single_file):
        with CampaignStore(tmp_path / "dir") as store:
            store.put(_fp(1), "in-dir")
        with CampaignStore(tmp_path / "file.jsonl", single_file=True) as store:
            store.put(_fp(2), "in-file")
        with CampaignStore(tmp_path / "dir", single_file=single_file) as store:
            assert store.path == tmp_path / "dir" / "records.jsonl"
            assert store.get(_fp(1)) == "in-dir"
        with CampaignStore(tmp_path / "file.jsonl", single_file=single_file) as store:
            assert store.path == tmp_path / "file.jsonl"
            assert store.get(_fp(2)) == "in-file"

    @pytest.mark.parametrize("single_file", [False, True])
    def test_a_path_no_log_can_live_at_is_refused(self, tmp_path, single_file):
        (tmp_path / "file").write_text("")
        (tmp_path / "dir" / "records.jsonl").mkdir(parents=True)
        for path in (tmp_path / "file" / "under", tmp_path / "dir"):
            with pytest.raises(SimulationError, match="no result store can be opened"):
                CampaignStore(path, single_file=single_file)


LEGACY = Path(__file__).parent / "data" / "legacy_journal.jsonl"


class TestLegacyJournal:
    """``data/legacy_journal.jsonl`` was written by the last commit that
    had ``CheckpointJournal``, for the seven λ-cells of ``_tasks`` on
    ``small_world``: five successes, a sixth success after its own
    failure line, a seventh with only a failure line, and a truncated
    final line.  Its lines are version-0 records of the one store."""

    @staticmethod
    def _tasks(world):
        victim, attacker = world.tier1[0], world.tier1[1]
        return [
            SweepPointTask(victim=victim, attacker=attacker, padding=padding)
            for padding in range(1, 8)
        ]

    @pytest.fixture()
    def journal(self, tmp_path):
        return Path(shutil.copy(LEGACY, tmp_path / "journal.jsonl"))

    def test_resume_replays_it_in_place(self, small_engine, small_world, journal):
        tasks = self._tasks(small_world)
        metrics = RunMetrics()
        with CampaignStore(journal, single_file=True) as store:
            resumed = run_batch(small_engine, tasks, RunConfig(store=store, metrics=metrics))
        assert resumed == run_batch(small_engine, tasks)
        assert metrics.counter_value("scheduler.store_hits") == 6
        assert metrics.counter_value("worker.tasks") == 1
        # the seventh cell landed as a v1 record after the v0 lines
        assert journal.read_bytes().startswith(LEGACY.read_bytes())
        with CampaignStore(journal) as store:
            assert len(store) == 7
            assert store.get(task_fingerprint(tasks[6])) == resumed[6]

    def test_import_compact_and_reopen(self, small_world, journal, tmp_path):
        fingerprints = [task_fingerprint(task) for task in self._tasks(small_world)]
        metrics = RunMetrics()
        with CampaignStore(tmp_path / "store") as store:
            assert import_journal(journal, store) == 6
            assert import_journal(journal, store) == 0
            assert [fp for fp in fingerprints if fp not in store] == fingerprints[6:]
            imported = [store.get(fp) for fp in fingerprints[:6]]
        assert journal.read_bytes() == LEGACY.read_bytes()
        with CampaignStore(journal, metrics=metrics) as store:
            assert metrics.counter_value("store.stale_records") == 2
            assert metrics.counter_value("store.corrupt_records") == 0
            assert store.compact() > 0
            assert [store.get(fp) for fp in fingerprints[:6]] == imported
        with CampaignStore(journal) as store:
            assert [store.get(fp) for fp in fingerprints[:6]] == imported
