"""CampaignStore: roundtrips, dedupe, corruption tolerance, compaction,
and the one version rule: a record at any version but the current one
is stale — counted, recomputed, never replayed."""

from __future__ import annotations

import json

import pytest

from repro.bgp.engine import PropagationEngine
from repro.detection.monitors import top_degree_monitors
from repro.exceptions import SimulationError
from repro.experiments.base import build_world
from repro.experiments.sweeps import exhaustive_grid
from repro.runner import (
    CampaignPairTask,
    RunConfig,
    SweepPointTask,
    run_batch,
    task_fingerprint,
)
from repro.store import MISSING, SCHEMA_VERSION, CampaignStore
from repro.store.store import decode_record, encode_record
from repro.telemetry.metrics import RunMetrics


def _fp(padding: int) -> str:
    return task_fingerprint(SweepPointTask(victim=10, attacker=20, padding=padding))


@pytest.fixture()
def root(tmp_path):
    """The directory a store is opened at."""
    return tmp_path / "store"


@pytest.fixture()
def log(root):
    """The record log behind ``root``."""
    return root / "records.jsonl"


class TestRoundtrip:
    def test_put_get_roundtrip(self, root):
        with CampaignStore(root) as store:
            payload = {"rows": [(1, 0.5), (2, 0.75)], "note": "hello"}
            assert store.put(_fp(1), payload) is True
            assert store.get(_fp(1)) == payload

    def test_none_is_a_valid_payload(self, root):
        """The miss sentinel is MISSING, never None."""
        with CampaignStore(root) as store:
            store.put(_fp(1), None)
            assert store.get(_fp(1)) is None
            assert store.get(_fp(2)) is MISSING
            assert store.get(_fp(2), default="fallback") == "fallback"

    def test_contains_len_fingerprints_kind(self, root):
        with CampaignStore(root) as store:
            store.put(_fp(1), 1.0)
            store.put(_fp(2), 2.0, kind="experiment")
            assert _fp(1) in store
            assert _fp(3) not in store
            assert len(store) == 2
            assert store.stats()["kinds"] == {"experiment": 1, "task": 1}
            assert [fp for fp in (_fp(1), _fp(2), _fp(3)) if fp not in store] == [_fp(3)]

    def test_records_survive_reopen(self, root):
        with CampaignStore(root) as store:
            store.put(_fp(1), "alpha")
        with CampaignStore(root) as store:
            assert store.get(_fp(1)) == "alpha"

    def test_cross_instance_visibility_via_refresh(self, root):
        """A second open handle observes appends made by the first."""
        writer = CampaignStore(root)
        reader = CampaignStore(root)
        try:
            writer.put(_fp(1), "from-writer")
            assert reader.get(_fp(1)) == "from-writer"
        finally:
            writer.close()
            reader.close()


class TestDedupe:
    def test_second_put_is_a_noop(self, root):
        metrics = RunMetrics()
        with CampaignStore(root, metrics=metrics) as store:
            assert store.put(_fp(1), "first") is True
            size = store.path.stat().st_size
            assert store.put(_fp(1), "first") is False
            assert store.path.stat().st_size == size
            assert metrics.counter_value("store.dedup_writes") == 1
            assert metrics.counter_value("store.puts") == 1

    def test_duplicate_records_on_disk_first_wins(self, root, log):
        """Two racing processes may both append a record for the same
        fingerprint; the scan keeps the first and counts the rest."""
        with CampaignStore(root) as store:
            store.put(_fp(1), "first")
        with open(log, "ab") as handle:
            handle.write(encode_record(_fp(1), "second"))
        metrics = RunMetrics()
        with CampaignStore(root, metrics=metrics) as store:
            assert store.get(_fp(1)) == "first"
            assert len(store) == 1
            assert metrics.counter_value("store.duplicate_records") == 1


class TestCorruptionTolerance:
    def test_truncated_tail_is_skipped_then_fenced(self, root, log):
        """A crash mid-append leaves an unterminated line; readers skip
        it and the next append fences it off with a newline."""
        with CampaignStore(root) as store:
            store.put(_fp(1), "whole")
        with open(log, "ab") as handle:
            handle.write(encode_record(_fp(2), "torn")[:40])
        with CampaignStore(root) as store:
            assert store.get(_fp(1)) == "whole"
            assert store.get(_fp(2)) is MISSING
            store.put(_fp(3), "after-crash")
            assert store.get(_fp(3)) == "after-crash"
        # the fragment became one garbled line, fenced by the new append
        with CampaignStore(root) as store:
            assert len(store) == 2 and _fp(1) in store and _fp(3) in store

    def test_a_fence_after_a_completed_append_is_not_a_corrupt_record(self, root, log):
        """A scan sees another writer's append half done; the append then
        completes, and this handle's next put still writes its fencing
        newline.  The empty line that leaves is no record."""
        with CampaignStore(root) as store:
            store.put(_fp(1), "whole")
        line = encode_record(_fp(2), "late")
        with open(log, "ab") as handle:
            handle.write(line[:40])
        with CampaignStore(root) as store:
            with open(log, "ab") as handle:
                handle.write(line[40:])
            store.put(_fp(3), "fenced")
        assert b"\n\n" in log.read_bytes()
        metrics = RunMetrics()
        with CampaignStore(root, metrics=metrics) as store:
            assert [store.get(_fp(n)) for n in (1, 2, 3)] == ["whole", "late", "fenced"]
            assert metrics.counter_value("store.corrupt_records") == 0
            assert store.compact() == 1

    def test_newer_schema_records_are_skipped(self, root, log):
        with CampaignStore(root) as store:
            store.put(_fp(1), "current")
        line = json.loads(encode_record(_fp(2), "future").decode())
        line["v"] = SCHEMA_VERSION + 1
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(line) + "\n")
        with CampaignStore(root) as store:
            assert store.get(_fp(1)) == "current"
            assert store.get(_fp(2)) is MISSING

    def test_payload_digest_mismatch_is_skipped(self, root, log):
        record = json.loads(encode_record(_fp(1), "tampered").decode())
        record["sha"] = "0" * 64
        log.parent.mkdir(exist_ok=True)
        log.write_text(json.dumps(record) + "\n")
        metrics = RunMetrics()
        with CampaignStore(root, metrics=metrics) as store:
            assert store.get(_fp(1)) is MISSING
            assert metrics.counter_value("store.corrupt_records") == 1

    def test_stale_records_are_counted_apart_from_corrupt_ones(self, root, log):
        """A whole record at another version — a newer schema, a
        pre-store journal's failure line (no version at all) — is not
        damage."""
        future = json.loads(encode_record(_fp(1), "future").decode())
        future["v"] = SCHEMA_VERSION + 1
        failed = {"fp": _fp(2), "status": "failed", "kind": "crash", "attempts": 3, "error": "x"}
        log.parent.mkdir(exist_ok=True)
        log.write_text(json.dumps(future) + "\n" + json.dumps(failed) + "\nnot json\n")
        metrics = RunMetrics()
        with CampaignStore(root, metrics=metrics) as store:
            assert len(store) == 0
        assert metrics.counter_value("store.stale_records") == 2
        assert metrics.counter_value("store.corrupt_records") == 1

    @pytest.mark.parametrize("escaped", [True, False], ids=["json-escaped", "raw-utf8"])
    def test_non_ascii_payload_is_corrupt(self, root, log, escaped):
        """Base64 armour is ASCII, so a payload that decodes to anything
        else is damage: counted, skipped and compacted away — whether
        the line spells it ``\\u00e9`` (pure-ASCII bytes) or as raw
        UTF-8."""
        with CampaignStore(root) as store:
            store.put(_fp(1), "good")
        good = log.read_bytes()
        record = json.loads(encode_record(_fp(2), "bad").decode())
        record["payload"] = "é" + record["payload"]
        line = (json.dumps(record, ensure_ascii=escaped) + "\n").encode("utf-8")
        assert line.isascii() is escaped
        with open(log, "ab") as handle:
            handle.write(line + line)
        metrics = RunMetrics()
        with CampaignStore(root, metrics=metrics) as store:
            assert len(store) == 1
            assert metrics.counter_value("store.corrupt_records") == 2
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


class TestCompact:
    def test_compact_drops_duplicates_and_garbage(self, root, log):
        with CampaignStore(root) as store:
            store.put(_fp(1), "one")
            store.put(_fp(2), "two")
        with open(log, "ab") as handle:
            handle.write(encode_record(_fp(1), "dupe"))
            handle.write(b"garbage line\n")
        dirty = log.stat().st_size
        metrics = RunMetrics()
        with CampaignStore(root, metrics=metrics) as store:
            reclaimed = store.compact()
            assert reclaimed > 0
            assert log.stat().st_size == dirty - reclaimed
            # contents intact after the rewrite
            assert store.get(_fp(1)) == "one"
            assert store.get(_fp(2)) == "two"
            assert len(store) == 2
            assert metrics.counter_value("store.compactions") == 1

    def test_compact_on_empty_store(self, root):
        with CampaignStore(root) as store:
            assert store.compact() == 0

    def test_store_usable_after_compact(self, root):
        with CampaignStore(root) as store:
            store.put(_fp(1), "one")
            store.compact()
            store.put(_fp(2), "two")
            assert store.get(_fp(2)) == "two"


class TestTelemetryAndLifecycle:
    def test_hit_miss_put_bytes_counters(self, root):
        metrics = RunMetrics()
        with CampaignStore(root, metrics=metrics) as store:
            store.get(_fp(1))
            store.put(_fp(1), "value")
            store.get(_fp(1))
            store.get(_fp(1))
            assert metrics.counter_value("store.misses") == 1
            assert metrics.counter_value("store.hits") == 2
            assert metrics.counter_value("store.puts") == 1
            assert metrics.counter_value("store.bytes") == store.path.stat().st_size

    def test_only_a_line_this_program_did_not_write_is_a_scan_fallback(self, root, log):
        """A log of ``put`` records scans without ``json.loads``; a line of
        any other shape is parsed and counted in ``store.scan_fallbacks``."""
        with CampaignStore(root) as store:
            store.put(_fp(1), "task-record")
            store.put(_fp(2), {"rows": [1, 2]}, kind="experiment")
        metrics = RunMetrics()
        with CampaignStore(root, metrics=metrics) as store:
            assert len(store) == 2
        assert metrics.counter_value("store.scan_fallbacks") == 0
        assert "store.scan_fallbacks" not in metrics.counters
        spaced = json.dumps(json.loads(encode_record(_fp(3), "spaced")), sort_keys=True)
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(spaced + "\nnot json\n")
        metrics = RunMetrics()
        with CampaignStore(root, metrics=metrics) as store:
            assert store.get(_fp(3)) == "spaced"
        assert metrics.counter_value("store.scan_fallbacks") == 2
        assert metrics.counter_value("store.corrupt_records") == 1

    def test_store_counters_excluded_from_deterministic_snapshot(self, root):
        """store.* measures work avoided — run-shaped, so it must not
        leak into bit-identity comparisons."""
        metrics = RunMetrics()
        with CampaignStore(root, metrics=metrics) as store:
            store.put(_fp(1), "value")
            store.get(_fp(1))
        snapshot = metrics.deterministic_snapshot()
        assert not any(name.startswith("store.") for name in snapshot["counters"])
        assert metrics.counter_value("store.hits") == 1

    def test_stats(self, root):
        with CampaignStore(root) as store:
            store.put(_fp(1), "task-record")
            store.put(_fp(2), "figure", kind="experiment")
            stats = store.stats()
            assert stats["records"] == 2
            assert stats["kinds"] == {"experiment": 1, "task": 1}
            assert stats["bytes"] == store.path.stat().st_size

    def test_closed_store_refuses_use(self, root):
        store = CampaignStore(root)
        store.put(_fp(1), "value")
        store.close()
        store.close()  # idempotent
        with pytest.raises(SimulationError, match="closed"):
            store.get(_fp(1))
        with pytest.raises(SimulationError, match="closed"):
            store.put(_fp(2), "value")


class TestPathOnDisk:
    """A store is a directory holding ``records.jsonl``; opening
    creates nothing."""

    def test_opening_creates_nothing(self, tmp_path):
        with CampaignStore(tmp_path / "deep" / "s") as store:
            assert store.path == tmp_path / "deep" / "s" / "records.jsonl"
            assert store.stats()["records"] == 0 and store.compact() == 0
            assert list(tmp_path.iterdir()) == []
            store.put(_fp(1), "value")
        assert (tmp_path / "deep" / "s" / "records.jsonl").is_file()

    def test_a_path_no_log_can_live_at_is_refused(self, tmp_path):
        """A file, a path under a file, and a directory whose
        ``records.jsonl`` is itself a directory."""
        (tmp_path / "file").write_text("")
        (tmp_path / "dir" / "records.jsonl").mkdir(parents=True)
        for path in (tmp_path / "file", tmp_path / "file" / "under", tmp_path / "dir"):
            with pytest.raises(SimulationError, match="no result store can be opened"):
                CampaignStore(path)


class TestVersionRule:
    """Records written before the current :data:`SCHEMA_VERSION` — a v1
    record (a two-world campaign pair among them), a v0 line of the
    pre-store journal — are stale: counted, never replayed; the next run
    recomputes the cell and compaction drops the old line."""

    @pytest.mark.parametrize("version", [1, 0])
    def test_an_old_record_is_recomputed_not_replayed(
        self, small_engine, small_world, root, log, version
    ):
        task = SweepPointTask(victim=small_world.tier1[0], attacker=small_world.tier1[1], padding=3)
        fingerprint = task_fingerprint(task)
        (plain,) = run_batch(small_engine, [task])
        # a well-formed old record holding what no current run returns
        record = json.loads(encode_record(fingerprint, "old").decode())
        if version == 1:
            record["v"] = 1
        else:
            record = {"fp": fingerprint, "status": "ok", "payload": record["payload"]}
        line = json.dumps(record) + "\n"
        root.mkdir()
        log.write_text(line)
        metrics = RunMetrics()
        with CampaignStore(root, metrics=metrics) as store:
            assert fingerprint not in store
            results = run_batch(small_engine, [task], RunConfig(store=store, metrics=metrics))
        assert results == [plain]
        assert metrics.counter_value("store.stale_records") == 1
        assert metrics.counter_value("scheduler.store_hits") == 0
        assert metrics.counter_value("scheduler.executed") == 1
        with CampaignStore(root) as store:
            assert store.get(fingerprint) == plain
            assert store.compact() == len(line)
        assert log.read_text().count("\n") == 1

    def test_a_stored_campaign_pair_is_a_row(self, small_world, root, log):
        """At most 1 KB a record: the pair's row, not its two worlds."""
        graph = small_world.graph
        tasks = [
            CampaignPairTask(attacker=attacker, victim=victim, padding=3)
            for attacker, victim in zip(small_world.tier1, small_world.content)
        ]
        monitors = tuple(top_degree_monitors(graph, 25))
        with CampaignStore(root) as store:
            rows = run_batch(
                PropagationEngine(graph), tasks, RunConfig(store=store), monitors=monitors
            )
            assert [store.get(task_fingerprint(task)) for task in tasks] == rows
        lines = log.read_bytes().splitlines(keepends=True)
        assert len(lines) == len(tasks)
        assert max(map(len, lines)) <= 1024


class TestKnownBugs:
    @pytest.mark.xfail(
        strict=True,
        reason="a cell's fingerprint hashes (victim, attacker, padding) with no "
        "world identity, so a store shared by two worlds replays one into the other",
    )
    def test_a_store_shared_by_two_worlds_keeps_them_apart(self, root):
        def grid(seed, store=None):
            return exhaustive_grid(
                build_world(seed=seed, scale=0.2).engine,
                attackers=[1, 2],
                victims=[3, 4, 5],
                origin_padding=3,
                run=RunConfig(store=store),
            )

        with CampaignStore(root) as store:
            seven = grid(7, store)
            eleven = grid(11, store)
        assert seven != grid(11)  # the two worlds do disagree on these cells
        assert eleven == grid(11)
