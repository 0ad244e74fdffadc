"""Campaign-store dedupe gate: a warm figure query must be >= 10x
faster than recomputing it, with zero engine propagations.

The store's whole value proposition is that the second identical query
is a log read, not a campaign.  This benchmark runs ``fig09`` cold
(computing and storing every cell plus the experiment record), then
queries the same figure warm, and gates:

* the warm query is served ``from_store`` with rows bit-identical to
  the cold run,
* the warm registry records no ``engine.*`` counters at all,
* warm latency beats the cold recompute by >= 10x.

The measured profile is merged into ``BENCH_engine.json`` as the
``campaign_store_dedupe`` record.

A warm query pays for opening the store first, and an open indexes the
whole record log.  ``campaign_store_open`` times opening a
10,000-record log of campaign rows (about 480 bytes a line, the size
this program writes) and reading one record, against the same work
done by ``tests/store/scan_oracle.py`` (one ``json.loads`` a line),
interleaved, median of 5, and gates the ratio at >= 1.5x.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import statistics
import tempfile
import time
from pathlib import Path

from test_bench_engine_perf import _merge_bench

from repro.runner.tasks import CampaignPairResult
from repro.store import CampaignStore, query_experiment
from repro.store.store import decode_record, encode_record
from repro.telemetry.metrics import RunMetrics
from tests.store.scan_oracle import scan_oracle

#: keeps the cold leg around a second while leaving enough work for
#: the 10x gate to be meaningful rather than noise-dominated.
SCALE = 0.3
GATE = 10.0

#: records in the synthetic log an open indexes
OPEN_RECORDS = 10_000
OPEN_REPEATS = 5
OPEN_GATE = 1.5


def test_store_dedupe_speedup_gate():
    root = tempfile.mkdtemp(prefix="repro-bench-store-")
    try:
        with CampaignStore(root) as store:
            cold_metrics = RunMetrics()
            t0 = time.perf_counter()
            cold = query_experiment(
                store, "fig09", metrics=cold_metrics, scale=SCALE
            )
            cold_ms = (time.perf_counter() - t0) * 1000.0
            assert not cold.from_store

            warm_metrics = RunMetrics()
            t0 = time.perf_counter()
            warm = query_experiment(
                store, "fig09", metrics=warm_metrics, scale=SCALE
            )
            warm_ms = (time.perf_counter() - t0) * 1000.0

            assert warm.from_store, "second query must be a pure store hit"
            assert warm.result.rows == cold.result.rows
            assert warm.result.summary == cold.result.summary
            engine_counters = [
                name
                for name in warm_metrics.counters
                if name.startswith("engine.")
            ]
            assert engine_counters == [], (
                f"warm query touched the engine: {engine_counters}"
            )

            speedup = cold_ms / warm_ms if warm_ms > 0 else float("inf")
            stats = store.stats()

        print(
            f"\nstore dedupe: cold {cold_ms:.1f} ms -> warm {warm_ms:.2f} ms "
            f"({speedup:.0f}x, {stats['records']} records, "
            f"{stats['bytes']} bytes)"
        )
        _merge_bench(
            "campaign_store_dedupe",
            {
                "cold_ms": round(cold_ms, 2),
                "warm_ms": round(warm_ms, 3),
                "speedup": round(speedup, 1),
                "store_records": stats["records"],
                "store_bytes": stats["bytes"],
                "gate": GATE,
            },
        )
        assert speedup >= GATE, (
            f"warm store query only {speedup:.1f}x faster than recompute "
            f"(gate {GATE}x): cold {cold_ms:.1f} ms, warm {warm_ms:.2f} ms"
        )
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _synthetic_log(root: Path) -> list[str]:
    """A record log of ``OPEN_RECORDS`` campaign rows; their fingerprints."""
    fingerprints = [hashlib.sha256(b"%d" % n).hexdigest() for n in range(OPEN_RECORDS)]
    lines = [
        encode_record(fp, CampaignPairResult(n, n + 1, 3, 0.25, 0.5, n % 97, n % 2 == 0))
        for n, fp in enumerate(fingerprints)
    ]
    root.mkdir()
    (root / "records.jsonl").write_bytes(b"".join(lines))
    return fingerprints


def _open_and_read(root: Path, fingerprint: str):
    with CampaignStore(root) as store:
        return store.get(fingerprint)


def _oracle_open_and_read(root: Path, fingerprint: str):
    data = (root / "records.jsonl").read_bytes()
    offset, length = scan_oracle(data).index[fingerprint]
    return decode_record(data[offset : offset + length])


def test_store_open_reads_its_own_shape():
    """Open a 10k-record store and read one record: the shape-rule scan
    against one ``json.loads`` a line, interleaved, median of 5."""
    tmp = Path(tempfile.mkdtemp(prefix="repro-bench-open-"))
    try:
        root = tmp / "store"
        fingerprints = _synthetic_log(root)
        wanted = fingerprints[OPEN_RECORDS // 2]
        store_s: list[float] = []
        oracle_s: list[float] = []
        for _ in range(OPEN_REPEATS):
            t0 = time.perf_counter()
            row = _open_and_read(root, wanted)
            t1 = time.perf_counter()
            record = _oracle_open_and_read(root, wanted)
            t2 = time.perf_counter()
            store_s.append(t1 - t0)
            oracle_s.append(t2 - t1)
            assert record is not None and row.attacker == OPEN_RECORDS // 2
        store_ms = statistics.median(store_s) * 1000.0
        oracle_ms = statistics.median(oracle_s) * 1000.0
        ratio = oracle_ms / store_ms
        log_bytes = os.path.getsize(root / "records.jsonl")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(
        f"\nstore open: {OPEN_RECORDS} records, {log_bytes} bytes: "
        f"scan {store_ms:.1f} ms vs json.loads {oracle_ms:.1f} ms ({ratio:.2f}x)"
    )
    _merge_bench(
        "campaign_store_open",
        {
            "records": OPEN_RECORDS,
            "log_bytes": log_bytes,
            "repeats": OPEN_REPEATS,
            "open_get_ms": round(store_ms, 2),
            "oracle_ms": round(oracle_ms, 2),
            "ratio": round(ratio, 2),
            "gate": OPEN_GATE,
        },
    )
    assert ratio >= OPEN_GATE, (
        f"opening a {OPEN_RECORDS}-record store is only {ratio:.2f}x faster than "
        f"a json.loads scan (gate {OPEN_GATE}x): {store_ms:.1f} ms vs {oracle_ms:.1f} ms"
    )
