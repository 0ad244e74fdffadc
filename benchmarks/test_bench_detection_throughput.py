"""Sustained-throughput benchmarks of the streaming detector.

The workload is the churn synthesizer's RouteViews-scale mix: 800
monitor feeds (RouteViews aggregates 600-900 peers), a full-scale
topology, and a ~30k-update background-flap stream.  Recorded in
``BENCH_engine.json``:

* ``oracle_ups`` — the per-update oracle
  (:mod:`tests.detection.streaming_oracle`: a snapshot copy and an
  inspection per change), the gate's denominator;
* ``ups`` — :meth:`StreamingDetector.consume_all` over the identical
  stream, metrics off (the sustained hot path);
* ``attack_ups`` — the same detector on a 4k-update attack-bearing
  stream at 200 monitors, where most changes reach the Figure-4 scan;
* ``prime_ms`` — priming a fresh detector with the 800-monitor
  baselines (fig13 primes one detector per attack and fleet);
* ``multifeed_ups`` / ``multifeed_default_ups`` — the same stream
  split across 4 bounded feed queues and re-merged by sequence (the
  deployment shape) under a random and under ``run()``'s default
  round-robin interleaving, recorded ungated alongside the backpressure
  counters and the reorder-buffer high-water marks.

The ≥10x acceptance gate rides on the single-stream consume path over
**background churn** (``attack=False``): an attack burst triggers the
full Figure-4 scan, an O(monitors x path) cost the detector and its
oracle share by construction (equivalence-tested), which at 800
monitors would swamp the per-update machinery the gate is about.
Alarm parity on the attack-bearing stream is asserted before any
timing is trusted.

p50/p99 per-update latency comes from a separate instrumented pass
(the latency histogram itself costs a ``perf_counter`` read per
update, so it is never measured on the throughput pass).
"""

from __future__ import annotations

import random
import time

from test_bench_engine_perf import _merge_bench

from repro.detection.detector import ASPPInterceptionDetector
from repro.detection.pipeline import StreamingPipeline, split_stream
from repro.detection.streaming import StreamingDetector
from repro.measurement.churn import ChurnConfig, synthesize_churn_stream
from repro.telemetry.metrics import RunMetrics
from tests.detection.streaming_oracle import OracleStreamingDetector

import pytest

MONITORS = 800
UPDATES = 30_000
SPEEDUP_GATE = 10.0


def _min_of(repeats, fn):
    best = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best, result


def _min_of_consume(repeats, make_detector, consume_name, messages):
    """Min-of-N over the *consume* call alone: a fresh primed detector
    is built per repeat (outside the clock), so every rep replays the
    identical cold-table stream."""
    best = None
    result = None
    for _ in range(repeats):
        consume = getattr(make_detector(), consume_name)
        start = time.perf_counter()
        result = consume(messages)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best, result


@pytest.fixture(scope="module")
def churn():
    """The gated workload: pure background churn at RouteViews scale."""
    return synthesize_churn_stream(
        ChurnConfig(
            seed=7, scale=1.0, monitors=MONITORS, updates=UPDATES, attack=False
        )
    )


def _primed(factory, stream, metrics=None):
    detector = factory(ASPPInterceptionDetector(stream.world.graph), metrics=metrics)
    for view in stream.baselines.values():
        detector.prime(view)
    return detector


def test_bench_streaming_throughput(churn):
    """The acceptance gate: >=10x sustained updates/sec over the
    per-update oracle, p50/p99, the attack-bearing rate and the prime
    time reported alongside."""
    messages = churn.plain_messages()
    graph = churn.world.graph

    # Alarm parity first, on a stream that actually alarms: same world,
    # attack burst + heavily padded backups, every trigger path live.
    alarmed = synthesize_churn_stream(
        ChurnConfig(
            seed=7,
            scale=1.0,
            monitors=200,
            updates=4_000,
            backup_padding=4,
        ),
        world=churn.world,
    )
    attack_messages = alarmed.plain_messages()
    expected = _primed(OracleStreamingDetector, alarmed).consume_all(attack_messages)
    assert expected, "the attack-bearing stream must raise alarms"
    attack_s, attack_alarms = _min_of_consume(
        3, lambda: _primed(StreamingDetector, alarmed), "consume_all", attack_messages
    )
    assert attack_alarms == expected

    oracle_s, oracle_alarms = _min_of_consume(
        3, lambda: _primed(OracleStreamingDetector, churn), "consume_all", messages
    )
    detector_s, detector_alarms = _min_of_consume(
        3, lambda: _primed(StreamingDetector, churn), "consume_all", messages
    )
    assert oracle_alarms == detector_alarms == []
    prime_s, _ = _min_of(5, lambda: _primed(StreamingDetector, churn))

    # Instrumented pass: per-update latency histogram (never timed).
    metrics = RunMetrics()
    _primed(StreamingDetector, churn, metrics).consume_all(messages)
    latency = metrics.histograms["detection.pipeline.update_latency_us"]
    assert latency.count == len(messages)

    oracle_ups = len(messages) / oracle_s
    ups = len(messages) / detector_s
    attack_ups = len(attack_messages) / attack_s
    speedup = ups / oracle_ups
    _merge_bench(
        "streaming_throughput",
        {
            "updates": len(messages),
            "monitors": MONITORS,
            "topology_ases": len(graph.ases),
            "oracle_ups": round(oracle_ups),
            "ups": round(ups),
            "speedup": round(speedup, 1),
            "p50_us": round(latency.quantile(0.5), 2),
            "p99_us": round(latency.quantile(0.99), 2),
            "attack_updates": len(attack_messages),
            "attack_monitors": 200,
            "attack_ups": round(attack_ups),
            "prime_ms": round(prime_s * 1e3, 2),
            "gate": f">= {SPEEDUP_GATE}x",
        },
    )
    print(
        f"\nstreaming throughput: oracle {oracle_ups:,.0f}/s, "
        f"detector {ups:,.0f}/s ({speedup:.1f}x), "
        f"p50 {latency.quantile(0.5):.1f}us p99 {latency.quantile(0.99):.1f}us; "
        f"attack-bearing {attack_ups:,.0f}/s, prime {prime_s * 1e3:.2f} ms"
    )
    assert speedup >= SPEEDUP_GATE, (
        f"detector speedup {speedup:.1f}x fell below the {SPEEDUP_GATE}x gate "
        f"({ups:,.0f} vs {oracle_ups:,.0f} updates/sec)"
    )


def test_bench_multifeed_pipeline(churn):
    """The deployment shape: 4 bounded feeds, batch=64, sequence-order
    merge.  Recorded (ungated) with its backpressure telemetry, twice:
    a randomly split stream under a random interleaving (the merge doing
    real reordering) and the round-robin split under ``run()``'s default
    order (what ``detect-stream`` runs; the reorder buffer stays within
    one batch per feed).  Alarms must match the serial oracle exactly."""
    messages = churn.plain_messages()

    def timed(streams, interleave):
        def run():
            metrics = RunMetrics()
            pipeline = StreamingPipeline(
                _primed(StreamingDetector, churn),
                feeds=4,
                batch=64,
                capacity=256,
                policy="block",
                metrics=metrics,
            )
            rng = None if interleave is None else random.Random(interleave)
            alarms = pipeline.run(streams, rng=rng)
            return pipeline, metrics, alarms

        elapsed, (pipeline, metrics, alarms) = _min_of(3, run)
        assert alarms == []
        assert pipeline.processed == len(messages)
        return len(messages) / elapsed, pipeline, metrics.histograms

    multifeed_ups, pipeline, histograms = timed(
        split_stream(churn.messages, 4, rng=random.Random(3)), 11
    )
    default_ups, _, default_histograms = timed(split_stream(churn.messages, 4), None)
    reorder_depth = "detection.pipeline.reorder_depth"
    assert default_histograms[reorder_depth].max <= 4 * 64

    _merge_bench(
        "streaming_multifeed",
        {
            "updates": len(messages),
            "feeds": 4,
            "batch": 64,
            "policy": "block",
            "multifeed_ups": round(multifeed_ups),
            "multifeed_default_ups": round(default_ups),
            "blocked": pipeline.blocked,
            "dropped": pipeline.dropped,
            "parked": pipeline.parked,
            "queue_depth_p99": round(
                histograms["detection.pipeline.queue_depth"].quantile(0.99), 1
            ),
            "reorder_depth_max": histograms[reorder_depth].max,
            "reorder_depth_max_default": default_histograms[reorder_depth].max,
        },
    )
    print(
        f"\nmultifeed pipeline: {multifeed_ups:,.0f} updates/sec "
        f"(default order {default_ups:,.0f})"
    )
