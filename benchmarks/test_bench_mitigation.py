"""Mitigation-loop benchmarks: what the fault layer costs ingestion when
nothing goes wrong, and the closed loop's recovery cost.

Two records land in ``BENCH_engine.json``, both ungated:

* ``mitigation_quiet_overhead`` — the RouteViews-scale ingestion
  workload through four feeds, timed with the fault layer disarmed
  (``quiet_ups``) and armed but idle (an empty :class:`FeedFaultPlan`,
  ``tolerant_idle_ups``: every update goes through its feed's fault
  script, which checks it for malformation — input from outside the
  program — and delivers it), each driven both ways the pipeline is fed —
  one ``offer`` per update, feed by feed, and one ``run()`` in its
  round-robin order (``run_*``).  Min-of-3 ratios swing by tens of
  percent on a shared box, so they are recorded, not asserted.
* ``mitigation_recovery`` — the closed loop's cost profile: wall-clock
  of the controller's warm re-convergence from the cached λ' baseline,
  with the recovery clocks and residual pollution alongside.
"""

from __future__ import annotations

import time

from test_bench_engine_perf import _merge_bench

from repro.bgp.engine import PropagationEngine
from repro.detection.detector import ASPPInterceptionDetector
from repro.detection.pipeline import (
    FeedFaultPlan,
    StreamingPipeline,
    split_stream,
)
from repro.detection.streaming import StreamingDetector
from repro.measurement.churn import ChurnConfig, synthesize_churn_stream
from repro.mitigation import MitigationController, MitigationPolicy, run_closed_loop

import pytest

MONITORS = 800
UPDATES = 30_000


@pytest.fixture(scope="module")
def churn():
    """The PR 8 ingestion workload: background churn at RouteViews scale."""
    return synthesize_churn_stream(
        ChurnConfig(
            seed=7, scale=1.0, monitors=MONITORS, updates=UPDATES, attack=False
        )
    )


@pytest.fixture(scope="module")
def attack_churn(churn):
    """A smaller attack-bearing stream for the closed-loop record."""
    return synthesize_churn_stream(
        ChurnConfig(
            seed=7, scale=1.0, monitors=200, updates=6_000, padding=3
        ),
        world=churn.world,
    )


def _pipeline(stream, **kwargs):
    detector = StreamingDetector(ASPPInterceptionDetector(stream.world.graph))
    pipeline = StreamingPipeline(
        detector, feeds=4, batch=64, capacity=256, **kwargs
    )
    for view in stream.baselines.values():
        pipeline.prime(view)
    return pipeline


def _time_ingest(stream, streams, *, via_run, repeats=3, **kwargs):
    """Min-of-N seconds to ingest ``streams`` (fresh pipeline per rep)."""
    best = None
    for _ in range(repeats):
        pipeline = _pipeline(stream, **kwargs)
        start = time.perf_counter()
        if via_run:
            pipeline.run(streams)
        else:
            for feed_id, feed in enumerate(streams):
                for item in feed:
                    pipeline.offer(feed_id, item)
            pipeline.flush()
        elapsed = time.perf_counter() - start
        assert pipeline.processed == len(stream.messages)
        if best is None or elapsed < best:
            best = elapsed
    return best


def test_bench_ingest_quiet_and_tolerant_idle(churn):
    """Record quiet and tolerant-idle ingestion rates, per-item ``offer``
    and ``run()`` (ungated)."""
    streams = split_stream(churn.messages, 4)
    updates = len(churn.messages)
    idle = {"fault_plan": FeedFaultPlan()}

    _time_ingest(churn, streams, via_run=False, repeats=1)  # untimed warm-up
    record = {"updates": updates, "monitors": MONITORS, "feeds": 4}
    for prefix, via_run in (("", False), ("run_", True)):
        quiet_s = _time_ingest(churn, streams, via_run=via_run)
        tolerant_s = _time_ingest(churn, streams, via_run=via_run, **idle)
        record[f"{prefix}quiet_ups"] = round(updates / quiet_s)
        record[f"{prefix}tolerant_idle_ups"] = round(updates / tolerant_s)
        record[f"{prefix}tolerant_idle_overhead_pct"] = round(
            (tolerant_s / quiet_s - 1.0) * 100.0, 2
        )
    _merge_bench("mitigation_quiet_overhead", record)
    print(
        f"\ningest, offer per item: quiet {record['quiet_ups']:,}/s, "
        f"tolerant-idle {record['tolerant_idle_ups']:,}/s "
        f"({record['tolerant_idle_overhead_pct']:+.2f}%); "
        f"run(): quiet {record['run_quiet_ups']:,}/s, "
        f"tolerant-idle {record['run_tolerant_idle_ups']:,}/s "
        f"({record['run_tolerant_idle_overhead_pct']:+.2f}%)"
    )


def test_bench_closed_loop_recovery(attack_churn):
    """Record the closed loop's recovery profile (ungated)."""
    report = run_closed_loop(attack_churn)
    step = report.step
    assert step.detected, "the benchmark stream must alarm"
    assert step.time_to_recover > 0

    # Wall-clock of the countermeasure alone: one warm re-convergence
    # from the cached λ' baseline.
    engine = PropagationEngine(attack_churn.world.graph)
    controller = MitigationController(engine, MitigationPolicy())
    controller.mitigate(attack_churn)  # warm the baseline cache
    best = None
    for _ in range(3):
        start = time.perf_counter()
        controller.mitigate(attack_churn)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed

    _merge_bench(
        "mitigation_recovery",
        {
            "topology_ases": len(attack_churn.world.graph.ases),
            "strategy": step.strategy,
            "padding": f"{step.padding_before} -> {step.padding_after}",
            "time_to_detect_updates": step.time_to_detect,
            "time_to_recover_rounds": step.time_to_recover,
            "touched_ases": step.touched_ases,
            "pollution_attack": round(step.pollution_attack, 4),
            "pollution_residual": round(step.pollution_residual, 4),
            "mitigate_ms": round(best * 1000.0, 2),
        },
    )
    print(
        f"\nclosed-loop recovery: {step.time_to_recover} rounds, "
        f"{step.touched_ases} ASes, mitigate {best * 1000.0:.2f} ms, "
        f"residual {step.pollution_residual:.1%} "
        f"(attack {step.pollution_attack:.1%})"
    )
