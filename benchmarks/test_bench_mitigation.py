"""Mitigation-loop benchmarks: fault-layer quiet-path overhead and
closed-loop recovery cost.

Two records land in ``BENCH_engine.json``:

* ``mitigation_quiet_overhead`` — the acceptance gate.  The fault
  layer's entire cost on an untolerant pipeline is one predicate in
  :meth:`StreamingPipeline.offer`; this benchmark times the PR 8
  ingestion workload three ways — the pre-fault-layer admit path
  (``_admit`` direct, the exact code PR 8 shipped), the quiet path
  (``offer`` with the fault layer disarmed), and the armed-but-idle
  tolerant path (empty :class:`FeedFaultPlan`).  The quiet path must
  stay within 5% of the admit path; the tolerant arm is recorded
  ungated (it pays per-update validation by design).
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
OVERHEAD_GATE_PCT = 5.0


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


def _time_ingest(stream, streams, *, via_admit=False, repeats=3, **kwargs):
    """Min-of-N over the full multifeed run (fresh pipeline per rep)."""
    best = None
    for _ in range(repeats):
        pipeline = _pipeline(stream, **kwargs)
        enter = pipeline._admit if via_admit else pipeline.offer
        start = time.perf_counter()
        for feed_id, feed in enumerate(streams):
            for item in feed:
                enter(feed_id, item)
        pipeline.flush()
        elapsed = time.perf_counter() - start
        assert pipeline.processed == len(stream.messages)
        if best is None or elapsed < best:
            best = elapsed
    return best


def test_bench_quiet_path_overhead(churn):
    """Acceptance gate: the fault layer costs <= 5% on the quiet path."""
    streams = split_stream(churn.messages, 4)
    updates = len(churn.messages)

    _time_ingest(churn, streams, repeats=1)  # untimed warmup for the first arm
    admit_s = _time_ingest(churn, streams, via_admit=True)
    quiet_s = _time_ingest(churn, streams)
    tolerant_s = _time_ingest(
        churn, streams, tolerant=True, fault_plan=FeedFaultPlan()
    )

    admit_ups = updates / admit_s
    quiet_ups = updates / quiet_s
    tolerant_ups = updates / tolerant_s
    overhead_pct = (quiet_s / admit_s - 1.0) * 100.0
    tolerant_pct = (tolerant_s / admit_s - 1.0) * 100.0
    _merge_bench(
        "mitigation_quiet_overhead",
        {
            "updates": updates,
            "monitors": MONITORS,
            "feeds": 4,
            "admit_ups": round(admit_ups),
            "quiet_ups": round(quiet_ups),
            "tolerant_idle_ups": round(tolerant_ups),
            "quiet_overhead_pct": round(overhead_pct, 2),
            "tolerant_idle_overhead_pct": round(tolerant_pct, 2),
            "gate": f"quiet <= {OVERHEAD_GATE_PCT}%",
        },
    )
    print(
        f"\nquiet-path overhead: admit {admit_ups:,.0f}/s, "
        f"quiet {quiet_ups:,.0f}/s ({overhead_pct:+.2f}%), "
        f"tolerant-idle {tolerant_ups:,.0f}/s ({tolerant_pct:+.2f}%)"
    )
    assert overhead_pct <= OVERHEAD_GATE_PCT, (
        f"fault-layer quiet path costs {overhead_pct:.2f}% "
        f"(gate {OVERHEAD_GATE_PCT}%; {quiet_ups:,.0f} vs {admit_ups:,.0f} "
        f"updates/sec)"
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
