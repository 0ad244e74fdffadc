"""One admission path: ``offer`` one update at a time and ``run()`` are
the same ingestion, and the registry ``detect-stream`` fills is pinned.

``run()`` admits its whole turn order in one loop and passes a fault
plan's quiet stretches straight through; ``offer`` admits one arrival
per call.  Whatever the feed count, batch, capacity, backpressure
policy, interleaving or fault plan, the two must leave identical
alarms, counters and histograms behind — and the same as the fault
layer's state machine run on every offer.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.detection.detector import ASPPInterceptionDetector
from repro.detection.pipeline import (
    BACKPRESSURE_POLICIES,
    FeedFaultPlan,
    StreamingPipeline,
    split_stream,
)
from repro.detection.streaming import StreamingDetector
from repro.measurement.churn import ChurnConfig, synthesize_churn_stream
from repro.telemetry import read_jsonl
from repro.telemetry.metrics import RunMetrics

#: the one histogram that measures wall-clock time
_TIMING = "detection.pipeline.update_latency_us"


@pytest.fixture(scope="module")
def churn():
    """One shared small churn stream with real alarms in it."""
    return synthesize_churn_stream(
        ChurnConfig(
            seed=5,
            scale=0.2,
            monitors=15,
            prefixes=2,
            scenarios=2,
            updates=300,
            backup_padding=4,
        )
    )


def _run_order(streams, seed):
    """``run()``'s documented order, restated: without a seed position
    *p* of every feed (in feed order) before *p + 1* of any; with one,
    each arrival from the feed a seeded draw picks among the unfinished."""
    if seed is None:
        longest = max(map(len, streams))
        return [
            (feed_id, stream[position])
            for position in range(longest)
            for feed_id, stream in enumerate(streams)
            if position < len(stream)
        ]
    rng = random.Random(seed)
    positions = [0] * len(streams)
    remaining = [i for i, stream in enumerate(streams) if stream]
    order = []
    while remaining:
        feed_id = remaining[rng.randrange(len(remaining))]
        order.append((feed_id, streams[feed_id][positions[feed_id]]))
        positions[feed_id] += 1
        if positions[feed_id] == len(streams[feed_id]):
            remaining.remove(feed_id)
    return order


def _observed(pipeline, metrics):
    snapshot = metrics.deterministic_snapshot()
    snapshot["histograms"].pop(_TIMING, None)
    return (
        pipeline.alarms,
        pipeline.detector.first_alarm_at,
        pipeline.processed,
        pipeline.dropped_seqs,
        (pipeline.dropped, pipeline.parked, pipeline.blocked, pipeline.park_high_water),
        (pipeline.duplicates, pipeline.dead_lettered, pipeline.lost),
        snapshot,
    )


@settings(max_examples=25, deadline=None)
@given(
    feeds=st.integers(1, 5),
    batch=st.integers(1, 80),
    capacity=st.integers(1, 48),
    policy=st.sampled_from(BACKPRESSURE_POLICIES),
    interleave=st.one_of(st.none(), st.integers(0, 10**6)),
    plan_seed=st.one_of(st.none(), st.integers(0, 10**6)),
    recoverable=st.booleans(),
)
def test_offer_one_at_a_time_equals_run(
    churn, feeds, batch, capacity, policy, interleave, plan_seed, recoverable
):
    streams = split_stream(churn.messages, feeds)
    # With a fault plan, a third drive hands every offer to the fault
    # layer's state machine, bypass or not: the quiet-feed predicate
    # must never let through an update the machine would have stopped.
    drives = ("offer", "run") if plan_seed is None else ("offer", "run", "machine")
    observed = []
    for drive in drives:
        metrics = RunMetrics()
        pipeline = StreamingPipeline(
            StreamingDetector(ASPPInterceptionDetector(churn.world.graph), metrics=metrics),
            feeds=feeds,
            batch=batch,
            capacity=capacity,
            policy=policy,
            park_capacity=32,
            metrics=metrics,
            fault_plan=(
                None
                if plan_seed is None
                else FeedFaultPlan.seeded(
                    feeds, seed=plan_seed, rate=0.9, horizon=64, recoverable=recoverable
                )
            ),
        )
        for view in churn.baselines.values():
            pipeline.prime(view)
        if drive == "run":
            rng = None if interleave is None else random.Random(interleave)
            raised = pipeline.run(streams, rng=rng)
        else:
            enter = pipeline.offer if drive == "offer" else pipeline._offer_tolerant
            raised = []
            for feed_id, update in _run_order(streams, interleave):
                raised.extend(enter(feed_id, update))
            raised.extend(pipeline.flush())
        assert raised == pipeline.alarms
        observed.append(_observed(pipeline, metrics))
    assert all(other == observed[0] for other in observed[1:])


# -- detect-stream's registry, recorded before the one admission loop ----------

#: ``detect-stream --scale 0.3 --monitors 40 --updates 3000 --seed 7
#: --capacity 8``: every counter, and sha256 of the ``queue_depth`` /
#: ``reorder_depth`` / ``batch_size`` / ``park_depth`` histograms
#: (canonical JSON, absent ones omitted), recorded while each feed was a
#: pair of deques and ``run()`` offered item by item.
_DETECT_STREAM_GOLDEN = {
    (1, "block"): (
        {"detection.pipeline.alarms": 3, "detection.pipeline.batches": 380,
         "detection.pipeline.blocked": 379, "detection.pipeline.changes": 3037,
         "detection.pipeline.updates": 3037},
        "6239e83e4c1874b7bfe164d679bf0bc246b78babcaeca8a68a3f6d36fdae6e89",
    ),
    (1, "drop"): (
        {"detection.pipeline.batches": 1, "detection.pipeline.changes": 8,
         "detection.pipeline.dropped": 3029, "detection.pipeline.updates": 8},
        "c8bdf8b1ed11e631b1ea4043c0cef1b1ba2bd2dca3cb135def41f892a936c6d0",
    ),
    (1, "park"): (
        {"detection.pipeline.alarms": 3, "detection.pipeline.batches": 48,
         "detection.pipeline.changes": 3037, "detection.pipeline.parked": 3029,
         "detection.pipeline.updates": 3037},
        "7f4fe1fee0877459b439a2f2e976cfdf96d413fcf89b295ea4d09bd49abb3ada",
    ),
    (4, "block"): (
        {"detection.pipeline.alarms": 3, "detection.pipeline.batches": 95,
         "detection.pipeline.blocked": 94, "detection.pipeline.changes": 3037,
         "detection.pipeline.updates": 3037},
        "0a4b3847f67411f033709f70d8440a178bd875bc0a3594f67f5abd3e19d5b7bc",
    ),
    (4, "drop"): (
        {"detection.pipeline.batches": 1, "detection.pipeline.changes": 32,
         "detection.pipeline.dropped": 3005, "detection.pipeline.updates": 32},
        "f472579f717e339254ccaa0759fa36a4edfcea0e8c6b266f50647cd199ac62fa",
    ),
    (4, "park"): (
        {"detection.pipeline.alarms": 3, "detection.pipeline.batches": 48,
         "detection.pipeline.changes": 3037, "detection.pipeline.parked": 3005,
         "detection.pipeline.updates": 3037},
        "08b603cfa7eeff358fcce8b4275966dad507f3e987236ce49b5cc1c2762f8b92",
    ),
}  # fmt: skip

_PINNED_HISTOGRAMS = tuple(
    f"detection.pipeline.{name}"
    for name in ("queue_depth", "reorder_depth", "batch_size", "park_depth")
)


def _detect_stream_registry(tmp_path, feeds, policy):
    path = tmp_path / f"metrics-{feeds}-{policy}.jsonl"
    with contextlib.redirect_stdout(io.StringIO()):
        status = main(
            [
                "detect-stream", "--scale", "0.3", "--monitors", "40",
                "--updates", "3000", "--seed", "7", "--capacity", "8",
                "--feeds", str(feeds), "--backpressure", policy,
                "--metrics", "jsonl", "--metrics-out", str(path),
            ]
        )
    assert status == 0
    snapshot = read_jsonl(path).deterministic_snapshot()
    histograms = {
        name: snapshot["histograms"][name]
        for name in _PINNED_HISTOGRAMS
        if name in snapshot["histograms"]
    }
    return snapshot["counters"], histograms


@pytest.mark.parametrize("feeds, policy", sorted(_DETECT_STREAM_GOLDEN))
def test_detect_stream_registry_is_pinned(tmp_path, feeds, policy):
    counters, digest = _DETECT_STREAM_GOLDEN[feeds, policy]
    observed, histograms = _detect_stream_registry(tmp_path, feeds, policy)
    assert observed == counters
    canonical = json.dumps(histograms, sort_keys=True)
    assert hashlib.sha256(canonical.encode()).hexdigest() == digest, canonical
