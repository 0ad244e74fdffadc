"""One admission path: ``offer`` one update at a time and ``run()`` are
the same ingestion, and the registries ``detect-stream`` and
``mitigate-stream`` fill are pinned.

``run()`` admits its whole turn order in one loop, each arrival through
its feed's fault script when the pipeline is armed; ``offer`` admits
one arrival per call.  Whatever the feed count, batch, capacity,
backpressure policy, interleaving or fault plan, the two must leave
identical alarms, counters and histograms behind — also when a second
stream is offered after :meth:`flush`, whose scripts go on where the
first stream left them.
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

from repro.bgp.updates import SequencedUpdate, StampedStream
from repro.cli import main
from repro.detection.detector import ASPPInterceptionDetector
from repro.detection.pipeline import (
    BACKPRESSURE_POLICIES,
    FeedFault,
    FeedFaultPlan,
    StreamingPipeline,
    ingest,
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
        (pipeline.duplicates, pipeline.dead_lettered, pipeline.lost, pipeline.replay_high_water),
        pipeline.quarantined_feeds,
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
    # The second stream continues the sequence numbers past the first,
    # and the plan's horizon reaches past the first stream's slices, so
    # faults also fire after flush, on a script that went on.
    after = len(churn.messages)
    second = split_stream(
        [SequencedUpdate(after + update.seq, update.message) for update in churn.messages],
        feeds,
    )
    longest = max(map(len, streams))
    observed = []
    for drive in ("offer", "run"):
        metrics = RunMetrics()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "PARK_CAPACITY", 32)
            pipeline = StreamingPipeline(
                StreamingDetector(ASPPInterceptionDetector(churn.world.graph), metrics=metrics),
                feeds=feeds,
                batch=batch,
                capacity=capacity,
                policy=policy,
                metrics=metrics,
                fault_plan=(
                    None
                    if plan_seed is None
                    else FeedFaultPlan.seeded(
                        feeds, seed=plan_seed, rate=0.9, horizon=2 * longest,
                        max_faults_per_feed=6, recoverable=recoverable,
                    )
                ),
            )
            for view in churn.baselines.values():
                pipeline.prime(view)
            raised = []
            for turn, stream in enumerate((streams, second)):
                if drive == "run":
                    rng = None if interleave is None else random.Random(interleave + turn)
                    raised.extend(pipeline.run(stream, rng=rng))
                else:
                    order = _run_order(stream, None if interleave is None else interleave + turn)
                    for feed_id, update in order:
                        raised.extend(pipeline.offer(feed_id, update))
                    raised.extend(pipeline.flush())
        assert raised == pipeline.alarms
        observed.append(_observed(pipeline, metrics))
    assert observed[0] == observed[1]


def test_a_whole_stream_outage_does_not_fire_again_after_flush(churn):
    """figM2's shape: feed 0 is lost for the whole stream, then the
    closed loop's recovery traffic is offered after flush.  The script
    went on past its one fault, so feed 0 delivers that traffic."""
    plan = FeedFaultPlan(
        {0: (FeedFault(mode="outage", at=0, span=len(churn.messages), recoverable=False),)}
    )
    metrics = RunMetrics()
    pipeline = StreamingPipeline(
        StreamingDetector(ASPPInterceptionDetector(churn.world.graph), metrics=metrics),
        feeds=4,
        fault_plan=plan,
        metrics=metrics,
    )
    for view in churn.baselines.values():
        pipeline.prime(view)
    streams = split_stream(churn.messages, 4)
    pipeline.run(streams)
    assert pipeline.lost == len(streams[0])
    assert pipeline.processed == len(churn.messages) - len(streams[0])
    after = len(churn.messages)
    recovery = [
        SequencedUpdate(after + i, update.message) for i, update in enumerate(churn.messages[:40])
    ]
    for position, update in enumerate(recovery):
        pipeline.offer(position % 4, update)
    pipeline.flush()
    assert pipeline.lost == len(streams[0])
    assert pipeline.processed == len(churn.messages) - len(streams[0]) + len(recovery)
    assert metrics.counter_value("detection.pipeline.faults.outage") == 1
    assert pipeline.quarantined_feeds == []


# -- a stamped view and its list are one stream --------------------------------


@pytest.mark.parametrize("armed", [False, True], ids=["unarmed", "armed"])
@pytest.mark.parametrize("interleave", [None, 11], ids=["round-robin", "rng"])
@pytest.mark.parametrize("feeds", [1, 3, 4])
def test_a_stamped_view_runs_like_its_list(churn, feeds, interleave, armed):
    """``split_stream`` hands out views of the stamped stream (tuples
    built on read) or, over ``list(view)``, lists of tuples; ``run()``
    must leave the same alarms and registry either way."""
    assert type(churn.messages) is StampedStream
    longest = -(-len(churn.messages) // feeds)
    observed = []
    for source in (churn.messages, list(churn.messages)):
        streams = split_stream(source, feeds)
        if source is churn.messages:
            assert all(type(stream) is StampedStream for stream in streams)
        metrics = RunMetrics()
        pipeline = StreamingPipeline(
            StreamingDetector(ASPPInterceptionDetector(churn.world.graph), metrics=metrics),
            feeds=feeds,
            batch=16,
            capacity=8,
            metrics=metrics,
            fault_plan=(
                FeedFaultPlan.seeded(
                    feeds, seed=3, rate=1.0, horizon=longest, max_faults_per_feed=4
                )
                if armed
                else None
            ),
        )
        for view in churn.baselines.values():
            pipeline.prime(view)
        rng = None if interleave is None else random.Random(interleave)
        raised = pipeline.run(streams, rng=rng)
        assert raised == pipeline.alarms
        observed.append(_observed(pipeline, metrics))
    assert observed[0] == observed[1]
    assert observed[0][0], "the churn stream must raise alarms"
    counters = observed[0][-1]["counters"]
    faults = sum(n for name, n in counters.items() if name.startswith("detection.pipeline.faults."))
    assert bool(faults) is armed


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


# -- mitigate-stream's faulted registry, recorded before the fault scripts ----

#: ``mitigate-stream --scale 0.3 --monitors 40 --updates 3000`` at
#: ``--seed S --fault-rate R``, with and without ``--unrecoverable``:
#: every counter, and sha256 of every ``detection.pipeline.*`` histogram
#: but the wall-clock one (canonical JSON), recorded while each feed's
#: faults were a state machine beside a quiet-stretch bypass.  A script
#: that stalls the merge leaves the stdout alone but moves
#: ``reorder_depth``.
_MITIGATE_STREAM_GOLDEN = {
    (7, "0.5", False): (
        {"detection.pipeline.alarms": 199, "detection.pipeline.batches": 49,
         "detection.pipeline.changes": 3076, "detection.pipeline.faults.outage": 3,
         "detection.pipeline.reconnects": 3, "detection.pipeline.updates": 3076,
         "engine.warm.activations": 18, "engine.warm.announcements": 73,
         "engine.warm.best_changes": 17, "engine.warm.fastpath_hits": 21,
         "engine.warm.fastpath_misses": 0, "engine.warm.propagations": 1,
         "mitigation.reactions": 1},
        "68132787620512cf3de30c026238de7dc111e6a29af91cacb0e34580f8f444c4",
    ),
    (7, "0.5", True): (
        {"detection.pipeline.alarms": 199, "detection.pipeline.batches": 49,
         "detection.pipeline.changes": 3062, "detection.pipeline.faults.outage": 3,
         "detection.pipeline.lost": 7, "detection.pipeline.reconnects": 3,
         "detection.pipeline.updates": 3069, "engine.warm.activations": 18,
         "engine.warm.announcements": 73, "engine.warm.best_changes": 17,
         "engine.warm.fastpath_hits": 21, "engine.warm.fastpath_misses": 0,
         "engine.warm.propagations": 1, "mitigation.reactions": 1},
        "291bf6d18db0407a6da1da5bbc4531c14e94c9795768aa5555a2442e5afd4bd8",
    ),
    (7, "1.0", False): (
        {"detection.pipeline.alarms": 199, "detection.pipeline.batches": 49,
         "detection.pipeline.changes": 3076, "detection.pipeline.faults.outage": 4,
         "detection.pipeline.reconnects": 4, "detection.pipeline.updates": 3076,
         "engine.warm.activations": 18, "engine.warm.announcements": 73,
         "engine.warm.best_changes": 17, "engine.warm.fastpath_hits": 21,
         "engine.warm.fastpath_misses": 0, "engine.warm.propagations": 1,
         "mitigation.reactions": 1},
        "6317104678cc9d2f0c5c5fde2eaeb787cb0a808f562f2d0d4df805b1f4291cbb",
    ),
    (7, "1.0", True): (
        {"detection.pipeline.alarms": 199, "detection.pipeline.batches": 49,
         "detection.pipeline.changes": 3058, "detection.pipeline.faults.outage": 4,
         "detection.pipeline.lost": 9, "detection.pipeline.reconnects": 4,
         "detection.pipeline.updates": 3067, "engine.warm.activations": 18,
         "engine.warm.announcements": 73, "engine.warm.best_changes": 17,
         "engine.warm.fastpath_hits": 21, "engine.warm.fastpath_misses": 0,
         "engine.warm.propagations": 1, "mitigation.reactions": 1},
        "587de7912f73d59b66771e04e2d2f49b1231f9041afdc7c272557b7259c36242",
    ),
    (23, "0.5", False): (
        {"detection.pipeline.alarms": 331, "detection.pipeline.batches": 48,
         "detection.pipeline.changes": 3046, "detection.pipeline.duplicates": 2,
         "detection.pipeline.faults.dup": 1, "detection.pipeline.faults.gap_storm": 1,
         "detection.pipeline.updates": 3046, "engine.warm.activations": 6,
         "engine.warm.announcements": 23, "engine.warm.best_changes": 5,
         "engine.warm.fastpath_hits": 5, "engine.warm.fastpath_misses": 0,
         "engine.warm.propagations": 1, "mitigation.reactions": 1},
        "a636c06b0b832265d087a2a994022a53e2a0a9b5df4bc4632e624fc25be046e8",
    ),
    (23, "0.5", True): (
        {"detection.pipeline.alarms": 331, "detection.pipeline.batches": 48,
         "detection.pipeline.changes": 3046, "detection.pipeline.duplicates": 2,
         "detection.pipeline.faults.dup": 1, "detection.pipeline.faults.gap_storm": 1,
         "detection.pipeline.updates": 3046, "engine.warm.activations": 6,
         "engine.warm.announcements": 23, "engine.warm.best_changes": 5,
         "engine.warm.fastpath_hits": 5, "engine.warm.fastpath_misses": 0,
         "engine.warm.propagations": 1, "mitigation.reactions": 1},
        "a636c06b0b832265d087a2a994022a53e2a0a9b5df4bc4632e624fc25be046e8",
    ),
    (23, "1.0", False): (
        {"detection.pipeline.alarms": 331, "detection.pipeline.batches": 48,
         "detection.pipeline.changes": 3046, "detection.pipeline.dead_lettered": 1,
         "detection.pipeline.duplicates": 3, "detection.pipeline.faults.corrupt": 1,
         "detection.pipeline.faults.dup": 2, "detection.pipeline.faults.gap_storm": 1,
         "detection.pipeline.faults.outage": 4, "detection.pipeline.reconnects": 4,
         "detection.pipeline.updates": 3046, "engine.warm.activations": 6,
         "engine.warm.announcements": 23, "engine.warm.best_changes": 5,
         "engine.warm.fastpath_hits": 5, "engine.warm.fastpath_misses": 0,
         "engine.warm.propagations": 1, "mitigation.reactions": 1},
        "2da40f018e0d6c3f41c7a18bf8213d3a2939b878565260d6298f0f995aa60b1a",
    ),
    (23, "1.0", True): (
        {"detection.pipeline.alarms": 331, "detection.pipeline.batches": 48,
         "detection.pipeline.changes": 3024, "detection.pipeline.dead_lettered": 1,
         "detection.pipeline.duplicates": 3, "detection.pipeline.faults.corrupt": 1,
         "detection.pipeline.faults.dup": 2, "detection.pipeline.faults.gap_storm": 1,
         "detection.pipeline.faults.outage": 4, "detection.pipeline.lost": 11,
         "detection.pipeline.reconnects": 4, "detection.pipeline.updates": 3035,
         "engine.warm.activations": 6, "engine.warm.announcements": 23,
         "engine.warm.best_changes": 5, "engine.warm.fastpath_hits": 5,
         "engine.warm.fastpath_misses": 0, "engine.warm.propagations": 1,
         "mitigation.reactions": 1},
        "7f2ea70264ce98057ba0720c5fc81bec64405f845579febec52de0ed71bf32af",
    ),
}  # fmt: skip


def _mitigate_stream_registry(tmp_path, seed, rate, unrecoverable):
    path = tmp_path / "metrics.jsonl"
    argv = [
        "mitigate-stream", "--scale", "0.3", "--monitors", "40", "--updates", "3000",
        "--seed", str(seed), "--fault-rate", rate,
        "--metrics", "jsonl", "--metrics-out", str(path),
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        status = main(argv + ["--unrecoverable"] * unrecoverable)
    assert status == 0
    snapshot = read_jsonl(path).deterministic_snapshot()
    histograms = {
        name: histogram
        for name, histogram in snapshot["histograms"].items()
        if name.startswith("detection.pipeline.") and name != _TIMING
    }
    return snapshot["counters"], histograms


@pytest.mark.parametrize("seed, rate, unrecoverable", sorted(_MITIGATE_STREAM_GOLDEN))
def test_mitigate_stream_registry_is_pinned(tmp_path, seed, rate, unrecoverable):
    counters, digest = _MITIGATE_STREAM_GOLDEN[seed, rate, unrecoverable]
    observed, histograms = _mitigate_stream_registry(tmp_path, seed, rate, unrecoverable)
    assert observed == counters
    canonical = json.dumps(histograms, sort_keys=True)
    assert hashlib.sha256(canonical.encode()).hexdigest() == digest, canonical
