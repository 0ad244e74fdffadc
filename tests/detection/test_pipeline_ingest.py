"""Batched multi-feed ingestion: interleaving independence and
backpressure accounting.

The headline property: for **every** feed count, batch size, queue
capacity, backpressure policy and (deterministic) interleaving, the
pipeline's alarm list equals the serial single-feed oracle run over the
same surviving updates — lossless policies over the whole stream, the
``drop`` policy over exactly the survivors it reports.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.updates import SequencedUpdate, UpdateMessage
from repro.detection.detector import ASPPInterceptionDetector
from repro.detection.pipeline import (
    BACKPRESSURE_POLICIES,
    StreamingPipeline,
    split_stream,
)
from repro.detection.pipeline.faults import FeedFaultPlan
from repro.detection.streaming import StreamingDetector
from repro.exceptions import DetectionError
from repro.measurement.churn import ChurnConfig, synthesize_churn_stream
from repro.mitigation import run_closed_loop
from repro.telemetry.metrics import RunMetrics
from tests.detection.streaming_oracle import OracleStreamingDetector


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


def _oracle_alarms(stream, messages):
    oracle = OracleStreamingDetector(ASPPInterceptionDetector(stream.world.graph))
    for view in stream.baselines.values():
        oracle.prime(view)
    return oracle.consume_all(messages)


def _pipeline(stream, *, metrics=None, **kwargs):
    detector = StreamingDetector(
        ASPPInterceptionDetector(stream.world.graph), metrics=metrics
    )
    pipeline = StreamingPipeline(detector, metrics=metrics, **kwargs)
    for view in stream.baselines.values():
        pipeline.prime(view)
    return pipeline


@settings(max_examples=20, deadline=None)
@given(
    feeds=st.integers(1, 6),
    batch=st.integers(1, 80),
    capacity=st.integers(1, 64),
    policy=st.sampled_from(("block", "park")),
    interleave=st.one_of(st.none(), st.integers(0, 10**6)),
    split_seed=st.one_of(st.none(), st.integers(0, 10**6)),
)
def test_lossless_policies_match_serial_oracle(
    churn, feeds, batch, capacity, policy, interleave, split_seed
):
    expected = _oracle_alarms(churn, churn.plain_messages())
    pipeline = _pipeline(
        churn, feeds=feeds, batch=batch, capacity=capacity, policy=policy
    )
    streams = split_stream(
        churn.messages,
        feeds,
        rng=None if split_seed is None else random.Random(split_seed),
    )
    rng = None if interleave is None else random.Random(interleave)
    raised = pipeline.run(streams, rng=rng)
    assert raised == expected
    assert pipeline.alarms == expected
    assert pipeline.processed == len(churn.messages)
    assert pipeline.dropped == 0


@settings(max_examples=15, deadline=None)
@given(
    feeds=st.integers(1, 5),
    batch=st.integers(8, 64),
    capacity=st.integers(1, 8),
    interleave=st.integers(0, 10**6),
)
def test_drop_policy_matches_survivor_oracle(churn, feeds, batch, capacity, interleave):
    pipeline = _pipeline(
        churn, feeds=feeds, batch=batch, capacity=capacity, policy="drop"
    )
    streams = split_stream(churn.messages, feeds)
    raised = pipeline.run(streams, rng=random.Random(interleave))
    dropped = set(pipeline.dropped_seqs)
    assert len(dropped) == pipeline.dropped
    survivors = [m.message for m in churn.messages if m.seq not in dropped]
    assert raised == _oracle_alarms(churn, survivors)
    assert pipeline.processed == len(survivors)
    assert pipeline.processed + pipeline.dropped == len(churn.messages)


def test_single_feed_batch_one_is_the_serial_path(churn):
    expected = _oracle_alarms(churn, churn.plain_messages())
    pipeline = _pipeline(churn, feeds=1, batch=1, capacity=1)
    raised = pipeline.run(split_stream(churn.messages, 1))
    assert raised == expected


def test_duplicate_sequence_raises(churn):
    pipeline = _pipeline(churn, feeds=2, batch=4)
    first, second = churn.messages[0], churn.messages[1]
    pipeline.offer(0, first)
    with pytest.raises(DetectionError):
        pipeline.offer(1, SequencedUpdate(seq=first.seq, message=second.message))


def test_stale_sequence_raises_after_processing(churn):
    pipeline = _pipeline(churn, feeds=1, batch=1)
    pipeline.offer(0, churn.messages[0])  # batch=1 processes immediately
    with pytest.raises(DetectionError):
        pipeline.offer(0, churn.messages[0])


def test_redelivered_dropped_sequence_raises(churn):
    pipeline = _pipeline(churn, feeds=1, batch=64, capacity=1, policy="drop")
    pipeline.offer(0, churn.messages[0])
    pipeline.offer(0, churn.messages[1])  # overflows, dropped
    assert pipeline.dropped_seqs == [churn.messages[1].seq]
    with pytest.raises(DetectionError):
        pipeline.offer(0, churn.messages[1])


def test_backpressure_counters_and_telemetry(churn):
    metrics = RunMetrics()
    detector = StreamingDetector(
        ASPPInterceptionDetector(churn.world.graph), metrics=metrics
    )
    pipeline = StreamingPipeline(
        detector, feeds=2, batch=1000, capacity=3, policy="park", metrics=metrics
    )
    for view in churn.baselines.values():
        pipeline.prime(view)
    pipeline.run(split_stream(churn.messages, 2))
    assert pipeline.parked > 0
    assert pipeline.dropped == 0
    assert metrics.counter_value("detection.pipeline.parked") == pipeline.parked
    assert metrics.histograms["detection.pipeline.queue_depth"].count > 0
    assert pipeline.processed == len(churn.messages)

    blocking = _pipeline(churn, feeds=2, batch=1000, capacity=3, policy="block")
    blocking.run(split_stream(churn.messages, 2))
    assert blocking.blocked > 0
    assert blocking.processed == len(churn.messages)


def test_flush_processes_gap_stranded_messages(churn):
    """Sequences stranded behind a gap nobody will fill are still
    processed (in order) at flush."""
    pipeline = _pipeline(churn, feeds=1, batch=10**6, capacity=10**6)
    messages = churn.messages
    with_gap = [m for m in messages[:20] if m.seq != 5]
    for update in with_gap:
        pipeline.offer(0, update)
    pipeline.flush()
    assert pipeline.processed == len(with_gap)
    survivors = [m.message for m in with_gap]
    assert pipeline.alarms == _oracle_alarms(churn, survivors)


def test_constructor_validation(churn):
    detector = StreamingDetector(ASPPInterceptionDetector(churn.world.graph))
    for kwargs in (
        {"feeds": 0},
        {"feeds": 1, "batch": 0},
        {"feeds": 1, "capacity": 0},
        {"feeds": 1, "policy": "spill"},
    ):
        with pytest.raises(DetectionError):
            StreamingPipeline(detector, **kwargs)
    with pytest.raises(DetectionError):
        StreamingPipeline(detector, feeds=2).run([[]])
    with pytest.raises(DetectionError):
        split_stream([], 0)
    assert BACKPRESSURE_POLICIES == ("block", "drop", "park")


@settings(max_examples=20, deadline=None)
@given(
    count=st.integers(0, 50),
    feeds=st.integers(1, 6),
    seed=st.one_of(st.none(), st.integers(0, 10**6)),
)
def test_split_stream_partitions_in_order(count, feeds, seed):
    messages = [
        SequencedUpdate(
            seq=i,
            message=UpdateMessage(monitor=i, prefix="203.0.113.0/24", path=(i, 1)),
        )
        for i in range(count)
    ]
    rng = None if seed is None else random.Random(seed)
    streams = split_stream(messages, feeds, rng=rng)
    assert len(streams) == feeds
    recombined = sorted(
        (update for stream in streams for update in stream), key=lambda u: u.seq
    )
    assert recombined == messages
    for stream in streams:
        seqs = [update.seq for update in stream]
        assert seqs == sorted(seqs)


# -- telemetry is folded per batch: nothing may be left unfolded ---------------


@pytest.mark.parametrize("policy", BACKPRESSURE_POLICIES)
@pytest.mark.parametrize("pumping", [True, False])
def test_every_update_reaches_the_registry(churn, policy, pumping):
    """Counts and histograms are kept in locals and folded per batch /
    per drain; a stream that ends between folds (``offer…; flush()``
    with no pump at all) must lose none of them."""
    metrics = RunMetrics()
    if pumping:
        # tiny queues: block pumps on overflow, drop drops, park parks
        pipeline = _pipeline(
            churn, metrics=metrics, feeds=2, batch=1000, capacity=3, policy=policy
        )
        pipeline.run(split_stream(churn.messages, 2))
    else:
        pipeline = _pipeline(
            churn, metrics=metrics, feeds=2, batch=10**6, capacity=10**6, policy=policy
        )
        for position, update in enumerate(churn.messages):
            assert pipeline.offer(position % 2, update) == []
        assert metrics.counter_value("detection.pipeline.batches") == 0
        pipeline.flush()
    dropped = set(pipeline.dropped_seqs)
    survivors = [u.message for u in churn.messages if u.seq not in dropped]
    assert pipeline.processed == len(survivors)
    if pumping and policy != "block":
        assert pipeline.dropped + pipeline.parked > 0

    reference = RunMetrics()
    whole = StreamingDetector(
        ASPPInterceptionDetector(churn.world.graph), metrics=reference
    )
    for view in churn.baselines.values():
        whole.prime(view)
    alarms = whole.consume_all(survivors)
    assert pipeline.alarms == alarms
    for name in ("updates", "changes", "alarms"):
        assert metrics.counter_value(f"detection.pipeline.{name}") == (
            reference.counter_value(f"detection.pipeline.{name}")
        )
    assert metrics.counter_value("detection.pipeline.updates") == pipeline.processed
    assert metrics.counter_value("detection.pipeline.alarms") == len(alarms)
    histograms = metrics.histograms
    assert histograms["detection.pipeline.update_latency_us"].count == pipeline.processed
    # parked updates bypass the bounded queue, so they record no depth
    admitted = len(churn.messages) - pipeline.dropped - pipeline.parked
    assert histograms["detection.pipeline.queue_depth"].count == admitted


# -- the interleaving contract --------------------------------------------------


def _feed_by_feed(pipeline, streams):
    """Feed 0 to its end, then feed 1, ...: the worst case for the
    reorder buffer (everything but feed 0's slice waits in it)."""
    for feed_id, stream in enumerate(streams):
        for update in stream:
            pipeline.offer(feed_id, update)
    pipeline.flush()


@pytest.mark.parametrize("feeds", [1, 2, 4, 7])
def test_alarms_do_not_depend_on_the_interleaving(churn, feeds):
    batch = 16
    streams = split_stream(churn.messages, feeds)
    outcomes = []
    for order in (None, 1, 2, 3, "feed-by-feed"):
        metrics = RunMetrics()
        pipeline = _pipeline(churn, metrics=metrics, feeds=feeds, batch=batch)
        if order == "feed-by-feed":
            _feed_by_feed(pipeline, streams)
        else:
            pipeline.run(streams, rng=None if order is None else random.Random(order))
        outcomes.append(
            (pipeline.alarms, pipeline.detector.first_alarm_at, pipeline.processed)
        )
        depth = metrics.histograms["detection.pipeline.reorder_depth"].max
        if order is None:
            # run() re-merges a round-robin split as it arrives
            assert depth <= feeds * batch
        elif order == "feed-by-feed" and feeds > 1:
            assert depth > feeds * batch
    assert outcomes[0][0] == _oracle_alarms(churn, churn.plain_messages())
    assert outcomes[0][2] == len(churn.messages)
    assert all(outcome == outcomes[0] for outcome in outcomes[1:])


#: ``run_closed_loop`` on ``ChurnConfig(seed, scale=0.5, monitors=100,
#: prefixes=4, updates=4000, padding=3)``, 4 feeds, recorded while
#: ``run()`` still drained feed by feed: seed -> (MitigationStep fields,
#: processed, pipeline alarms, duplicates under the recoverable
#: ``FeedFaultPlan.seeded(4, seed=seed, rate=1.0)``).
_CLOSED_LOOP_GOLDEN = {
    3: (
        ("stepdown", 61, 132, "203.0.113.0/24", 3, 2, 1385, 1, 64, 2, 18,
         0.01297016861219196, 0.02204928664072633, 0.019455252918287938, 60, 1207),
        4292, 1267, 3,
    ),
    7: (
        ("stepdown", 94, 6, "203.0.113.0/24", 3, 2, 1357, 1, 64, 3, 97,
         0.06355382619974059, 0.1569390402075227, 0.08430609597924774, 123, 1751),
        4291, 1874, 0,
    ),
    11: (
        ("stepdown", 409, 28, "203.0.113.0/24", 3, 2, 1457, 1, 64, 3, 136,
         0.07133592736705577, 0.16601815823605706, 0.11932555123216602, 55, 955),
        4168, 1010, 6,
    ),
}  # fmt: skip


@pytest.mark.parametrize("seed", sorted(_CLOSED_LOOP_GOLDEN))
def test_closed_loop_reports_survive_the_interleaving_change(seed):
    step, processed, alarms, duplicates = _CLOSED_LOOP_GOLDEN[seed]
    stream = synthesize_churn_stream(
        ChurnConfig(
            seed=seed, scale=0.5, monitors=100, prefixes=4, updates=4000, padding=3
        )
    )
    for plan in (None, FeedFaultPlan.seeded(4, seed=seed, rate=1.0)):
        report = run_closed_loop(stream, feeds=4, fault_plan=plan)
        assert dataclasses.astuple(report.step) == step
        assert (report.processed, len(report.alarms)) == (processed, alarms)
        assert report.duplicates == (0 if plan is None else duplicates)
        assert (report.dead_lettered, report.lost, report.coverage) == (0, 0, 1.0)
