"""Chaos suite for the fault-tolerant ingestion layer.

The headline oracle: a *recoverable* fault plan — outages that replay,
duplicate bursts, corruption with retransmission, gap storms — never
changes what the pipeline detects.  For every seeded plan, feed count
and backpressure policy, the alarm stream is bit-identical to the
fault-free run.  Unrecoverable plans lose updates but degrade
gracefully: structured loss accounting, quarantine, dead-letters —
never an exception.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.updates import SequencedUpdate, UpdateMessage
from repro.detection.detector import ASPPInterceptionDetector
from repro.detection.pipeline import (
    FEED_FAULT_MODES,
    FeedFault,
    FeedFaultPlan,
    StreamingPipeline,
    corrupt_update,
    is_malformed,
    split_stream,
)
from repro.detection.pipeline import ingest
from repro.detection.streaming import StreamingDetector
from repro.exceptions import DetectionError
from repro.measurement.churn import ChurnConfig, synthesize_churn_stream
from repro.telemetry.metrics import RunMetrics


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


def _pipeline(stream, **kwargs):
    detector = StreamingDetector(ASPPInterceptionDetector(stream.world.graph))
    pipeline = StreamingPipeline(detector, **kwargs)
    for view in stream.baselines.values():
        pipeline.prime(view)
    return pipeline


def _run(stream, *, feeds, fault_plan=None, policy="block", capacity=1024, rng=None,
         **kwargs):
    pipeline = _pipeline(
        stream,
        feeds=feeds,
        policy=policy,
        capacity=capacity,
        fault_plan=fault_plan,
        **kwargs,
    )
    pipeline.run(split_stream(stream.messages, feeds), rng=rng)
    return pipeline


class TestFaultSpecs:
    def test_modes_tuple_is_pinned(self):
        assert FEED_FAULT_MODES == ("outage", "dup", "corrupt", "gap_storm")

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            FeedFault(mode="meteor", at=0)
        with pytest.raises(ValueError):
            FeedFault(mode="outage", at=-1)
        with pytest.raises(ValueError):
            FeedFault(mode="outage", at=0, span=0)
        with pytest.raises(ValueError):
            FeedFault(mode="dup", at=0, burst=0)

    def test_dup_and_gap_storm_are_forced_recoverable(self):
        assert FeedFault(mode="dup", at=0, recoverable=False).recoverable
        assert FeedFault(mode="gap_storm", at=0, recoverable=False).recoverable
        assert not FeedFault(mode="outage", at=0, recoverable=False).recoverable

    def test_plan_sorts_faults_and_rejects_same_index(self):
        plan = FeedFaultPlan(
            {0: (FeedFault(mode="dup", at=9), FeedFault(mode="outage", at=2))}
        )
        assert [fault.at for fault in plan.faults_for(0)] == [2, 9]
        with pytest.raises(ValueError):
            FeedFaultPlan(
                {0: (FeedFault(mode="dup", at=3), FeedFault(mode="outage", at=3))}
            )

    def test_plan_len_bool_and_recoverable(self):
        empty = FeedFaultPlan()
        assert not empty and len(empty) == 0 and empty.is_recoverable()
        lossy = FeedFaultPlan(
            {1: (FeedFault(mode="outage", at=0, recoverable=False),)}
        )
        assert lossy and len(lossy) == 1
        assert not lossy.is_recoverable()

    def test_seeded_plan_is_reproducible_and_scheduling_free(self):
        a = FeedFaultPlan.seeded(5, seed=11, rate=0.9)
        b = FeedFaultPlan.seeded(5, seed=11, rate=0.9)
        assert a == b
        assert FeedFaultPlan.seeded(5, seed=12, rate=0.9) != a

    def test_seeded_plan_validates_inputs(self):
        with pytest.raises(ValueError):
            FeedFaultPlan.seeded(0, seed=1)
        with pytest.raises(ValueError):
            FeedFaultPlan.seeded(2, seed=1, modes=("meteor",))

    def test_corrupt_update_trips_both_malformed_checks(self):
        clean = SequencedUpdate(
            seq=7,
            message=UpdateMessage(monitor=1, prefix="203.0.113.0/24", path=(3, 2, 1)),
        )
        assert not is_malformed(clean.message)
        bad = corrupt_update(clean)
        assert bad.seq == clean.seq
        assert "/" not in bad.message.prefix
        assert bad.message.path[0] < 0
        assert is_malformed(bad.message)


class TestRecoverableBitIdentity:
    """The tentpole oracle: recoverable faults never change the alarms."""

    @settings(max_examples=15, deadline=None)
    @given(
        feeds=st.integers(1, 5),
        policy=st.sampled_from(("block", "drop", "park")),
        plan_seed=st.integers(0, 10**6),
        interleave=st.one_of(st.none(), st.integers(0, 10**6)),
    )
    def test_seeded_recoverable_plan_matches_fault_free_run(
        self, churn, feeds, policy, plan_seed, interleave
    ):
        # capacity >= stream length keeps the drop policy lossless, so
        # the only difference between the runs is the fault layer.
        capacity = len(churn.messages) + 1
        baseline = _run(
            churn, feeds=feeds, policy=policy, capacity=capacity,
            rng=None if interleave is None else random.Random(interleave),
        )
        plan = FeedFaultPlan.seeded(feeds, seed=plan_seed, rate=0.9)
        faulted = _run(
            churn, feeds=feeds, policy=policy, capacity=capacity,
            fault_plan=plan,
            rng=None if interleave is None else random.Random(interleave),
        )
        assert faulted.alarms == baseline.alarms
        assert faulted.processed == len(churn.messages)
        assert faulted.lost == 0
        assert faulted.quarantined_feeds == []
        assert faulted.coverage == 1.0

    def test_every_mode_individually_is_transparent(self, churn):
        baseline = _run(churn, feeds=2)
        for mode in FEED_FAULT_MODES:
            plan = FeedFaultPlan(
                {0: (FeedFault(mode=mode, at=5, span=4, burst=3),)}
            )
            faulted = _run(churn, feeds=2, fault_plan=plan)
            assert faulted.alarms == baseline.alarms, mode
            assert faulted.lost == 0, mode

    def test_duplicates_are_deduped_not_raised(self, churn):
        plan = FeedFaultPlan({0: (FeedFault(mode="dup", at=0, burst=3),)})
        faulted = _run(churn, feeds=2, fault_plan=plan)
        assert faulted.duplicates == 3
        assert faulted.alarms == _run(churn, feeds=2).alarms

    def test_recoverable_corruption_dead_letters_then_retransmits(self, churn):
        plan = FeedFaultPlan({0: (FeedFault(mode="corrupt", at=3),)})
        faulted = _run(churn, feeds=2, fault_plan=plan)
        assert faulted.dead_lettered == 1
        assert faulted.lost == 0
        assert len(faulted.dead_letters) == 1
        assert is_malformed(faulted.dead_letters[0].message)

    def test_outage_backoff_and_replay_telemetry(self, churn):
        metrics = RunMetrics()
        detector = StreamingDetector(
            ASPPInterceptionDetector(churn.world.graph), metrics=metrics
        )
        plan = FeedFaultPlan({0: (FeedFault(mode="outage", at=2, span=5),)})
        pipeline = StreamingPipeline(
            detector, feeds=2, capacity=1024, fault_plan=plan, metrics=metrics
        )
        for view in churn.baselines.values():
            pipeline.prime(view)
        pipeline.run(split_stream(churn.messages, 2))
        assert metrics.counter_value("detection.pipeline.faults.outage") == 1
        assert metrics.counter_value("detection.pipeline.reconnects") == 1
        assert metrics.histograms["detection.pipeline.backoff"].count == 5
        assert metrics.histograms["detection.pipeline.backoff"].max <= 64
        assert pipeline.replay_high_water == 5
        assert pipeline.lost == 0

    def test_outage_open_at_end_of_stream_replays_at_flush(self, churn):
        # Feed 0 goes down three offers before its slice ends, for longer
        # than it has left: flush reconnects it and replays the backlog.
        last = len(split_stream(churn.messages, 2)[0])
        plan = FeedFaultPlan({0: (FeedFault(mode="outage", at=last - 3, span=50),)})
        faulted = _run(churn, feeds=2, fault_plan=plan)
        assert faulted.alarms == _run(churn, feeds=2).alarms
        assert faulted.processed == len(churn.messages)
        assert (faulted.lost, faulted.replay_high_water) == (0, 3)


class TestGracefulDegradation:
    """Unrecoverable plans lose data, never raise."""

    @settings(max_examples=10, deadline=None)
    @given(feeds=st.integers(2, 5), plan_seed=st.integers(0, 10**6))
    def test_unrecoverable_seeded_plan_never_raises(self, churn, feeds, plan_seed):
        plan = FeedFaultPlan.seeded(
            feeds, seed=plan_seed, rate=1.0, recoverable=False
        )
        faulted = _run(churn, feeds=feeds, fault_plan=plan)
        assert faulted.processed + faulted.lost == len(churn.messages)
        # every alarm raised comes from updates that actually survived
        assert faulted.processed > 0

    def test_unrecoverable_outage_marks_sequences_skipped(self, churn):
        plan = FeedFaultPlan(
            {0: (FeedFault(mode="outage", at=0, span=10, recoverable=False),)}
        )
        faulted = _run(churn, feeds=2, fault_plan=plan)
        assert faulted.lost == 10
        assert faulted.processed == len(churn.messages) - 10

    def test_unrecoverable_corruption_loses_exactly_one(self, churn):
        plan = FeedFaultPlan(
            {0: (FeedFault(mode="corrupt", at=0, recoverable=False),)}
        )
        faulted = _run(churn, feeds=2, fault_plan=plan)
        assert faulted.dead_lettered == 1
        assert faulted.lost == 1

    def test_flapping_feed_is_quarantined_with_coverage_telemetry(self, churn):
        faults = tuple(
            FeedFault(mode="outage", at=i * 4, span=1) for i in range(6)
        )
        metrics = RunMetrics()
        detector = StreamingDetector(
            ASPPInterceptionDetector(churn.world.graph), metrics=metrics
        )
        pipeline = StreamingPipeline(
            detector,
            feeds=2,
            capacity=1024,
            fault_plan=FeedFaultPlan({0: faults}),
            metrics=metrics,
        )
        for view in churn.baselines.values():
            pipeline.prime(view)
        pipeline.run(split_stream(churn.messages, 2))
        assert pipeline.quarantined_feeds == [0]
        assert pipeline.coverage == 0.5
        assert pipeline.lost > 0
        assert metrics.counter_value("detection.pipeline.quarantined") == 1
        assert metrics.histograms["detection.pipeline.coverage_pct"].max == 50

    def test_malformed_updates_dead_letter_without_faults(self, churn):
        pipeline = _pipeline(churn, feeds=1, fault_plan=FeedFaultPlan(), capacity=1024)
        bad = SequencedUpdate(
            seq=0, message=UpdateMessage(monitor=1, prefix="garbage", path=(1,))
        )
        pipeline.offer(0, bad)
        for update in churn.messages[1:]:
            pipeline.offer(0, update)
        pipeline.flush()
        assert pipeline.dead_lettered == 1
        assert pipeline.lost == 1
        assert pipeline.processed == len(churn.messages) - 1

    def test_dead_letter_ring_is_bounded(self, churn, monkeypatch):
        monkeypatch.setattr(ingest, "DEAD_LETTER_CAP", 4)
        pipeline = _pipeline(churn, feeds=1, fault_plan=FeedFaultPlan(), capacity=1024)
        for seq in range(10):
            pipeline.offer(
                0,
                SequencedUpdate(
                    seq=seq,
                    message=UpdateMessage(monitor=1, prefix="bad", path=(1,)),
                ),
            )
        assert pipeline.dead_lettered == 10  # exact count survives the cap
        assert len(pipeline.dead_letters) == 4  # ring holds the most recent


class TestBoundedBuffers:
    """Satellite regression: the drop log and the park buffer no longer
    grow without bound."""

    def test_drop_log_is_a_bounded_ring_with_exact_total(self, churn, monkeypatch):
        monkeypatch.setattr(ingest, "DROP_LOG", 8)
        pipeline = _pipeline(churn, feeds=1, batch=10**6, capacity=1, policy="drop")
        for update in churn.messages[:50]:
            pipeline.offer(0, update)
        assert pipeline.dropped == 49  # first fills the queue, rest drop
        assert len(pipeline.dropped_seqs) == 8
        assert pipeline.dropped_seqs == [m.seq for m in churn.messages[42:50]]

    def test_park_capacity_forces_a_lossless_pump(self, churn, monkeypatch):
        monkeypatch.setattr(ingest, "PARK_CAPACITY", 16)
        pipeline = _pipeline(churn, feeds=1, batch=10**6, capacity=1, policy="park")
        for update in churn.messages:
            pipeline.offer(0, update)
        pipeline.flush()
        # The side buffer peaked at its cap and everything still landed.
        assert pipeline.park_high_water == 16
        assert all(q.parked == 0 for q in pipeline.queues)
        assert pipeline.processed == len(churn.messages)
        assert pipeline.dropped == 0

    def test_park_high_water_metric_observed(self, churn, monkeypatch):
        monkeypatch.setattr(ingest, "PARK_CAPACITY", 8)
        metrics = RunMetrics()
        detector = StreamingDetector(
            ASPPInterceptionDetector(churn.world.graph), metrics=metrics
        )
        pipeline = StreamingPipeline(
            detector, feeds=1, batch=10**6, capacity=1, policy="park", metrics=metrics
        )
        for view in churn.baselines.values():
            pipeline.prime(view)
        pipeline.run(split_stream(churn.messages, 1))
        assert metrics.histograms["detection.pipeline.park_depth"].max == 8

    def test_constructor_rejects_degenerate_bounds(self, churn):
        detector = StreamingDetector(ASPPInterceptionDetector(churn.world.graph))
        for name in ("feeds", "batch", "capacity"):
            with pytest.raises(DetectionError, match=f"{name} must be >= 1, got 0"):
                StreamingPipeline(detector, **{"feeds": 1, name: 0})
        # The buffer bounds are module constants only tests change, and
        # an empty fault plan is what arms the pipeline.
        removed_knobs = (
            "first_seq", "quarantine_after", "drop_log", "park_capacity",
            "dead_letter_cap", "tolerant",
        )
        for removed in removed_knobs:
            with pytest.raises(TypeError):
                StreamingPipeline(detector, feeds=1, **{removed: 0})

    def test_quiet_path_still_raises_on_duplicates(self, churn):
        # Unarmed (no fault plan): the strict contract is unchanged.
        pipeline = _pipeline(churn, feeds=2, capacity=1024)
        pipeline.offer(0, churn.messages[0])
        with pytest.raises(DetectionError):
            pipeline.offer(1, churn.messages[0])
