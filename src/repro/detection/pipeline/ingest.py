"""Batched multi-feed ingestion with bounded queues and backpressure.

A deployment watches many collector feeds at once (RouteViews alone
exports dozens); each feed delivers a slice of the global update stream
in order, but the slices interleave arbitrarily.  The pipeline makes
that interleaving irrelevant:

* every feed drains through a **bounded queue** with an explicit
  overflow policy — ``block`` (the producer is stalled while the
  pipeline drains, the lossless default), ``drop`` (the offered update
  is discarded and its sequence number recorded as skipped) or
  ``park`` (the update overflows into a bounded side buffer that
  drains with the next pump — reaching the park capacity forces a
  pump, so parking stays lossless *and* bounded) — every event counted
  in telemetry;
* messages are merged back into **sequence order** before they reach
  the detector, so the alarm stream is bit-identical to one serial
  feed over the same (surviving) updates, for every feed count, batch
  size and interleaving;
* the detector is invoked through
  :meth:`~repro.detection.streaming.StreamingDetector.consume_all`
  in batches of up to ``batch`` messages, amortising table lookups and
  dispatch overhead.

Fault tolerance is opt-in via a
:class:`~repro.detection.pipeline.faults.FeedFaultPlan` (or bare
``tolerant=True``): feeds then survive scripted outages with bounded
exponential-backoff reconnection and in-order replay, duplicate
deliveries are deduplicated instead of raising, malformed updates land
in a bounded dead-letter buffer, and a feed that keeps flapping is
quarantined — the pipeline keeps detecting on the surviving monitor
coverage while telemetry (and the optional SLO registry) track the
loss.  The quiet path pays a single predicate for all of this: a
pipeline without a fault layer runs the same code it always did.
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

from repro.bgp.collectors import MonitorView
from repro.bgp.updates import SequencedUpdate
from repro.detection.alarms import Alarm
from repro.detection.pipeline.faults import (
    FeedFaultPlan,
    FeedFaultState,
    corrupt_update,
    is_malformed,
)
from repro.exceptions import DetectionError
from repro.telemetry.metrics import RunMetrics
from repro.telemetry.slo import SLORegistry

if TYPE_CHECKING:  # streaming imports this package's radix — keep the cycle type-only
    from repro.detection.streaming import StreamingDetector

__all__ = ["BACKPRESSURE_POLICIES", "FeedQueue", "StreamingPipeline", "split_stream"]

BACKPRESSURE_POLICIES = ("block", "drop", "park")


class FeedQueue:
    """One monitor feed's bounded inbox (plus its parking overflow)."""

    __slots__ = ("feed_id", "capacity", "items", "parked")

    def __init__(self, feed_id: int, capacity: int) -> None:
        self.feed_id = feed_id
        self.capacity = capacity
        self.items: deque[SequencedUpdate] = deque()
        self.parked: deque[SequencedUpdate] = deque()

    @property
    def depth(self) -> int:
        return len(self.items)


class StreamingPipeline:
    """N bounded feed queues in front of one :class:`StreamingDetector`.

    Contract: the sequence numbers offered across all feeds are a
    (subset of a) dense range starting at ``first_seq``, each feed's
    slice arriving in increasing order.  ``offer`` enqueues one update;
    the pipeline pumps itself whenever a full batch is ready, and
    :meth:`flush` processes everything still buffered at end of stream
    (sequence gaps — dropped or never-offered updates — are skipped in
    order).  Alarms are returned from the call that processed them and
    also accumulated on :attr:`alarms`.

    ``fault_plan`` arms the fault-injection layer (see module docs);
    ``tolerant=True`` enables the same tolerance machinery — dedupe,
    dead-lettering, quarantine — without any scripted faults, which is
    what a deployment fronting real, unreliable feeds would run.
    """

    def __init__(
        self,
        detector: StreamingDetector,
        *,
        feeds: int,
        batch: int = 64,
        capacity: int = 256,
        policy: str = "block",
        first_seq: int = 0,
        metrics: RunMetrics | None = None,
        drop_log: int = 1024,
        park_capacity: int = 4096,
        fault_plan: FeedFaultPlan | None = None,
        tolerant: bool = False,
        quarantine_after: int = 3,
        dead_letter_cap: int = 256,
        slos: SLORegistry | None = None,
    ) -> None:
        if feeds < 1:
            raise DetectionError("a pipeline needs at least one feed")
        if batch < 1:
            raise DetectionError("batch size must be >= 1")
        if capacity < 1:
            raise DetectionError("queue capacity must be >= 1")
        if policy not in BACKPRESSURE_POLICIES:
            raise DetectionError(
                f"unknown backpressure policy {policy!r}; "
                f"expected one of {BACKPRESSURE_POLICIES}"
            )
        if drop_log < 1:
            raise DetectionError("drop_log must be >= 1")
        if park_capacity < 1:
            raise DetectionError("park_capacity must be >= 1")
        self.detector = detector
        self.batch = batch
        self.policy = policy
        self.metrics = metrics
        self.queues = [FeedQueue(i, capacity) for i in range(feeds)]
        self.alarms: list[Alarm] = []
        #: reorder buffer: seq -> message, waiting for its turn
        self._pending: dict[int, SequencedUpdate] = {}
        #: every seq currently buffered anywhere (queues, parked, or the
        #: reorder buffer) — the duplicate-delivery guard
        self._buffered: set[int] = set()
        self._next_seq = first_seq
        self._enqueued = 0
        #: queue depths admitted since the last drain (``_collect`` folds them)
        self._depths: list[int] = []
        #: sequence numbers known lost (drop policy, faults) — skipped in order
        self._skipped: set[int] = set()
        # backpressure accounting (mirrored into metrics when attached)
        self.dropped = 0
        self.parked = 0
        self.blocked = 0
        self.processed = 0
        #: bounded ring of the most recent dropped sequence numbers —
        #: :attr:`dropped` keeps the exact total even past the cap
        self._dropped_ring: deque[int] = deque(maxlen=drop_log)
        self.park_capacity = park_capacity
        self.park_high_water = 0
        # fault-tolerance layer (None == the original quiet path)
        self.slos = slos
        self.tolerant = tolerant or fault_plan is not None
        self.quarantine_after = quarantine_after
        self.duplicates = 0
        self.dead_lettered = 0
        self.lost = 0
        self.replay_high_water = 0
        self.quarantined_feeds: list[int] = []
        self._dead_letter_ring: deque[SequencedUpdate] = deque(maxlen=dead_letter_cap)
        self._fault_states: list[FeedFaultState] | None = None
        if self.tolerant:
            plan = fault_plan if fault_plan is not None else FeedFaultPlan()
            self._fault_states = [
                FeedFaultState(i, plan.faults_for(i)) for i in range(feeds)
            ]

    @property
    def dropped_seqs(self) -> list[int]:
        """The most recent dropped sequence numbers (bounded ring)."""
        return list(self._dropped_ring)

    @property
    def dead_letters(self) -> list[SequencedUpdate]:
        """The most recent malformed updates (bounded ring)."""
        return list(self._dead_letter_ring)

    @property
    def coverage(self) -> float:
        """Fraction of feeds still delivering (1.0 == no quarantine)."""
        return 1.0 - len(self.quarantined_feeds) / len(self.queues)

    # -- producing ------------------------------------------------------
    def prime(self, view: MonitorView) -> None:
        self.detector.prime(view)

    def offer(self, feed_id: int, item: SequencedUpdate) -> list[Alarm]:
        """Enqueue one update from ``feed_id``; returns alarms raised if
        the offer triggered a pump (full batch ready, or a blocking
        drain on overflow)."""
        if self._fault_states is None:
            return self._admit(feed_id, item)
        return self._offer_tolerant(feed_id, item)

    def _admit(self, feed_id: int, item: SequencedUpdate) -> list[Alarm]:
        queue = self.queues[feed_id]
        raised: list[Alarm] = []
        if (
            item.seq < self._next_seq
            or item.seq in self._buffered
            or item.seq in self._skipped
        ):
            if self.tolerant:
                # Redelivery (feed retransmission or injected duplicate
                # burst): dedupe and move on instead of tearing down.
                self.duplicates += 1
                metrics = self.metrics
                if metrics is not None and metrics.enabled:
                    metrics.count("detection.pipeline.duplicates")
                return raised
            raise DetectionError(
                f"feed {feed_id} delivered sequence {item.seq} twice "
                f"(next expected {self._next_seq})"
            )
        metrics = self.metrics
        track = metrics is not None and metrics.enabled
        if len(queue.items) >= queue.capacity:
            if self.policy == "drop":
                self.dropped += 1
                self._dropped_ring.append(item.seq)
                self._skipped.add(item.seq)
                if track:
                    metrics.count("detection.pipeline.dropped")
                return raised
            if self.policy == "park":
                self.parked += 1
                queue.parked.append(item)
                self._buffered.add(item.seq)
                depth = len(queue.parked)
                if depth > self.park_high_water:
                    self.park_high_water = depth
                if track:
                    metrics.count("detection.pipeline.parked")
                    metrics.observe("detection.pipeline.park_depth", depth)
                if depth >= self.park_capacity:
                    # The side buffer is full: force a lossless drain
                    # instead of growing without bound.
                    raised.extend(self.pump())
                return raised
            # block: the producer stalls while the pipeline drains.
            self.blocked += 1
            if track:
                metrics.count("detection.pipeline.blocked")
            raised.extend(self.pump())
        queue.items.append(item)
        self._buffered.add(item.seq)
        self._enqueued += 1
        if track:
            self._depths.append(len(queue.items))
        if self._enqueued >= self.batch:
            raised.extend(self.pump())
        return raised

    # -- fault tolerance ------------------------------------------------
    def _lose(self, item: SequencedUpdate) -> None:
        """Record one update as permanently lost (graceful: the merge
        skips its sequence number instead of stalling)."""
        if item.seq >= self._next_seq and item.seq not in self._buffered:
            self._skipped.add(item.seq)
        self.lost += 1
        metrics = self.metrics
        if metrics is not None and metrics.enabled:
            metrics.count("detection.pipeline.lost")

    def _dead_letter(self, item: SequencedUpdate, *, lost: bool) -> None:
        self._dead_letter_ring.append(item)
        self.dead_lettered += 1
        metrics = self.metrics
        if metrics is not None and metrics.enabled:
            metrics.count("detection.pipeline.dead_lettered")
        if lost:
            self._lose(item)

    def _quarantine(self, state: FeedFaultState) -> None:
        state.quarantined = True
        self.quarantined_feeds.append(state.feed_id)
        metrics = self.metrics
        if metrics is not None and metrics.enabled:
            metrics.count("detection.pipeline.quarantined")
            metrics.observe(
                "detection.pipeline.coverage_pct", int(self.coverage * 100)
            )
        while state.replay:
            self._lose(state.replay.popleft())

    def _reconnect(self, state: FeedFaultState) -> list[Alarm]:
        """Feed back up: replay the retransmission buffer in order."""
        state.reconnect()
        metrics = self.metrics
        if metrics is not None and metrics.enabled:
            metrics.count("detection.pipeline.reconnects")
        raised: list[Alarm] = []
        while state.replay:
            raised.extend(self._admit(state.feed_id, state.replay.popleft()))
        return raised

    def _outage_tick(self, state: FeedFaultState, item: SequencedUpdate) -> list[Alarm]:
        state.outage_remaining -= 1
        backoff = state.tick_backoff()
        metrics = self.metrics
        track = metrics is not None and metrics.enabled
        if track:
            metrics.observe("detection.pipeline.backoff", int(backoff))
        if state.outage_recoverable:
            state.replay.append(item)
            depth = len(state.replay)
            if depth > self.replay_high_water:
                self.replay_high_water = depth
            if track:
                metrics.observe("detection.pipeline.replay_depth", depth)
            if self.slos is not None:
                self.slos.record("feed-staleness", depth)
        else:
            self._lose(item)
        if state.outage_remaining == 0:
            return self._reconnect(state)
        return []

    def _offer_tolerant(self, feed_id: int, item: SequencedUpdate) -> list[Alarm]:
        assert self._fault_states is not None
        state = self._fault_states[feed_id]
        try:
            if state.quarantined:
                self._lose(item)
                return []
            if is_malformed(item.message):
                self._dead_letter(item, lost=True)
                return []
            if state.outage_remaining > 0:
                return self._outage_tick(state, item)
            if state.storm_remaining > 0:
                state.storm.append(item)
                state.storm_remaining -= 1
                if state.storm_remaining == 0:
                    raised: list[Alarm] = []
                    for held in reversed(state.storm):
                        raised.extend(self._admit(feed_id, held))
                    state.storm.clear()
                    return raised
                return []
            fault = state.next_fault()
            if fault is None:
                return self._admit(feed_id, item)
            metrics = self.metrics
            track = metrics is not None and metrics.enabled
            if track:
                metrics.count(f"detection.pipeline.faults.{fault.mode}")
            if fault.mode == "outage":
                state.disconnects += 1
                if state.disconnects > self.quarantine_after:
                    self._quarantine(state)
                    self._lose(item)
                    return []
                state.outage_remaining = fault.span
                state.outage_recoverable = fault.recoverable
                return self._outage_tick(state, item)
            if fault.mode == "dup":
                raised = self._admit(feed_id, item)
                for _ in range(fault.burst):
                    raised.extend(self._admit(feed_id, item))
                return raised
            if fault.mode == "corrupt":
                self._dead_letter(corrupt_update(item), lost=not fault.recoverable)
                if fault.recoverable:
                    # The feed retransmits the clean copy immediately.
                    return self._admit(feed_id, item)
                return []
            # gap_storm: withhold a span and release it in reverse.
            if fault.span == 1:
                return self._admit(feed_id, item)
            state.storm.append(item)
            state.storm_remaining = fault.span - 1
            return []
        finally:
            state.offers += 1

    def _drain_fault_buffers(self) -> list[Alarm]:
        """End of stream: whatever the fault layer still withholds
        (outage replay, unfinished gap storms) is delivered now."""
        raised: list[Alarm] = []
        if self._fault_states is None:
            return raised
        for state in self._fault_states:
            if state.storm:
                for held in reversed(state.storm):
                    raised.extend(self._admit(state.feed_id, held))
                state.storm.clear()
                state.storm_remaining = 0
            if state.outage_remaining > 0:
                state.outage_remaining = 0
                if state.replay:
                    raised.extend(self._reconnect(state))
        return raised

    # -- draining -------------------------------------------------------
    def _collect(self) -> None:
        """Move everything queued (parked overflow included) into the
        reorder buffer."""
        pending = self._pending
        for queue in self.queues:
            items = queue.items
            while items:
                update = items.popleft()
                pending[update.seq] = update
            parked = queue.parked
            while parked:
                update = parked.popleft()
                pending[update.seq] = update
        self._enqueued = 0
        if self._depths:
            self.metrics.observe_many("detection.pipeline.queue_depth", self._depths)
            self._depths.clear()

    def _ready_run(self) -> list[SequencedUpdate]:
        """The maximal run of consecutive sequence numbers available at
        the merge point (known-skipped numbers are passed over)."""
        pending = self._pending
        skipped = self._skipped
        buffered = self._buffered
        run: list[SequencedUpdate] = []
        seq = self._next_seq
        while True:
            if seq in skipped:
                skipped.remove(seq)
                seq += 1
                continue
            update = pending.pop(seq, None)
            if update is None:
                break
            buffered.discard(seq)
            run.append(update)
            seq += 1
        self._next_seq = seq
        return run

    def _process(self, run: Sequence[SequencedUpdate]) -> list[Alarm]:
        raised: list[Alarm] = []
        batch = self.batch
        consume_all = self.detector.consume_all
        for start in range(0, len(run), batch):
            chunk = [update.message for update in run[start : start + batch]]
            raised.extend(consume_all(chunk))
        self.processed += len(run)
        self.alarms.extend(raised)
        return raised

    def pump(self) -> list[Alarm]:
        """Drain the queues through the merge point and the detector."""
        self._collect()
        metrics = self.metrics
        if metrics is not None and metrics.enabled:
            metrics.observe("detection.pipeline.reorder_depth", len(self._pending))
        return self._process(self._ready_run())

    def flush(self) -> list[Alarm]:
        """End of stream: process everything still buffered, skipping
        sequence gaps (lost updates) in order."""
        raised: list[Alarm] = []
        if self._fault_states is not None:
            raised.extend(self._drain_fault_buffers())
        self._collect()
        raised.extend(self._process(self._ready_run()))
        if self._pending:
            # Whatever remains is stranded behind gaps nobody will fill:
            # process it in sequence order.
            leftovers = [self._pending[seq] for seq in sorted(self._pending)]
            self._buffered.difference_update(self._pending)
            self._pending.clear()
            self._skipped.clear()
            raised.extend(self._process(leftovers))
            self._next_seq = leftovers[-1].seq + 1
        return raised

    # -- convenience driver ---------------------------------------------
    def run(
        self,
        streams: Sequence[Sequence[SequencedUpdate]],
        *,
        rng: random.Random | None = None,
    ) -> list[Alarm]:
        """Feed per-feed streams to completion and flush.

        Interleaving is round-robin by default — position *p* of every
        feed is offered before position *p + 1* of any, so a
        :func:`split_stream` stream arrives in sequence order and the
        reorder buffer stays within one batch per feed; passing ``rng``
        draws the next feed at random (deterministically for a seeded
        rng) — the equivalence suites use this to prove interleaving
        independence.
        """
        if len(streams) != len(self.queues):
            raise DetectionError(
                f"{len(streams)} streams offered to a {len(self.queues)}-feed pipeline"
            )
        raised: list[Alarm] = []
        positions = [0] * len(streams)
        remaining = [i for i, stream in enumerate(streams) if stream]
        while remaining:
            # One turn: every unfinished feed once, or the one feed drawn.
            turn = remaining if rng is None else (remaining[rng.randrange(len(remaining))],)
            for feed_id in turn:
                stream = streams[feed_id]
                raised.extend(self.offer(feed_id, stream[positions[feed_id]]))
                positions[feed_id] += 1
                if positions[feed_id] == len(stream):
                    # rebound, not mutated: the turn in progress is unaffected
                    remaining = [i for i in remaining if i != feed_id]
        raised.extend(self.flush())
        return raised


def split_stream(
    messages: Iterable[SequencedUpdate],
    feeds: int,
    *,
    rng: random.Random | None = None,
) -> list[list[SequencedUpdate]]:
    """Partition a sequenced stream across ``feeds`` feeds.

    Each feed receives its slice in sequence order (feeds deliver
    in-order; only the *interleaving across* feeds is arbitrary).
    Assignment is round-robin (``position % feeds``, the slicing
    :meth:`StreamingPipeline.run`'s default order undoes), or random
    per message when ``rng`` is given.
    """
    if feeds < 1:
        raise DetectionError("split_stream needs at least one feed")
    streams: list[list[SequencedUpdate]] = [[] for _ in range(feeds)]
    for position, update in enumerate(messages):
        feed_id = position % feeds if rng is None else rng.randrange(feeds)
        streams[feed_id].append(update)
    return streams
