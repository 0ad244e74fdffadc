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
  size and interleaving.  The merge keeps a *ready run*, the messages
  of consecutive sequence numbers up to a tail: an update numbered at
  the tail extends it with no dict or set traffic, and only one that
  arrives past a gap waits in a reorder buffer;
* the detector is invoked through
  :meth:`~repro.detection.streaming.StreamingDetector.consume_all`
  in batches of up to ``batch`` messages.

``offer`` and :meth:`StreamingPipeline.run` share one admission loop.
Fault tolerance is opt-in via a
:class:`~repro.detection.pipeline.faults.FeedFaultPlan` (or bare
``tolerant=True``): feeds then survive scripted outages with bounded
exponential-backoff reconnection and in-order replay, duplicate
deliveries are deduplicated instead of raising, malformed updates land
in a bounded dead-letter buffer, and a feed that keeps flapping is
quarantined — the pipeline keeps detecting on the surviving monitor
coverage while telemetry (and the optional SLO registry) track the
loss.  A feed between faults is quiet: its updates pay one predicate
and go straight to admission.
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, cycle, repeat, zip_longest
from operator import itemgetter
from typing import TYPE_CHECKING

from repro.bgp.collectors import MonitorView
from repro.bgp.updates import SequencedUpdate, UpdateMessage
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

#: outages a feed survives; the next one quarantines it
QUARANTINE_AFTER = 3

Arrival = tuple[int, SequencedUpdate]


class FeedQueue:
    """One feed's bounded inbox as counts since the last pump: admitted
    (``depth``) and parked (``parked``); the updates wait at the merge."""

    __slots__ = ("feed_id", "capacity", "depth", "parked")

    def __init__(self, feed_id: int, capacity: int) -> None:
        self.feed_id = feed_id
        self.capacity = capacity
        self.depth = 0
        self.parked = 0


class StreamingPipeline:
    """N bounded feed queues in front of one :class:`StreamingDetector`.

    Contract: the sequence numbers offered across all feeds are a
    (subset of a) dense range starting at 0, each feed's slice arriving
    in increasing order.  ``offer`` enqueues one update;
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
        metrics: RunMetrics | None = None,
        drop_log: int = 1024,
        park_capacity: int = 4096,
        fault_plan: FeedFaultPlan | None = None,
        tolerant: bool = False,
        dead_letter_cap: int = 256,
        slos: SLORegistry | None = None,
    ) -> None:
        for name, value, least in (
            ("feeds", feeds, 1),
            ("batch", batch, 1),
            ("capacity", capacity, 1),
            ("drop_log", drop_log, 1),
            ("park_capacity", park_capacity, 1),
            ("dead_letter_cap", dead_letter_cap, 0),
        ):
            if value < least:
                raise DetectionError(f"{name} must be >= {least}, got {value}")
        if policy not in BACKPRESSURE_POLICIES:
            raise DetectionError(
                f"unknown backpressure policy {policy!r}; "
                f"expected one of {BACKPRESSURE_POLICIES}"
            )
        self.detector = detector
        self.batch = batch
        self.policy = policy
        self.metrics = metrics
        self.queues = [FeedQueue(i, capacity) for i in range(feeds)]
        self.alarms: list[Alarm] = []
        # The merge: ``_ready`` holds the unprocessed messages numbered
        # below ``_tail`` in order, ``_pending`` those that arrived past
        # a gap, ``_skipped`` the numbers past the tail known lost.
        self._ready: list[UpdateMessage] = []
        self._tail = 0
        self._pending: dict[int, UpdateMessage] = {}
        self._skipped: set[int] = set()
        #: updates admitted (not parked) since the last pump
        self._enqueued = 0
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
        # fault-tolerance layer (None == no fault code runs at all)
        self.slos = slos
        self.tolerant = tolerant or fault_plan is not None
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

    def _count(self, name: str) -> None:
        metrics = self.metrics
        if metrics is not None and metrics.enabled:
            metrics.count(name)

    # -- producing ------------------------------------------------------
    def prime(self, view: MonitorView) -> None:
        self.detector.prime(view)

    def offer(self, feed_id: int, item: SequencedUpdate) -> list[Alarm]:
        """Enqueue one update from ``feed_id``; returns alarms raised if
        the offer triggered a pump (full batch ready, or a blocking
        drain on overflow)."""
        states = self._fault_states
        if states is not None and not states[feed_id].passes(item.message):
            return self._offer_tolerant(feed_id, item)
        return self._admit_all(((feed_id, item),))

    def _admit_all(self, arrivals: Iterable[Arrival]) -> list[Alarm]:
        """The admission loop: dedupe each ``(feed_id, update)``, apply
        its feed's backpressure policy, merge it, and pump whenever a
        batch is ready.  A pump reads only the shared ready run and
        reorder buffer, so the tail and the count stay in locals."""
        queues = self.queues
        ready = self._ready
        pending = self._pending
        skipped = self._skipped
        tail = self._tail
        enqueued = self._enqueued
        batch = self.batch
        raised: list[Alarm] = []
        for feed_id, (seq, message) in arrivals:
            if seq != tail and (seq < tail or seq in pending or seq in skipped):
                if not self.tolerant:
                    self._tail, self._enqueued = tail, enqueued
                    raise DetectionError(
                        f"feed {feed_id} delivered sequence {seq} twice "
                        f"(next expected {tail})"
                    )
                # Redelivery (feed retransmission or injected duplicate
                # burst): dedupe and move on instead of tearing down.
                self.duplicates += 1
                self._count("detection.pipeline.duplicates")
                continue
            queue = queues[feed_id]
            overflow = queue.depth >= queue.capacity
            if overflow:
                if self.policy == "drop":
                    self.dropped += 1
                    self._dropped_ring.append(seq)
                    self._count("detection.pipeline.dropped")
                    tail = self._skip(seq, tail)
                    continue
                if self.policy == "block":
                    # The producer stalls while the pipeline drains.
                    self.blocked += 1
                    self._count("detection.pipeline.blocked")
                    raised.extend(self.pump())
                    enqueued = 0
                    overflow = False
            if seq == tail:
                ready.append(message)
                tail += 1
                if pending or skipped:
                    tail = self._advance(tail)
            else:
                pending[seq] = message
            if overflow:  # parked
                self.parked += 1
                queue.parked += 1
                if queue.parked > self.park_high_water:
                    self.park_high_water = queue.parked
                metrics = self.metrics
                if metrics is not None and metrics.enabled:
                    metrics.count("detection.pipeline.parked")
                    metrics.observe("detection.pipeline.park_depth", queue.parked)
                if queue.parked >= self.park_capacity:
                    # The side buffer is full: force a lossless drain
                    # instead of growing without bound.
                    raised.extend(self.pump())
                    enqueued = 0
                continue
            queue.depth += 1
            enqueued += 1
            if enqueued >= batch:
                raised.extend(self.pump())
                enqueued = 0
        self._tail = tail
        self._enqueued = enqueued
        return raised

    def _advance(self, tail: int) -> int:
        """Extend the ready run from ``tail`` over lost numbers and
        updates that waited behind a gap; returns the new tail."""
        while True:
            if tail in self._skipped:
                self._skipped.remove(tail)
            elif tail in self._pending:
                self._ready.append(self._pending.pop(tail))
            else:
                return tail
            tail += 1

    def _skip(self, seq: int, tail: int) -> int:
        """Mark ``seq`` lost, so the merge passes over it instead of
        waiting; returns the new tail."""
        if seq == tail:
            return self._advance(tail + 1)
        if seq > tail and seq not in self._pending:
            self._skipped.add(seq)
        return tail

    # -- fault tolerance ------------------------------------------------
    def _lose(self, item: SequencedUpdate) -> None:
        """Record one update as permanently lost (graceful: the merge
        skips its sequence number instead of stalling)."""
        self._tail = self._skip(item.seq, self._tail)
        self.lost += 1
        self._count("detection.pipeline.lost")

    def _dead_letter(self, item: SequencedUpdate, *, lost: bool) -> None:
        self._dead_letter_ring.append(item)
        self.dead_lettered += 1
        self._count("detection.pipeline.dead_lettered")
        if lost:
            self._lose(item)

    def _reconnect(self, state: FeedFaultState) -> list[SequencedUpdate]:
        """Feed back up: its retransmission buffer replays in order."""
        state.backoff = 1.0
        self._count("detection.pipeline.reconnects")
        released, state.replay = state.replay, []
        return released

    def _outage_tick(
        self, state: FeedFaultState, item: SequencedUpdate
    ) -> Sequence[SequencedUpdate]:
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
        return ()

    def _offer_tolerant(self, feed_id: int, item: SequencedUpdate) -> list[Alarm]:
        """One offer through the fault layer's state machine — complete
        on its own, a quiet feed's update is released as is — then the
        admission of whatever the feed releases."""
        state = self._fault_states[feed_id]
        released: Sequence[SequencedUpdate] = ()
        if state.quarantined:
            self._lose(item)
        elif is_malformed(item.message):
            self._dead_letter(item, lost=True)
        elif state.outage_remaining > 0:
            released = self._outage_tick(state, item)
        elif state.storm_remaining > 0:
            state.storm.append(item)
            state.storm_remaining -= 1
            if state.storm_remaining == 0:
                released = state.storm[::-1]
                state.storm.clear()
        else:
            released = self._fire(state, item)
        state.offers += 1
        state.settle()
        return self._admit_all(zip(repeat(feed_id), released))

    def _fire(self, state: FeedFaultState, item: SequencedUpdate) -> Sequence[SequencedUpdate]:
        """The fault due at this offer, if any, applied to ``item``;
        returns what the feed delivers now."""
        fault = state.next_fault()
        if fault is None:
            return (item,)
        self._count(f"detection.pipeline.faults.{fault.mode}")
        if fault.mode == "outage":
            state.disconnects += 1
            if state.disconnects > QUARANTINE_AFTER:
                # A new outage: nothing is left to replay.
                state.quarantined = True
                self.quarantined_feeds.append(state.feed_id)
                metrics = self.metrics
                if metrics is not None and metrics.enabled:
                    metrics.count("detection.pipeline.quarantined")
                    metrics.observe(
                        "detection.pipeline.coverage_pct", int(self.coverage * 100)
                    )
                self._lose(item)
                return ()
            state.outage_remaining = fault.span
            state.outage_recoverable = fault.recoverable
            return self._outage_tick(state, item)
        if fault.mode == "dup":
            return (item,) * (1 + fault.burst)
        if fault.mode == "corrupt":
            self._dead_letter(corrupt_update(item), lost=not fault.recoverable)
            # A recoverable feed retransmits the clean copy immediately.
            return (item,) if fault.recoverable else ()
        # gap_storm: withhold a span and release it in reverse.
        if fault.span == 1:
            return (item,)
        state.storm.append(item)
        state.storm_remaining = fault.span - 1
        return ()

    def _drain_fault_buffers(self) -> list[Alarm]:
        """End of stream: whatever the fault layer still withholds
        (unfinished gap storms, then outage replay) is delivered now."""
        raised: list[Alarm] = []
        for state in self._fault_states or ():
            released = state.storm[::-1]
            state.storm.clear()
            state.storm_remaining = 0
            if state.outage_remaining > 0:
                state.outage_remaining = 0
                if state.replay:
                    released += self._reconnect(state)
            state.settle()
            raised.extend(self._admit_all(zip(repeat(state.feed_id), released)))
        return raised

    # -- draining -------------------------------------------------------
    def _collect(self) -> None:
        """The queues drain into the merge: fold the depths their
        admitted updates saw (1, 2, … per queue) into ``queue_depth``."""
        metrics = self.metrics
        track = metrics is not None and metrics.enabled
        for queue in self.queues:
            if track and queue.depth:
                metrics.observe_many(
                    "detection.pipeline.queue_depth", range(1, queue.depth + 1)
                )
            queue.depth = queue.parked = 0
        self._enqueued = 0

    def _process(self, run: list[UpdateMessage]) -> list[Alarm]:
        """Hand ``run`` to the detector in batches, then empty it."""
        raised: list[Alarm] = []
        batch = self.batch
        consume_all = self.detector.consume_all
        for start in range(0, len(run), batch):
            raised.extend(consume_all(run[start : start + batch]))
        self.processed += len(run)
        run.clear()
        self.alarms.extend(raised)
        return raised

    def pump(self) -> list[Alarm]:
        """Drain the queues through the merge point and the detector."""
        self._collect()
        metrics = self.metrics
        if metrics is not None and metrics.enabled:
            metrics.observe(
                "detection.pipeline.reorder_depth", len(self._ready) + len(self._pending)
            )
        return self._process(self._ready)

    def flush(self) -> list[Alarm]:
        """End of stream: process everything still buffered, skipping
        sequence gaps (lost updates) in order."""
        raised = self._drain_fault_buffers()
        self._collect()
        raised.extend(self._process(self._ready))
        if self._pending:
            # Whatever remains is stranded behind gaps nobody will fill:
            # process it in sequence order.
            order = sorted(self._pending)
            leftovers = [self._pending[seq] for seq in order]
            self._pending.clear()
            self._skipped.clear()
            self._tail = order[-1] + 1
            raised.extend(self._process(leftovers))
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
        independence.  The result is that of :meth:`offer` called in
        that order; quiet stretches are admitted by one loop each.
        """
        if len(streams) != len(self.queues):
            raise DetectionError(
                f"{len(streams)} streams offered to a {len(self.queues)}-feed pipeline"
            )
        arrivals = _turns(streams, rng)
        if self._fault_states is None:
            raised = self._admit_all(arrivals)
        else:
            raised = []
            held: list[Arrival] = []
            while True:
                raised.extend(self._admit_all(self._quiet(arrivals, held)))
                if not held:
                    break
                raised.extend(self._offer_tolerant(*held.pop()))
        raised.extend(self.flush())
        return raised

    def _quiet(self, arrivals: Iterator[Arrival], held: list[Arrival]) -> Iterator[Arrival]:
        """``arrivals`` while each one's feed is quiet; the first that
        is not goes to ``held`` and ends the stretch."""
        states = self._fault_states
        for arrival in arrivals:
            if not states[arrival[0]].passes(arrival[1].message):
                held.append(arrival)
                return
            yield arrival


def _turns(
    streams: Sequence[Sequence[SequencedUpdate]], rng: random.Random | None
) -> Iterator[Arrival]:
    """:meth:`StreamingPipeline.run`'s arrivals, in order."""
    if rng is None:
        # Slot p * feeds + f holds feed f's position p, None once the
        # feed has ended (an update is a non-empty tuple, so true).
        slots = zip(cycle(range(len(streams))), chain.from_iterable(zip_longest(*streams)))
        return filter(itemgetter(1), slots)
    return _drawn_turns(streams, rng)


def _drawn_turns(
    streams: Sequence[Sequence[SequencedUpdate]], rng: random.Random
) -> Iterator[Arrival]:
    positions = [0] * len(streams)
    remaining = [i for i, stream in enumerate(streams) if stream]
    while remaining:
        feed_id = remaining[rng.randrange(len(remaining))]
        position = positions[feed_id]
        yield feed_id, streams[feed_id][position]
        positions[feed_id] = position + 1
        if position + 1 == len(streams[feed_id]):
            remaining.remove(feed_id)


def split_stream(
    messages: Iterable[SequencedUpdate],
    feeds: int,
    *,
    rng: random.Random | None = None,
) -> list[Sequence[SequencedUpdate]]:
    """Partition a sequenced stream across ``feeds`` feeds.

    Each feed receives its slice in sequence order (feeds deliver
    in-order; only the *interleaving across* feeds is arbitrary).
    Assignment is round-robin (``position % feeds``, the slicing
    :meth:`StreamingPipeline.run`'s default order undoes; one feed gets
    the stream itself, not a copy), or random per message when ``rng``
    is given.
    """
    if feeds < 1:
        raise DetectionError("split_stream needs at least one feed")
    if rng is None:
        stream = messages if isinstance(messages, Sequence) else list(messages)
        return [stream] if feeds == 1 else [stream[i::feeds] for i in range(feeds)]
    streams: list[list[SequencedUpdate]] = [[] for _ in range(feeds)]
    for update in messages:
        streams[rng.randrange(feeds)].append(update)
    return streams
