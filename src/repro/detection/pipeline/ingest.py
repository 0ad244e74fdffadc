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
A :class:`~repro.detection.pipeline.faults.FeedFaultPlan`, empty or not,
arms the pipeline: each feed then runs its faults as a script that turns
every offer into what the feed delivers, and the loop admits those
deliveries as it admits offers — an update the feed lost as a *hole*, a
sequence number the merge skips.  Armed, the pipeline dedupes
redeliveries, dead-letters malformed updates and quarantines a feed that
keeps flapping; it keeps detecting on the surviving monitor coverage
while telemetry (and the optional SLO registry) track the loss.
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Generator, Iterable, Iterator, Sequence
from itertools import chain, cycle, repeat, zip_longest
from operator import itemgetter
from typing import TYPE_CHECKING

from repro.bgp.collectors import MonitorView
from repro.bgp.updates import SequencedUpdate, UpdateMessage
from repro.detection.alarms import Alarm
from repro.detection.pipeline.faults import (
    FeedFault,
    FeedFaultPlan,
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
#: the longest reconnection backoff, in offers
BACKOFF_CAP = 64.0
#: how many of the most recent dropped sequence numbers are kept
DROP_LOG = 1024
#: updates one feed may park before they force a (lossless) pump
PARK_CAPACITY = 4096
#: how many of the most recent malformed updates are kept
DEAD_LETTER_CAP = 256

#: what a feed delivers: an update, or a hole ``(seq, None)`` for one it lost
Delivery = tuple[int, UpdateMessage | None]
Arrival = tuple[int, Delivery]
#: an armed feed's fault script (see :meth:`StreamingPipeline._feed`)
Script = Generator[Sequence[Delivery], SequencedUpdate | None, None]


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

    ``fault_plan`` arms the fault layer (see module docs); an empty
    :class:`FeedFaultPlan` scripts no faults but still dedupes,
    dead-letters and quarantines, which is what a deployment fronting
    real, unreliable feeds would run.
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
        fault_plan: FeedFaultPlan | None = None,
        slos: SLORegistry | None = None,
    ) -> None:
        for name, value in (("feeds", feeds), ("batch", batch), ("capacity", capacity)):
            if value < 1:
                raise DetectionError(f"{name} must be >= 1, got {value}")
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
        self._dropped_ring: deque[int] = deque(maxlen=DROP_LOG)
        self.park_high_water = 0
        # the fault layer: one script per feed, None when disarmed
        self.slos = slos
        self.duplicates = 0
        self.dead_lettered = 0
        self.lost = 0
        self.replay_high_water = 0
        self.quarantined_feeds: list[int] = []
        self._dead_letter_ring: deque[SequencedUpdate] = deque(maxlen=DEAD_LETTER_CAP)
        self._feeds: list[Script] | None = None
        if fault_plan is not None:
            self._feeds = [self._feed(i, fault_plan.faults_for(i)) for i in range(feeds)]
            for feed in self._feeds:
                next(feed)  # run each script to its first offer

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
        if metrics is not None:
            metrics.count(name)

    # -- producing ------------------------------------------------------
    def prime(self, view: MonitorView) -> None:
        self.detector.prime(view)

    def offer(self, feed_id: int, item: SequencedUpdate) -> list[Alarm]:
        """Enqueue one update from ``feed_id`` (what an armed feed
        delivers for it); returns alarms raised if the offer triggered
        a pump (full batch ready, or a blocking drain on overflow)."""
        if self._feeds is None:
            return self._admit_all(((feed_id, item),))
        return self._admit_all(zip(repeat(feed_id), self._feeds[feed_id].send(item)))

    def _admit_all(self, arrivals: Iterable[Arrival]) -> list[Alarm]:
        """The admission loop: skip each hole, dedupe each ``(feed_id,
        update)``, apply its feed's backpressure policy, merge it, and
        pump whenever a batch is ready.  A pump reads only the shared
        ready run and reorder buffer, so the tail and the count stay in
        locals — which is why a feed's script never touches the tail."""
        queues = self.queues
        ready = self._ready
        pending = self._pending
        skipped = self._skipped
        tail = self._tail
        enqueued = self._enqueued
        batch = self.batch
        strict = self._feeds is None
        raised: list[Alarm] = []
        for feed_id, (seq, message) in arrivals:
            if message is None:  # a hole: the feed lost this update
                tail = self._skip(seq, tail)
                continue
            if seq != tail and (seq < tail or seq in pending or seq in skipped):
                if strict:
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
                if metrics is not None:
                    metrics.count("detection.pipeline.parked")
                    metrics.observe("detection.pipeline.park_depth", queue.parked)
                if queue.parked >= PARK_CAPACITY:
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
    def _feed(self, feed_id: int, faults: Sequence[FeedFault]) -> Script:
        """Feed ``feed_id``'s fault script, one generator per armed feed.

        ``send(update)`` is one offer; it returns what the feed delivers
        then: the update, duplicate copies, a reversed storm, an outage's
        replay, nothing, or a hole ``(seq, None)`` for a lost update.
        ``send(None)`` is end of stream: the feed releases the storm, then
        the replay, and the script goes on, so offers after :meth:`flush`
        keep the feed's offer index, fault cursor, disconnect count and
        quarantine.  The script never touches the merge's tail, which the
        admission loop holds in a local while it pulls deliveries.

        Backoff is virtual time, so it is deterministic: each offer while
        the feed is down doubles it, up to :data:`BACKOFF_CAP`.  A fault
        due inside an outage or a storm fires at the first offer after it.
        """
        metrics = self.metrics
        track = metrics is not None
        script = iter(faults)
        due = next(script, None)
        index = -1
        disconnects = outage = storming = 0
        backoff = 1.0
        replay: list[SequencedUpdate] = []
        storm: list[SequencedUpdate] = []
        delivered: Sequence[Delivery] = ()
        while True:
            item = yield delivered
            if item is None:  # end of stream: release what is withheld
                delivered, storm, storming, outage = storm[::-1] + replay, [], 0, 0
                if replay:
                    self._count("detection.pipeline.reconnects")
                    backoff, replay = 1.0, []
                continue
            index += 1
            if is_malformed(item.message):
                self._dead_letter(item)
                delivered = self._hole(item)
                continue
            if not (outage or storming):
                if due is None or due.at > index:
                    delivered = (item,)
                    continue
                fault, due = due, next(script, None)
                self._count(f"detection.pipeline.faults.{fault.mode}")
                if fault.mode == "dup":
                    delivered = (item,) * (1 + fault.burst)
                    continue
                if fault.mode == "corrupt":
                    self._dead_letter(corrupt_update(item))
                    # A recoverable feed retransmits the clean copy at once.
                    delivered = (item,) if fault.recoverable else self._hole(item)
                    continue
                if fault.mode == "gap_storm":
                    storming = fault.span
                else:
                    disconnects += 1
                    if disconnects > QUARANTINE_AFTER:
                        break
                    outage, recoverable = fault.span, fault.recoverable
            if storming:  # withhold a span, then release it in reverse
                storm.append(item)
                storming -= 1
                if storming:
                    delivered = ()
                else:
                    delivered, storm = storm[::-1], []
                continue
            # The feed is down: this offer is a failed reconnection attempt.
            outage -= 1
            backoff = min(backoff * 2.0, BACKOFF_CAP)
            if track:
                metrics.observe("detection.pipeline.backoff", int(backoff))
            if recoverable:
                replay.append(item)
                depth = len(replay)
                self.replay_high_water = max(self.replay_high_water, depth)
                if track:
                    metrics.observe("detection.pipeline.replay_depth", depth)
                if self.slos is not None:
                    self.slos.record("feed-staleness", depth)
                delivered = ()
            else:
                delivered = self._hole(item)
            if not outage:  # back up: the retransmission buffer replays in order
                backoff = 1.0
                self._count("detection.pipeline.reconnects")
                if recoverable:
                    delivered, replay = replay, []
        # One outage too many: the feed is dark for good.
        self.quarantined_feeds.append(feed_id)
        if track:
            metrics.count("detection.pipeline.quarantined")
            metrics.observe("detection.pipeline.coverage_pct", int(self.coverage * 100))
        while True:  # ``item`` is the offer that quarantined it
            item = yield () if item is None else self._hole(item)

    def _hole(self, item: SequencedUpdate) -> tuple[Delivery]:
        """``item`` is lost: counted here, passed over by the merge."""
        self.lost += 1
        self._count("detection.pipeline.lost")
        return ((item.seq, None),)

    def _dead_letter(self, item: SequencedUpdate) -> None:
        self._dead_letter_ring.append(item)
        self.dead_lettered += 1
        self._count("detection.pipeline.dead_lettered")

    # -- draining -------------------------------------------------------
    def _collect(self) -> None:
        """The queues drain into the merge: fold the depths their
        admitted updates saw (1, 2, … per queue) into ``queue_depth``."""
        metrics = self.metrics
        track = metrics is not None
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
        if metrics is not None:
            metrics.observe(
                "detection.pipeline.reorder_depth", len(self._ready) + len(self._pending)
            )
        return self._process(self._ready)

    def flush(self) -> list[Alarm]:
        """End of stream: release what armed feeds still withhold, then
        process everything buffered, skipping sequence gaps (lost
        updates) in order."""
        feeds = enumerate(self._feeds or ())
        raised = self._admit_all((i, d) for i, feed in feeds for d in feed.send(None))
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
        that order: one admission loop takes every arrival, or what its
        feed delivers for it when armed.
        """
        if len(streams) != len(self.queues):
            raise DetectionError(
                f"{len(streams)} streams offered to a {len(self.queues)}-feed pipeline"
            )
        arrivals: Iterable[Arrival] = _turns(streams, rng)
        if self._feeds is not None:
            sends = [feed.send for feed in self._feeds]
            arrivals = ((i, d) for i, item in arrivals for d in sends[i](item))
        raised = self._admit_all(arrivals)
        raised.extend(self.flush())
        return raised


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
    the stream itself, not a copy, and a slice of a
    :class:`~repro.bgp.updates.StampedStream` copies message references,
    not tuples), or random per message when ``rng`` is given.
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
