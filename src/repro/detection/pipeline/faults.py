"""Deterministic fault injection for multi-feed ingestion.

Recovery code that only runs when something happens to break is
recovery code that never runs in CI.  This module makes each of the
streaming pipeline's failure modes — feed outages, duplicate bursts,
malformed updates, and gap storms that overrun the reorder buffer —
*schedulable*.

A :class:`FeedFaultPlan` maps feed ids to scripted :class:`FeedFault`
events keyed by the feed's **local offer index** (how many updates that
feed has delivered so far).  Because each feed's slice arrives in
stream order no matter how the feeds interleave, the same plan fires
the same faults at the same points of every run — which is what lets
the chaos suite assert that alarms under a *recoverable* plan are
bit-identical to the fault-free run.

Fault modes:

``outage``
    The feed disconnects for ``span`` offers.  Recoverable outages
    buffer the missed updates on the producer side and replay them in
    order once the feed reconnects (bounded exponential backoff ticks
    while it is down); unrecoverable outages lose the updates — their
    sequence numbers are marked skipped so the merge never stalls.

``dup``
    The update at the trigger index is delivered ``burst`` extra
    times.  The tolerant pipeline dedupes redeliveries instead of
    raising, so duplicates are always recoverable.

``corrupt``
    A mangled copy of the update (see :func:`corrupt_update`) arrives
    first and lands in the dead-letter buffer.  Recoverable corruption
    is followed by the clean retransmission; unrecoverable corruption
    never retransmits — the sequence number is skipped.

``gap_storm``
    ``span`` consecutive updates are withheld and then delivered in
    *reverse* order — an in-feed reordering beyond anything the normal
    contract allows.  The sequence merge absorbs it, so gap storms are
    always recoverable.
"""

from __future__ import annotations

import random
import sys
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

from repro.bgp.updates import SequencedUpdate, UpdateMessage

__all__ = [
    "FEED_FAULT_MODES",
    "FeedFault",
    "FeedFaultPlan",
    "FeedFaultState",
    "corrupt_update",
    "is_malformed",
]

FEED_FAULT_MODES = ("outage", "dup", "corrupt", "gap_storm")

#: Modes that are recoverable by construction (no update is ever lost),
#: regardless of the ``recoverable`` flag on the spec.
_ALWAYS_RECOVERABLE = frozenset({"dup", "gap_storm"})


def is_malformed(message: UpdateMessage) -> bool:
    """Cheap structural validation for one update.

    A well-formed update names a CIDR prefix and carries only positive
    AS numbers.  The check is deliberately O(path) with C-speed
    primitives — it sits on the ingestion hot path when fault tolerance
    is enabled.
    """
    if "/" not in message.prefix:
        return True
    path = message.path
    return bool(path) and min(path) <= 0


def corrupt_update(item: SequencedUpdate) -> SequencedUpdate:
    """A deterministically mangled copy of ``item``.

    The corruption trips both :func:`is_malformed` checks (prefix loses
    its mask separator, the first path hop goes negative) so validation
    cannot miss it whichever field a consumer inspects first.
    """
    message = item.message
    path = message.path
    bad_path = (-path[0],) + path[1:] if path else path
    return SequencedUpdate(
        seq=item.seq,
        message=UpdateMessage(
            monitor=message.monitor,
            prefix=message.prefix.replace("/", "|"),
            path=bad_path,
            withdrawn=message.withdrawn,
        ),
    )


@dataclass(frozen=True)
class FeedFault:
    """One scripted feed fault, anchored at a feed-local offer index."""

    mode: str
    #: feed-local offer index (0-based) at which the fault triggers
    at: int
    #: outage length / gap-storm width, in offers
    span: int = 4
    #: extra deliveries for ``dup`` faults
    burst: int = 2
    #: recoverable faults never lose an update; unrecoverable ones do
    #: (and the pipeline must degrade gracefully instead of raising)
    recoverable: bool = True

    def __post_init__(self) -> None:
        if self.mode not in FEED_FAULT_MODES:
            raise ValueError(
                f"unknown feed fault mode {self.mode!r}; "
                f"expected one of {FEED_FAULT_MODES}"
            )
        if self.at < 0:
            raise ValueError("fault index must be >= 0")
        if self.span < 1:
            raise ValueError("fault span must be >= 1")
        if self.burst < 1:
            raise ValueError("dup burst must be >= 1")
        if self.mode in _ALWAYS_RECOVERABLE and not self.recoverable:
            object.__setattr__(self, "recoverable", True)


@dataclass(frozen=True)
class FeedFaultPlan:
    """An immutable schedule of feed faults, keyed by feed id."""

    rules: Mapping[int, tuple[FeedFault, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        cleaned: dict[int, tuple[FeedFault, ...]] = {}
        for feed_id, faults in dict(self.rules).items():
            ordered = tuple(sorted(faults, key=lambda fault: fault.at))
            for first, second in zip(ordered, ordered[1:]):
                if second.at <= first.at:
                    raise ValueError(
                        f"feed {feed_id} schedules two faults at index {first.at}"
                    )
            if ordered:
                cleaned[int(feed_id)] = ordered
        object.__setattr__(self, "rules", cleaned)

    def __len__(self) -> int:
        return sum(len(faults) for faults in self.rules.values())

    def __bool__(self) -> bool:
        return bool(self.rules)

    def faults_for(self, feed_id: int) -> tuple[FeedFault, ...]:
        return self.rules.get(feed_id, ())

    def is_recoverable(self) -> bool:
        """True when no scheduled fault can lose an update."""
        return all(
            fault.recoverable
            for faults in self.rules.values()
            for fault in faults
        )

    @classmethod
    def seeded(
        cls,
        feeds: int,
        *,
        seed: int,
        rate: float = 0.5,
        modes: Sequence[str] = FEED_FAULT_MODES,
        horizon: int = 256,
        max_faults_per_feed: int = 2,
        max_span: int = 6,
        max_burst: int = 3,
        recoverable: bool = True,
    ) -> "FeedFaultPlan":
        """Draw a reproducible plan over ``feeds`` feed ids.

        Each feed independently faults with probability ``rate``; a
        faulty feed gets 1..``max_faults_per_feed`` faults at distinct
        offer indices inside ``[0, horizon)``, spaced so their spans
        never overlap.  The draw depends only on the arguments, never
        on scheduling.  With ``recoverable=False`` the outage/corrupt
        faults become lossy — use that to exercise graceful
        degradation, not bit-identity.
        """
        for mode in modes:
            if mode not in FEED_FAULT_MODES:
                raise ValueError(f"unknown feed fault mode {mode!r}")
        if feeds < 1:
            raise ValueError("a fault plan needs at least one feed")
        rng = random.Random(seed)
        rules: dict[int, tuple[FeedFault, ...]] = {}
        for feed_id in range(feeds):
            if rng.random() >= rate:
                continue
            count = rng.randint(1, max(1, max_faults_per_feed))
            faults: list[FeedFault] = []
            cursor = rng.randrange(max(1, horizon // 4))
            for _ in range(count):
                if cursor >= horizon:
                    break
                mode = modes[rng.randrange(len(modes))]
                span = rng.randint(1, max(1, max_span))
                faults.append(
                    FeedFault(
                        mode=mode,
                        at=cursor,
                        span=span,
                        burst=rng.randint(1, max(1, max_burst)),
                        recoverable=recoverable,
                    )
                )
                cursor += span + 1 + rng.randrange(max(1, horizon // 4))
            if faults:
                rules[feed_id] = tuple(faults)
        return cls(rules)


#: the longest reconnection backoff, in offers
BACKOFF_CAP = 64.0


class FeedFaultState:
    """Mutable per-feed runtime bookkeeping for one pipeline run.

    The state machine a fault-tolerant pipeline keeps per feed: the
    script cursor, the producer-side replay buffer of a recoverable
    outage, the gap-storm withholding buffer, the disconnect count and
    the quarantine flag.  Backoff is *virtual time*: each offer that
    arrives while the feed is down counts as one failed reconnection
    attempt, doubling the backoff up to :data:`BACKOFF_CAP` —
    deterministic, wall-clock-free, and observable through the backoff
    histogram.  Between faults the feed is quiet (:meth:`passes`).
    """

    __slots__ = (
        "feed_id",
        "faults",
        "fault_index",
        "offers",
        "quiet_until",
        "outage_remaining",
        "outage_recoverable",
        "replay",
        "storm",
        "storm_remaining",
        "backoff",
        "disconnects",
        "quarantined",
    )

    def __init__(self, feed_id: int, faults: Iterable[FeedFault]) -> None:
        self.feed_id = feed_id
        self.faults = tuple(faults)
        self.fault_index = 0
        self.offers = 0
        self.outage_remaining = 0
        self.outage_recoverable = True
        self.replay: list[SequencedUpdate] = []
        self.storm: list[SequencedUpdate] = []
        self.storm_remaining = 0
        self.backoff = 1.0
        self.disconnects = 0
        self.quarantined = False
        self.settle()

    def settle(self) -> None:
        """Recompute ``quiet_until``, the offer index before which the
        feed needs no state machine (0 while down, storming or
        quarantined)."""
        if self.quarantined or self.outage_remaining or self.storm_remaining:
            self.quiet_until = 0
        elif self.fault_index < len(self.faults):
            self.quiet_until = self.faults[self.fault_index].at
        else:
            self.quiet_until = sys.maxsize

    def passes(self, message: UpdateMessage) -> bool:
        """True — and counted as this feed's offer — when no fault is
        due, nothing is withheld and ``message`` is well formed, so the
        update may go straight to admission."""
        if self.offers < self.quiet_until and not is_malformed(message):
            self.offers += 1
            return True
        return False

    def next_fault(self) -> FeedFault | None:
        """The fault due at the current offer index, if any.

        Catch-up semantics: a fault whose index fell inside a previous
        fault's outage or storm window fires at the first opportunity
        after it, so a manual plan with overlapping windows still
        consumes every scripted fault.
        """
        if self.fault_index >= len(self.faults):
            return None
        fault = self.faults[self.fault_index]
        if fault.at > self.offers:
            return None
        self.fault_index += 1
        return fault

    def tick_backoff(self) -> float:
        """One failed reconnection attempt; returns the new backoff."""
        self.backoff = min(self.backoff * 2.0, BACKOFF_CAP)
        return self.backoff
