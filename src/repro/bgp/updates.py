"""Update-stream (churn) simulation.

The paper's measurement section contrasts what monitors see in stable
routing *tables* with what shows up in *update* files: transient
events expose backup routes, which carry heavier prepending (operators
pad backup announcements so they are only used during failures).  We
reproduce that mechanism: a churn event takes a converged world, fails
one of the origin's provider/peer links, re-converges, and records each
monitor route that changed — those changed routes are the "update
messages" the characterisation of Figures 5-6 consumes.  A failed link
is the ``failed_links=`` pair of one ``propagate`` call on the caller's
engine, never a copy of the graph: every event re-converges, as a
column of the wave kernel, on the one compiled topology.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import repeat
from operator import eq
from typing import TYPE_CHECKING, NamedTuple, overload

from repro.bgp.engine import PropagationEngine
from repro.bgp.prepending import PrependingPolicy
from repro.exceptions import SimulationError

if TYPE_CHECKING:  # pragma: no cover - collectors builds UpdateMessages
    from repro.bgp.collectors import RouteCollector

__all__ = [
    "UpdateMessage",
    "SequencedUpdate",
    "StampedStream",
    "simulate_update_stream",
    "stamp",
]


@dataclass(frozen=True, slots=True)
class UpdateMessage:
    """One simulated BGP update observed at a monitor."""

    monitor: int
    prefix: str
    path: tuple[int, ...]
    withdrawn: bool = False


class SequencedUpdate(NamedTuple):
    """An update stamped with its position in the global stream.

    Real collector feeds carry per-message timestamps; the simulation's
    equivalent is a dense sequence number assigned when the stream is
    synthesized.  A multi-feed pipeline that receives disjoint slices
    of one stream merges them back into sequence order, which is what
    makes its alarms independent of the feed interleaving (see
    :class:`repro.detection.pipeline.StreamingPipeline`).  A stamped
    stream does not hold these: a :class:`StampedStream` builds one
    each time a position is read, and it lives as long as its reader
    keeps it.
    """

    seq: int
    message: UpdateMessage


class StampedStream(Sequence[SequencedUpdate]):
    """A read-only sequence of :class:`SequencedUpdate`, held as a
    ``range`` of sequence numbers beside one list of messages.

    A stamp is a position, so the stream keeps no tuple per update:
    reading position *i* builds ``SequencedUpdate(seqs[i],
    messages[i])``, iteration builds them one at a time, and a slice is
    another stream over a sliced range and a sliced list (references,
    not tuples).  It equals any sequence holding the same updates in
    the same order, and like a list it is unhashable.
    """

    __slots__ = ("_seqs", "_messages")

    def __init__(self, seqs: range, messages: list[UpdateMessage]) -> None:
        if len(seqs) != len(messages):
            raise ValueError(f"{len(seqs)} sequence numbers for {len(messages)} messages")
        self._seqs = seqs
        self._messages = messages

    def __len__(self) -> int:
        return len(self._messages)

    @overload
    def __getitem__(self, index: int) -> SequencedUpdate: ...

    @overload
    def __getitem__(self, index: slice) -> StampedStream: ...

    def __getitem__(self, index: int | slice) -> SequencedUpdate | StampedStream:
        if isinstance(index, slice):
            return StampedStream(self._seqs[index], self._messages[index])
        return tuple.__new__(SequencedUpdate, (self._seqs[index], self._messages[index]))

    def __iter__(self) -> Iterator[SequencedUpdate]:
        return map(tuple.__new__, repeat(SequencedUpdate), zip(self._seqs, self._messages))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    # equal to lists, so unhashable like them
    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"StampedStream({self._seqs!r}, <{len(self)} messages>)"

    def plain(self) -> list[UpdateMessage]:
        """The messages without their stamps (a new list)."""
        return self._messages.copy()


def stamp(messages: Iterable[UpdateMessage], first_seq: int = 0) -> StampedStream:
    """``messages`` stamped with dense sequence numbers from ``first_seq``.

    Equal to ``[SequencedUpdate(seq, m) for seq, m in enumerate(messages,
    first_seq)]``, but held as a :class:`StampedStream`: a list argument
    becomes the stream's one message list (not a copy, so the caller
    hands it over), any other iterable is read into one.
    """
    held = messages if type(messages) is list else list(messages)
    return StampedStream(range(first_seq, first_seq + len(held)), held)


def simulate_update_stream(
    engine: PropagationEngine,
    origin: int,
    monitors: RouteCollector,
    *,
    prefix: str,
    prepending: PrependingPolicy | None = None,
    events: int = 3,
    rng: random.Random,
) -> list[UpdateMessage]:
    """Simulate ``events`` failure/recovery churn events for one prefix.

    Each event fails one randomly chosen link adjacent to the origin
    (its primary egress candidates), re-runs propagation on ``engine``
    with that link down, and records the new best route of every
    monitor whose route changed.  The link is restored before the next
    event, and the recovery announcements (back to the baseline routes)
    are recorded too — real update files contain both directions of a
    flap.
    """
    if events < 0:
        raise SimulationError("events must be non-negative")
    neighbors = sorted(engine.graph.neighbors_of(origin))
    if not neighbors:
        raise SimulationError(f"origin AS{origin} has no neighbours to fail")

    baseline = engine.propagate(origin, prefix=prefix, prepending=prepending)
    baseline_view = monitors.snapshot(baseline)

    messages: list[UpdateMessage] = []
    for _ in range(events):
        failed = rng.choice(neighbors)
        outcome = engine.propagate(
            origin,
            prefix=prefix,
            prepending=prepending,
            failed_links=((origin, failed),),
        )
        degraded_view = monitors.snapshot(outcome)
        for failure, recovery in zip(
            degraded_view.updates_since(baseline_view),
            baseline_view.updates_since(degraded_view),
        ):
            messages.append(failure)
            # Recovery: the flap's second half re-announces the baseline.
            if not recovery.withdrawn:
                messages.append(recovery)
    return messages
