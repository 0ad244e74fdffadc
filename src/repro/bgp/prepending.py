"""Per-neighbour AS-path prepending schedules.

An AS's prepending configuration is a map from (sender, receiver) to
the *total* number of copies of the sender's ASN inserted when the
sender announces to that receiver (1 = no prepending).  This captures
both flavours the paper describes:

* **source prepending** — the prefix owner pads its origination,
  possibly differently per neighbour (Figure 3: ``[V V]`` to one
  neighbour, ``[V V V]`` to another, to steer inbound traffic);
* **intermediary prepending** — a transit AS pads routes it forwards.
"""

from __future__ import annotations

from repro.exceptions import PolicyError

__all__ = ["PrependingPolicy"]


class PrependingPolicy:
    """Mutable map of per-neighbour prepending counts.

    Lookups fall back per-sender (uniform padding towards all
    neighbours) and then to 1 (no prepending).
    """

    def __init__(self) -> None:
        self._per_link: dict[tuple[int, int], int] = {}
        self._per_sender: dict[int, int] = {}

    @staticmethod
    def _check_count(count: int) -> None:
        if not isinstance(count, int) or count < 1:
            raise PolicyError(f"prepending count must be an integer >= 1, got {count!r}")

    def set_padding(self, sender: int, receiver: int, count: int) -> None:
        """Pad announcements from ``sender`` to ``receiver`` with ``count`` copies."""
        self._check_count(count)
        self._per_link[(sender, receiver)] = count

    def set_uniform(self, sender: int, count: int) -> None:
        """Pad every announcement from ``sender`` with ``count`` copies."""
        self._check_count(count)
        self._per_sender[sender] = count

    def padding(self, sender: int, receiver: int) -> int:
        """Number of copies of ``sender`` inserted towards ``receiver``."""
        per_link = self._per_link.get((sender, receiver))
        if per_link is not None:
            return per_link
        return self._per_sender.get(sender, 1)

    def senders(self) -> frozenset[int]:
        """All ASes with a non-default prepending configuration."""
        return frozenset(self._per_sender) | frozenset(s for s, _ in self._per_link)

    def fingerprint(self) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int, int], ...]]:
        """A hashable canonical form of the schedule.

        Two policies that pad every link identically produce the same
        fingerprint (entries that merely restate the no-prepending
        default, or a per-link entry equal to its sender's uniform
        setting, are dropped).  This is the cache key the sweep runner's
        baseline memoisation is built on.
        """
        per_sender = tuple(
            sorted((s, c) for s, c in self._per_sender.items() if c != 1)
        )
        per_link = tuple(
            sorted(
                (s, r, c)
                for (s, r), c in self._per_link.items()
                if c != self._per_sender.get(s, 1)
            )
        )
        return per_sender, per_link

    def copy(self) -> "PrependingPolicy":
        clone = PrependingPolicy()
        clone._per_link = dict(self._per_link)
        clone._per_sender = dict(self._per_sender)
        return clone

    @classmethod
    def uniform_origin(cls, origin: int, count: int) -> "PrependingPolicy":
        """Convenience: a policy where only ``origin`` pads, uniformly."""
        policy = cls()
        policy.set_uniform(origin, count)
        return policy

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PrependingPolicy(uniform={len(self._per_sender)}, "
            f"per_link={len(self._per_link)})"
        )
