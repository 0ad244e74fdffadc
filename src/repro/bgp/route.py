"""Route records held in a simulated BGP RIB."""

from __future__ import annotations

from dataclasses import dataclass

from repro.topology.relationships import PrefClass

__all__ = ["Route", "DEFAULT_PREFIX"]

#: Prefix used when an experiment only simulates a single destination.
DEFAULT_PREFIX = "203.0.113.0/24"


@dataclass(frozen=True, slots=True)
class Route:
    """A route to ``prefix`` as installed at some AS.

    ``path`` is the AS-PATH exactly as received (the neighbour's ASN,
    possibly repeated by prepending, comes first; the origin's padded
    run comes last).  The prefix owner's own route has an empty path.

    ``learned_from`` is the neighbour ASN the route was learned from
    (``None`` for a self-originated route) and ``pref`` the
    local-preference class that neighbour relationship implies.
    """

    prefix: str
    path: tuple[int, ...]
    learned_from: int | None
    pref: PrefClass

    @property
    def length(self) -> int:
        """AS-PATH length, the tie-breaking metric after local-pref."""
        return len(self.path)

    @property
    def origin(self) -> int | None:
        """Origin AS of the path (``None`` for a self-originated route)."""
        return self.path[-1] if self.path else None

    def __str__(self) -> str:
        path_text = " ".join(str(a) for a in self.path) if self.path else "<self>"
        return f"{self.prefix} via [{path_text}] ({self.pref.name.lower()})"
