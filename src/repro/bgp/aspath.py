"""AS-PATH algebra, including AS-path prepending (ASPP).

AS paths are represented as tuples of AS numbers in standard BGP order:
``path[0]`` is the most recent AS to announce the route, ``path[-1]``
is the origin.  Prepending by AS ``a`` inserts extra copies of ``a`` at
the *front* when ``a`` announces; by the time a path reaches an
observer, an origin that padded ``λ`` times appears as a run of ``λ``
copies at the *tail* of the path.

The functions here are the primitives everything else builds on: the
attacker strips padding (:func:`strip_origin_padding`), the measurement
module counts it (:func:`padding_of_origin`,
:func:`max_prepending_run`), and the detector compares padded segments
(:func:`split_origin_padding`).
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.exceptions import PolicyError

__all__ = [
    "origin_of",
    "padding_of_origin",
    "split_origin_padding",
    "strip_origin_padding",
    "collapse_prepending",
    "has_prepending",
    "max_prepending_run",
    "prepending_runs",
]

Path = tuple[int, ...]


def origin_of(path: Path) -> int:
    """The origin AS (last element) of a non-empty path."""
    if not path:
        raise PolicyError("empty AS path has no origin")
    return path[-1]


def padding_of_origin(path: Path) -> int:
    """Length of the origin's trailing run: ``λ`` for ``[... V V V]``.

    Returns 1 when the origin did not prepend.
    """
    origin = origin_of(path)
    count = 0
    for asn in reversed(path):
        if asn != origin:
            break
        count += 1
    return count


def split_origin_padding(path: Path) -> tuple[Path, int, int]:
    """Split ``path`` into ``(head, origin, λ)``.

    ``head`` is everything before the origin's trailing run.  The
    detection algorithm compares ``head`` segments across monitors and
    flags mismatched ``λ``.
    """
    origin = origin_of(path)
    padding = padding_of_origin(path)
    return path[: len(path) - padding], origin, padding


def strip_origin_padding(path: Path, keep: int = 1) -> Path:
    """Collapse the origin's trailing run down to ``keep`` copies.

    This is exactly the attacker's transformation: receiving
    ``[* V ... V]`` and forwarding ``[* V]``.  ``keep`` must be between
    1 and the current padding.
    """
    head, origin, padding = split_origin_padding(path)
    if keep < 1:
        raise PolicyError("must keep at least one copy of the origin ASN")
    keep = min(keep, padding)
    return head + (origin,) * keep


def collapse_prepending(path: Path) -> Path:
    """Remove *all* prepending: collapse every consecutive run to length 1.

    The result is the underlying AS-level route.  This is also the
    aggressive attacker variant that strips intermediary prepending,
    not just the origin's.
    """
    collapsed: list[int] = []
    for asn in path:
        if not collapsed or collapsed[-1] != asn:
            collapsed.append(asn)
    return tuple(collapsed)


def prepending_runs(path: Path) -> Iterator[tuple[int, int]]:
    """Yield ``(asn, run_length)`` for each maximal consecutive run."""
    if not path:
        return
    current = path[0]
    length = 1
    for asn in path[1:]:
        if asn == current:
            length += 1
        else:
            yield current, length
            current, length = asn, 1
    yield current, length


def has_prepending(path: Path) -> bool:
    """True when any AS appears in a consecutive run of length >= 2."""
    return any(length >= 2 for _, length in prepending_runs(path))


def max_prepending_run(path: Path) -> int:
    """The longest consecutive run length in ``path`` (0 for empty).

    The paper's Figure 6 ("number of duplicate ASNs") plots this
    statistic over all observed routes.
    """
    return max((length for _, length in prepending_runs(path)), default=0)
