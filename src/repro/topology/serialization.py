"""Reading and writing relationship-annotated topologies.

The on-disk format follows CAIDA's *serial-1* AS-relationship files,
which the paper's methodology section consumes::

    # comment lines start with '#'
    <provider-as>|<customer-as>|-1
    <peer-as>|<peer-as>|0

We additionally write sibling edges as ``<as>|<as>|2`` (a documented
extension; CAIDA's serial-2 format reserves other codes).

CAIDA's published **as-rel2** snapshots append a fourth field naming the
inference source (``<a>|<b>|<code>|<source>``); :func:`load_asrel2` /
:func:`loads_asrel2` parse those strictly — exactly 3 or 4 fields,
known codes only, duplicate edges rejected with their line number — so
a real ``20240101.as-rel2.txt`` (optionally ``.bz2``) drops straight
into ``PropagationEngine`` at Internet scale.
"""

from __future__ import annotations

import bz2
import io
import sys
from array import array
from pathlib import Path

import numpy as np

from repro.exceptions import SerializationError, TopologyError
from repro.topology.asgraph import ASGraph
from repro.topology.relationships import Relationship

__all__ = [
    "load_caida",
    "save_caida",
    "loads_caida",
    "dumps_caida",
    "load_asrel2",
    "loads_asrel2",
]

_REL_CODES = {
    Relationship.CUSTOMER: -1,  # written provider-first by ASGraph.edges()
    Relationship.PEER: 0,
    Relationship.SIBLING: 2,
}
_CODES = frozenset(_REL_CODES.values())


def dumps_caida(graph: ASGraph, *, header: str | None = None) -> str:
    """Serialise ``graph`` to the CAIDA serial-1 text format."""
    out = io.StringIO()
    if header:
        for line in header.splitlines():
            out.write(f"# {line}\n")
    for a, b, role in graph.edges():
        out.write(f"{a}|{b}|{_REL_CODES[role]}\n")
    return out.getvalue()


def save_caida(graph: ASGraph, path: str | Path, *, header: str | None = None) -> None:
    """Write ``graph`` to ``path`` in CAIDA serial-1 format."""
    Path(path).write_text(dumps_caida(graph, header=header))


def _plain_columns(text: str, max_fields: int | None):
    """The ``(a, b, code)`` columns of ``text`` in one NumPy pass, or
    ``None`` when some line is not plain.

    Plain is what a published snapshot holds: ASCII with no control
    character but ``\\n``, and lines that are empty, start with ``#``,
    or read ``<digits>|<digits>|<code>`` with 1 to 18 digits, a code of
    ``-1``, ``0`` or ``2`` and at most ``max_fields`` fields.  On such a
    text the per-line loop (:func:`_line_columns`) strips nothing and
    accepts every line, so these are the columns it would fill.
    Anything else (a ``\\r``, padding, ``+7``, ``1_000``, a fifth field,
    a bad code) is left to that loop, which accepts it or words its
    error.
    """
    if not text.isascii():
        return None
    buf = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    breaks = np.flatnonzero(buf == ord("\n"))
    if np.count_nonzero(buf < ord(" ")) != len(breaks):
        return None
    ends = breaks if not len(buf) or buf[-1] == ord("\n") else np.append(breaks, len(buf))
    starts = np.concatenate(([0], breaks + 1))[: len(ends)]
    data = ends > starts
    data[data] = buf[starts[data]] != ord("#")
    starts, ends = starts[data], ends[data]
    # three sentinels past every line's end: a missing pipe reads as one
    pipes = np.concatenate((np.flatnonzero(buf == ord("|")), np.full(3, len(buf))))
    first = np.searchsorted(pipes, starts)
    bar1, bar2, bar3 = pipes[first], pipes[first + 1], pipes[first + 2]
    if (bar2 >= ends).any():  # fewer than three fields
        return None
    if max_fields and (pipes[np.minimum(first + max_fields - 1, len(pipes) - 1)] < ends).any():
        return None
    bar3 = np.minimum(bar3, ends)

    def number(lo, hi):
        """The decimal field ``buf[lo:hi]`` of every row, or ``None``."""
        width = hi - lo
        if len(width) and not 1 <= width.min() <= width.max() <= 18:
            return None
        value = np.zeros(len(width), dtype=np.int64)
        for place in range(width.max() if len(width) else 0):
            live = place < width
            digit = buf[np.where(live, hi - 1 - place, 0)] - np.uint8(ord("0"))
            digit[~live] = 0
            if digit.max(initial=0) > 9:
                return None
            value += digit * np.int64(10**place)
        return value

    a, b = number(starts, bar1), number(bar1 + 1, bar2)
    if a is None or b is None:
        return None
    width = bar3 - bar2 - 1
    last = len(buf) - 1
    lead, tail = buf[np.minimum(bar2 + 1, last)], buf[np.minimum(bar2 + 2, last)]
    code = np.select(
        [
            (width == 1) & (lead == ord("0")),
            (width == 1) & (lead == ord("2")),
            (width == 2) & (lead == ord("-")) & (tail == ord("1")),
        ],
        [0, 2, -1],
        default=1,
    ).astype(np.int8)
    if (code == 1).any():
        return None
    return a, b, code


def _line_columns(text: str, max_fields: int | None):
    """``(columns, problem)``: the edge columns of the data lines before
    the first malformed one, line by line, and that line's fault (or
    ``None``)."""
    a, b, code = array("q"), array("q"), array("b")
    put_a, put_b, put_code = a.append, b.append, code.append
    most = max_fields or sys.maxsize
    problem = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        parts = line.split("|")
        if not 3 <= len(parts) <= most:
            problem = f"expected 'a|b|code{'[|source]' if max_fields else ''}', got {raw!r}"
            break
        try:
            x, y, rel = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            problem = f"non-integer field in {raw!r}"
            break
        if rel not in _CODES:
            problem = f"unknown relationship code {rel}"
            break
        try:
            put_a(x)
            put_b(y)
        except OverflowError:
            # Past 64 bits no column holds it; it is no AS number either.
            del a[len(b):]
            try:
                ASGraph._check_asn(x)
                ASGraph._check_asn(y)
            except TopologyError as exc:
                problem = str(exc)
            else:
                raise AssertionError(f"AS{x} or AS{y} overflowed yet is an AS number")
            break
        put_code(rel)
    return (a, b, code), problem


def _parse_relationships(text: str, *, max_fields: int | None) -> ASGraph:
    """Shared serial-1 / as-rel2 parse core.

    ``max_fields`` bounds the accepted field count (``None`` keeps the
    historical lenient serial-1 behaviour: three or more fields, extras
    ignored).  One NumPy pass reads a plain text into three edge
    columns, the per-line loop any other, and
    :meth:`ASGraph.from_edge_columns` builds the graph from them under
    the per-edge rules.  Every rejection carries the 1-based line
    number; when a line is malformed and an earlier row is refused, the
    earlier line is the one named.
    """
    columns, problem = _plain_columns(text, max_fields), None
    if columns is None:
        columns, problem = _line_columns(text, max_fields)
    cause = None
    try:
        graph = ASGraph.from_edge_columns(*columns)
    except TopologyError as exc:  # a refused row comes before any bad line
        row, problem, cause = exc.row, str(exc), exc
    else:
        if problem is None:
            return graph
        row = len(columns[2])  # every data line before the bad one became a row
    # Only now map the row back to its line.
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and line[0] != "#":
            if not row:
                break
            row -= 1
    raise SerializationError(f"line {line_number}: {problem}") from cause


def loads_caida(text: str) -> ASGraph:
    """Parse a CAIDA serial-1 document into an :class:`ASGraph`."""
    return _parse_relationships(text, max_fields=None)


def load_caida(path: str | Path) -> ASGraph:
    """Read a CAIDA serial-1 file into an :class:`ASGraph`."""
    return loads_caida(Path(path).read_text())


def loads_asrel2(text: str) -> ASGraph:
    """Parse a CAIDA as-rel2 document (``a|b|code`` or ``a|b|code|source``).

    Stricter than :func:`loads_caida`: at most one trailing source
    field, relationship codes limited to -1 (p2c), 0 (p2p) and the
    sibling extension 2, and duplicate edges are a
    :class:`SerializationError` naming the offending line — a real
    snapshot never repeats a link, so a repeat means a mangled file.
    """
    return _parse_relationships(text, max_fields=4)


def load_asrel2(path: str | Path) -> ASGraph:
    """Read a CAIDA as-rel2 file (plain text or ``.bz2``, as published)."""
    path = Path(path)
    if path.suffix == ".bz2":
        with bz2.open(path, "rt") as handle:
            return loads_asrel2(handle.read())
    return loads_asrel2(path.read_text())
