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


def _parse_relationships(text: str, *, max_fields: int | None) -> ASGraph:
    """Shared serial-1 / as-rel2 parse core.

    ``max_fields`` bounds the accepted field count (``None`` keeps the
    historical lenient serial-1 behaviour: three or more fields, extras
    ignored).  One pass over the lines fills three edge columns, and
    :meth:`ASGraph.from_edge_columns` builds the graph from them under
    the per-edge rules.  Every rejection carries the 1-based line
    number; when a line is malformed and an earlier row is refused, the
    earlier line is the one named.
    """
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
    cause = None
    try:
        graph = ASGraph.from_edge_columns(a, b, code)
    except TopologyError as exc:  # a refused row comes before any bad line
        row, problem, cause = exc.row, str(exc), exc
    else:
        if problem is None:
            return graph
        row = len(code)  # every data line before the bad one became a row
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
