"""The per-edge as-rel2 / serial-1 parser, kept as an oracle.

This is ``repro.topology.serialization._parse_relationships`` as it
stood before the loader filled edge columns and built the graph with
:meth:`ASGraph.from_edge_columns`: one ``add_p2c`` / ``add_p2p`` /
``add_s2s`` per line, each refusal wrapped with its line number.  It is
the independent statement of what the bulk loader must produce — the
same ASes in the same order, the same adjacency sets in the same
iteration order, and the same error message for every malformed file
(``test_asrel2.py``) — and ``benchmarks/test_bench_engine_perf.py``
times the bulk loader against it.
"""

from __future__ import annotations

from repro.exceptions import SerializationError
from repro.topology.asgraph import ASGraph


def _parse_relationships(text: str, *, max_fields: int | None) -> ASGraph:
    """Shared serial-1 / as-rel2 parse core.

    ``max_fields`` bounds the accepted field count (``None`` keeps the
    historical lenient serial-1 behaviour: three or more fields, extras
    ignored).  Every rejection carries the 1-based line number.
    """
    graph = ASGraph()
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("|")
        if len(parts) < 3 or (max_fields is not None and len(parts) > max_fields):
            raise SerializationError(
                f"line {line_number}: expected 'a|b|code"
                f"{'[|source]' if max_fields else ''}', got {raw!r}"
            )
        try:
            a, b, code = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise SerializationError(f"line {line_number}: non-integer field in {raw!r}") from exc
        try:
            if code == -1:
                graph.add_p2c(a, b)
            elif code == 0:
                graph.add_p2p(a, b)
            elif code == 2:
                graph.add_s2s(a, b)
            else:
                raise SerializationError(
                    f"line {line_number}: unknown relationship code {code}"
                )
        except SerializationError:
            raise
        except Exception as exc:
            raise SerializationError(f"line {line_number}: {exc}") from exc
    return graph


def loads_asrel2_oracle(text: str) -> ASGraph:
    """:func:`repro.topology.serialization.loads_asrel2`, edge by edge."""
    return _parse_relationships(text, max_fields=4)


def loads_caida_oracle(text: str) -> ASGraph:
    """:func:`repro.topology.serialization.loads_caida`, edge by edge."""
    return _parse_relationships(text, max_fields=None)
