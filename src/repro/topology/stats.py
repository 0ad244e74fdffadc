"""Structural statistics of AS topologies.

Used to sanity-check generated topologies against the gross properties
of the inferred Internet graph (heavy-tailed degrees, small transit
core, large stub fringe) and by the experiment harness to report the
substrate each figure ran on.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from repro.topology.asgraph import ASGraph
from repro.topology.relationships import Relationship
from repro.topology.tiers import classify_tiers

__all__ = ["TopologySummary", "powerlaw_exponent", "summarize"]


@dataclass(frozen=True)
class TopologySummary:
    """Gross structural statistics of a topology."""

    num_ases: int
    num_edges: int
    num_p2c: int
    num_p2p: int
    num_s2s: int
    num_stubs: int
    max_degree: int
    mean_degree: float
    tier_counts: dict[int, int]
    powerlaw_exponent: float

    def as_rows(self) -> list[tuple[str, object]]:
        """Key/value rows for table rendering."""
        rows: list[tuple[str, object]] = [
            ("ASes", self.num_ases),
            ("links", self.num_edges),
            ("p2c links", self.num_p2c),
            ("p2p links", self.num_p2p),
            ("sibling links", self.num_s2s),
            ("stub ASes", self.num_stubs),
            ("max degree", self.max_degree),
            ("mean degree", round(self.mean_degree, 2)),
            ("degree power-law alpha", round(self.powerlaw_exponent, 2)),
        ]
        for tier in sorted(self.tier_counts):
            rows.append((f"tier-{tier} ASes", self.tier_counts[tier]))
        return rows


def powerlaw_exponent(graph: ASGraph) -> float:
    """Maximum-likelihood (Clauset-style, xmin=1) power-law exponent.

    ``alpha = 1 + n / sum(ln(degree))`` over degrees >= 1.  Returns
    ``nan`` for degenerate graphs.  Real AS graphs sit around 2.1; our
    generator should land in the 1.5-3 range.
    """
    degrees = [graph.degree(asn) for asn in graph if graph.degree(asn) >= 1]
    if not degrees:
        return float("nan")
    log_sum = sum(math.log(d) for d in degrees)
    if log_sum <= 0:
        return float("inf")
    return 1.0 + len(degrees) / log_sum


def summarize(graph: ASGraph) -> TopologySummary:
    """Compute a :class:`TopologySummary` for ``graph``."""
    num_p2c = num_p2p = num_s2s = 0
    for _, _, role in graph.edges():
        if role is Relationship.CUSTOMER:
            num_p2c += 1
        elif role is Relationship.PEER:
            num_p2p += 1
        else:
            num_s2s += 1
    degrees = [graph.degree(asn) for asn in graph]
    tiers = classify_tiers(graph)
    tier_counts = Counter(tiers.values())
    return TopologySummary(
        num_ases=len(graph),
        num_edges=graph.num_edges,
        num_p2c=num_p2c,
        num_p2p=num_p2p,
        num_s2s=num_s2s,
        num_stubs=sum(1 for asn in graph if not graph.customers_of(asn)),
        max_degree=max(degrees, default=0),
        mean_degree=sum(degrees) / len(degrees) if degrees else 0.0,
        tier_counts=dict(sorted(tier_counts.items())),
        powerlaw_exponent=powerlaw_exponent(graph),
    )
