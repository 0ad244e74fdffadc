"""The set-based tier and cone queries, kept as an oracle.

This is ``repro.topology.tiers`` as it stood while it walked the
graph's adjacency sets (``providers_of``, ``customers_of``,
``peers_of``).  It is the independent statement of what the CSR
versions must return — the same Tier-1 clique, the same tier per AS,
the same cones and ancestors (``test_tiers.py``) — on graphs generated
or loaded.
"""

from __future__ import annotations

from collections import deque

from repro.exceptions import TopologyError
from repro.topology.asgraph import ASGraph


def tier1_ases(graph: ASGraph) -> frozenset[int]:
    """Return the Tier-1 set: provider-free ASes in a mutual peering clique.

    Among provider-free ASes we keep the largest subset that is fully
    peer-meshed.  Exact maximum-clique is exponential; since the
    provider-free set is small in practice (~10-20 ASes) we use a greedy
    descent ordered by peering degree, which recovers the full clique on
    every topology our generator produces and is a standard heuristic on
    inferred graphs.
    """
    candidates = [asn for asn in graph if not graph.providers_of(asn)]
    if not candidates:
        raise TopologyError("topology has no provider-free ASes; no Tier-1 clique")
    # Greedy: repeatedly add the provider-free AS with the most peers
    # inside the candidate set, keeping mutual peering with all chosen.
    candidates.sort(key=lambda a: (-len(graph.peers_of(a)), a))
    clique: list[int] = []
    for asn in candidates:
        if all(asn in graph.peers_of(member) for member in clique):
            clique.append(asn)
    return frozenset(clique)


def classify_tiers(graph: ASGraph) -> dict[int, int]:
    """Assign a tier number to every AS.

    Tier-1 ASes get 1; any other AS gets ``1 + min(tier of providers)``.
    Provider-free ASes outside the clique (possible on inferred graphs)
    are treated as tier 2: they are not part of the core but need no
    provider, resembling large peering-only networks.  ASes unreachable
    through transit edges from the core keep the most pessimistic tier
    found through whatever providers they have, or tier 2 if none.
    """
    tier1 = tier1_ases(graph)
    tiers: dict[int, int] = {asn: 1 for asn in tier1}
    queue: deque[int] = deque(sorted(tier1))
    while queue:
        asn = queue.popleft()
        for customer in graph.customers_of(asn):
            proposed = tiers[asn] + 1
            if customer not in tiers or proposed < tiers[customer]:
                tiers[customer] = proposed
                queue.append(customer)
    for asn in graph:
        if asn not in tiers:
            # Provider-free non-clique AS, or disconnected island.
            tiers[asn] = 2 if not graph.providers_of(asn) else max(tiers.values()) + 1
    return tiers


def customer_cone(graph: ASGraph, asn: int) -> frozenset[int]:
    """All ASes reachable from ``asn`` by walking only customer edges.

    ``asn`` itself is included (CAIDA convention).  The cone size is the
    classic measure of how much of the Internet an AS provides transit
    for; the paper's Figure 7 discussion ("victim's customers are richly
    peered") is about the cone boundary.
    """
    if not graph.transit_degree(asn):
        return frozenset((asn,))
    seen = {asn}
    queue: deque[int] = deque([asn])
    while queue:
        for customer in graph.customers_of(queue.popleft()):
            if customer not in seen:
                seen.add(customer)
                queue.append(customer)
    return frozenset(seen)


def provider_ancestors(graph: ASGraph, asn: int) -> frozenset[int]:
    """All ASes above ``asn`` in the provider hierarchy (excluding it).

    This is the customer cone's mirror: ``asn`` lies in the customer
    cone of exactly these ASes, so an attack launched by any of them
    can reach ``asn`` under valley-free export.
    """
    seen: set[int] = set()
    stack = [asn]
    while stack:
        current = stack.pop()
        for provider in graph.providers_of(current):
            if provider not in seen:
                seen.add(provider)
                stack.append(provider)
    return frozenset(seen)
