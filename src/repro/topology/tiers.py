"""Tier classification of ASes.

The paper repeatedly conditions its analysis on the position of the
attacker and victim in the Internet hierarchy ("Tier-1 hijacks Tier-1",
"a Tier-1 attacks a Tier-3 victim", "most of which are Tier-4 and
Tier-5 ASes").  This module derives that hierarchy from the
relationship-annotated graph:

* **Tier-1** ASes have no providers and form a peering clique at the
  top of the hierarchy (the paper: "A tier-1 AS is an AS with no
  providers and is peering with all other tier-1 ASes").
* Every other AS sits one tier below its best-placed provider.
"""

from __future__ import annotations


from repro.exceptions import TopologyError, UnknownASError
from repro.topology.asgraph import ASGraph
from repro.topology.relationships import Relationship

__all__ = [
    "tier1_ases",
    "classify_tiers",
    "customer_cone",
    "provider_ancestors",
]

# Every query reads the graph's relatives maps (``ASGraph.relatives``,
# built once per graph and role), never the compiled form, so ranking a
# world compiles nothing.  The set-walking versions are the oracle
# ``tests/topology/tiers_oracle.py``.


def _has_provider(customers: dict[int, list[int]]) -> set[int]:
    """The ASes that are someone's customer."""
    return set().union(*customers.values())


def tier1_ases(graph: ASGraph) -> frozenset[int]:
    """Return the Tier-1 set: provider-free ASes in a mutual peering clique.

    Among provider-free ASes we keep the largest subset that is fully
    peer-meshed.  Exact maximum-clique is exponential; since the
    provider-free set is small in practice (~10-20 ASes) we use a greedy
    descent ordered by peering degree, which recovers the full clique on
    every topology our generator produces and is a standard heuristic on
    inferred graphs.
    """
    has_provider = _has_provider(graph.relatives(Relationship.CUSTOMER))
    candidates = [asn for asn in graph if asn not in has_provider]
    if not candidates:
        raise TopologyError("topology has no provider-free ASes; no Tier-1 clique")
    peering = graph.relatives(Relationship.PEER, among=candidates)
    peers = {asn: peering.get(asn, ()) for asn in candidates}
    # Greedy: repeatedly add the provider-free AS with the most peers
    # inside the candidate set, keeping mutual peering with all chosen.
    clique: list[int] = []
    meshed: set[int] | None = None  # the peers of every member; None: no member yet
    for asn in sorted(peers, key=lambda a: (-len(peers[a]), a)):
        if meshed is None or asn in meshed:
            clique.append(asn)
            meshed = set(peers[asn]) if meshed is None else meshed.intersection(peers[asn])
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
    customers = graph.relatives(Relationship.CUSTOMER)
    frontier = tier1_ases(graph)
    tiers: dict[int, int] = dict.fromkeys(frontier, 1)
    # Level by level down the customer edges: an AS is first reached at
    # its tier.
    tier = 1
    while frontier:
        tier += 1
        reached = set().union(*[customers[asn] for asn in frontier if asn in customers])
        reached.difference_update(tiers)
        tiers.update(dict.fromkeys(reached, tier))
        frontier = reached
    if len(tiers) < len(graph):
        has_provider = _has_provider(customers)
        deepest = max(tiers.values())
        for asn in graph:
            if asn not in tiers:
                # Provider-free non-clique AS, or disconnected island; each
                # island AS sinks one tier below the deepest so far.
                tiers[asn] = 2 if asn not in has_provider else deepest + 1
                deepest = max(deepest, tiers[asn])
    return tiers


def customer_cone(graph: ASGraph, asn: int) -> frozenset[int]:
    """All ASes reachable from ``asn`` by walking only customer edges.

    ``asn`` itself is included (CAIDA convention).  The cone size is the
    classic measure of how much of the Internet an AS provides transit
    for; the paper's Figure 7 discussion ("victim's customers are richly
    peered") is about the cone boundary.
    """
    customers = graph.relatives(Relationship.CUSTOMER)
    if asn not in customers:
        if asn not in graph:
            raise UnknownASError(asn)
        return frozenset((asn,))
    cone = {asn}
    stack = [asn]
    while stack:
        for customer in customers[stack.pop()]:
            if customer not in cone:
                cone.add(customer)
                if customer in customers:  # a stub has nothing below it
                    stack.append(customer)
    return frozenset(cone)


def provider_ancestors(graph: ASGraph, asn: int) -> frozenset[int]:
    """All ASes above ``asn`` in the provider hierarchy (excluding it).

    This is the customer cone's mirror: ``asn`` lies in the customer
    cone of exactly these ASes, so an attack launched by any of them
    can reach ``asn`` under valley-free export.
    """
    providers = graph.relatives(Relationship.PROVIDER)
    if asn not in graph:
        raise UnknownASError(asn)
    seen: set[int] = set()
    stack = [asn]
    while stack:
        for provider in providers.get(stack.pop(), ()):
            if provider not in seen:
                seen.add(provider)
                stack.append(provider)
    return frozenset(seen)
