"""The per-AS adjacency sets, kept as an oracle.

This is the index ``ASGraph`` kept beside its edge rows until its
per-AS queries read the rows themselves: each AS's customers,
providers, peers and siblings as Python sets, filled row by row and
kept current by every insert and removal.  It is the independent
statement of what the row-derived queries must answer —
``customers_of`` ... ``transit_degree``, ``degree`` and
``relationship`` (``test_bulk_load.py``) — on graphs loaded,
generated or edited.

:func:`is_path_valley_free` is the route-soundness check the engine
suites (``tests/bgp``) apply to every selected path; ``test_asgraph.py``
pins it on a hand-built graph.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.topology.asgraph import ASGraph
from repro.topology.relationships import Relationship

_INSERT = {-1: "add_p2c", 0: "add_p2p", 2: "add_s2s"}


class AdjacencyOracle:
    """The adjacency sets of ``graph``'s ASes and rows, which the same
    ``add_*`` / ``remove_edge`` calls keep current afterwards.  It
    validates nothing: apply an edit here only once the graph took it."""

    def __init__(self, graph: ASGraph | None = None) -> None:
        self.customers: dict[int, set[int]] = {}
        self.providers: dict[int, set[int]] = {}
        self.peers: dict[int, set[int]] = {}
        self.siblings: dict[int, set[int]] = {}
        if graph is not None:
            for asn in graph:
                self.add_as(asn)
            for a, b, code in zip(*(column.tolist() for column in graph.edge_columns())):
                getattr(self, _INSERT[code])(a, b)

    def _sets(self) -> tuple[dict[int, set[int]], ...]:
        return self.customers, self.providers, self.peers, self.siblings

    def add_as(self, asn: int) -> None:
        for adjacency in self._sets():
            adjacency.setdefault(asn, set())

    def add_p2c(self, provider: int, customer: int) -> None:
        self.add_as(provider)
        self.add_as(customer)
        self.customers[provider].add(customer)
        self.providers[customer].add(provider)

    def add_p2p(self, a: int, b: int) -> None:
        self.add_as(a)
        self.add_as(b)
        self.peers[a].add(b)
        self.peers[b].add(a)

    def add_s2s(self, a: int, b: int) -> None:
        self.add_as(a)
        self.add_as(b)
        self.siblings[a].add(b)
        self.siblings[b].add(a)

    def remove_edge(self, a: int, b: int) -> None:
        for adjacency in self._sets():
            adjacency[a].discard(b)
            adjacency[b].discard(a)

    def customers_of(self, asn: int) -> frozenset[int]:
        return frozenset(self.customers[asn])

    def providers_of(self, asn: int) -> frozenset[int]:
        return frozenset(self.providers[asn])

    def peers_of(self, asn: int) -> frozenset[int]:
        return frozenset(self.peers[asn])

    def siblings_of(self, asn: int) -> frozenset[int]:
        return frozenset(self.siblings[asn])

    def neighbors_of(self, asn: int) -> frozenset[int]:
        return frozenset().union(*(adjacency[asn] for adjacency in self._sets()))

    def degree(self, asn: int) -> int:
        return sum(len(adjacency[asn]) for adjacency in self._sets())

    def transit_degree(self, asn: int) -> int:
        return len(self.customers[asn])

    def relationship(self, a: int, b: int) -> Relationship:
        if a not in self.customers or b not in self.customers:
            return Relationship.NONE
        for role, adjacency in zip(
            (Relationship.CUSTOMER, Relationship.PROVIDER, Relationship.PEER, Relationship.SIBLING),
            self._sets(),
        ):
            if b in adjacency[a]:
                return role
        return Relationship.NONE


#: every per-AS query of one AS
PER_AS_QUERIES = (
    "customers_of",
    "providers_of",
    "peers_of",
    "siblings_of",
    "neighbors_of",
    "degree",
    "transit_degree",
)


def assert_queries_match(graph: ASGraph, oracle: AdjacencyOracle) -> None:
    """Every per-AS query of every AS, and ``relationship`` /
    ``has_edge`` on every adjacent pair and on as many non-adjacent
    ones, each in both orders, answer as ``oracle`` does."""
    ases = list(graph)
    assert ases == list(oracle.customers)
    for query in PER_AS_QUERIES:
        ours, theirs = getattr(graph, query), getattr(oracle, query)
        assert [ours(asn) for asn in ases] == [theirs(asn) for asn in ases], query
    adjacent = [(a, b) for a, members in oracle.customers.items() for b in members]
    adjacent += [(a, b) for adjacency in (oracle.peers, oracle.siblings)
                 for a, members in adjacency.items() for b in members]
    unknown = max(ases, default=0) + 1
    others = [*zip(ases, reversed(ases)), *zip(ases, ases[1:]), *((a, unknown) for a in ases[:3])]
    for a, b in adjacent + others:
        for x, y in ((a, b), (b, a)):
            assert graph.relationship(x, y) is oracle.relationship(x, y), (x, y)
            assert graph.has_edge(x, y) is (oracle.relationship(x, y) is not Relationship.NONE)


def is_path_valley_free(graph: ASGraph, path: Iterable[int]) -> bool:
    """Check the valley-free (Gao-Rexford) property of an AS path.

    A valid path is ``Customer-Provider* Peer-Peer? Provider-Customer*``
    when read from the *traffic source* towards the origin.  BGP AS
    paths are recorded origin-last, and they are evaluated here in
    announcement-propagation order: reversed(path) is the order the
    announcement travelled.  Sibling hops are transparent (allowed
    anywhere), consecutive duplicates (prepending) are skipped, and
    unknown edges make the path invalid.
    """
    hops: list[int] = []
    for asn in path:
        if not hops or hops[-1] != asn:
            hops.append(asn)
    travel = hops[::-1]
    # State machine over the direction of each hop in travel order:
    # "up" (customer->provider), at most one "flat" (peer), then "down".
    state = "up"
    for sender, receiver in zip(travel, travel[1:]):
        role = graph.relationship(sender, receiver)
        if role is Relationship.NONE:
            return False
        if role is Relationship.SIBLING:
            continue
        if role is Relationship.PROVIDER:
            # receiver is sender's provider: an uphill hop.
            if state != "up":
                return False
        elif role is Relationship.PEER:
            if state != "up":
                return False
            state = "down"
        else:  # receiver is sender's customer: downhill hop.
            state = "down"
    return True
