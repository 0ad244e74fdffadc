"""The annotated AS-level topology graph.

:class:`ASGraph` stores the Internet's AS-level structure with each edge
labelled by its inferred business relationship.  It is the substrate for
the propagation engine (:mod:`repro.bgp.engine`), the paper's three-phase
path algorithm (:mod:`repro.bgp.uphill`), relationship inference
(:mod:`repro.inference`) and tier classification
(:mod:`repro.topology.tiers`).

The representation is adjacency sets per relationship kind, which makes
the hot queries of the propagation engine (``customers_of``,
``peers_of`` ...) O(1) lookups returning pre-built sets.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.exceptions import DuplicateEdgeError, TopologyError, UnknownASError
from repro.topology.relationships import Relationship

__all__ = ["ASGraph"]


class ASGraph:
    """An AS-level topology with relationship-annotated edges.

    ASes are identified by positive integers (AS numbers).  Each
    undirected AS-level link carries exactly one relationship label:
    customer-provider, peer-peer, or sibling-sibling.
    """

    def __init__(self) -> None:
        self._providers: dict[int, set[int]] = {}
        self._customers: dict[int, set[int]] = {}
        self._peers: dict[int, set[int]] = {}
        self._siblings: dict[int, set[int]] = {}
        self._edge_count = 0
        # Memo of the graph's dense CSR form, owned by
        # ``repro.bgp.compiled.CompiledTopology.of`` (which also reads
        # the four adjacency dicts directly to build it).  Dropped on
        # every mutation; never copied or pickled with the graph.
        self._compiled = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @staticmethod
    def _check_asn(asn: int) -> None:
        if not isinstance(asn, int) or isinstance(asn, bool) or asn <= 0:
            raise TopologyError(f"AS numbers must be positive integers, got {asn!r}")

    def add_as(self, asn: int) -> None:
        """Insert an AS with no links (idempotent)."""
        self._check_asn(asn)
        if asn not in self._providers:
            self._providers[asn] = set()
            self._customers[asn] = set()
            self._peers[asn] = set()
            self._siblings[asn] = set()
            self._compiled = None

    def _open_edge(self, a: int, b: int) -> None:
        """Everything an edge insert does except add ``a``-``b`` to its
        two role sets: insert the endpoints, refuse a self-loop or a
        second edge, count the edge, drop the memos."""
        known = self._providers
        # Only a plain int that is already a key skips ``add_as``:
        # ``True`` and ``1.0`` hash like AS1 and must still be refused.
        if type(a) is not int or a not in known:
            self.add_as(a)
        if type(b) is not int or b not in known:
            self.add_as(b)
        if a == b:
            raise TopologyError(f"self-loop on AS{a} is not allowed")
        if (
            b in self._customers[a]
            or b in known[a]
            or b in self._peers[a]
            or b in self._siblings[a]
        ):
            raise DuplicateEdgeError(
                f"edge AS{a}-AS{b} already exists with relationship "
                f"{self.relationship(a, b).value}"
            )
        self._edge_count += 1
        self._compiled = None

    def add_p2c(self, provider: int, customer: int) -> None:
        """Add a transit edge: ``provider`` sells transit to ``customer``."""
        self._open_edge(provider, customer)
        self._customers[provider].add(customer)
        self._providers[customer].add(provider)

    def add_p2p(self, a: int, b: int) -> None:
        """Add a settlement-free peering edge between ``a`` and ``b``."""
        self._open_edge(a, b)
        self._peers[a].add(b)
        self._peers[b].add(a)

    def add_s2s(self, a: int, b: int) -> None:
        """Add a sibling edge (two ASes of one organisation)."""
        self._open_edge(a, b)
        self._siblings[a].add(b)
        self._siblings[b].add(a)

    def add_edge(self, a: int, b: int, relationship: Relationship) -> None:
        """Add an edge with ``relationship`` being *b's role relative to a*."""
        if relationship is Relationship.CUSTOMER:
            self.add_p2c(a, b)
        elif relationship is Relationship.PROVIDER:
            self.add_p2c(b, a)
        elif relationship is Relationship.PEER:
            self.add_p2p(a, b)
        elif relationship is Relationship.SIBLING:
            self.add_s2s(a, b)
        else:
            raise TopologyError(f"cannot add an edge with relationship {relationship}")

    def remove_edge(self, a: int, b: int) -> None:
        """Remove the edge between ``a`` and ``b`` (it must exist)."""
        relationship = self.relationship(a, b)
        if relationship is Relationship.NONE:
            raise TopologyError(f"no edge between AS{a} and AS{b}")
        if relationship is Relationship.CUSTOMER:
            self._customers[a].discard(b)
            self._providers[b].discard(a)
        elif relationship is Relationship.PROVIDER:
            self._customers[b].discard(a)
            self._providers[a].discard(b)
        elif relationship is Relationship.PEER:
            self._peers[a].discard(b)
            self._peers[b].discard(a)
        else:
            self._siblings[a].discard(b)
            self._siblings[b].discard(a)
        self._edge_count -= 1
        self._compiled = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, asn: int) -> bool:
        return asn in self._providers

    def __len__(self) -> int:
        return len(self._providers)

    def __iter__(self) -> Iterator[int]:
        return iter(self._providers)

    @property
    def ases(self) -> list[int]:
        """All AS numbers, sorted (stable iteration order for experiments)."""
        return sorted(self._providers)

    @property
    def num_edges(self) -> int:
        return self._edge_count

    def _require(self, asn: int) -> None:
        if asn not in self._providers:
            raise UnknownASError(asn)

    def providers_of(self, asn: int) -> frozenset[int]:
        """The ASes selling transit to ``asn``."""
        self._require(asn)
        return frozenset(self._providers[asn])

    def customers_of(self, asn: int) -> frozenset[int]:
        """The ASes buying transit from ``asn``."""
        self._require(asn)
        return frozenset(self._customers[asn])

    def peers_of(self, asn: int) -> frozenset[int]:
        """The settlement-free peers of ``asn``."""
        self._require(asn)
        return frozenset(self._peers[asn])

    def siblings_of(self, asn: int) -> frozenset[int]:
        """The sibling ASes of ``asn``."""
        self._require(asn)
        return frozenset(self._siblings[asn])

    def neighbors_of(self, asn: int) -> frozenset[int]:
        """All neighbours of ``asn`` regardless of relationship."""
        self._require(asn)
        return frozenset(
            self._providers[asn]
            | self._customers[asn]
            | self._peers[asn]
            | self._siblings[asn]
        )

    def degree(self, asn: int) -> int:
        """Total number of AS-level links incident to ``asn``."""
        self._require(asn)
        return (
            len(self._providers[asn])
            + len(self._customers[asn])
            + len(self._peers[asn])
            + len(self._siblings[asn])
        )

    def transit_degree(self, asn: int) -> int:
        """Number of customers — CAIDA's AS-Rank ordering key."""
        self._require(asn)
        return len(self._customers[asn])

    def relationship(self, a: int, b: int) -> Relationship:
        """The role of ``b`` relative to ``a`` (``NONE`` if not adjacent)."""
        if a not in self._providers or b not in self._providers:
            return Relationship.NONE
        if b in self._customers[a]:
            return Relationship.CUSTOMER
        if b in self._providers[a]:
            return Relationship.PROVIDER
        if b in self._peers[a]:
            return Relationship.PEER
        if b in self._siblings[a]:
            return Relationship.SIBLING
        return Relationship.NONE

    def has_edge(self, a: int, b: int) -> bool:
        return self.relationship(a, b) is not Relationship.NONE

    def edges(self) -> Iterator[tuple[int, int, Relationship]]:
        """Iterate each edge once as ``(a, b, role-of-b-relative-to-a)``.

        Transit edges are yielded provider-first (``role`` = CUSTOMER);
        symmetric edges are yielded with ``a < b``.
        """
        for asn in sorted(self._providers):
            for customer in sorted(self._customers[asn]):
                yield asn, customer, Relationship.CUSTOMER
            for peer in sorted(self._peers[asn]):
                if asn < peer:
                    yield asn, peer, Relationship.PEER
            for sibling in sorted(self._siblings[asn]):
                if asn < sibling:
                    yield asn, sibling, Relationship.SIBLING

    # ------------------------------------------------------------------
    # Structure-level helpers
    # ------------------------------------------------------------------
    def is_path_valley_free(self, path: Iterable[int]) -> bool:
        """Check the valley-free (Gao-Rexford) property of an AS path.

        A valid path is ``Customer-Provider* Peer-Peer? Provider-Customer*``
        when read from the *traffic source* towards the origin... BGP AS
        paths are recorded origin-last, and we evaluate them in
        announcement-propagation order: reversed(path) is the order the
        announcement travelled.  Sibling hops are transparent (allowed
        anywhere), consecutive duplicates (prepending) are skipped, and
        unknown edges make the path invalid.
        """
        hops: list[int] = []
        for asn in path:
            if not hops or hops[-1] != asn:
                hops.append(asn)
        if len(hops) <= 1:
            return True
        # Announcement travels origin -> ... -> head, i.e. reversed hops.
        travel = list(reversed(hops))
        # State machine over the direction of each hop in travel order:
        # "up" (customer->provider), at most one "flat" (peer), then "down".
        state = "up"
        for sender, receiver in zip(travel, travel[1:]):
            role = self.relationship(sender, receiver)
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

    def copy(self) -> "ASGraph":
        """Deep copy of the graph's ASes and edges (no memo is carried)."""
        clone = ASGraph()
        clone._providers = {asn: set(m) for asn, m in self._providers.items()}
        clone._customers = {asn: set(m) for asn, m in self._customers.items()}
        clone._peers = {asn: set(m) for asn, m in self._peers.items()}
        clone._siblings = {asn: set(m) for asn, m in self._siblings.items()}
        clone._edge_count = self._edge_count
        return clone

    def __getstate__(self) -> dict:
        # A pickled graph (the pool's fallback transport) must not ship
        # a compiled topology inside it; the receiver compiles its own.
        state = self.__dict__.copy()
        state["_compiled"] = None
        return state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ASGraph(ases={len(self)}, edges={self.num_edges})"
