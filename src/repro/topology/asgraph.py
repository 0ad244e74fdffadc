"""The annotated AS-level topology graph.

:class:`ASGraph` stores the Internet's AS-level structure with each edge
labelled by its inferred business relationship.  It is the substrate for
the propagation engine (:mod:`repro.bgp.engine`), the paper's three-phase
path algorithm (:mod:`repro.bgp.uphill`), relationship inference
(:mod:`repro.inference`) and tier classification
(:mod:`repro.topology.tiers`).

The representation is adjacency sets per relationship kind, which makes
the per-AS queries (``customers_of``, ``peers_of`` ...) O(1) lookups
returning pre-built sets.  A graph loaded in bulk
(:meth:`ASGraph.from_edge_columns`) keeps its edge columns instead and
builds the sets on the first query or mutation that needs them.  A run
that only propagates, classifies tiers and ranks cones never does: it
reads the columns, through the dense CSR form
(:class:`repro.bgp.compiled.CompiledTopology`) and
:meth:`ASGraph.relatives`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import chain

import numpy as np

from repro.exceptions import DuplicateEdgeError, TopologyError, UnknownASError
from repro.topology.relationships import Relationship

__all__ = ["ASGraph"]

#: The largest AS number: AS numbers are 32-bit (RFC 6793).
MAX_ASN = 2**32 - 1

#: CAIDA's relationship codes, as :meth:`ASGraph.from_edge_columns`
#: reads them: ``a`` sells transit to ``b``, peers, siblings.
_P2C, _P2P, _S2S = -1, 0, 2

#: The adjacency dict of each role (``ASGraph.relatives``).
_ROLE_SETS = {
    Relationship.CUSTOMER: "_customers",
    Relationship.PROVIDER: "_providers",
    Relationship.PEER: "_peers",
    Relationship.SIBLING: "_siblings",
}

#: The adjacency dicts a bulk-built graph defers (``_DeferredASGraph``).
_ADJACENCY = frozenset(_ROLE_SETS.values())


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
        # Every AS, in insertion order: ``_providers`` itself once the
        # adjacency sets exist, so ``len``, ``in`` and iteration never
        # need the sets.
        self._ases: dict[int, object] = self._providers
        self._edge_count = 0
        # Memo of the graph's dense CSR form, owned by
        # ``repro.bgp.compiled.CompiledTopology.of``.  Dropped on every
        # mutation; never copied or pickled with the graph.
        self._compiled = None
        # The (a, b, code) columns a bulk-built graph came from
        # (``from_edge_columns``): what ``edge_columns`` returns until the
        # graph is mutated, and released once it is compiled.  Never
        # copied or pickled either.
        self._columns = None
        # The same columns while a bulk-built graph has not built its
        # adjacency sets yet (``_DeferredASGraph``); ``None`` once it has.
        self._deferred = None
        # The maps ``relatives`` built, per role.  Dropped on every
        # mutation; never copied or pickled.
        self._relatives: dict[Relationship, dict[int, list[int]]] | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @staticmethod
    def _check_asn(asn: int) -> None:
        if not isinstance(asn, int) or isinstance(asn, bool) or asn <= 0:
            raise TopologyError(f"AS numbers must be positive integers, got {asn!r}")
        if asn > MAX_ASN:
            raise TopologyError(f"AS numbers are 32-bit (at most {MAX_ASN}), got {asn}")

    @classmethod
    def from_edge_columns(cls, a, b, code) -> "ASGraph":
        """The graph of the edges ``a[r]``-``b[r]``, built in bulk.

        ``code[r]`` is CAIDA's: -1 when ``a[r]`` sells transit to
        ``b[r]``, 0 for peers, 2 for siblings.  The result equals
        inserting the rows one by one in order (``add_p2c`` /
        ``add_p2p`` / ``add_s2s``): the same ASes in the same order,
        every adjacency set filled in row order, and the same rules —
        valid AS numbers, no self-loop, no second edge between two ASes
        in any role or direction.  The first refused row raises the
        error its insert would, with the row's index as ``error.row``.

        The adjacency sets are built on the first query or mutation that
        needs them; until then ``len``, ``in``, iteration, :attr:`ases`,
        :meth:`edge_columns` and the compiled form answer from the
        columns and the AS order.
        """
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        code = np.asarray(code, dtype=np.int8)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        refused = (
            ((code != _P2C) & (code != _P2P) & (code != _S2S))
            | (lo <= 0)
            | (hi > MAX_ASN)
            | (a == b)
        )
        # One key per unordered pair; only a refused row can make two
        # distinct pairs collide, and it is refused first anyway.
        pair = lo.astype(np.uint64) << np.uint64(32) | hi.astype(np.uint64)
        repeated = np.ones(len(pair), dtype=bool)
        repeated[np.unique(pair, return_index=True)[1]] = False
        refused |= repeated
        if refused.any():
            # Word the error as the row's own insert would, replayed after
            # the earlier row naming the same pair, if there is one.
            row = int(refused.argmax())
            rel = int(code[row])
            probe = cls()
            insert = {_P2C: probe.add_p2c, _P2P: probe.add_p2p, _S2S: probe.add_s2s}
            try:
                if rel not in insert:
                    raise TopologyError(f"unknown relationship code {rel}")
                for earlier in np.flatnonzero(pair[:row] == pair[row]).tolist():
                    insert[int(code[earlier])](int(a[earlier]), int(b[earlier]))
                insert[rel](int(a[row]), int(b[row]))
            except TopologyError as exc:
                exc.row = row
                raise
            raise AssertionError(f"row {row} was refused but inserts cleanly")

        graph = _DeferredASGraph.__new__(_DeferredASGraph)
        ends = np.empty(2 * len(a), dtype=np.int64)
        ends[0::2], ends[1::2] = a, b
        first = np.unique(ends, return_index=True)[1]
        graph._ases = dict.fromkeys(ends[np.sort(first)].tolist())  # first appearance
        graph._edge_count = len(a)
        graph._compiled = None
        graph._columns = graph._deferred = (a, b, code)
        graph._relatives = None
        return graph

    def _build_adjacency(self) -> None:
        """Fill the four adjacency dicts from the deferred columns: keys
        in the AS order, every set in row order, as per-row inserts
        would.  The graph is a plain :class:`ASGraph` afterwards."""
        a, b, code = self._deferred
        ases = self._ases
        customers = {asn: set() for asn in ases}
        providers = {asn: set() for asn in ases}
        peers = {asn: set() for asn in ases}
        siblings = {asn: set() for asn in ases}
        rows = code == _P2C
        for x, y in zip(a[rows].tolist(), b[rows].tolist()):
            customers[x].add(y)
            providers[y].add(x)
        for rel, adjacency in ((_P2P, peers), (_S2S, siblings)):
            rows = code == rel
            for x, y in zip(a[rows].tolist(), b[rows].tolist()):
                adjacency[x].add(y)
                adjacency[y].add(x)
        self._customers, self._providers = customers, providers
        self._peers, self._siblings = peers, siblings
        self._ases = providers
        self._deferred = None
        self.__class__ = ASGraph

    def add_as(self, asn: int) -> None:
        """Insert an AS with no links (idempotent)."""
        self._check_asn(asn)
        if asn not in self._providers:
            self._providers[asn] = set()
            self._customers[asn] = set()
            self._peers[asn] = set()
            self._siblings[asn] = set()
            self._compiled = self._columns = self._relatives = None

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
        self._compiled = self._columns = self._relatives = None

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
        self._compiled = self._columns = self._relatives = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, asn: int) -> bool:
        return asn in self._ases

    def __len__(self) -> int:
        return len(self._ases)

    def __iter__(self) -> Iterator[int]:
        return iter(self._ases)

    @property
    def ases(self) -> list[int]:
        """All AS numbers, sorted (stable iteration order for experiments)."""
        return sorted(self._ases)

    @property
    def num_edges(self) -> int:
        return self._edge_count

    def _require(self, asn: int) -> None:
        if asn not in self._ases:
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
        try:
            return len(self._customers[asn])
        except KeyError:
            raise UnknownASError(asn) from None

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

    def edge_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every edge once, as ``from_edge_columns`` reads them: int64
        ``a`` and ``b`` and int8 ``code`` columns.

        A bulk-built graph returns the columns it was built from until
        it is mutated; any other graph gathers them from its adjacency
        sets (transit edges provider-first, symmetric ones with
        ``a < b``).
        """
        columns = self._columns if self._columns is not None else self._deferred
        if columns is not None:
            return columns
        columns = []
        for rel, adjacency in (
            (_P2C, self._customers),
            (_P2P, self._peers),
            (_S2S, self._siblings),
        ):
            n = len(adjacency)
            sizes = np.fromiter(map(len, adjacency.values()), dtype=np.int64, count=n)
            a = np.repeat(np.fromiter(adjacency, dtype=np.int64, count=n), sizes)
            b = np.fromiter(
                chain.from_iterable(adjacency.values()), dtype=np.int64, count=len(a)
            )
            if rel != _P2C:  # a symmetric edge sits in both ends' sets
                a, b = a[a < b], b[a < b]
            columns.append((a, b, np.full(len(a), rel, dtype=np.int8)))
        a, b, code = zip(*columns)
        return np.concatenate(a), np.concatenate(b), np.concatenate(code)

    def relatives(
        self, role: Relationship, among: Iterable[int] | None = None
    ) -> dict[int, list[int]]:
        """Each AS with a neighbour in ``role`` (a customer, provider,
        peer or sibling) mapped to those neighbours; the keys ascend.
        ``among`` keeps only those ASes as keys.

        Kept per role until the graph changes (a map ``among`` some ASes
        is not kept).  A graph with adjacency sets reads them; one whose
        sets are deferred groups its edge columns in one NumPy pass and
        never builds them.  The tier and cone queries
        (:mod:`repro.topology.tiers`) read these maps.
        """
        if self._relatives is None:
            self._relatives = {}
        found = self._relatives.get(role) if among is None else None
        if found is not None:
            return found
        if role not in _ROLE_SETS:
            raise TopologyError(f"no AS is related to another as {role}")
        if self._deferred is None:
            adjacency = getattr(self, _ROLE_SETS[role])
            keys = adjacency if among is None else set(among).intersection(adjacency)
            found = {asn: list(adjacency[asn]) for asn in sorted(keys) if adjacency[asn]}
        else:
            a, b, code = self._deferred
            if role is Relationship.CUSTOMER or role is Relationship.PROVIDER:
                rows = code == _P2C
                owner, member = a[rows], b[rows]
                if role is Relationship.PROVIDER:
                    owner, member = member, owner
            else:
                rows = code == (_P2P if role is Relationship.PEER else _S2S)
                owner = np.concatenate((a[rows], b[rows]))
                member = np.concatenate((b[rows], a[rows]))
            if among is not None:
                kept = np.isin(owner, np.fromiter(among, dtype=np.int64))
                owner, member = owner[kept], member[kept]
            order = np.argsort(owner, kind="stable")
            found = _grouped(owner[order], member[order])
        if among is None:
            self._relatives[role] = found
        return found

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
        """Deep copy of the graph's ASes and edges (no memo is carried).

        A graph whose adjacency sets are still deferred shares its
        columns with the copy, which builds sets of its own if asked.
        """
        if self._deferred is not None:
            clone = _DeferredASGraph.__new__(_DeferredASGraph)
            clone.__dict__.update(self.__getstate__())
            return clone
        clone = ASGraph()
        clone._providers = clone._ases = {asn: set(m) for asn, m in self._providers.items()}
        clone._customers = {asn: set(m) for asn, m in self._customers.items()}
        clone._peers = {asn: set(m) for asn, m in self._peers.items()}
        clone._siblings = {asn: set(m) for asn, m in self._siblings.items()}
        clone._edge_count = self._edge_count
        return clone

    def __getstate__(self) -> dict:
        # A pickled graph (the pool's fallback transport) must not ship
        # a compiled topology or the compile's column memo inside it; the
        # receiver compiles its own.  Deferred columns are the edges of a
        # graph that has no sets yet, so they travel.
        state = self.__dict__.copy()
        state["_compiled"] = state["_columns"] = state["_relatives"] = None
        return state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ASGraph(ases={len(self)}, edges={self.num_edges})"


class _DeferredASGraph(ASGraph):
    """A bulk-built :class:`ASGraph` that has not built its adjacency
    sets: the first access to one builds all four from the deferred
    columns, and the graph turns into a plain ``ASGraph``.

    Only this class has a ``__getattr__``: on ``ASGraph`` itself the
    hook would cost every attribute load of every graph its
    specialisation, the generators' edge inserts among them.
    """

    def __getattr__(self, name: str):
        # Normal lookup failed, so the sets are still deferred.
        if name in _ADJACENCY:
            self._build_adjacency()
            return self.__dict__[name]
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")


def _grouped(owner: np.ndarray, member: np.ndarray) -> dict[int, list[int]]:
    """``{owner: [its members]}`` from two aligned columns whose owners
    come in runs."""
    if not len(owner):
        return {}
    cut = np.flatnonzero(owner[1:] != owner[:-1]) + 1
    bounds = [0, *cut.tolist(), len(owner)]
    members = member.tolist()
    return dict(
        zip(
            owner[bounds[:-1]].tolist(),
            [members[lo:hi] for lo, hi in zip(bounds, bounds[1:])],
        )
    )
