"""The annotated AS-level topology graph.

:class:`ASGraph` stores the Internet's AS-level structure with each edge
labelled by its inferred business relationship.  It is the substrate for
the propagation engine (:mod:`repro.bgp.engine`), the paper's three-phase
path algorithm (:mod:`repro.bgp.uphill`), relationship inference
(:mod:`repro.inference`) and tier classification
(:mod:`repro.topology.tiers`).

Every graph, loaded, built by inserts, copied or unpickled, is stored
one way: its AS order and three edge columns, ``a`` / ``b`` / ``code``
in CAIDA's codes, one row per edge in insertion order.  Every read
derives from them: the whole-graph ones (``len``, iteration,
:meth:`ASGraph.edge_columns`, :meth:`ASGraph.relatives`,
:meth:`ASGraph.edges`, copies, pickles, the dense CSR form of
:class:`repro.bgp.compiled.CompiledTopology`) and the per-AS ones: the
role queries (``customers_of`` ...) read the ``relatives`` maps,
``degree`` one count per AS, and ``relationship`` one map from each
adjacent pair to its row's code.  Each is built on first read; a run
that only propagates, classifies tiers and ranks cones builds only the
maps those read.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator

import numpy as np

from repro.exceptions import DuplicateEdgeError, TopologyError, UnknownASError
from repro.topology.relationships import Relationship

__all__ = ["ASGraph"]

#: The largest AS number: AS numbers are 32-bit (RFC 6793).
MAX_ASN = 2**32 - 1

#: CAIDA's relationship codes, as the edge columns hold them: ``a``
#: sells transit to ``b``, peers, siblings.
_P2C, _P2P, _S2S = -1, 0, 2
_CODE_OF_ROLE = {Relationship.CUSTOMER: _P2C, Relationship.PEER: _P2P, Relationship.SIBLING: _S2S}

#: The role of ``hi`` relative to ``lo``, and of ``lo`` relative to
#: ``hi``, for an adjacent pair's code in ``ASGraph._pair_map``,
#: indexed by code + 1; each names every role once.
_ROLE_OF_HI = tuple(Relationship[r] for r in ("CUSTOMER", "PEER", "PROVIDER", "SIBLING"))
_ROLE_OF_LO = tuple(role.inverse() for role in _ROLE_OF_HI)

#: How :meth:`ASGraph.edges` orders an AS's edges, customers, peers,
#: then siblings: the rank of each code (indexed by code + 1), and the
#: role yielded per rank.
_EDGE_RANK = np.array([0, 1, -1, 2], dtype=np.int64)
_RANKED_ROLES = (Relationship.CUSTOMER, Relationship.PEER, Relationship.SIBLING)

_NO_ROWS = np.empty(0, dtype=np.int64)
_NO_CODES = np.empty(0, dtype=np.int8)

#: :meth:`ASGraph.edges` turns this many rows at a time into Python ints.
_EDGE_BLOCK = 4096


class ASGraph:
    """An AS-level topology with relationship-annotated edges.

    ASes are identified by positive integers (AS numbers).  Each
    undirected AS-level link carries exactly one relationship label:
    customer-provider, peer-peer, or sibling-sibling.
    """

    def __init__(self) -> None:
        self.__setstate__({"_ases": {}, "_a": _NO_ROWS, "_b": _NO_ROWS, "_code": _NO_CODES})

    def __setstate__(self, state: dict) -> None:
        # The store: every AS in insertion order, and the edge columns,
        # the rows inserted since they were last read held in ``_tail``'s
        # growable ``a`` / ``b`` / ``code`` arrays (``_new_tail``).
        self._ases: dict[int, None] = state["_ases"]
        self._a: np.ndarray = state["_a"]
        self._b: np.ndarray = state["_b"]
        self._code: np.ndarray = state["_code"]
        self._tail = _new_tail()
        # Derived from the store, never copied or pickled: the pair map,
        # kept current by edits, and the memos an edit drops (``_changed``).
        self._pairs: dict[int, int] | None = None
        self._changed()

    def _changed(self) -> None:
        """Drop what is derived from the rows and not kept current: the
        dense CSR form owned by ``repro.bgp.compiled.CompiledTopology.of``,
        the maps ``relatives`` built, per role, and the degree counts."""
        self._compiled = None
        self._relatives: dict[Relationship, dict[int, list[int]]] | None = None
        self._degrees: dict[int, int] | None = None

    def __getstate__(self) -> dict:
        a, b, code = self.edge_columns()
        return {"_ases": dict(self._ases), "_a": a, "_b": b, "_code": code}

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
        the same rows, and the same rules — valid AS numbers, no
        self-loop, no second edge between two ASes in any role or
        direction.  The first refused row raises the error its insert
        would, with the row's index as ``error.row``.
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
        # Only a refused row can make two distinct pairs share a key,
        # and it is refused first anyway.
        pair = _pair_keys(lo, hi)
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

        ends = np.empty(2 * len(a), dtype=np.int64)
        ends[0::2], ends[1::2] = a, b
        first = np.unique(ends, return_index=True)[1]
        graph = cls.__new__(cls)
        graph.__setstate__(
            {
                "_ases": dict.fromkeys(ends[np.sort(first)].tolist()),  # first appearance
                "_a": a,
                "_b": b,
                "_code": code,
            }
        )
        return graph

    def _pair_map(self) -> dict[int, int]:
        """Each adjacent pair, keyed ``lo << 32 | hi``, mapped to the
        code of its row written ``lo|hi|code``: CAIDA's, or 1 when
        ``hi`` sells transit to ``lo``.  Built from the columns on first
        use; inserts and ``remove_edge`` keep it current."""
        if self._pairs is None:
            a, b, code = self.edge_columns()
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            code = np.where((code == _P2C) & (a > b), 1, code)
            self._pairs = dict(zip(_pair_keys(lo, hi).tolist(), code.tolist()))
        return self._pairs

    def add_as(self, asn: int) -> None:
        """Insert an AS with no links (idempotent)."""
        self._check_asn(asn)
        if asn not in self._ases:
            self._ases[asn] = None
            self._changed()

    def _insert(self, a: int, b: int, code: int) -> None:
        """Append the row ``a|b|code`` after inserting its ends and
        refusing a self-loop or a second edge; update the pair map."""
        known = self._ases
        # Only a plain int that is already a key skips ``add_as``:
        # ``True`` and ``1.0`` hash like AS1 and must still be refused.
        if type(a) is not int or a not in known:
            self.add_as(a)
        if type(b) is not int or b not in known:
            self.add_as(b)
        if a == b:
            raise TopologyError(f"self-loop on AS{a} is not allowed")
        pairs = self._pair_map()
        key = a << 32 | b if a < b else b << 32 | a
        if key in pairs:
            raise DuplicateEdgeError(
                f"edge AS{a}-AS{b} already exists with relationship "
                f"{self.relationship(a, b).value}"
            )
        pairs[key] = 1 if code == _P2C and a > b else code
        tail_a, tail_b, tail_code = self._tail
        tail_a.append(a)
        tail_b.append(b)
        tail_code.append(code)
        self._changed()

    def add_p2c(self, provider: int, customer: int) -> None:
        """Add a transit edge: ``provider`` sells transit to ``customer``."""
        self._insert(provider, customer, _P2C)

    def add_p2p(self, a: int, b: int) -> None:
        """Add a settlement-free peering edge between ``a`` and ``b``."""
        self._insert(a, b, _P2P)

    def add_s2s(self, a: int, b: int) -> None:
        """Add a sibling edge (two ASes of one organisation)."""
        self._insert(a, b, _S2S)

    def add_edge(self, a: int, b: int, relationship: Relationship) -> None:
        """Add an edge with ``relationship`` being *b's role relative to a*."""
        if relationship is Relationship.PROVIDER:
            a, b, relationship = b, a, Relationship.CUSTOMER
        code = _CODE_OF_ROLE.get(relationship)
        if code is None:
            raise TopologyError(f"cannot add an edge with relationship {relationship}")
        self._insert(a, b, code)

    def remove_edge(self, a: int, b: int) -> None:
        """Remove the edge between ``a`` and ``b`` (it must exist)."""
        if not self.has_edge(a, b):
            raise TopologyError(f"no edge between AS{a} and AS{b}")
        del self._pairs[a << 32 | b if a < b else b << 32 | a]
        ca, cb, code = self.edge_columns()
        kept = ((ca != a) | (cb != b)) & ((ca != b) | (cb != a))
        self._a, self._b, self._code = ca[kept], cb[kept], code[kept]
        self._changed()

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
        return len(self._code) + len(self._tail[2])

    def _require(self, asn: int) -> None:
        if asn not in self._ases:
            raise UnknownASError(asn)

    def _role(self, role: Relationship, asn: int) -> frozenset[int]:
        self._require(asn)
        return frozenset(self.relatives(role).get(asn, ()))

    def providers_of(self, asn: int) -> frozenset[int]:
        """The ASes selling transit to ``asn``."""
        return self._role(Relationship.PROVIDER, asn)

    def customers_of(self, asn: int) -> frozenset[int]:
        """The ASes buying transit from ``asn``."""
        return self._role(Relationship.CUSTOMER, asn)

    def peers_of(self, asn: int) -> frozenset[int]:
        """The settlement-free peers of ``asn``."""
        return self._role(Relationship.PEER, asn)

    def siblings_of(self, asn: int) -> frozenset[int]:
        """The sibling ASes of ``asn``."""
        return self._role(Relationship.SIBLING, asn)

    def neighbors_of(self, asn: int) -> frozenset[int]:
        """All neighbours of ``asn`` regardless of relationship."""
        self._require(asn)
        return frozenset().union(*(self.relatives(r).get(asn, ()) for r in _ROLE_OF_HI))

    def degree(self, asn: int) -> int:
        """Total number of AS-level links incident to ``asn``."""
        self._require(asn)
        if self._degrees is None:
            a, b, _ = self.edge_columns()
            ends, counts = np.unique(np.concatenate((a, b)), return_counts=True)
            self._degrees = dict(zip(ends.tolist(), counts.tolist()))
        return self._degrees.get(asn, 0)

    def transit_degree(self, asn: int) -> int:
        """Number of customers — CAIDA's AS-Rank ordering key."""
        self._require(asn)
        return len(self.relatives(Relationship.CUSTOMER).get(asn, ()))

    def relationship(self, a: int, b: int) -> Relationship:
        """The role of ``b`` relative to ``a`` (``NONE`` if not adjacent)."""
        # With both ends known, each half of the key fits 32 bits.
        if a not in self._ases or b not in self._ases:
            return Relationship.NONE
        code = self._pair_map().get(a << 32 | b if a < b else b << 32 | a)
        if code is None:
            return Relationship.NONE
        return (_ROLE_OF_HI if a < b else _ROLE_OF_LO)[code + 1]

    def has_edge(self, a: int, b: int) -> bool:
        return self.relationship(a, b) is not Relationship.NONE

    def edge_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every edge once, in insertion order, as ``from_edge_columns``
        reads them: int64 ``a`` and ``b`` and int8 ``code`` columns.

        The arrays are the graph's own store: read them, never write.
        """
        tail_a, tail_b, tail_code = self._tail
        if tail_code:
            self._a = np.concatenate((self._a, np.frombuffer(tail_a, dtype=np.uintc)))
            self._b = np.concatenate((self._b, np.frombuffer(tail_b, dtype=np.uintc)))
            self._code = np.concatenate((self._code, np.frombuffer(tail_code, dtype=np.int8)))
            self._tail = _new_tail()
        return self._a, self._b, self._code

    def relatives(
        self, role: Relationship, among: Iterable[int] | None = None
    ) -> dict[int, list[int]]:
        """Each AS with a neighbour in ``role`` (a customer, provider,
        peer or sibling) mapped to those neighbours; the keys ascend,
        the members come in no promised order.  ``among`` keeps only
        those ASes as keys.

        One NumPy pass over the edge columns, kept per role until the
        graph changes (a map ``among`` some ASes is not kept).  The role
        queries (``customers_of`` ...) and the tier and cone queries
        (:mod:`repro.topology.tiers`) read these maps.
        """
        if self._relatives is None:
            self._relatives = {}
        found = self._relatives.get(role) if among is None else None
        if found is not None:
            return found
        a, b, code = self.edge_columns()
        if role is Relationship.CUSTOMER or role is Relationship.PROVIDER:
            rows = code == _P2C
            owner, member = a[rows], b[rows]
            if role is Relationship.PROVIDER:
                owner, member = member, owner
        elif role is Relationship.PEER or role is Relationship.SIBLING:
            rows = code == (_P2P if role is Relationship.PEER else _S2S)
            owner = np.concatenate((a[rows], b[rows]))
            member = np.concatenate((b[rows], a[rows]))
        else:
            raise TopologyError(f"no AS is related to another as {role}")
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
        symmetric edges are yielded with ``a < b``.  Edges come by
        ascending ``a``; an AS's customers, then its peers, then its
        siblings, each ascending.
        """
        a, b, code = self.edge_columns()
        transit = code == _P2C
        lo = np.where(transit, a, np.minimum(a, b))
        hi = np.where(transit, b, np.maximum(a, b))
        rank = _EDGE_RANK[code + 1]
        order = np.lexsort((hi, rank, lo))
        for start in range(0, len(order), _EDGE_BLOCK):
            rows = order[start : start + _EDGE_BLOCK]
            for x, y, r in zip(lo[rows].tolist(), hi[rows].tolist(), rank[rows].tolist()):
                yield x, y, _RANKED_ROLES[r]

    def copy(self) -> "ASGraph":
        """A copy of the graph's ASes and edges (no derived map or memo
        is carried); the two share no state a mutation reaches."""
        clone = ASGraph.__new__(ASGraph)
        clone.__setstate__(self.__getstate__())
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ASGraph(ases={len(self)}, edges={self.num_edges})"


def _new_tail() -> tuple[array, array, array]:
    """Empty ``a`` / ``b`` / ``code`` arrays for inserted rows: AS
    numbers are 32-bit, so C unsigned ints hold them."""
    return array("I"), array("I"), array("b")


def _pair_keys(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """One key per unordered pair, ``lo << 32 | hi``."""
    return lo.astype(np.uint64) << np.uint64(32) | hi.astype(np.uint64)


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
