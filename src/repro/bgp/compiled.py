"""Compiled dense-array propagation core.

This module is the per-activation loop behind
:class:`repro.bgp.engine.PropagationEngine` (and the topology arrays
the wave kernel of :mod:`repro.bgp.vectorized` shares).  It trades the
dict-of-tuples interpretation of the reference interpreter
(``tests/bgp/reference_engine.py``, its oracle) for three flat data
structures:

* :class:`CompiledTopology` — ASNs renumbered into a dense ``0..N-1``
  index space (index order == ascending-ASN order, so index
  comparisons reproduce the decision process's ASN tie-breaks) with
  adjacency flattened into contiguous CSR-style arrays
  (``array('i')``/``array('b')``): neighbour index, the preference
  class the neighbour assigns, the always-export bit and the sibling
  bit per directed edge slot, plus a reverse-slot map so an
  announcement lands directly in the receiver's Adj-RIB-in slot.

* :class:`InternTable` — AS-paths interned as canonical run-length
  chains, so the decision loop compares paths by ``(pref, length,
  sender)`` with plain ``int`` comparisons and checks loop prevention
  with one big-int mask AND, never materialising a tuple.  Paths are
  reified into real tuples only when a
  :class:`~repro.bgp.engine.PropagationOutcome` is built, which keeps
  the public API and every result bit-identical to the reference
  interpreter (the invariant/differential suites check it).

* :class:`CompiledState` — a converged run's best/rib arrays, attached
  to the outcome so warm starts (attack onsets), row reads and
  pollution reports stay in compiled space: loading a warm start is
  five C-speed list copies.

Canonical interning is a correctness requirement, not just a speed-up:
the decision loop asks "did my best route actually change?" by
value equality, so two equal paths must always intern to the same id
(:meth:`InternTable.extend` merges adjacent runs of the same head to
guarantee this).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import deque
from collections.abc import Iterable, Mapping
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.bgp.prepending import PrependingPolicy
from repro.bgp.route import Route
from repro.exceptions import ConvergenceError, TopologyError, UnknownASError
from repro.telemetry.metrics import RunMetrics
from repro.topology.asgraph import ASGraph
from repro.topology.relationships import PrefClass, Relationship

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from repro.bgp.engine import PropagationOutcome

__all__ = ["CompiledTopology", "InternTable", "CompiledState", "run_compiled"]

#: :func:`run_compiled` raises :class:`ConvergenceError` after this many
#: worklist activations *per AS*; valley-free configurations converge
#: in a handful.
MAX_ACTIVATIONS = 50

#: Byte code -> relationship for the per-slot role array (the code is
#: the role of the neighbour relative to the slot's owner).
_CODE_REL = (
    Relationship.CUSTOMER,
    Relationship.PROVIDER,
    Relationship.PEER,
    Relationship.SIBLING,
)

#: PrefClass members indexable by their integer value (0..4).
_PREF_OF = tuple(sorted(PrefClass, key=int))

#: Export-to-peers/providers is allowed for ORIGIN/CUSTOMER/SIBLING
#: routes — the largest such class value, as an int for the hot loop.
_EXPORTABLE_UP_MAX = int(PrefClass.SIBLING)


def _role_table(column: Callable[[Relationship], int]) -> bytes:
    """256-byte ``bytes.translate`` table: role code -> per-slot column value."""
    return bytes(column(role) for role in _CODE_REL).ljust(256, b"\0")


_INV_PREF_OF_ROLE = _role_table(
    lambda role: int(PrefClass.for_relationship(role.inverse()))
)
_ALWAYS_EXPORT_OF_ROLE = _role_table(
    lambda role: role in (Relationship.CUSTOMER, Relationship.SIBLING)
)
_IS_SIBLING_OF_ROLE = _role_table(lambda role: role is Relationship.SIBLING)

#: Edge code + 1 (CAIDA's -1 / 0 / 2) -> role code of ``b`` relative to
#: ``a``, and of ``a`` relative to ``b``; index 2 (code 1) is unused.
_ROLE_OF_B = np.array([0, 2, 0, 3], dtype=np.int8)
_ROLE_OF_A = np.array([1, 2, 0, 3], dtype=np.int8)


def _int_array(column: np.ndarray) -> array:
    """``column`` as a C-int ``array('i')``."""
    return array("i", column.astype(np.intc).tobytes())


class CompiledTopology:
    """A relationship-annotated AS graph in dense CSR form.

    ``asn[i]`` is the AS number at index ``i`` and ascending index is
    ascending ASN.  Slot ``k`` in ``indptr[i]:indptr[i+1]`` describes
    the directed edge from ``i`` to ``nbr[k]`` (neighbours ascending,
    matching the reference interpreter's announcement order):

    * ``inv_pref[k]`` — preference class ``nbr[k]`` assigns to routes
      announced by ``i`` (the relationship seen from the far side);
    * ``always_export[k]`` — 1 when valley-free export from ``i`` to
      ``nbr[k]`` is unconditional (customer or sibling);
    * ``is_sibling[k]`` — 1 for sibling edges (the receiver inherits
      the sender's own preference class);
    * ``role_code[k]`` — the neighbour's role relative to ``i``
      (:data:`_CODE_REL`), which ASPA validation reads;
    * ``rev_slot[k]`` — the slot of ``i`` inside ``nbr[k]``'s block,
      i.e. the receiver-side Adj-RIB-in cell this edge announces into.

    ``iter_order`` preserves the source graph's insertion order so
    emitted outcome dicts iterate exactly like the reference interpreter's.
    """

    __slots__ = (
        "n",
        "asn",
        "index",
        "iter_order",
        "indptr",
        "nbr",
        "inv_pref",
        "always_export",
        "is_sibling",
        "role_code",
        "rev_slot",
        "_hot",
        "_slot_index",
        "_bits",
        "_np",
    )

    def __init__(
        self,
        *,
        asn: array,
        iter_order: array,
        indptr: array,
        nbr: array,
        inv_pref: array,
        always_export: array,
        is_sibling: array,
        role_code: array,
        rev_slot: array,
    ) -> None:
        self.n = len(asn)
        self.asn = asn
        self.index = {a: i for i, a in enumerate(asn)}
        self.iter_order = iter_order
        self.indptr = indptr
        self.nbr = nbr
        self.inv_pref = inv_pref
        self.always_export = always_export
        self.is_sibling = is_sibling
        self.role_code = role_code
        self.rev_slot = rev_slot
        self._hot: tuple[list, ...] | None = None
        self._slot_index: list[dict[int, int]] | None = None
        self._bits: list[int] | None = None
        # NumPy edge views, built lazily by repro.bgp.vectorized.
        self._np = None

    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: ASGraph) -> "CompiledTopology":
        """Compile ``graph`` (index ``i`` = rank of the ASN in sorted order).

        One NumPy pass over :meth:`ASGraph.edge_columns`: each edge
        becomes its two directed slots, sorted by ``(sender,
        neighbour)``.  This always builds; everything outside this
        module asks for :meth:`of`, which builds at most once per graph.
        """
        iteration = np.fromiter(graph, dtype=np.int64, count=len(graph))
        asns = np.sort(iteration)
        n = len(asns)
        a, b, code = graph.edge_columns()
        m = len(a)
        ia, ib = np.searchsorted(asns, a), np.searchsorted(asns, b)
        sender = np.concatenate((ia, ib))
        receiver = np.concatenate((ib, ia))
        # Slot t < m is a -> b and slot t + m is b -> a: each other's reverse.
        role = np.concatenate((_ROLE_OF_B[code + 1], _ROLE_OF_A[code + 1]))
        order = np.argsort(sender * n + receiver)
        position = np.empty_like(order)
        position[order] = np.arange(2 * m)
        rev_slot = position[np.where(order < m, order + m, order - m)]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(sender, minlength=n), out=indptr[1:])
        roles = role[order].tobytes()
        return cls(
            asn=array("q", asns.tobytes()),
            iter_order=_int_array(np.searchsorted(asns, iteration)),
            indptr=_int_array(indptr),
            nbr=_int_array(receiver[order]),
            inv_pref=array("b", roles.translate(_INV_PREF_OF_ROLE)),
            always_export=array("b", roles.translate(_ALWAYS_EXPORT_OF_ROLE)),
            is_sibling=array("b", roles.translate(_IS_SIBLING_OF_ROLE)),
            role_code=array("b", roles),
            rev_slot=_int_array(rev_slot),
        )

    @classmethod
    def of(cls, graph: ASGraph) -> "CompiledTopology":
        """The compiled form of ``graph``, built at most once per graph.

        The topology is memoised on the graph itself; any mutation of
        the graph drops it, so the next caller compiles the new shape.
        Holders of the old topology (an engine mid-campaign, its intern
        tables) keep a consistent snapshot.
        """
        topo = graph._compiled
        if topo is None:
            topo = graph._compiled = cls.from_graph(graph)
        return topo

    # ------------------------------------------------------------------
    def hot_arrays(self) -> tuple[list, ...]:
        """The CSR columns as plain lists (pre-boxed ints for the loop)."""
        if self._hot is None:
            self._hot = (
                list(self.indptr),
                list(self.nbr),
                list(self.inv_pref),
                list(self.always_export),
                list(self.is_sibling),
                list(self.rev_slot),
                list(self.asn),
            )
        return self._hot

    def link_slots(self, links: Iterable[tuple[int, int]]) -> list[int]:
        """Both directed slots of every ``(a, b)`` link in ``links``.

        ``a``'s CSR row is ascending, so ``b``'s slot in it is a binary
        search, and ``rev_slot`` gives ``a``'s slot in ``b``'s row.  An
        AS the topology lacks raises :class:`UnknownASError`, a pair
        that is not adjacent :class:`TopologyError`.
        """
        index, indptr, nbr = self.index, self.indptr, self.nbr
        slots: list[int] = []
        for a, b in links:
            for asn in (a, b):
                if asn not in index:
                    raise UnknownASError(asn)
            i, j = index[a], index[b]
            k = bisect_left(nbr, j, indptr[i], indptr[i + 1])
            if k == indptr[i + 1] or nbr[k] != j:
                raise TopologyError(f"AS{a} and AS{b} share no link")
            slots += (k, self.rev_slot[k])
        return slots

    @property
    def slot_index(self) -> list[dict[int, int]]:
        """Per-receiver map of sender index -> Adj-RIB-in slot."""
        if self._slot_index is None:
            self._slot_index = [
                {self.nbr[k]: k for k in range(self.indptr[i], self.indptr[i + 1])}
                for i in range(self.n)
            ]
        return self._slot_index

    @property
    def bits(self) -> list[int]:
        """``bits[i] == 1 << i`` — membership bits for loop prevention."""
        if self._bits is None:
            self._bits = [1 << i for i in range(self.n)]
        return self._bits

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledTopology(ases={self.n}, slots={len(self.nbr)})"


class InternTable:
    """Canonical interning of AS-paths over one :class:`CompiledTopology`.

    A path is a chain of run-length nodes: node ``p`` represents
    ``(head[p],) * run[p] + path(parent[p])`` with the *tail* of the
    AS-path (the origin's padded run) at the bottom of the chain.  Node
    0 is the empty path.  Per node the table keeps the total ``length``
    and a big-int ``mask`` of member indices, so the propagation loop
    answers "how long is this path?" and "does it already contain AS
    ``i``?" in O(1)/one AND.

    :meth:`extend` is canonical — extending by a head equal to the
    base's own head merges into one run — so *equal paths always have
    equal ids*, which is what lets the engine replace tuple equality
    with id equality.  ASNs outside the topology (a path modifier may
    inject them) get synthetic indices ``>= n``.

    ``hits``/``misses`` count node lookups vs. creations; the engine
    reports them as ``engine.compiled.intern_hits/_misses``.
    """

    __slots__ = (
        "topo",
        "parent",
        "head",
        "run",
        "length",
        "mask",
        "_nodes",
        "_tuple_memo",
        "_reified",
        "_extra_index",
        "_extra_asn",
        "hits",
        "misses",
    )

    def __init__(self, topo: CompiledTopology) -> None:
        self.topo = topo
        self.parent: list[int] = [0]
        self.head: list[int] = [-1]
        self.run: list[int] = [0]
        self.length: list[int] = [0]
        self.mask: list[int] = [0]
        self._nodes: dict[tuple[int, int, int], int] = {}
        self._tuple_memo: dict[tuple[int, ...], int] = {(): 0}
        self._reified: dict[int, tuple[int, ...]] = {0: ()}
        self._extra_index: dict[int, int] = {}
        self._extra_asn: list[int] = []
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self.parent)

    @property
    def reified_count(self) -> int:
        return len(self._reified)

    # ------------------------------------------------------------------
    def index_of(self, asn: int) -> int:
        """Index of ``asn``, allocating a synthetic one off-topology."""
        idx = self.topo.index.get(asn)
        if idx is None:
            idx = self._extra_index.get(asn)
            if idx is None:
                idx = self.topo.n + len(self._extra_asn)
                self._extra_index[asn] = idx
                self._extra_asn.append(asn)
        return idx

    def asn_of(self, idx: int) -> int:
        topo = self.topo
        return topo.asn[idx] if idx < topo.n else self._extra_asn[idx - topo.n]

    def extend(self, base: int, head_idx: int, count: int) -> int:
        """Id of ``(head,) * count + path(base)`` (canonical)."""
        if self.head[base] == head_idx:
            count += self.run[base]
            base = self.parent[base]
        key = (base, head_idx, count)
        pid = self._nodes.get(key)
        if pid is None:
            self.misses += 1
            pid = len(self.parent)
            self._nodes[key] = pid
            self.parent.append(base)
            self.head.append(head_idx)
            self.run.append(count)
            self.length.append(self.length[base] + count)
            self.mask.append(self.mask[base] | (1 << head_idx))
        else:
            self.hits += 1
        return pid

    def intern_tuple(self, path: tuple[int, ...]) -> int:
        """Id of an explicit AS-path tuple (memoised)."""
        pid = self._tuple_memo.get(path)
        if pid is None:
            pid = 0
            current: int | None = None
            count = 0
            for asn in reversed(path):
                if asn == current:
                    count += 1
                else:
                    if count:
                        pid = self.extend(pid, self.index_of(current), count)
                    current = asn
                    count = 1
            if count:
                pid = self.extend(pid, self.index_of(current), count)
            self._tuple_memo[path] = pid
        return pid

    def reify(self, pid: int) -> tuple[int, ...]:
        """The real AS-path tuple for ``pid`` (memoised; shared suffixes
        are built once per table)."""
        path = self._reified.get(pid)
        if path is None:
            head_idx = self.head[pid]
            topo = self.topo
            asn = (
                topo.asn[head_idx]
                if head_idx < topo.n
                else self._extra_asn[head_idx - topo.n]
            )
            path = (asn,) * self.run[pid] + self.reify(self.parent[pid])
            self._reified[pid] = path
        return path

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"InternTable(nodes={len(self.parent)}, reified={len(self._reified)})"


class CompiledState:
    """A converged routing state in compiled (index / intern-id) space.

    Attached to every :class:`~repro.bgp.engine.PropagationOutcome` the
    compiled cores produce, so a warm start loads the arrays
    straight back instead of re-interning thousands of path tuples.
    ``best_pref[i] == -1`` means no route; ``rib_pid[k]`` is ``-2`` for
    an absent offer and ``-1`` for an explicit withdrawal — the
    distinction the outcome's Adj-RIB-in keeps between "never offered" and
    ``None`` in the Adj-RIB-in.

    The state pins its :class:`InternTable` (and through it the
    topology); it is derived data and never pickled
    (``PropagationOutcome.__getstate__`` drops it).
    """

    __slots__ = (
        "table",
        "best_pref",
        "best_pid",
        "best_from",
        "rib_pid",
        "rib_pref",
        "warm_base",
        "touched",
        "_trav",
    )

    def __init__(
        self,
        table: InternTable,
        best_pref: list[int],
        best_pid: list[int],
        best_from: list[int],
        rib_pid: list[int],
        rib_pref: list[int],
    ) -> None:
        self.table = table
        self.best_pref = best_pref
        self.best_pid = best_pid
        self.best_from = best_from
        self.rib_pid = rib_pid
        self.rib_pref = rib_pref
        #: what a warm run leaves behind (unset on a cold one): the
        #: state its arrays started as a copy of — the best arrays have
        #: been rewritten since only where the outcome carries an
        #: adoption stamp — and how many ASes saw their best route or
        #: Adj-RIB-in change at all.
        self.warm_base: CompiledState | None = None
        self.touched = 0
        #: per-attacker traversal membership memo (lazily created by
        #: :mod:`repro.attack.impact`); converged states are immutable,
        #: so the memo never invalidates.
        self._trav: dict[int, frozenset[int]] | None = None

    @property
    def topo(self) -> CompiledTopology:
        return self.table.topo

    def best_row(self, i: int) -> tuple[int, int, int]:
        """``(pref, path id, learned-from index)`` of AS index ``i`` —
        what :meth:`PropagationOutcome.route_of` reifies."""
        return self.best_pref[i], self.best_pid[i], self.best_from[i]


# ----------------------------------------------------------------------
# Emission: reify a converged state's interned paths into the public
# tuple-based outcome dicts (memoised per table, so repeated paths are
# built once).  Both compiled cores emit through these.
def emitters(prefix: str, state: CompiledState) -> tuple[Callable, Callable]:
    """``(emit_best, emit_offers)`` over ``state``: AS index ``i``'s
    best route and its decision key, and its Adj-RIB-in (``None`` for
    an explicit withdrawal)."""
    indptr, nbr, *_, asn_of = state.topo.hot_arrays()
    table = state.table
    reify, length = table.reify, table.length
    best_pref, best_pid, best_from = state.best_pref, state.best_pid, state.best_from
    rib_pid, rib_pref = state.rib_pid, state.rib_pref
    pref_of = _PREF_OF

    def emit_best(i: int) -> tuple[Route | None, tuple[int, int, int] | None]:
        p = best_pref[i]
        if p < 0:
            return None, None
        pid = best_pid[i]
        learned_idx = best_from[i]
        learned = None if learned_idx < 0 else asn_of[learned_idx]
        return (
            Route(prefix, reify(pid), learned, pref_of[p]),
            (p, length[pid], -1 if learned is None else learned),
        )

    def emit_offers(i: int) -> dict[int, tuple[tuple[int, ...], PrefClass] | None]:
        offers: dict[int, tuple[tuple[int, ...], PrefClass] | None] = {}
        for k in range(indptr[i], indptr[i + 1]):
            pid = rib_pid[k]
            if pid == -2:
                continue
            offers[asn_of[nbr[k]]] = (
                None if pid == -1 else (reify(pid), pref_of[rib_pref[k]])
            )
        return offers

    return emit_best, emit_offers


def emit_world(prefix: str, state: CompiledState) -> tuple[dict, dict, dict]:
    """A cold run's ``(best, adj_rib_in, best_keys)`` dicts, every AS in
    the reference interpreter's iteration order."""
    emit_best, emit_offers = emitters(prefix, state)
    asn_of = state.topo.hot_arrays()[-1]
    best_out: dict = {}
    keys_out: dict = {}
    adj_out: dict = {}
    for i in state.topo.iter_order:
        a = asn_of[i]
        best_out[a], keys_out[a] = emit_best(i)
        adj_out[a] = emit_offers(i)
    return best_out, adj_out, keys_out


# ----------------------------------------------------------------------
def run_compiled(
    topo: CompiledTopology,
    table: InternTable,
    *,
    origin: int,
    prefix: str,
    prepending: PrependingPolicy,
    modifiers: Mapping[int, Callable[[tuple[int, ...]], tuple[int, ...]]],
    violators: frozenset[int],
    blocked: list[int] | None,
    warm_start: "PropagationOutcome | None",
    seed: set[int] | None,
    metrics: RunMetrics | None,
    secpol: object | None = None,
) -> "PropagationOutcome":
    """One propagation fixpoint on the compiled arrays.

    Arguments arrive validated and defaulted by
    :meth:`PropagationEngine.propagate`; the control flow below mirrors
    the reference interpreter (``tests/bgp/reference_engine.py``)
    statement for statement — same activation trace, same adoption
    stamps — with paths held as intern ids until the outcome is
    emitted.  ``violators`` export every route to every neighbour.
    ``blocked`` lists the slots of failed links
    (:meth:`CompiledTopology.link_slots`): an offer on one still lands
    in the receiver's Adj-RIB-in, and the decision never admits it.
    ``secpol`` is the security-policy deployment hook: deployed
    receivers are marked in a dense bytearray and take the full
    decision scan, where the policy's pid-space checker judges each
    offer without reifying a tuple.

    The loop is a FIFO worklist with an O(1) per-offer fast path, and
    nothing else: the other disciplines (LIFO or random activation, a
    full Adj-RIB-in rescan on every rib change) are the reference
    interpreter's, which the test suites compare it against.  A warm
    start's :class:`CompiledState` is over ``table``.
    """
    index = topo.index
    n = topo.n
    indptr, nbr, inv_pref, always_export, is_sib, rev, asn_of = topo.hot_arrays()
    bits = topo.bits
    length = table.length
    mask = table.mask
    extend = table.extend
    reify = table.reify
    origin_idx = index[origin]
    num_slots = len(nbr)

    track = metrics is not None
    if track:
        announcements = fastpath_hits = fastpath_misses = best_changes = 0
        peak_queue = 0
        intern_hits_start = table.hits
        intern_misses_start = table.misses
        reified_start = table.reified_count

    if warm_start is not None:
        # Five array copies of the converged state.
        warm_base = warm_start.compiled_state
        best_pref = warm_base.best_pref.copy()
        best_pid = warm_base.best_pid.copy()
        best_from = warm_base.best_from.copy()
        rib_pid = warm_base.rib_pid.copy()
        rib_pref = warm_base.rib_pref.copy()
        adoption: dict[int, int] = {}
        initial = sorted(index[a] for a in seed)
    else:
        best_pref = [-1] * n
        best_pid = [0] * n
        best_from = [-1] * n
        best_pref[origin_idx] = int(PrefClass.ORIGIN)
        rib_pid = [-2] * num_slots
        rib_pref = [0] * num_slots
        adoption = {origin_idx: 0}
        initial = [origin_idx]

    # Policy state in index space (non-graph ASNs can never activate).
    violator_idx = {index[a] for a in violators}
    pad_senders = {index[a] for a in prepending.senders() if a in index}
    mods = {index[a]: fn for a, fn in modifiers.items()}
    # Failed links as a dense slot mask, both directions: an offer on a
    # refused slot is recorded, then never admitted.
    refused = bytearray(num_slots)
    for k in blocked or ():
        refused[k] = 1

    # Security-policy deployment as a dense bitmask: the hot loop pays
    # one bytearray index per offer whether or not a policy is attached,
    # and the pid-space checker runs only inside deployed receivers'
    # full scans.  ``secpol.evaluated``/``secpol.filtered`` count every
    # offer the policy judged on a live link.
    sec_deployed = bytearray(n)
    sec_fn = None
    sec_count = 0
    if secpol is not None:
        sec_fn = secpol.compiled_checker(table)
        for a in secpol.deployers:
            i = index.get(a)
            if i is not None and not sec_deployed[i]:
                sec_deployed[i] = 1
                sec_count += 1
    sec_eval = sec_filt = 0

    def decide(recv: int, sec) -> tuple[int, int, int]:
        """Full Adj-RIB-in scan: min preference key, reference order."""
        nonlocal sec_eval, sec_filt
        b_pref = -1
        b_pid = 0
        b_from = -1
        b_len = 0
        for k in range(indptr[recv], indptr[recv + 1]):
            pid = rib_pid[k]
            if pid < 0 or refused[k]:
                continue
            p = rib_pref[k]
            snd = nbr[k]
            if sec is not None:
                sec_eval += 1
                if not sec(recv, snd, pid):
                    sec_filt += 1
                    continue
            plen = length[pid]
            if (
                b_from < 0
                or p < b_pref
                or (p == b_pref and (plen < b_len or (plen == b_len and snd < b_from)))
            ):
                b_pref = p
                b_pid = pid
                b_from = snd
                b_len = plen
        return b_pref, b_pid, b_from

    round_of = [0] * n
    # Receivers whose Adj-RIB-in changed — warm-run emission rebuilds
    # only these (the compiled mirror of the reference interpreter's
    # copy-on-write clone).
    rib_touched: set[int] = set()
    queue: deque[int] = deque(initial)
    queued = bytearray(n)
    for i in initial:
        queued[i] = 1
    operations = 0
    budget = MAX_ACTIVATIONS * max(1, n)
    max_round = 0
    padding_of = prepending.padding
    while queue:
        operations += 1
        if operations > budget:
            raise ConvergenceError(operations)
        s = queue.popleft()
        queued[s] = 0
        s_pref = best_pref[s]
        has_route = s_pref >= 0
        sender_round = round_of[s]
        block_start = indptr[s]
        block_end = indptr[s + 1]
        if track:
            qlen = len(queue) + 1  # including the activation just popped
            if qlen > peak_queue:
                peak_queue = qlen
            announcements += block_end - block_start
        if has_route:
            base_pid = best_pid[s]
            modifier = mods.get(s)
            if modifier is not None:
                base_pid = table.intern_tuple(modifier(reify(base_pid)))
            exportable_up = s_pref <= _EXPORTABLE_UP_MAX
            sender_violates = s in violator_idx
            sender_pads = s in pad_senders
            s_asn = asn_of[s]
            pid_by_count: dict[int, int] = {}
        for k in range(block_start, block_end):
            nb = nbr[k]
            offer_pid = -1  # None/no offer
            offer_pref = 0
            if has_route:
                if sender_violates or always_export[k] or exportable_up:
                    count = padding_of(s_asn, asn_of[nb]) if sender_pads else 1
                    pid = pid_by_count.get(count)
                    if pid is None:
                        pid = extend(base_pid, s, count)
                        pid_by_count[count] = pid
                    # Receiver-side loop prevention: one mask AND
                    # instead of scanning the path tuple.
                    if not mask[pid] & bits[nb]:
                        offer_pid = pid
                        offer_pref = s_pref if is_sib[k] else inv_pref[k]
            slot = rev[k]
            if offer_pid < 0:
                if rib_pid[slot] < 0:
                    # absent or already-withdrawn: rib.get(sender) == None
                    continue
                rib_pid[slot] = -1
            else:
                if rib_pid[slot] == offer_pid and rib_pref[slot] == offer_pref:
                    continue
                rib_pid[slot] = offer_pid
                rib_pref[slot] = offer_pref
            rib_touched.add(nb)
            if nb == origin_idx or refused[slot]:
                # the owner always keeps its own route, and a failed
                # link's offer never reaches the decision
                continue
            cur_pref = best_pref[nb]
            if sec_deployed[nb]:
                if track:
                    fastpath_misses += 1
                new_pref, new_pid, new_from = decide(nb, sec_fn)
            elif offer_pid < 0:
                if cur_pref >= 0 and best_from[nb] == s:
                    # The best offer was withdrawn: full re-decision.
                    if track:
                        fastpath_misses += 1
                    new_pref, new_pid, new_from = decide(nb, None)
                else:
                    if track:
                        fastpath_hits += 1
                    continue  # losing a non-best offer changes nothing
            elif cur_pref < 0:
                if track:
                    fastpath_hits += 1
                new_pref, new_pid, new_from = offer_pref, offer_pid, s
            elif best_from[nb] == s:
                # cand_key <= current_key with an equal sender component.
                if offer_pref < cur_pref or (
                    offer_pref == cur_pref
                    and length[offer_pid] <= length[best_pid[nb]]
                ):
                    if track:
                        fastpath_hits += 1
                    new_pref, new_pid, new_from = offer_pref, offer_pid, s
                else:
                    if track:
                        fastpath_misses += 1
                    new_pref, new_pid, new_from = decide(nb, None)
            else:
                if offer_pref > cur_pref:
                    if track:
                        fastpath_hits += 1
                    continue  # a worse-ranked offer cannot displace the best
                if offer_pref == cur_pref:
                    cand_len = length[offer_pid]
                    best_len = length[best_pid[nb]]
                    if cand_len > best_len or (
                        cand_len == best_len and s > best_from[nb]
                    ):
                        if track:
                            fastpath_hits += 1
                        continue
                if track:
                    fastpath_hits += 1
                new_pref, new_pid, new_from = offer_pref, offer_pid, s
            # Unchanged decision: canonical interning makes path
            # equality id equality, so this is the reference interpreter's
            # ``new_best == current`` test in three int compares.
            if new_pref == cur_pref and (
                cur_pref < 0 or (new_pid == best_pid[nb] and new_from == best_from[nb])
            ):
                continue
            if track:
                best_changes += 1
            if new_pref < 0:
                best_pref[nb] = -1
                best_pid[nb] = 0
                best_from[nb] = -1
            else:
                best_pref[nb] = new_pref
                best_pid[nb] = new_pid
                best_from[nb] = new_from
            stamp = sender_round + 1
            adoption[nb] = stamp
            round_of[nb] = stamp
            if stamp > max_round:
                max_round = stamp
            if not queued[nb]:
                queue.append(nb)
                queued[nb] = 1

    # ------------------------------------------------------------------
    # Emission (``emit_world`` / ``emitters``): cold runs build every
    # dict in the reference interpreter's iteration order; warm runs copy
    # the warm start's dicts and rebuild only what the attack actually
    # perturbed — the compiled counterpart of the reference interpreter's
    # copy-on-write clone, with identical dict contents.  Emission is
    # *deferred*: the outcome carries this closure and runs it on first
    # access to ``best``/``adj_rib_in``/``best_keys``, so a pipeline that
    # only consumes the attached compiled state (warm starts, row reads,
    # pollution masks) never builds a tuple.
    def materialise(out: "PropagationOutcome") -> None:
        if track:
            metrics.count("engine.compiled.worlds_emitted")
        if warm_start is None:
            out._set_materialised(*emit_world(prefix, state))
            return
        emit_best, emit_offers = emitters(prefix, state)
        best_out = dict(warm_start.best)
        adj_out = dict(warm_start.adj_rib_in)
        keys_out = dict(warm_start.best_keys)
        for i in adoption:
            a = asn_of[i]
            best_out[a], keys_out[a] = emit_best(i)
        for i in rib_touched:
            adj_out[asn_of[i]] = emit_offers(i)
        out._set_materialised(best_out, adj_out, keys_out)

    from repro.bgp.engine import PropagationOutcome  # deferred: engine imports us

    outcome = PropagationOutcome(
        prefix=prefix,
        origin=origin,
        adoption_round={asn_of[i]: stamp for i, stamp in adoption.items()},
        rounds=max_round,
        emit=materialise,
    )
    outcome.compiled_state = state = CompiledState(
        table, best_pref, best_pid, best_from, rib_pid, rib_pref
    )
    if warm_start is not None:
        state.warm_base = warm_base
        state.touched = len(rib_touched | adoption.keys())

    if track:
        # Warm/cold accounting (the pooled-vs-serial determinism
        # contract covers engine.warm.*), plus counters under
        # engine.compiled.* — those depend on intern-table locality and
        # stay out of deterministic snapshots, like cache.*.
        ns = "engine.warm" if warm_start is not None else "engine.cold"
        metrics.count(f"{ns}.propagations")
        metrics.count(f"{ns}.activations", operations)
        metrics.count(f"{ns}.announcements", announcements)
        metrics.count(f"{ns}.fastpath_hits", fastpath_hits)
        metrics.count(f"{ns}.fastpath_misses", fastpath_misses)
        metrics.count(f"{ns}.best_changes", best_changes)
        metrics.observe(f"{ns}.convergence_rounds", max_round)
        metrics.observe(f"{ns}.queue_peak", peak_queue)
        if secpol is not None:
            metrics.count("secpol.evaluated", sec_eval)
            metrics.count("secpol.filtered", sec_filt)
            metrics.count("secpol.deployed_ases", sec_count)
        metrics.count("engine.compiled.propagations")
        metrics.count("engine.compiled.intern_hits", table.hits - intern_hits_start)
        metrics.count(
            "engine.compiled.intern_misses", table.misses - intern_misses_start
        )
        metrics.count(
            "engine.compiled.reified_paths", table.reified_count - reified_start
        )
        # Registered at zero so a summary states "no world was built";
        # the deferred emission above does the counting.
        metrics.count("engine.compiled.worlds_emitted", 0)

    return outcome
