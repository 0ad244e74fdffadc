"""Vectorized (NumPy) cold-path propagation core.

This module is the cold core of
:class:`repro.bgp.engine.PropagationEngine`: every cold convergence (a
baseline, or one with failed links) runs as a handful of NumPy
gather/scatter-min passes over the
:class:`~repro.bgp.compiled.CompiledTopology` CSR arrays;
:func:`~repro.bgp.compiled.run_compiled`'s per-activation Python loop
runs only warm starts.  Its domain is the packed key's: ``n < 2^21``
ASes and ``n × λ < 2^31`` for the largest padding ``λ`` (λ ≤ 26,843 on
an 80k-AS world).  A run outside it raises
:class:`~repro.exceptions.SimulationError` before converging.

Why this is exact
-----------------

Under stock valley-free policies every announcement step *strictly*
increases the decision key ``(pref class, path length)``: customer
routes (class ≤ 2) gain length going up or sideways, peer offers jump
to class 3, provider offers to class 4.  That strict monotonicity has
two consequences the core exploits:

* **Dijkstra-style wave scheduling is sound.**  The smallest
  unfinalised tentative key can never improve again (all future offers
  come from keys ≥ it and strictly increase), so each pass finalises
  the whole ``(class, length)`` level at once and relaxes only the
  newly-finalised senders' out-edges.  Every *exported* edge is
  relaxed exactly once per source — a peer or provider route is
  announced only on its sender's customer and sibling slots, so the
  offers export forbids are never built — and total work is O(E) in
  NumPy batch ops.
  Because the class field dominates the key, the wave schedule *is*
  the Gao-Rexford phase ordering: all customer-cone levels drain
  first (the customer-up sweep), then the single peer-exchange level
  band (class 3), then the provider-down levels (class 4).

* **Loop prevention needs no per-offer path scan.**  A looping offer
  announces a path containing the receiver, which makes the receiver
  an ancestor of the sender in the learned-from forest — so the
  receiver's own key is strictly smaller and the offer can never win
  a decision.  Loops only matter at Adj-RIB-in emission, where one
  Euler-tour ancestor test per slot (two array compares) reproduces
  the per-activation loop's big-int mask check.

Keys pack into one ``int64`` — ``class·2^53 + length·2^21 + sender
index`` — so a full decision (class, then length, then lowest sender
index, matching the decision process's ASN tie-break because index
order is ascending-ASN order) is a single ``np.minimum``.

Batching: the fixpoint converges B columns at once, each a
row-contiguous plane of the ``(B, N)`` key array; every wave's
gather/scatter covers all columns, so they share the per-wave overhead
of one walk.  :func:`run_vectorized` is the one-column case that builds
an outcome; :func:`vectorized_fixpoint` exposes the raw key matrix for
any number of origins without building outcomes (the 80k-AS benchmark
path — no intern table, no Python-object emission).

Impact kernel: :class:`ImpactKernel` answers impact-only attack cells —
pollution before and after, and whether the attacker kept a route —
from the same wave loop run with two fixed sources, the victim and the
attacker's stripped announcement.  It is the route of every
``SweepPointTask`` (λ-sweeps, grids) and builds nothing but keys.

Contract vs the compiled loop, which stays the oracle of a cold run
(``tests/bgp/loop_oracle.py`` calls it by name; pinned by
``tests/bgp/test_vectorized_differential.py``): cold runs agree on
``best``/``best_keys``, every *present* Adj-RIB-in entry, pollution and
reachability sets, and the attached :class:`CompiledState` arrays —
and any warm-started attack run computed *from* a vectorized baseline
matches one from a compiled baseline on every decision-relevant field:
``best``, ``best_keys``, adoption stamps, round counts, pollution
sets, and every present Adj-RIB-in offer.  Two documented discipline
differences on the cold run itself: adoption stamps are the wave
clock (forest depth) rather than FIFO activation stamps, and
transient explicit-``None`` withdrawals never occur (a converged cold
Adj-RIB-in never needs them; the slot is simply absent), exactly like
the decision process's reading of both as "no offer".  The
withdrawal difference can survive a warm run in slots the warm flood
never touches, which is why the oracle suite compares Adj-RIB-in
modulo explicit ``None``.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.bgp.compiled import (
    CompiledState,
    CompiledTopology,
    InternTable,
    emit_world,
)
from repro.bgp.prepending import PrependingPolicy
from repro.exceptions import ConvergenceError, SimulationError
from repro.telemetry.metrics import RunMetrics

__all__ = [
    "ImpactKernel",
    "run_vectorized",
    "vectorized_fixpoint",
]

# Packed decision key: class in bits 53+, length in bits 21..52,
# sender index in bits 0..20.  INF uses class 5 (> PROVIDER).
_CLS_SHIFT = 53
_LEN_SHIFT = 21
_SENDER_MASK = (1 << 21) - 1
_LEN_MASK = (1 << 32) - 1
_MAX_N = 1 << 21
_MAX_LEN = 1 << 31  # headroom below the 2^32 length field
#: ``directed edges x columns`` one impact batch may span.  A wider
#: batch shares each wave's Python overhead among more columns, but its
#: ``(columns, n)`` planes and offer temporaries leave the cache.  On
#: waves that build only exported offers the grid cells read best at
#: 3-5 columns on the 10k-AS file and flat over 33-132 on the 1,545-AS
#: world: this budget gives 5 and 66.
_IMPACT_BUDGET = 1 << 19
#: canonical baseline columns an impact kernel keeps, per victim (LRU)
_COLUMN_MEMO = 32


def _inf():
    return np.int64(5) << _CLS_SHIFT


class _EdgeViews:
    """NumPy views of a topology's CSR arrays, announce-oriented.

    Slot ``k`` is the directed edge from the sender whose ``indptr``
    block holds it to ``nbr[k]``; ``rev[k]`` is the matching Adj-RIB-in
    cell in the receiver's block.  Cached on the topology (building them
    is O(E)); all integer arrays are int64 so packed-key arithmetic
    never needs casts.

    Beside the full CSR sits an export CSR: per sender, the block of its
    ``always_export`` slots (customer and sibling receivers), the only
    ones a peer or provider route is announced on.  ``blocks`` is every
    slot number in order followed by every export block;
    ``block_lo[e * n + i]`` / ``block_len[e * n + i]`` locate sender
    ``i``'s full (``e = 0``) or export (``e = 1``) block in it.

    An offer on slot ``k`` is its sender's key restamped: the sender
    field set to the sender, the length grown by the slot's prepend
    count, and the class replaced by ``inv[k]`` unless ``k`` is a
    sibling edge.  ``keep[k]`` clears the class where it is replaced
    and ``recls[k]`` is the class put in, so with the sender field set
    per sender an offer costs one mask and one add per slot.
    """

    __slots__ = (
        "n",
        "indptr",
        "nbr",
        "inv",
        "sib",
        "rev",
        "ones",
        "blocks",
        "block_lo",
        "block_len",
        "keep",
        "recls",
    )

    def __init__(self, topo: CompiledTopology) -> None:
        self.n = topo.n
        self.indptr = np.asarray(topo.indptr).astype(np.int64)
        self.nbr = np.asarray(topo.nbr).astype(np.int64)
        degree = np.diff(self.indptr)
        self.inv = np.asarray(topo.inv_pref).astype(np.int64)
        self.sib = np.asarray(topo.is_sibling).astype(bool)
        self.rev = np.asarray(topo.rev_slot).astype(np.int64)
        #: the per-slot prepend counts of a run in which nobody pads
        self.ones = np.ones(len(self.nbr), dtype=np.int64)
        always = np.asarray(topo.always_export).astype(np.int64)
        exported = np.flatnonzero(always)
        # export slots ahead of each slot boundary
        ahead = np.concatenate([[0], np.cumsum(always)])
        export_degree = ahead[self.indptr[1:]] - ahead[self.indptr[:-1]]
        export_lo = len(self.nbr) + ahead[self.indptr[:-1]]
        self.blocks = np.concatenate([np.arange(len(self.nbr), dtype=np.int64), exported])
        self.block_lo = np.concatenate([self.indptr[:-1], export_lo])
        self.block_len = np.concatenate([degree, export_degree])
        self.keep = np.where(self.sib, np.int64(-1), np.int64((1 << _CLS_SHIFT) - 1))
        self.recls = np.where(self.sib, 0, self.inv << _CLS_SHIFT)


def _views(topo: CompiledTopology) -> _EdgeViews:
    ev = topo._np
    if ev is None:
        ev = topo._np = _EdgeViews(topo)
    return ev


def _sent_slots(ev: _EdgeViews, senders, cls):
    """The out-slots ``senders`` announce their class-``cls`` routes on,
    concatenated sender by sender in ascending slot order, and how many
    each sender has.  This is valley-free export: an origin, customer or
    sibling route (class ≤ 2) goes on every slot, a peer or provider
    route only to customers and siblings."""
    block = senders + (cls > 2) * ev.n
    lens = ev.block_len[block]
    total = int(lens.sum())
    ends = np.cumsum(lens)
    pos = np.arange(total, dtype=np.int64) + np.repeat(ev.block_lo[block] - ends + lens, lens)
    return ev.blocks[pos], lens


def _max_count(counts) -> int:
    """Largest per-slot prepend count (1 on an edgeless topology)."""
    return int(counts.max()) if len(counts) else 1


def _slot_counts(topo: CompiledTopology, ev: _EdgeViews, prepending: PrependingPolicy):
    """Per-announce-slot prepend counts.

    Returns ``(counts, default_count, overrides)``: counts per slot,
    the per-sender modal count (used for the one-``extend``-per-sender
    emission gather), and ``{(sender, receiver): count}`` for the
    slots whose per-link padding differs from their sender's default.
    """
    counts = ev.ones
    default_count = np.ones(topo.n, dtype=np.int64)
    overrides: dict[tuple[int, int], int] = {}
    senders = prepending.senders()
    if senders:
        counts = counts.copy()
        asn_of = topo.asn
        index = topo.index
        padding_of = prepending.padding
        indptr = topo.indptr
        nbr = topo.nbr
        for s_asn in senders:
            i = index.get(s_asn)
            if i is None:
                continue
            lo, hi = indptr[i], indptr[i + 1]
            if lo == hi:
                continue
            vals = [padding_of(s_asn, asn_of[nbr[k]]) for k in range(lo, hi)]
            counts[lo:hi] = vals
            default = max(set(vals), key=vals.count)
            default_count[i] = default
            for k, v in zip(range(lo, hi), vals):
                if v != default:
                    overrides[(i, int(nbr[k]))] = v
    return counts, default_count, overrides


def _origin_keys(n: int, origin_idx):
    """Tentative ``(B, n)`` key planes with only each origin seeded."""
    keys = np.full((len(origin_idx), n), _inf(), dtype=np.int64)
    keys[np.arange(len(origin_idx)), origin_idx] = 0
    return keys


def _fixpoint(ev: _EdgeViews, keys, counts, taint=None, forbid=None, blocked=None):
    """Converge the tentative ``(B, n)`` key planes ``keys`` in place.

    Each row is one column of the batch, row-contiguous so the
    per-column reductions stream; on entry it holds INF except for the
    seeded tentative keys (:func:`_origin_keys` for a plain run).
    ``counts`` is the shared per-slot prepend count.  Every per-wave
    gather/scatter runs on the flattened (column, node) pairs that are
    newly final, and each expands only the slots export lets its route
    out on (:func:`_sent_slots`: the full block for a class ≤ 2 route,
    the export block otherwise), so the entries relaxed across all
    waves are one per *exported* edge per column and no offer is built
    to be thrown away; batching only amortises the per-wave Python
    overhead, which is what dominates on small topologies.

    ``taint``/``forbid`` (``(B, n)`` bool planes) turn a column into
    the two-source fixpoint of the impact kernel (:class:`ImpactKernel`
    has the exactness argument).  A node tainted on entry is a fixed
    second source: already final, never relaxed, its offers seeded into
    ``keys`` by the caller.  A node finalising through a tainted sender
    becomes tainted, and a tainted sender's offer to a ``forbid``
    receiver is dropped.  Without them this is the plain fixpoint.

    ``blocked`` lists slots whose offers are dropped in every column:
    both directions of each failed link
    (:meth:`~repro.bgp.compiled.CompiledTopology.link_slots`).  Their
    offers are lifted past INF, so they never lower a key.

    Returns ``(waves, levels)``: the wave count and the per-wave
    ``(class, length)`` level list (per column, ``None`` once a column
    has drained) that the Gao-phase property suite inspects.
    """
    inf = _inf()
    b, n = keys.shape
    flat = keys.reshape(-1)
    final = np.zeros((b, n), dtype=bool) if taint is None else taint.copy()
    final_flat = final.reshape(-1)
    if taint is not None:
        taint_flat = taint.reshape(-1)
        forbid_flat = forbid.reshape(-1)
    nbr = ev.nbr
    keep = ev.keep
    grow = ev.recls + (counts << _LEN_SHIFT)
    if blocked is not None:
        grow[blocked] = inf
    waves = 0
    levels: list = []
    while True:
        pending = ~final
        m = np.min(keys, axis=1, where=pending, initial=inf)
        active = m < inf
        if not active.any():
            break
        level = m >> _LEN_SHIFT
        level[~active] = -1  # matches no key: a drained column stays put
        # pending keys are >= m, so this is ``keys >> _LEN_SHIFT == level``
        pending &= keys < ((level + 1) << _LEN_SHIFT)[:, None]
        idx = np.flatnonzero(pending)
        final_flat[idx] = True
        waves += 1
        levels.append(
            [
                (int(c), int(ln)) if a else None
                for c, ln, a in zip(m >> _CLS_SHIFT, (m >> _LEN_SHIFT) & _LEN_MASK, active)
            ]
        )
        # Every wave finalises at least one node per live column, so n
        # waves drain any input; more is a monotonicity violation.
        if waves > n:  # pragma: no cover
            raise ConvergenceError(waves)
        rows = idx % n if b > 1 else idx
        ks = flat[idx]
        if taint is not None:
            taint_flat[idx] = taint_flat[(ks & _SENDER_MASK) + (idx - rows)]
        slots, lens = _sent_slots(ev, rows, ks >> _CLS_SHIFT)
        if not len(slots):
            continue
        sent = np.repeat((ks & ~_SENDER_MASK) | rows, lens)
        offer = (sent & keep[slots]) + grow[slots]
        target = nbr[slots]
        if b > 1:
            target += np.repeat(idx - rows, lens)
        if taint is not None:
            offer[np.repeat(taint_flat[idx], lens) & forbid_flat[target]] = inf
        np.minimum.at(flat, target, offer)
    return waves, levels


def _check_domain(topo: CompiledTopology, max_count: int) -> None:
    """Raise :class:`SimulationError` unless ``topo``'s ASes, padding at
    most ``max_count`` copies per announcement, pack into the int64
    key: a sender index below 2^21 and the longest padded path below
    the length field."""
    if not (topo.n < _MAX_N and topo.n * max_count < _MAX_LEN):
        raise SimulationError(
            f"{topo.n} ASes padding up to {max_count} copies fall outside the "
            f"packed decision key, which holds fewer than {_MAX_N} ASes and "
            f"ASes x padding below {_MAX_LEN}"
        )


class ImpactKernel:
    """Attack impact without routes: ``(before, after, attacker kept a
    route)`` per cell, each cell one column of a two-source fixpoint.

    A cell is the ASPP interception of ``victim`` by ``attacker`` under
    uniform origin padding ``λ``, the attacker leaving ``keep`` origin
    copies in place (what :func:`repro.attack.simulate_interception`
    computes with ``strip_mode="origin"``).  Nothing but packed keys is
    built: no intern table, no :class:`CompiledState`, no outcome.

    Why it is exact.  AS-PATH loop prevention means no AS on the
    attacker ``M``'s own path to ``V`` can adopt a route through ``M``,
    so ``M`` keeps its baseline route and its stripped announcement is
    a *fixed second source*, known from ``V``'s baseline column before
    the attacked run starts.  Downstream of both sources every step
    still strictly increases ``(class, length)``, so the wave schedule
    of :func:`_fixpoint` stays sound provided ``M``'s offers are seeded
    up front and ``M`` never relaxes (its offer key is *smaller* than
    its own key), and offers from tainted senders (routes through
    ``M``) to ``chain(M) ∪ {M}`` — ``M``'s baseline ancestors, ``V``
    included — are dropped explicitly: those receivers are on the
    offered path, and the monotonicity argument that makes loop checks
    unnecessary elsewhere does not cover them.  Then ``after`` is the
    tainted nodes, ``before`` is ``M``'s subtree in the baseline
    forest, and the attacker kept a route iff it had one.

    The attacked state is *not* ``min(baseline, flood from M)``: a node
    whose provider switches from a short peer route to a longer tainted
    customer route now receives a longer provider offer and may fall
    back to a third, untainted neighbour.  Each column therefore runs
    the full two-source fixpoint, not an overlay on the baseline.

    Lengths are kept in units shifted by ``R = max(0, λ - keep)``
    minus ``λ - 1`` — the order of keys is shift-invariant — so ``V``
    originates at length ``R`` with every slot count 1, ``M`` announces
    from its canonical (λ=1) key, and the only baseline a victim ever
    needs is its canonical column, memoised here per victim.
    """

    def __init__(self, topo: CompiledTopology) -> None:
        _check_domain(topo, 1)
        self.topo = topo
        self._ev = _views(topo)
        #: victim index -> canonical key column, least recently used first
        self._columns: OrderedDict = OrderedDict()
        # columns per batch: the budget over the directed edges
        self._width = max(1, _IMPACT_BUDGET // max(1, len(self._ev.nbr)))

    def run(self, cells, metrics: RunMetrics | None = None):
        """``[(before, after, kept)]`` for ``cells`` of ``(victim,
        attacker, padding, keep, violate_policy)``: ASNs of two distinct
        ASes of the topology, ``padding`` inside the key's domain
        (:func:`_check_domain`), ``keep >= 1``."""
        index = self.topo.index
        columns = [
            (index[v], index[m], max(0, padding - keep), violate)
            for v, m, padding, keep, violate in cells
        ]
        results: list = []
        for start in range(0, len(columns), self._width):
            results += self._attack(columns[start : start + self._width], metrics)
        return results

    def _converge(self, metrics, keys, taint=None, forbid=None) -> None:
        waves, _ = _fixpoint(self._ev, keys, self._ev.ones, taint, forbid)
        if metrics is not None:
            metrics.count("engine.impact.batches")
            metrics.count("engine.impact.columns", len(keys))
            metrics.count("engine.impact.waves", waves)

    def _baselines(self, victims, metrics) -> dict:
        """Canonical key column per victim index, converging the ones
        the memo lacks as one batch (at most a batch width of them)."""
        memo = self._columns
        missing = [v for v in dict.fromkeys(victims) if v not in memo]
        if missing:
            keys = _origin_keys(self.topo.n, missing)
            self._converge(metrics, keys)
            memo.update(zip(missing, keys))
        found = {}
        for v in victims:
            memo.move_to_end(v)
            found[v] = memo[v]
        while len(memo) > _COLUMN_MEMO:
            memo.popitem(last=False)
        return found

    def _attack(self, columns, metrics):
        ev = self._ev
        n = self.topo.n
        inf = _inf()
        baseline = self._baselines([v for v, _, _, _ in columns], metrics)
        b = len(columns)
        keys = np.full((b, n), inf, dtype=np.int64)
        taint = np.zeros((b, n), dtype=bool)
        forbid = np.zeros((b, n), dtype=bool)
        before = [0] * b
        for c, (v, m, shift, violate) in enumerate(columns):
            column = baseline[v]
            key = int(column[m])
            if key >= inf:
                continue  # no route, no announcement: the column stays empty
            before[c] = _descendants(column, v, m)
            shift <<= _LEN_SHIFT
            keys[c, v] = shift | v  # its own sender: V stays untainted
            keys[c, m] = key + shift
            taint[c, m] = True
            node = m
            while node != v:
                forbid[c, node] = True
                node = int(column[node]) & _SENDER_MASK
            forbid[c, v] = True
            # M's stripped announcement, from its canonical key.
            cls = key >> _CLS_SHIFT
            if violate:
                slots = np.arange(ev.indptr[m], ev.indptr[m + 1])
            else:
                slots, _ = _sent_slots(ev, np.array([m]), np.array([cls]))
            receivers = ev.nbr[slots]
            allowed = ~forbid[c, receivers]
            length = (key >> _LEN_SHIFT) & _LEN_MASK
            offer = (
                (np.where(ev.sib[slots], cls, ev.inv[slots]) << _CLS_SHIFT)
                | ((length + 1) << _LEN_SHIFT)
                | m
            )
            keys[c, receivers[allowed]] = offer[allowed]
        self._converge(metrics, keys, taint, forbid)
        kept = taint[np.arange(b), [m for _, m, _, _ in columns]]
        after = taint.sum(axis=1) - kept
        return list(zip(before, after.tolist(), kept.tolist()))


def _descendants(column, root: int, node: int) -> int:
    """How many nodes' learned-from chains in the converged ``column``
    pass through ``node`` (itself excluded)."""
    idx = np.arange(len(column), dtype=np.int64)
    jump = np.where(column < _inf(), column & _SENDER_MASK, idx)
    jump[root] = root
    through = idx == node
    size = 1
    # Pointer doubling: after k rounds ``through`` covers ancestors
    # within 2^k - 1 hops; a round that adds nothing has added all.
    while True:
        through = through | through[jump]
        grown = int(through.sum())
        if grown == size:
            return size - 1
        size = grown
        jump = jump[jump]


def _emit_column(
    topo: CompiledTopology,
    ev: _EdgeViews,
    table: InternTable,
    keys,
    *,
    origin: int,
    origin_idx: int,
    prefix: str,
    counts,
    default_count,
    overrides,
    metrics: RunMetrics | None,
):
    """Build a full cold outcome (genuine :class:`CompiledState` plus
    the deferred tuple emission) from one converged key column."""
    from repro.bgp.engine import PropagationOutcome  # deferred: engine imports us

    inf = _inf()
    n = topo.n
    extend = table.extend
    routed = keys < inf
    cls_np = (keys >> _CLS_SHIFT).astype(np.int64)
    snd_np = (keys & _SENDER_MASK).astype(np.int64)

    # Node order by increasing final key: a node's parent (its
    # learned-from sender) always has a strictly smaller key, so one
    # walk resolves parent-before-child quantities (depths, pids).
    order = np.argsort(keys, kind="stable")[: int(routed.sum())]

    # Learned-from forest as a parent-pointer array with fixed points
    # at the origin and every unrouted node, then wave-clock depths
    # (the vectorized discipline's adoption stamps) by pointer
    # doubling — O(log depth) full-array gathers, no Python walk.
    idx = np.arange(n, dtype=np.int64)
    par = np.where(routed, snd_np, idx)
    par[origin_idx] = origin_idx
    depth_np = (par != idx).astype(np.int64)
    jump = par
    while True:
        gain = depth_np[jump]
        if not gain.any():
            break
        depth_np = depth_np + gain
        jump = jump[jump]
    max_depth = int(depth_np.max()) if n else 0

    # Adj-RIB-in presence.  An offer is present iff the sender is
    # routed, export is valley-free-allowed, and the receiver is not
    # on the announced path.  The announced path is the sender's
    # parent chain, so the loop test is an ancestor chase: walk the
    # parent pointers (at most ``max_depth`` hops, all allowed slots
    # at once) and flag slots whose receiver appears.  Fixed points
    # make the walk idempotent once it reaches the origin; everything
    # not emitted is an absent slot (-2), never an explicit
    # withdrawal.
    senders = np.flatnonzero(routed)
    cand, lens = _sent_slots(ev, senders, cls_np[senders])
    cand_from = np.repeat(senders, lens)
    walk = par[cand_from]
    recv = ev.nbr[cand]
    is_anc = walk == recv
    for _ in range(max_depth - 1):
        nxt = par[walk]
        if (nxt == walk).all():
            break
        walk = nxt
        is_anc |= walk == recv
    sel = cand[~is_anc]
    sel_from = cand_from[~is_anc]
    num_slots = len(ev.nbr)
    emit = np.zeros(num_slots, dtype=bool)
    emit[sel] = True

    # Interned pids, only where a pid is ever observable: a sender's
    # announcement ``(s,)*count + path(s)`` needs interning iff ``s``
    # actually emits an offer, and ``best_pid[v]`` is exactly the
    # parent's announcement pid — so the extend set is offer senders ∪
    # forest parents (the victim's export cone, typically a small
    # fraction of the graph), identical in construction to the
    # compiled hot loop's pids, so equal paths intern to equal pids on
    # a shared table.  A need node's parent is itself a need node (it
    # has that node as a child), so one key-ordered pass over the cone
    # resolves every extend parent-first.
    announces = np.zeros(n, dtype=bool)
    announces[sel_from] = True
    has_child = np.zeros(n, dtype=bool)
    nonorigin = routed.copy()
    nonorigin[origin_idx] = False
    has_child[snd_np[nonorigin]] = True
    need = announces | has_child
    par_l = par.tolist()
    dc_list = default_count.tolist()
    bp_l = [0] * n
    pe_l = [0] * n
    for v in order[need[order]].tolist():
        if v == origin_idx:
            pid = 0
        else:
            p = par_l[v]
            cnt = overrides.get((p, v))
            pid = pe_l[p] if cnt is None else extend(bp_l[p], p, cnt)
            bp_l[v] = pid
        pe_l[v] = extend(pid, v, dc_list[v])
    pid_export = np.asarray(pe_l, dtype=np.int64)

    best_pid_np = np.where(routed, pid_export[par], 0)
    best_pid_np[origin_idx] = 0
    if overrides:
        for (s, r), cnt in overrides.items():
            if routed[r] and par_l[r] == s:
                best_pid_np[r] = extend(bp_l[s], s, cnt)
    best_pid = best_pid_np.tolist()

    best_pref = np.where(routed, cls_np, -1).tolist()
    best_from = np.where(routed, snd_np, -1).tolist()
    best_from[origin_idx] = -1

    rib_pid_np = np.full(num_slots, -2, dtype=np.int64)
    rib_pref_np = np.zeros(num_slots, dtype=np.int64)
    rib_pid_np[ev.rev[sel]] = pid_export[sel_from]
    rib_pref_np[ev.rev[sel]] = np.where(ev.sib[sel], cls_np[sel_from], ev.inv[sel])
    if overrides:
        slot_index = topo.slot_index
        for (s, r), cnt in overrides.items():
            k = slot_index[s][r]
            if emit[k]:
                rib_pid_np[ev.rev[k]] = extend(bp_l[s], s, cnt)
    rib_pid = rib_pid_np.tolist()
    rib_pref = rib_pref_np.tolist()

    asn_np = np.asarray(topo.asn, dtype=np.int64)
    adoption = dict(
        zip(asn_np[order].tolist(), depth_np[order].tolist())
    )

    track = metrics is not None
    if track:
        metrics.count("engine.compiled.worlds_emitted", 0)

    def materialise(out: "PropagationOutcome") -> None:
        if track:
            metrics.count("engine.compiled.worlds_emitted")
        out._set_materialised(*emit_world(prefix, state))

    outcome = PropagationOutcome(
        prefix=prefix,
        origin=origin,
        adoption_round=adoption,
        rounds=max_depth,
        emit=materialise,
    )
    outcome.compiled_state = state = CompiledState(
        table, best_pref, best_pid, best_from, rib_pid, rib_pref
    )
    return outcome


# ----------------------------------------------------------------------
def run_vectorized(
    topo: CompiledTopology,
    table: InternTable,
    *,
    origin: int,
    prefix: str,
    prepending: PrependingPolicy,
    blocked: list[int] | None = None,
    metrics: RunMetrics | None = None,
):
    """One cold stock-policy propagation as a column of the wave kernel.

    ``blocked`` lists the slots of failed links, whose offers the
    fixpoint drops; emission still records them in the receiver's
    Adj-RIB-in, as the loop does for an offer import refuses.

    Raises :class:`SimulationError` before converging when the topology
    or padding falls outside the packed-key domain.
    """
    ev = _views(topo)
    counts, default_count, overrides = _slot_counts(topo, ev, prepending)
    _check_domain(topo, _max_count(counts))
    origin_idx = topo.index[origin]
    keys = _origin_keys(topo.n, [origin_idx])
    waves, _ = _fixpoint(ev, keys, counts, blocked=blocked)
    outcome = _emit_column(
        topo,
        ev,
        table,
        keys[0],
        origin=origin,
        origin_idx=origin_idx,
        prefix=prefix,
        counts=counts,
        default_count=default_count,
        overrides=overrides,
        metrics=metrics,
    )
    if metrics is not None:
        metrics.count("engine.vectorized.propagations")
        metrics.observe("engine.vectorized.waves", waves)
    return outcome


def vectorized_fixpoint(
    topo: CompiledTopology,
    origins,
    *,
    prepending: PrependingPolicy | None = None,
):
    """Raw packed-key fixpoint for benchmarking and property tests.

    Returns ``(keys, waves, levels)``: the (N, B) int64 key matrix
    (class·2^53 + length·2^21 + sender index; 5·2^53 = unreachable),
    the wave count, and the per-wave per-column (class, length) levels.
    No intern table, no outcome objects — this is the 80k-AS path,
    whose route masks alone would dwarf the fixpoint's footprint.
    """
    ev = _views(topo)
    counts, _, _ = _slot_counts(topo, ev, prepending or PrependingPolicy())
    _check_domain(topo, _max_count(counts))
    keys = _origin_keys(topo.n, [topo.index[o] for o in origins])
    waves, levels = _fixpoint(ev, keys, counts)
    return keys.T, waves, levels
