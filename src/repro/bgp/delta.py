"""Incremental delta propagation over a converged compiled baseline.

:func:`run_delta` re-converges an attack from a warm baseline the way
:func:`repro.bgp.compiled.run_compiled` does — same worklist, same
activation trace, same adoption stamps — but never copies the baseline
arrays: the flood reads the converged :class:`CompiledState` in place
and records every write in sparse *overlay* dicts, so the cost of one
attack run is O(touched cone), not O(topology).  Untouched rows stay
physically shared with the baseline (copy-on-write), which is what
turns an attackers × victims × λ campaign grid into one canonical
convergence per victim plus the sum of the affected cones.

Two further reuse levels ride on the same idea:

* **λ reuse** — a uniform-λ baseline is the canonical λ=1 state with
  the victim's trailing run rewritten, so the delta flood runs directly
  against the *canonical* arrays and carries the length shift
  ``Δ = λ-1`` in the comparisons instead of materialising a derived
  copy.  Each stored route carries a *family* bit: baseline-family
  entries are canonical ids whose real path is the λ-rewrite
  (``+Δ`` on every length), attacker-family entries (everything
  descending from a path modifier's output) are literal.  Equal real
  paths always compare equal and unequal ones never do, so the
  activation trace — and with it every adoption stamp — is bit-identical
  to a full recompute on the derived baseline.  The λ=1 / plain-state
  case is simply ``Δ = 0``.

* **Interned-path reuse** — all λ points of a sweep extend the *same*
  canonical intern table, so the attacker's announcement subtree is
  built once and every later λ point's extends are table hits.

:class:`DerivedUniformState` makes the baseline cache's λ derivation
lazy (the delta path never materialises it; the full path pays the old
eager cost on first array access), and :class:`DeltaState` is the
overlay-backed result state — a :class:`CompiledState` whose array
attributes are lazy real-space views, so warm starts, pollution masks
and every other downstream consumer keep working unchanged.

The reference engine remains the bit-identical oracle:
``tests/bgp/test_delta_differential.py`` pins ``run_delta`` against
cold full propagations on both backends, including adoption stamps and
withdrawal sentinels.
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Callable, Mapping
from typing import TYPE_CHECKING

from repro.bgp.compiled import (
    _EXPORTABLE_UP_MAX,
    _PREF_OF,
    CompiledState,
    CompiledTopology,
    InternTable,
)
from repro.bgp.policy import ExportPolicy
from repro.bgp.prepending import PrependingPolicy
from repro.bgp.route import Route
from repro.exceptions import ConvergenceError, SimulationError
from repro.telemetry.metrics import RunMetrics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from repro.attack.interception import ASPPInterceptionAttack
    from repro.bgp.engine import PropagationOutcome

__all__ = [
    "DeltaState",
    "DerivedUniformState",
    "propagate_delta",
    "run_delta",
    "uniform_rewriter",
]


def uniform_rewriter(
    table: InternTable, victim_idx: int, padding: int
) -> Callable[[int], int]:
    """A memoised canonical→λ path rewriter over ``table``.

    Maps a canonical (λ=1) interned path id to the id of the same path
    with the victim's trailing run padded to ``padding`` copies.  Paths
    that do not terminate in the victim's run rewrite to themselves.
    Each distinct chain node is rewritten at most once per rewriter.
    """
    parent = table.parent
    head = table.head
    run = table.run
    extend = table.extend
    memo = {0: 0}

    def rewrite(pid: int) -> int:
        new = memo.get(pid)
        if new is None:
            above = parent[pid]
            if above == 0 and head[pid] == victim_idx:
                new = extend(0, victim_idx, padding)
            else:
                new = extend(rewrite(above), head[pid], run[pid])
            memo[pid] = new
        return new

    return rewrite


class DerivedUniformState(CompiledState):
    """A uniform-λ baseline state, derived *lazily* from the canonical λ=1.

    The delta path reads straight through to the canonical arrays (the
    length shift lives in the flood's comparisons), so constructing this
    state is O(1).  Any consumer that touches the array attributes —
    the full-recompute warm path, direct inspection — triggers the same
    eager rewrite :meth:`CompiledState.derive_uniform` used to do, with
    identical results.  ``best_pref``/``best_from``/``rib_pref`` are
    λ-invariant and alias the canonical lists (every consumer treats
    converged states as immutable; the warm loader copies before
    mutating).
    """

    __slots__ = ("canonical", "victim_asn", "victim_idx", "padding", "_rw", "_mat")

    def __init__(self, canonical: CompiledState, victim: int, padding: int) -> None:
        if padding < 2:
            raise SimulationError("derived uniform states are for padding >= 2")
        self.table = canonical.table
        self.canonical = canonical
        self.victim_asn = victim
        self.victim_idx = canonical.table.topo.index[victim]
        self.padding = padding
        self._rw = None
        self._mat = None
        self._trav = None

    def rewriter(self) -> Callable[[int], int]:
        """The shared canonical→λ rewrite memo for this state."""
        if self._rw is None:
            self._rw = uniform_rewriter(self.table, self.victim_idx, self.padding)
        return self._rw

    def _materialised(self) -> CompiledState:
        if self._mat is None:
            self._mat = self.canonical.derive_uniform(self.victim_asn, self.padding)
        return self._mat

    def best_row(self, i: int) -> tuple[int, int, int]:
        # One rewrite, not the whole derivation: a row read must not
        # materialise what the delta path keeps lazy.
        canonical = self.canonical
        return (
            canonical.best_pref[i],
            self.rewriter()(canonical.best_pid[i]),
            canonical.best_from[i],
        )

    @property
    def best_pref(self) -> list[int]:
        return self.canonical.best_pref

    @property
    def best_from(self) -> list[int]:
        return self.canonical.best_from

    @property
    def rib_pref(self) -> list[int]:
        return self.canonical.rib_pref

    @property
    def best_pid(self) -> list[int]:
        return self._materialised().best_pid

    @property
    def rib_pid(self) -> list[int]:
        return self._materialised().rib_pid


class _OverlaidInts:
    """A list view: ``base`` with sparse ``over`` writes on top (CoW)."""

    __slots__ = ("base", "over")

    def __init__(self, base: list[int], over: dict[int, int]) -> None:
        self.base = base
        self.over = over

    def __len__(self) -> int:
        return len(self.base)

    def __getitem__(self, i: int) -> int:
        v = self.over.get(i)
        return self.base[i] if v is None else v

    def __iter__(self):
        over = self.over
        base = self.base
        for i in range(len(base)):
            v = over.get(i)
            yield base[i] if v is None else v

    def copy(self) -> list[int]:
        out = self.base.copy()
        for i, v in self.over.items():
            out[i] = v
        return out


class _OverlaidPids:
    """A pid-list view presenting *real* (λ-space) path ids.

    Base entries are canonical and rewrite through ``rw``; overlay
    entries carry a family bit (``fam[i]`` truthy = literal/attacker
    family).  Negative sentinels (-1 withdrawn, -2 absent) pass through.
    With ``rw=None`` (Δ=0) everything is literal.
    """

    __slots__ = ("base", "over", "fam", "rw")

    def __init__(
        self,
        base: list[int],
        over: dict[int, int],
        fam,
        rw: Callable[[int], int] | None,
    ) -> None:
        self.base = base
        self.over = over
        self.fam = fam
        self.rw = rw

    def _real(self, i: int) -> int:
        v = self.over.get(i)
        if v is None:
            v = self.base[i]
            literal = False
        else:
            literal = bool(self.fam[i])
        rw = self.rw
        if rw is None or literal or v < 0:
            return v
        return rw(v)

    def __len__(self) -> int:
        return len(self.base)

    def __getitem__(self, i: int) -> int:
        return self._real(i)

    def __iter__(self):
        for i in range(len(self.base)):
            yield self._real(i)

    def copy(self) -> list[int]:
        return [self._real(i) for i in range(len(self.base))]


class DeltaState(CompiledState):
    """An attack's converged state as sparse overlays over its baseline.

    Subclasses :class:`CompiledState` so every existing consumer (warm
    loads, λ derivations, pollution masks, ``attacker_has_route``)
    works unchanged: the array attributes are lazy views that present
    real λ-space path ids.  ``touched`` is the set of AS indices whose
    best route changed at least once during the delta flood (a superset
    of the finally-changed set); ``rib_touched`` the set whose
    Adj-RIB-in changed.  Everything outside ``touched`` physically
    shares the baseline's row.
    """

    __slots__ = (
        "base",
        "shift",
        "over_best_pref",
        "over_best_pid",
        "over_best_from",
        "over_rib_pid",
        "over_rib_pref",
        "best_fam",
        "rib_fam",
        "touched",
        "rib_touched",
        "_rw",
        "_views",
    )

    def __init__(
        self,
        base: CompiledState,
        *,
        shift: int,
        rw: Callable[[int], int] | None,
        over_best_pref: dict[int, int],
        over_best_pid: dict[int, int],
        over_best_from: dict[int, int],
        over_rib_pid: dict[int, int],
        over_rib_pref: dict[int, int],
        best_fam,
        rib_fam,
        touched: frozenset[int],
        rib_touched: frozenset[int],
    ) -> None:
        self.table = base.table
        self.base = base
        self.shift = shift
        self._rw = rw
        self.over_best_pref = over_best_pref
        self.over_best_pid = over_best_pid
        self.over_best_from = over_best_from
        self.over_rib_pid = over_rib_pid
        self.over_rib_pref = over_rib_pref
        self.best_fam = best_fam
        self.rib_fam = rib_fam
        self.touched = touched
        self.rib_touched = rib_touched
        self._views = {}
        self._trav = None

    def _view(self, name: str):
        view = self._views.get(name)
        if view is None:
            base = self.base
            if name == "best_pref":
                view = _OverlaidInts(base.best_pref, self.over_best_pref)
            elif name == "best_from":
                view = _OverlaidInts(base.best_from, self.over_best_from)
            elif name == "rib_pref":
                view = _OverlaidInts(base.rib_pref, self.over_rib_pref)
            elif name == "best_pid":
                view = _OverlaidPids(
                    base.best_pid, self.over_best_pid, self.best_fam, self._rw
                )
            else:
                view = _OverlaidPids(
                    base.rib_pid, self.over_rib_pid, self.rib_fam, self._rw
                )
            self._views[name] = view
        return view

    @property
    def best_pref(self):
        return self._view("best_pref")

    @property
    def best_pid(self):
        return self._view("best_pid")

    @property
    def best_from(self):
        return self._view("best_from")

    @property
    def rib_pid(self):
        return self._view("rib_pid")

    @property
    def rib_pref(self):
        return self._view("rib_pref")


def _delta_base(
    state: object, table: InternTable
) -> tuple[CompiledState, int, Callable[[int], int] | None] | None:
    """Resolve a warm-start state into ``(read base, Δ, rewriter)``.

    Returns ``None`` when the state cannot back a delta flood (foreign
    table, reference-backend outcome, chained delta overlays — the
    caller falls back to the full recompute).
    """
    if isinstance(state, DerivedUniformState):
        canonical = state.canonical
        if type(canonical) is CompiledState and canonical.table is table:
            return canonical, state.padding - 1, state.rewriter()
        return None
    if type(state) is CompiledState and state.table is table:
        return state, 0, None
    return None


# ----------------------------------------------------------------------
def run_delta(
    topo: CompiledTopology,
    table: InternTable,
    *,
    origin: int,
    prefix: str,
    prepending: PrependingPolicy,
    modifiers: Mapping[int, Callable[[tuple[int, ...]], tuple[int, ...]]],
    export_policy: ExportPolicy,
    import_filters: Mapping[int, Callable[[int, tuple[int, ...]], bool]],
    warm_start: "PropagationOutcome",
    seed: set[int],
    activation: str,
    activation_rng: random.Random | None,
    incremental: bool,
    max_activations: int,
    metrics: RunMetrics | None,
    secpol: object | None = None,
) -> "PropagationOutcome | None":
    """One warm propagation fixpoint as a delta over the baseline state.

    Mirrors :func:`repro.bgp.compiled.run_compiled`'s warm path
    decision for decision — identical activation trace, adoption
    stamps, fast-path accounting and withdrawal sentinels — while
    writing every change into copy-on-write overlays instead of copied
    arrays, with uniform-λ baselines read in canonical space under the
    ``Δ = λ-1`` length shift (module docstring).  Returns ``None`` when
    the inputs cannot take the delta path; the engine then falls back
    to the full recompute, which stays the oracle.
    """
    state = warm_start.compiled_state
    plan = _delta_base(state, table)
    if plan is None:
        return None
    base, shift, rw = plan

    index = topo.index
    n = topo.n
    origin_idx = index[origin]
    if origin in seed:
        # The origin re-announcing interacts with its own padding
        # schedule; keep that rare shape on the oracle path.
        return None
    pad_senders = {index[a] for a in prepending.senders() if a in index}
    if shift:
        # Canonical-space reads are only valid when the real baseline is
        # exactly the uniform-λ rewrite of the canonical state: the
        # origin is the sole prepender and its count matches.
        if prepending.uniform_origin_count(origin) != shift + 1:
            return None
        if pad_senders - {origin_idx}:
            return None

    indptr, nbr, inv_pref, always_export, is_sib, rev, asn_of = topo.hot_arrays()
    bits = topo.bits
    length = table.length
    mask = table.mask
    extend = table.extend
    reify = table.reify
    intern_tuple = table.intern_tuple
    num_slots = len(nbr)

    track = metrics is not None and metrics.enabled
    if track:
        announcements = fastpath_hits = fastpath_misses = best_changes = 0
        peak_queue = 0
        intern_hits_start = table.hits
        intern_misses_start = table.misses
        reified_start = table.reified_count

    # The flood runs on *scratch copies* of the baseline arrays (C-speed
    # list copies, then plain indexing in the hot loop); the sparse
    # copy-on-write overlays handed to :class:`DeltaState` are extracted
    # from the written rows after convergence, so the result still
    # shares every untouched row with the baseline.
    bp = base.best_pref.copy()
    bpid = base.best_pid.copy()
    bfrom = base.best_from.copy()
    rpid = base.rib_pid.copy()
    rpref = base.rib_pref.copy()
    #: rib slots written at least once (the rib overlay's key set)
    written: set[int] = set()
    # Family bit per AS / slot: truthy = literal (attacker-family) path,
    # falsy = canonical baseline-family path carrying the +Δ shift.
    bfam = bytearray(n)
    rfam = bytearray(num_slots)

    adoption: dict[int, int] = {}
    initial = sorted(index[a] for a in seed)

    stock_export = type(export_policy) is ExportPolicy
    violator_idx = {index[a] for a in export_policy.violators if a in index}
    mods = {index[a]: fn for a, fn in modifiers.items()}
    imps = {index[a]: fn for a, fn in import_filters.items() if a in index}
    roles = topo.roles if not stock_export else None

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
    plain = stock_export and not imps and sec_count == 0 and incremental

    def real_pid(pid: int, fam: int) -> int:
        """The λ-space id of a stored path (literal for fam/Δ=0)."""
        if rw is None or fam or pid < 0:
            return pid
        return rw(pid)

    def decide(recv: int, imp, sec) -> tuple[int, int, int, int]:
        """Full Adj-RIB-in scan, reference order, Δ-aware lengths."""
        nonlocal sec_eval, sec_filt
        b_pref = -1
        b_pid = 0
        b_from = -1
        b_len = 0
        b_fam = 0
        for k in range(indptr[recv], indptr[recv + 1]):
            pid = rpid[k]
            if pid < 0:
                continue
            fam = rfam[k]
            p = rpref[k]
            snd = nbr[k]
            if sec is not None:
                sec_eval += 1
                if not sec(recv, snd, real_pid(pid, fam)):
                    sec_filt += 1
                    continue
            if imp is not None and not imp(asn_of[snd], reify(real_pid(pid, fam))):
                continue
            plen = length[pid] if fam else length[pid] + shift
            if (
                b_from < 0
                or p < b_pref
                or (p == b_pref and (plen < b_len or (plen == b_len and snd < b_from)))
            ):
                b_pref = p
                b_pid = pid
                b_from = snd
                b_len = plen
                b_fam = fam
        return b_pref, b_pid, b_from, b_fam

    round_of = [0] * n
    rib_touched: set[int] = set()
    queue: deque[int] = deque(initial)
    queued = bytearray(n)
    for i in initial:
        queued[i] = 1
    operations = 0
    budget = max_activations * max(1, n)
    max_round = 0
    randrange = activation_rng.randrange if activation_rng is not None else None
    padding_of = prepending.padding
    while queue:
        operations += 1
        if operations > budget:
            raise ConvergenceError(operations)
        if activation == "fifo":
            s = queue.popleft()
        elif activation == "lifo":
            s = queue.pop()
        else:
            pick = randrange(len(queue))
            queue[pick], queue[-1] = queue[-1], queue[pick]
            s = queue.pop()
        queued[s] = 0
        s_pref = bp[s]
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
            base_pid = bpid[s]
            s_fam = bfam[s]
            modifier = mods.get(s)
            if modifier is not None:
                base_pid = intern_tuple(modifier(reify(real_pid(base_pid, s_fam))))
                s_fam = 1
            exportable_all = (
                s_pref <= _EXPORTABLE_UP_MAX or s in violator_idx
            )
            sender_pads = s in pad_senders
            s_asn = asn_of[s]
            pid_plain = -9  # lazily extended once: count == 1 for non-padders
            pid_by_count: dict[int, int] = {}
        for k in range(block_start, block_end):
            nb = nbr[k]
            offer_pid = -1  # None/no offer
            offer_pref = 0
            offer_fam = 0
            if has_route:
                if stock_export:
                    allowed = exportable_all or always_export[k]
                else:
                    allowed = export_policy.allows_export(
                        s_asn, roles[k], _PREF_OF[s_pref]
                    )
                if allowed:
                    if sender_pads:
                        count = padding_of(s_asn, asn_of[nb])
                        pid = pid_by_count.get(count)
                        if pid is None:
                            pid = extend(base_pid, s, count)
                            pid_by_count[count] = pid
                    else:
                        pid = pid_plain
                        if pid < 0:
                            pid = pid_plain = extend(base_pid, s, 1)
                    if not mask[pid] & bits[nb]:
                        offer_pid = pid
                        offer_pref = s_pref if is_sib[k] else inv_pref[k]
                        offer_fam = s_fam
            slot = rev[k]
            rp = rpid[slot]
            if offer_pid < 0:
                if rp < 0:
                    # absent or already-withdrawn: rib.get(sender) == None
                    continue
                rpid[slot] = -1
                written.add(slot)
            else:
                if rp == offer_pid and (
                    rpref[slot] == offer_pref
                    and (not shift or rfam[slot] == offer_fam)
                ):
                    continue
                rpid[slot] = offer_pid
                rpref[slot] = offer_pref
                rfam[slot] = offer_fam
                written.add(slot)
            rib_touched.add(nb)
            if nb == origin_idx:
                continue  # the owner always keeps its own route
            cur_pref = bp[nb]
            cur_from = bfrom[nb]
            if plain:
                imp = None
                full_scan = False
            else:
                imp = imps.get(nb)
                full_scan = imp is not None or sec_deployed[nb] or not incremental
            if full_scan:
                if track:
                    fastpath_misses += 1
                new_pref, new_pid, new_from, new_fam = decide(
                    nb, imp, sec_fn if sec_deployed[nb] else None
                )
            elif offer_pid < 0:
                if cur_pref >= 0 and cur_from == s:
                    # The best offer was withdrawn: full re-decision.
                    if track:
                        fastpath_misses += 1
                    new_pref, new_pid, new_from, new_fam = decide(nb, None, None)
                else:
                    if track:
                        fastpath_hits += 1
                    continue  # losing a non-best offer changes nothing
            elif cur_pref < 0:
                if track:
                    fastpath_hits += 1
                new_pref, new_pid, new_from, new_fam = (
                    offer_pref, offer_pid, s, offer_fam,
                )
            else:
                cur_pid = bpid[nb]
                cur_fam = bfam[nb]
                cand_len = length[offer_pid] if offer_fam else length[offer_pid] + shift
                best_len = length[cur_pid] if cur_fam else length[cur_pid] + shift
                if cur_from == s:
                    # cand_key <= current_key with an equal sender component.
                    if offer_pref < cur_pref or (
                        offer_pref == cur_pref and cand_len <= best_len
                    ):
                        if track:
                            fastpath_hits += 1
                        new_pref, new_pid, new_from, new_fam = (
                            offer_pref, offer_pid, s, offer_fam,
                        )
                    else:
                        if track:
                            fastpath_misses += 1
                        new_pref, new_pid, new_from, new_fam = decide(nb, None, None)
                else:
                    if offer_pref > cur_pref:
                        if track:
                            fastpath_hits += 1
                        continue  # a worse-ranked offer cannot displace the best
                    if offer_pref == cur_pref and (
                        cand_len > best_len or (cand_len == best_len and s > cur_from)
                    ):
                        if track:
                            fastpath_hits += 1
                        continue
                    if track:
                        fastpath_hits += 1
                    new_pref, new_pid, new_from, new_fam = (
                        offer_pref, offer_pid, s, offer_fam,
                    )
            # Unchanged decision: canonical interning plus the family
            # bit make real-path equality an id/bit comparison.
            if new_pref == cur_pref and cur_pref < 0:
                continue
            if new_pref == cur_pref and new_from == cur_from:
                if new_pid == bpid[nb] and (not shift or new_fam == bfam[nb]):
                    continue
            if track:
                best_changes += 1
            if new_pref < 0:
                bp[nb] = -1
                bpid[nb] = 0
                bfrom[nb] = -1
                bfam[nb] = 0
            else:
                bp[nb] = new_pref
                bpid[nb] = new_pid
                bfrom[nb] = new_from
                bfam[nb] = new_fam
            stamp = sender_round + 1
            adoption[nb] = stamp
            round_of[nb] = stamp
            if stamp > max_round:
                max_round = stamp
            if not queued[nb]:
                queue.append(nb)
                queued[nb] = 1

    # ------------------------------------------------------------------
    # Extract the sparse copy-on-write overlays from the scratch arrays:
    # exactly the rows the flood wrote (``adoption`` keys for best,
    # ``written`` slots for the rib).  Everything else stays physically
    # the baseline's row.
    o_bp = {i: bp[i] for i in adoption}
    o_bpid = {i: bpid[i] for i in adoption}
    o_bfrom = {i: bfrom[i] for i in adoption}
    o_rpid = {k: rpid[k] for k in written}
    o_rpref = {k: rpref[k] for k in written}

    # Emission mirrors run_compiled's warm branch: copy the baseline's
    # dicts, rebuild only what the delta touched, with overlay pids
    # rewritten to λ space on the way out.  Deferred like the original.
    def materialise(out: "PropagationOutcome") -> None:
        if track:
            metrics.count("engine.compiled.worlds_emitted")
        pref_of = _PREF_OF

        def emit_best(i: int) -> tuple[Route | None, tuple[int, int, int] | None]:
            p = bp[i]
            if p < 0:
                return None, None
            pid = real_pid(bpid[i], bfam[i])
            learned_idx = bfrom[i]
            learned = None if learned_idx < 0 else asn_of[learned_idx]
            return (
                Route(prefix, reify(pid), learned, pref_of[p]),
                (p, length[pid], -1 if learned is None else learned),
            )

        def emit_offers(i: int) -> dict[int, tuple[tuple[int, ...], object] | None]:
            offers: dict[int, tuple[tuple[int, ...], object] | None] = {}
            for k in range(indptr[i], indptr[i + 1]):
                pid = real_pid(rpid[k], rfam[k])
                if pid == -2:
                    continue
                offers[asn_of[nbr[k]]] = (
                    None if pid == -1 else (reify(pid), pref_of[rpref[k]])
                )
            return offers

        best_out = dict(warm_start.best)
        adj_out = dict(warm_start.adj_rib_in)
        warm_keys = warm_start.best_keys
        if warm_keys is not None:
            keys_out = dict(warm_keys)
            for i in adoption:
                a = asn_of[i]
                best_out[a], keys_out[a] = emit_best(i)
        else:
            keys_out = {}
            for i in topo.iter_order:
                a = asn_of[i]
                if i in adoption:
                    best_out[a], keys_out[a] = emit_best(i)
                else:
                    route = best_out[a]
                    keys_out[a] = (
                        None
                        if route is None
                        else (int(route.pref), len(route.path), route.learned_from
                              if route.learned_from is not None else -1)
                    )
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
    outcome.compiled_state = DeltaState(
        base,
        shift=shift,
        rw=rw,
        over_best_pref=o_bp,
        over_best_pid=o_bpid,
        over_best_from=o_bfrom,
        over_rib_pid=o_rpid,
        over_rib_pref=o_rpref,
        best_fam=bfam,
        rib_fam=rfam,
        touched=frozenset(adoption),
        rib_touched=frozenset(rib_touched),
    )

    if track:
        # engine.warm.* accounting is bit-identical to the full warm
        # path (same trace, same fast-path branches), preserving the
        # pooled-vs-serial determinism contract; engine.delta.* adds
        # the reuse telemetry this mode exists for.
        touched_all = rib_touched | adoption.keys()
        metrics.count("engine.warm.propagations")
        metrics.count("engine.warm.activations", operations)
        metrics.count("engine.warm.announcements", announcements)
        metrics.count("engine.warm.fastpath_hits", fastpath_hits)
        metrics.count("engine.warm.fastpath_misses", fastpath_misses)
        metrics.count("engine.warm.best_changes", best_changes)
        metrics.observe("engine.warm.convergence_rounds", max_round)
        metrics.observe("engine.warm.queue_peak", peak_queue)
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
        metrics.count("engine.compiled.worlds_emitted", 0)
        metrics.count("engine.delta.propagations")
        metrics.observe("engine.delta.frontier_size", len(initial))
        metrics.observe("engine.delta.touched_ases", len(touched_all))
        metrics.observe(
            "engine.delta.reuse_ratio", (n - len(touched_all)) / n if n else 0.0
        )

    return outcome


# ----------------------------------------------------------------------
def propagate_delta(
    baseline: "PropagationOutcome",
    attack: "ASPPInterceptionAttack",
    *,
    secpol: object | None = None,
    metrics: RunMetrics | None = None,
    max_activations: int = 50,
    activation: str = "fifo",
    activation_rng: random.Random | None = None,
    incremental: bool = True,
) -> "PropagationOutcome":
    """Re-converge ``attack`` as a delta over a converged ``baseline``.

    The compiled-core entry point: ``baseline`` must carry a
    :class:`CompiledState` (every compiled-backend and cache-derived
    outcome does), and the attack's victim must be the baseline's
    origin.  Equivalent to warm-starting
    ``engine.propagate(victim, modifiers={attacker: attack.modifier()},
    export_policy=..., warm_start=baseline)`` on a delta-mode engine —
    and bit-identical to the same call on a full-recompute engine,
    which the differential suite enforces.
    """
    state = baseline.compiled_state
    if not isinstance(state, CompiledState):
        raise SimulationError(
            "propagate_delta needs a baseline with compiled state "
            "(a compiled-backend or cache-derived outcome)"
        )
    victim = baseline.origin
    if attack.victim != victim:
        raise SimulationError(
            f"attack victim AS{attack.victim} does not match the baseline "
            f"origin AS{victim}"
        )
    table = state.table
    padding = state.padding if isinstance(state, DerivedUniformState) else 1
    prepending = PrependingPolicy.uniform_origin(victim, padding)
    export_policy = (
        ExportPolicy(frozenset({attack.attacker}))
        if attack.violate_policy
        else ExportPolicy()
    )
    outcome = run_delta(
        table.topo,
        table,
        origin=victim,
        prefix=baseline.prefix,
        prepending=prepending,
        modifiers={attack.attacker: attack.modifier()},
        export_policy=export_policy,
        import_filters={},
        warm_start=baseline,
        seed={attack.attacker} | set(export_policy.violators),
        activation=activation,
        activation_rng=activation_rng,
        incremental=incremental,
        max_activations=max_activations,
        metrics=metrics,
        secpol=secpol,
    )
    if outcome is None:
        raise SimulationError(
            "baseline state cannot back a delta flood (foreign table or "
            "chained delta overlays) — use the full engine"
        )
    return outcome
