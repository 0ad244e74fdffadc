"""Policy-aware BGP route-propagation engine.

This is the simulator at the heart of the paper (§IV-B): it emulates
BGP announcement propagation and the decision process for a single
destination prefix over a relationship-annotated AS graph, under the
valley-free profit-driven policy, with:

* per-neighbour AS-path **prepending** schedules (source and
  intermediary prepending);
* per-AS **path modifiers** — the hook the ASPP interception attacker
  uses to strip the victim's padding before re-announcing;
* per-AS **export-policy violation** (the attacker variant of the
  paper's Figures 11-12);
* standard AS-PATH **loop prevention** (an AS never accepts a path that
  already contains its own ASN) — this is also what automatically keeps
  the attacker's own valid route to the victim intact;
* a synchronous **round clock**: the round at which each AS adopted its
  final route is recorded, giving the logical time base for the
  pollution-before-detection analysis (Figure 14);
* **failed links**: an ``(a, b)`` pair whose link is down, so neither
  end admits the other's offer (the churn events of Figures 5-6);
* **warm starts**: an attack can be launched from a converged baseline
  so that adoption rounds measure post-attack propagation.

Each run has one route, read off the run: a cold run is a column of
the NumPy wave kernel (:mod:`repro.bgp.vectorized`), failed links
included, and a warm start is the per-activation loop of
:func:`repro.bgp.compiled.run_compiled`.  An attack (modifiers,
violators or a security policy) is always launched from its converged
baseline, so a cold run that asks for one is an error, as is a run
outside the kernel's packed key.  The loop is an asynchronous
(Gauss-Seidel) worklist fixpoint: one AS at a time re-announces to its
neighbours, and any receiver whose decision changes joins the worklist.
Sequential activation matters — simultaneous (Jacobi-style) updates
oscillate even on valley-free configurations (two peers can adopt
routes through each other in the same step, then both retract on loop
detection, forever).  Under valley-free policies the asynchronous
iteration converges (Gao-Rexford stability holds for any fair
activation order); an operation budget guards the policy-violating
configurations.  The dict-of-tuples interpreter both cores were checked
against lives test-side as the oracle (``tests/bgp/reference_engine.py``).

The logical clock is derived from propagation causality rather than
iteration order: the origin (or attack seed) starts at round 0, and an
AS that changes its route because of an announcement from an AS at
round ``r`` is stamped ``r + 1`` — i.e. the number of AS-hops the
triggering news travelled, which is the natural unit of BGP
propagation time.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable, Iterable, Mapping
from typing import Any

from repro.bgp import vectorized
from repro.bgp.compiled import (
    _PREF_OF,
    CompiledState,
    CompiledTopology,
    InternTable,
    run_compiled,
)
from repro.bgp.prepending import PrependingPolicy
from repro.bgp.route import DEFAULT_PREFIX, Route
from repro.exceptions import SimulationError, UnknownASError
from repro.telemetry.metrics import RunMetrics
from repro.topology.asgraph import ASGraph
from repro.topology.relationships import PrefClass

__all__ = ["PropagationEngine", "PropagationOutcome", "PathModifier"]

#: A path transformation applied by an AS to the route it re-announces.
#: Receives the AS-PATH currently in use (not yet including the
#: announcing AS) and returns the possibly modified path.
PathModifier = Callable[[tuple[int, ...]], tuple[int, ...]]


class PropagationOutcome:
    """The converged routing state for one prefix.

    ``best`` maps every AS to its selected route (``None`` when the AS
    has no route to the prefix).  ``adj_rib_in`` maps each AS to the
    offer currently announced by each neighbour — an ``(as_path,
    pref_class)`` pair, or ``None`` for no offer / withdrawn.  The
    class rides along with the offer because sibling-learned routes
    inherit the class the sibling assigned (siblings are one
    organisation), so the receiver cannot derive it from the
    relationship alone.  ``adoption_round`` is the logical propagation
    round at which each AS last changed its best route (0 = unchanged
    since the start state).

    The tuple-based maps may be materialised *lazily*: the compiled
    cores construct outcomes with an ``emit`` callback instead of
    eager ``best``/``adj_rib_in`` dicts, and the callback reifies the
    interned state into tuples on first access — the whole *world*,
    every AS's route and Adj-RIB-in.  The sweep pipeline (warm starts,
    pollution reports) reads only the attached compiled state, so it
    never pays for the dicts.

    Consumers that need a few ASes' routes — collectors, detectors,
    :meth:`path_of` — use the *row read* :meth:`route_of` instead: it
    reifies one AS's route from the compiled state's arrays, memoised
    per outcome, and never builds the world.  It reads ``best`` only
    when the world already exists or there is no compiled state to
    read (unpickled or eagerly built outcomes).  The accesses that
    still materialise are ``best``/``adj_rib_in``/``best_keys``
    themselves, ``==`` and pickling; each sees exactly what an eager
    build would have produced, and the compiled cores count it
    (``engine.compiled.worlds_emitted``).
    """

    __slots__ = (
        "prefix",
        "origin",
        "adoption_round",
        "rounds",
        "compiled_state",
        "_best",
        "_adj_rib_in",
        "_best_keys",
        "_emit",
        "_rows",
    )

    def __init__(
        self,
        prefix: str,
        origin: int,
        best: dict[int, Route | None] | None = None,
        adj_rib_in: dict[int, dict[int, tuple[tuple[int, ...], PrefClass] | None]]
        | None = None,
        adoption_round: dict[int, int] | None = None,
        rounds: int = 0,
        best_keys: dict[int, tuple[int, int, int] | None] | None = None,
        *,
        emit: Callable[["PropagationOutcome"], None] | None = None,
    ) -> None:
        if emit is None and (best is None or adj_rib_in is None):
            raise SimulationError(
                "an outcome needs either eager best/adj_rib_in maps or an emit callback"
            )
        self.prefix = prefix
        self.origin = origin
        self.adoption_round = {} if adoption_round is None else adoption_round
        self.rounds = rounds
        self._best = best
        self._adj_rib_in = adj_rib_in
        #: preference key per AS, carried so warm starts skip
        #: recomputing them; purely derived data, excluded from equality.
        self._best_keys = best_keys
        self._emit = emit
        #: routes :meth:`route_of` reified ahead of the world
        self._rows: dict[int, Route | None] = {}
        #: the same converged state in the compiled cores' (index,
        #: intern-id) space (:class:`repro.bgp.compiled.CompiledState`),
        #: attached by the compiled cores so warm starts, row reads
        #: and pollution reports stay in compiled space.
        #: Derived data: excluded from equality and dropped on pickling
        #: (an intern table is engine-local and must not cross process
        #: boundaries).
        self.compiled_state: Any | None = None

    # -- lazy materialisation -------------------------------------------
    def _materialise(self) -> None:
        emit = self._emit
        self._emit = None
        emit(self)

    def _set_materialised(
        self,
        best: dict[int, Route | None],
        adj_rib_in: dict[int, dict[int, tuple[tuple[int, ...], PrefClass] | None]],
        best_keys: dict[int, tuple[int, int, int] | None] | None,
    ) -> None:
        """Called by the ``emit`` callback with the reified maps."""
        self._best = best
        self._adj_rib_in = adj_rib_in
        self._best_keys = best_keys

    @property
    def best(self) -> dict[int, Route | None]:
        if self._best is None:
            self._materialise()
        return self._best

    @property
    def adj_rib_in(
        self,
    ) -> dict[int, dict[int, tuple[tuple[int, ...], PrefClass] | None]]:
        if self._adj_rib_in is None:
            self._materialise()
        return self._adj_rib_in

    @property
    def best_keys(self) -> dict[int, tuple[int, int, int] | None] | None:
        if self._emit is not None:
            self._materialise()
        return self._best_keys

    # -- value semantics (matching the former dataclass definition) -----
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not PropagationOutcome:
            return NotImplemented
        return (
            self.prefix == other.prefix
            and self.origin == other.origin
            and self.rounds == other.rounds
            and self.adoption_round == other.adoption_round
            and self.best == other.best
            and self.adj_rib_in == other.adj_rib_in
        )

    __hash__ = None  # mutable value type, like the dataclass it replaces

    def __repr__(self) -> str:
        state = "lazy" if self._best is None else f"ases={len(self._best)}"
        return (
            f"PropagationOutcome(prefix={self.prefix!r}, origin={self.origin}, "
            f"rounds={self.rounds}, {state})"
        )

    def __getstate__(self) -> dict[str, Any]:
        return {
            "prefix": self.prefix,
            "origin": self.origin,
            "best": self.best,  # forces materialisation before pickling
            "adj_rib_in": self.adj_rib_in,
            "adoption_round": self.adoption_round,
            "rounds": self.rounds,
            "best_keys": self.best_keys,
        }

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.prefix = state["prefix"]
        self.origin = state["origin"]
        self._best = state["best"]
        self._adj_rib_in = state["adj_rib_in"]
        self.adoption_round = state["adoption_round"]
        self.rounds = state["rounds"]
        self._best_keys = state["best_keys"]
        self._emit = None
        self._rows = {}
        self.compiled_state = None

    def route_of(self, asn: int) -> Route | None:
        """``best.get(asn)``, read as one row: no world is built for it.

        While the outcome is lazy the route is reified from the
        attached compiled state and memoised; an outcome that is
        already materialised, or has no compiled state, answers from
        ``best``.
        """
        if self._best is not None:
            return self._best.get(asn)
        rows = self._rows
        if asn in rows:
            return rows[asn]
        state = self.compiled_state
        if state is None:
            return self.best.get(asn)
        topo = state.topo
        idx = topo.index.get(asn)
        route = None
        if idx is not None:
            pref, pid, learned = state.best_row(idx)
            if pref >= 0:
                route = Route(
                    self.prefix,
                    state.table.reify(pid),
                    None if learned < 0 else topo.asn[learned],
                    _PREF_OF[pref],
                )
        rows[asn] = route
        return route

    def path_of(self, asn: int) -> tuple[int, ...] | None:
        """The AS-PATH ``asn`` uses towards the prefix (``None`` if unreachable)."""
        route = self.route_of(asn)
        return route.path if route is not None else None


class PropagationEngine:
    """Single-prefix BGP propagation over an :class:`ASGraph`.

    The engine answers any number of :meth:`propagate` calls (different
    origins, prepending schedules, attackers) against one topology.  It
    compiles the graph's CSR form on the first propagation, via
    :meth:`CompiledTopology.of`, which every engine over the same graph
    shares; the engine then keeps that snapshot even if the graph is
    mutated afterwards.
    """

    #: distinct origins whose intern tables are kept alive by the
    #: engine itself; outcomes pin their own table, so eviction only
    #: bounds the engine's working set, never correctness.
    _TABLE_LRU = 32

    def __init__(
        self,
        graph: ASGraph,
        *,
        metrics: RunMetrics | None = None,
    ) -> None:
        """``metrics`` optionally attaches a telemetry registry; every
        :meth:`propagate` call then reports its work counts
        (``engine.*`` namespace).  The attribute is public and mutable
        so an existing engine can be instrumented for one run and
        detached afterwards; metrics never influence routing results.

        Which core converges a run is not an option: :meth:`propagate`
        decides it from the run itself.
        """
        self._graph = graph
        self.metrics = metrics
        self._compiled_topo: CompiledTopology | None = None
        self._tables: OrderedDict[int, InternTable] = OrderedDict()

    @property
    def _topo(self) -> CompiledTopology:
        """The compiled topology.

        Resolved on first use through the graph's memo, so an engine
        that never propagates (a warm store replay) never compiles, and
        engines over one graph (a pool's forked workers included) share
        one topology.  Once resolved it is pinned: the engine's intern
        tables index into it.
        """
        topo = self._compiled_topo
        if topo is None:
            topo = self._compiled_topo = CompiledTopology.of(self._graph)
        return topo

    @property
    def graph(self) -> ASGraph:
        """The graph this engine was built on."""
        return self._graph

    @property
    def compiled_topology(self) -> CompiledTopology:
        """The dense CSR form this engine propagates on, compiled on
        first use."""
        return self._topo

    def _table_for(self, origin: int) -> InternTable:
        """The intern table for propagations originated at ``origin``.

        Tables are per-origin so a campaign over many victims does not
        accumulate every victim's path population in one table; the LRU
        only drops the engine's reference — outcomes keep their table
        alive through their attached :class:`CompiledState`.
        """
        table = self._tables.get(origin)
        if table is None:
            table = InternTable(self._topo)
            self._tables[origin] = table
        self._tables.move_to_end(origin)
        while len(self._tables) > self._TABLE_LRU:
            self._tables.popitem(last=False)
        return table

    # ------------------------------------------------------------------
    def propagate(
        self,
        origin: int,
        *,
        prefix: str = DEFAULT_PREFIX,
        prepending: PrependingPolicy | None = None,
        modifiers: Mapping[int, PathModifier] | None = None,
        violators: Iterable[int] = frozenset(),
        warm_start: PropagationOutcome | None = None,
        failed_links: Iterable[tuple[int, int]] = (),
        secpol: Any | None = None,
    ) -> PropagationOutcome:
        """Run propagation of ``origin``'s prefix to a routing fixpoint.

        ``prepending`` supplies per-neighbour padding counts (default:
        nobody prepends).  ``modifiers`` maps AS numbers to path
        transformations applied when that AS re-announces (the attack
        hook).  Export is valley-free, except that ``violators`` export
        every route to every neighbour.

        With ``warm_start`` the engine resumes from an outcome it (or
        another engine over the same graph) converged for the same
        origin/prefix, loading its compiled state, and only re-announces
        from the modifier ASes and violators — adoption rounds then
        count from the moment the attack begins, which Figure 14's
        timing analysis needs.  An outcome without that state (built
        eagerly, or unpickled) is refused.

        ``failed_links`` lists ``(a, b)`` AS pairs whose link is down:
        each end's offer to the other still reaches its Adj-RIB-in, and
        the decision process never admits it.  A pair naming an AS the
        graph lacks raises :class:`UnknownASError`, one that is not
        adjacent :class:`TopologyError`.

        ``secpol`` optionally attaches a security-policy deployment (a
        :class:`repro.secpol.SecurityDeployment`, duck-typed: anything
        with ``deployers`` and ``compiled_checker(table)``).  Every
        deployed AS evaluates the policy on each offer before its
        decision process.  ``None`` (the default) is the exact pristine
        code path.

        A cold run converges as one column of the NumPy wave kernel and
        a warm start as :func:`repro.bgp.compiled.run_compiled`'s FIFO
        loop.  A cold run that asks for modifiers, violators or
        ``secpol`` raises :class:`SimulationError` (the attack needs a
        warm start from its baseline), and so does one outside the
        kernel's packed key (``n < 2^21`` ASes and ``n × padding <
        2^31``), both before any convergence.  A kernel column agrees
        with the loop on every route, key and present Adj-RIB-in offer;
        it stamps ``adoption_round`` with the wave clock (hops from the
        origin) and leaves absent a slot the loop may record as an
        explicit ``None``.
        """
        topo = self._topo
        index = topo.index
        if origin not in index:
            raise UnknownASError(origin)
        prepending = prepending or PrependingPolicy()
        modifiers = dict(modifiers or {})
        violators = frozenset(violators)
        for asn in (*modifiers, *violators):
            if asn not in index:
                raise UnknownASError(asn)
        blocked = topo.link_slots(failed_links) or None
        if warm_start is None:
            if modifiers or violators or secpol is not None:
                raise SimulationError(
                    "an attack (modifiers, violators or secpol) needs a warm "
                    "start from its baseline"
                )
            return vectorized.run_vectorized(
                topo,
                self._table_for(origin),
                origin=origin,
                prefix=prefix,
                prepending=prepending,
                blocked=blocked,
                metrics=self.metrics,
            )
        if warm_start.origin != origin or warm_start.prefix != prefix:
            raise SimulationError(
                "warm start must come from the same origin and prefix"
            )
        state = warm_start.compiled_state
        if not isinstance(state, CompiledState) or state.table.topo is not topo:
            raise SimulationError(
                "warm start must be an outcome converged on this engine's topology"
            )
        seed = set(modifiers) | violators
        if not seed:
            raise SimulationError(
                "warm start requires seed ASes (modifiers or violators)"
            )
        # the warm start's own intern table: it outlives the engine's
        # per-origin LRU
        return run_compiled(
            topo,
            state.table,
            origin=origin,
            prefix=prefix,
            prepending=prepending,
            modifiers=modifiers,
            violators=violators,
            blocked=blocked,
            warm_start=warm_start,
            seed=seed,
            secpol=secpol,
            metrics=self.metrics,
        )
