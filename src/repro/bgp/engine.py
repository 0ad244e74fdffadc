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
* **warm starts**: an attack can be launched from a converged baseline
  so that adoption rounds measure post-attack propagation.

The engine is an asynchronous (Gauss-Seidel) worklist fixpoint: one AS
at a time re-announces to its neighbours, and any receiver whose
decision changes joins the worklist.  Sequential activation matters —
simultaneous (Jacobi-style) updates oscillate even on valley-free
configurations (two peers can adopt routes through each other in the
same step, then both retract on loop detection, forever).  Under
valley-free policies the asynchronous iteration converges (Gao-Rexford
stability holds for any fair activation order); an operation budget
guards the policy-violating configurations.

The logical clock is derived from propagation causality rather than
iteration order: the origin (or attack seed) starts at round 0, and an
AS that changes its route because of an announcement from an AS at
round ``r`` is stamped ``r + 1`` — i.e. the number of AS-hops the
triggering news travelled, which is the natural unit of BGP
propagation time.
"""

from __future__ import annotations

import random
from collections import OrderedDict, deque
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
from repro.bgp.decision import admit_offer, preference_key
from repro.bgp.policy import ExportPolicy
from repro.bgp.prepending import PrependingPolicy
from repro.bgp.route import DEFAULT_PREFIX, Route
from repro.exceptions import ConvergenceError, SimulationError, UnknownASError
from repro.telemetry.metrics import RunMetrics
from repro.topology.asgraph import ASGraph
from repro.topology.relationships import PrefClass, Relationship

__all__ = ["PropagationEngine", "PropagationOutcome", "PathModifier", "ImportFilter"]

#: A path transformation applied by an AS to the route it re-announces.
#: Receives the AS-PATH currently in use (not yet including the
#: announcing AS) and returns the possibly modified path.
PathModifier = Callable[[tuple[int, ...]], tuple[int, ...]]

#: A receiver-side import filter: called with (sender ASN, offered
#: AS-PATH); returning False rejects the offer before the decision
#: process.  This is the hook defensive route-vetting policies (e.g.
#: PGBGP-style cautious adoption) plug into.
ImportFilter = Callable[[int, tuple[int, ...]], bool]


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
    read (reference backend, unpickled outcomes).  The accesses that
    still materialise are ``best``/``adj_rib_in``/``best_keys``
    themselves, ``==``, pickling and :meth:`clone`; each sees exactly
    what an eager build would have produced, and the compiled cores
    count it (``engine.compiled.worlds_emitted``).
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
        #: the same converged state in the compiled backend's (index,
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

    def reachable_ases(self) -> list[int]:
        """ASes that hold a route to the prefix (including the origin)."""
        return [asn for asn, route in self.best.items() if route is not None]

    def ases_traversing(self, transit: int) -> list[int]:
        """ASes whose selected path traverses ``transit`` (excluding itself)."""
        result = []
        for asn, route in self.best.items():
            if asn != transit and route is not None and transit in route.path:
                result.append(asn)
        return result

    def clone(self) -> "PropagationOutcome":
        """Copy for use as a warm start.

        The outer maps are copied, but the per-AS Adj-RIB-in maps are
        *shared* with this outcome: the engine copies an inner map the
        first time it writes to it (copy-on-write), so an attack onset
        pays for the ASes it actually perturbs instead of rebuilding
        the whole topology's RIB state per clone.
        """
        return PropagationOutcome(
            prefix=self.prefix,
            origin=self.origin,
            best=dict(self.best),
            adj_rib_in=dict(self.adj_rib_in),
            adoption_round=dict(self.adoption_round),
            rounds=self.rounds,
            best_keys=dict(self.best_keys) if self.best_keys is not None else None,
        )


class PropagationEngine:
    """Single-prefix BGP propagation over an :class:`ASGraph`.

    The engine pre-compiles adjacency and preference tables once, then
    answers any number of :meth:`propagate` calls (different origins,
    prepending schedules, attackers) against the same topology.  On the
    compiled backend that happens on the first propagation, via
    :meth:`CompiledTopology.of`, and is shared by every engine over the
    same graph; the engine then keeps that snapshot even if the graph
    is mutated afterwards.
    """

    #: distinct origins whose intern tables are kept alive by the
    #: engine itself; outcomes pin their own table, so eviction only
    #: bounds the engine's working set, never correctness.
    _TABLE_LRU = 32

    def __init__(
        self,
        graph: ASGraph,
        *,
        max_activations: int = 50,
        metrics: RunMetrics | None = None,
        backend: str = "compiled",
    ) -> None:
        """``max_activations`` bounds the worklist to that many
        activations *per AS* before :class:`ConvergenceError` is raised
        (valley-free configurations converge in a handful).

        ``metrics`` optionally attaches a telemetry registry; every
        :meth:`propagate` call then reports its work counts
        (``engine.*`` namespace).  The attribute is public and mutable
        so an existing engine can be instrumented for one run and
        detached afterwards; metrics never influence routing results.

        ``backend`` selects the propagation implementation:
        ``"compiled"`` (the default) runs on the dense arrays of
        :mod:`repro.bgp.compiled`; ``"reference"`` runs the
        dict-of-tuples interpreter in this module, the oracle the
        compiled-vs-reference differential suite compares it with.
        Which compiled-array core converges a run is not an option:
        :meth:`propagate` decides it from the run itself.
        """
        if max_activations < 1:
            raise SimulationError("max_activations must be positive")
        if backend not in ("compiled", "reference"):
            raise SimulationError(
                f"backend must be 'compiled' or 'reference', got {backend!r}"
            )
        self._graph: ASGraph | None = graph
        self._max_activations = max_activations
        self.metrics = metrics
        self._backend = backend
        self._adjacency: dict[
            int,
            tuple[tuple[int, Relationship, PrefClass, PrefClass, bool, bool], ...],
        ] | None = None
        self._compiled_topo: CompiledTopology | None = None
        self._tables: OrderedDict[int, InternTable] = OrderedDict()
        if backend == "reference":
            self._build_adjacency()

    @classmethod
    def from_compiled(
        cls,
        topo: CompiledTopology,
        *,
        max_activations: int = 50,
        metrics: RunMetrics | None = None,
    ) -> "PropagationEngine":
        """An engine over pre-compiled arrays, without an ASGraph.

        This is the pool-worker bootstrap path: the runner ships
        :class:`CompiledTopology` buffers through shared memory and the
        worker builds its engine directly from them.  ``graph`` is
        materialised lazily (only detection/collector code needs it).
        The reference backend needs a real graph, so the engine is a
        ``"compiled"`` one.
        """
        engine = cls.__new__(cls)
        if max_activations < 1:
            raise SimulationError("max_activations must be positive")
        engine._graph = None
        engine._max_activations = max_activations
        engine.metrics = metrics
        engine._backend = "compiled"
        engine._adjacency = None
        engine._compiled_topo = topo
        engine._tables = OrderedDict()
        return engine

    @property
    def _topo(self) -> CompiledTopology | None:
        """The compiled topology (``None`` on the reference backend).

        Resolved on first use through the graph's memo, so an engine
        that never propagates (a warm store replay, a pool parent)
        never compiles, and engines over one graph share one topology.
        Once resolved it is pinned: the engine's intern tables index
        into it.
        """
        topo = self._compiled_topo
        if topo is None and self._backend != "reference":
            topo = self._compiled_topo = CompiledTopology.of(self._graph)
        return topo

    def _build_adjacency(self) -> None:
        # Pre-compiled adjacency for the reference backend: for each
        # AS, a tuple of entries (neighbor,
        #  role-of-neighbor-relative-to-AS, pref-of-routes-from-neighbor,
        #  pref-the-neighbor-assigns, always_export, is_sibling) —
        # everything the hot announcement loop would otherwise recompute
        # per offer.  ``for_relationship`` rejects unrelated pairs, so
        # every compiled role is a real relationship.
        graph = self.graph
        adjacency: dict[
            int,
            tuple[tuple[int, Relationship, PrefClass, PrefClass, bool, bool], ...],
        ] = {}
        for asn in graph:
            entries = []
            for neighbor in graph.sorted_neighbors(asn):
                role = graph.relationship(asn, neighbor)
                entries.append(
                    (
                        neighbor,
                        role,
                        PrefClass.for_relationship(role),
                        # The class the neighbour assigns to routes from
                        # ``asn``: its role seen from the other side.
                        PrefClass.for_relationship(role.inverse()),
                        # Valley-free export to this neighbour is
                        # unconditional for customers and siblings.
                        role in (Relationship.CUSTOMER, Relationship.SIBLING),
                        role is Relationship.SIBLING,
                    )
                )
            adjacency[asn] = tuple(entries)
        self._adjacency = adjacency

    @property
    def graph(self) -> ASGraph:
        if self._graph is None:
            self._graph = self._topo.to_asgraph()
        return self._graph

    @property
    def compiled_topology(self) -> CompiledTopology | None:
        """The dense CSR form this engine propagates on, compiled on
        first use (``None`` on the reference backend)."""
        return self._topo

    @property
    def backend(self) -> str:
        return self._backend

    @property
    def max_activations(self) -> int:
        return self._max_activations

    def _contains(self, asn: int) -> bool:
        if self._adjacency is not None:
            return asn in self._adjacency
        return asn in self._topo.index

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
        export_policy: ExportPolicy | None = None,
        warm_start: PropagationOutcome | None = None,
        seed_ases: Iterable[int] | None = None,
        import_filters: Mapping[int, ImportFilter] | None = None,
        secpol: Any | None = None,
        activation: str = "fifo",
        activation_rng: random.Random | None = None,
        incremental: bool = True,
    ) -> PropagationOutcome:
        """Run propagation of ``origin``'s prefix to a routing fixpoint.

        ``prepending`` supplies per-neighbour padding counts (default:
        nobody prepends).  ``modifiers`` maps AS numbers to path
        transformations applied when that AS re-announces (the attack
        hook).  ``export_policy`` defaults to strict valley-free export.

        With ``warm_start`` the engine resumes from a previously
        converged outcome (for the same origin/prefix) and only
        re-announces from ``seed_ases`` (default: the modifier ASes and
        policy violators) — adoption rounds then count from the moment
        the attack begins, which Figure 14's timing analysis needs.

        ``import_filters`` maps an AS to a receiver-side vetting
        function: offers it returns False for never enter that AS's
        decision process (the deployment hook for defensive policies).

        ``secpol`` optionally attaches a security-policy deployment (a
        :class:`repro.secpol.SecurityDeployment`, duck-typed: anything
        with ``deployers``, ``check(receiver, sender, path)`` and
        ``compiled_checker(table)``).  Every deployed AS evaluates the
        policy on each offer before its decision process — policy
        first, then any stacked import filter
        (:func:`repro.bgp.decision.admit_offer`).  ``None`` (the
        default) is the exact pristine code path.

        ``activation`` selects the worklist discipline: ``"fifo"`` (the
        default, and the order every reproduction artefact is pinned
        to), ``"lifo"``, or ``"random"`` (drawing from
        ``activation_rng``).  Under valley-free policies the converged
        ``best`` routes are the same for every fair activation order
        (Gao-Rexford stability); only the adoption-round stamps are
        order-dependent.  The alternative orders exist so tests can
        check that determinism claim.

        ``incremental=False`` disables the O(1) per-offer decision fast
        path and reruns the full Adj-RIB-in scan on every rib change —
        the reference discipline, bit-identical by construction.  The
        invariant suite diffs the two modes, and benchmarks use the
        reference mode to time the pre-fast-path cost model.

        On the compiled backend a cold run that asks for none of the
        above but ``prepending`` converges as one column of the NumPy
        wave kernel; every other run is
        :func:`repro.bgp.compiled.run_compiled`'s.  The two agree on
        every route, key and present Adj-RIB-in offer; a kernel column
        stamps ``adoption_round`` with the wave clock (hops from the
        origin) and leaves absent a slot the loop may record as an
        explicit ``None``.
        """
        if not self._contains(origin):
            raise UnknownASError(origin)
        if activation not in ("fifo", "lifo", "random"):
            raise SimulationError(
                f"activation must be 'fifo', 'lifo' or 'random', got {activation!r}"
            )
        if activation == "random" and activation_rng is None:
            activation_rng = random.Random(0)
        prepending = prepending or PrependingPolicy()
        modifiers = dict(modifiers or {})
        export_policy = export_policy or ExportPolicy()
        import_filters = dict(import_filters or {})
        for asn in modifiers:
            if not self._contains(asn):
                raise UnknownASError(asn)

        seed: set[int] | None = None
        if warm_start is not None:
            if warm_start.origin != origin or warm_start.prefix != prefix:
                raise SimulationError(
                    "warm start must come from the same origin and prefix"
                )
            if seed_ases is None:
                seed = set(modifiers) | set(export_policy.violators)
            else:
                seed = set(seed_ases)
            if not seed:
                raise SimulationError(
                    "warm start requires seed ASes (modifiers, violators, or explicit)"
                )

        if self._backend == "compiled":
            # An outcome already carrying compiled state over this
            # topology brings its own intern table (it outlives the
            # engine's per-origin LRU); otherwise the engine keeps one
            # table per origin.
            state = warm_start.compiled_state if warm_start is not None else None
            if (
                isinstance(state, CompiledState)
                and state.table.topo is self._topo
            ):
                table = state.table
            else:
                table = self._table_for(origin)
            if warm_start is None:
                # The one place a core is chosen: the wave kernel's
                # capability table, first row that applies — what the
                # run asks for that the kernel does not do, then what
                # this install and topology cannot.  A cold run no row
                # refuses is a kernel column; a refused one (counted by
                # reason) and every warm start run the per-activation
                # loop on the same table, bit-identical by the contract
                # of tests/bgp/test_vectorized_differential.py.
                refusals = (
                    ("activation", activation != "fifo" or not incremental),
                    ("modifiers", modifiers),
                    (
                        "export-policy",
                        type(export_policy) is not ExportPolicy
                        or export_policy.violators,
                    ),
                    ("import-filters", import_filters),
                    ("secpol", secpol is not None),
                    ("numpy-missing", not vectorized.numpy_available()),
                    (
                        "key-domain",
                        not vectorized.in_key_domain(
                            self._topo.n, prepending.max_padding()
                        ),
                    ),
                )
                refusal = next((why for why, applies in refusals if applies), None)
                if refusal is None:
                    return vectorized.run_vectorized(
                        self._topo,
                        table,
                        origin=origin,
                        prefix=prefix,
                        prepending=prepending,
                        metrics=self.metrics,
                    )
                if self.metrics is not None and self.metrics.enabled:
                    self.metrics.count("engine.vectorized.fallbacks")
                    self.metrics.count(f"engine.vectorized.fallbacks.{refusal}")
            return run_compiled(
                self._topo,
                table,
                origin=origin,
                prefix=prefix,
                prepending=prepending,
                modifiers=modifiers,
                export_policy=export_policy,
                import_filters=import_filters,
                warm_start=warm_start,
                seed=seed,
                activation=activation,
                activation_rng=activation_rng,
                secpol=secpol,
                incremental=incremental,
                max_activations=self._max_activations,
                metrics=self.metrics,
            )

        if warm_start is not None:
            state = warm_start.clone()
            best = state.best
            adj_rib_in = state.adj_rib_in
            # The clone shares the warm start's inner Adj-RIB-in maps;
            # each one is copied right before its first write below.
            shared_ribs: set[int] | None = set(adj_rib_in)
            adoption: dict[int, int] = {}
            initial = sorted(seed)
        else:
            best = {asn: None for asn in self._adjacency}
            best[origin] = Route(prefix, (), None, PrefClass.ORIGIN)
            adj_rib_in = {asn: {} for asn in self._adjacency}
            shared_ribs = None
            adoption = {origin: 0}
            initial = [origin]

        # Preference key of each AS's current best route, kept in sync
        # with ``best`` so most offer arrivals decide in O(1) instead of
        # rescanning the receiver's whole Adj-RIB-in.  A warm start from
        # an engine-produced outcome reuses its carried keys.
        if warm_start is not None and warm_start.best_keys is not None:
            best_key: dict[int, tuple[int, int, int] | None] = state.best_keys
        else:
            best_key = {
                asn: (None if route is None else preference_key(route))
                for asn, route in best.items()
            }

        # Hoisted policy state: the stock valley-free export test and
        # the no-prepending common case are inlined in the hot loop;
        # ExportPolicy subclasses keep the full method-call path.
        stock_export = type(export_policy) is ExportPolicy
        violators = export_policy.violators
        pad_senders = prepending.senders()

        # Security-policy deployment: deployed receivers take the full
        # decision scan (same branch as import-filtered receivers), with
        # the policy applied per offer inside it.
        sec_check = None
        sec_deployed: frozenset[int] = frozenset()
        if secpol is not None:
            sec_check = secpol.check
            sec_deployed = frozenset(
                a for a in secpol.deployers if self._contains(a)
            )
        sec_stats = [0, 0]  # offers evaluated / offers filtered

        # Telemetry is accumulated in locals and flushed once at the
        # end, so an enabled registry costs one branch per activation
        # (plus a few per rib change) and a disabled one costs nothing
        # but this single check.
        metrics = self.metrics
        track = metrics is not None and metrics.enabled
        if track:
            announcements = fastpath_hits = fastpath_misses = best_changes = 0
            peak_queue = 0

        # Round stamp of the news each AS would currently announce.
        round_of: dict[int, int] = {asn: 0 for asn in initial}
        queue: deque[int] = deque(initial)
        queued: set[int] = set(initial)
        operations = 0
        budget = self._max_activations * max(1, len(self._adjacency))
        max_round = 0
        while queue:
            operations += 1
            if operations > budget:
                raise ConvergenceError(operations)
            if activation == "fifo":
                sender = queue.popleft()
            elif activation == "lifo":
                sender = queue.pop()
            else:
                index = activation_rng.randrange(len(queue))
                queue[index], queue[-1] = queue[-1], queue[index]
                sender = queue.pop()
            queued.discard(sender)
            route = best[sender]
            sender_round = round_of.get(sender, 0)
            if track:
                qlen = len(queue) + 1  # including the activation just popped
                if qlen > peak_queue:
                    peak_queue = qlen
                announcements += len(self._adjacency[sender])
            if route is not None:
                base = route.path
                modifier = modifiers.get(sender)
                if modifier is not None:
                    base = modifier(base)
                route_pref = route.pref
                # ORIGIN/CUSTOMER/SIBLING routes may cross peer and
                # provider links (policy.py's _EXPORTABLE_UPWARD).
                exportable_up = route_pref <= PrefClass.SIBLING
                sender_violates = sender in violators
                sender_pads = sender in pad_senders
                # Announced path per padding count: identical for every
                # neighbour with the same count, so build each once.
                paths_by_count: dict[int, tuple[int, ...]] = {}
            for neighbor, role, _pref, inv_pref, always_export, is_sibling in (
                self._adjacency[sender]
            ):
                if route is None:
                    offer = None
                elif not (
                    (sender_violates or always_export or exportable_up)
                    if stock_export
                    else export_policy.allows_export(sender, role, route_pref)
                ):
                    offer = None
                else:
                    count = prepending.padding(sender, neighbor) if sender_pads else 1
                    path_out = paths_by_count.get(count)
                    if path_out is None:
                        path_out = (sender,) * count + base
                        paths_by_count[count] = path_out
                    # Receiver-side loop prevention: an AS never accepts
                    # a path already containing its own ASN.
                    if neighbor in path_out:
                        offer = None
                    elif is_sibling:
                        # A sibling inherits the sender's own class (one
                        # organisation, two ASNs).
                        offer = (path_out, route_pref)
                    else:
                        # The sender's CUSTOMER is the receiver, for whom
                        # the sender is a PROVIDER, and vice versa; peers
                        # stay peers.
                        offer = (path_out, inv_pref)
                rib = adj_rib_in[neighbor]
                if rib.get(sender) == offer:
                    continue
                if shared_ribs is not None and neighbor in shared_ribs:
                    # First write to a warm-start-shared map: copy it now
                    # so the baseline outcome stays pristine.
                    rib = adj_rib_in[neighbor] = dict(rib)
                    shared_ribs.discard(neighbor)
                rib[sender] = offer
                if neighbor == origin:
                    continue  # the owner always keeps its own route
                current = best[neighbor]
                import_filter = import_filters.get(neighbor)
                if import_filter is not None or neighbor in sec_deployed or not incremental:
                    if track:
                        fastpath_misses += 1
                    new_best, new_key = self._decide(
                        neighbor,
                        prefix,
                        rib,
                        import_filter,
                        sec_check if neighbor in sec_deployed else None,
                        sec_stats,
                    )
                elif offer is None:
                    if current is not None and current.learned_from == sender:
                        # The best offer was withdrawn: full re-decision.
                        if track:
                            fastpath_misses += 1
                        new_best, new_key = self._decide(neighbor, prefix, rib, None)
                    else:
                        if track:
                            fastpath_hits += 1
                        continue  # losing a non-best offer changes nothing
                else:
                    path, pref = offer
                    cand_key = (int(pref), len(path), sender)
                    current_key = best_key[neighbor]
                    if current is None:
                        if track:
                            fastpath_hits += 1
                        new_best, new_key = Route(prefix, path, sender, pref), cand_key
                    elif current.learned_from == sender:
                        if cand_key <= current_key:
                            # The best offer improved (or kept its rank):
                            # it stays the best — keys of other offers are
                            # strictly worse than the old minimum.
                            if track:
                                fastpath_hits += 1
                            new_best, new_key = Route(prefix, path, sender, pref), cand_key
                        else:
                            if track:
                                fastpath_misses += 1
                            new_best, new_key = self._decide(neighbor, prefix, rib, None)
                    elif cand_key < current_key:
                        if track:
                            fastpath_hits += 1
                        new_best, new_key = Route(prefix, path, sender, pref), cand_key
                    else:
                        if track:
                            fastpath_hits += 1
                        continue  # a worse-ranked offer cannot displace the best
                if new_best == current:
                    best_key[neighbor] = new_key
                    continue
                if track:
                    best_changes += 1
                best[neighbor] = new_best
                best_key[neighbor] = new_key
                stamp = sender_round + 1
                adoption[neighbor] = stamp
                round_of[neighbor] = stamp
                max_round = max(max_round, stamp)
                if neighbor not in queued:
                    queue.append(neighbor)
                    queued.add(neighbor)

        if track:
            # Warm-started propagations (the attack runs — one per task,
            # starting from a bit-identical baseline) are worker-count
            # invariant; cold propagations (baseline convergences) depend
            # on per-worker cache locality, so the two are recorded under
            # separate namespaces and only ``engine.warm.*`` participates
            # in serial-vs-pooled determinism comparisons.
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
                metrics.count("secpol.evaluated", sec_stats[0])
                metrics.count("secpol.filtered", sec_stats[1])
                metrics.count("secpol.deployed_ases", len(sec_deployed))

        return PropagationOutcome(
            prefix=prefix,
            origin=origin,
            best=best,
            adj_rib_in=adj_rib_in,
            adoption_round=adoption,
            rounds=max_round,
            best_keys=best_key,
        )

    # ------------------------------------------------------------------
    def _decide(
        self,
        receiver: int,
        prefix: str,
        offers: Mapping[int, tuple[tuple[int, ...], PrefClass] | None],
        import_filter: ImportFilter | None = None,
        sec_check: Callable[[int, int, tuple[int, ...]], bool] | None = None,
        sec_stats: list[int] | None = None,
    ) -> tuple[Route | None, tuple[int, int, int] | None]:
        """Run the full decision process over ``receiver``'s Adj-RIB-in.

        Returns the selected route together with its preference key (the
        propagation loop keeps per-AS keys to decide most offer arrivals
        incrementally, and only falls back to this scan when the current
        best offer worsened or a filter/policy is in play).
        """
        best_offer: tuple[tuple[int, ...], PrefClass] | None = None
        best_neighbor = -1
        best_key: tuple[int, int, int] | None = None
        filtered = import_filter is not None or sec_check is not None
        for entry in self._adjacency[receiver]:
            neighbor = entry[0]
            offer = offers.get(neighbor)
            if offer is None:
                continue
            path, pref = offer
            if filtered and not admit_offer(
                receiver, neighbor, path, sec_check, import_filter, sec_stats
            ):
                continue
            key = (int(pref), len(path), neighbor)
            if best_key is None or key < best_key:
                best_offer, best_neighbor, best_key = offer, neighbor, key
        if best_offer is None:
            return None, None
        return Route(prefix, best_offer[0], best_neighbor, best_offer[1]), best_key
