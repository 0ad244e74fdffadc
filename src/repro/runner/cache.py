"""Memoisation of converged pre-attack baselines.

Every sweep point and campaign instance first converges the victim's
*no-attack* routing state, then warm-starts the attack from it.  Sweeps
repeat that baseline work constantly: a λ-sweep revisits the same victim
eight times, a figure with two attacker-policy series converges every
baseline twice, and a campaign re-propagates a victim's baseline for
every attacker drawn against it.

:class:`BaselineCache` removes the repetition.  It memoises converged
:class:`~repro.bgp.engine.PropagationOutcome` objects per ``(victim,
prefix, prepending-schedule fingerprint)``, and for the dominant family
of schedules — the victim padding uniformly with ``λ`` copies — it
converges only one *canonical* baseline per victim (``λ = 1``) and
**derives** every other λ from it by rewriting the origin's padded run.

The derivation is exact, not approximate.  Under a uniform-origin
schedule every candidate path towards the victim carries the same
trailing ``λ``-run of the victim's ASN, so switching λ shifts all path
lengths equally: local-preference classes, length comparisons, the
lowest-neighbour tie-break, loop checks and export decisions are all
unchanged, which makes the engine's entire activation trace — and
therefore ``best``, ``adj_rib_in``, ``adoption_round`` and ``rounds`` —
identical up to the padded-run rewrite.  The invariant suite pins this
equivalence on randomized topologies
(``tests/runner/test_baseline_cache.py``).
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable

from repro.bgp.decision import preference_key
from repro.bgp.engine import PropagationEngine, PropagationOutcome
from repro.bgp.prepending import PrependingPolicy
from repro.bgp.route import DEFAULT_PREFIX, Route
from repro.exceptions import SimulationError
from repro.telemetry.metrics import RunMetrics

__all__ = ["BaselineCache", "derive_uniform_baseline", "derive_uniform_family"]


def _uniform_rewrite_emit(
    canonical: PropagationOutcome,
    victim: int,
    padding: int,
    metrics: RunMetrics | None,
):
    """The deferred tuple-space derivation for one ``λ = padding``.

    Derived baselines are consumed almost exclusively through their
    compiled state (warm starts, pollution masks, row reads), so the
    tuple maps are materialised lazily: this closure runs on first
    access to the derived outcome's ``best``/``adj_rib_in``, and counts
    itself as an emitted world in ``metrics``.
    """

    def emit(out: PropagationOutcome) -> None:
        if metrics is not None:
            metrics.count("engine.compiled.worlds_emitted")
        run = (victim,) * padding
        delta = padding - 1
        prefix = canonical.prefix
        # Carried preference keys just shift in the length component;
        # fall back to recomputing when the canonical outcome doesn't
        # carry them.
        keys = canonical.best_keys
        if keys is None:
            keys = {
                asn: (None if route is None else preference_key(route))
                for asn, route in canonical.best.items()
            }
        best: dict[int, Route | None] = {}
        best_keys: dict[int, tuple[int, int, int] | None] = {}
        for asn, route in canonical.best.items():
            key = keys[asn]
            if route is None:
                best[asn] = None
                best_keys[asn] = None
                continue
            path = route.path
            if not path:
                # The victim's own route has an empty path: nothing to pad.
                best[asn] = route
                best_keys[asn] = key
                continue
            best[asn] = Route(prefix, path[:-1] + run, route.learned_from, route.pref)
            best_keys[asn] = (key[0], key[1] + delta, key[2])
        adj_rib_in = {
            asn: {
                neighbor: (None if offer is None else (offer[0][:-1] + run, offer[1]))
                for neighbor, offer in offers.items()
            }
            for asn, offers in canonical.adj_rib_in.items()
        }
        out._set_materialised(best, adj_rib_in, best_keys)

    return emit


def derive_uniform_baseline(
    canonical: PropagationOutcome,
    victim: int,
    padding: int,
    *,
    metrics: RunMetrics | None = None,
) -> PropagationOutcome:
    """The converged baseline for uniform origin padding ``λ = padding``,
    derived from the canonical ``λ = 1`` outcome for the same victim.

    Every AS-PATH in a uniform-origin baseline ends with the victim's
    padded run; the derived outcome rewrites that run to ``padding``
    copies and leaves everything else — including the adoption rounds,
    which count propagation hops and are λ-invariant — untouched.  The
    tuple rewrite is deferred (see :func:`_uniform_rewrite_emit`); the
    compiled-state rewrite happens eagerly because warm starts load it
    immediately.
    """
    if canonical.origin != victim:
        raise SimulationError(
            f"canonical baseline originates at AS{canonical.origin}, not AS{victim}"
        )
    if padding < 1:
        raise SimulationError("origin padding must be >= 1")
    if padding == 1:
        return canonical
    outcome = PropagationOutcome(
        prefix=canonical.prefix,
        origin=victim,
        adoption_round=dict(canonical.adoption_round),
        rounds=canonical.rounds,
        emit=_uniform_rewrite_emit(canonical, victim, padding, metrics),
    )
    # A compiled canonical outcome begets compiled derived outcomes:
    # the same rewrite in (index, intern-id) space, so warm-starting
    # the attack from this baseline stays on the fast load path.  The
    # rewrite is deferred (:class:`repro.bgp.delta.DerivedUniformState`):
    # a delta-mode engine reads straight through to the canonical
    # arrays and never materialises it; the full-recompute warm loader
    # triggers the old eager derivation on first array access.
    state = canonical.compiled_state
    if state is not None:
        from repro.bgp.delta import DerivedUniformState

        if isinstance(state, DerivedUniformState):  # defensive: never re-derive
            state = state.canonical
        outcome.compiled_state = DerivedUniformState(state, victim, padding)
    return outcome


def derive_uniform_family(
    canonical: PropagationOutcome,
    victim: int,
    paddings: Iterable[int],
    *,
    metrics: RunMetrics | None = None,
) -> dict[int, PropagationOutcome]:
    """Derive the baselines for several uniform paddings at once.

    Produces exactly ``{p: derive_uniform_baseline(canonical, victim, p)}``.
    Since the tuple rewrite is deferred per outcome, the family costs
    one compiled-state rewrite per λ up front and nothing in tuple
    space until (unless) a consumer touches a derived outcome's maps.
    """
    if canonical.origin != victim:
        raise SimulationError(
            f"canonical baseline originates at AS{canonical.origin}, not AS{victim}"
        )
    targets = sorted({int(p) for p in paddings})
    if targets and targets[0] < 1:
        raise SimulationError("origin padding must be >= 1")
    outcomes: dict[int, PropagationOutcome] = {}
    for p in targets:
        outcomes[p] = (
            canonical
            if p == 1
            else derive_uniform_baseline(canonical, victim, p, metrics=metrics)
        )
    return outcomes


class BaselineCache:
    """LRU memo of converged pre-attack baselines for one engine.

    ``max_entries`` bounds the number of retained outcomes (a full-scale
    outcome holds routes and Adj-RIBs-in for every AS, so unbounded
    campaign caches would grow with the victim pool).  Canonical λ=1
    baselines share the same store, so a victim's canonical entry stays
    hot as long as its derived λ variants are in use.

    The cache returns the *same* outcome object to every caller with an
    equal schedule; callers must treat baselines as immutable (the
    engine's warm start already clones before mutating).
    """

    def __init__(
        self,
        engine: PropagationEngine,
        *,
        max_entries: int = 64,
        metrics: RunMetrics | None = None,
    ) -> None:
        if max_entries < 1:
            raise SimulationError("max_entries must be positive")
        self._engine = engine
        self._max_entries = max_entries
        self._entries: OrderedDict[tuple, PropagationOutcome] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.derived = 0
        #: optional telemetry registry mirroring the local counters into
        #: the ``cache.*`` namespace (public and mutable, like
        #: :attr:`PropagationEngine.metrics`).
        self.metrics = metrics

    def _record(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.count(name)

    @property
    def engine(self) -> PropagationEngine:
        return self._engine

    def __len__(self) -> int:
        return len(self._entries)

    def baseline(
        self,
        victim: int,
        *,
        prefix: str = DEFAULT_PREFIX,
        prepending: PrependingPolicy | None = None,
    ) -> PropagationOutcome:
        """The converged no-attack outcome for ``victim`` under
        ``prepending`` — memoised, and derived from the victim's
        canonical baseline whenever the schedule is uniform-origin."""
        prepending = prepending or PrependingPolicy()
        key = (victim, prefix, prepending.fingerprint())
        cached = self._entries.get(key)
        if cached is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            self._record("cache.baseline_hits")
            return cached
        self.misses += 1
        self._record("cache.baseline_misses")
        padding = prepending.uniform_origin_count(victim)
        if padding is None:
            # Arbitrary schedule: converge it directly.
            outcome = self._engine.propagate(victim, prefix=prefix, prepending=prepending)
        else:
            canonical = self._canonical(victim, prefix)
            if padding == 1:
                return canonical  # _canonical already stored it under this key
            outcome = derive_uniform_baseline(
                canonical, victim, padding, metrics=self.metrics
            )
            self.derived += 1
            self._record("cache.baseline_derivations")
        self._store(key, outcome)
        return outcome

    def prefetch_uniform(
        self,
        victim: int,
        paddings: Iterable[int],
        *,
        prefix: str = DEFAULT_PREFIX,
    ) -> None:
        """Warm the cache for a whole uniform-λ family in one pass.

        A λ-sweep knows every padding it is about to visit; deriving
        them together amortises the walk over the canonical outcome, so
        the per-λ cost drops well below one-at-a-time derivation.
        Already-cached λs are skipped.
        """
        missing = []
        for p in sorted({int(p) for p in paddings}):
            key = (victim, prefix, PrependingPolicy.uniform_origin(victim, p).fingerprint())
            if key not in self._entries:
                missing.append((p, key))
        if not missing:
            return
        canonical = self._canonical(victim, prefix)
        family = derive_uniform_family(
            canonical, victim, [p for p, _ in missing], metrics=self.metrics
        )
        for p, key in missing:
            if p == 1:
                continue  # _canonical already stored it
            self._store(key, family[p])
            self.misses += 1
            self.derived += 1
            self._record("cache.baseline_misses")
            self._record("cache.baseline_derivations")

    def prefetch_canonical_batch(
        self, victims: Iterable[int], *, prefix: str = DEFAULT_PREFIX
    ) -> int:
        """Converge many victims' canonical λ=1 baselines at once.

        On a vectorized-backend engine the missing victims share one
        CSR frontier walk (a key-matrix column each, via
        :meth:`PropagationEngine.propagate_batch`); other backends fall
        back to the per-victim canonical path.  Grids call this before
        their per-victim uniform-λ warm so a campaign's baselines cost
        one batched walk instead of one convergence per victim.
        Returns the number of baselines converged.
        """
        missing = []
        for v in dict.fromkeys(victims):
            key = (v, prefix, PrependingPolicy().fingerprint())
            if key not in self._entries:
                missing.append((v, key))
        if not missing:
            return 0
        if self._engine.backend != "vectorized" or len(missing) == 1:
            for v, _ in missing:
                self._canonical(v, prefix)
            return len(missing)
        outcomes = self._engine.propagate_batch(
            [v for v, _ in missing], prefix=prefix
        )
        for v, key in missing:
            self._record("cache.canonical_convergences")
            self._record("cache.batched_convergences")
            self._store(key, outcomes[v])
        return len(missing)

    # ------------------------------------------------------------------
    def _canonical(self, victim: int, prefix: str) -> PropagationOutcome:
        """The victim's λ=1 baseline (converged at most once)."""
        key = (victim, prefix, PrependingPolicy().fingerprint())
        cached = self._entries.get(key)
        if cached is not None:
            self._entries.move_to_end(key)
            return cached
        outcome = self._engine.propagate(
            victim, prefix=prefix, prepending=PrependingPolicy.uniform_origin(victim, 1)
        )
        self._record("cache.canonical_convergences")
        self._store(key, outcome)
        return outcome

    def _store(self, key: tuple, outcome: PropagationOutcome) -> None:
        self._entries[key] = outcome
        self._entries.move_to_end(key)
        while len(self._entries) > self._max_entries:
            self._entries.popitem(last=False)
