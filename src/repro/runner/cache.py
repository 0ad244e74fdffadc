"""Memoisation of converged pre-attack baselines.

Every campaign pair, deployment point and mitigation step first needs
the victim's *no-attack* routing state, then warm-starts the attack
from it.  The same baseline comes up again and again: a campaign draws
several attackers against one victim, a deployment sweep revisits one
(victim, λ) at every fraction, a figure with two attacker-policy series
asks for every baseline twice.

:class:`BaselineCache` removes the repetition and nothing else: it is
an LRU memo over ``engine.propagate(victim, prefix=, prepending=)``,
keyed by ``(victim, prefix, prepending-schedule fingerprint)``.  A miss
is exactly one engine convergence, at the schedule asked for.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.bgp.engine import PropagationEngine, PropagationOutcome
from repro.bgp.prepending import PrependingPolicy
from repro.bgp.route import DEFAULT_PREFIX
from repro.telemetry.metrics import RunMetrics

__all__ = ["BaselineCache"]

#: retained outcomes per cache: a full-scale outcome holds routes and
#: Adj-RIBs-in for every AS, so an unbounded campaign cache would grow
#: with the victim pool.  Read on every insert, so a test may patch it.
MAX_ENTRIES = 64


class BaselineCache:
    """LRU memo of converged pre-attack baselines for one engine,
    bounded at :data:`MAX_ENTRIES` outcomes.

    The cache returns the *same* outcome object to every caller with an
    equal schedule; callers must treat baselines as immutable (the
    engine's warm start already copies before mutating).
    """

    def __init__(
        self,
        engine: PropagationEngine,
        *,
        metrics: RunMetrics | None = None,
    ) -> None:
        self._engine = engine
        self._entries: OrderedDict[tuple, PropagationOutcome] = OrderedDict()
        self.hits = 0
        self.misses = 0
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
        ``prepending`` — memoised; a miss converges it on the engine."""
        prepending = prepending or PrependingPolicy()
        key = (victim, prefix, prepending.fingerprint())
        cached = self._entries.get(key)
        if cached is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            self._record("cache.baseline_hits")
            return cached
        outcome = self._engine.propagate(victim, prefix=prefix, prepending=prepending)
        self.misses += 1
        self._record("cache.baseline_misses")
        # The same count again: the end-to-end benchmark's counter map
        # reads convergences under this name.
        self._record("cache.canonical_convergences")
        self._entries[key] = outcome
        while len(self._entries) > MAX_ENTRIES:
            self._entries.popitem(last=False)
        return outcome
