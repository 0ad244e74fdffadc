"""The per-activation loop, called by name.

A compiled engine never runs the loop cold: every cold run is a column
of the wave kernel, and a cold run with modifiers, violators or a
security policy is an error (an attack needs a warm start from its
baseline).  So a default engine does not answer questions about
:func:`run_compiled`'s *cold* behaviour — FIFO adoption stamps,
explicit-``None`` withdrawal slots, activation counts, the
``MAX_ACTIVATIONS`` guard, cold attack runs.  The suites that ask them
(the compiled-vs-reference differentials, the loop-discipline
invariants) and the suites that need the loop as the kernel's oracle
(``test_vectorized_differential.py``) call it here by name.  The disciplines the
loop does not run (LIFO or random activation, the full rescan with the
fast path off) are the reference interpreter's
(``reference_engine.py``).

:func:`loop_propagate` is one run, cold unless given a ``warm_start``
and its ``seed``; :class:`LoopEngine` is for code that takes an engine
(``simulate_interception``, ``BaselineCache``, worker contexts) — its
warm starts are the stock engine's, which are ``run_compiled`` already.
"""

from __future__ import annotations

from repro.bgp.compiled import run_compiled
from repro.bgp.engine import PropagationEngine
from repro.bgp.prepending import PrependingPolicy
from repro.bgp.route import DEFAULT_PREFIX


def loop_propagate(
    engine: PropagationEngine,
    origin: int,
    *,
    prefix: str = DEFAULT_PREFIX,
    prepending=None,
    modifiers=None,
    violators=frozenset(),
    failed_links=(),
    secpol=None,
    warm_start=None,
    seed=None,
):
    """``engine.propagate(origin, ...)`` on ``run_compiled``, with the
    engine's topology, intern table, budget and registry.  A warm run
    passes the ``seed`` ASes to re-announce from explicitly.  Arguments
    must be valid: the engine's validation is not repeated."""
    topo = engine.compiled_topology
    return run_compiled(
        topo,
        engine._table_for(origin) if warm_start is None else warm_start.compiled_state.table,
        origin=origin,
        prefix=prefix,
        prepending=prepending or PrependingPolicy(),
        modifiers=dict(modifiers or {}),
        violators=frozenset(violators),
        blocked=topo.link_slots(failed_links) or None,
        warm_start=warm_start,
        seed=seed,
        metrics=engine.metrics,
        secpol=secpol,
    )


class LoopEngine(PropagationEngine):
    """A compiled engine whose cold runs are the loop's as well."""

    def propagate(self, origin, *, warm_start=None, **run):
        if warm_start is None:
            return loop_propagate(self, origin, **run)
        return super().propagate(origin, warm_start=warm_start, **run)
