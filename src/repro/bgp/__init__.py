"""BGP substrate: AS paths, routes, policies, and propagation engines.

This package implements the inter-domain routing machinery the paper's
simulator is built on:

* :mod:`repro.bgp.aspath` — AS-PATH algebra including AS-path
  prepending (ASPP), padding extraction and stripping;
* :mod:`repro.bgp.route` — route records;
* :mod:`repro.bgp.prepending` — per-neighbour prepending schedules;
* :mod:`repro.bgp.engine` — the propagation engine (attacker
  transforms, the policy violators of Figures 11-12, failed links,
  warm starts, adoption-round clocks), which converges a cold run on
  the wave kernel and a warm start on the per-activation loop;
* :mod:`repro.bgp.compiled` — the CSR topology, path interning and the
  per-activation loop with the policy-first, length-second decision
  process;
* :mod:`repro.bgp.vectorized` — the NumPy CSR wave kernel the engine
  converges every cold run on, and the impact kernel;
* :mod:`repro.bgp.uphill` — the paper's Figure-2 three-phase algorithm,
  used as an independent oracle;
* :mod:`repro.bgp.collectors` — RouteViews/RIPE-style route collectors;
* :mod:`repro.bgp.updates` — update-stream (churn) simulation.
"""

from repro.bgp.aspath import (
    collapse_prepending,
    origin_of,
    padding_of_origin,
    strip_origin_padding,
)
from repro.bgp.collectors import MonitorView, RouteCollector
from repro.bgp.compiled import CompiledState, CompiledTopology, InternTable
from repro.bgp.engine import PropagationEngine, PropagationOutcome
from repro.bgp.prepending import PrependingPolicy
from repro.bgp.route import Route
from repro.bgp.uphill import three_phase_routes
from repro.bgp.uphill_hijack import paper_hijack_estimate
from repro.bgp.vectorized import (
    run_vectorized,
    vectorized_fixpoint,
)

__all__ = [
    "CompiledState",
    "CompiledTopology",
    "InternTable",
    "origin_of",
    "padding_of_origin",
    "strip_origin_padding",
    "collapse_prepending",
    "Route",
    "PrependingPolicy",
    "PropagationEngine",
    "PropagationOutcome",
    "RouteCollector",
    "MonitorView",
    "three_phase_routes",
    "paper_hijack_estimate",
    "run_vectorized",
    "vectorized_fixpoint",
]
