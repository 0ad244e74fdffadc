"""Oracle suite for the impact kernel (``repro.bgp.vectorized.ImpactKernel``).

The kernel answers an impact-only attack cell — ``(before, after,
attacker kept a route)`` — from a two-source packed-key fixpoint,
without building a single route.  Its oracle is the route-building
pipeline every other cell still takes: ``simulate_interception`` on the
compiled engine — its per-activation loop by name, so the oracle shares
no wave code with the kernel — then the pollution report.

* a hypothesis differential over random relationship graphs mixing
  p2c / p2p / s2s edges, with isolated ASes, unrouted attackers,
  attackers adjacent to the victim, ``λ < keep`` and policy-violating
  attackers all drawn by the same seed;
* batch == column at a time == any split of the batch, at any batch
  width the internal budget can produce;
* a hand-built golden topology on which an overlay flood over the
  baseline — either flavour — gets the count wrong;
* the fix that rode along: a kernel-column cold run on an edgeless
  graph.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.attack.interception import simulate_interception
from repro.bgp import vectorized
from repro.bgp.compiled import CompiledTopology
from repro.bgp.engine import PropagationEngine
from repro.bgp.vectorized import ImpactKernel
from repro.exceptions import SimulationError
from repro.topology.asgraph import ASGraph
from tests.bgp.loop_oracle import LoopEngine
from tests.strategies import TINY_WITH_SIBLINGS, seeds, tiny_world

KERNEL_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def random_relationship_graph(rng: random.Random) -> ASGraph:
    """3-24 ASes, each pair linked with a drawn density by a drawn
    relationship.  p2c edges follow one global rank order, so the
    provider hierarchy is acyclic (Gao-Rexford); sparse draws leave
    isolated ASes and disconnected islands behind."""
    asns = rng.sample(range(1, 500), rng.randint(3, 24))
    graph = ASGraph()
    for asn in asns:
        graph.add_as(asn)
    density = rng.choice([0.08, 0.15, 0.3, 0.5])
    for i, upper in enumerate(asns):
        for lower in asns[i + 1 :]:
            if rng.random() < density:
                kind = rng.choices(("p2c", "p2p", "s2s"), (6, 3, 1))[0]
                getattr(graph, f"add_{kind}")(upper, lower)
    return graph


def draw_cells(graph: ASGraph, rng: random.Random, count: int):
    """``(victim, attacker, λ, keep, violate)`` cells; a neighbour of
    the victim is drawn as attacker about a quarter of the time."""
    cells = []
    for _ in range(count):
        victim = rng.choice(graph.ases)
        adjacent = sorted(graph.neighbors_of(victim))
        if adjacent and rng.random() < 0.25:
            attacker = rng.choice(adjacent)
        else:
            attacker = rng.choice([a for a in graph.ases if a != victim])
        cells.append(
            (
                victim,
                attacker,
                rng.choice([1, 2, 3, 4, 6]),
                rng.choice([1, 1, 2, 3]),
                rng.random() < 0.4,
            )
        )
    return cells


def engine_counts(engine, cell, **attack):
    victim, attacker, padding, keep, violate = cell
    result = simulate_interception(
        engine,
        victim=victim,
        attacker=attacker,
        origin_padding=padding,
        keep=keep,
        violate_policy=violate,
        **attack,
    )
    return (
        len(result.report.before),
        len(result.report.after),
        result.attacker_has_route,
    )


class TestKernelDifferential:
    @given(seed=seeds)
    @KERNEL_SETTINGS
    def test_random_graphs_match_the_compiled_engine(self, seed):
        rng = random.Random(seed)
        graph = random_relationship_graph(rng)
        cells = draw_cells(graph, rng, 24)
        engine = LoopEngine(graph)
        kernel = ImpactKernel(CompiledTopology.of(graph))
        assert kernel.run(cells) == [engine_counts(engine, cell) for cell in cells]

    @given(seed=seeds)
    @KERNEL_SETTINGS
    def test_any_split_of_a_batch_gives_the_same_counts(self, seed):
        rng = random.Random(seed)
        graph = random_relationship_graph(rng)
        cells = draw_cells(graph, rng, 16)
        topo = CompiledTopology.of(graph)
        whole = ImpactKernel(topo).run(cells)
        one_at_a_time = ImpactKernel(topo)
        assert [one_at_a_time.run([cell])[0] for cell in cells] == whole
        cut = rng.randint(0, len(cells))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(vectorized, "_COLUMN_MEMO", 1)  # evict within a batch
            split = ImpactKernel(topo)
            assert split.run(cells[:cut]) + split.run(cells[cut:]) == whole

    @pytest.mark.parametrize("budget", [1, 200, 1 << 30])
    def test_counts_do_not_depend_on_the_batch_width(self, budget, monkeypatch):
        """The budget only decides how many columns share a fixpoint."""
        world, rng = tiny_world(11, TINY_WITH_SIBLINGS)
        cells = draw_cells(world.graph, rng, 40)
        topo = CompiledTopology.of(world.graph)
        reference = ImpactKernel(topo).run(cells)
        monkeypatch.setattr(vectorized, "_IMPACT_BUDGET", budget)
        assert ImpactKernel(topo).run(cells) == reference

    @given(seed=seeds)
    @settings(max_examples=15, deadline=None)
    def test_tiered_worlds_and_collapse_all_stripping(self, seed):
        """On generated tiered worlds, and with ``strip_mode="all"``:
        under a uniform-origin schedule the victim's run is the only
        prepending on any path, so collapsing every run is
        origin-stripping down to one copy whatever ``keep`` says."""
        world, rng = tiny_world(seed, TINY_WITH_SIBLINGS)
        cells = draw_cells(world.graph, rng, 12)
        engine = LoopEngine(world.graph)
        kernel = ImpactKernel(CompiledTopology.of(world.graph))
        assert kernel.run(cells) == [engine_counts(engine, cell) for cell in cells]
        collapsed = [(v, m, lam, 1, violate) for v, m, lam, _, violate in cells]
        assert kernel.run(collapsed) == [
            engine_counts(engine, cell, strip_mode="all") for cell in cells
        ]

    def test_unrouted_attacker_and_isolated_victim(self):
        graph = ASGraph()
        graph.add_p2c(1, 2)
        graph.add_p2c(1, 3)
        graph.add_as(9)  # isolated
        kernel = ImpactKernel(CompiledTopology.of(graph))
        engine = LoopEngine(graph)
        cells = [(2, 9, 3, 1, False), (9, 1, 3, 1, True), (2, 1, 1, 2, False)]
        counts = kernel.run(cells)
        assert counts == [engine_counts(engine, cell) for cell in cells]
        assert counts[0] == (0, 0, False)  # no route, nothing to announce
        assert counts[1] == (0, 0, False)  # nobody hears an isolated victim

    def test_domain_is_declared_not_discovered(self, monkeypatch):
        graph = ASGraph()
        graph.add_p2c(1, 2)
        topo = CompiledTopology.of(graph)
        ImpactKernel(topo)
        vectorized._check_domain(topo, 3)
        with pytest.raises(SimulationError, match="packed decision key"):
            vectorized._check_domain(topo, vectorized._MAX_LEN)
        monkeypatch.setattr(vectorized, "_MAX_N", 2)
        with pytest.raises(SimulationError, match="packed decision key"):
            ImpactKernel(topo)


# ----------------------------------------------------------------------
# The overlay trap, as a golden topology.
#
#   Q(2) ====peer==== P(3)          H(11)
#    |  \\             / | \\         /  \\
#    |   peer        C(4) |  \\     V(1)  G(12)
#    |     \\         |   |   \\            |
#   V(1)   T(6)----- M(5) X1(7) X2(9)     P2(8) -- J(13) -- P3(10)
#                          |     |          |                 |
#                          +-----|----------+                 |
#                                +----------------------------+
#
# Q and H are V's providers; T peers with Q; M buys transit from T and
# from C, C from P; X1 buys from P and P2, X2 from P and P3; G buys
# from H, P2 from G, J from P2, P3 from J.  At λ=2:
#
# * baseline: P uses its peer route via Q (length 3), X1 and X2 both
#   sit behind P (length 4; their other providers offer 5 and 7), and
#   M uses T (length 4) — nobody routes through M;
# * a policy-violating M leaks its stripped route (M T Q V, length 4)
#   up to C, which hands P a *customer* route of length 5.  Class beats
#   length: P abandons the shorter peer route and is polluted, and what
#   it now offers X1 and X2 is length 6.  X1 falls back to P2 (length
#   5, clean); X2's alternative is length 7, so it follows P.
#
# after = {C, P, X2} = 3.  ``min(baseline, flood from M)`` keeps X2 on
# a baseline route that no longer exists (2); "everything downstream
# of a switched node is polluted" takes X1 too (4).
V, Q, P, C, M, T, X1, P2, X2, P3, H, G, J = range(1, 14)


def overlay_trap_graph() -> ASGraph:
    graph = ASGraph()
    for provider, customer in (
        (Q, V), (H, V), (T, M), (C, M), (P, C), (P, X1), (P2, X1), (P, X2),
        (P3, X2), (H, G), (G, P2), (P2, J), (J, P3),
    ):
        graph.add_p2c(provider, customer)
    graph.add_p2p(Q, P)
    graph.add_p2p(Q, T)
    return graph


class TestOverlayTrap:
    def test_baseline_is_as_drawn(self):
        engine = PropagationEngine(overlay_trap_graph())
        from repro.bgp.prepending import PrependingPolicy

        baseline = engine.propagate(V, prepending=PrependingPolicy.uniform_origin(V, 2))
        assert baseline.path_of(P) == (Q, V, V)
        assert baseline.path_of(X1) == (P, Q, V, V)
        assert baseline.path_of(X2) == (P, Q, V, V)
        assert baseline.path_of(M) == (T, Q, V, V)

    def test_two_source_fixpoint_gets_the_fallback_right(self):
        graph = overlay_trap_graph()
        kernel = ImpactKernel(CompiledTopology.of(graph))
        engine = PropagationEngine(graph)
        leak = (V, M, 2, 1, True)
        assert kernel.run([leak]) == [(0, 3, True)]
        assert engine_counts(engine, leak) == (0, 3, True)
        result = simulate_interception(
            engine, victim=V, attacker=M, origin_padding=2, violate_policy=True
        )
        assert result.report.after == {C, P, X2}
        assert result.attacked.path_of(X1) == (P2, G, H, V, V)

    def test_a_valley_free_attacker_reaches_nobody_here(self):
        kernel = ImpactKernel(CompiledTopology.of(overlay_trap_graph()))
        assert kernel.run([(V, M, 2, 1, False)]) == [(0, 0, True)]


# ----------------------------------------------------------------------
class TestEdgelessGraph:
    """``counts.max()`` over zero slots used to raise ValueError."""

    @pytest.mark.parametrize("ases", [(1,), (1, 2)])
    def test_vectorized_backend_returns_the_origin_only_outcome(self, ases):
        graph = ASGraph()
        for asn in ases:
            graph.add_as(asn)
        vectorized_outcome = PropagationEngine(graph).propagate(1)
        compiled_outcome = LoopEngine(graph).propagate(1)
        assert vectorized_outcome.best == compiled_outcome.best
        assert vectorized_outcome.adj_rib_in == compiled_outcome.adj_rib_in
        best = vectorized_outcome.best
        assert [asn for asn, route in best.items() if route is not None] == [1]

    def test_fixpoint_and_kernel_on_two_unlinked_ases(self):
        graph = ASGraph()
        graph.add_as(1)
        graph.add_as(2)
        keys, waves, _ = vectorized.vectorized_fixpoint(CompiledTopology.of(graph), [1, 2])
        assert waves == 1
        assert (keys < (np.int64(5) << 53)).sum() == 2
        kernel = ImpactKernel(CompiledTopology.of(graph))
        assert kernel.run([(1, 2, 3, 1, False)]) == [(0, 0, False)]
