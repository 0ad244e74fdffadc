"""Delta-propagation differentials: the incremental core vs the oracle.

``mode="delta"`` re-converges an attack from its converged baseline by
flooding only the attacker's affected cone, sharing every untouched row
with the baseline state.  These tests are the oracle for the claim that
this is *pure* optimisation: every outcome field — best routes,
Adj-RIBs-in (including the absent-offer vs explicit-``None`` withdrawal
distinction), adoption-round stamps, pollution sets — must be
bit-identical to a cold full propagation on the compiled backend *and*
to the reference interpreter, across random topologies, λ re-announce
chains, security-policy deployments and activation orders.

The cone-minimality class pins the other half of the contract: delta
must not just be right, it must be *small* — ASes outside the touched
set keep the baseline's physical row (same interned path id, no overlay
entry), the touched set covers every changed AS, and a no-op
re-announce collapses to the attacker's own neighbourhood.
"""

from __future__ import annotations

import random
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attack.interception import simulate_interception
from repro.bgp.delta import DeltaState, propagate_delta
from repro.bgp.engine import PropagationEngine
from repro.bgp.prepending import PrependingPolicy
from repro.exceptions import SimulationError
from repro.secpol import build_deployment
from repro.telemetry.metrics import RunMetrics
from tests.strategies import (
    TINY,
    assert_outcomes_identical,
    draw_victim_then_attacker,
    engine_route_points,
    paddings,
    seeds,
    tiny_world,
)


def _mode_engines(graph):
    """(reference, compiled-full, compiled-delta) engines over one graph."""
    return (
        PropagationEngine(graph, backend="reference"),
        PropagationEngine(graph, backend="compiled"),
        PropagationEngine(graph, backend="compiled", mode="delta"),
    )


def _intercept(engine, *, victim, attacker, padding, violate=False, secpol=None):
    return simulate_interception(
        engine,
        victim=victim,
        attacker=attacker,
        origin_padding=padding,
        violate_policy=violate,
        secpol=secpol,
    )


class TestDeltaDifferential:
    @pytest.mark.slow
    @settings(max_examples=12, deadline=None)
    @given(seed=seeds, padding=paddings(), violate=st.booleans())
    def test_attack_identical_to_cold_full_on_both_backends(
        self, seed, padding, violate
    ):
        """The whole sweep-point pipeline — baseline, warm-started
        attack, pollution report — agrees field-for-field with a cold
        full recompute on the compiled backend and with the reference
        interpreter, and the delta engine actually took the delta path
        (zero fallbacks) rather than agreeing by falling back."""
        world, rng = tiny_world(seed)
        victim, attacker = draw_victim_then_attacker(world, rng)
        ref_engine, full_engine, delta_engine = _mode_engines(world.graph)
        delta_engine.metrics = metrics = RunMetrics()

        ref = _intercept(ref_engine, victim=victim, attacker=attacker,
                         padding=padding, violate=violate)
        full = _intercept(full_engine, victim=victim, attacker=attacker,
                          padding=padding, violate=violate)
        delta = _intercept(delta_engine, victim=victim, attacker=attacker,
                           padding=padding, violate=violate)

        for oracle in (ref, full):
            assert_outcomes_identical(oracle.baseline, delta.baseline)
            assert_outcomes_identical(oracle.attacked, delta.attacked)
            assert oracle.report == delta.report
            assert oracle.attacker_has_route == delta.attacker_has_route
        assert metrics.counter_value("engine.delta.propagations") >= 1
        assert metrics.counter_value("engine.delta.fallbacks") == 0

    @pytest.mark.slow
    @settings(max_examples=6, deadline=None)
    @given(seed=seeds, violate=st.booleans())
    def test_lambda_reannounce_chain_identical(self, seed, violate):
        """The fig09 shape: one victim re-announces with λ = 1..5 and
        the attacker strips each time.  Delta mode serves every λ from
        the victim's canonical baseline (the uniform-λ rewrite), so the
        chain exercises shift > 0 floods; points must match the full
        engine λ for λ.  (λ-sweeps themselves run on the impact kernel,
        so the chain goes through the engine route directly.)"""
        world, rng = tiny_world(seed)
        victim, attacker = draw_victim_then_attacker(world, rng)
        _, full_engine, delta_engine = _mode_engines(world.graph)
        delta_engine.metrics = metrics = RunMetrics()
        chain = [(attacker, victim, padding) for padding in range(1, 6)]

        full_points = engine_route_points(
            full_engine, chain, violate_policy=violate
        )
        delta_points = engine_route_points(
            delta_engine, chain, violate_policy=violate
        )
        assert delta_points == full_points
        assert metrics.counter_value("engine.delta.propagations") == 5
        assert metrics.counter_value("engine.delta.fallbacks") == 0

    @pytest.mark.parametrize("policy", ["rov", "aspa", "prependguard"])
    def test_secpol_deployment_identical(self, policy):
        """Deployed security policies force the full-decide branch at
        deployed receivers inside the delta flood too."""
        world, rng = tiny_world(4242)
        graph = world.graph
        victim = world.tier1[0]
        attacker = world.tier2[0]
        _, full_engine, delta_engine = _mode_engines(graph)
        results = []
        for engine in (full_engine, delta_engine):
            baseline = None
            if policy == "prependguard":
                baseline = engine.propagate(
                    victim, prepending=PrependingPolicy.uniform_origin(victim, 3)
                )
            secpol = build_deployment(
                graph, policy=policy, strategy="top-degree-first", fraction=0.6,
                victim=victim, attacker=attacker, baseline=baseline,
            )
            assert secpol is not None
            results.append(
                _intercept(engine, victim=victim, attacker=attacker,
                           padding=3, violate=True, secpol=secpol)
            )
        full, delta = results
        assert_outcomes_identical(full.attacked, delta.attacked)
        assert full.report == delta.report

    @pytest.mark.parametrize("activation", ["fifo", "lifo", "random"])
    def test_activation_orders_identical(self, activation):
        """Same activation trace (same rng seed) ⇒ same adoption stamps,
        not just the same best routes."""
        world, rng = tiny_world(1234)
        victim, attacker = draw_victim_then_attacker(world, rng)
        _, full_engine, delta_engine = _mode_engines(world.graph)
        from repro.attack.interception import ASPPInterceptionAttack

        modifier = ASPPInterceptionAttack(attacker=attacker, victim=victim).modifier()
        outcomes = []
        for engine in (full_engine, delta_engine):
            baseline = engine.propagate(victim)
            outcomes.append(
                engine.propagate(
                    victim,
                    modifiers={attacker: modifier},
                    warm_start=baseline,
                    activation=activation,
                    activation_rng=random.Random(99),
                )
            )
        assert_outcomes_identical(outcomes[0], outcomes[1])

    def test_chained_delta_warm_start_falls_back(self):
        """A DeltaState is a valid *read* state but not a valid delta
        *base* (chained overlays would stack rewrites); warm-starting a
        second attack from one must take the full-recompute fallback and
        still produce the oracle outcome."""
        world, rng = tiny_world(7)
        victim, attacker = draw_victim_then_attacker(world, rng)
        other = next(a for a in world.transit_ases if a not in (victim, attacker))
        _, full_engine, delta_engine = _mode_engines(world.graph)
        delta_engine.metrics = metrics = RunMetrics()
        from repro.attack.interception import ASPPInterceptionAttack

        first = _intercept(delta_engine, victim=victim, attacker=attacker, padding=3)
        assert isinstance(first.attacked.compiled_state, DeltaState)
        modifier = ASPPInterceptionAttack(attacker=other, victim=victim).modifier()
        chained = delta_engine.propagate(
            victim,
            prepending=PrependingPolicy.uniform_origin(victim, 3),
            modifiers={other: modifier},
            warm_start=first.attacked,
        )
        assert metrics.counter_value("engine.delta.fallbacks") == 1
        oracle = full_engine.propagate(
            victim,
            prepending=PrependingPolicy.uniform_origin(victim, 3),
            modifiers={other: modifier},
            warm_start=first.attacked,
        )
        assert_outcomes_identical(oracle, chained)

    def test_propagate_delta_api_matches_full_engine(self):
        """The public ``propagate_delta(baseline, attack)`` entry point —
        not just the engine's delta mode — must reproduce the equivalent
        full-engine warm-start flood, for both a plain cold λ=1 baseline
        and a cache-derived λ>1 baseline, with and without the
        valley-free violation (which seeds the violator set)."""
        from repro.attack.interception import ASPPInterceptionAttack
        from repro.bgp.policy import ExportPolicy
        from repro.runner.cache import BaselineCache

        world, rng = tiny_world(7)
        victim, attacker = draw_victim_then_attacker(world, rng)
        _, full_engine, delta_engine = _mode_engines(world.graph)
        metrics = RunMetrics()

        cold = delta_engine.propagate(victim)
        derived = BaselineCache(delta_engine).baseline(
            victim, prepending=PrependingPolicy.uniform_origin(victim, 3)
        )
        for baseline, padding, violate in (
            (cold, 1, False),
            (derived, 3, True),
        ):
            attack = ASPPInterceptionAttack(
                attacker=attacker, victim=victim, violate_policy=violate
            )
            outcome = propagate_delta(baseline, attack, metrics=metrics)
            assert isinstance(outcome.compiled_state, DeltaState)
            oracle = full_engine.propagate(
                victim,
                prepending=PrependingPolicy.uniform_origin(victim, padding),
                modifiers={attacker: attack.modifier()},
                export_policy=(
                    ExportPolicy(frozenset({attacker})) if violate else ExportPolicy()
                ),
                warm_start=baseline,
            )
            assert_outcomes_identical(oracle, outcome)
        assert metrics.counter_value("engine.delta.propagations") == 2

    def test_propagate_delta_rejects_mismatched_victim(self):
        from repro.attack.interception import ASPPInterceptionAttack

        world, rng = tiny_world(7)
        victim, attacker = draw_victim_then_attacker(world, rng)
        other = next(a for a in world.graph.ases if a not in (victim, attacker))
        engine = PropagationEngine(world.graph, backend="compiled")
        baseline = engine.propagate(victim)
        attack = ASPPInterceptionAttack(attacker=attacker, victim=other)
        with pytest.raises(SimulationError):
            propagate_delta(baseline, attack)

    def test_propagate_delta_rejects_reference_baseline(self):
        from repro.attack.interception import ASPPInterceptionAttack

        world, rng = tiny_world(7)
        victim, attacker = draw_victim_then_attacker(world, rng)
        baseline = PropagationEngine(world.graph, backend="reference").propagate(victim)
        attack = ASPPInterceptionAttack(attacker=attacker, victim=victim)
        with pytest.raises(SimulationError):
            propagate_delta(baseline, attack)


def _delta_attack_state(world, rng, *, victim, attacker, padding):
    """Run one delta-mode attack and return (baseline, attacked, state)."""
    engine = PropagationEngine(world.graph, backend="compiled", mode="delta")
    result = _intercept(engine, victim=victim, attacker=attacker, padding=padding)
    state = result.attacked.compiled_state
    assert isinstance(state, DeltaState), "delta engine fell back unexpectedly"
    return result.baseline, result.attacked, state


class TestConeMinimality:
    @pytest.mark.slow
    @settings(max_examples=10, deadline=None)
    @given(seed=seeds, padding=paddings())
    def test_touched_covers_every_changed_as(self, seed, padding):
        """Soundness of the touched set: any AS whose best route or
        Adj-RIB-in differs from the baseline is in it (touched is a
        superset of changed — it may include ASes that changed and
        changed back during the flood)."""
        world, rng = tiny_world(seed)
        victim, attacker = draw_victim_then_attacker(world, rng)
        baseline, attacked, state = _delta_attack_state(
            world, rng, victim=victim, attacker=attacker, padding=padding
        )
        asn_of = state.table.topo.asn
        touched_asns = {asn_of[i] for i in state.touched}
        rib_touched_asns = {asn_of[i] for i in state.rib_touched}
        for asn in world.graph.ases:
            if attacked.best[asn] != baseline.best[asn]:
                assert asn in touched_asns, f"AS{asn} changed best outside touched"
            if attacked.adj_rib_in[asn] != baseline.adj_rib_in[asn]:
                assert asn in rib_touched_asns, (
                    f"AS{asn} changed its Adj-RIB-in outside rib_touched"
                )
        # The rib overlay is keyed by slot; every written slot belongs
        # to a rib-touched AS (its adjacency region contains the slot).
        indptr = state.table.topo.indptr
        owners = {bisect_right(indptr, slot) - 1 for slot in state.over_rib_pid}
        assert owners == set(state.rib_touched)

    @settings(max_examples=10, deadline=None)
    @given(seed=seeds)
    def test_untouched_ases_share_baseline_rows(self, seed):
        """Copy-on-write minimality at λ=1 (no rewrite shift): outside
        the touched set the delta state has no overlay entry and serves
        the baseline's *same interned path id* — physical sharing, not
        value equality."""
        world, rng = tiny_world(seed)
        victim, attacker = draw_victim_then_attacker(world, rng)
        baseline, attacked, state = _delta_attack_state(
            world, rng, victim=victim, attacker=attacker, padding=1
        )
        base_state = state.base
        n = len(base_state.best_pid)
        assert set(state.over_best_pid) == set(state.touched)
        for i in range(n):
            if i in state.touched:
                continue
            assert i not in state.over_best_pref
            assert i not in state.over_best_from
            # Same interned id object-for-object, not just an equal path.
            assert state.best_pid[i] == base_state.best_pid[i]
            assert state.best_pref[i] == base_state.best_pref[i]
            assert state.best_from[i] == base_state.best_from[i]

    def test_noop_reannounce_touches_nothing(self):
        """The minimality tripwire: re-announcing the attacker's
        *unchanged* route must not touch a single AS — the flood visits
        the attacker's direct neighbours, every offer compares equal to
        the rib, and the frontier dies immediately.  A delta core that
        re-floods the cone on a no-op fails this loudly."""
        world, rng = tiny_world(7)
        victim, attacker = draw_victim_then_attacker(world, rng)
        graph = world.graph
        engine = PropagationEngine(graph, backend="compiled", mode="delta")
        engine.metrics = metrics = RunMetrics()
        baseline = engine.propagate(victim)
        outcome = engine.propagate(
            victim,
            modifiers={attacker: lambda path: path},
            warm_start=baseline,
        )
        state = outcome.compiled_state
        assert isinstance(state, DeltaState)
        assert state.touched == frozenset()
        assert state.rib_touched == frozenset()
        # Nothing adopted, nothing re-routed: zero rounds, empty stamp
        # map, and the routing content is the baseline's verbatim.
        assert outcome.rounds == 0
        assert outcome.adoption_round == {}
        assert outcome.best == baseline.best
        assert outcome.adj_rib_in == baseline.adj_rib_in
        # The flood's whole footprint is the attacker's own neighbourhood.
        degree = len(graph.neighbors_of(attacker))
        assert metrics.counter_value("engine.warm.announcements") <= degree
        histogram = metrics.histograms["engine.delta.frontier_size"]
        assert histogram.max == 1  # the attacker alone seeded the frontier

    @settings(max_examples=8, deadline=None)
    @given(seed=seeds, padding=paddings(min_value=2))
    def test_shifted_floods_stay_sparse(self, seed, padding):
        """λ > 1 floods run in canonical space (shift = λ-1) when the
        baseline is a cache-derived uniform-λ view — the sweep
        pipeline's shape.  The overlays must stay keyed by
        touched/rib-touched exactly as in the unshifted case, and the
        reuse ratio reported to telemetry must equal 1 - touched/n."""
        from repro.runner import BaselineCache

        world, rng = tiny_world(seed)
        victim, attacker = draw_victim_then_attacker(world, rng)
        engine = PropagationEngine(world.graph, backend="compiled", mode="delta")
        engine.metrics = metrics = RunMetrics()
        baseline = BaselineCache(engine).baseline(
            victim, prepending=PrependingPolicy.uniform_origin(victim, padding)
        )
        result = simulate_interception(
            engine,
            victim=victim,
            attacker=attacker,
            origin_padding=padding,
            baseline=baseline,
        )
        state = result.attacked.compiled_state
        assert isinstance(state, DeltaState)
        assert state.shift == padding - 1
        assert set(state.over_best_pid) == set(state.touched)
        indptr = state.table.topo.indptr
        owners = {bisect_right(indptr, slot) - 1 for slot in state.over_rib_pid}
        assert owners == set(state.rib_touched)
        n = len(state.base.best_pid)
        touched_all = state.touched | state.rib_touched
        touched_histogram = metrics.histograms["engine.delta.touched_ases"]
        assert touched_histogram.max == len(touched_all)
        reuse = metrics.histograms["engine.delta.reuse_ratio"]
        assert reuse.min == pytest.approx(1 - len(touched_all) / n)
