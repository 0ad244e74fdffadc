"""Compiled-vs-reference differentials.

The compiled dense-array core (:mod:`repro.bgp.compiled`) must be
bit-identical to the reference interpreter
(``tests/bgp/reference_engine.py``) on every outcome field — ``best``
routes, Adj-RIBs-in (including the absent-offer vs explicit-``None``
withdrawal distinction), adoption-round stamps and convergence rounds —
across random topologies, attack warm starts, activation orders and
import filters.  These tests are the oracle for that claim.  The
compiled side is the per-activation loop called by name
(``tests/bgp/loop_oracle.py``): a default engine's cold stock-policy
run is a wave-kernel column, whose stamps and withdrawal slots follow
the kernel's contract (``test_vectorized_differential.py``), not the
reference loop's.
"""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attack.impact import pollution_report
from repro.attack.interception import simulate_interception
from repro.bgp.compiled import CompiledTopology, InternTable
from repro.bgp.engine import PropagationEngine
from repro.bgp.prepending import PrependingPolicy
from repro.exceptions import SimulationError
from repro.secpol import build_deployment
from repro.topology.generators import generate_internet_topology
from tests.strategies import (
    TINY,
    assert_outcomes_identical as _assert_outcomes_identical,
    backend_pair as _engines,
    draw_victim_then_attacker,
    live_offers,
    paddings,
    seeds,
)


class TestColdDifferential:
    @settings(max_examples=15, deadline=None)
    @given(seed=seeds, padding=paddings())
    def test_cold_propagation_identical(self, seed, padding):
        world, rng, ref_engine, cmp_engine = _engines(seed)
        origin = rng.choice(world.graph.ases)
        prepending = PrependingPolicy.uniform_origin(origin, padding)
        ref = ref_engine.propagate(origin, prepending=prepending)
        cmp = cmp_engine.propagate(origin, prepending=prepending)
        _assert_outcomes_identical(ref, cmp)

    @settings(max_examples=10, deadline=None)
    @given(seed=seeds)
    def test_per_neighbor_schedule_identical(self, seed):
        """Non-uniform prepending exercises the per-count offer memo."""
        world, rng, ref_engine, cmp_engine = _engines(seed)
        graph = world.graph
        origin = rng.choice([a for a in graph.ases if len(graph.neighbors_of(a)) >= 2])
        prepending = PrependingPolicy()
        for i, neighbor in enumerate(sorted(graph.neighbors_of(origin))):
            prepending.set_padding(origin, neighbor, 1 + (i % 3))
        ref = ref_engine.propagate(origin, prepending=prepending)
        cmp = cmp_engine.propagate(origin, prepending=prepending)
        _assert_outcomes_identical(ref, cmp)


class TestAttackDifferential:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=seeds,
        padding=paddings(),
        violate=st.booleans(),
    )
    def test_warm_started_attack_identical(self, seed, padding, violate):
        """The full sweep-point pipeline — baseline, warm-started attack,
        pollution report — is backend-invariant, including the rib
        entries the attack withdrew (explicit ``None``) vs never made."""
        world, rng, ref_engine, cmp_engine = _engines(seed)
        victim, attacker = draw_victim_then_attacker(world, rng)
        results = []
        for engine in (ref_engine, cmp_engine):
            results.append(
                simulate_interception(
                    engine,
                    victim=victim,
                    attacker=attacker,
                    origin_padding=padding,
                    violate_policy=violate,
                )
            )
        ref, cmp = results
        _assert_outcomes_identical(ref.baseline, cmp.baseline)
        _assert_outcomes_identical(ref.attacked, cmp.attacked)
        assert ref.report == cmp.report
        assert ref.attacker_has_route == cmp.attacker_has_route


class TestWarmProvenance:
    """What a warm run records on its state for the consumers that
    patch instead of rescanning (pollution reports, the mitigation
    controller's touched-AS count)."""

    @settings(max_examples=12, deadline=None)
    @given(seed=seeds, padding=paddings())
    def test_stamps_and_touched_cover_what_the_attack_rewrote(self, seed, padding):
        world, rng, ref_engine, engine = _engines(seed)
        victim, attacker = draw_victim_then_attacker(world, rng)
        result = simulate_interception(
            engine, victim=victim, attacker=attacker, origin_padding=padding
        )
        baseline, attacked = result.baseline, result.attacked
        base, state = baseline.compiled_state, attacked.compiled_state
        assert (base.warm_base, base.touched) == (None, 0)
        assert state.warm_base is base
        index = state.topo.index
        for asn in set(world.graph.ases).difference(attacked.adoption_round):
            assert state.best_row(index[asn]) == base.best_row(index[asn])
        differing = [
            asn
            for asn in world.graph.ases
            if attacked.best[asn] != baseline.best[asn]
            or attacked.adj_rib_in[asn] != baseline.adj_rib_in[asn]
        ]
        assert state.touched >= len(differing)
        # ... and the patched report is the one a scan gives: against an
        # equal baseline that is not the state the attack started from
        # (mask scan), and against an oracle-built baseline with no
        # compiled state at all (tuple scan).
        prepending = PrependingPolicy.uniform_origin(victim, padding)
        twin = engine.propagate(victim, prepending=prepending)
        assert twin.compiled_state.table is state.table
        for other in (twin, ref_engine.propagate(victim, prepending=prepending)):
            assert result.report == pollution_report(
                baseline=other, attacked=attacked, attacker=attacker, victim=victim
            )

    @pytest.mark.parametrize("source", ["eager", "unpickled", "other-graph"])
    def test_a_foreign_warm_start_is_refused(self, source):
        """A warm start loads the compiled state of an outcome converged
        on the engine's topology; an oracle-built, unpickled or another
        graph's outcome is refused, never re-interned.  Another engine
        over the same graph shares the topology, so its outcomes load."""
        world, rng, ref_engine, engine = _engines(7)
        victim, attacker = draw_victim_then_attacker(world, rng)
        foreign = {
            "eager": lambda: ref_engine.propagate(victim),
            "unpickled": lambda: pickle.loads(pickle.dumps(engine.propagate(victim))),
            "other-graph": lambda: PropagationEngine(world.graph.copy()).propagate(victim),
        }[source]()
        with pytest.raises(SimulationError, match="this engine's topology"):
            simulate_interception(
                engine, victim=victim, attacker=attacker, origin_padding=3, baseline=foreign
            )
        shared = PropagationEngine(world.graph).propagate(victim)
        result = simulate_interception(
            engine, victim=victim, attacker=attacker, origin_padding=1, baseline=shared
        )
        assert result.attacked.compiled_state.warm_base is shared.compiled_state

    def test_noop_reannounce_touches_nothing(self):
        """Re-announcing the attacker's *unchanged* route must not touch
        a single AS: every offer compares equal to the rib and the
        frontier dies at the attacker's neighbours."""
        world, rng, _, engine = _engines(7)
        victim, attacker = draw_victim_then_attacker(world, rng)
        baseline = engine.propagate(victim)
        outcome = engine.propagate(
            victim, modifiers={attacker: lambda path: path}, warm_start=baseline
        )
        state = outcome.compiled_state
        assert state.warm_base is baseline.compiled_state
        assert (state.touched, outcome.rounds, outcome.adoption_round) == (0, 0, {})
        assert outcome.best == baseline.best
        assert outcome.adj_rib_in == baseline.adj_rib_in


class TestActivationOrders:
    """The loop runs FIFO with its fast path and nothing else; the other
    disciplines are the oracle's, and must reach the loop's fixpoint."""

    @pytest.mark.parametrize("activation", ["fifo", "lifo", "random"])
    def test_each_order_identical_across_backends(self, activation):
        """The oracle's FIFO trace is the loop's, adoption stamps
        included; LIFO and random orders reach the same routes and live
        offers (Gao-Rexford stability), only the clock differs."""
        world, rng, ref_engine, cmp_engine = _engines(1234)
        origin = world.stubs[0]
        ref = ref_engine.propagate(
            origin, activation=activation, activation_rng=random.Random(99)
        )
        cmp = cmp_engine.propagate(origin)
        if activation == "fifo":
            _assert_outcomes_identical(ref, cmp)
        else:
            assert ref.best == cmp.best
            assert live_offers(ref) == live_offers(cmp)

    def test_non_incremental_mode_identical(self):
        """The fast path is the oracle's full rescan, bit for bit."""
        world, rng, ref_engine, cmp_engine = _engines(77)
        origin = world.tier2[0]
        ref = ref_engine.propagate(origin, incremental=False)
        cmp = cmp_engine.propagate(origin)
        _assert_outcomes_identical(ref, cmp)


class TestInternTable:
    @settings(max_examples=50, deadline=None)
    @given(
        path=st.lists(st.integers(1, 8), min_size=0, max_size=12).map(tuple)
    )
    def test_intern_reify_round_trips(self, path):
        graph_world = generate_internet_topology(TINY, random.Random(3))
        topo = CompiledTopology.from_graph(graph_world.graph)
        table = InternTable(topo)
        pid = table.intern_tuple(path)
        assert table.reify(pid) == path

    def test_equal_paths_intern_to_equal_ids(self):
        """Canonical run-merging: a path built hop by hop and the same
        path interned as a tuple share one id — the property that lets
        the engine compare paths by id."""
        world = generate_internet_topology(TINY, random.Random(3))
        topo = CompiledTopology.from_graph(world.graph)
        table = InternTable(topo)
        a, b, c = 0, 1, 2
        # (b, b, a) built as extend(extend(a), b run 2) vs one-at-a-time.
        base = table.extend(0, a, 1)
        merged = table.extend(base, b, 2)
        stepwise = table.extend(table.extend(base, b, 1), b, 1)
        assert merged == stepwise
        tupled = table.intern_tuple(table.reify(merged))
        assert tupled == merged
        assert table.length[merged] == 3
        # Mask covers exactly the members.
        assert table.mask[merged] == (1 << a) | (1 << b)
        assert not table.mask[merged] & (1 << c)

    def test_off_topology_asns_get_synthetic_indices(self):
        world = generate_internet_topology(TINY, random.Random(3))
        topo = CompiledTopology.from_graph(world.graph)
        table = InternTable(topo)
        foreign = max(world.graph.ases) + 1000
        pid = table.intern_tuple((foreign, world.graph.ases[0]))
        assert table.reify(pid) == (foreign, world.graph.ases[0])
        assert table.index_of(foreign) >= topo.n


class TestSecpolDifferential:
    """Security policies force the full-decide branch at deployed
    receivers; the compiled pid-space checkers must agree with the
    reference tuple-space checks on every outcome field."""

    @staticmethod
    def _attack(engine, world, *, victim, attacker, secpol, violate=True):
        return simulate_interception(
            engine,
            victim=victim,
            attacker=attacker,
            origin_padding=3,
            violate_policy=violate,
            secpol=secpol,
        )

    @staticmethod
    def _deployment(engine, world, *, policy, strategy, fraction, victim, attacker):
        baseline = None
        if policy == "prependguard":
            baseline = engine.propagate(
                victim, prepending=PrependingPolicy.uniform_origin(victim, 3)
            )
        return build_deployment(
            engine.graph,
            policy=policy,
            strategy=strategy,
            fraction=fraction,
            victim=victim,
            attacker=attacker,
            baseline=baseline,
        )

    @pytest.mark.parametrize("policy", ["rov", "aspa", "prependguard"])
    @pytest.mark.parametrize(
        "strategy", ["random", "top-degree-first", "tier1-only", "victim-cone"]
    )
    def test_policy_attacks_identical(self, policy, strategy):
        world, rng, ref_engine, cmp_engine = _engines(20_0825)
        victim = world.tier1[0]
        attacker = world.tier2[0]
        results = []
        for engine in (ref_engine, cmp_engine):
            secpol = self._deployment(
                engine,
                world,
                policy=policy,
                strategy=strategy,
                fraction=0.6,
                victim=victim,
                attacker=attacker,
            )
            assert secpol is not None
            results.append(
                self._attack(
                    engine, world, victim=victim, attacker=attacker, secpol=secpol
                )
            )
        ref, cmp = results
        _assert_outcomes_identical(ref.baseline, cmp.baseline)
        _assert_outcomes_identical(ref.attacked, cmp.attacked)
        assert ref.report == cmp.report

    @settings(max_examples=6, deadline=None)
    @given(
        seed=seeds,
        fraction=st.sampled_from([0.2, 0.6, 1.0]),
        violate=st.booleans(),
    )
    def test_random_scenarios_identical(self, seed, fraction, violate):
        world, rng, ref_engine, cmp_engine = _engines(seed)
        victim, attacker = draw_victim_then_attacker(world, rng)
        policy = rng.choice(["rov", "aspa", "prependguard"])
        results = []
        for engine in (ref_engine, cmp_engine):
            secpol = self._deployment(
                engine,
                world,
                policy=policy,
                strategy="random",
                fraction=fraction,
                victim=victim,
                attacker=attacker,
            )
            results.append(
                self._attack(
                    engine,
                    world,
                    victim=victim,
                    attacker=attacker,
                    secpol=secpol,
                    violate=violate,
                )
            )
        ref, cmp = results
        _assert_outcomes_identical(ref.attacked, cmp.attacked)
        assert ref.report == cmp.report

    def test_fraction_zero_is_the_pristine_code_path(self):
        """The 0%-deployment tripwire: build_deployment returns None and
        the attack outcome is bit-identical to one run without any
        security plumbing at all, on both backends."""
        world, rng, ref_engine, cmp_engine = _engines(31_337)
        victim = world.tier1[0]
        attacker = world.tier2[0]
        for engine in (ref_engine, cmp_engine):
            secpol = self._deployment(
                engine,
                world,
                policy="aspa",
                strategy="top-degree-first",
                fraction=0.0,
                victim=victim,
                attacker=attacker,
            )
            assert secpol is None
            with_arg = self._attack(
                engine, world, victim=victim, attacker=attacker, secpol=secpol
            )
            without = self._attack(
                engine, world, victim=victim, attacker=attacker, secpol=None
            )
            _assert_outcomes_identical(with_arg.attacked, without.attacked)
            assert with_arg.report == without.report

    def test_rov_full_deployment_equals_no_defense(self):
        """The negative control is an equality, not a tendency: ROV at
        100% deployment produces the *same* attacked outcome as no
        defense, because interception never forges the origin."""
        world, rng, ref_engine, cmp_engine = _engines(55)
        victim = world.tier1[0]
        attacker = world.tier2[0]
        for engine in (ref_engine, cmp_engine):
            secpol = self._deployment(
                engine,
                world,
                policy="rov",
                strategy="top-degree-first",
                fraction=1.0,
                victim=victim,
                attacker=attacker,
            )
            defended = self._attack(
                engine, world, victim=victim, attacker=attacker, secpol=secpol
            )
            undefended = self._attack(
                engine, world, victim=victim, attacker=attacker, secpol=None
            )
            _assert_outcomes_identical(defended.attacked, undefended.attacked)
