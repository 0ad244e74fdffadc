"""Oracle suite for the engine's cold core, the NumPy CSR wave kernel.

Every test pits the default engine — whose cold stock-policy runs are
kernel columns — against the per-activation loop called by name
(``tests/bgp/loop_oracle.py``; on the tiny worlds the reference
interpreter too) over the same drawn scenario.  The contract under test
is the one pinned in ``repro/bgp/vectorized.py``:

* cold runs agree on ``best``/``best_keys`` (bit-identical, including
  dict iteration order), on every *present* Adj-RIB-in offer, and on
  pollution/reachability sets;
* the kernel side never emits an explicit-``None`` withdrawal;
* warm-started attack runs computed *from* a kernel baseline match
  ones computed from a loop baseline on every field, adoption
  stamps and round counts included;
* failed links are one more input: a cold run with ``failed_links`` is
  a kernel column equal to the reference interpreter with the two
  import filters of ``link_down_filters``, and a warm attack on a
  failed-link world skips the same slots in the loop;
* a cold run asking for what the kernel does not do (a secpol
  deployment, modifiers) is refused by the engine, and the loop, its
  oracle, matches the reference interpreter on it;
* activation order never changes the routes a cold run converges to
  (the reference interpreter's LIFO and random disciplines against the
  kernel).

The scale ladder: hypothesis drives ~50-AS tiny worlds and
scale-parameterized power-law worlds (from ``tests/strategies.py``);
the 1.5k-AS floor runs as one deterministic case so CI always covers a
four-digit topology, and the 10k/80k rungs live in
``benchmarks/test_bench_vectorized_scale.py``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.attack.interception import ASPPInterceptionAttack, simulate_interception
from repro.bgp import engine as engine_module
from repro.bgp import vectorized
from repro.bgp.engine import PropagationEngine
from repro.bgp.prepending import PrependingPolicy
from repro.exceptions import SimulationError, TopologyError, UnknownASError
from repro.experiments.base import build_world
from repro.secpol import AspaPolicy, SecurityDeployment
from repro.telemetry.metrics import RunMetrics
from repro.topology.asgraph import ASGraph
from repro.topology.relationships import PrefClass
from tests.bgp.loop_oracle import loop_propagate
from tests.bgp.reference_engine import ReferenceEngine, link_down_filters
from tests.strategies import (
    SCALE_SMOKE,
    TINY,
    TINY_WITH_SIBLINGS,
    assert_vectorized_matches,
    draw_victim_then_attacker,
    graphs,
    paddings,
    scale_configs,
    scale_world,
    seeds,
    tiny_world,
    vectorized_pair,
)

DIFFERENTIAL_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _lam(rng):
    return rng.choice([1, 2, 3])


def _prep(victim, lam):
    return PrependingPolicy.uniform_origin(victim, lam) if lam > 1 else None


# ----------------------------------------------------------------------
# Cold runs: tiny worlds, kernel vs loop vs reference


class TestColdDifferential:
    @given(seed=seeds)
    @DIFFERENTIAL_SETTINGS
    def test_cold_matches_compiled_and_reference(self, seed):
        world, rng = tiny_world(seed, TINY_WITH_SIBLINGS)
        victim = rng.choice(world.graph.ases)
        prep = _prep(victim, _lam(rng))
        eng_c, eng_v = vectorized_pair(world)
        eng_r = ReferenceEngine(world.graph)
        oc = eng_c.propagate(victim, prepending=prep)
        ov = eng_v.propagate(victim, prepending=prep)
        assert_vectorized_matches(oc, ov)
        assert_vectorized_matches(eng_r.propagate(victim, prepending=prep), ov)

    @given(seed=seeds)
    @DIFFERENTIAL_SETTINGS
    def test_cold_state_arrays_match_on_observable_slots(self, seed):
        """The attached CompiledState (what sweeps and warm starts
        actually read) agrees wherever an offer or route exists."""
        world, rng = tiny_world(seed, TINY)
        victim = rng.choice(world.graph.ases)
        prep = _prep(victim, _lam(rng))
        eng_c, eng_v = vectorized_pair(world)
        sc = eng_c.propagate(victim, prepending=prep).compiled_state
        sv = eng_v.propagate(victim, prepending=prep).compiled_state
        assert sc.best_pref == sv.best_pref
        assert sc.best_from == sv.best_from
        for i, pref in enumerate(sc.best_pref):
            if pref >= 0:
                assert sc.table.reify(sc.best_pid[i]) == sv.table.reify(sv.best_pid[i])
        for k, cpid in enumerate(sc.rib_pid):
            vpid = sv.rib_pid[k]
            assert (cpid >= 0) == (vpid >= 0)
            if cpid >= 0:
                assert sc.rib_pref[k] == sv.rib_pref[k]
                assert sc.table.reify(cpid) == sv.table.reify(vpid)

    @given(config=scale_configs(), seed=seeds)
    @settings(
        max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_cold_matches_at_scale(self, config, seed):
        """Scale-parameterized power-law worlds, loop vs kernel."""
        world, rng = scale_world(seed % 1000, config)
        victim = rng.choice(world.graph.ases)
        prep = _prep(victim, _lam(rng))
        eng_c, eng_v = vectorized_pair(world)
        assert_vectorized_matches(
            eng_c.propagate(victim, prepending=prep),
            eng_v.propagate(victim, prepending=prep),
        )

    def test_cold_matches_at_1500_ases(self):
        """The deterministic 1.5k rung of the oracle ladder."""
        world, rng = scale_world(7, SCALE_SMOKE)
        eng_c, eng_v = vectorized_pair(world)
        for victim in rng.sample(world.graph.ases, 3):
            for lam in (1, 3):
                prep = _prep(victim, lam)
                assert_vectorized_matches(
                    eng_c.propagate(victim, prepending=prep),
                    eng_v.propagate(victim, prepending=prep),
                )


# ----------------------------------------------------------------------
# Attacks, λ chains, warm restarts


class TestAttackDifferential:
    @given(seed=seeds, pad=paddings(1, 4))
    @DIFFERENTIAL_SETTINGS
    def test_interception_reports_identical(self, seed, pad):
        world, rng = tiny_world(seed, TINY_WITH_SIBLINGS)
        victim, attacker = draw_victim_then_attacker(world, rng)
        eng_c, eng_v = vectorized_pair(world)
        rc = simulate_interception(
            eng_c, victim=victim, attacker=attacker, origin_padding=pad
        )
        rv = simulate_interception(
            eng_v, victim=victim, attacker=attacker, origin_padding=pad
        )
        assert rc.report.before == rv.report.before
        assert rc.report.after == rv.report.after
        assert rc.report.newly_polluted == rv.report.newly_polluted
        assert rc.attacker_has_route == rv.attacker_has_route

    @given(seed=seeds)
    @DIFFERENTIAL_SETTINGS
    def test_lambda_chain_from_vectorized_baseline(self, seed):
        """A λ chain (1 → 2 → 3) warm-restarted from a kernel
        baseline is bit-identical — stamps included — to the same
        chain from a loop baseline."""
        world, rng = tiny_world(seed, TINY)
        victim = rng.choice(world.graph.ases)
        eng_c, eng_v = vectorized_pair(world)
        oc = eng_c.propagate(victim)
        ov = eng_v.propagate(victim)
        for lam in (2, 3):
            prep = PrependingPolicy.uniform_origin(victim, lam)
            # the victim re-announces its own route, unmodified
            again = {victim: lambda path: path}
            wc = eng_c.propagate(
                victim, prepending=prep, warm_start=oc, modifiers=again
            )
            wv = eng_c.propagate(
                victim, prepending=prep, warm_start=ov, modifiers=again
            )
            assert_vectorized_matches(wc, wv, stamps=True, warm=True)
            oc, ov = wc, wv


# ----------------------------------------------------------------------
# Failed links: a masked slot pair on the kernel and in the loop


def _links(graph, rng, origin, count):
    """``count`` failed links: one at ``origin`` (the churn shape) when
    it has a neighbour, the rest anywhere, each pair drawn in either
    orientation."""
    edges = sorted((a, b) for a in graph.ases for b in graph.neighbors_of(a) if a < b)
    at_origin = [e for e in edges if origin in e]
    links = rng.sample(at_origin, 1) if at_origin else []
    links += rng.sample(edges, min(count - len(links), len(edges)))
    return [(b, a) if rng.random() < 0.5 else (a, b) for a, b in dict.fromkeys(links)]


def _assert_failed_link_runs_match(graph, rng, origin, attacker, links):
    """The cold run (a kernel column) against the oracle's filters, then
    a warm attack from each side's baseline (the loop's mask against
    the oracle's filters)."""
    prep = _prep(origin, _lam(rng))
    metrics = RunMetrics()
    engine = PropagationEngine(graph, metrics=metrics)
    oracle = ReferenceEngine(graph)
    filters = link_down_filters(links)
    cold = engine.propagate(origin, prepending=prep, failed_links=links)
    ref_cold = oracle.propagate(origin, prepending=prep, import_filters=filters)
    assert_vectorized_matches(ref_cold, cold)
    assert metrics.counter_value("engine.vectorized.propagations") == 1
    if attacker is None:
        return
    attack = {
        "modifiers": {attacker: ASPPInterceptionAttack(attacker, origin).modifier()},
        "violators": {attacker} if rng.random() < 0.5 else (),
    }
    warm = engine.propagate(
        origin, prepending=prep, warm_start=cold, failed_links=links, **attack
    )
    ref_warm = oracle.propagate(
        origin, prepending=prep, warm_start=ref_cold, import_filters=filters, **attack
    )
    assert_vectorized_matches(ref_warm, warm, stamps=True, warm=True)


class TestFailedLinkDifferential:
    @given(graph=graphs(), data=st.data())
    @DIFFERENTIAL_SETTINGS
    def test_drawn_graphs(self, graph, data):
        rng = random.Random(data.draw(seeds))
        origin = rng.choice(graph.ases)
        links = _links(graph, rng, origin, rng.randint(1, 3))
        assume(links)
        others = [a for a in graph.ases if a != origin]
        attacker = rng.choice(others) if others else None
        _assert_failed_link_runs_match(graph, rng, origin, attacker, links)

    @given(seed=seeds)
    @DIFFERENTIAL_SETTINGS
    def test_tiny_worlds(self, seed):
        world, rng = tiny_world(seed, TINY_WITH_SIBLINGS)
        victim, attacker = draw_victim_then_attacker(world, rng)
        links = _links(world.graph, rng, victim, rng.randint(1, 3))
        _assert_failed_link_runs_match(world.graph, rng, victim, attacker, links)

    @pytest.mark.parametrize("seed", [7, 23])
    def test_the_paper_worlds(self, seed):
        """The seed-7 and seed-23 worlds at the shipped 1,545-AS scale:
        churn origins each losing one of their links, then a link
        elsewhere too."""
        world = build_world(seed=seed)
        graph = world.topology.graph
        rng = random.Random(seed)
        for origin in rng.sample(world.topology.stubs, 4):
            attacker = rng.choice(world.topology.transit_ases)
            for count in (1, 2):
                links = _links(graph, rng, origin, count)
                _assert_failed_link_runs_match(graph, rng, origin, attacker, links)

    def test_a_full_rescan_skips_the_failed_link(self):
        """The refused offer stays in the Adj-RIB-in, so a rescan must
        skip it: AS4 loses the tie-break on its failed link to AS2,
        learns from AS3, and keeps AS3's route when AS3's announcement
        grows longer than the one AS2 still offers."""
        graph = ASGraph()
        for provider, customer in ((2, 1), (3, 1), (2, 4), (3, 4)):
            graph.add_p2c(provider, customer)
        links = ((4, 2),)
        longer = {"modifiers": {3: lambda path: path + path[-1:]}}
        engine, oracle = PropagationEngine(graph), ReferenceEngine(graph)
        filters = link_down_filters(links)
        cold = engine.propagate(1, failed_links=links)
        assert cold.adj_rib_in[4][2] == ((2, 1), PrefClass.PROVIDER)
        warm = engine.propagate(1, warm_start=cold, failed_links=links, **longer)
        ref_warm = oracle.propagate(
            1,
            warm_start=oracle.propagate(1, import_filters=filters),
            import_filters=filters,
            **longer,
        )
        assert warm.best[4].path == (3, 1, 1)
        assert_vectorized_matches(ref_warm, warm, stamps=True, warm=True)

    @pytest.mark.parametrize(
        ("link", "error"),
        [((4, 10**9), UnknownASError), ((1, 4), TopologyError)],
        ids=["unknown-as", "not-adjacent"],
    )
    def test_a_bad_link_is_refused_before_convergence(
        self, chain_graph, monkeypatch, link, error
    ):
        """``failed_links`` comes from outside the engine: a pair naming
        an AS the graph lacks, or two ASes that share no link, is an
        error before either core runs."""

        def converge(*args, **kwargs):
            raise AssertionError("converged a run with a bad failed link")

        engine = PropagationEngine(chain_graph)
        baseline = engine.propagate(4)
        monkeypatch.setattr(vectorized, "run_vectorized", converge)
        monkeypatch.setattr(engine_module, "run_compiled", converge)
        for run in ({}, {"warm_start": baseline, "violators": {2}}):
            with pytest.raises(error):
                engine.propagate(4, failed_links=((2, 3), link), **run)


# ----------------------------------------------------------------------
# Refused shapes: secpol, modifiers, masked numpy, activation orders


class TestFallbackShapes:
    """Nothing falls back: a cold run the kernel does not do is refused
    by the engine, and the loop that stays its oracle agrees with the
    reference interpreter on it."""

    @given(seed=seeds)
    @settings(
        max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_a_cold_secpol_run_is_refused(self, seed):
        """The engine refuses it; the loop, run by name, matches the
        reference interpreter on it."""
        world, rng = tiny_world(seed, TINY)
        victim, attacker = draw_victim_then_attacker(world, rng)
        deployers = frozenset(rng.sample(world.graph.ases, 10))
        engine = PropagationEngine(world.graph)
        pol = SecurityDeployment(AspaPolicy(world.graph), deployers)
        with pytest.raises(SimulationError, match="needs a warm start"):
            engine.propagate(victim, secpol=pol)
        oc = loop_propagate(engine, victim, secpol=pol)
        assert oc == ReferenceEngine(world.graph).propagate(victim, secpol=pol)

    @given(seed=seeds)
    @settings(
        max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_a_cold_modifier_run_is_refused(self, seed):
        """The engine refuses it; the loop, run by name, matches the
        reference interpreter on it."""
        world, rng = tiny_world(seed, TINY_WITH_SIBLINGS)
        victim, attacker = draw_victim_then_attacker(world, rng)
        engine = PropagationEngine(world.graph)
        atk = {attacker: lambda p, a=attacker: (a,) + p}
        with pytest.raises(SimulationError, match="needs a warm start"):
            engine.propagate(victim, modifiers=atk)
        oc = loop_propagate(engine, victim, modifiers=atk)
        assert oc == ReferenceEngine(world.graph).propagate(victim, modifiers=atk)

    @given(seed=seeds)
    @settings(
        max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_activation_order_independent_routes(self, seed):
        """Cold kernel routes equal the reference interpreter's under any
        activation discipline (confluence; stamps are per-discipline)."""
        import random as _random

        world, rng = tiny_world(seed, TINY)
        victim = rng.choice(world.graph.ases)
        oracle = ReferenceEngine(world.graph)
        ov = PropagationEngine(world.graph).propagate(victim)
        for activation in ("fifo", "lifo", "random"):
            oc = oracle.propagate(
                victim,
                activation=activation,
                activation_rng=_random.Random(seed),
            )
            assert list(oc.best.items()) == list(ov.best.items())
            assert oc.best_keys == ov.best_keys


# ----------------------------------------------------------------------
# Withdrawal sentinels and adoption-stamp discipline


class TestEmissionDiscipline:
    @given(seed=seeds)
    @DIFFERENTIAL_SETTINGS
    def test_no_explicit_withdrawals_and_stamps_are_forest_depth(self, seed):
        world, rng = tiny_world(seed, TINY_WITH_SIBLINGS)
        victim = rng.choice(world.graph.ases)
        _, eng_v = vectorized_pair(world)
        ov = eng_v.propagate(victim)
        for offers in ov.adj_rib_in.values():
            assert None not in offers.values()
        # Stamp == number of learned-from hops back to the origin.
        for a, route in ov.best.items():
            if route is None:
                assert a not in ov.adoption_round
                continue
            hops = 0
            cur = a
            while cur != victim:
                cur = ov.best[cur].learned_from
                hops += 1
                assert hops <= len(world.graph.ases)
            assert ov.adoption_round[a] == hops
        assert ov.rounds == max(ov.adoption_round.values(), default=0)
