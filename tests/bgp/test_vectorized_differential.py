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
* refused shapes (secpol deployments, modifiers, import filters,
  non-stock export policies) run on the loop and stay
  identical by construction — the suite checks the refusal is counted
  under its reason *and* the results stay equal;
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

from hypothesis import HealthCheck, given, settings

from repro.attack.interception import simulate_interception
from repro.bgp.engine import PropagationEngine
from repro.bgp.prepending import PrependingPolicy
from repro.secpol import AspaPolicy, SecurityDeployment
from repro.telemetry.metrics import RunMetrics
from tests.bgp.reference_engine import ReferenceEngine
from tests.strategies import (
    SCALE_SMOKE,
    TINY,
    TINY_WITH_SIBLINGS,
    assert_vectorized_matches,
    draw_victim_then_attacker,
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
            wc = eng_c.propagate(
                victim, prepending=prep, warm_start=oc, seed_ases={victim}
            )
            wv = eng_c.propagate(
                victim, prepending=prep, warm_start=ov, seed_ases={victim}
            )
            assert_vectorized_matches(wc, wv, stamps=True, warm=True)
            oc, ov = wc, wv


# ----------------------------------------------------------------------
# Refused shapes: secpol, modifiers, masked numpy, activation orders


class TestFallbackShapes:
    @given(seed=seeds)
    @settings(
        max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_secpol_falls_back_and_stays_identical(self, seed):
        world, rng = tiny_world(seed, TINY)
        victim, attacker = draw_victim_then_attacker(world, rng)
        deployers = frozenset(rng.sample(world.graph.ases, 10))
        eng_c, _ = vectorized_pair(world)
        metrics = RunMetrics()
        eng_v = PropagationEngine(world.graph, metrics=metrics)
        pol = SecurityDeployment(AspaPolicy(world.graph), deployers)
        oc = eng_c.propagate(victim, secpol=pol)
        ov = eng_v.propagate(victim, secpol=pol)
        assert oc == ov
        assert metrics.counter_value("engine.vectorized.fallbacks.secpol") == 1

    @given(seed=seeds)
    @settings(
        max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_modifier_attack_falls_back_and_stays_identical(self, seed):
        world, rng = tiny_world(seed, TINY_WITH_SIBLINGS)
        victim, attacker = draw_victim_then_attacker(world, rng)
        eng_c, eng_v = vectorized_pair(world)
        atk = {attacker: lambda p, a=attacker: (a,) + p}
        oc = eng_c.propagate(victim, modifiers=atk)
        ov = eng_v.propagate(victim, modifiers=atk)
        assert oc == ov

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
