"""The closed detect → mitigate → re-converge loop.

Determinism is the contract: the loop's outcome is a pure function of
``(stream, policy, fault plan)`` — feed count, backpressure policy and
interleaving must not change a single field of the mitigation step, and
a recoverable fault plan must leave the step *and* the alarm stream
bit-identical to the fault-free run.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.engine import PropagationEngine
from repro.detection.pipeline import FeedFault, FeedFaultPlan
from repro.exceptions import SimulationError
from repro.measurement.churn import ChurnConfig, synthesize_churn_stream
from repro.mitigation import (
    MITIGATION_STRATEGIES,
    MitigationController,
    MitigationPolicy,
    mitigated_padding,
    mitigation_update_stream,
    run_closed_loop,
)
from repro.telemetry.metrics import RunMetrics


@pytest.fixture(scope="module")
def churn():
    """One shared small stream with a λ=3 interception burst."""
    return synthesize_churn_stream(
        ChurnConfig(
            seed=7, scale=0.2, monitors=20, prefixes=2, updates=600, padding=3
        )
    )


@pytest.fixture(scope="module")
def background():
    """A stream with no attack in it."""
    return synthesize_churn_stream(
        ChurnConfig(
            seed=7, scale=0.2, monitors=15, prefixes=2, updates=200, attack=False
        )
    )


class TestStrategyTable:
    def test_none_keeps_lambda(self):
        assert mitigated_padding("none", 5) == 5

    def test_stepdown_moves_toward_floor(self):
        assert mitigated_padding("stepdown", 5) == 4
        assert mitigated_padding("stepdown", 5, step=3) == 2
        assert mitigated_padding("stepdown", 2, step=5, floor=1) == 1

    def test_reset_jumps_to_floor_and_never_raises_lambda(self):
        assert mitigated_padding("reset", 5) == 1
        assert mitigated_padding("reset", 5, floor=2) == 2
        assert mitigated_padding("reset", 1, floor=3) == 1  # min(current, floor)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(SimulationError):
            mitigated_padding("filter", 3)
        with pytest.raises(SimulationError):
            mitigated_padding("reset", 0)
        with pytest.raises(SimulationError):
            mitigated_padding("stepdown", 3, step=0)
        with pytest.raises(SimulationError):
            mitigated_padding("stepdown", 3, floor=0)

    def test_policy_validates_eagerly(self):
        with pytest.raises(SimulationError):
            MitigationPolicy(strategy="filter")
        with pytest.raises(SimulationError):
            MitigationPolicy(reaction_updates=-1)
        assert MitigationPolicy().strategy == "stepdown"


class TestClosedLoop:
    def test_detects_and_reports_the_three_clocks(self, churn):
        report = run_closed_loop(churn)
        step = report.step
        assert step.detected
        assert step.time_to_detect is not None and step.time_to_detect >= 0
        assert step.time_to_mitigate == MitigationPolicy().reaction_updates
        assert step.padding_before == 3
        assert step.padding_after == 2
        assert step.time_to_recover > 0
        assert step.touched_ases > 0
        assert step.pollution_attack > step.pollution_baseline
        assert step.pollution_residual < step.pollution_attack
        assert step.alarms > 0

    def test_recovery_clock_and_touched_count_are_pinned(self):
        """``mitigate-stream --updates 4000 --monitors 100 --seed 7`` (the
        shape of the end-to-end benchmark's mitigation leg): the warm
        re-convergence takes 3 rounds and touches 97 ASes."""
        stream = synthesize_churn_stream(
            ChurnConfig(
                seed=7, scale=0.5, monitors=100, prefixes=4, updates=4000, padding=3
            )
        )
        step = run_closed_loop(stream).step
        assert (step.attacker, step.victim) == (6, 94)
        assert (step.padding_before, step.padding_after) == (3, 2)
        assert (step.time_to_recover, step.touched_ases) == (3, 97)
        ladder = (step.pollution_baseline, step.pollution_attack, step.pollution_residual)
        assert [f"{share:.1%}" for share in ladder] == ["6.4%", "15.7%", "8.4%"]

    def test_none_arm_keeps_the_attack_pollution(self, churn):
        report = run_closed_loop(churn, policy=MitigationPolicy(strategy="none"))
        step = report.step
        assert step.detected
        assert step.padding_after == step.padding_before
        assert step.time_to_recover == 0
        assert step.touched_ases == 0
        assert step.pollution_residual == step.pollution_attack
        assert step.self_alarms == 0

    def test_reset_collapses_pollution_to_organic(self, churn):
        report = run_closed_loop(churn, policy=MitigationPolicy(strategy="reset"))
        step = report.step
        assert step.padding_after == 1
        assert step.recovered
        assert step.pollution_residual <= step.pollution_baseline + 1e-12

    def test_streams_without_attack_are_rejected(self, background):
        with pytest.raises(SimulationError):
            run_closed_loop(background)

    def test_self_alarms_are_excluded_from_the_attack_verdict(self, churn):
        stepdown = run_closed_loop(churn)
        control = run_closed_loop(churn, policy=MitigationPolicy(strategy="none"))
        # the re-announce lowers padding — exactly the detector's trigger —
        # so its alarms must be accounted separately, not added to the verdict
        assert stepdown.step.alarms == control.step.alarms
        assert len(stepdown.alarms) >= stepdown.step.alarms

    @settings(max_examples=10, deadline=None)
    @given(
        feeds=st.integers(1, 5),
        policy=st.sampled_from(("block", "park")),
        batch=st.sampled_from((16, 64, 256)),
        interleave=st.one_of(st.none(), st.integers(0, 10**6)),
    )
    def test_step_is_invariant_to_pipeline_shape(
        self, churn, feeds, policy, batch, interleave
    ):
        reference = run_closed_loop(churn).step
        step = run_closed_loop(
            churn,
            feeds=feeds,
            backpressure=policy,
            batch=batch,
            rng=None if interleave is None else random.Random(interleave),
        ).step
        assert step == reference

    @settings(max_examples=8, deadline=None)
    @given(
        feeds=st.integers(1, 4),
        policy=st.sampled_from(("block", "drop", "park")),
        plan_seed=st.integers(0, 10**6),
        strategy=st.sampled_from(MITIGATION_STRATEGIES),
    )
    def test_recoverable_faults_leave_the_loop_bit_identical(
        self, churn, feeds, policy, plan_seed, strategy
    ):
        capacity = len(churn.messages) + 1  # keeps drop lossless
        mitigation = MitigationPolicy(strategy=strategy)
        base = run_closed_loop(
            churn, policy=mitigation, feeds=feeds,
            backpressure=policy, capacity=capacity,
        )
        plan = FeedFaultPlan.seeded(feeds, seed=plan_seed, rate=0.9)
        faulted = run_closed_loop(
            churn, policy=mitigation, feeds=feeds,
            backpressure=policy, capacity=capacity, fault_plan=plan,
        )
        assert faulted.step == base.step
        assert faulted.alarms == base.alarms
        assert faulted.lost == 0

    def test_unrecoverable_plan_degrades_gracefully(self, churn):
        # every feed dark for the whole stream: the loop goes blind but
        # must not raise, and the attack keeps its full pollution.
        feeds = 3
        plan = FeedFaultPlan(
            {
                feed_id: (
                    FeedFault(
                        mode="outage",
                        at=0,
                        span=len(churn.messages),
                        recoverable=False,
                    ),
                )
                for feed_id in range(feeds)
            }
        )
        report = run_closed_loop(churn, feeds=feeds, fault_plan=plan)
        step = report.step
        assert not step.detected
        assert step.time_to_detect is None
        assert step.time_to_mitigate == 0
        assert step.padding_after == step.padding_before
        assert step.pollution_residual == step.pollution_attack
        assert report.lost > 0

    def test_slo_breaches_surface_in_the_report(self, churn):
        from repro.telemetry.slo import SLORegistry, default_pipeline_slos

        slos = SLORegistry(
            default_pipeline_slos(alarm_latency_updates=0.0, recovery_rounds=0.0)
        )
        report = run_closed_loop(churn, slos=slos)
        kinds = {event["kind"] for event in report.breaches}
        assert "alarm-latency" in kinds
        assert "recovery-deadline" in kinds

    def test_metrics_record_the_reaction(self, churn):
        metrics = RunMetrics()
        report = run_closed_loop(churn, metrics=metrics)
        assert metrics.counter_value("mitigation.reactions") == 1
        assert (
            metrics.histograms["mitigation.recovery_rounds"].max
            == report.step.time_to_recover
        )
        assert (
            metrics.histograms["mitigation.touched_ases"].total
            == report.step.touched_ases
        )


class TestControllerAndStream:
    def test_controller_reuses_the_lambda_family_cache(self, churn):
        engine = PropagationEngine(churn.world.graph)
        controller = MitigationController(
            engine, MitigationPolicy(strategy="reset")
        )
        new_padding, mitigated, rounds, touched = controller.mitigate(churn)
        assert new_padding == 1
        # a second call hits the same cached λ' baseline
        again = controller.mitigate(churn)
        assert again[0] == new_padding
        assert again[2] == rounds
        assert again[3] == touched

    def test_controller_none_strategy_is_a_no_op(self, churn):
        engine = PropagationEngine(churn.world.graph)
        controller = MitigationController(engine, MitigationPolicy(strategy="none"))
        new_padding, mitigated, rounds, touched = controller.mitigate(churn)
        assert new_padding == churn.attack_result.origin_padding
        assert mitigated is churn.attack_result.attacked
        assert rounds == 0 and touched == 0

    def test_controller_rejects_attackless_streams(self, background):
        engine = PropagationEngine(background.world.graph)
        controller = MitigationController(engine, MitigationPolicy())
        with pytest.raises(SimulationError):
            controller.mitigate(background)

    def test_mitigation_update_stream_is_sequenced_and_round_ordered(self, churn):
        result = churn.attack_result
        engine = PropagationEngine(churn.world.graph)
        controller = MitigationController(engine, MitigationPolicy(strategy="reset"))
        _, mitigated, _, _ = controller.mitigate(churn)
        modifiers = {result.attack.attacker: result.attack.modifier()}
        attacked_view = churn.collector.snapshot(result.attacked, modifiers=modifiers)
        updates = mitigation_update_stream(
            attacked_view,
            mitigated,
            churn.collector,
            modifiers=modifiers,
            first_seq=1000,
        )
        assert updates  # the reset re-announce changes monitor routes
        seqs = [update.seq for update in updates]
        assert seqs == list(range(1000, 1000 + len(updates)))
        rounds = [
            mitigated.adoption_round.get(update.message.monitor, 0)
            for update in updates
        ]
        assert rounds == sorted(rounds)

    def test_update_stream_is_empty_when_nothing_changed(self, churn):
        result = churn.attack_result
        view = churn.collector.snapshot(result.attacked)
        assert (
            mitigation_update_stream(view, result.attacked, churn.collector) == []
        )
