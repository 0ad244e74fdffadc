"""The closed-loop mitigation controller.

One cycle of the loop, end to end:

1. a synthesized churn stream (with an interception burst spliced in)
   plays through the fault-tolerant :class:`StreamingPipeline`;
2. the first alarm on the victim's prefix fixes **time-to-detect** —
   measured at the detector in post-merge updates, so it is identical
   across feed counts, batch sizes and (lossless) backpressure
   policies;
3. after a configurable reaction delay (**time-to-mitigate**, modelling
   operator/automation latency in updates), the controller picks a new
   λ per the strategy and re-converges the attack, warm-started from
   the victim's λ' baseline — the rounds of that re-convergence are
   **time-to-recover** and the new pollution report's after-fraction
   is the **residual pollution**;
4. the monitor updates the re-announcement causes are fed back through
   the pipeline (sequence numbers continuing the stream), closing the
   loop.  A padding *decrease* is exactly what the Figure-4 detector
   hunts, so the controller's own re-announce raises alarms at honest
   monitors — those are counted separately as ``self_alarms`` and
   excluded from the attack verdict, the suppression every real
   auto-mitigation deployment needs.

Determinism: everything downstream of the synthesized stream is a pure
function of ``(stream, policy, feeds, backpressure, fault plan)``; the
closed-loop suites pin the report bit-identical across feed counts,
backpressure policies and recoverable fault plans.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.attack.impact import pollution_report
from repro.bgp.collectors import MonitorView, RouteCollector
from repro.bgp.engine import PropagationEngine, PropagationOutcome
from repro.bgp.prepending import PrependingPolicy
from repro.bgp.updates import StampedStream, stamp
from repro.detection.alarms import Alarm
from repro.detection.detector import ASPPInterceptionDetector
from repro.detection.pipeline.faults import FeedFaultPlan
from repro.detection.pipeline.ingest import StreamingPipeline
from repro.detection.streaming import StreamingDetector
from repro.exceptions import SimulationError
from repro.mitigation.strategies import mitigated_padding
from repro.runner.cache import BaselineCache
from repro.telemetry.metrics import RunMetrics
from repro.telemetry.slo import SLORegistry, default_pipeline_slos

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # churn imports experiments.base — keep the cycle type-only
    from repro.measurement.churn import SynthesizedStream

__all__ = [
    "MitigationPolicy",
    "MitigationStep",
    "MitigationController",
    "ClosedLoopReport",
    "mitigation_update_stream",
    "run_closed_loop",
]


@dataclass(frozen=True)
class MitigationPolicy:
    """How the victim reacts once the attack is detected."""

    strategy: str = "stepdown"
    #: λ decrement per ``stepdown`` reaction
    step: int = 1
    #: the λ the victim will not go below (1 = no prepending left)
    floor: int = 1
    #: updates between the first alarm and the re-announce — the
    #: modelled operator/automation latency (time-to-mitigate)
    reaction_updates: int = 64

    def __post_init__(self) -> None:
        # Validate eagerly through the strategy table.
        mitigated_padding(self.strategy, max(1, self.floor), step=self.step, floor=self.floor)
        if self.reaction_updates < 0:
            raise SimulationError("reaction_updates must be >= 0")


@dataclass(frozen=True)
class MitigationStep:
    """Everything one closed-loop cycle measured."""

    strategy: str
    victim: int
    attacker: int
    prefix: str
    #: the victim's λ before and after the countermeasure
    padding_before: int
    padding_after: int
    #: detector updates seen when the victim prefix first alarmed
    detected_at: int | None
    #: updates between the attack entering the stream and the alarm
    time_to_detect: int | None
    #: modelled reaction latency (updates)
    time_to_mitigate: int
    #: re-convergence rounds of the mitigation re-announce
    time_to_recover: int
    #: ASes the re-convergence actually touched (0 when not re-announced)
    touched_ases: int
    #: attacker traversal share before the attack (organic)
    pollution_baseline: float
    #: attacker traversal share under the attack, pre-mitigation
    pollution_attack: float
    #: attacker traversal share after the countermeasure
    pollution_residual: float
    #: victim-prefix alarms raised by the attack burst
    alarms: int
    #: victim-prefix alarms raised by the controller's own re-announce
    self_alarms: int

    @property
    def detected(self) -> bool:
        return self.detected_at is not None

    @property
    def recovered(self) -> bool:
        """Did the countermeasure collapse pollution back to organic?"""
        return self.pollution_residual <= self.pollution_baseline + 1e-12


@dataclass
class ClosedLoopReport:
    """One closed-loop run: the measured step plus pipeline health."""

    step: MitigationStep
    alarms: list[Alarm] = field(repr=False)
    #: structured SLO breach events (JSONL-ready dicts)
    breaches: list[dict[str, object]]
    processed: int
    duplicates: int
    dead_lettered: int
    lost: int
    #: fraction of feeds still delivering at end of run
    coverage: float


def mitigation_update_stream(
    before: MonitorView,
    after_outcome: PropagationOutcome,
    collector: RouteCollector,
    *,
    modifiers=None,
    first_seq: int = 0,
) -> StampedStream:
    """The sequenced updates monitors emit as a re-announce propagates.

    The re-convergence analogue of
    :func:`repro.detection.streaming.attack_update_stream`: monitors
    whose route changed between ``before`` and the re-converged
    ``after_outcome`` announce their new route, ordered by the engine's
    adoption round (the logical hop count the re-announcement
    travelled), stamped with sequence numbers from ``first_seq``.
    ``modifiers`` keeps an attacker that peers with the collector
    announcing its *modified* route on its own feed — the attack does
    not pause while the victim recovers.
    """
    after = collector.snapshot(after_outcome, modifiers=modifiers)
    return stamp(
        after.updates_since(before, clock=after_outcome.adoption_round), first_seq
    )


class MitigationController:
    """Chooses and executes the victim's countermeasure for one attack.

    The controller owns the simulation side of the loop: given the
    synthesized stream's attack instance, it converges the victim's λ'
    baseline (memoised in its cache), re-converges the *still ongoing*
    attack as a warm start from it, and reports recovery rounds, touched
    ASes and the residual pollution.  The touched-AS count is read off
    the compiled state the warm run leaves behind.
    """

    def __init__(
        self,
        engine: PropagationEngine,
        policy: MitigationPolicy,
        *,
        cache: BaselineCache | None = None,
        metrics: RunMetrics | None = None,
    ) -> None:
        self.engine = engine
        self.policy = policy
        self.cache = cache if cache is not None else BaselineCache(engine, metrics=metrics)

    def mitigate(
        self, stream: SynthesizedStream
    ) -> tuple[int, PropagationOutcome, int, int]:
        """Execute the countermeasure for the stream's attack.

        Returns ``(new_padding, mitigated_outcome, recovery_rounds,
        touched_ases)``.  For the ``none`` strategy (or a λ already at
        the floor) the attack outcome is returned unchanged with zero
        recovery work.
        """
        result = stream.attack_result
        if result is None:
            raise SimulationError("the stream carries no attack to mitigate")
        policy = self.policy
        padding = result.origin_padding
        new_padding = mitigated_padding(
            policy.strategy, padding, step=policy.step, floor=policy.floor
        )
        if new_padding == padding:
            return padding, result.attacked, 0, 0
        attack = result.attack
        victim = attack.victim
        prefix = result.baseline.prefix
        prepending = PrependingPolicy.uniform_origin(victim, new_padding)
        mitigated = self.engine.propagate(
            victim,
            prefix=prefix,
            prepending=prepending,
            modifiers={attack.attacker: attack.modifier()},
            violators={attack.attacker} if attack.violate_policy else (),
            warm_start=self.cache.baseline(
                victim, prefix=prefix, prepending=prepending
            ),
        )
        return (
            new_padding,
            mitigated,
            mitigated.rounds,
            mitigated.compiled_state.touched,
        )


def run_closed_loop(
    stream: SynthesizedStream,
    *,
    policy: MitigationPolicy | None = None,
    feeds: int = 4,
    backpressure: str = "block",
    batch: int = 64,
    capacity: int = 256,
    fault_plan: FeedFaultPlan | None = None,
    metrics: RunMetrics | None = None,
    slos: SLORegistry | None = None,
    rng: random.Random | None = None,
    controller: MitigationController | None = None,
) -> ClosedLoopReport:
    """Drive one full detect → mitigate → re-converge cycle.

    ``slos`` defaults to a fresh registry over
    :func:`~repro.telemetry.slo.default_pipeline_slos`; pass your own
    to tune thresholds.  ``rng`` randomises the feed interleaving (the
    report is invariant to it); ``fault_plan`` injects feed faults — a
    recoverable plan leaves the report bit-identical.
    """
    result = stream.attack_result
    if result is None:
        raise SimulationError("run_closed_loop needs a stream with an attack burst")
    if policy is None:
        policy = MitigationPolicy()
    if slos is None:
        slos = SLORegistry(default_pipeline_slos(), metrics=metrics)
    if controller is None:
        engine = PropagationEngine(stream.world.graph, metrics=metrics)
        controller = MitigationController(engine, policy, metrics=metrics)

    detector = StreamingDetector(
        ASPPInterceptionDetector(stream.world.graph), metrics=metrics
    )
    pipeline = StreamingPipeline(
        detector,
        feeds=feeds,
        batch=batch,
        capacity=capacity,
        policy=backpressure,
        metrics=metrics,
        fault_plan=fault_plan,
        slos=slos,
    )
    for view in stream.baselines.values():
        pipeline.prime(view)

    # Phase 1: the churn stream (attack burst included) plays out.
    pipeline.run(stream.feed_streams(feeds), rng=rng)
    victim_prefix = result.baseline.prefix
    attack_alarms = [a for a in pipeline.alarms if a.prefix == victim_prefix]
    detected_at = detector.first_alarm_at.get(victim_prefix)
    time_to_detect: int | None = None
    if detected_at is not None and stream.attack_start_seq is not None:
        time_to_detect = max(0, detected_at - stream.attack_start_seq)
        slos.record("alarm-latency", time_to_detect)

    # Phase 2: the countermeasure (skipped when nothing was detected —
    # a blinded pipeline cannot trigger a reaction).
    padding = result.origin_padding
    victim = result.attack.victim
    attacker = result.attack.attacker
    new_padding = padding
    mitigated = result.attacked
    recovery_rounds = 0
    touched = 0
    self_alarms = 0
    if detected_at is not None and policy.strategy != "none":
        new_padding, mitigated, recovery_rounds, touched = controller.mitigate(stream)
        slos.record("recovery-deadline", recovery_rounds)
        if metrics is not None:
            metrics.count("mitigation.reactions")
            metrics.observe("mitigation.recovery_rounds", recovery_rounds)
            metrics.observe("mitigation.touched_ases", touched)
        if new_padding != padding:
            # Phase 3: feed the re-convergence updates back through the
            # (possibly degraded) pipeline.  Quarantined feeds are dark —
            # recovery traffic only flows over surviving ones.
            modifiers = {attacker: result.attack.modifier()}
            _, attacked_view, _ = result.monitor_views(stream.collector)
            first_seq = stream.messages[-1].seq + 1 if stream.messages else 0
            recovery = mitigation_update_stream(
                attacked_view,
                mitigated,
                stream.collector,
                modifiers=modifiers,
                first_seq=first_seq,
            )
            live = [
                feed_id
                for feed_id in range(feeds)
                if feed_id not in pipeline.quarantined_feeds
            ] or [0]
            before_recovery = len(pipeline.alarms)
            for position, update in enumerate(recovery):
                pipeline.offer(live[position % len(live)], update)
            pipeline.flush()
            self_alarms = sum(
                1
                for alarm in pipeline.alarms[before_recovery:]
                if alarm.prefix == victim_prefix
            )

    residual = pollution_report(
        baseline=result.baseline,
        attacked=mitigated,
        attacker=attacker,
        victim=victim,
    )
    step = MitigationStep(
        strategy=policy.strategy,
        victim=victim,
        attacker=attacker,
        prefix=victim_prefix,
        padding_before=padding,
        padding_after=new_padding,
        detected_at=detected_at,
        time_to_detect=time_to_detect,
        time_to_mitigate=policy.reaction_updates if detected_at is not None else 0,
        time_to_recover=recovery_rounds,
        touched_ases=touched,
        pollution_baseline=result.report.before_fraction,
        pollution_attack=result.report.after_fraction,
        pollution_residual=residual.after_fraction,
        alarms=len(attack_alarms),
        self_alarms=self_alarms,
    )
    return ClosedLoopReport(
        step=step,
        alarms=list(pipeline.alarms),
        breaches=slos.events(),
        processed=pipeline.processed,
        duplicates=pipeline.duplicates,
        dead_lettered=pipeline.dead_lettered,
        lost=pipeline.lost,
        coverage=pipeline.coverage,
    )
