"""Figure M1 — time-to-recovery vs λ and mitigation strategy.

A figure family the source paper never had: it measures *exposure*
(Sermpezis et al. frame hijack damage as a function of exposure time),
not just point-in-time pollution.  For each victim padding λ the full
closed loop runs once per strategy — seeded churn with an interception
burst, streaming detection, automated re-announce, warm
re-convergence — and reports the three clocks:

* **time-to-detect** — post-merge updates between the attack entering
  the stream and the victim prefix's first alarm;
* **time-to-mitigate** — the modelled reaction latency (updates);
* **time-to-recover** — propagation rounds for the re-announce to
  re-converge, plus the ASes it touched;

and the pollution ladder: organic (before hijack) → under attack →
residual after the countermeasure.  The ``none`` control arm shows
what no reaction costs; ``reset`` shows the λ-floor consistency reset
collapsing the attacker's length advantage entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.base import ExperimentResult, instrumented
from repro.mitigation.strategies import MITIGATION_STRATEGIES
from repro.telemetry.metrics import RunMetrics

__all__ = ["FigM1Config", "run"]


@dataclass(frozen=True)
class FigM1Config:
    seed: int = 7
    scale: float = 0.25
    monitors: int = 20
    prefixes: int = 2
    updates: int = 800
    paddings: tuple[int, ...] = (2, 3, 4)
    strategies: tuple[str, ...] = MITIGATION_STRATEGIES
    feeds: int = 4
    reaction_updates: int = 64


@instrumented("figM1")
def run(
    config: FigM1Config = FigM1Config(), *, metrics: RunMetrics | None = None
) -> ExperimentResult:
    """Time-to-detect/mitigate/recover and residual pollution per (λ, strategy)."""
    # Imported lazily: churn synthesis depends on experiments.base, so a
    # module-level import here would close a cycle through the package.
    from repro.measurement.churn import ChurnConfig, synthesize_churn_stream
    from repro.mitigation.controller import MitigationPolicy, run_closed_loop

    rows = []
    summary: dict[str, float] = {}
    world = None
    for padding in config.paddings:
        stream = synthesize_churn_stream(
            ChurnConfig(
                seed=config.seed,
                scale=config.scale,
                monitors=config.monitors,
                prefixes=config.prefixes,
                updates=config.updates,
                padding=padding,
            ),
            world=world,
        )
        world = stream.world  # share the converged topology across λ
        for strategy in config.strategies:
            report = run_closed_loop(
                stream,
                policy=MitigationPolicy(
                    strategy=strategy, reaction_updates=config.reaction_updates
                ),
                feeds=config.feeds,
                metrics=metrics,
            )
            step = report.step
            rows.append(
                (
                    padding,
                    strategy,
                    step.time_to_detect if step.time_to_detect is not None else "-",
                    step.time_to_mitigate,
                    step.time_to_recover,
                    step.touched_ases,
                    round(step.pollution_attack, 4),
                    round(step.pollution_residual, 4),
                    "yes" if step.recovered else "no",
                )
            )
            key = f"lambda{padding}_{strategy}"
            summary[f"{key}_time_to_recover"] = float(step.time_to_recover)
            summary[f"{key}_residual_pollution"] = step.pollution_residual
            summary[f"{key}_recovered"] = float(step.recovered)
            if step.time_to_detect is not None:
                summary[f"{key}_time_to_detect"] = float(step.time_to_detect)
    return ExperimentResult(
        experiment_id="figM1",
        title="Time to recovery vs victim padding and mitigation strategy",
        params={
            "seed": config.seed,
            "scale": config.scale,
            "monitors": config.monitors,
            "updates": config.updates,
            "feeds": config.feeds,
            "reaction_updates": config.reaction_updates,
        },
        headers=(
            "lambda",
            "strategy",
            "t_detect_upd",
            "t_mitigate_upd",
            "t_recover_rounds",
            "touched_ases",
            "pollution_attack",
            "pollution_residual",
            "recovered",
        ),
        rows=rows,
        summary=summary,
        notes=[
            "time_to_detect is measured at the detector (post-merge updates), "
            "so it is invariant to feed count, batch size and lossless "
            "backpressure policy",
            "reset re-announces at the padding floor: the attacker's strip "
            "becomes a no-op, so residual pollution collapses to the organic "
            "(before-hijack) traversal share",
            "the none control arm keeps the attack's full pollution — the "
            "exposure cost of not reacting",
        ],
    )
