"""Ablation — mitigation effectiveness (the paper's future work).

The paper closes with "Developing attack prevention schemes is also in
our future agenda".  This ablation quantifies the two defences shipped
against a campaign of effective attacks:

* **cautious padding adoption** (:class:`repro.secpol.PrependGuardPolicy`
  on a random draw of ASes) at increasing deployment fractions —
  residual pollution per deploying-AS fraction;
* **reactive padding reduction** by the victim — pollution gain before
  and after the victim re-originates with λ'=1 (always zero after, by
  construction: there is nothing left to strip).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.attack.interception import simulate_interception
from repro.exceptions import ExperimentError
from repro.experiments.base import ExperimentResult, build_world, instrumented, sample_attack_pairs
from repro.mitigation.reactive import reactive_padding_reduction
from repro.secpol.deployment import simulate_cautious_deployment
from repro.telemetry.metrics import RunMetrics
from repro.utils.rand import derive_rng, make_rng

__all__ = ["AblationDefenseConfig", "run"]


@dataclass(frozen=True)
class AblationDefenseConfig:
    seed: int = 7
    scale: float = 1.0
    pairs: int = 40
    origin_padding: int = 4
    deployment_fractions: tuple[float, ...] = (0.0, 0.1, 0.25, 0.5, 0.75, 1.0)


@instrumented("ablation-defense")
def run(
    config: AblationDefenseConfig = AblationDefenseConfig(), *, metrics: RunMetrics | None = None
) -> ExperimentResult:
    """Measure residual pollution under each defence."""
    world = build_world(seed=config.seed, scale=config.scale, metrics=metrics)
    rng = derive_rng(make_rng(config.seed), "ablation-defense")
    # Defences matter most against the attacks that matter: sample
    # attackers from the upper tiers, where pollution is substantial
    # (Figures 7-10), rather than the mostly-ineffective random pool.
    pairs = sample_attack_pairs(
        world,
        config.pairs,
        rng,
        attacker_pool=world.topology.tier1 + world.topology.tier2,
    )

    effective = []
    for attacker, victim in pairs:
        result = simulate_interception(
            world.engine,
            victim=victim,
            attacker=attacker,
            origin_padding=config.origin_padding,
        )
        if result.report.newly_polluted:
            effective.append((attacker, victim, result))
    if not effective:
        raise ExperimentError("no effective attacks in the sampled pairs")

    rows: list[tuple[object, ...]] = []
    undefended_gain = sum(r.report.gain for _, _, r in effective) / len(effective)
    for fraction in config.deployment_fractions:
        deployment_rng = derive_rng(make_rng(config.seed), f"deploy-{fraction}")
        gains = []
        for attacker, victim, _result in effective:
            report = simulate_cautious_deployment(
                world.engine,
                victim=victim,
                attacker=attacker,
                origin_padding=config.origin_padding,
                deployment_fraction=fraction,
                rng=deployment_rng,
            )
            gains.append(report.gain)
        mean_gain = sum(gains) / len(gains)
        rows.append(
            (
                "cautious adoption",
                f"{fraction:.0%} deployed",
                round(100 * mean_gain, 2),
            )
        )

    reactive_gains = []
    te_shifts = []
    for _attacker, _victim, result in effective:
        mitigation = reactive_padding_reduction(world.engine, result)
        reactive_gains.append(mitigation.report.gain)
        te_shifts.append(mitigation.traffic_engineering_shift)
    mean_reactive = sum(reactive_gains) / len(reactive_gains)
    rows.append(("reactive padding reduction", "after alarm", round(100 * mean_reactive, 2)))

    summary = {
        "effective_attacks": float(len(effective)),
        "undefended_mean_gain_pct": 100 * undefended_gain,
        "full_deployment_mean_gain_pct": rows[len(config.deployment_fractions) - 1][2],
        "reactive_mean_gain_pct": 100 * mean_reactive,
        "reactive_mean_te_shift_pct": 100 * sum(te_shifts) / len(te_shifts),
    }
    return ExperimentResult(
        experiment_id="ablation-defense",
        title="Mitigation effectiveness: residual attack gain per defence",
        params={
            "pairs": config.pairs,
            "origin_padding": config.origin_padding,
            "seed": config.seed,
            "scale": config.scale,
        },
        headers=("defence", "setting", "mean_pollution_gain_%"),
        rows=rows,
        summary=summary,
        notes=[
            "gain = fraction of ASes newly captured by the attack; cautious "
            "adoption shrinks it with deployment, reactive padding reduction "
            "eliminates it (at the cost of the victim's traffic engineering)"
        ],
    )
