"""Figure 8 — polluted ASes in attacks between randomly sampled ASes.

The paper's 27 random attacker/victim instances (mostly Tier-4/Tier-5
ASes) are far less effective than Tier-1 attacks: the attacker is
rarely on paths towards the victim, and its own paths are long even
after stripping padding.  Expected shape: most instances near zero,
a few moderate outliers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.base import (
    ExperimentResult,
    build_world,
    instrumented,
    sample_attack_pairs,
)
from repro.experiments.sweeps import pair_grid
from repro.runner import RunConfig
from repro.telemetry.metrics import RunMetrics
from repro.utils.rand import derive_rng, make_rng

__all__ = ["Fig08Config", "run"]


@dataclass(frozen=True)
class Fig08Config:
    seed: int = 7
    scale: float = 1.0
    instances: int = 27
    origin_padding: int = 3
    #: fan the attack instances out over this many worker processes
    workers: int | None = None


@instrumented("fig08")
def run(
    config: Fig08Config = Fig08Config(), *, metrics: RunMetrics | None = None
) -> ExperimentResult:
    """Regenerate Figure 8: ranked pollution over random pairs."""
    world = build_world(seed=config.seed, scale=config.scale, metrics=metrics)
    rng = derive_rng(make_rng(config.seed), "fig08-pairs")
    pairs = sample_attack_pairs(world, config.instances, rng)

    results = [
        (point.attacker, point.victim, point.before_fraction, point.after_fraction)
        for point in pair_grid(
            world.engine,
            pairs,
            origin_padding=config.origin_padding,
            run=RunConfig(workers=config.workers, metrics=metrics),
        )
    ]
    results.sort(key=lambda item: -item[3])
    rows = [
        (
            rank,
            f"AS{attacker}",
            f"AS{victim}",
            round(100 * before, 1),
            round(100 * after, 1),
        )
        for rank, (attacker, victim, before, after) in enumerate(results, start=1)
    ]
    after_values = [after for _, _, _, after in results]
    summary = {
        "instances": float(len(results)),
        "mean_pollution_pct": 100 * sum(after_values) / len(after_values),
        "median_pollution_pct": 100 * sorted(after_values)[len(after_values) // 2],
        "max_pollution_pct": 100 * max(after_values),
    }
    return ExperimentResult(
        experiment_id="fig08",
        title="Polluted ASes in attacks between randomly sampled ASes",
        params={
            "instances": len(results),
            "origin_padding": config.origin_padding,
            "seed": config.seed,
            "scale": config.scale,
        },
        headers=("rank", "attacker", "victim", "before_hijack_%", "after_hijack_%"),
        rows=rows,
        summary=summary,
        notes=[
            "paper: random (mostly Tier-4/5) pairs are much less effective "
            "than Tier-1 pairs; attackers sampled from the transit pool "
            "(a customer-less stub cannot export a modified route at all)"
        ],
    )
