"""Figure 7 — polluted ASes in attacks between Tier-1 ASes (λ = 3).

The paper simulates 80 Tier-1-attacks-Tier-1 instances with 3
prepended copies and ranks them by pollution range.  Expected shape:
pollution around 40% for most instances, with a tail of weak attacks
(< 5%) where the victim's customers are richly peered and spread the
legitimate route.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ExperimentError
from repro.experiments.base import ExperimentResult, build_world, instrumented
from repro.experiments.sweeps import pair_grid
from repro.runner import RunConfig
from repro.telemetry.metrics import RunMetrics
from repro.utils.rand import derive_rng, make_rng

__all__ = ["Fig07Config", "run"]


@dataclass(frozen=True)
class Fig07Config:
    seed: int = 7
    scale: float = 1.0
    instances: int = 80
    origin_padding: int = 3
    #: fan the attack instances out over this many worker processes
    workers: int | None = None

    def __post_init__(self) -> None:
        if self.instances < 1:
            raise ExperimentError("at least one attacker/victim pair is required")


@instrumented("fig07")
def run(
    config: Fig07Config = Fig07Config(), *, metrics: RunMetrics | None = None
) -> ExperimentResult:
    """Regenerate Figure 7: ranked pollution over Tier-1 pairs."""
    world = build_world(seed=config.seed, scale=config.scale, metrics=metrics)
    tier1 = world.topology.tier1
    if len(tier1) < 2:
        raise ExperimentError("need at least two Tier-1 ASes")
    pairs = [(a, v) for a in tier1 for v in tier1 if a != v]
    rng = derive_rng(make_rng(config.seed), "fig07-pairs")
    rng.shuffle(pairs)
    pairs = pairs[: config.instances]

    results = [
        (point.attacker, point.victim, point.before_fraction, point.after_fraction)
        for point in pair_grid(
            world.engine,
            pairs,
            origin_padding=config.origin_padding,
            run=RunConfig(workers=config.workers, metrics=metrics),
        )
    ]
    # The paper ranks instances by pollution range (descending).
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
        "max_pollution_pct": 100 * max(after_values),
        "weak_instances_below_5pct": float(sum(1 for a in after_values if a < 0.05)),
    }
    return ExperimentResult(
        experiment_id="fig07",
        title="Polluted ASes in attacks between Tier-1 ASes (prepended ASN=3)",
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
            "paper: pollution around 40% overall; the weakest ~30 instances "
            "fall below 5% (victims whose customers are richly peered)"
        ],
    )
