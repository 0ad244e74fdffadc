"""Figure D2 — policy effectiveness across attacker/victim tiers.

Figure D1 sweeps deployment depth for one canonical pair; this figure
fixes the deployment (30% of the top-degree-first pool) and varies
*who* attacks *whom*.  For every attacker-tier × victim-tier pair we
take the biggest representative of each tier (by customer cone) and
measure residual pollution under no defence and under each policy.

The paper's tier findings (Figures 9-12) carry over: low-tier
attackers are easier to blunt because their polluted region is mostly
reached through the leaked (policy-violating) announcements that
path-plausibility checks reject, while a Tier-1 attacker pollutes most
of its cone through perfectly valley-free exports no path check can
fault.  ROV stays flat everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ExperimentError
from repro.experiments.base import ExperimentResult, build_world, instrumented
from repro.experiments.sweeps import deployment_sweep
from repro.runner import BaselineCache, RunConfig
from repro.telemetry.metrics import RunMetrics
from repro.topology.tiers import classify_tiers, customer_cone

__all__ = ["FigD2Config", "run"]


@dataclass(frozen=True)
class FigD2Config:
    seed: int = 7
    scale: float = 1.0
    padding: int = 3
    fraction: float = 0.3
    strategy: str = "top-degree-first"
    policies: tuple[str, ...] = ("none", "rov", "aspa", "prependguard")
    attacker_tiers: tuple[int, ...] = (1, 2, 3)
    victim_tiers: tuple[int, ...] = (1, 2, 3)
    violate_policy: bool = True
    workers: int | None = None


def _top_by_cone(graph, candidates):
    return min(candidates, key=lambda t: (-len(customer_cone(graph, t)), t))


def _representative(graph, tiers, tier, *, transit, exclude=()):
    """The tier's biggest AS by customer cone (optionally transit-only)."""
    pool = [
        asn
        for asn in graph.ases
        if tiers.get(asn) == tier
        and asn not in exclude
        and (not transit or graph.customers_of(asn))
    ]
    return _top_by_cone(graph, pool) if pool else None


@instrumented("figD2")
def run(
    config: FigD2Config = FigD2Config(), *, metrics: RunMetrics | None = None
) -> ExperimentResult:
    """Fix the deployment, grid over attacker/victim tiers and policies."""
    world = build_world(seed=config.seed, scale=config.scale, metrics=metrics)
    graph = world.graph
    tiers = classify_tiers(graph)
    cache = BaselineCache(world.engine, metrics=metrics)
    run_config = RunConfig(workers=config.workers, metrics=metrics)

    rows: list[tuple[object, ...]] = []
    residuals: dict[str, list[float]] = {policy: [] for policy in config.policies}
    rov_deviation = 0.0
    pairs = 0
    for attacker_tier in config.attacker_tiers:
        attacker = _representative(graph, tiers, attacker_tier, transit=True)
        if attacker is None:
            continue
        for victim_tier in config.victim_tiers:
            victim = _representative(
                graph, tiers, victim_tier, transit=False, exclude={attacker}
            )
            if victim is None:
                continue
            pairs += 1
            control_after: float | None = None
            for policy in config.policies:
                point = deployment_sweep(
                    world.engine,
                    victim=victim,
                    attacker=attacker,
                    padding=config.padding,
                    policy=policy,
                    strategy=config.strategy,
                    fractions=(config.fraction if policy != "none" else 0.0,),
                    seed=config.seed,
                    violate_policy=config.violate_policy,
                    cache=cache,
                    run=run_config,
                )[0]
                after = point.row()[2]
                if policy == "none":
                    control_after = after
                elif policy == "rov" and control_after is not None:
                    rov_deviation = max(rov_deviation, abs(after - control_after))
                residuals[policy].append(after)
                rows.append(
                    (attacker_tier, victim_tier, policy, round(after, 1))
                )
    if not pairs:
        raise ExperimentError("no attacker/victim tier pair is populated")

    summary: dict[str, float] = {
        "pairs": float(pairs),
        "rov_max_abs_deviation_pct": rov_deviation,
    }
    for policy, values in residuals.items():
        if values:
            summary[f"{policy}_mean_after_pct"] = sum(values) / len(values)

    return ExperimentResult(
        experiment_id="figD2",
        title=(
            f"Policy effectiveness across tiers — {config.strategy} at "
            f"{round(100 * config.fraction)}% deployment, λ={config.padding}"
        ),
        params={
            "fraction": config.fraction,
            "strategy": config.strategy,
            "padding": config.padding,
            "violate_policy": config.violate_policy,
            "seed": config.seed,
            "scale": config.scale,
        },
        headers=("attacker_tier", "victim_tier", "policy", "after_hijack_%"),
        rows=rows,
        summary=summary,
        notes=[
            "low-tier attackers rely on the leaked exports that "
            "path-plausibility policies reject, so their interceptions are "
            "blunted hardest; ROV never deviates from the control",
        ],
    )
