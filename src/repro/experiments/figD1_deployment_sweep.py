"""Figure D1 — residual pollution vs. security-policy deployment.

The paper stops at detection; this companion figure asks the natural
follow-up: *which* deployed defence actually blunts the interception,
and how much partial deployment buys.  A top Tier-1 victim is attacked
by the largest Tier-2 AS (λ=3, policy-violating export — the leak
variant of Figures 11-12, which is the traffic a path-plausibility
check can actually see).  For each policy (``rov``, ``aspa``,
``prependguard``) and each deployment strategy we sweep the deployed
fraction and report the residual polluted share.

Expected shape: ROV is *exactly* flat — the interception announces the
true origin, so origin validation can never object (a provable negative
control, asserted as bit-equality against the undefended run).  The
ASPA-like path check and the prepend-sanitization filter both decrease
monotonically with deployment, with top-degree-first dominating random
placement.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ExperimentError
from repro.experiments.base import ExperimentResult, build_world, instrumented
from repro.experiments.sweeps import deployment_sweep
from repro.runner import BaselineCache, RunConfig
from repro.telemetry.metrics import RunMetrics
from repro.topology.tiers import classify_tiers, customer_cone

__all__ = ["FigD1Config", "run"]

#: every real policy; the undefended control is added by ``run``.
POLICY_SERIES = ("rov", "aspa", "prependguard")
STRATEGY_SERIES = ("random", "top-degree-first", "tier1-only", "victim-cone")


@dataclass(frozen=True)
class FigD1Config:
    seed: int = 7
    scale: float = 1.0
    padding: int = 3
    fractions: tuple[float, ...] = (0.0, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0)
    policies: tuple[str, ...] = POLICY_SERIES
    strategies: tuple[str, ...] = STRATEGY_SERIES
    violate_policy: bool = True
    #: fan the deployment points out over worker processes (None = serial)
    workers: int | None = None


def _monotone_nonincreasing(values: list[float]) -> bool:
    return all(later <= earlier for earlier, later in zip(values, values[1:]))


@instrumented("figD1")
def run(
    config: FigD1Config = FigD1Config(), *, metrics: RunMetrics | None = None
) -> ExperimentResult:
    """Sweep deployment fraction for each policy × strategy series."""
    world = build_world(seed=config.seed, scale=config.scale, metrics=metrics)
    run_config = RunConfig(workers=config.workers, metrics=metrics)
    graph = world.graph
    tiers = classify_tiers(graph)
    tier1 = sorted(
        world.topology.tier1, key=lambda t: (-len(customer_cone(graph, t)), t)
    )
    if not tier1:
        raise ExperimentError("need a Tier-1 AS to act as victim")
    victim = tier1[0]
    # The attacker is the biggest Tier-2 transit AS: a Tier-1 leaker
    # already pollutes ~everything through valley-free export alone,
    # leaving path-plausibility checks nothing to bite on.
    tier2 = [
        asn
        for asn in graph.ases
        if tiers.get(asn) == 2 and asn != victim and graph.customers_of(asn)
    ]
    if not tier2:
        raise ExperimentError("need a Tier-2 transit AS to act as attacker")
    attacker = min(tier2, key=lambda t: (-len(customer_cone(graph, t)), t))

    cache = BaselineCache(world.engine, metrics=metrics)
    rows: list[tuple[object, ...]] = []
    series: dict[tuple[str, str], list[float]] = {}

    control = deployment_sweep(
        world.engine,
        victim=victim,
        attacker=attacker,
        padding=config.padding,
        policy="none",
        fractions=(0.0,),
        violate_policy=config.violate_policy,
        cache=cache,
        run=run_config,
    )
    control_after = control[0].row()[2]
    rows.append(("none", "-", 0.0, round(control_after, 1)))

    for policy in config.policies:
        for strategy in config.strategies:
            points = deployment_sweep(
                world.engine,
                victim=victim,
                attacker=attacker,
                padding=config.padding,
                policy=policy,
                strategy=strategy,
                fractions=config.fractions,
                seed=config.seed,
                violate_policy=config.violate_policy,
                cache=cache,
                run=run_config,
            )
            afters = [point.row()[2] for point in points]
            series[(policy, strategy)] = afters
            rows.extend(
                (policy, strategy, round(100 * fraction, 1), round(after, 1))
                for fraction, after in zip(config.fractions, afters)
            )

    rov_deviation = max(
        (
            abs(after - control_after)
            for (policy, _), afters in series.items()
            if policy == "rov"
            for after in afters
        ),
        default=0.0,
    )
    summary: dict[str, float] = {
        "control_after_pct": control_after,
        "rov_max_abs_deviation_pct": rov_deviation,
    }
    for policy in config.policies:
        key = (policy, "top-degree-first")
        if key not in series:
            continue
        afters = series[key]
        summary[f"{policy}_monotone_top_degree"] = float(
            _monotone_nonincreasing(afters)
        )
        summary[f"{policy}_residual_pct_full"] = afters[-1]

    return ExperimentResult(
        experiment_id="figD1",
        title=(
            f"Residual pollution vs deployment — Tier-2 AS{attacker} "
            f"intercepts Tier-1 AS{victim} (λ={config.padding}, leak variant)"
        ),
        params={
            "attacker": attacker,
            "victim": victim,
            "padding": config.padding,
            "violate_policy": config.violate_policy,
            "seed": config.seed,
            "scale": config.scale,
        },
        headers=("policy", "strategy", "deployed_%", "after_hijack_%"),
        rows=rows,
        summary=summary,
        notes=[
            "ROV is a provable no-op against interception (true origin is "
            "announced); its deviation from the undefended control must be "
            "exactly zero",
            "ASPA-like and prepend-sanitization curves decrease with "
            "deployment; top-degree-first placement dominates random",
        ],
    )
