"""Figure 9 — pollution range vs. prepended ASNs (Sprint hijacks AT&T).

The paper fixes two large Tier-1 ISPs — Sprint (AS1239) attacking
AT&T (AS7018) — and sweeps λ from 1 to 8.  Expected shape: ~30% of
paths traverse the attacker at λ=1 (essentially the natural share),
a steep jump by λ=2-3, saturation above 95% of the attacker's
reachable population by λ=4, and a plateau beyond (the hold-outs are
single-homed customers and direct peers of the victim).

Our Sprint/AT&T analogues are the two Tier-1 ASes with the largest
customer cones (attacker first): the attack's ceiling is the
attacker's customer cone, and Sprint's cone covered most of the
Internet.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ExperimentError
from repro.experiments.base import ExperimentResult, build_world, instrumented
from repro.experiments.sweeps import padding_sweep
from repro.runner import RunConfig
from repro.telemetry.metrics import RunMetrics
from repro.topology.tiers import customer_cone

__all__ = ["Fig09Config", "run"]


@dataclass(frozen=True)
class Fig09Config:
    seed: int = 7
    scale: float = 1.0
    max_padding: int = 8
    #: fan the λ points out over this many worker processes (None = serial)
    workers: int | None = None


@instrumented("fig09")
def run(
    config: Fig09Config = Fig09Config(), *, metrics: RunMetrics | None = None
) -> ExperimentResult:
    """Regenerate Figure 9's λ sweep for two top Tier-1 ASes."""
    world = build_world(seed=config.seed, scale=config.scale, metrics=metrics)
    graph = world.graph
    tier1 = world.topology.tier1
    if len(tier1) < 2:
        raise ExperimentError("need at least two Tier-1 ASes")
    by_cone = sorted(tier1, key=lambda t: (-len(customer_cone(graph, t)), t))
    attacker, victim = by_cone[0], by_cone[1]

    rows = padding_sweep(
        world.engine,
        victim=victim,
        attacker=attacker,
        paddings=range(1, config.max_padding + 1),
        run=RunConfig(workers=config.workers, metrics=metrics),
    )
    cone_pct = 100 * len(customer_cone(graph, attacker)) / len(graph)
    after = {padding: after_pct for padding, _, after_pct in rows}
    summary = {
        "after_pct_lambda1": after.get(1, 0.0),
        "after_pct_lambda2": after.get(2, 0.0),
        "after_pct_lambda3": after.get(3, 0.0),
        "plateau_pct": after.get(config.max_padding, 0.0),
        "attacker_cone_pct": cone_pct,
    }
    return ExperimentResult(
        experiment_id="fig09",
        title=(
            f"Pollution vs prepended ASNs — Tier-1 AS{attacker} hijacks "
            f"Tier-1 AS{victim} (Sprint/AT&T analogue)"
        ),
        params={
            "attacker": attacker,
            "victim": victim,
            "seed": config.seed,
            "scale": config.scale,
        },
        headers=("prepended_asns", "before_hijack_%", "after_hijack_%"),
        rows=[(p, round(b, 1), round(a, 1)) for p, b, a in rows],
        summary=summary,
        notes=[
            "paper: 30% at λ=1, 80% at λ=2, >95% at λ=3-4, flat beyond 5; "
            "the plateau equals the attacker's reach (its customer cone)"
        ],
    )
