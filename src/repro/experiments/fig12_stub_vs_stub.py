"""Figure 12 — pollution vs prepended ASNs (two small ASes).

Both the attacker and the victim are small edge networks (the paper's
AS30209 vs AS12734).  Under valley-free export the attack barely
spreads; when the attacker leaks the stripped route to all neighbours
("violate routing policy"), pollution grows substantially with the
victim's padding.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ExperimentError
from repro.experiments.base import ExperimentResult, build_world, instrumented
from repro.experiments.sweeps import padding_sweep
from repro.runner import RunConfig
from repro.telemetry.metrics import RunMetrics
from repro.utils.rand import derive_rng, make_rng

__all__ = ["Fig12Config", "run"]


@dataclass(frozen=True)
class Fig12Config:
    seed: int = 7
    scale: float = 1.0
    max_padding: int = 8
    #: fan the λ points out over this many worker processes (None = serial)
    workers: int | None = None


@instrumented("fig12")
def run(
    config: Fig12Config = Fig12Config(), *, metrics: RunMetrics | None = None
) -> ExperimentResult:
    """Regenerate Figure 12's two series for a small attacker/victim pair."""
    world = build_world(seed=config.seed, scale=config.scale, metrics=metrics)
    run_config = RunConfig(workers=config.workers, metrics=metrics)
    graph = world.graph
    rng = derive_rng(make_rng(config.seed), "fig12-pair")
    # The attacker must be multi-homed: the paper's violating attacker
    # "sends the route learned from one provider to another" — with a
    # single provider, AS-PATH loop prevention discards the leaked
    # route at the very provider it came from.
    small_transit = [
        asn
        for asn in world.topology.tier4
        if graph.customers_of(asn) and len(graph.providers_of(asn)) >= 2
    ]
    if not small_transit or not world.topology.stubs:
        raise ExperimentError("scenario needs Tier-4 transit ASes and stubs")
    attacker = rng.choice(small_transit)
    victim = rng.choice([s for s in world.topology.stubs if s != attacker])

    valley_free = padding_sweep(
        world.engine,
        victim=victim,
        attacker=attacker,
        paddings=range(1, config.max_padding + 1),
        run=run_config,
    )
    violating = padding_sweep(
        world.engine,
        victim=victim,
        attacker=attacker,
        paddings=range(1, config.max_padding + 1),
        violate_policy=True,
        run=run_config,
    )
    rows = [
        (padding, round(vf_after, 1), round(vi_after, 1))
        for (padding, _, vf_after), (_, _, vi_after) in zip(valley_free, violating)
    ]
    summary = {
        "valley_free_plateau_pct": valley_free[-1][2],
        "violate_plateau_pct": violating[-1][2],
    }
    return ExperimentResult(
        experiment_id="fig12",
        title=(
            f"Pollution vs prepended ASNs — small AS{attacker} hijacks "
            f"small AS{victim} (AS30209/AS12734 analogue)"
        ),
        params={
            "attacker": attacker,
            "victim": victim,
            "seed": config.seed,
            "scale": config.scale,
        },
        headers=("prepended_asns", "follow_valley_free_%", "violate_policy_%"),
        rows=rows,
        summary=summary,
        notes=[
            "paper: the valley-free attack pollutes very little; violating "
            "the export rule makes the impact significant as padding grows"
        ],
    )
