"""Figure 10 — pollution vs prepended ASNs (AT&T hijacks Facebook).

A Tier-1 attacker above a Tier-3 victim: the victim's own route is
kept only by its providers, their providers and their direct peers;
everyone else receives both the legitimate and the stripped route
through provider/peer links, where the shorter one wins.  Expected
shape: steep growth with λ and a very high plateau (the paper reports
82% at λ=2 and >99% beyond).

The analogue pair is chosen like the paper chose AT&T/Facebook: the
victim is a Tier-3 AS, the attacker one of its Tier-1 transit
ancestors (AT&T carried Facebook transit through Level3's cone), so
the attacker's modified route is customer-learned and exportable to
the whole Internet.  Among the candidate victims we pick the one with
the fewest providers — Facebook's affected front-end prefixes sat
behind a narrow provider set, which is what makes the near-total
pollution possible; a victim shielded by many providers or rich
peering caps the attack (the effect the paper's Figure 7 tail shows).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ExperimentError
from repro.experiments.base import (
    ExperimentResult,
    build_world,
    instrumented,
    provider_ancestors,
)
from repro.experiments.sweeps import padding_sweep
from repro.runner import RunConfig
from repro.telemetry.metrics import RunMetrics

__all__ = ["Fig10Config", "run"]


@dataclass(frozen=True)
class Fig10Config:
    seed: int = 7
    scale: float = 1.0
    max_padding: int = 8
    #: fan the λ points out over this many worker processes (None = serial)
    workers: int | None = None


def _choose_pair(world) -> tuple[int, int]:
    """Pick (attacker, victim): Tier-1 ancestor over a narrow Tier-3."""
    graph = world.graph
    tier1 = set(world.topology.tier1)
    candidates: list[tuple[int, int, int, int]] = []
    for victim in world.topology.tier3:
        ancestors = provider_ancestors(graph, victim) & tier1
        if not ancestors:
            continue
        shield = len(graph.providers_of(victim)) + len(graph.peers_of(victim))
        candidates.append((shield, victim, min(ancestors), len(ancestors)))
    if not candidates:
        raise ExperimentError("no Tier-3 victim has a Tier-1 ancestor")
    candidates.sort()
    shield, victim, attacker, _ = candidates[0]
    return attacker, victim


@instrumented("fig10")
def run(
    config: Fig10Config = Fig10Config(), *, metrics: RunMetrics | None = None
) -> ExperimentResult:
    """Regenerate Figure 10's λ sweep: Tier-1 attacker, Tier-3 victim."""
    world = build_world(seed=config.seed, scale=config.scale, metrics=metrics)
    attacker, victim = _choose_pair(world)
    rows = padding_sweep(
        world.engine,
        victim=victim,
        attacker=attacker,
        paddings=range(1, config.max_padding + 1),
        run=RunConfig(workers=config.workers, metrics=metrics),
    )
    after = {padding: after_pct for padding, _, after_pct in rows}
    summary = {
        "after_pct_lambda2": after.get(2, 0.0),
        "after_pct_lambda3": after.get(3, 0.0),
        "plateau_pct": after.get(config.max_padding, 0.0),
    }
    return ExperimentResult(
        experiment_id="fig10",
        title=(
            f"Pollution vs prepended ASNs — Tier-1 AS{attacker} hijacks "
            f"Tier-3 AS{victim} (AT&T/Facebook analogue)"
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
            "paper: 82% of ASes switch at λ=2 and more than 99% for λ>2; "
            "the higher-tier attacker's stripped route is customer-learned "
            "and thus reaches the entire Internet"
        ],
    )
