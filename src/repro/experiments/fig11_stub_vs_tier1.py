"""Figure 11 — pollution vs prepended ASNs (Facebook hijacks NTT).

The inverted scenario: a small but well-connected content AS attacks a
Tier-1.  Under valley-free export a peer-learned route can only reach
the attacker's customers, so the attack *should* be tiny — yet the
paper measured ~38%: NTT (AS2914) had a sibling (Limelight) that was a
customer of Facebook, so Facebook held a *customer-learned* route to
the victim and could export the stripped version to its provider
(Akamai), whose 235 peers spread it widely — all valley-free.  The
paper also notes that an attacker that openly violates the export
policy reaches an impact "equally large as other scenarios".

We reconstruct the same structure — the content attacker is given one
customer that is a sibling of the Tier-1 victim (the Limelight
analogue) — and report three series:

* ``valley-free, no chain`` — strict export on the plain topology: the
  expected near-zero baseline;
* ``valley-free, sibling chain`` — strict export once the chain
  exists: the paper's surprising headline result;
* ``violate policy`` — the attacker re-exports everywhere (on the
  chained topology), an upper bound the valley-free chain approaches.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bgp.engine import PropagationEngine
from repro.exceptions import ExperimentError
from repro.runner import RunConfig
from repro.experiments.base import ExperimentResult, build_world, instrumented
from repro.experiments.sweeps import padding_sweep
from repro.telemetry.metrics import RunMetrics

__all__ = ["Fig11Config", "run"]


@dataclass(frozen=True)
class Fig11Config:
    seed: int = 7
    scale: float = 1.0
    max_padding: int = 8
    #: fan the λ points out over this many worker processes (None = serial)
    workers: int | None = None


def _choose_actors(world) -> tuple[int, int, int]:
    """Attacker = best-peered content AS, victim = top Tier-1, plus the
    Tier-3 helper that becomes the attacker's customer and the victim's
    sibling (the Limelight analogue)."""
    graph = world.graph
    tier1 = world.topology.tier1
    content = world.topology.content
    if not tier1 or not content:
        raise ExperimentError("scenario needs Tier-1 and content ASes")
    victim = max(tier1, key=lambda t: (graph.degree(t), -t))
    attacker = max(content, key=lambda c: (graph.degree(c), -c))
    helper = next(
        (
            asn
            for asn in world.topology.tier3
            if not graph.has_edge(attacker, asn) and not graph.has_edge(victim, asn)
        ),
        None,
    )
    if helper is None:
        raise ExperimentError("no Tier-3 AS available for the sibling chain")
    return attacker, victim, helper


@instrumented("fig11")
def run(
    config: Fig11Config = Fig11Config(), *, metrics: RunMetrics | None = None
) -> ExperimentResult:
    """Regenerate Figure 11's series."""
    world = build_world(seed=config.seed, scale=config.scale, metrics=metrics)
    run_config = RunConfig(workers=config.workers, metrics=metrics)
    attacker, victim, helper = _choose_actors(world)
    paddings = range(1, config.max_padding + 1)

    plain_engine = world.engine
    chained_graph = world.graph.copy()
    chained_graph.add_p2c(attacker, helper)
    chained_graph.add_s2s(helper, victim)
    chained_engine = PropagationEngine(chained_graph, metrics=metrics)

    no_chain = padding_sweep(
        plain_engine,
        victim=victim,
        attacker=attacker,
        paddings=paddings,
        run=run_config,
    )
    with_chain = padding_sweep(
        chained_engine,
        victim=victim,
        attacker=attacker,
        paddings=paddings,
        run=run_config,
    )
    violating = padding_sweep(
        chained_engine,
        victim=victim,
        attacker=attacker,
        paddings=paddings,
        violate_policy=True,
        run=run_config,
    )
    rows = [
        (padding, round(plain_after, 1), round(chain_after, 1), round(violate_after, 1))
        for (padding, _, plain_after), (_, _, chain_after), (_, _, violate_after) in zip(
            no_chain, with_chain, violating
        )
    ]
    summary = {
        "no_chain_plateau_pct": no_chain[-1][2],
        "valley_free_plateau_pct": with_chain[-1][2],
        "violate_plateau_pct": violating[-1][2],
    }
    return ExperimentResult(
        experiment_id="fig11",
        title=(
            f"Pollution vs prepended ASNs — content AS{attacker} hijacks "
            f"Tier-1 AS{victim} (Facebook/NTT analogue, sibling helper "
            f"AS{helper})"
        ),
        params={
            "attacker": attacker,
            "victim": victim,
            "helper": helper,
            "seed": config.seed,
            "scale": config.scale,
        },
        headers=(
            "prepended_asns",
            "valley_free_no_chain_%",
            "valley_free_sibling_chain_%",
            "violate_policy_%",
        ),
        rows=rows,
        summary=summary,
        notes=[
            "paper: ~38% pollution with sufficient padding even under "
            "valley-free export — the sibling/CDN chain makes the stripped "
            "route customer-learned; a policy-violating attacker reaches "
            "an impact 'equally large as other scenarios'"
        ],
    )
