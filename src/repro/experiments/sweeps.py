"""Shared sweep machinery for Figures 7-12, backed by the runner.

Each λ-sweep figure fixes one attacker/victim pair and sweeps the
number of prepended ASNs; the pair-grid figures fix λ and sweep
attacker/victim pairs.  Both decompose into independent
:class:`~repro.runner.SweepPointTask` instances, so they share one
execution path: serial in-process or fanned out over a process pool.
The task list, and therefore the result rows, are identical for every
worker count.  A :func:`campaign` is the same shape with detection:
seeded random pairs, each a :class:`~repro.runner.CampaignPairTask`
watched by a monitor fleet.

A sweep point reports impact only (before %, after %, attacker kept a
route), so it never builds routes: every point is a column of the
impact kernel (:class:`repro.bgp.vectorized.ImpactKernel`).  Serially
the whole task list runs as budget-sized kernel batches ahead of the
per-task loop, and a pool worker runs its points as single columns
against a per-victim baseline memo; a point outside the kernel's
packed key raises :class:`~repro.exceptions.SimulationError` at its
own turn.  Every :class:`~repro.runner.DeploymentPointTask` converges
its baseline once at its own λ (memoised in the baseline cache) and
warm-starts each attack from it on the engine.

*What* a sweep computes is its keyword arguments; *how* it runs is one
:class:`~repro.runner.RunConfig` (``run=``), handed with the task list
to :func:`repro.runner.run_batch`.  Cells already recorded — in
``run.store`` or in the store bound by
:func:`repro.store.use_store` — replay without touching the engine (a
fully warm store performs *zero* propagations); only missing cells
run, each recorded as it settles, so a failed or interrupted sweep
keeps what it finished and a rerun executes only the rest.  A
:func:`deployment_sweep`'s ``cache`` optionally shares one
:class:`BaselineCache` across several serial sweeps on the same engine
(e.g. a figure's policies, whose baselines coincide).
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from repro.bgp.engine import PropagationEngine
from repro.exceptions import SimulationError
from repro.runner import (
    BaselineCache,
    CampaignPairResult,
    CampaignPairTask,
    DeploymentPointResult,
    DeploymentPointTask,
    RunConfig,
    SweepPointResult,
    SweepPointTask,
    run_batch,
    sample_attack_pairs,
)

__all__ = ["campaign", "exhaustive_grid", "padding_sweep", "pair_grid", "deployment_sweep"]


def padding_sweep(
    engine: PropagationEngine,
    *,
    victim: int,
    attacker: int,
    paddings: Sequence[int],
    violate_policy: bool = False,
    run: RunConfig = RunConfig(),
) -> list[tuple[int, float, float]]:
    """Run the attack for each λ; return ``(λ, before%, after%)`` rows.

    Fractions are percentages of ASes whose best path traverses the
    attacker, matching the paper's y-axis.  The rows are bit-identical
    under every ``run`` — each point is a pure function of its inputs.
    """
    tasks = [
        SweepPointTask(
            victim=victim,
            attacker=attacker,
            padding=padding,
            violate_policy=violate_policy,
        )
        for padding in paddings
    ]
    return [result.row() for result in run_batch(engine, tasks, run)]


def pair_grid(
    engine: PropagationEngine,
    pairs: Sequence[tuple[int, int]],
    *,
    origin_padding: int,
    run: RunConfig = RunConfig(),
) -> list[SweepPointResult]:
    """Run one fixed-λ attack per ``(attacker, victim)`` pair.

    Results come back in ``pairs`` order under every ``run``.
    """
    tasks = [
        SweepPointTask(victim=victim, attacker=attacker, padding=origin_padding)
        for attacker, victim in pairs
    ]
    return run_batch(engine, tasks, run)


def exhaustive_grid(
    engine: PropagationEngine,
    *,
    attackers: Sequence[int],
    victims: Sequence[int],
    origin_padding: int,
    run: RunConfig = RunConfig(),
) -> list[SweepPointResult]:
    """Every attacker × every victim at fixed λ — the full campaign grid.

    The grid enumerates the cross product deterministically (``attackers``
    outer, ``victims`` inner, self-pairs skipped) instead of drawing a
    sampled pool, which is the coverage the per-pair impact literature
    needs (PAPERS.md: hijack-impact estimation at full grid coverage).
    The cell order — and therefore the result rows and every recorded
    fingerprint — is a pure function of the two pools, so a
    ``run.store`` replays exactly the completed cells no matter
    where the previous run died.

    Every cell is impact-only, so the grid never builds routes: each
    victim converges one canonical key column and every cell is one
    more column of the impact kernel's two-source fixpoint
    (:class:`repro.bgp.vectorized.ImpactKernel`).  The golden grid test
    pins the rows against per-pair engine recomputes cell for cell.
    """
    pairs = [(a, v) for a in attackers for v in victims if a != v]
    if not pairs:
        raise SimulationError("exhaustive grid needs at least one attacker≠victim cell")
    return pair_grid(engine, pairs, origin_padding=origin_padding, run=run)


def deployment_sweep(
    engine: PropagationEngine,
    *,
    victim: int,
    attacker: int,
    padding: int,
    policy: str,
    strategy: str = "top-degree-first",
    fractions: Sequence[float],
    seed: int = 0,
    violate_policy: bool = True,
    cache: BaselineCache | None = None,
    run: RunConfig = RunConfig(),
) -> list[DeploymentPointResult]:
    """Run the attack once per deployment fraction of a security policy.

    Each point deploys ``policy`` (``"rov"``, ``"aspa"``,
    ``"prependguard"``, or ``"none"`` for the undefended control) at
    ``fraction`` of the ``strategy``'s candidate pool and measures
    residual pollution; results come back in ``fractions`` order under
    every ``run``.  The honest baseline stays policy-free (one
    cached convergence serves every fraction); the deployer sets are
    nested across fractions, so the resulting curve is interpretable as
    "what does one more deployment step buy".  ``violate_policy``
    defaults to True — the paper's leaking attacker, the variant
    path-plausibility defences can actually see.  The security
    configuration itself is carried in the task fingerprints, so a
    ``run.store`` written under a different policy setup replays nothing.
    """
    tasks = [
        DeploymentPointTask(
            victim=victim,
            attacker=attacker,
            padding=padding,
            policy=policy,
            strategy=strategy,
            fraction=fraction,
            seed=seed,
            violate_policy=violate_policy,
        )
        for fraction in fractions
    ]
    return run_batch(engine, tasks, run, cache=cache)


def campaign(
    engine: PropagationEngine,
    monitors: Sequence[int],
    *,
    pairs: int,
    padding: int,
    attackers: Sequence[int],
    victims: Sequence[int],
    rng: random.Random,
    run: RunConfig = RunConfig(),
) -> list[CampaignPairResult]:
    """Run ``pairs`` random attack instances and detect each one from
    ``monitors``; one :class:`~repro.runner.CampaignPairResult` per pair.

    The pairs are drawn up front from the two pools by
    :func:`repro.runner.sample_attack_pairs` (bounded retries: pools
    that can only collide, or ``pairs < 1``, raise
    :class:`~repro.exceptions.ExperimentError`), then run as one batch.
    Rows come back in draw order and are bit-identical under every
    ``run``; with ``run.store`` set, a failed or killed campaign reruns
    only its unsettled pairs.
    """
    tasks = [
        CampaignPairTask(attacker=attacker, victim=victim, padding=padding)
        for attacker, victim in sample_attack_pairs(attackers, victims, pairs, rng)
    ]
    return run_batch(engine, tasks, run, monitors=tuple(monitors))
