"""The one-stop study object (`InterceptionStudy`).

Downstream users rarely want to wire the engine, collectors, detectors
and runner by hand; this façade owns a world plus a monitor fleet and
runs the paper's batch workloads over it::

    study = InterceptionStudy.generate(seed=7)
    campaign = study.campaign(pairs=50, padding=3)
    grid = study.exhaustive_grid(padding=3, attacker_pool=study.world.tier1)
    sweep = study.deployment_sweep(victim=study.world.content[0],
                                   attacker=study.world.tier1[0],
                                   padding=3, policy="prependguard")

One attack instance is the public functions over the study's parts:
``simulate_interception(study.engine, ...)``, then
``detection_timing(result, study.collector, study.detector)`` or
``reactive_padding_reduction(study.engine, result)``.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, field

from repro.bgp.collectors import RouteCollector
from repro.bgp.engine import PropagationEngine
from repro.detection.detector import ASPPInterceptionDetector
from repro.detection.monitors import top_degree_monitors
from repro.detection.placement import greedy_cover_monitors
from repro.exceptions import ExperimentError, SimulationError
from repro.experiments.base import generate_world
from repro.runner import (
    CampaignPairResult,
    CampaignPairTask,
    RunConfig,
    run_batch,
    sample_attack_pairs,
)
from repro.telemetry.metrics import RunMetrics
from repro.topology.generators import GeneratedTopology, InternetTopologyConfig
from repro.utils.rand import derive_rng, make_rng

__all__ = ["InterceptionStudy", "AttackCampaign"]


@dataclass
class AttackCampaign:
    """Aggregate results of many attack instances, one row each."""

    results: list[CampaignPairResult] = field(default_factory=list)
    #: telemetry registry the campaign recorded into, when one was passed
    metrics: RunMetrics | None = None

    @property
    def effective(self) -> list[CampaignPairResult]:
        """Instances that captured at least one AS."""
        return [r for r in self.results if r.newly_polluted]

    @property
    def mean_pollution(self) -> float:
        """Mean after-attack traversal fraction over all instances."""
        if not self.results:
            return 0.0
        return statistics.mean(r.after_fraction for r in self.results)

    @property
    def detection_rate(self) -> float:
        """Fraction of effective attacks the monitor fleet detected."""
        relevant = self.effective
        if not relevant:
            return 0.0
        return sum(r.detected for r in relevant) / len(relevant)


class InterceptionStudy:
    """A world plus a monitor fleet, ready to run the paper's study."""

    def __init__(
        self,
        world: GeneratedTopology,
        *,
        monitors: int = 150,
        placement: str = "top-degree",
        seed: int = 7,
    ) -> None:
        """``placement`` is ``"top-degree"`` (the paper's) or
        ``"greedy-cover"`` (the optimised future-work strategy)."""
        self._world = world
        self._seed = seed
        self._engine = PropagationEngine(world.graph)
        count = min(monitors, len(world.graph))
        if placement == "top-degree":
            fleet = top_degree_monitors(world.graph, count)
        elif placement == "greedy-cover":
            fleet = greedy_cover_monitors(world.graph, count)
        else:
            raise SimulationError(
                f"unknown placement {placement!r}; use 'top-degree' or 'greedy-cover'"
            )
        self._monitors = tuple(fleet)
        self._collector = RouteCollector(world.graph, fleet)
        self._detector = ASPPInterceptionDetector(world.graph)

    # ------------------------------------------------------------------
    @classmethod
    def generate(
        cls,
        *,
        seed: int = 7,
        scale: float = 1.0,
        config: InternetTopologyConfig | None = None,
        monitors: int = 150,
        placement: str = "top-degree",
    ) -> "InterceptionStudy":
        """Generate a fresh Internet-like world and wrap it in a study."""
        return cls(
            generate_world(seed=seed, scale=scale, config=config),
            monitors=monitors,
            placement=placement,
            seed=seed,
        )

    # ------------------------------------------------------------------
    @property
    def world(self) -> GeneratedTopology:
        return self._world

    @property
    def engine(self) -> PropagationEngine:
        return self._engine

    @property
    def collector(self) -> RouteCollector:
        return self._collector

    @property
    def detector(self) -> ASPPInterceptionDetector:
        return self._detector

    # ------------------------------------------------------------------
    def deployment_sweep(
        self,
        *,
        victim: int,
        attacker: int,
        padding: int,
        policy: str,
        strategy: str = "top-degree-first",
        fractions: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0),
        violate_policy: bool = True,
        run: RunConfig = RunConfig(),
    ):
        """Residual pollution per deployment fraction of a security policy.

        Deploys ``policy`` (``"rov"``, ``"aspa"``, ``"prependguard"``, or
        ``"none"`` for the undefended control) on a ``strategy``-ranked,
        nested deployer set at each fraction and returns the
        :class:`~repro.runner.DeploymentPointResult` list in ``fractions``
        order.  ``run`` behaves as in :meth:`campaign`; the security
        configuration is part of every task fingerprint, so a
        ``run.store`` written under a different policy setup replays nothing.
        """
        from repro.experiments.sweeps import deployment_sweep as run_sweep

        return run_sweep(
            self._engine,
            victim=victim,
            attacker=attacker,
            padding=padding,
            policy=policy,
            strategy=strategy,
            fractions=fractions,
            seed=self._seed,
            violate_policy=violate_policy,
            run=run,
        )

    def exhaustive_grid(
        self,
        *,
        padding: int,
        attacker_pool: list[int] | None = None,
        victim_pool: list[int] | None = None,
        run: RunConfig = RunConfig(),
    ):
        """Every attacker × every victim at fixed λ, no sampling.

        The exhaustive counterpart of :meth:`campaign`: instead of a
        seeded draw from the pools, every ``(attacker, victim)`` cell of
        the cross product runs exactly once (attacker outer, victim
        inner, self-pairs skipped), returning
        :class:`~repro.runner.SweepPointResult` rows in grid order.
        Defaults mirror :meth:`campaign`'s pools (transit attackers ×
        all ASes).  A cell reports impact only, so the grid runs on the
        impact kernel — one baseline column per victim, one attacked
        column per cell, no routes built (numpy-less hosts take the
        engine route).
        ``run`` behaves as in :meth:`campaign`.
        """
        from repro.experiments.sweeps import exhaustive_grid as run_grid

        attackers = (
            attacker_pool if attacker_pool is not None else self._world.transit_ases
        )
        victims = victim_pool if victim_pool is not None else self._world.graph.ases
        return run_grid(
            self._engine,
            attackers=attackers,
            victims=victims,
            origin_padding=padding,
            run=run,
        )

    def campaign(
        self,
        *,
        pairs: int,
        padding: int,
        attacker_pool: list[int] | None = None,
        victim_pool: list[int] | None = None,
        rng: random.Random | None = None,
        run: RunConfig = RunConfig(),
    ) -> AttackCampaign:
        """Run many random attack instances and detect each one.

        The attacker/victim pairs are sampled up front (same seeded
        draw sequence as running them one by one, but with bounded
        retries — pools that can only ever collide raise
        :class:`ExperimentError` instead of spinning forever) and then
        executed as independent tasks by :func:`repro.runner.run_batch`.
        Each instance comes back as one
        :class:`~repro.runner.CampaignPairResult` row; the routing
        worlds behind it are one ``simulate_interception`` call away
        (see the module docstring).

        ``run`` says how (see :class:`~repro.runner.RunConfig` for the
        fields); the campaign's results are bit-identical under every
        value of it.  An instance that fails fails the campaign, serial
        or pooled.  With ``run.store`` set, a failed or killed campaign
        (a worker death, Ctrl-C) picks up where it stopped: every
        instance is a pure function of its inputs, so rerunning on the
        same store executes only the unsettled ones.
        """
        if pairs < 1:
            raise ExperimentError("a campaign needs at least one pair")
        rng = rng or derive_rng(make_rng(self._seed), "study-campaign")
        attackers = attacker_pool if attacker_pool is not None else self._world.transit_ases
        victims = victim_pool if victim_pool is not None else self._world.graph.ases
        sampled = sample_attack_pairs(attackers, victims, pairs, rng)
        tasks = [
            CampaignPairTask(attacker=attacker, victim=victim, padding=padding)
            for attacker, victim in sampled
        ]
        results = run_batch(self._engine, tasks, run, monitors=self._monitors)
        return AttackCampaign(results=results, metrics=run.metrics)
