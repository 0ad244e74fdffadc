"""Task descriptors executed by the sweep runner.

A task is a small frozen dataclass naming one independent propagation
experiment — cheap to pickle to a worker process — plus a ``run``
method that executes it against a :class:`WorkerContext` (the
per-worker engine, baseline cache and detection pipeline).  The same
descriptors drive the in-process serial path, which is what makes the
serial and parallel runners bit-identical by construction.

Each kind has one route.  A :class:`SweepPointTask` is always a column
of the impact kernel (:class:`repro.bgp.vectorized.ImpactKernel`): a
point the kernel cannot answer raises what the engine route would, a
point outside its packed key a :class:`SimulationError`.  Deployment
and campaign cells build routes, so they warm-start each attack from a
cached baseline on the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.attack.interception import ASPPInterceptionAttack, simulate_interception
from repro.bgp.collectors import RouteCollector
from repro.bgp.engine import PropagationEngine
from repro.bgp.prepending import PrependingPolicy
from repro.bgp.route import DEFAULT_PREFIX
from repro.bgp.vectorized import ImpactKernel, _check_domain
from repro.detection.alarms import Confidence
from repro.detection.detector import ASPPInterceptionDetector
from repro.detection.timing import detection_timing
from repro.exceptions import ReproError, SimulationError, UnknownASError
from repro.runner.cache import BaselineCache
from repro.secpol.deployment import (
    POLICIES,
    STRATEGIES,
    SecurityDeployment,
    deployment_ranking,
    make_policy,
    select_deployers,
)
from repro.secpol.policies import SecurityPolicy, padding_registry
from repro.telemetry.metrics import RunMetrics
from repro.topology.asgraph import ASGraph

__all__ = [
    "WorkerContext",
    "SweepPointTask",
    "SweepPointResult",
    "DeploymentPointTask",
    "DeploymentPointResult",
    "CampaignPairTask",
    "CampaignPairResult",
]


class WorkerContext:
    """Per-worker state: compiled engine, baseline cache, detection."""

    def __init__(
        self,
        engine: PropagationEngine,
        *,
        cache: BaselineCache | None = None,
        monitors: tuple[int, ...] | None = None,
        metrics: RunMetrics | None = None,
    ) -> None:
        # ``metrics`` (``None``: off) is wired into the engine and cache;
        # a caller that hands in its own restores their registries.
        self.metrics = metrics
        self.engine = engine
        if cache is not None and cache.engine is not engine:
            raise SimulationError("shared cache must belong to this context's engine")
        self.cache = cache if cache is not None else BaselineCache(engine)
        if metrics is not None:
            engine.metrics = metrics
            self.cache.metrics = metrics
        # The impact kernel (see :meth:`impact_counts`), built on first
        # use, and the counts :meth:`park_impact` computed ahead as one
        # batch.
        self._impact_kernel: ImpactKernel | None = None
        self._impact_parked: dict = {}
        self._monitors = monitors
        self._collector: RouteCollector | None = None
        self._detector: ASPPInterceptionDetector | None = None
        # Security-policy working set, memoised per worker: strategy
        # rankings and padding registries are pure functions of the
        # topology/baseline, so a deployment sweep builds each once and
        # every fraction slices or reuses it.
        self._secpol_rankings: dict[tuple[str, int, int], tuple[int, ...]] = {}
        self._secpol_registries: dict[tuple[int, str, int], dict[int, int]] = {}
        self._secpol_policies: dict[tuple[str, int, str, int], SecurityPolicy] = {}

    @property
    def graph(self) -> ASGraph:
        """The topology the context's engine runs on."""
        return self.engine.graph

    @property
    def collector(self) -> RouteCollector:
        if self._collector is None:
            if self._monitors is None:
                raise SimulationError(
                    "this context was built without a monitor fleet; campaign "
                    "tasks need monitors"
                )
            self._collector = RouteCollector(self.graph, self._monitors)
        return self._collector

    @property
    def detector(self) -> ASPPInterceptionDetector:
        if self._detector is None:
            self._detector = ASPPInterceptionDetector(self.graph)
        return self._detector

    # -- impact-only cells ----------------------------------------------
    def _check_point(self, task: "SweepPointTask") -> None:
        """Raise what the engine route (a cached baseline, then
        :func:`simulate_interception` from it) raises on ``task``'s
        inputs, in its order: the victim's padding schedule, the
        victim, the key's domain, the attack, the attacker.  A point
        that passes is one the impact kernel answers."""
        PrependingPolicy.uniform_origin(task.victim, task.padding)
        topo = self.engine.compiled_topology
        if task.victim not in topo.index:
            raise UnknownASError(task.victim)
        _check_domain(topo, task.padding)
        ASPPInterceptionAttack(
            attacker=task.attacker,
            victim=task.victim,
            strip_mode=task.strip_mode,
            keep=task.keep,
        )
        if task.attacker not in topo.index:
            raise UnknownASError(task.attacker)

    def _run_impact(self, tasks: list) -> list[tuple[int, int, bool]]:
        if self._impact_kernel is None:
            self._impact_kernel = ImpactKernel(self.engine.compiled_topology)
        # Under a uniform-origin schedule the victim's run is the only
        # prepending on any path, so collapsing every run
        # (strip_mode="all") is origin-stripping down to one copy.
        return self._impact_kernel.run(
            [
                (
                    t.victim,
                    t.attacker,
                    t.padding,
                    t.keep if t.strip_mode == "origin" else 1,
                    t.violate_policy,
                )
                for t in tasks
            ],
            self.metrics,
        )

    def park_impact(self, tasks) -> list:
        """Run the valid sweep points of ``tasks`` as one kernel batch,
        park their counts for :meth:`impact_counts`, and return the
        other tasks: other kinds, and sweep points that raise at their
        own turn."""
        points = []
        for task in dict.fromkeys(tasks):
            if isinstance(task, SweepPointTask):
                try:
                    self._check_point(task)
                except ReproError:
                    continue
                points.append(task)
        self._impact_parked = (
            dict(zip(points, self._run_impact(points))) if points else {}
        )
        return [task for task in tasks if task not in self._impact_parked]

    def impact_counts(self, task: "SweepPointTask") -> tuple[int, int, bool, int]:
        """``(before, after, attacker kept a route, population)`` of
        one sweep point from the impact kernel: parked by
        :meth:`park_impact`, or computed now as a single column."""
        counts = self._impact_parked.get(task)
        if counts is None:
            self._check_point(task)
            (counts,) = self._run_impact([task])
        if self.metrics is not None:
            self.metrics.count("engine.impact.cells")
        return (*counts, self._impact_kernel.topo.n - 2)

    # -- security-policy deployment helpers -----------------------------
    def deployment_ranking(
        self, strategy: str, *, victim: int, seed: int = 0
    ) -> tuple[int, ...]:
        """Memoised :func:`repro.secpol.deployment_ranking` over this
        worker's topology."""
        key = (strategy, victim, seed)
        ranking = self._secpol_rankings.get(key)
        if ranking is None:
            ranking = deployment_ranking(
                self.graph, strategy, victim=victim, seed=seed
            )
            self._secpol_rankings[key] = ranking
        return ranking

    def padding_registry_for(
        self, victim: int, *, prefix: str = DEFAULT_PREFIX, padding: int = 1
    ) -> dict[int, int]:
        """Memoised honest-baseline padding registry (PrependGuard)."""
        key = (victim, prefix, padding)
        registry = self._secpol_registries.get(key)
        if registry is None:
            prepending = PrependingPolicy.uniform_origin(victim, padding)
            baseline = self.cache.baseline(
                victim, prefix=prefix, prepending=prepending
            )
            registry = padding_registry(baseline, victim)
            self._secpol_registries[key] = registry
        return registry

    def security_policy(
        self,
        name: str,
        *,
        victim: int,
        prefix: str = DEFAULT_PREFIX,
        padding: int = 1,
    ) -> SecurityPolicy:
        """Memoised policy instance, so the compiled checker's per-path
        verdict memo survives across the sweep's fractions."""
        key = (name, victim, prefix, padding if name == "prependguard" else 0)
        policy = self._secpol_policies.get(key)
        if policy is None:
            registry = (
                self.padding_registry_for(victim, prefix=prefix, padding=padding)
                if name == "prependguard"
                else None
            )
            policy = make_policy(
                name, graph=self.graph, victim=victim, registry=registry
            )
            self._secpol_policies[key] = policy
        return policy


@dataclass(frozen=True)
class SweepPointResult:
    """Impact of one sweep point, compact enough to ship between
    processes without dragging the full routing state along."""

    attacker: int
    victim: int
    padding: int
    before_fraction: float
    after_fraction: float
    attacker_kept_route: bool

    def row(self) -> tuple[int, float, float]:
        """The ``(λ, before%, after%)`` row the figure harnesses plot."""
        return (self.padding, 100 * self.before_fraction, 100 * self.after_fraction)


@dataclass(frozen=True)
class SweepPointTask:
    """One (attacker, victim, λ) interception instance."""

    victim: int
    attacker: int
    padding: int
    violate_policy: bool = False
    strip_mode: str = "origin"
    keep: int = 1
    prefix: str = DEFAULT_PREFIX

    def run(self, ctx: WorkerContext) -> SweepPointResult:
        before, after, kept, population = ctx.impact_counts(self)
        return SweepPointResult(
            attacker=self.attacker,
            victim=self.victim,
            padding=self.padding,
            before_fraction=before / population if population else 0.0,
            after_fraction=after / population if population else 0.0,
            attacker_kept_route=kept,
        )


@dataclass(frozen=True)
class DeploymentPointResult:
    """Impact of one deployment-sweep point."""

    attacker: int
    victim: int
    padding: int
    policy: str
    strategy: str
    fraction: float
    #: ASes that actually deployed the policy (after exclusions and
    #: rounding; 0 for the "none" policy or a fraction rounding to zero).
    deployed_count: int
    before_fraction: float
    after_fraction: float
    attacker_kept_route: bool

    def row(self) -> tuple[float, float, float]:
        """The ``(deployment fraction, before%, after%)`` figure row."""
        return (self.fraction, 100 * self.before_fraction, 100 * self.after_fraction)


@dataclass(frozen=True)
class DeploymentPointTask:
    """One interception instance under a partial policy deployment.

    The whole security configuration (policy, strategy, fraction, seed)
    lives in frozen fields, so the task fingerprint covers it by
    construction — a store written under a different secpol setup
    replays nothing.  ``violate_policy``
    defaults to True (the paper's Figures 11-12 attacker): the
    canonical valley-free attack is exactly the case path-plausibility
    defences cannot see, so the leaking variant is the one that
    separates the policies.
    """

    victim: int
    attacker: int
    padding: int
    policy: str = "none"
    strategy: str = "top-degree-first"
    fraction: float = 0.0
    seed: int = 0
    violate_policy: bool = True
    strip_mode: str = "origin"
    keep: int = 1
    prefix: str = DEFAULT_PREFIX

    def __post_init__(self) -> None:
        if self.policy != "none" and self.policy not in POLICIES:
            raise SimulationError(
                f"unknown security policy {self.policy!r}; expected 'none' "
                f"or one of {POLICIES}"
            )
        if self.strategy not in STRATEGIES:
            raise SimulationError(
                f"unknown deployment strategy {self.strategy!r}; expected "
                f"one of {STRATEGIES}"
            )
        if not 0.0 <= self.fraction <= 1.0:
            raise SimulationError(
                f"deployment fraction must be in [0, 1], got {self.fraction}"
            )

    def run(self, ctx: WorkerContext) -> DeploymentPointResult:
        prepending = PrependingPolicy.uniform_origin(self.victim, self.padding)
        baseline = ctx.cache.baseline(
            self.victim, prefix=self.prefix, prepending=prepending
        )
        secpol = None
        if self.policy != "none" and self.fraction > 0.0:
            ranking = ctx.deployment_ranking(
                self.strategy, victim=self.victim, seed=self.seed
            )
            deployers = select_deployers(
                ranking, self.fraction, exclude=(self.victim, self.attacker)
            )
            if deployers:
                secpol = SecurityDeployment(
                    ctx.security_policy(
                        self.policy,
                        victim=self.victim,
                        prefix=self.prefix,
                        padding=self.padding,
                    ),
                    deployers,
                )
        result = simulate_interception(
            ctx.engine,
            victim=self.victim,
            attacker=self.attacker,
            origin_padding=self.padding,
            prefix=self.prefix,
            strip_mode=self.strip_mode,
            keep=self.keep,
            violate_policy=self.violate_policy,
            prepending=prepending,
            baseline=baseline,
            secpol=secpol,
        )
        return DeploymentPointResult(
            attacker=self.attacker,
            victim=self.victim,
            padding=self.padding,
            policy=self.policy,
            strategy=self.strategy,
            fraction=self.fraction,
            deployed_count=0 if secpol is None else len(secpol.deployers),
            before_fraction=result.report.before_fraction,
            after_fraction=result.report.after_fraction,
            attacker_kept_route=result.attacker_has_route,
        )


@dataclass(frozen=True)
class CampaignPairResult:
    """One campaign instance: its impact and whether the fleet saw it.

    A row, like :class:`DeploymentPointResult`: what the ``campaign``
    report reads, not the two routing worlds it was computed from (a
    caller that wants those runs ``simulate_interception`` and
    ``detection_timing`` itself).
    """

    attacker: int
    victim: int
    padding: int
    before_fraction: float
    after_fraction: float
    #: ASes the attack captured that did not already route through
    #: the attacker (0: the attack was not effective)
    newly_polluted: int
    detected: bool


@dataclass(frozen=True)
class CampaignPairTask:
    """One campaign instance: attack plus monitor-fleet detection."""

    attacker: int
    victim: int
    padding: int
    min_confidence: Confidence = Confidence.LOW
    attacker_feeds_collector: bool = field(default=True)

    def run(self, ctx: WorkerContext) -> CampaignPairResult:
        prepending = PrependingPolicy.uniform_origin(self.victim, self.padding)
        baseline = ctx.cache.baseline(self.victim, prepending=prepending)
        result = simulate_interception(
            ctx.engine,
            victim=self.victim,
            attacker=self.attacker,
            origin_padding=self.padding,
            prepending=prepending,
            baseline=baseline,
        )
        timing = detection_timing(
            result,
            ctx.collector,
            ctx.detector,
            min_confidence=self.min_confidence,
            attacker_feeds_collector=self.attacker_feeds_collector,
            metrics=ctx.metrics,
        )
        report = result.report
        return CampaignPairResult(
            attacker=self.attacker,
            victim=self.victim,
            padding=self.padding,
            before_fraction=report.before_fraction,
            after_fraction=report.after_fraction,
            newly_polluted=len(report.newly_polluted),
            detected=timing.detected,
        )
