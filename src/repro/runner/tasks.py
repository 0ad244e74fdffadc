"""Task descriptors executed by the sweep runner.

A task is a small frozen dataclass naming one independent propagation
experiment — cheap to pickle to a worker process — plus a ``run``
method that executes it against a :class:`WorkerContext` (the
per-worker engine, baseline cache and detection pipeline).  The same
descriptors drive the in-process serial path, which is what makes the
serial and parallel runners bit-identical by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.attack.interception import InterceptionResult, simulate_interception
from repro.bgp.collectors import RouteCollector
from repro.bgp.engine import PropagationEngine
from repro.bgp.prepending import PrependingPolicy
from repro.bgp.route import DEFAULT_PREFIX
from repro.detection.alarms import Confidence
from repro.detection.detector import ASPPInterceptionDetector
from repro.detection.timing import DetectionTiming, detection_timing
from repro.exceptions import SimulationError
from repro.runner.cache import BaselineCache
from repro.runner.shm import SharedTopologyHandle, attach_topology
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
    "WorkerSpec",
    "WorkerContext",
    "SweepPointTask",
    "SweepPointResult",
    "DeploymentPointTask",
    "DeploymentPointResult",
    "CampaignPairTask",
]


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker needs to rebuild its execution context.

    The spec is shipped to each worker exactly once (as pool
    initializer arguments).  The topology travels either as a pickled
    :class:`ASGraph` (``graph``) or — the pool path — as a
    :class:`~repro.runner.shm.SharedTopologyHandle` naming a
    shared-memory segment the parent published, so the graph is never
    pickled per worker at all.
    """

    graph: ASGraph | None
    #: monitor fleet for tasks that run detection; ``None`` when the
    #: workload is pure propagation (λ-sweeps).
    monitors: tuple[int, ...] | None = None
    max_activations: int = 50
    #: when True each worker keeps a :class:`RunMetrics` registry wired
    #: into its engine, cache and detection pipeline, and ships a
    #: metrics delta back with every task result.
    metrics_enabled: bool = False
    #: shared-memory handle to a published compiled topology; workers
    #: attach to it instead of unpickling ``graph``.
    shared_topology: SharedTopologyHandle | None = None


class WorkerContext:
    """Per-worker state: compiled engine, baseline cache, detection."""

    def __init__(
        self,
        spec: WorkerSpec,
        *,
        engine: PropagationEngine | None = None,
        cache: BaselineCache | None = None,
        metrics: RunMetrics | None = None,
        in_pool_worker: bool = False,
    ) -> None:
        # ``metrics`` lets the serial path record straight into the
        # caller's registry; pool workers build their own per-process
        # one from the spec.  When enabled, the context wires the
        # registry into the engine and cache it runs tasks against —
        # callers that *adopt* an existing engine/cache are responsible
        # for restoring the previous attachment afterwards.
        self.metrics = metrics if metrics is not None else RunMetrics(
            enabled=spec.metrics_enabled
        )
        track = self.metrics.enabled
        if engine is not None:
            self.engine = engine
        elif spec.shared_topology is not None:
            # Pool-worker bootstrap from shared memory: attach, copy,
            # build the engine straight on the compiled arrays.
            topo = attach_topology(spec.shared_topology)
            self.engine = PropagationEngine.from_compiled(
                topo, max_activations=spec.max_activations
            )
            if track:
                self.metrics.count("runner.shm.bootstraps")
                self.metrics.count(
                    "runner.shm.attached_bytes", spec.shared_topology.size
                )
        elif spec.graph is not None:
            self.engine = PropagationEngine(
                spec.graph, max_activations=spec.max_activations
            )
            if track and in_pool_worker:
                # A pool worker rebuilding its engine from a pickled
                # graph means the shared-memory path was not taken.
                self.metrics.count("runner.shm.graph_pickles")
        else:
            raise SimulationError(
                "WorkerSpec carries neither a graph nor a shared topology"
            )
        if cache is not None and cache.engine is not self.engine:
            raise SimulationError("shared cache must belong to this context's engine")
        self.cache = cache if cache is not None else BaselineCache(self.engine)
        if track:
            self.engine.metrics = self.metrics
            self.cache.metrics = self.metrics
        # Impact-kernel route (see :meth:`impact_counts`): the kernel or
        # the reason this context has none, resolved on first use, and
        # the counts :meth:`park_impact` computed ahead as one batch.
        self._impact_kernel = None
        self._impact_fallback: str | None = None
        self._impact_parked: dict = {}
        self._monitors = spec.monitors
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
        """The topology (materialised from the compiled arrays when the
        worker was bootstrapped through shared memory)."""
        return self.engine.graph

    @property
    def collector(self) -> RouteCollector:
        if self._collector is None:
            if self._monitors is None:
                raise SimulationError(
                    "this worker was built without a monitor fleet; campaign "
                    "tasks need WorkerSpec.monitors"
                )
            self._collector = RouteCollector(self.graph, self._monitors)
        return self._collector

    @property
    def detector(self) -> ASPPInterceptionDetector:
        if self._detector is None:
            self._detector = ASPPInterceptionDetector(self.graph)
        return self._detector

    # -- impact-only cells ----------------------------------------------
    def _impact_route(self, task: "SweepPointTask") -> str | None:
        """``None`` when ``task`` runs on the impact kernel; otherwise
        the fallback reason, or ``"invalid"`` for inputs the engine
        route must reject with its own errors."""
        if self._impact_kernel is None and self._impact_fallback is None:
            from repro.bgp import vectorized

            if not vectorized.numpy_available():
                self._impact_fallback = "numpy-missing"
            else:
                try:
                    self._impact_kernel = vectorized.ImpactKernel(
                        self.engine.compiled_topology
                    )
                except vectorized.VectorizedUnsupported:
                    self._impact_fallback = "domain"
        if self._impact_fallback is not None:
            return self._impact_fallback
        kernel = self._impact_kernel
        index = kernel.topo.index
        if (
            task.victim not in index
            or task.attacker not in index
            or task.victim == task.attacker
            or task.padding < 1
            or task.keep < 1
        ):
            return "invalid"
        if task.strip_mode not in ("origin", "all"):
            return "strip-mode"
        if not kernel.admits(task.padding):
            return "domain"
        return None

    def _run_impact(self, tasks: list) -> list[tuple[int, int, bool]]:
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
        """Run the kernel-eligible sweep points of ``tasks`` as one
        batch, park their counts for :meth:`impact_counts`, and return
        the tasks left to the engine route."""
        eligible = [
            task
            for task in dict.fromkeys(tasks)
            if isinstance(task, SweepPointTask) and self._impact_route(task) is None
        ]
        self._impact_parked = (
            dict(zip(eligible, self._run_impact(eligible))) if eligible else {}
        )
        return [task for task in tasks if task not in self._impact_parked]

    def impact_counts(self, task: "SweepPointTask") -> tuple[int, int, bool, int] | None:
        """``(before, after, attacker kept a route, population)`` of
        one sweep point from the impact kernel — parked by
        :meth:`park_impact` or computed now as a single column — or
        ``None`` when the point must take the engine route (the reason
        is counted as ``engine.impact.fallbacks.<reason>``)."""
        counts = self._impact_parked.get(task)
        if counts is None:
            reason = self._impact_route(task)
            if reason is not None:
                if reason != "invalid":
                    self.metrics.count(f"engine.impact.fallbacks.{reason}")
                return None
            (counts,) = self._run_impact([task])
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
        counts = ctx.impact_counts(self)
        if counts is not None:
            before, after, kept, population = counts
            before_fraction = before / population if population else 0.0
            after_fraction = after / population if population else 0.0
        else:
            prepending = PrependingPolicy.uniform_origin(self.victim, self.padding)
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
                baseline=ctx.cache.baseline(
                    self.victim, prefix=self.prefix, prepending=prepending
                ),
            )
            before_fraction = result.report.before_fraction
            after_fraction = result.report.after_fraction
            kept = result.attacker_has_route
        return SweepPointResult(
            attacker=self.attacker,
            victim=self.victim,
            padding=self.padding,
            before_fraction=before_fraction,
            after_fraction=after_fraction,
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
    construction — a ``--resume`` against a file written under a
    different secpol setup replays nothing.  ``violate_policy``
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
class CampaignPairTask:
    """One campaign instance: attack plus monitor-fleet detection."""

    attacker: int
    victim: int
    padding: int
    min_confidence: Confidence = Confidence.LOW
    attacker_feeds_collector: bool = field(default=True)

    def run(self, ctx: WorkerContext) -> tuple[InterceptionResult, DetectionTiming]:
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
            metrics=ctx.metrics if ctx.metrics.enabled else None,
        )
        return result, timing
