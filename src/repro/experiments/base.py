"""Shared infrastructure for the per-figure experiment harnesses.

Every experiment module exposes a frozen ``*Config`` dataclass and a
``run(config) -> ExperimentResult`` function.  The result carries the
same rows/series the paper's figure reports, renders itself as text
(what the benchmark harness prints), and exposes a compact summary for
EXPERIMENTS.md.

All experiments are deterministic: the topology, workload, and any
sampling derive from ``config.seed`` through labelled sub-streams, so a
figure regenerates bit-for-bit.
"""

from __future__ import annotations

import functools
import random
from collections.abc import Iterable
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, field

from repro.bgp.engine import PropagationEngine
from repro.exceptions import ExperimentError
from repro.runner.sampling import sample_attack_pairs as sample_pairs
from repro.telemetry.metrics import RunMetrics
from repro.topology.generators import (
    GeneratedTopology,
    InternetTopologyConfig,
    generate_internet_topology,
)
from repro.topology.tiers import provider_ancestors
from repro.utils.rand import derive_rng, make_rng
from repro.utils.tables import format_table

__all__ = [
    "ExperimentResult",
    "ExperimentWorld",
    "attack_pools",
    "build_world",
    "generate_world",
    "instrumented",
    "provider_ancestors",
]


def instrumented(experiment_id: str):
    """Decorator for experiment ``run(config, *, metrics=None)`` entry
    points: times the whole run into ``metrics``
    (``experiment.<id>_seconds``) and attaches the registry to the
    returned artefact.  The wrapped function still receives ``metrics``
    so it can thread the registry into its engines and sweeps.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            metrics = kwargs.get("metrics")
            with _timed(metrics, f"experiment.{experiment_id}_seconds"):
                result = fn(*args, **kwargs)
            result.metrics = metrics
            return result

        return wrapper

    return decorate


def _timed(metrics: RunMetrics | None, name: str) -> AbstractContextManager:
    """Context manager timing its body into timer ``name`` of
    ``metrics``; a no-op when metrics are off."""
    if metrics is None:
        return nullcontext()
    return metrics.time(name)


@dataclass
class ExperimentResult:
    """The regenerated artefact for one paper figure or table."""

    experiment_id: str
    title: str
    params: dict[str, object] = field(default_factory=dict)
    #: column headers + rows, mirroring the figure's plotted points
    headers: tuple[str, ...] = ()
    rows: list[tuple[object, ...]] = field(default_factory=list)
    #: named scalar findings (the numbers quoted in the paper's prose)
    summary: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    #: telemetry registry attached by ``run(config, metrics=...)``;
    #: deliberately excluded from :meth:`to_text` so artefact text is
    #: bit-identical with metrics on or off.
    metrics: RunMetrics | None = None

    def to_text(self) -> str:
        """Render the result the way the benchmark harness prints it."""
        parts = [f"{self.experiment_id}: {self.title}"]
        if self.params:
            rendered = ", ".join(f"{k}={v}" for k, v in self.params.items())
            parts.append(f"params: {rendered}")
        if self.rows:
            parts.append(format_table(self.headers, self.rows))
        if self.summary:
            parts.append("summary:")
            parts.extend(
                f"  {key} = {value:.4g}" for key, value in self.summary.items()
            )
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n".join(parts)


@dataclass
class ExperimentWorld:
    """A generated topology with its shared propagation engine."""

    topology: GeneratedTopology
    engine: PropagationEngine
    seed: int
    scale: float

    @property
    def graph(self):
        return self.topology.graph


def generate_world(
    *, seed: int, scale: float = 1.0, config: InternetTopologyConfig | None = None
) -> GeneratedTopology:
    """The topology ``seed`` draws — same seed, same world, for every
    caller.  ``scale`` multiplies the default population counts; passing
    an explicit ``config`` ignores it."""
    cfg = config if config is not None else InternetTopologyConfig().scaled(scale)
    return generate_internet_topology(cfg, derive_rng(make_rng(seed), "topology"))


def build_world(
    *,
    seed: int = 7,
    scale: float = 1.0,
    config: InternetTopologyConfig | None = None,
    metrics: RunMetrics | None = None,
) -> ExperimentWorld:
    """Build the experiment substrate (topology + engine).

    ``scale`` and ``config`` are :func:`generate_world`'s — benchmarks
    run at scale 1.0, unit tests at ~0.2.  ``metrics`` attaches a
    telemetry registry to the world's engine so every propagation it
    runs is instrumented, and times the generation itself
    (``topology.generate_seconds``).
    """
    with _timed(metrics, "topology.generate_seconds"):
        topology = generate_world(seed=seed, scale=scale, config=config)
    return ExperimentWorld(
        topology=topology,
        engine=PropagationEngine(topology.graph, metrics=metrics),
        seed=seed,
        scale=scale,
    )


def attack_pools(topology: GeneratedTopology) -> tuple[list[int], list[int]]:
    """The default ``(attackers, victims)`` pools of a random attack.

    Attackers are the transit ASes: a valley-free attacker with no
    customers has nowhere to export a modified route, so including pure
    stubs would only measure no-ops (see
    ``GeneratedTopology.transit_ases``).  Victims are all ASes.
    """
    return topology.transit_ases, topology.graph.ases


def sample_attack_pairs(
    world: ExperimentWorld,
    count: int,
    rng: random.Random,
    *,
    attacker_pool: Iterable[int] | None = None,
    victim_pool: Iterable[int] | None = None,
) -> list[tuple[int, int]]:
    """Sample ``count`` (attacker, victim) pairs; a pool left out is
    :func:`attack_pools`'."""
    attackers, victims = attack_pools(world.topology)
    if attacker_pool is not None:
        attackers = list(attacker_pool)
    if victim_pool is not None:
        victims = list(victim_pool)
    if not attackers or len(victims) < 2:
        raise ExperimentError("attack-pair pools are too small")
    return sample_pairs(attackers, victims, count, rng)
