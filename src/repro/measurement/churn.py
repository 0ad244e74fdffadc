"""RouteViews-scale churn synthesis for the streaming pipeline.

:func:`repro.bgp.updates.simulate_update_stream` re-propagates the
whole topology for every event — right for the Figure 5/6
characterisation, hopeless for generating the hundreds of thousands of
updates a throughput benchmark needs.  This module trades generality
for rate: it converges each prefix's baseline and a small pool of
link-failure scenarios **once** — all on the world's engine and its
compiled topology, a failed link being one ``failed_links=`` pair (so
each scenario is a column of the wave kernel) — then replays
failure/recovery flaps drawn from that pool, so stream length is
decoupled from engine work.

The synthesized mix mirrors what public collectors actually see:

* several background prefixes flapping between primary and backup
  routes (operators pad backup announcements more heavily — set
  ``backup_padding`` to reproduce the paper's §VI-A observation and
  force padding *decreases* on every recovery leg, the detector's
  expensive path);
* optionally one ASPP interception attack burst
  (:func:`~repro.detection.streaming.attack_update_stream`) spliced in
  a third of the way through the stream.

Every message carries a dense global sequence stamp, so the stream can
be split across feeds (:func:`repro.detection.pipeline.split_stream`)
and deterministically re-merged.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.attack.interception import InterceptionResult, simulate_interception
from repro.bgp.collectors import MonitorView, RouteCollector
from repro.bgp.prepending import PrependingPolicy
from repro.bgp.updates import SequencedUpdate, StampedStream, UpdateMessage, stamp
from repro.detection.monitors import top_degree_monitors
from repro.detection.streaming import attack_update_stream
from repro.exceptions import SimulationError
from repro.experiments.base import ExperimentWorld, build_world
from repro.utils.rand import derive_rng, make_rng

__all__ = ["ChurnConfig", "SynthesizedStream", "synthesize_churn_stream"]


@dataclass(frozen=True)
class ChurnConfig:
    """Knobs of the churn synthesizer (see EXPERIMENTS.md)."""

    seed: int = 7
    scale: float = 1.0
    #: monitor feed size (top-degree placement, the paper's strategy)
    monitors: int = 150
    #: background prefixes churning alongside the victim's
    prefixes: int = 4
    #: distinct precomputed link-failure scenarios per prefix
    scenarios: int = 5
    #: target stream length (the stream may overshoot by < one flap)
    updates: int = 5000
    #: uniform origin padding on the background prefixes' primary routes
    background_padding: int = 2
    #: padding on backup (failure) routes; None = same as primary, so
    #: background churn never decreases padding and stays alarm-free
    backup_padding: int | None = None
    #: splice one interception attack burst into the stream
    attack: bool = True
    #: the attack victim's origin padding λ
    padding: int = 3


@dataclass
class SynthesizedStream:
    """A sequenced update stream plus everything needed to consume it."""

    config: ChurnConfig
    world: ExperimentWorld
    collector: RouteCollector
    #: the stream: one message list, stamped by position (see
    #: :class:`~repro.bgp.updates.StampedStream`)
    messages: StampedStream
    #: prefix -> baseline view, for priming detectors before replay
    baselines: dict[str, MonitorView]
    victim: int | None = None
    attacker: int | None = None
    attack_result: InterceptionResult | None = field(default=None, repr=False)
    #: sequence stamp of the first attack-burst message (None when the
    #: stream carries no attack) — the closed loop's t=0 for
    #: time-to-detect
    attack_start_seq: int | None = None
    #: sequence stamp one past the last attack-burst message
    attack_end_seq: int | None = None

    @property
    def updates(self) -> int:
        return len(self.messages)

    def plain_messages(self) -> list[UpdateMessage]:
        """The stream without sequence stamps (the serial-oracle input)."""
        return self.messages.plain()

    def feed_streams(self, feeds: int) -> list[Sequence[SequencedUpdate]]:
        """The stream split round-robin across ``feeds`` feeds (the
        shape :meth:`StreamingPipeline.run`'s default order re-merges)."""
        from repro.detection.pipeline.ingest import split_stream

        return split_stream(self.messages, feeds)


def _background_prefix(index: int) -> str:
    return f"10.{index // 256}.{index % 256}.0/24"


def _flap_messages(baseline: MonitorView, degraded: MonitorView) -> list[UpdateMessage]:
    """One failure/recovery flap: each changed monitor announces the
    degraded route, then re-announces its baseline (both directions of
    the flap land in real update files)."""
    return [
        message
        for flap in zip(
            degraded.updates_since(baseline), baseline.updates_since(degraded)
        )
        for message in flap
    ]


def synthesize_churn_stream(
    config: ChurnConfig,
    *,
    world: ExperimentWorld | None = None,
) -> SynthesizedStream:
    """Synthesize a sequenced update stream per ``config``.

    Deterministic: the same config (and world) always produces the
    identical message list, sequence stamps included.
    """
    if config.updates < 0:
        raise SimulationError("updates must be non-negative")
    if config.prefixes < 1:
        raise SimulationError("the synthesizer needs at least one background prefix")
    if config.scenarios < 1:
        raise SimulationError("scenarios must be >= 1")
    if world is None:
        world = build_world(seed=config.seed, scale=config.scale)
    graph = world.graph
    rng = derive_rng(make_rng(config.seed), "churn")
    monitor_count = min(config.monitors, len(graph))
    collector = RouteCollector(graph, top_degree_monitors(graph, monitor_count))
    engine = world.engine

    attacker: int | None = None
    victim: int | None = None
    attack_result: InterceptionResult | None = None
    attack_burst: list[UpdateMessage] = []
    baselines: dict[str, MonitorView] = {}
    if config.attack:
        # Sample (attacker, victim) pairs until the interception actually
        # changes a monitored route — an attack nobody observes would make
        # the stream's "detected?" question vacuous.  Bounded and seeded,
        # so the chosen pair is a pure function of the config.
        transit = sorted(world.topology.transit_ases)
        all_ases = sorted(graph.ases)
        for _ in range(32):
            attacker = rng.choice(transit)
            victim = rng.choice([a for a in all_ases if a != attacker])
            attack_result = simulate_interception(
                engine,
                victim=victim,
                attacker=attacker,
                origin_padding=config.padding,
            )
            attack_burst = attack_update_stream(attack_result, collector)
            if attack_burst:
                break
        else:
            raise SimulationError(
                "no sampled interception changed any monitored route; "
                "use a larger scale or more monitors"
            )
        baselines[attack_result.baseline.prefix] = attack_result.monitor_views(
            collector
        )[0]

    # Background origins: transit-ish ASes with at least two neighbours,
    # so one failed link leaves routes to flap back to.
    candidates = sorted(
        asn
        for asn in graph.ases
        if len(graph.neighbors_of(asn)) >= 2 and asn not in (attacker, victim)
    )
    if len(candidates) < config.prefixes:
        raise SimulationError(
            f"topology offers {len(candidates)} churn origins, "
            f"config wants {config.prefixes}"
        )
    origins = rng.sample(candidates, config.prefixes)

    backup = (
        config.background_padding
        if config.backup_padding is None
        else config.backup_padding
    )
    #: (prefix, flap message list) pools, one pool entry per scenario
    pools: list[list[list[UpdateMessage]]] = []
    for index, origin in enumerate(origins):
        prefix = _background_prefix(index)
        primary = PrependingPolicy.uniform_origin(origin, config.background_padding)
        baseline = engine.propagate(origin, prefix=prefix, prepending=primary)
        baseline_view = collector.snapshot(baseline)
        baselines[prefix] = baseline_view
        neighbours = sorted(graph.neighbors_of(origin))
        failures = (
            rng.sample(neighbours, config.scenarios)
            if len(neighbours) >= config.scenarios
            else list(neighbours)
        )
        secondary = PrependingPolicy.uniform_origin(origin, backup)
        flaps: list[list[UpdateMessage]] = []
        for failed in failures:
            degraded = engine.propagate(
                origin,
                prefix=prefix,
                prepending=secondary,
                failed_links=((origin, failed),),
            )
            messages = _flap_messages(baseline_view, collector.snapshot(degraded))
            if messages:
                flaps.append(messages)
        if flaps:
            pools.append(flaps)
    if not pools and config.updates > len(attack_burst):
        raise SimulationError(
            "no failure scenario changed any monitor route; "
            "use a larger scale or fewer monitors"
        )

    target_background = max(0, config.updates - len(attack_burst))
    splice_at = target_background // 3 if config.attack else None
    plain: list[UpdateMessage] = []
    background = 0
    spliced = not config.attack
    attack_start: int | None = None
    attack_end: int | None = None
    while background < target_background and pools:
        if not spliced and splice_at is not None and background >= splice_at:
            attack_start = len(plain)
            plain.extend(attack_burst)
            attack_end = len(plain)
            spliced = True
        pool = pools[rng.randrange(len(pools))]
        flap = pool[rng.randrange(len(pool))]
        plain.extend(flap)
        background += len(flap)
    if not spliced:
        attack_start = len(plain)
        plain.extend(attack_burst)
        attack_end = len(plain)

    return SynthesizedStream(
        config=config,
        world=world,
        collector=collector,
        messages=stamp(plain),
        baselines=baselines,
        victim=victim,
        attacker=attacker,
        attack_result=attack_result,
        attack_start_seq=attack_start if config.attack else None,
        attack_end_seq=attack_end if config.attack else None,
    )
