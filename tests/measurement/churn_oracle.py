"""The copy-and-recompile churn synthesizer, kept as an oracle.

This is :func:`repro.measurement.churn.synthesize_churn_stream` as it
stood while a link failure was a new graph: every flap scenario copies
the topology, removes the failed edge, builds a fresh
:class:`~repro.bgp.engine.PropagationEngine` (and with it a fresh
:class:`~repro.bgp.compiled.CompiledTopology`) and converges the origin
on that.  The synthesizer now converges each scenario on its one engine
with two import filters standing in for the missing link; this module is
the independent statement of what that must produce — the same
messages in the same order with the same sequence stamps, the same
baselines, victim, attacker and attack window (``test_churn.py``).
"""

from __future__ import annotations

from repro.attack.interception import InterceptionResult, simulate_interception
from repro.bgp.collectors import MonitorView, RouteCollector
from repro.bgp.engine import PropagationEngine
from repro.bgp.prepending import PrependingPolicy
from repro.bgp.updates import SequencedUpdate, UpdateMessage
from repro.detection.monitors import top_degree_monitors
from repro.detection.streaming import attack_update_stream
from repro.exceptions import SimulationError
from repro.experiments.base import ExperimentWorld, build_world
from repro.measurement.churn import (
    ChurnConfig,
    SynthesizedStream,
    _background_prefix,
    _flap_messages,
)
from repro.utils.rand import derive_rng, make_rng


def oracle_churn_stream(
    config: ChurnConfig,
    *,
    world: ExperimentWorld | None = None,
) -> SynthesizedStream:
    """:func:`synthesize_churn_stream`, with every failed link removed
    from a private copy of the graph."""
    if config.updates < 0:
        raise SimulationError("updates must be non-negative")
    if config.prefixes < 1:
        raise SimulationError("the synthesizer needs at least one background prefix")
    if world is None:
        world = build_world(seed=config.seed, scale=config.scale)
    graph = world.graph
    rng = derive_rng(make_rng(config.seed), "churn")
    monitor_count = min(config.monitors, len(graph))
    collector = RouteCollector(graph, top_degree_monitors(graph, monitor_count))
    engine = PropagationEngine(graph)

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
        flaps: list[list[UpdateMessage]] = []
        for failed in failures:
            degraded_graph = graph.copy()
            degraded_graph.remove_edge(origin, failed)
            degraded_engine = PropagationEngine(degraded_graph)
            degraded = degraded_engine.propagate(
                origin,
                prefix=prefix,
                prepending=PrependingPolicy.uniform_origin(origin, backup),
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

    messages = [
        SequencedUpdate(seq=seq, message=message)
        for seq, message in enumerate(plain)
    ]
    return SynthesizedStream(
        config=config,
        world=world,
        collector=collector,
        messages=messages,
        baselines=baselines,
        victim=victim,
        attacker=attacker,
        attack_result=attack_result,
        attack_start_seq=attack_start if config.attack else None,
        attack_end_seq=attack_end if config.attack else None,
    )
