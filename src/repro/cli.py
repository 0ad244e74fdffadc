"""``repro-aspp`` — command-line driver for the experiment harnesses.

Usage::

    repro-aspp list
    repro-aspp run fig13 --seed 11 --scale 0.5
    repro-aspp world --seed 7 --save topology.caida
    repro-aspp campaign --pairs 50 --padding 3 --monitors 150
    repro-aspp query fig09 --store results-store

The subcommands are one table, :data:`COMMANDS`: name → help text, a
``configure(parser)`` that declares the flags and a ``handle(args,
parser, metrics)`` that does the work.  ``main`` builds only the
subparser the command line names (all of them for ``--help``, no
command or an unknown one) and dispatches by lookup.  Flags come in
groups, each declared once (``<subcommand> --help`` has the detail):

* **world** — ``--seed``/``--scale`` wherever a topology is built (a
  scale that is not a finite number above 0 is a usage error);
  ``campaign``, ``grid`` and ``secpol-sweep`` also take ``--topology``
  to load or size one instead (a missing file or a size the generator
  refuses is a usage error).
* **experiment overrides** — ``run <id>``, ``query <id>`` and ``all``
  replace any field the experiment's config dataclass has (``--seed``,
  ``--scale``, ``--pairs``, ``--instances``, ``--workers``); ``query``
  serves the figure from ``--store``, computing only what is missing.
* **run** — ``campaign``, ``grid`` and ``secpol-sweep`` run a batch of
  independent cells; ``--workers`` and the run's store (``--store
  DIR``) become one :class:`~repro.runner.RunConfig`.  Neither changes
  a row, and a bad one is a usage error before any topology is built.
  A cell that fails fails the run; rerunning it on the same store
  executes only the unsettled cells.
* **metrics** — every subcommand but ``list``, ``world`` and ``store``
  accepts ``--metrics {off,summary,jsonl}`` and ``--metrics-out PATH``;
  ``main`` builds the registry and emits it after the results, whose
  text it never changes.
* **stream** — ``detect-stream`` and ``mitigate-stream`` share the
  synthesized churn stream and the pipeline it is replayed through.

A size, count or threshold out of its range (``--padding``,
``--pairs``, ``--instances``, a stream's ``--feeds``, an SLO threshold,
a deployment fraction, …) is a usage error before any topology is built: each flag's type
states the range.

A library error is printed as ``repro-aspp: error: <message>`` (exit
status 1), not as a traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import heapq
import math
import os
import sys
from collections.abc import Callable, Sequence
from pathlib import Path
from typing import NamedTuple

from repro.exceptions import ReproError, TopologyError
from repro.experiments import REGISTRY, run_experiment
from repro.telemetry.metrics import RunMetrics

__all__ = ["COMMANDS", "main"]


# -- flag groups, each declared once --------------------------------------


def _world_flags(parser, *, seed=7, scale=1.0) -> None:
    parser.add_argument("--seed", type=int, default=seed)
    parser.add_argument("--scale", type=positive_float, default=scale)


def positive_float(text: str) -> float:
    """The type of a scale flag: a finite number above 0, or a usage
    error before anything is built."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number above 0, got {text}")
    return value


def positive_int(text: str) -> int:
    """The type of a size flag: an integer of at least 1, or a usage
    error before anything is built."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def non_negative_int(text: str) -> int:
    """The type of a count that may be zero (``--updates``,
    ``--reaction``, ``--workers``): an integer of at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def non_negative_float(text: str) -> float:
    """The type of an SLO threshold: a finite number of at least 0."""
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number of at least 0, got {text}")
    return value


def deployment_fractions(text: str) -> tuple[float, ...]:
    """The type of ``--fractions``: comma-separated numbers in [0, 1],
    at least one."""
    try:
        fractions = tuple(float(token) for token in text.split(",") if token.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be comma-separated numbers, got {text!r}"
        ) from None
    if not fractions:
        raise argparse.ArgumentTypeError("must name at least one fraction")
    for fraction in fractions:
        if not 0.0 <= fraction <= 1.0:  # nan fails too
            raise argparse.ArgumentTypeError(f"must be in [0, 1], got {fraction}")
    return fractions


class TopologySpec(NamedTuple):
    """A parsed ``--topology``: ``("synth", N)`` or ``("caida", path)``."""

    kind: str
    value: int | str


def topology_spec(text: str) -> TopologySpec:
    """The type of ``--topology``: a CAIDA file that exists, or an AS
    count the power-law generator accepts, checked before any world is
    built or loaded."""
    kind, _, value = text.partition(":")
    if kind == "synth" and value:
        from repro.topology.generators import PowerLawConfig

        try:
            num_ases = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"synth:<N> needs an integer AS count, got {text!r}"
            ) from None
        try:
            PowerLawConfig(num_ases=num_ases).validate()
        except TopologyError as exc:
            raise argparse.ArgumentTypeError(f"{text}: {exc}") from None
        return TopologySpec("synth", num_ases)
    if kind != "caida" or not value:
        raise argparse.ArgumentTypeError(
            f"must be 'caida:<path>' or 'synth:<N>', got {text!r}"
        )
    if not Path(value).is_file():
        raise argparse.ArgumentTypeError(f"no such file: {value}")
    return TopologySpec("caida", value)


def _pairs_flag(parser, default=None) -> None:
    parser.add_argument("--pairs", type=positive_int, default=default)


def _attack_flags(parser, *, monitors: int | None = None) -> None:
    """λ and, where the subcommand watches the attack, the monitor count."""
    parser.add_argument(
        "--padding", type=positive_int, default=3,
        help="the victim's origin padding λ",
    )
    if monitors is not None:
        parser.add_argument(
            "--monitors", type=positive_int, default=monitors,
            help="monitor feeds the collector aggregates",
        )


def _strategy_flag(parser, choices, default, help) -> None:
    parser.add_argument("--strategy", choices=choices, default=default, help=help)


def _store_flag(parser, *, required=False) -> None:
    parser.add_argument(
        "--store", type=str, default=None, required=required, metavar="DIR",
        help="content-addressed campaign store (created if missing): whatever "
        "an earlier run already computed — a killed run's settled cells "
        "included — is served from it with zero propagations, and fresh "
        "results stream back in as they settle (results are unaffected)",
    )


def _experiment_flags(parser, *, one: bool = True) -> None:
    """``run``/``query`` (``one`` experiment) and ``all``: overrides, metrics."""
    if one:
        parser.add_argument("experiment", choices=sorted(REGISTRY))
    _world_flags(parser, seed=None, scale=None)
    if one:
        _pairs_flag(parser)
        parser.add_argument("--instances", type=positive_int, default=None)
    _run_flags(parser)
    _metrics_flags(parser)


def _run_flags(parser) -> None:
    parser.add_argument(
        "--workers", type=non_negative_int, default=None,
        help="worker processes, where the work is a batch of independent "
        "cells (results are identical for any worker count)",
    )


def _metrics_flags(parser) -> None:
    parser.add_argument(
        "--metrics", choices=("off", "summary", "jsonl"), default="off",
        help="record run telemetry: 'summary' prints a table, 'jsonl' "
        "emits the event log (results are unaffected)",
    )
    parser.add_argument(
        "--metrics-out", type=str, default=None, metavar="PATH",
        help="write the JSONL event log to PATH (requires --metrics jsonl)",
    )


def _stream_flags(parser, *, updates: int) -> None:
    """The synthesized churn stream, the pipeline it is fed through, metrics."""
    _world_flags(parser, scale=0.5)
    _attack_flags(parser, monitors=100)
    parser.add_argument(
        "--updates", type=non_negative_int, default=updates,
        help="target churn-stream length (attack burst included)",
    )
    parser.add_argument(
        "--prefixes", type=positive_int, default=4,
        help="background prefixes flapping alongside the victim's",
    )
    parser.add_argument(
        "--feeds", type=positive_int, default=4,
        help="collector feeds the stream is split across",
    )
    parser.add_argument(
        "--batch", type=positive_int, default=64,
        help="updates handed to the detector per consume_all call",
    )
    parser.add_argument(
        "--backpressure", choices=("block", "drop", "park"), default="block",
        help="bounded-queue overflow policy",
    )
    parser.add_argument(
        "--capacity", type=positive_int, default=256, help="per-feed queue capacity"
    )
    _metrics_flags(parser)


# -- per-subcommand flags ----------------------------------------------------


def _configure_world(parser) -> None:
    _world_flags(parser)
    parser.add_argument(
        "--save", type=str, default=None, metavar="PATH",
        help="also write the topology in CAIDA serial-1 format",
    )


def _batch_flags(parser, *, monitors: int | None = None) -> None:
    _world_flags(parser)
    parser.add_argument(
        "--topology", type=topology_spec, default=None, metavar="SPEC",
        help="replace the generated world: 'caida:<path>' loads a CAIDA "
        "as-rel2 snapshot (.txt or .bz2), 'synth:<N>' generates an N-AS "
        "power-law topology from --seed (overrides --scale)",
    )
    _attack_flags(parser, monitors=monitors)
    _run_flags(parser)
    _store_flag(parser)
    _metrics_flags(parser)


def _configure_campaign(parser) -> None:
    _pairs_flag(parser, 50)
    parser.add_argument(
        "--placement", choices=("top-degree", "greedy-cover"), default="top-degree"
    )
    _batch_flags(parser, monitors=150)


def _configure_grid(parser) -> None:
    parser.add_argument(
        "--attackers", type=positive_int, default=None, metavar="N",
        help="limit the attacker pool to the N largest transit ASes by "
        "customer cone (default: every transit AS)",
    )
    parser.add_argument(
        "--victims", type=positive_int, default=None, metavar="N",
        help="limit the victim pool to the N largest ASes by customer "
        "cone (default: every AS)",
    )
    _batch_flags(parser)


def _configure_secpol_sweep(parser) -> None:
    parser.add_argument(
        "--policy", choices=("none", "rov", "aspa", "prependguard"),
        default="prependguard",
        help="security policy to deploy ('none' = undefended control)",
    )
    _strategy_flag(
        parser,
        ("random", "top-degree-first", "tier1-only", "victim-cone"),
        "top-degree-first",
        "which ASes adopt the policy first",
    )
    parser.add_argument(
        "--fractions", type=deployment_fractions, default="0.0,0.1,0.2,0.4,0.6,0.8,1.0",
        metavar="F1,F2,...",
        help="comma-separated deployment fractions in [0, 1]",
    )
    parser.add_argument(
        "--victim", type=int, default=None,
        help="victim ASN (default: the top Tier-1 by customer cone)",
    )
    parser.add_argument(
        "--attacker", type=int, default=None,
        help="attacker ASN (default: the top Tier-2 transit AS)",
    )
    parser.add_argument(
        "--valley-free", action="store_true",
        help="restrict the attacker to valley-free exports (default is "
        "the paper's leaking attacker, which path checks can see)",
    )
    _batch_flags(parser)


def _configure_detect_stream(parser) -> None:
    _stream_flags(parser, updates=20000)
    parser.add_argument(
        "--no-attack", action="store_true",
        help="background churn only (no interception burst)",
    )


def _configure_mitigate_stream(parser) -> None:
    _stream_flags(parser, updates=8000)
    _strategy_flag(
        parser,
        ("none", "stepdown", "reset"),
        "stepdown",
        "victim countermeasure once the attack is detected: 'stepdown' "
        "lowers λ gradually, 'reset' jumps to the floor, 'none' is the "
        "no-reaction control arm",
    )
    parser.add_argument(
        "--step", type=positive_int, default=1, help="λ decrement per stepdown reaction"
    )
    parser.add_argument(
        "--floor", type=positive_int, default=1,
        help="the λ the victim will not go below (1 = no prepending left)",
    )
    parser.add_argument(
        "--reaction", type=non_negative_int, default=64, metavar="UPDATES",
        help="modelled operator/automation latency between first alarm "
        "and re-announce (time-to-mitigate)",
    )
    parser.add_argument(
        "--fault-rate", type=float, default=0.0, metavar="RATE",
        help="inject a seeded feed-fault plan: each feed draws faults "
        "(outages, duplicate bursts, corruption, gap storms) with this "
        "probability (0 = fault-free)",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=None,
        help="seed for the fault plan (default: --seed; needs --fault-rate)",
    )
    parser.add_argument(
        "--unrecoverable", action="store_true",
        help="make injected faults unrecoverable: outage updates are lost "
        "instead of replayed on reconnect (graceful-degradation mode; "
        "needs --fault-rate)",
    )
    parser.add_argument(
        "--slo-alarm-latency", type=non_negative_float, default=2000.0, metavar="UPDATES",
        help="alarm-latency SLO threshold (p99, post-merge updates)",
    )
    parser.add_argument(
        "--slo-feed-staleness", type=non_negative_float, default=512.0, metavar="UPDATES",
        help="feed-staleness SLO threshold (p99 replay-buffer depth)",
    )
    parser.add_argument(
        "--slo-recovery-rounds", type=non_negative_float, default=12.0, metavar="ROUNDS",
        help="recovery-deadline SLO threshold (max re-convergence rounds)",
    )


def _configure_query(parser) -> None:
    _experiment_flags(parser)
    _store_flag(parser, required=True)


def _configure_store(parser) -> None:
    _store_flag(parser, required=True)
    parser.add_argument(
        "--compact", action="store_true",
        help="rewrite the record log to one record per fingerprint "
        "(drops duplicate, corrupt and stale lines); run without concurrent "
        "writers",
    )


# -- what the handlers share -------------------------------------------------


def _check_writable(parser: argparse.ArgumentParser, flag: str, path: str) -> None:
    """A usage error unless ``path`` can be created: it is not a
    directory, and its parent is a writable directory."""
    target = Path(path)
    if target.is_dir():
        problem = "it is a directory"
    elif not target.parent.is_dir():
        problem = f"no directory {target.parent}"
    elif not os.access(target.parent, os.W_OK):
        problem = f"directory {target.parent} is not writable"
    else:
        return
    parser.error(f"argument {flag}: cannot write {path}: {problem}")


def _make_metrics(args, parser: argparse.ArgumentParser) -> RunMetrics | None:
    """Validate the metrics flags and build the registry — ``None``
    when metrics are off or the subcommand has no metrics flags."""
    mode = getattr(args, "metrics", "off")
    out = getattr(args, "metrics_out", None)
    if out is not None and mode != "jsonl":
        parser.error("--metrics-out requires --metrics jsonl")
    if out is not None:
        _check_writable(parser, "--metrics-out", out)
    return RunMetrics() if mode != "off" else None


def _emit_metrics(args, metrics: RunMetrics | None) -> None:
    if metrics is None:
        return
    if args.metrics == "summary":
        print(metrics.summary_table())
        return
    from repro.telemetry.report import to_jsonl, write_jsonl

    if args.metrics_out:
        write_jsonl(metrics, args.metrics_out)
        print(f"metrics written to {args.metrics_out}")
    else:
        print(to_jsonl(metrics))


def _overrides(args) -> dict[str, object]:
    return {
        name: getattr(args, name, None)
        for name in ("seed", "scale", "pairs", "instances", "workers")
    }


def _by_cone(graph):
    """Sort key: largest customer cone first, lowest ASN on ties.  One
    key walks each AS's cone once, however often it is asked."""
    from repro.topology import tiers

    sizes: dict[int, int] = {}

    def key(asn):
        size = sizes.get(asn)
        if size is None:
            size = sizes[asn] = len(tiers.customer_cone(graph, asn))
        return -size, asn

    return key


def _load_world(args):
    """Load or generate the world ``--topology`` names."""
    spec = args.topology
    if spec.kind == "synth":
        from repro.topology.generators import generate_powerlaw_topology

        return generate_powerlaw_topology(spec.value, seed=args.seed)
    from repro.topology.generators import GeneratedTopology
    from repro.topology.serialization import load_asrel2
    from repro.topology.tiers import classify_tiers

    graph = load_asrel2(spec.value)
    tier_of = classify_tiers(graph)
    tiers: tuple[list[int], ...] = ([], [], [], [])  # tier4 takes tiers 4 and deeper
    stubs = []
    transit_degree = graph.transit_degree
    for asn in graph.ases:
        tier = tier_of[asn]
        tiers[tier - 1 if tier < 4 else 3].append(asn)
        if not transit_degree(asn):
            stubs.append(asn)
    return GeneratedTopology(
        graph, tier1=tiers[0], tier2=tiers[1], tier3=tiers[2], tier4=tiers[3], stubs=stubs
    )


@contextlib.contextmanager
def _batch(args, parser, metrics):
    """``campaign``, ``grid`` and ``secpol-sweep``: yields ``(world,
    engine, run)`` with the run's ``--store`` open.  The run flags are
    checked first, so a bad one is a usage error before any topology is
    generated or loaded; the world is the figures' (``build_world``)
    unless ``--topology`` names another."""
    from repro.bgp.engine import PropagationEngine
    from repro.experiments.base import build_world
    from repro.runner import RunConfig
    from repro.store import CampaignStore

    run = RunConfig(workers=args.workers, metrics=metrics)
    with contextlib.ExitStack() as stack:
        try:
            # opening a store creates nothing: the first record does
            if args.store is not None:
                store = CampaignStore(args.store, metrics=metrics)
                run = dataclasses.replace(run, store=stack.enter_context(store))
        except ReproError as exc:
            parser.error(str(exc))
        if args.topology is None:
            built = build_world(seed=args.seed, scale=args.scale, metrics=metrics)
            yield built.topology, built.engine, run
        else:
            world = _load_world(args)
            yield world, PropagationEngine(world.graph, metrics=metrics), run


def _churn_stream(args, *, attack: bool):
    from repro.measurement.churn import ChurnConfig, synthesize_churn_stream

    return synthesize_churn_stream(
        ChurnConfig(
            seed=args.seed,
            scale=args.scale,
            monitors=args.monitors,
            prefixes=args.prefixes,
            updates=args.updates,
            attack=attack,
            padding=args.padding,
        )
    )


# -- handlers ------------------------------------------------------------------


def _list(args, parser, metrics) -> int:
    print(*REGISTRY, sep="\n")
    return 0


def _run(args, parser, metrics) -> int:
    """``run`` one experiment, or ``all`` of them into one registry."""
    selected = [args.experiment] if args.command == "run" else list(REGISTRY)
    for experiment_id in selected:
        result = run_experiment(experiment_id, metrics=metrics, **_overrides(args))
        print(result.to_text())
        print()
    return 0


def _world(args, parser, metrics) -> int:
    from repro.experiments.base import build_world
    from repro.topology.serialization import save_caida
    from repro.topology.stats import summarize
    from repro.utils.tables import format_table

    if args.save:
        _check_writable(parser, "--save", args.save)
    world = build_world(seed=args.seed, scale=args.scale)
    print(
        format_table(
            ("property", "value"),
            summarize(world.graph).as_rows(),
            title=f"Generated topology (seed={args.seed}, scale={args.scale})",
        )
    )
    if args.save:
        save_caida(
            world.graph,
            args.save,
            header=f"generated by repro-aspp world --seed {args.seed} --scale {args.scale}",
        )
        print(f"\nwritten to {args.save}")
    return 0


def _campaign(args, parser, metrics) -> int:
    import statistics

    from repro.detection.monitors import top_degree_monitors
    from repro.detection.placement import greedy_cover_monitors
    from repro.experiments.base import attack_pools
    from repro.experiments.sweeps import campaign
    from repro.utils.rand import derive_rng, make_rng

    place = {"top-degree": top_degree_monitors, "greedy-cover": greedy_cover_monitors}
    with _batch(args, parser, metrics) as (world, engine, run):
        fleet = place[args.placement](world.graph, min(args.monitors, len(world.graph)))
        attackers, victims = attack_pools(world)
        results = campaign(
            engine,
            fleet,
            pairs=args.pairs,
            padding=args.padding,
            attackers=attackers,
            victims=victims,
            rng=derive_rng(make_rng(args.seed), "study-campaign"),
            run=run,
        )
    effective = [r for r in results if r.newly_polluted]
    detection_rate = sum(r.detected for r in effective) / len(effective) if effective else 0.0
    print(
        f"campaign: {args.pairs} random attacks, λ={args.padding}, "
        f"{len(fleet)} monitors ({args.placement})"
    )
    print(f"  effective attacks:   {len(effective)}/{args.pairs}")
    print(f"  mean pollution:      {statistics.mean(r.after_fraction for r in results):.1%}")
    print(f"  detection rate:      {detection_rate:.1%}")
    return 0


def _grid(args, parser, metrics) -> int:
    from repro.experiments.base import attack_pools
    from repro.experiments.sweeps import exhaustive_grid

    with _batch(args, parser, metrics) as (world, engine, run):
        by_cone = _by_cone(world.graph)

        def top_by_cone(pool, limit):
            if limit is None or limit >= len(pool):
                return list(pool)
            return heapq.nsmallest(limit, pool, key=by_cone)

        transit, everyone = attack_pools(world)
        attackers = top_by_cone(transit, args.attackers)
        # A transit AS's cone holds a customer and a stub's only itself,
        # so every transit AS outranks every stub: no stub need be ranked
        # while the transit pool alone has more ASes than are asked for.
        if args.victims is not None and args.victims < len(transit):
            everyone = transit
        victims = top_by_cone(everyone, args.victims)
        results = exhaustive_grid(
            engine,
            attackers=attackers,
            victims=victims,
            origin_padding=args.padding,
            run=run,
        )
    effective = [r for r in results if r.after_fraction > r.before_fraction]
    mean_after = sum(r.after_fraction for r in results) / len(results)
    # "engine-mode=full" is frozen: benchmarks/e2e/expected.json pins this
    # header; it goes with the next benchmark-only re-record.
    print(
        f"grid: {len(attackers)} attackers x {len(victims)} victims, "
        f"λ={args.padding}, engine-mode=full"
    )
    print(f"  cells:               {len(results)}")
    print(f"  effective attacks:   {len(effective)}/{len(results)}")
    print(f"  mean pollution:      {mean_after:.1%}")
    return 0


def _secpol_sweep(args, parser, metrics) -> int:
    from repro.experiments.sweeps import deployment_sweep
    from repro.topology.tiers import classify_tiers
    from repro.utils.tables import format_table

    with _batch(args, parser, metrics) as (world, engine, run):
        graph = world.graph
        victim, attacker = args.victim, args.attacker
        if victim is None:
            victim = min(world.tier1, key=_by_cone(graph))
        if attacker is None:
            tiers = classify_tiers(graph)
            tier2 = [
                asn
                for asn in graph.ases
                if tiers.get(asn) == 2 and asn != victim and graph.transit_degree(asn)
            ]
            if not tier2:
                parser.error("no Tier-2 transit AS available; pass --attacker")
            attacker = min(tier2, key=_by_cone(graph))
        results = deployment_sweep(
            engine,
            victim=victim,
            attacker=attacker,
            padding=args.padding,
            policy=args.policy,
            strategy=args.strategy,
            fractions=args.fractions,
            seed=args.seed,
            violate_policy=not args.valley_free,
            run=run,
        )
    print(
        format_table(
            ("deployed_frac", "deployed_ases", "before_%", "after_%"),
            [
                (
                    result.fraction,
                    result.deployed_count,
                    round(result.row()[1], 1),
                    round(result.row()[2], 1),
                )
                for result in results
            ],
            title=(
                f"secpol-sweep: {args.policy}/{args.strategy} — "
                f"AS{attacker} intercepts AS{victim} (λ={args.padding})"
            ),
        )
    )
    return 0


def _detect_stream(args, parser, metrics) -> int:
    from repro.detection.detector import ASPPInterceptionDetector
    from repro.detection.pipeline import StreamingPipeline, split_stream
    from repro.detection.streaming import StreamingDetector

    stream = _churn_stream(args, attack=not args.no_attack)
    # Stdout is counts, alarms and the verdict; throughput and latency
    # are wall-clock, so they live in --metrics only: without it the
    # pipeline runs uninstrumented and reads no clock at all.
    detector = StreamingDetector(
        ASPPInterceptionDetector(stream.world.graph), metrics=metrics
    )
    pipeline = StreamingPipeline(
        detector,
        feeds=args.feeds,
        batch=args.batch,
        capacity=args.capacity,
        policy=args.backpressure,
        metrics=metrics,
    )
    for view in stream.baselines.values():
        pipeline.prime(view)
    streams = split_stream(stream.messages, args.feeds)
    timer = (
        metrics.time("detection.pipeline.run_seconds")
        if metrics is not None
        else contextlib.nullcontext()
    )
    with timer:
        alarms = pipeline.run(streams)

    print(
        f"detect-stream: {stream.updates} updates, {args.feeds} feeds, "
        f"batch={args.batch}, backpressure={args.backpressure}, "
        f"{len(stream.collector.monitors)} monitors"
    )
    print(
        f"  backpressure:        blocked={pipeline.blocked} "
        f"dropped={pipeline.dropped} parked={pipeline.parked}"
    )
    print(f"  alarms:              {len(alarms)}")
    if not args.no_attack:
        victim_prefix = stream.attack_result.baseline.prefix
        detected = any(a.prefix == victim_prefix for a in alarms)
        verdict = "DETECTED" if detected else "missed"
        print(
            f"  attack:              AS{stream.attacker} intercepting "
            f"AS{stream.victim} ({victim_prefix}) — {verdict}"
        )
    return 0


def _mitigate_stream(args, parser, metrics) -> int:
    import json

    from repro.detection.pipeline.faults import FeedFaultPlan
    from repro.mitigation.controller import MitigationPolicy, run_closed_loop
    from repro.telemetry.slo import SLORegistry, default_pipeline_slos

    if not 0.0 <= args.fault_rate <= 1.0:
        parser.error(f"--fault-rate must be in [0, 1], got {args.fault_rate}")
    if args.fault_rate <= 0.0:
        # No plan is drawn, so these flags would do nothing.
        if args.unrecoverable:
            parser.error("argument --unrecoverable: needs --fault-rate above 0")
        if args.fault_seed is not None:
            parser.error("argument --fault-seed: needs --fault-rate above 0")
    stream = _churn_stream(args, attack=True)
    plan = None
    if args.fault_rate > 0.0:
        plan = FeedFaultPlan.seeded(
            args.feeds,
            seed=args.fault_seed if args.fault_seed is not None else args.seed,
            rate=args.fault_rate,
            recoverable=not args.unrecoverable,
        )
    slos = SLORegistry(
        default_pipeline_slos(
            alarm_latency_updates=args.slo_alarm_latency,
            feed_staleness_updates=args.slo_feed_staleness,
            recovery_rounds=args.slo_recovery_rounds,
        ),
        metrics=metrics,
    )
    policy = MitigationPolicy(
        strategy=args.strategy,
        step=args.step,
        floor=args.floor,
        reaction_updates=args.reaction,
    )
    report = run_closed_loop(
        stream,
        policy=policy,
        feeds=args.feeds,
        backpressure=args.backpressure,
        batch=args.batch,
        capacity=args.capacity,
        fault_plan=plan,
        metrics=metrics,
        slos=slos,
    )
    step = report.step
    print(
        f"mitigate-stream: AS{step.attacker} intercepting AS{step.victim} "
        f"({step.prefix}), λ={step.padding_before}, strategy={step.strategy}, "
        f"{args.feeds} feeds"
        + (f", fault-rate={args.fault_rate}" if plan is not None else "")
    )
    if step.detected:
        print(
            f"  detected:            yes "
            f"(first alarm {step.time_to_detect} updates after attack start)"
        )
    else:
        print("  detected:            NO — the loop never reacted")
    print(f"  time_to_mitigate:    {step.time_to_mitigate} updates (modelled)")
    print(
        f"  time_to_recover:     {step.time_to_recover} rounds "
        f"({step.touched_ases} ASes touched)"
    )
    print(f"  padding:             {step.padding_before} -> {step.padding_after}")
    print(
        f"  pollution:           organic {step.pollution_baseline:.1%} -> "
        f"attack {step.pollution_attack:.1%} -> "
        f"residual {step.pollution_residual:.1%}"
    )
    print(f"  recovered:           {'yes' if step.recovered else 'no'}")
    print(
        f"  alarms:              {step.alarms} attack, "
        f"{step.self_alarms} self (suppressed)"
    )
    print(
        f"  pipeline:            processed={report.processed} "
        f"duplicates={report.duplicates} dead_lettered={report.dead_lettered} "
        f"lost={report.lost} coverage={report.coverage:.0%}"
    )
    print()
    print(slos.summary_table())
    for event in report.breaches:
        print(json.dumps(event, sort_keys=True))
    return 0


def _query(args, parser, metrics) -> int:
    from repro.store import CampaignStore, query_experiment

    with CampaignStore(args.store, metrics=metrics) as store:
        outcome = query_experiment(
            store, args.experiment, metrics=metrics, **_overrides(args)
        )
        print(outcome.result.to_text())
        print()
        if outcome.from_store:
            print(
                f"served from store (fingerprint {outcome.fingerprint[:16]}…, "
                "zero propagations)"
            )
        else:
            print(
                f"computed and stored (fingerprint {outcome.fingerprint[:16]}…); "
                "an identical query is now a pure store hit"
            )
        stats = store.stats()
        print(
            f"store: {stats['records']} records, {stats['bytes']} bytes "
            f"({stats['path']})"
        )
    return 0


def _store_admin(args, parser, metrics) -> int:
    from repro.store import CampaignStore

    with CampaignStore(args.store) as store:
        if args.compact:
            reclaimed = store.compact()
            print(f"compacted: reclaimed {reclaimed} bytes")
        stats = store.stats()
        print(f"store: {stats['path']}")
        print(f"  records:             {stats['records']}")
        print(f"  bytes:               {stats['bytes']}")
        for kind, count in stats["kinds"].items():
            print(f"  {kind + ':':<20} {count}")
    return 0


# -- the table -------------------------------------------------------------------


class Command(NamedTuple):
    help: str
    #: declares the subcommand's flags on its (fresh) subparser
    configure: Callable[[argparse.ArgumentParser], None]
    #: ``handle(args, parser, metrics)`` returns the exit status; usage errors
    #: go through ``parser.error``; ``main`` emits ``metrics`` afterwards
    handle: Callable[[argparse.Namespace, argparse.ArgumentParser, RunMetrics | None], int]


COMMANDS: dict[str, Command] = {
    "list": Command("list registered experiments", lambda parser: None, _list),
    "run": Command("run one experiment", _experiment_flags, _run),
    "all": Command(
        "run every experiment", lambda parser: _experiment_flags(parser, one=False), _run
    ),
    "world": Command(
        "generate a topology and print its summary", _configure_world, _world
    ),
    "campaign": Command(
        "run a quick attack/detection campaign", _configure_campaign, _campaign
    ),
    "grid": Command(
        "run the exhaustive attacker × victim interception grid at a fixed λ",
        _configure_grid,
        _grid,
    ),
    "secpol-sweep": Command(
        "sweep a security policy's deployment fraction against one "
        "interception instance",
        _configure_secpol_sweep,
        _secpol_sweep,
    ),
    "detect-stream": Command(
        "run the streaming detection pipeline over a synthesized churn "
        "stream and report its alarms (throughput and latency are in --metrics)",
        _configure_detect_stream,
        _detect_stream,
    ),
    "mitigate-stream": Command(
        "run the closed detect → mitigate → re-converge loop over a "
        "synthesized churn stream, optionally under injected feed faults",
        _configure_mitigate_stream,
        _mitigate_stream,
    ),
    "query": Command(
        "serve an experiment from a campaign store, computing only what is missing",
        _configure_query,
        _query,
    ),
    "store": Command(
        "inspect and maintain a campaign store", _configure_store, _store_admin
    ),
}


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = argparse.ArgumentParser(
        prog="repro-aspp",
        description=(
            "Reproduction harness for 'Studying Impacts of Prefix "
            "Interception Attack by Exploring BGP AS-PATH Prepending' "
            "(ICDCS 2012)"
        ),
    )
    subparsers = parser.add_subparsers(
        dest="command", required=True, metavar="{" + ",".join(COMMANDS) + "}"
    )
    # Declaring all eleven subparsers costs several times a warm `query`:
    # build only the one named.  Anything else (--help, no command, an
    # unknown one) gets them all and exits in parse_args.
    invoked = argv[0] if argv and argv[0] in COMMANDS else None
    built = {}
    for name in (invoked,) if invoked else COMMANDS:
        built[name] = subparsers.add_parser(name, help=COMMANDS[name].help)
        COMMANDS[name].configure(built[name])
    args = parser.parse_args(argv)
    metrics = _make_metrics(args, built[args.command])
    try:
        status = COMMANDS[args.command].handle(args, built[args.command], metrics)
        _emit_metrics(args, metrics)
    except (ReproError, OSError) as exc:
        print(f"repro-aspp: error: {exc}", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
