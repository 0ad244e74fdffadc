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

* **world** — ``--seed``/``--scale`` wherever a topology is built;
  ``campaign``, ``grid`` and ``secpol-sweep`` also take ``--topology``
  to load or size one instead.
* **experiment overrides** — ``run <id>``, ``query <id>`` and ``all``
  replace any field the experiment's config dataclass has (``--seed``,
  ``--scale``, ``--pairs``, ``--instances``, ``--workers``); ``query``
  serves the figure from ``--store``, computing only what is missing.
* **run** — ``campaign``, ``grid`` and ``secpol-sweep`` run a batch of
  independent cells; ``--workers`` and the run's one store (``--store
  DIR`` or ``--resume FILE``, not both) become one
  :class:`~repro.runner.RunConfig`.  None of them changes a row, and a
  bad value is a usage error before any topology is built, as is an
  attack size (``--padding``, ``--pairs``, ``--monitors``,
  ``--attackers``, ``--victims``) below 1.  A cell that fails fails the
  run; rerunning it on the same store executes only the unsettled cells.
* **metrics** — every subcommand but ``list``, ``world`` and ``store``
  accepts ``--metrics {off,summary,jsonl}`` and ``--metrics-out PATH``;
  ``main`` builds the registry and emits it after the results, whose
  text it never changes.
* **stream** — ``detect-stream`` and ``mitigate-stream`` share the
  synthesized churn stream and the pipeline it is replayed through.

A library error is printed as ``repro-aspp: error: <message>`` (exit
status 1), not as a traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import sys
from collections.abc import Callable, Sequence
from pathlib import Path
from typing import NamedTuple

from repro.exceptions import ReproError
from repro.experiments import REGISTRY, run_experiment
from repro.telemetry.metrics import RunMetrics

__all__ = ["COMMANDS", "main"]


# -- flag groups, each declared once --------------------------------------


def _world_flags(parser, *, seed=7, scale=1.0) -> None:
    parser.add_argument("--seed", type=int, default=seed)
    parser.add_argument("--scale", type=float, default=scale)


def positive_int(text: str) -> int:
    """The type of a size flag: an integer of at least 1, or a usage
    error before anything is built."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


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
        "an earlier run already computed is served from it — zero propagations "
        "— and fresh results stream back in (results are unaffected)",
    )


def _experiment_flags(parser, *, one: bool = True) -> None:
    """``run``/``query`` (``one`` experiment) and ``all``: overrides, metrics."""
    if one:
        parser.add_argument("experiment", choices=sorted(REGISTRY))
    _world_flags(parser, seed=None, scale=None)
    if one:
        _pairs_flag(parser)
        parser.add_argument("--instances", type=int, default=None)
    _run_flags(parser)
    _metrics_flags(parser)


def _run_flags(parser, unit: str | None = None) -> None:
    """``--workers``, plus — for a batch of ``unit`` s — the rest of
    what :func:`_batch` turns into one ``RunConfig``."""
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes, where the work is a batch of independent "
        "cells (results are identical for any worker count)",
    )
    if unit is None:
        return
    # a run has one store: a --resume file or a --store directory
    persistence = parser.add_mutually_exclusive_group()
    persistence.add_argument(
        "--resume", type=str, default=None, metavar="PATH",
        help=f"single-file store: each finished {unit} appends to PATH as "
        "it lands, and a rerun with the same PATH replays it — a killed run "
        "resumes instead of restarting.  Every input is part of the task "
        "fingerprint, so a file from a different setup replays nothing",
    )
    _store_flag(persistence)


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
        "--updates", type=int, default=updates,
        help="target churn-stream length (attack burst included)",
    )
    parser.add_argument(
        "--prefixes", type=int, default=4,
        help="background prefixes flapping alongside the victim's",
    )
    parser.add_argument(
        "--feeds", type=int, default=4,
        help="collector feeds the stream is split across",
    )
    parser.add_argument(
        "--batch", type=int, default=64,
        help="updates handed to the detector per consume_all call",
    )
    parser.add_argument(
        "--backpressure", choices=("block", "drop", "park"), default="block",
        help="bounded-queue overflow policy",
    )
    parser.add_argument(
        "--capacity", type=int, default=256, help="per-feed queue capacity"
    )
    _metrics_flags(parser)


# -- per-subcommand flags ----------------------------------------------------


def _configure_world(parser) -> None:
    _world_flags(parser)
    parser.add_argument(
        "--save", type=str, default=None, metavar="PATH",
        help="also write the topology in CAIDA serial-1 format",
    )


def _batch_flags(parser, unit: str, *, monitors: int | None = None) -> None:
    _world_flags(parser)
    parser.add_argument(
        "--topology", type=str, default=None, metavar="SPEC",
        help="replace the generated world: 'caida:<path>' loads a CAIDA "
        "as-rel2 snapshot (.txt or .bz2), 'synth:<N>' generates an N-AS "
        "power-law topology from --seed (overrides --scale)",
    )
    _attack_flags(parser, monitors=monitors)
    _run_flags(parser, unit)
    _metrics_flags(parser)


def _configure_campaign(parser) -> None:
    _pairs_flag(parser, 50)
    parser.add_argument(
        "--placement", choices=("top-degree", "greedy-cover"), default="top-degree"
    )
    _batch_flags(parser, "instance", monitors=150)


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
    _batch_flags(parser, "cell")


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
        "--fractions", type=str, default="0.0,0.1,0.2,0.4,0.6,0.8,1.0",
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
    _batch_flags(parser, "point")


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
        "--step", type=int, default=1, help="λ decrement per stepdown reaction"
    )
    parser.add_argument(
        "--floor", type=int, default=1,
        help="the λ the victim will not go below (1 = no prepending left)",
    )
    parser.add_argument(
        "--reaction", type=int, default=64, metavar="UPDATES",
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
        help="seed for the fault plan (default: --seed)",
    )
    parser.add_argument(
        "--unrecoverable", action="store_true",
        help="make injected faults unrecoverable: outage updates are lost "
        "instead of replayed on reconnect (graceful-degradation mode)",
    )
    parser.add_argument(
        "--slo-alarm-latency", type=float, default=2000.0, metavar="UPDATES",
        help="alarm-latency SLO threshold (p99, post-merge updates)",
    )
    parser.add_argument(
        "--slo-feed-staleness", type=float, default=512.0, metavar="UPDATES",
        help="feed-staleness SLO threshold (p99 replay-buffer depth)",
    )
    parser.add_argument(
        "--slo-recovery-rounds", type=float, default=12.0, metavar="ROUNDS",
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
        "(drops duplicate/corrupt lines); run without concurrent writers",
    )
    parser.add_argument(
        "--import-journal", type=str, action="append", default=[],
        metavar="PATH", dest="import_journals",
        help="copy the records of a --resume file (or a legacy checkpoint "
        "journal) into the store (repeatable); the file is left untouched",
    )


# -- what the handlers share -------------------------------------------------


def _make_metrics(args, parser: argparse.ArgumentParser) -> RunMetrics | None:
    """Validate the metrics flags and build the registry — ``None``
    when metrics are off or the subcommand has no metrics flags."""
    mode = getattr(args, "metrics", "off")
    if getattr(args, "metrics_out", None) is not None and mode != "jsonl":
        parser.error("--metrics-out requires --metrics jsonl")
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


def _load_world(args, parser: argparse.ArgumentParser):
    """Build the world named by ``--topology`` (``None`` = generated)."""
    spec = args.topology
    if spec is None:
        return None
    kind, _, value = spec.partition(":")
    if kind == "synth" and value:
        from repro.topology.generators import generate_powerlaw_topology

        try:
            num_ases = int(value)
        except ValueError:
            parser.error(f"--topology synth:<N> needs an integer AS count: {spec!r}")
        return generate_powerlaw_topology(num_ases, seed=args.seed)
    if kind != "caida" or not value:
        parser.error(f"--topology must be 'caida:<path>' or 'synth:<N>', got {spec!r}")
    if not Path(value).is_file():
        parser.error(f"--topology: no such file: {value}")
    from repro.topology.generators import GeneratedTopology
    from repro.topology.serialization import load_asrel2
    from repro.topology.tiers import classify_tiers

    graph = load_asrel2(value)
    tiers = classify_tiers(graph)
    return GeneratedTopology(
        graph,
        tier1=sorted(a for a, t in tiers.items() if t == 1),
        tier2=sorted(a for a, t in tiers.items() if t == 2),
        tier3=sorted(a for a, t in tiers.items() if t == 3),
        tier4=sorted(a for a, t in tiers.items() if t >= 4),
        stubs=sorted(a for a in graph.ases if not graph.customers_of(a)),
    )


@contextlib.contextmanager
def _batch(args, parser, metrics, monitors=1, placement="top-degree"):
    """``campaign``, ``grid`` and ``secpol-sweep``: yields ``(study, run)``
    with the run's one store (``--store`` or ``--resume``) open.  The run
    flags are checked first, so a bad one is a usage error before any
    topology is generated or loaded."""
    from repro.core import InterceptionStudy
    from repro.runner import RunConfig
    from repro.store import CampaignStore

    path = args.store if args.resume is None else args.resume
    with contextlib.ExitStack() as stack:
        try:
            run = RunConfig(workers=args.workers, metrics=metrics)
            # opening a store creates nothing: the first record does
            if path is not None:
                store = CampaignStore(
                    path, single_file=args.resume is not None, metrics=metrics
                )
                run = dataclasses.replace(run, store=stack.enter_context(store))
        except ReproError as exc:
            parser.error(str(exc))
        fleet = dict(monitors=monitors, placement=placement, seed=args.seed)
        world = _load_world(args, parser)
        if world is None:
            study = InterceptionStudy.generate(scale=args.scale, **fleet)
        else:
            study = InterceptionStudy(world, **fleet)
        yield study, run


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
    with _batch(args, parser, metrics, args.monitors, args.placement) as (study, run):
        campaign = study.campaign(pairs=args.pairs, padding=args.padding, run=run)
    print(
        f"campaign: {args.pairs} random attacks, λ={args.padding}, "
        f"{len(study.collector.monitors)} monitors ({args.placement})"
    )
    print(f"  effective attacks:   {len(campaign.effective)}/{args.pairs}")
    print(f"  mean pollution:      {campaign.mean_pollution:.1%}")
    print(f"  detection rate:      {campaign.detection_rate:.1%}")
    return 0


def _grid(args, parser, metrics) -> int:
    with _batch(args, parser, metrics) as (study, run):
        graph = study.world.graph
        by_cone = _by_cone(graph)

        def top_by_cone(pool, limit):
            if limit is None or limit >= len(pool):
                return list(pool)
            return sorted(pool, key=by_cone)[:limit]

        attackers = top_by_cone(study.world.transit_ases, args.attackers)
        victims = top_by_cone(graph.ases, args.victims)
        results = study.exhaustive_grid(
            padding=args.padding,
            attacker_pool=attackers,
            victim_pool=victims,
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
    from repro.topology.tiers import classify_tiers
    from repro.utils.tables import format_table

    try:
        fractions = tuple(
            float(token) for token in args.fractions.split(",") if token.strip()
        )
    except ValueError:
        parser.error(f"--fractions must be comma-separated floats: {args.fractions!r}")
    if not fractions:
        parser.error("--fractions must name at least one fraction")
    with _batch(args, parser, metrics) as (study, run):
        graph = study.world.graph
        victim, attacker = args.victim, args.attacker
        if victim is None:
            victim = min(study.world.tier1, key=_by_cone(graph))
        if attacker is None:
            tiers = classify_tiers(graph)
            tier2 = [
                asn
                for asn in graph.ases
                if tiers.get(asn) == 2 and asn != victim and graph.customers_of(asn)
            ]
            if not tier2:
                parser.error("no Tier-2 transit AS available; pass --attacker")
            attacker = min(tier2, key=_by_cone(graph))
        results = study.deployment_sweep(
            victim=victim,
            attacker=attacker,
            padding=args.padding,
            policy=args.policy,
            strategy=args.strategy,
            fractions=fractions,
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
    import time

    from repro.detection.detector import ASPPInterceptionDetector
    from repro.detection.pipeline import StreamingPipeline, split_stream
    from repro.detection.streaming import StreamingDetector

    stream = _churn_stream(args, attack=not args.no_attack)
    # The p50/p99 summary needs the per-update latency histogram, so the
    # pipeline is always instrumented here (one clock read per update,
    # everything else folded into the registry once per batch);
    # --metrics controls only whether the full registry is emitted.
    registry = metrics if metrics is not None else RunMetrics()
    detector = StreamingDetector(
        ASPPInterceptionDetector(stream.world.graph), metrics=registry
    )
    pipeline = StreamingPipeline(
        detector,
        feeds=args.feeds,
        batch=args.batch,
        capacity=args.capacity,
        policy=args.backpressure,
        metrics=registry,
    )
    for view in stream.baselines.values():
        pipeline.prime(view)
    streams = split_stream(stream.messages, args.feeds)
    start = time.perf_counter()
    alarms = pipeline.run(streams)
    elapsed = time.perf_counter() - start
    throughput = pipeline.processed / elapsed if elapsed > 0 else float("inf")

    latency = registry.histograms.get("detection.pipeline.update_latency_us")
    print(
        f"detect-stream: {stream.updates} updates, {args.feeds} feeds, "
        f"batch={args.batch}, backpressure={args.backpressure}, "
        f"{len(stream.collector.monitors)} monitors"
    )
    print(f"  throughput:          {throughput:,.0f} updates/sec")
    if latency is not None and latency.count:
        print(f"  latency p50:         {latency.quantile(0.5):.1f} us")
        print(f"  latency p99:         {latency.quantile(0.99):.1f} us")
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
    from repro.store import CampaignStore, import_journal

    with CampaignStore(args.store) as store:
        for journal_path in args.import_journals:
            if not Path(journal_path).exists():
                parser.error(f"--import-journal: no journal at {journal_path}")
            imported = import_journal(journal_path, store)
            print(f"imported {imported} new records from {journal_path}")
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
        "stream and report sustained throughput",
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
    except ReproError as exc:
        print(f"repro-aspp: error: {exc}", file=sys.stderr)
        return 1
    _emit_metrics(args, metrics)
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
