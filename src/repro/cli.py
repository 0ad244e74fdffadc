"""``repro-aspp`` — command-line driver for the experiment harnesses.

Usage::

    repro-aspp list
    repro-aspp run fig07
    repro-aspp run fig13 --seed 11 --scale 0.5
    repro-aspp all --scale 0.3
    repro-aspp world --seed 7 --save topology.caida
    repro-aspp campaign --pairs 50 --padding 3 --monitors 150

``run`` executes one registered experiment with the default
configuration, optionally overriding any config field that exists on
that experiment's dataclass (``--seed``, ``--scale``, ...).  ``all``
runs every experiment in registry order.  ``world`` generates a
topology, prints its summary and optionally writes it in CAIDA
serial-1 format.  ``campaign`` runs a quick attack/detection campaign
through the :class:`~repro.core.InterceptionStudy` façade.

``run``, ``all`` and ``campaign`` accept ``--metrics
{off,summary,jsonl}`` (default ``off``): ``summary`` prints the run's
telemetry as an aligned table after the results, ``jsonl`` emits the
JSONL event log — to stdout, or to ``--metrics-out PATH`` (which
requires ``--metrics jsonl``).  Metrics never change the results: the
artefact text is bit-identical with metrics on or off.

``detect-stream`` replays a synthesized churn stream through the
streaming detection pipeline and reports sustained throughput;
``mitigate-stream`` runs the full closed loop on top of it — detect,
re-announce per ``--strategy``, delta re-converge — optionally under a
seeded feed-fault plan (``--fault-rate``), and prints the recovery
clocks, the SLO summary table and any structured breach events.

``campaign``, ``grid`` and ``secpol-sweep`` accept ``--engine-mode
{full,delta}`` (default ``full``) and ``--backend
{compiled,vectorized}``.  Both govern the cells that *build routes*
(campaign pairs, which feed detectors, and deployment points, which
run security policies): ``delta`` re-converges each attack
incrementally from the cached baseline instead of re-flooding the
whole topology — results are bit-identical either way (the delta core
is oracle-tested against the full engine in CI), only the wall-clock
changes.  Impact-only cells — every λ-sweep point and every cell of
``grid``, the exhaustive attacker × victim product at a fixed λ —
report three numbers and are computed by the impact kernel whatever
these flags say (``--metrics summary`` shows ``engine.impact.cells``
and, per reason, any ``engine.impact.fallbacks.*``).
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.experiments import REGISTRY
from repro.telemetry.metrics import RunMetrics

__all__ = ["main"]


def _apply_overrides(config, overrides: dict[str, object]):
    """Replace fields of a frozen config dataclass with CLI overrides."""
    fields = {field.name: field for field in dataclasses.fields(config)}
    applicable = {}
    for name, value in overrides.items():
        if value is None or name not in fields:
            continue
        current = getattr(config, name)
        if isinstance(current, int) and not isinstance(current, bool):
            value = int(value)
        elif isinstance(current, float):
            value = float(value)
        applicable[name] = value
    return dataclasses.replace(config, **applicable) if applicable else config


def _run_one(
    experiment_id: str,
    overrides: dict[str, object],
    metrics: RunMetrics | None = None,
) -> int:
    config_factory, runner = REGISTRY[experiment_id]
    config = _apply_overrides(config_factory(), overrides)
    if metrics is not None and "metrics" in inspect.signature(runner).parameters:
        result = runner(config, metrics=metrics)
    else:
        result = runner(config)
    print(result.to_text())
    print()
    return 0


def _add_metrics_flags(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--metrics", choices=("off", "summary", "jsonl"), default="off",
        help="record run telemetry: 'summary' prints a table, 'jsonl' "
        "emits the event log (results are unaffected)",
    )
    subparser.add_argument(
        "--metrics-out", type=str, default=None, metavar="PATH",
        help="write the JSONL event log to PATH (requires --metrics jsonl)",
    )


def _add_engine_mode_flag(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--engine-mode", choices=("full", "delta"), default="full",
        help="warm-propagation strategy of the cells that build routes "
        "(campaign pairs, deployment points): 'delta' re-converges only "
        "the attacker's affected cone from the cached baseline "
        "(bit-identical results).  Impact-only cells (grids, λ-sweeps) "
        "run on the impact kernel and never warm-start",
    )


def _add_backend_flag(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--backend", choices=("compiled", "vectorized"), default="compiled",
        help="propagation core of the cells that build routes (campaign "
        "pairs, deployment points): 'vectorized' converges their cold "
        "baselines on the NumPy CSR batched frontier (bit-identical "
        "results; needs numpy, and warm/policy runs fall back to the "
        "compiled core).  Impact-only cells (grids, λ-sweeps) run on the "
        "impact kernel under either",
    )


def _add_topology_flag(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--topology", type=str, default=None, metavar="SPEC",
        help="replace the generated world: 'caida:<path>' loads a CAIDA "
        "as-rel2 snapshot (.txt or .bz2), 'synth:<N>' generates an N-AS "
        "power-law topology from --seed (overrides --scale)",
    )


def _resolve_world(args, parser: argparse.ArgumentParser):
    """Build the world named by ``--topology`` (``None`` = generated)."""
    spec = getattr(args, "topology", None)
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
        parser.error(
            f"--topology must be 'caida:<path>' or 'synth:<N>', got {spec!r}"
        )
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


def _make_study(args, parser: argparse.ArgumentParser, *, monitors, placement="top-degree"):
    """An :class:`InterceptionStudy` honouring --topology/--backend."""
    from repro.core import InterceptionStudy

    backend = getattr(args, "backend", "compiled")
    world = _resolve_world(args, parser)
    if world is not None:
        return InterceptionStudy(
            world,
            monitors=monitors,
            placement=placement,
            seed=args.seed,
            engine_mode=args.engine_mode,
            backend=backend,
        )
    return InterceptionStudy.generate(
        seed=args.seed,
        scale=args.scale,
        monitors=monitors,
        placement=placement,
        engine_mode=args.engine_mode,
        backend=backend,
    )


def _make_metrics(args, parser: argparse.ArgumentParser) -> RunMetrics | None:
    """Validate the metrics flags and build the registry (or ``None``)."""
    mode = getattr(args, "metrics", "off")
    out = getattr(args, "metrics_out", None)
    if out is not None and mode != "jsonl":
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


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-aspp",
        description=(
            "Reproduction harness for 'Studying Impacts of Prefix "
            "Interception Attack by Exploring BGP AS-PATH Prepending' "
            "(ICDCS 2012)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list registered experiments")

    run_parser = subparsers.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", choices=sorted(REGISTRY))
    run_parser.add_argument("--seed", type=int, default=None)
    run_parser.add_argument("--scale", type=float, default=None)
    run_parser.add_argument("--pairs", type=int, default=None)
    run_parser.add_argument("--instances", type=int, default=None)
    run_parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for experiments with parallel sweeps "
        "(results are identical for any worker count)",
    )
    _add_metrics_flags(run_parser)

    all_parser = subparsers.add_parser("all", help="run every experiment")
    all_parser.add_argument("--seed", type=int, default=None)
    all_parser.add_argument("--scale", type=float, default=None)
    all_parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for experiments with parallel sweeps",
    )
    _add_metrics_flags(all_parser)

    world_parser = subparsers.add_parser(
        "world", help="generate a topology and print its summary"
    )
    world_parser.add_argument("--seed", type=int, default=7)
    world_parser.add_argument("--scale", type=float, default=1.0)
    world_parser.add_argument(
        "--save", type=str, default=None, metavar="PATH",
        help="also write the topology in CAIDA serial-1 format",
    )

    campaign_parser = subparsers.add_parser(
        "campaign", help="run a quick attack/detection campaign"
    )
    campaign_parser.add_argument("--seed", type=int, default=7)
    campaign_parser.add_argument("--scale", type=float, default=1.0)
    campaign_parser.add_argument("--pairs", type=int, default=50)
    campaign_parser.add_argument("--padding", type=int, default=3)
    campaign_parser.add_argument("--monitors", type=int, default=150)
    campaign_parser.add_argument(
        "--placement", choices=("top-degree", "greedy-cover"), default="top-degree"
    )
    campaign_parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for the campaign's attack instances",
    )
    campaign_parser.add_argument(
        "--resume", type=str, default=None, metavar="PATH",
        help="checkpoint journal: finished instances append to PATH as "
        "they land, and re-running with the same PATH skips them — a "
        "killed campaign resumes instead of restarting",
    )
    campaign_parser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="attempts per instance before it is quarantined as a "
        "structured failure (default 3)",
    )
    campaign_parser.add_argument(
        "--task-deadline", type=float, default=None, metavar="SECONDS",
        help="per-instance deadline in pool mode: a hung worker is "
        "killed, the pool respawned, and the instance retried",
    )
    _add_engine_mode_flag(campaign_parser)
    _add_backend_flag(campaign_parser)
    _add_topology_flag(campaign_parser)
    _add_store_flags(campaign_parser)
    _add_metrics_flags(campaign_parser)

    grid_parser = subparsers.add_parser(
        "grid",
        help="run the exhaustive attacker × victim interception grid "
        "at a fixed λ",
    )
    grid_parser.add_argument("--seed", type=int, default=7)
    grid_parser.add_argument("--scale", type=float, default=1.0)
    grid_parser.add_argument("--padding", type=int, default=3)
    grid_parser.add_argument(
        "--attackers", type=int, default=None, metavar="N",
        help="limit the attacker pool to the N largest transit ASes by "
        "customer cone (default: every transit AS)",
    )
    grid_parser.add_argument(
        "--victims", type=int, default=None, metavar="N",
        help="limit the victim pool to the N largest ASes by customer "
        "cone (default: every AS)",
    )
    grid_parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for the grid cells",
    )
    grid_parser.add_argument(
        "--resume", type=str, default=None, metavar="PATH",
        help="checkpoint journal: finished cells append to PATH and a "
        "rerun with the same PATH replays them instead of re-converging",
    )
    grid_parser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="attempts per cell before the grid fails (default 3)",
    )
    grid_parser.add_argument(
        "--task-deadline", type=float, default=None, metavar="SECONDS",
        help="per-cell deadline in pool mode",
    )
    _add_engine_mode_flag(grid_parser)
    _add_backend_flag(grid_parser)
    _add_topology_flag(grid_parser)
    _add_store_flags(grid_parser)
    _add_metrics_flags(grid_parser)

    secpol_parser = subparsers.add_parser(
        "secpol-sweep",
        help="sweep a security policy's deployment fraction against one "
        "interception instance",
    )
    secpol_parser.add_argument(
        "--policy", choices=("none", "rov", "aspa", "prependguard"),
        default="prependguard",
        help="security policy to deploy ('none' = undefended control)",
    )
    secpol_parser.add_argument(
        "--strategy",
        choices=("random", "top-degree-first", "tier1-only", "victim-cone"),
        default="top-degree-first",
        help="which ASes adopt the policy first",
    )
    secpol_parser.add_argument(
        "--fractions", type=str, default="0.0,0.1,0.2,0.4,0.6,0.8,1.0",
        metavar="F1,F2,...",
        help="comma-separated deployment fractions in [0, 1]",
    )
    secpol_parser.add_argument("--seed", type=int, default=7)
    secpol_parser.add_argument("--scale", type=float, default=1.0)
    secpol_parser.add_argument("--padding", type=int, default=3)
    secpol_parser.add_argument(
        "--victim", type=int, default=None,
        help="victim ASN (default: the top Tier-1 by customer cone)",
    )
    secpol_parser.add_argument(
        "--attacker", type=int, default=None,
        help="attacker ASN (default: the top Tier-2 transit AS)",
    )
    secpol_parser.add_argument(
        "--valley-free", action="store_true",
        help="restrict the attacker to valley-free exports (default is "
        "the paper's leaking attacker, which path checks can see)",
    )
    secpol_parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for the deployment points",
    )
    secpol_parser.add_argument(
        "--resume", type=str, default=None, metavar="PATH",
        help="checkpoint journal for crash/resume; the policy, strategy, "
        "fraction and seed are part of every task fingerprint, so a "
        "journal from a different setup replays nothing",
    )
    secpol_parser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="attempts per point before the sweep fails (default 3)",
    )
    secpol_parser.add_argument(
        "--task-deadline", type=float, default=None, metavar="SECONDS",
        help="per-point deadline in pool mode",
    )
    _add_engine_mode_flag(secpol_parser)
    _add_backend_flag(secpol_parser)
    _add_topology_flag(secpol_parser)
    _add_store_flags(secpol_parser)
    _add_metrics_flags(secpol_parser)

    stream_parser = subparsers.add_parser(
        "detect-stream",
        help="run the streaming detection pipeline over a synthesized "
        "churn stream and report sustained throughput",
    )
    stream_parser.add_argument("--seed", type=int, default=7)
    stream_parser.add_argument("--scale", type=float, default=0.5)
    stream_parser.add_argument(
        "--monitors", type=int, default=100,
        help="top-degree monitor feeds the collector aggregates",
    )
    stream_parser.add_argument(
        "--updates", type=int, default=20000,
        help="target churn-stream length (attack burst included)",
    )
    stream_parser.add_argument(
        "--prefixes", type=int, default=4,
        help="background prefixes flapping alongside the victim's",
    )
    stream_parser.add_argument(
        "--feeds", type=int, default=4,
        help="collector feeds the stream is split across",
    )
    stream_parser.add_argument(
        "--batch", type=int, default=64,
        help="updates handed to the detector per consume_batch call",
    )
    stream_parser.add_argument(
        "--backpressure", choices=("block", "drop", "park"), default="block",
        help="bounded-queue overflow policy",
    )
    stream_parser.add_argument(
        "--capacity", type=int, default=256,
        help="per-feed queue capacity",
    )
    stream_parser.add_argument("--padding", type=int, default=3,
        help="the attack victim's origin padding λ")
    stream_parser.add_argument(
        "--no-attack", action="store_true",
        help="background churn only (no interception burst)",
    )
    _add_metrics_flags(stream_parser)

    mitigate_parser = subparsers.add_parser(
        "mitigate-stream",
        help="run the closed detect → mitigate → re-converge loop over a "
        "synthesized churn stream, optionally under injected feed faults",
    )
    mitigate_parser.add_argument("--seed", type=int, default=7)
    mitigate_parser.add_argument("--scale", type=float, default=0.5)
    mitigate_parser.add_argument(
        "--monitors", type=int, default=100,
        help="top-degree monitor feeds the collector aggregates",
    )
    mitigate_parser.add_argument(
        "--updates", type=int, default=8000,
        help="target churn-stream length (attack burst included)",
    )
    mitigate_parser.add_argument(
        "--prefixes", type=int, default=4,
        help="background prefixes flapping alongside the victim's",
    )
    mitigate_parser.add_argument("--padding", type=int, default=3,
        help="the attack victim's origin padding λ")
    mitigate_parser.add_argument(
        "--strategy", choices=("none", "stepdown", "reset"), default="stepdown",
        help="victim countermeasure once the attack is detected: 'stepdown' "
        "lowers λ gradually, 'reset' jumps to the floor, 'none' is the "
        "no-reaction control arm",
    )
    mitigate_parser.add_argument(
        "--step", type=int, default=1,
        help="λ decrement per stepdown reaction",
    )
    mitigate_parser.add_argument(
        "--floor", type=int, default=1,
        help="the λ the victim will not go below (1 = no prepending left)",
    )
    mitigate_parser.add_argument(
        "--reaction", type=int, default=64, metavar="UPDATES",
        help="modelled operator/automation latency between first alarm "
        "and re-announce (time-to-mitigate)",
    )
    mitigate_parser.add_argument(
        "--feeds", type=int, default=4,
        help="collector feeds the stream is split across",
    )
    mitigate_parser.add_argument(
        "--batch", type=int, default=64,
        help="updates handed to the detector per consume_batch call",
    )
    mitigate_parser.add_argument(
        "--backpressure", choices=("block", "drop", "park"), default="block",
        help="bounded-queue overflow policy",
    )
    mitigate_parser.add_argument(
        "--capacity", type=int, default=256,
        help="per-feed queue capacity",
    )
    mitigate_parser.add_argument(
        "--fault-rate", type=float, default=0.0, metavar="RATE",
        help="inject a seeded feed-fault plan: each feed draws faults "
        "(outages, duplicate bursts, corruption, gap storms) with this "
        "probability (0 = fault-free)",
    )
    mitigate_parser.add_argument(
        "--fault-seed", type=int, default=None,
        help="seed for the fault plan (default: --seed)",
    )
    mitigate_parser.add_argument(
        "--unrecoverable", action="store_true",
        help="make injected faults unrecoverable: outage updates are lost "
        "instead of replayed on reconnect (graceful-degradation mode)",
    )
    mitigate_parser.add_argument(
        "--slo-alarm-latency", type=float, default=2000.0, metavar="UPDATES",
        help="alarm-latency SLO threshold (p99, post-merge updates)",
    )
    mitigate_parser.add_argument(
        "--slo-feed-staleness", type=float, default=512.0, metavar="UPDATES",
        help="feed-staleness SLO threshold (p99 replay-buffer depth)",
    )
    mitigate_parser.add_argument(
        "--slo-recovery-rounds", type=float, default=12.0, metavar="ROUNDS",
        help="recovery-deadline SLO threshold (max delta rounds)",
    )
    _add_metrics_flags(mitigate_parser)

    query_parser = subparsers.add_parser(
        "query",
        help="serve an experiment from a campaign store, computing only "
        "what is missing",
    )
    query_parser.add_argument("experiment", choices=sorted(REGISTRY))
    query_parser.add_argument(
        "--store", type=str, required=True, metavar="DIR",
        help="campaign store directory (created if missing); a repeated "
        "query is a pure store hit — zero propagations",
    )
    query_parser.add_argument("--seed", type=int, default=None)
    query_parser.add_argument("--scale", type=float, default=None)
    query_parser.add_argument("--pairs", type=int, default=None)
    query_parser.add_argument("--instances", type=int, default=None)
    query_parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes if the experiment has to compute (never "
        "part of the content address: any layout serves any query)",
    )
    _add_metrics_flags(query_parser)

    store_parser = subparsers.add_parser(
        "store", help="inspect and maintain a campaign store"
    )
    store_parser.add_argument(
        "--store", type=str, required=True, metavar="DIR",
        help="campaign store directory",
    )
    store_parser.add_argument(
        "--compact", action="store_true",
        help="rewrite the record log to one record per fingerprint "
        "(drops duplicate/corrupt lines); run without concurrent writers",
    )
    store_parser.add_argument(
        "--import-journal", type=str, action="append", default=[],
        metavar="PATH", dest="import_journals",
        help="lift a legacy --resume checkpoint journal's results into "
        "the store (repeatable); the journal is left untouched",
    )

    args = parser.parse_args(argv)
    if args.command == "list":
        for experiment_id in REGISTRY:
            print(experiment_id)
        return 0
    if args.command == "world":
        return _world(args)
    if args.command == "campaign":
        return _campaign(args, parser, _make_metrics(args, parser))
    if args.command == "grid":
        return _grid(args, parser, _make_metrics(args, parser))
    if args.command == "secpol-sweep":
        return _secpol_sweep(args, parser, _make_metrics(args, parser))
    if args.command == "detect-stream":
        return _detect_stream(args, parser, _make_metrics(args, parser))
    if args.command == "mitigate-stream":
        return _mitigate_stream(args, parser, _make_metrics(args, parser))
    if args.command == "query":
        return _query(args, parser, _make_metrics(args, parser))
    if args.command == "store":
        return _store_admin(args, parser)
    overrides = {
        name: getattr(args, name, None)
        for name in ("seed", "scale", "pairs", "instances", "workers")
    }
    metrics = _make_metrics(args, parser)
    if args.command == "run":
        status = _run_one(args.experiment, overrides, metrics)
        _emit_metrics(args, metrics)
        return status
    # ``all`` records every experiment into one registry and emits the
    # merged telemetry once at the end.
    status = 0
    for experiment_id in REGISTRY:
        status |= _run_one(experiment_id, overrides, metrics)
    _emit_metrics(args, metrics)
    return status


def _world(args) -> int:
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


def _add_store_flags(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--store", type=str, default=None, metavar="DIR",
        help="content-addressed campaign store: cells already computed "
        "by any earlier run replay from the store, fresh cells stream "
        "back in (results are unaffected)",
    )
    subparser.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="split the task space across N work-stealing supervised "
        "executors (--workers is the pool size per shard); results are "
        "identical at any shard count",
    )


def _open_store(args, metrics: RunMetrics | None = None):
    """Build the CampaignStore named by --store, or None."""
    if getattr(args, "store", None) is None:
        return None
    from repro.store import CampaignStore

    return CampaignStore(args.store, metrics=metrics)


def _query(args, parser, metrics: RunMetrics | None = None) -> int:
    from repro.store import CampaignStore, query_experiment

    store = CampaignStore(args.store, metrics=metrics)
    try:
        overrides = {
            name: getattr(args, name, None)
            for name in ("seed", "scale", "pairs", "instances", "workers")
        }
        outcome = query_experiment(
            store, args.experiment, metrics=metrics, **overrides
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
    finally:
        store.close()
    _emit_metrics(args, metrics)
    return 0


def _store_admin(args, parser) -> int:
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


def _retry_policy(args):
    """Build the optional RetryPolicy from --retries/--task-deadline."""
    from repro.runner import RetryPolicy

    if args.retries is None and args.task_deadline is None:
        return None
    policy_overrides = {}
    if args.retries is not None:
        policy_overrides["max_attempts"] = args.retries
    if args.task_deadline is not None:
        policy_overrides["deadline"] = args.task_deadline
    return RetryPolicy(**policy_overrides)


def _secpol_sweep(args, parser, metrics: RunMetrics | None = None) -> int:
    from repro.topology.tiers import classify_tiers, customer_cone
    from repro.utils.tables import format_table

    try:
        fractions = tuple(
            float(token) for token in args.fractions.split(",") if token.strip()
        )
    except ValueError:
        parser.error(f"--fractions must be comma-separated floats: {args.fractions!r}")
    if not fractions:
        parser.error("--fractions must name at least one fraction")
    study = _make_study(args, parser, monitors=1)
    graph = study.world.graph
    victim, attacker = args.victim, args.attacker
    if victim is None:
        victim = min(
            study.world.tier1, key=lambda t: (-len(customer_cone(graph, t)), t)
        )
    if attacker is None:
        tiers = classify_tiers(graph)
        tier2 = [
            asn
            for asn in graph.ases
            if tiers.get(asn) == 2 and asn != victim and graph.customers_of(asn)
        ]
        if not tier2:
            parser.error("no Tier-2 transit AS available; pass --attacker")
        attacker = min(tier2, key=lambda t: (-len(customer_cone(graph, t)), t))
    store = _open_store(args, metrics)
    try:
        results = study.deployment_sweep(
            victim=victim,
            attacker=attacker,
            padding=args.padding,
            policy=args.policy,
            strategy=args.strategy,
            fractions=fractions,
            violate_policy=not args.valley_free,
            workers=args.workers,
            metrics=metrics,
            resume=args.resume,
            retry=_retry_policy(args),
            store=store,
            shards=args.shards,
        )
    finally:
        if store is not None:
            store.close()
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
    _emit_metrics(args, metrics)
    return 0


def _grid(args, parser, metrics: RunMetrics | None = None) -> int:
    from repro.topology.tiers import customer_cone

    study = _make_study(args, parser, monitors=1)
    graph = study.world.graph

    def top_by_cone(pool, limit):
        if limit is None or limit >= len(pool):
            return list(pool)
        return sorted(pool, key=lambda t: (-len(customer_cone(graph, t)), t))[:limit]

    attackers = top_by_cone(study.world.transit_ases, args.attackers)
    victims = top_by_cone(graph.ases, args.victims)
    store = _open_store(args, metrics)
    try:
        results = study.exhaustive_grid(
            padding=args.padding,
            attacker_pool=attackers,
            victim_pool=victims,
            workers=args.workers,
            metrics=metrics,
            resume=args.resume,
            retry=_retry_policy(args),
            store=store,
            shards=args.shards,
        )
    finally:
        if store is not None:
            store.close()
    effective = [r for r in results if r.after_fraction > r.before_fraction]
    mean_after = sum(r.after_fraction for r in results) / len(results)
    print(
        f"grid: {len(attackers)} attackers x {len(victims)} victims, "
        f"λ={args.padding}, engine-mode={args.engine_mode}"
    )
    print(f"  cells:               {len(results)}")
    print(f"  effective attacks:   {len(effective)}/{len(results)}")
    print(f"  mean pollution:      {mean_after:.1%}")
    _emit_metrics(args, metrics)
    return 0


def _detect_stream(args, parser, metrics: RunMetrics | None = None) -> int:
    import time

    from repro.detection.detector import ASPPInterceptionDetector
    from repro.detection.pipeline import (
        PipelineDetector,
        StreamingPipeline,
        split_stream,
    )
    from repro.measurement.churn import ChurnConfig, synthesize_churn_stream

    config = ChurnConfig(
        seed=args.seed,
        scale=args.scale,
        monitors=args.monitors,
        prefixes=args.prefixes,
        updates=args.updates,
        attack=not args.no_attack,
        padding=args.padding,
    )
    stream = synthesize_churn_stream(config)
    graph = stream.world.graph
    # The p50/p99 summary needs the per-update latency histogram, so the
    # pipeline is always instrumented here; --metrics controls only
    # whether the full registry is emitted afterwards.
    registry = metrics if metrics is not None else RunMetrics()
    detector = PipelineDetector(
        ASPPInterceptionDetector(graph), graph, metrics=registry
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
    _emit_metrics(args, metrics)
    return 0


def _mitigate_stream(args, parser, metrics: RunMetrics | None = None) -> int:
    import json

    from repro.detection.pipeline.faults import FeedFaultPlan
    from repro.measurement.churn import ChurnConfig, synthesize_churn_stream
    from repro.mitigation.controller import MitigationPolicy, run_closed_loop
    from repro.telemetry.slo import SLORegistry, default_pipeline_slos

    if not 0.0 <= args.fault_rate <= 1.0:
        parser.error(f"--fault-rate must be in [0, 1], got {args.fault_rate}")
    config = ChurnConfig(
        seed=args.seed,
        scale=args.scale,
        monitors=args.monitors,
        prefixes=args.prefixes,
        updates=args.updates,
        attack=True,
        padding=args.padding,
    )
    stream = synthesize_churn_stream(config)
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
    _emit_metrics(args, metrics)
    return 0


def _campaign(args, parser, metrics: RunMetrics | None = None) -> int:
    retry = _retry_policy(args)
    study = _make_study(
        args, parser, monitors=args.monitors, placement=args.placement
    )
    store = _open_store(args, metrics)
    try:
        campaign = study.campaign(
            pairs=args.pairs,
            padding=args.padding,
            workers=args.workers,
            metrics=metrics,
            resume=args.resume,
            retry=retry,
            store=store,
            shards=args.shards,
        )
    finally:
        if store is not None:
            store.close()
    effective = campaign.effective
    print(
        f"campaign: {args.pairs} random attacks, λ={args.padding}, "
        f"{len(study.collector.monitors)} monitors ({args.placement})"
    )
    print(f"  effective attacks:   {len(effective)}/{args.pairs}")
    print(f"  mean pollution:      {campaign.mean_pollution:.1%}")
    print(f"  detection rate:      {campaign.detection_rate:.1%}")
    if campaign.failures:
        print(f"  quarantined:         {len(campaign.failures)}/{args.pairs}")
    _emit_metrics(args, metrics)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
