"""The six workloads: command lists, generated inputs, output normalisation.

A command is a template: ``{T}`` is the generated as-rel topology file,
``{S}`` the store directory, ``{seed}`` the run's seed and
``{fault_seed}`` the seed of the feed-fault plan.  The template joined
by spaces is the op's label in ``expected.json`` and in reports, so
labels do not depend on where the temp directory landed.

The run's seed generates ``T``, seeds the grid and the churn streams and
orders the commands of a pass.  It does not reach ``run figNN`` or
``query figNN``: the shipped artefacts are the default seed's, and the
cost of a figure swings with the world it draws (fig13 took 8.0 s at
seed 1 and 3.4 s at seed 4), which would let the seed, not the code,
decide a comparison.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "WORKLOADS",
    "Workload",
    "body",
    "digest",
    "fault_seed",
    "label",
    "normalise",
    "ordered",
    "render",
    "write_topology",
]

#: the density the existing 10k micro-bench uses: 44,216 edges at seed 7
POWERLAW = dict(
    num_ases=10_000,
    tier1_size=20,
    transit_fraction=0.30,
    transit_providers=(2, 4),
    stub_providers=(1, 3),
    transit_peering_degree=(4, 24),
)
STREAM_FEEDS = 4
FAULT_RATE = 0.5

_SEED = ("--seed", "{seed}")
_FIGS = tuple(f"fig{n:02d}" for n in range(7, 13))
_GRID = ("grid", "--topology", "caida:{T}", "--attackers", "5", "--victims", "10",
         "--padding", "3") + _SEED
_QUERIES = tuple(("query", fig, "--store", "{S}") for fig in _FIGS)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: one timed pass, in order
    ops: tuple[tuple[str, ...], ...]
    #: cold commands that populate the store in set-up; a timed op with
    #: the same template must reproduce the body of its cold output
    setup_ops: tuple[tuple[str, ...], ...] = ()
    #: run once after the passes; its output must equal the first op's
    equal_to: tuple[str, ...] | None = None
    topology: bool = False
    #: full set-ups per run (fresh processes); the median is ``setup_s``
    setup_reps: int = 3


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "figs-1k5",
            "fig07-fig12 at the shipped 1,545-AS default: the paper's headline "
            "artefacts, dominated by topology generation",
            tuple(("run", fig) for fig in _FIGS),
        ),
        Workload(
            "detect-1k5",
            "fig13/fig14 with 40 pairs: the paper's detection claim, dominated by "
            "collector snapshots and the detectors, not the engine",
            (("run", "fig13", "--pairs", "40"), ("run", "fig14", "--pairs", "40")),
        ),
        Workload(
            "grid-10k",
            "45-cell attack grid on a loaded 10k-AS file: per-cell campaign cost at "
            "scale, engine-dominated, no topology generation",
            (_GRID,),
            topology=True,
        ),
        Workload(
            "pool-10k",
            "the grid-10k cells through --workers 2: pool, shared memory and IPC; "
            "cpu_s beside wall_s shows what the pool costs for what it saves",
            (_GRID + ("--workers", "2"),),
            equal_to=_GRID,
            topology=True,
        ),
        Workload(
            "stream-200k",
            "200k-update detect-stream plus a faulted 40k-update mitigate-stream: "
            "the streaming pipeline and closed loop, almost no campaign engine",
            (("detect-stream", "--updates", "200000", "--monitors", "200",
              "--feeds", str(STREAM_FEEDS)) + _SEED,
             ("mitigate-stream", "--updates", "40000", "--monitors", "200",
              "--fault-rate", str(FAULT_RATE), "--fault-seed", "{fault_seed}") + _SEED),
        ),
        Workload(
            "store-warm",
            "180 warm queries, a warm grid replay and a compaction: store, scheduler "
            "and CLI with zero propagations, every other layer bypassed",
            _QUERIES * 30 + (_GRID + ("--store", "{S}"), ("store", "--store", "{S}", "--compact")),
            setup_ops=_QUERIES + (_GRID + ("--store", "{S}"),),
            topology=True,
            # one set-up is ~7 s of cold figures and grid cells
            setup_reps=2,
        ),
    )
}


def label(template: tuple[str, ...]) -> str:
    return " ".join(template)


def render(template: tuple[str, ...], values: dict[str, object]) -> list[str]:
    return [part.format(**values) for part in template]


def ordered(workload: Workload, seed: int) -> list[tuple[str, ...]]:
    """The commands of one pass in the run's seeded order."""
    return random.Random(seed).sample(workload.ops, len(workload.ops))


def write_topology(path: Path, seed: int) -> None:
    """The generated input ``T``: a 10k-AS power-law world as an as-rel file."""
    from repro.topology.generators import PowerLawConfig, generate_powerlaw_topology
    from repro.topology.serialization import save_caida

    world = generate_powerlaw_topology(PowerLawConfig(**POWERLAW), seed)
    save_caida(world.graph, path)


def fault_seed(seed: int) -> int:
    """The first plan seed at or after ``seed`` that schedules a fault.

    A seeded plan leaves each feed fault-free with probability
    1 - FAULT_RATE, so one seed in sixteen would time the quiet path and
    call it the tolerant one.  Seed 7 maps to itself.
    """
    from repro.detection.pipeline.faults import FeedFaultPlan

    candidate = seed
    while not FeedFaultPlan.seeded(STREAM_FEEDS, seed=candidate, rate=FAULT_RATE):
        candidate += 1
    return candidate


# Wall-clock measurements the stream commands print among their results.
_TIMING_LINE = re.compile(r"^\s*(throughput|latency p50|latency p99):")
_SLO_ROW = re.compile(r"^(alarm-latency|feed-staleness|recovery-deadline)\s")
_BOOKKEEPING = ("metrics written to ",)
_PROVENANCE = ("served from store", "computed and stored", "store:")


def normalise(text: str, paths: dict[str, str]) -> str:
    """Stdout with everything that may differ between two correct runs
    removed: temp paths become their placeholder, timing lines go, and
    an SLO row keeps its objective, status and breach count but not the
    observed value."""
    for placeholder, path in paths.items():
        if path:
            text = text.replace(path, placeholder)
    kept = []
    for line in text.splitlines():
        if _TIMING_LINE.match(line) or line.startswith(_BOOKKEEPING):
            continue
        if _SLO_ROW.match(line):
            name, kind, objective, _observed, status, breaches = re.split(r"\s{2,}", line.strip())
            line = f"{name}  {kind}  {objective}  {status}  {breaches}"
        kept.append(line)
    return "\n".join(kept)


def body(normalised: str) -> str:
    """A query's figure rows without the provenance and store-size lines,
    which legitimately differ between the cold and the warm read."""
    return "\n".join(
        line for line in normalised.splitlines() if not line.startswith(_PROVENANCE)
    )


def digest(normalised: str) -> str:
    return hashlib.sha256(normalised.encode()).hexdigest()
