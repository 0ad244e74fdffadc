"""One workload in one fresh process: set-up, warm-up, timed passes.

Started by ``run.py`` with ``PYTHONPATH=src``; never imported by it.
The closed loop is one client: ``repro.cli.main(argv)`` is called
in-process with stdout captured, the next command when the previous
returns.  The result goes to ``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import resource
import statistics
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

from probe import Sampler, cpu_ticks, speed, unstolen  # noqa: E402
from spans import COUNTERS, Tracer, self_times  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    body,
    digest,
    fault_seed,
    label,
    normalise,
    ordered,
    render,
    write_topology,
)

#: never fewer timed passes than this, however short ``--seconds`` is
MIN_PASSES = 3
#: untraced/traced pass pairs in a traced run
MIN_PAIRS = 2
#: commands that accept ``--metrics jsonl --metrics-out``
METERED = {"run", "grid", "detect-stream", "mitigate-stream", "query"}
EXPECTED = Path(__file__).with_name("expected.json")


def cpu_seconds() -> float:
    """User + system CPU of this process and the children it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mib() -> float:
    """Largest resident set of this process or any child it has reaped."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ranked = sorted(values)
    return ranked[min(len(ranked) - 1, max(0, int(q * len(ranked) + 0.5) - 1))]


class Client:
    """Issues CLI commands one at a time and checks what comes back."""

    def __init__(self, cli_main, values: dict[str, object], sampler: Sampler) -> None:
        self.cli_main = cli_main
        self.values = values
        self.paths = {"T": str(values["T"]), "S": str(values["S"])}
        #: times slices of its own while active; their cost leaves the op's times
        self.sampler = sampler
        #: label -> first normalised output seen; later ones must equal it
        self.reference: dict[str, str] = {}
        self.failures: list[str] = []
        #: every command issued, set-up and warm-up included, and how many failed
        self.attempted = 0
        self.failed_ops = 0

    def call(self, template, extra=()):
        """Run one command: ``(normalised stdout, wall seconds, cpu seconds)``."""
        argv = render(template, self.values) + list(extra)
        self.attempted += 1
        captured = io.StringIO()
        sampled = self.sampler.cost
        cpu = cpu_seconds()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured):
                status = self.cli_main(argv)
        except (Exception, SystemExit) as exc:  # the loop must outlive a failed op
            status = f"{type(exc).__name__}: {exc}"
        sampled = self.sampler.cost - sampled
        wall = time.perf_counter() - start - sampled
        cpu = cpu_seconds() - cpu - sampled
        text = normalise(captured.getvalue(), self.paths)
        if status != 0:
            self.fail(f"{label(template)}: returned {status!r}")
        return text, wall, cpu

    def fail(self, message: str) -> None:
        self.failed_ops += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def check(self, template, text: str, where: str) -> None:
        expected = self.reference.setdefault(label(template), text)
        if text != expected:
            self.fail(f"{where} {label(template)}: output differs from the first one")


def set_up(workload, seed: int, tmp: Path, cli_main, sampler) -> tuple[Client, dict[str, str]]:
    """Generate the inputs and populate the store; returns the client and
    the body of each cold set-up output by label."""
    values = {"seed": seed, "T": "", "S": "", "fault_seed": seed}
    if workload.topology:
        values["T"] = str(tmp / "T.txt")
        write_topology(Path(values["T"]), seed)
    if any("{fault_seed}" in label(op) for op in workload.ops):
        values["fault_seed"] = fault_seed(seed)
    if workload.setup_ops:
        values["S"] = str(tmp / "S")
    client = Client(cli_main, values, sampler)
    cold = {}
    for template in workload.setup_ops:
        text, _, _ = client.call(template)
        cold[label(template)] = body(text)
    return client, cold


def run_pass(client, ops, cold, where, tracer=None, metrics_dir=None, sampled=False) -> dict:
    """One pass over the command list; with ``metrics_dir`` the commands
    also write the program's own telemetry there, and with ``sampled``
    the machine's speed is sampled while they run."""
    walls, cpus, texts = [], [], []
    ticks = cpu_ticks()
    with client.sampler if sampled else contextlib.nullcontext():
        for index, template in enumerate(ops):
            extra = ()
            if tracer is not None:
                tracer.op = index
            if metrics_dir is not None and template[0] in METERED:
                extra = ("--metrics", "jsonl", "--metrics-out",
                         str(metrics_dir / f"{index}.jsonl"))
            text, wall, cpu = client.call(template, extra)
            walls.append(wall)
            cpus.append(cpu)
            texts.append(text)
    share = unstolen(ticks, cpu_ticks())
    rate = speed(client.sampler.take())
    # checked after the clock stopped, so hashing is not in anyone's pass
    for template, text in zip(ops, texts):
        client.check(template, text, where)
        if cold.get(label(template), body(text)) != body(text):
            client.fail(f"{where} {label(template)}: warm read differs from the cold output")
    return {"wall_s": sum(walls), "cpu_s": sum(cpus), "unstolen": share, "speed": rate,
            "op_walls": walls, "texts": texts}


def read_counters(ops, metrics_dir: Path):
    """The program's own registry, merged over the pass's commands."""
    from repro.telemetry.metrics import RunMetrics
    from repro.telemetry.report import read_jsonl

    merged = RunMetrics()
    for index, template in enumerate(ops):
        path = metrics_dir / f"{index}.jsonl"
        if template[0] in METERED and path.exists():
            merged.merge(read_jsonl(path).to_dict())
            path.unlink()
    return merged


def span_metrics(tracer, spans) -> tuple[dict[str, float], float, list[float]]:
    """Self seconds and calls per span-table metric, the summed duration
    of the root spans, and each serial cell's duration in ms."""
    metrics: dict[str, float] = {}
    for _, seconds, calls in tracer.table:
        metrics[seconds] = 0.0
        if calls:
            metrics[calls] = 0
    own, roots = self_times(spans)
    cells = []
    for span, self_seconds in zip(spans, own):
        _, seconds, calls = tracer.table[span[0]]
        metrics[seconds] += self_seconds
        if calls:
            metrics[calls] += 1
        if seconds == "runner.tasks.execute_s":
            cells.append((span[2] - span[1]) * 1000.0)
    return metrics, roots, cells


def layer_metrics(ops, tracer, spans, done: dict, registry) -> dict[str, float]:
    """Every per-layer metric one traced pass can give."""
    metrics, roots, cells = span_metrics(tracer, spans)
    wall = done["wall_s"]
    count = registry.counter_value

    def ratio(part: float, rest: float) -> float:
        return part / (part + rest) if part + rest else 0.0

    def observed(name: str) -> float:
        histogram = registry.histograms.get(name)
        return histogram.total if histogram else 0.0

    for metric, counter in COUNTERS.items():
        metrics[metric] = count(counter)
    metrics["cli.self_s"] = wall - roots
    metrics["cli.ops"] = len(ops)
    activations = count("engine.cold.activations") + count("engine.warm.activations")
    metrics["bgp.engine.activations"] = activations
    metrics["bgp.engine.us_per_activation"] = (
        metrics["bgp.engine.propagate_s"] * 1e6 / activations if activations else 0.0
    )
    metrics["runner.cache.hit_ratio"] = ratio(
        metrics["runner.cache.hits"], metrics["runner.cache.misses"]
    )
    metrics["runner.tasks.cell_ms_p50"] = quantile(cells, 0.5)
    metrics["runner.tasks.cell_ms_max"] = max(cells, default=0.0)
    pooled = count("runner.shm.bootstraps") > 0
    metrics["runner.pool.cpu_over_wall"] = done["cpu_s"] / wall if pooled else 0.0
    metrics["store.hit_ratio"] = ratio(count("store.hits"), count("store.misses"))
    sizes = re.findall(r"records:\s+(\d+)\s+bytes:\s+(\d+)", "\n".join(done["texts"]))
    metrics["store.records"], metrics["store.bytes"] = map(int, sizes[-1]) if sizes else (0, 0)
    queries = [
        op_wall * 1000.0
        for template, op_wall in zip(ops, done["op_walls"])
        if template[0] == "query"
    ]
    metrics["store.query_op_ms_p50"] = quantile(queries, 0.5)
    metrics["store.query_op_ms_p95"] = quantile(queries, 0.95)
    # stream lengths as the two stream commands print them
    lengths = re.findall(
        r"^detect-stream: (\d+) updates|processed=(\d+)", "\n".join(done["texts"]), re.M
    )
    metrics["measurement.churn.updates"] = sum(int(a or b) for a, b in lengths)
    run_s = metrics["detection.pipeline.run_s"]
    metrics["detection.pipeline.updates_per_s"] = (
        metrics["detection.pipeline.updates"] / run_s if run_s else 0.0
    )
    latency = registry.histograms.get("detection.pipeline.update_latency_us")
    metrics["detection.pipeline.latency_p50_us"] = latency.quantile(0.5) if latency else 0.0
    metrics["detection.pipeline.latency_p99_us"] = latency.quantile(0.99) if latency else 0.0
    metrics["detection.pipeline.faults"] = sum(
        counter.value
        for name, counter in registry.counters.items()
        if name.startswith("detection.pipeline.faults.")
    )
    metrics["mitigation.recovery_rounds"] = observed("mitigation.recovery_rounds")
    metrics["mitigation.touched_ases"] = observed("mitigation.touched_ases")
    metrics["trace.wall_s"] = wall
    metrics["trace.spans"] = len(spans)
    metrics["trace.coverage"] = roots / wall
    return metrics


def span_summary(tracer, spans) -> list[dict]:
    """Calls, total and self seconds per span-table target, busiest first."""
    own, _ = self_times(spans)
    rows: dict[int, list[float]] = {}
    for span, self_seconds in zip(spans, own):
        row = rows.setdefault(span[0], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += span[2] - span[1]
        row[2] += self_seconds
    return [
        {"target": tracer.table[index][0], "metric": tracer.table[index][1],
         "calls": calls, "total_s": total, "self_s": self_seconds}
        for index, (calls, total, self_seconds) in sorted(
            rows.items(), key=lambda item: -item[1][2]
        )
    ]


def check_expected(client, seed: int) -> dict[str, str]:
    """Digest of every op's output; at the recorded seed they must be the
    recorded ones."""
    digests = {name: digest(text) for name, text in client.reference.items()}
    recorded = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {"digests": {}}
    for name, value in digests.items():
        # a command without a placeholder prints the same at every seed
        if (recorded.get("seed") == seed or "{" not in name) and (
            recorded["digests"].get(name, value) != value
        ):
            client.fail(f"{name}: output digest differs from expected.json")
    return digests


def timed_passes(client, ops, cold, seconds: float) -> list[dict]:
    """Untraced, speed-sampled passes until ``seconds`` are used up, at
    least MIN_PASSES."""
    passes: list[dict] = []
    begin = time.perf_counter()
    while len(passes) < MIN_PASSES or (
        time.perf_counter() - begin + statistics.median(p["wall_s"] for p in passes) / 2
        < seconds
    ):
        passes.append(run_pass(client, ops, cold, f"pass {len(passes)}", sampled=True))
    return passes


def traced_passes(client, ops, cold, seconds: float, tracer, tmp: Path):
    """The counted pass, then untraced and traced passes in alternation —
    so that drift in the machine hits both sides alike — until ``seconds``
    are used up, at least MIN_PAIRS of each."""
    begin = time.perf_counter()
    # The program's counters are exact, so one pass with its telemetry on
    # gives them; its cost (a third of grid-10k) stays out of the spans.
    counted = run_pass(client, ops, cold, "counted pass", metrics_dir=tmp)
    registry = read_counters(ops, tmp)
    plain: list[dict] = []
    traced: list[dict] = []
    spans: list[list] = []
    while len(traced) < MIN_PAIRS or (
        time.perf_counter() - begin + statistics.median(p["wall_s"] for p in plain) < seconds
    ):
        plain.append(run_pass(client, ops, cold, f"pass {len(plain)}", sampled=True))
        tracer.install()
        done = run_pass(client, ops, cold, f"traced pass {len(traced)}", tracer)
        spans = tracer.take()
        tracer.uninstall()
        done["layers"] = layer_metrics(ops, tracer, spans, done, registry)
        traced.append(done)
    return counted, plain, traced, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    ops = ordered(workload, args.seed)

    sampler = Sampler()
    ticks = cpu_ticks()
    started = time.perf_counter()
    with sampler:
        from repro import cli

        import_s = time.perf_counter() - started
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            # the set-up is traced too: the store's write path only runs there
            tracer.install()
        client, cold = set_up(workload, args.seed, args.tmp, cli.main, sampler)
        setup_s = time.perf_counter() - started - sampler.cost
    setup_s *= unstolen(ticks, cpu_ticks()) * speed(sampler.take())
    numpy = sys.modules.get("numpy")
    result: dict[str, object] = {
        "setup_s": setup_s,
        "numpy": numpy.__version__ if numpy else None,
    }
    if args.setup_only:
        args.result.write_text(json.dumps(result))
        return 0
    if tracer is not None:
        setup_spans = tracer.take()
        tracer.uninstall()

    first = run_pass(client, ops, cold, "warm-up")
    if tracer is None:
        plain = timed_passes(client, ops, cold, args.seconds)
    else:
        counted, plain, traced, spans = traced_passes(
            client, ops, cold, args.seconds, tracer, args.tmp
        )
    rss = peak_rss_mib()

    if workload.equal_to is not None:
        text, _, _ = client.call(workload.equal_to)
        if text != first["texts"][0]:
            client.fail(f"{label(ops[0])}: output differs from {label(workload.equal_to)}")
    digests = check_expected(client, args.seed)

    walls = [p["wall_s"] for p in plain]
    raw_wall_s = statistics.median(walls)
    result.update(
        wall_s=statistics.median(p["wall_s"] * p["unstolen"] * p["speed"] for p in plain),
        cpu_s=statistics.median(p["cpu_s"] * p["speed"] for p in plain),
        peak_rss_mb=rss,
        speed=statistics.median(p["speed"] for p in plain),
        raw_wall_s=raw_wall_s,
        steal_pct=(1.0 - statistics.fmean(p["unstolen"] for p in plain)) * 100.0,
        passes=len(plain),
        pass_walls=walls,
        attempted=client.attempted,
        failed=client.failed_ops,
        failures=client.failures,
        digests=digests,
    )
    if tracer is not None:
        layers = {
            name: statistics.median(done["layers"][name] for done in traced)
            for name in traced[0]["layers"]
        }
        in_setup, _, _ = span_metrics(tracer, setup_spans)
        for name in ("store.put_s", "store.puts"):
            layers[name] += in_setup[name]
        traced_wall = statistics.median(done["wall_s"] for done in traced)
        quartiles = statistics.quantiles(walls, n=4)
        layers["trace.overhead_pct"] = (traced_wall / raw_wall_s - 1.0) * 100.0
        layers["trace.unavailable"] = len(tracer.unavailable)
        layers["run.import_s"] = import_s
        layers["run.first_pass_s"] = first["wall_s"]
        layers["run.counted_pass_s"] = counted["wall_s"]
        layers["run.passes"] = len(plain)
        layers["run.wall_iqr_pct"] = (quartiles[2] - quartiles[0]) / raw_wall_s * 100.0
        layers["run.speed"] = result["speed"]
        layers["run.steal_pct"] = result["steal_pct"]
        origin = spans[0][1]
        result.update(
            layers=layers,
            unavailable=tracer.unavailable,
            span_summary=span_summary(tracer, spans),
            # the last traced pass, one [target, start, end, parent, op] each
            spans=[[tracer.table[row][0], start - origin, end - origin, parent, op]
                   for row, start, end, parent, op in spans],
        )
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
