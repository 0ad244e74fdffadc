#!/usr/bin/env python3
"""End-to-end benchmark of the ``repro-aspp`` CLI (see README.md here).

    python3 benchmarks/e2e/run.py                       # every workload, both kinds of run
    python3 benchmarks/e2e/run.py --workload grid-10k   # one workload
    python3 benchmarks/e2e/run.py --repeat 2            # twice, differences beside bounds
    python3 benchmarks/e2e/run.py --self-test           # tracer arithmetic and unwrapping

    # the form the driver uses: one run, one JSON object as the last line
    python3 benchmarks/e2e/run.py --workload grid-10k --seed 7 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracer installed;
``--trace 1`` measures the per-layer metrics.  Metric names,
units and bounds are read from ``BENCHMARK.json`` at the repo root.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

sys.dont_write_bytecode = True

from spans import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SCRATCH = ROOT / ".bench_tmp"
#: all the children of one run together; the driver allows 180 s
RUN_TIMEOUT_S = 170
MIN_COVERAGE = 0.90
MAX_OVERHEAD_PCT = 5.0
#: "coarse calls only": a span costs about a microsecond, so this many
#: are well under one percent of the shortest pass
MAX_SPANS = 50_000
#: counts that legitimately differ between two runs of one commit
UNSTABLE_COUNTS = {"run.passes", "runner.shm.tracker_errors"}
#: how a per-layer metric of this unit scales with the machine's speed
SPEED_POWER = {"s": 1, "ms": 1, "us": 1, "1/s": -1}


class ChildFailed(RuntimeError):
    pass


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_child(name: str, seed: int, seconds: float, trace: int, tmp: Path, setup_only: bool,
              deadline: float):
    """One fresh process; returns its result with the tracker noise counted."""
    result_path = tmp / "result.json"
    command = [
        sys.executable, str(HERE / "child.py"), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--tmp", str(tmp),
        "--result", str(result_path),
    ] + (["--setup-only"] if setup_only else [])
    env = dict(
        os.environ,
        PYTHONHASHSEED="0",
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONPATH=str(ROOT / "src"),
    )
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{name}: the run exceeded {RUN_TIMEOUT_S} s") from exc
    if done.returncode != 0 or not result_path.exists():
        raise ChildFailed(f"{name}: child exited {done.returncode}\n{done.stderr[-2000:]}")
    result = json.loads(result_path.read_text())
    # ROADMAP 5e: shm unlink races print these instead of failing anything
    result["tracker_errors"] = done.stderr.count("KeyError: '/psm_")
    return result


def measure(name: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    """One run of one workload: the set-ups, then the measuring child."""
    reps = WORKLOADS[name].setup_reps if trace == 0 else 1
    deadline = time.monotonic() + RUN_TIMEOUT_S
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=SCRATCH))
    try:
        setups = []
        for rep in range(reps):
            sub = tmp / str(rep)
            sub.mkdir()
            result = run_child(name, seed, seconds, trace, sub, rep < reps - 1, deadline)
            setups.append(result["setup_s"])
            shutil.rmtree(sub)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still be using it
            SCRATCH.rmdir()
    result["setup_s"] = statistics.median(setups)
    result["setups"] = setups
    if trace:
        layers = result["layers"]
        passes = 1 + result["passes"] * 2
        layers["runner.shm.tracker_errors"] = result["tracker_errors"] / passes
        # the child recorded seconds as they passed; report them at reference speed
        for metric in spec["per_layer"]:
            power = SPEED_POWER.get(metric["unit"])
            if power:
                layers[metric["name"]] *= result["speed"] ** power
        failures = route_failures(name, layers)
        result["failures"] += failures
        result["failed"] += len(failures)
    return result


def route_failures(name: str, layers: dict) -> list[str]:
    """A number is only worth recording if it timed the route it names."""
    failures = []
    if name == "stream-200k" and layers["detection.pipeline.faults"] == 0:
        failures.append("no feed fault fired: the tolerant path was not exercised")
    if name == "store-warm":
        ran = sum(value for key, value in layers.items() if key.endswith("_propagations"))
        if ran:
            failures.append(f"{ran:g} propagations in a pass that should only read the store")
        if layers["store.hit_ratio"] < 1:
            failures.append(f"store.hit_ratio {layers['store.hit_ratio']:.3f} < 1")
    if name == "pool-10k":
        for key in ("runner.shm.graph_pickles", "runner.pool.restarts"):
            if layers[key]:
                failures.append(
                    f"{key} = {layers[key]:g}: workers did not take the shared-memory route"
                )
    if name != "store-warm" and layers["trace.coverage"] < MIN_COVERAGE:
        failures.append(f"trace.coverage {layers['trace.coverage']:.3f} < {MIN_COVERAGE}")
    if layers["trace.spans"] > MAX_SPANS:
        failures.append(
            f"trace.spans {layers['trace.spans']:g} > {MAX_SPANS}: a wrapped call is not coarse"
        )
    return failures


def report(name: str, seed: int, result: dict, spec: dict, trace: int) -> dict:
    """Print one run by metric name with unit; returns the driver's object."""
    workload = WORKLOADS[name]
    print(f"== {name} (seed {seed}, --trace {trace}) - {workload.why}")
    if trace == 0:
        print(f"end-to-end: medians of {result['passes']} timed passes, tracing off; "
              f"set-up is the median of {len(result['setups'])}; seconds are at reference "
              f"speed with steal taken out (speed {result['speed']:.3f}, steal "
              f"{result['steal_pct']:.1f}%, raw wall {result['raw_wall_s']:.4f} s)")
        metrics = {}
        for metric in spec["end_to_end"]:
            value = result[metric["name"]]
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
            print(f"  {metric['name']:<42} {value:>14.4f} {metric['unit']:<6} "
                  f"bound {metric['bound']:.0%}")
        print(f"  {'error_rate':<42} {result['failed'] / result['attempted']:>14.4f} ratio  "
              f"({result['failed']} failed / {result['attempted']} ops)")
    else:
        layers = result["layers"]
        print(f"per-layer: medians of {result['passes']} traced passes, each beside an "
              "untraced one; times are at reference speed")
        metrics = {}
        for metric in spec["per_layer"]:
            value = layers[metric["name"]]
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
            print(f"  {metric['name']:<42} {value:>14.4f} {metric['unit']}")
        over = layers["trace.overhead_pct"] > MAX_OVERHEAD_PCT
        print(f"trace.coverage {layers['trace.coverage']:.3f} (limit >= {MIN_COVERAGE}, "
              f"store-warm exempt); trace.overhead_pct {layers['trace.overhead_pct']:+.2f} "
              f"(limit <= {MAX_OVERHEAD_PCT:g}{', OVER' if over else ''}; beside "
              f"run.wall_iqr_pct {layers['run.wall_iqr_pct']:.2f}); "
              f"trace.spans {layers['trace.spans']:g} (limit <= {MAX_SPANS})")
        print("trace.unavailable: " + (", ".join(result["unavailable"]) or "none"))
        if name == "grid-10k":
            print("routes: requested compiled/full for {:g} cells; executed cold={:g} warm={:g} "
                  "delta={:g} vectorized={:g} fallbacks={:g}".format(
                      layers["runner.tasks.cells"],
                      layers["bgp.engine.cold_propagations"],
                      layers["bgp.engine.warm_propagations"],
                      layers["bgp.engine.delta_propagations"],
                      layers["bgp.engine.vectorized_propagations"],
                      layers["bgp.engine.vectorized_fallbacks"]
                      + layers["bgp.engine.delta_fallbacks"]))
        print("span table (last traced pass as the clock read, busiest self time first):")
        print(f"  {'target':<62} {'calls':>7} {'total_s':>9} {'self_s':>9}")
        for row in result["span_summary"]:
            print(f"  {row['target']:<62} {row['calls']:>7} {row['total_s']:>9.4f} "
                  f"{row['self_s']:>9.4f}")
    for failure in result["failures"]:
        print(f"FAILED: {failure}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def compare(spec: dict, first: dict, second: dict) -> bool:
    """Print how far two runs of one commit sit apart; the timings beside
    their bound, the counts required to be identical."""
    same = True
    print("== two runs of the same commit")
    for name in first:
        for metric in spec["end_to_end"]:
            a, b = first[name][0][metric["name"]], second[name][0][metric["name"]]
            apart = abs(b - a) / a
            flag = "  OVER" if apart > metric["bound"] else ""
            print(f"  {name:<12} {metric['name']:<12} {a:>10.4f} {b:>10.4f} "
                  f"{apart:>7.1%} of bound {metric['bound']:.0%}{flag}")
        for metric in spec["per_layer"]:
            key = metric["name"]
            if metric["unit"] != "count" or key in UNSTABLE_COUNTS:
                continue
            a, b = first[name][1]["layers"][key], second[name][1]["layers"][key]
            if a != b:
                same = False
                print(f"  {name:<12} {key}: {a:g} then {b:g} - counts must repeat exactly")
    if same:
        print("  every count-type per-layer metric repeated exactly")
    return same


def provenance() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "host": platform.node(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit or "unknown",
    }


def self_test() -> int:
    """Self-time arithmetic on a toy call tree under a fake clock, and
    that unwrapping restores every binding."""
    ticks = iter(range(1000))
    toy = types.ModuleType("e2e_toy")
    user = types.ModuleType("e2e_toy.user")

    def leaf():
        next(ticks)  # one tick of own work

    def branch():
        toy.leaf()
        toy.leaf()

    class Box:
        def method(self):
            toy.branch()

        @classmethod
        def build(cls):
            return cls()

    toy.leaf, toy.branch, toy.Box = leaf, branch, Box
    user.alias = leaf
    sys.modules.update({"e2e_toy": toy, "e2e_toy.user": user})
    try:
        before = (toy.leaf, toy.branch, user.alias, vars(Box)["method"], vars(Box)["build"])
        tracer = Tracer(
            [("e2e_toy.leaf", "leaf_s", "leaf_calls"), ("e2e_toy.branch", "branch_s", None),
             ("e2e_toy.Box.method", "method_s", None), ("e2e_toy.Box.build", "build_s", None),
             ("e2e_toy.gone", "gone_s", None), ("e2e_toy.Box.gone", "gone_s", None)],
            clock=lambda: float(next(ticks)), prefix="e2e_toy",
        )
        tracer.install()
        assert tracer.unavailable == ["e2e_toy.gone", "e2e_toy.Box.gone"], tracer.unavailable
        assert user.alias is toy.leaf is not leaf, "alias in another module not re-bound"
        Box.build().method()
        spans = tracer.take()
        tracer.uninstall()
        after = (toy.leaf, toy.branch, user.alias, vars(Box)["method"], vars(Box)["build"])
        assert all(a is b for a, b in zip(before, after)), "a binding was not restored"
        # build(0..1) then method(2..11) > branch(3..10) > leaf(4..6), leaf(7..9)
        shape = [(span[0], span[3]) for span in spans]
        assert shape == [(3, None), (2, None), (1, 1), (0, 2), (0, 2)], shape
        own, roots = self_times(spans)
        assert own == [1.0, 2.0, 3.0, 2.0, 2.0], own
        assert roots == 10.0 == sum(own), (roots, own)
        Box().method()
        assert tracer.spans == [], "an unwrapped call still recorded a span"
    finally:
        del sys.modules["e2e_toy"], sys.modules["e2e_toy.user"]
    print("self-test passed: self times sum to the root spans, every binding restored")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all six")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="one kind of run only; its metrics as JSON on the last line")
    parser.add_argument("--repeat", type=int, default=1, help="run everything this many times")
    parser.add_argument("--out", type=Path, help="write every result, spans included, as JSON")
    parser.add_argument("--update-expected", action="store_true",
                        help="record the output digests of this run in expected.json")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"run.py: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.trace is not None and args.workload is None:
        parser.error("--trace needs --workload")
    spec = declared()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = [args.workload] if args.workload else list(WORKLOADS)
    traces = (0, 1) if args.trace is None else (args.trace,)

    rounds, last, correct = [], None, True
    for _ in range(args.repeat):
        rounds.append({})
        for name in names:
            for trace in traces:
                try:
                    result = measure(name, args.seed, seconds, trace, spec)
                except ChildFailed as exc:
                    print(f"FAILED: {exc}", file=sys.stderr)
                    return 1
                last = report(name, args.seed, result, spec, trace)
                correct = correct and last["correct"]
                rounds[-1].setdefault(name, {})[trace] = result
    if args.repeat > 1 and args.trace is None:
        correct = compare(spec, rounds[0], rounds[1]) and correct
    if args.update_expected:
        path = HERE / "expected.json"
        recorded = json.loads(path.read_text()) if path.exists() else {}
        if recorded.get("seed") != args.seed:
            recorded = {"seed": args.seed, "digests": {}}
        for results in rounds[0].values():
            recorded["digests"].update(results[traces[0]]["digests"])
        recorded["digests"] = dict(sorted(recorded["digests"].items()))
        path.write_text(json.dumps(recorded, indent=1) + "\n")
    if args.out:
        args.out.write_text(json.dumps({**provenance(), "seed": args.seed, "seconds": seconds,
                                        "rounds": rounds}, indent=1) + "\n")
    if args.trace is not None:
        print(json.dumps(last))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
