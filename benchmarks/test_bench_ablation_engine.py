"""Ablation bench: worklist engine vs the paper's three-phase algorithm."""

from repro.telemetry.metrics import RunMetrics


def test_bench_ablation_engine(run_recorded):
    metrics = RunMetrics()
    result = run_recorded("ablation-engine", metrics=metrics)
    # The general engine must agree with the Figure-2 oracle everywhere;
    # the cost of its generality stays within an order of magnitude.
    assert result.summary["disagreements"] == 0
    engine = metrics.timers["experiment.ablation-engine.engine_seconds"].total
    oracle = metrics.timers["experiment.ablation-engine.oracle_seconds"].total
    engine_over_oracle = engine / oracle
    print(f"engine_over_oracle = {engine_over_oracle:.3g}")
    assert engine_over_oracle < 10
