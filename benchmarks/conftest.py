"""Shared benchmark plumbing.

Every benchmark regenerates one of the paper's tables or figures at
full default scale, records the rendered rows under
``benchmarks/results/<id>.txt`` (the inputs to EXPERIMENTS.md), prints
them (visible with ``pytest -s``), and asserts the paper's qualitative
shape so a silent regression fails the bench.

Experiments run once per benchmark (``pedantic`` with a single round):
the interesting number is the wall-clock of one full regeneration, not
a micro-benchmark distribution.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import REGISTRY
from repro.experiments.base import ExperimentResult

RESULTS_DIR = Path(__file__).parent / "results"


def record(result: ExperimentResult) -> None:
    """Persist and print a regenerated artefact."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{result.experiment_id}.txt").write_text(result.to_text() + "\n")
    print("\n" + result.to_text())


@pytest.fixture()
def run_recorded(benchmark):
    """Run a registered experiment once under the benchmark timer."""

    def runner(experiment_id: str, config=None, metrics=None) -> ExperimentResult:
        config_factory, run = REGISTRY[experiment_id]
        cfg = config if config is not None else config_factory()
        kwargs = {"metrics": metrics} if metrics is not None else {}
        result = benchmark.pedantic(run, args=(cfg,), kwargs=kwargs, rounds=1, iterations=1)
        record(result)
        return result

    return runner
