"""Experiment harnesses: one module per paper figure/table, plus ablations.

Each module exposes a frozen ``*Config`` dataclass and
``run(config) -> ExperimentResult``.  The :data:`REGISTRY` maps
experiment ids to ``(config factory, run function)`` and
:func:`run_experiment` is the one way to drive an entry — the CLI's
``run``/``all`` and the store's ``query`` both go through it::

    from repro.experiments import run_experiment
    print(run_experiment("fig07", scale=0.5).to_text())
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable

from repro.exceptions import ExperimentError
from repro.experiments import (
    ablation_defense,
    ablation_engine,
    ablation_false_positives,
    ablation_monitors,
    ablation_scale,
    fig01_facebook_replay,
    fig05_prepending_fraction,
    fig06_padding_counts,
    fig07_tier1_pairs,
    fig08_random_pairs,
    fig09_tier1_vs_tier1,
    fig10_tier1_vs_tier3,
    fig11_stub_vs_tier1,
    fig12_stub_vs_stub,
    fig13_detection_accuracy,
    fig14_pollution_before_detection,
    figD1_deployment_sweep,
    figD2_policy_tiers,
    figM1_time_to_recovery,
    figM2_feed_loss,
    table1_traceroute,
)
from repro.experiments.base import ExperimentResult, ExperimentWorld, build_world
from repro.telemetry.metrics import RunMetrics

__all__ = [
    "REGISTRY",
    "ExperimentResult",
    "ExperimentWorld",
    "build_world",
    "experiment_config",
    "run_experiment",
]

#: experiment id -> (config factory, run function)
REGISTRY: dict[str, tuple[Callable[[], object], Callable[..., ExperimentResult]]] = {
    "table1": (table1_traceroute.Table1Config, table1_traceroute.run),
    "fig01": (fig01_facebook_replay.Fig01Config, fig01_facebook_replay.run),
    "fig05": (fig05_prepending_fraction.Fig05Config, fig05_prepending_fraction.run),
    "fig06": (fig06_padding_counts.Fig06Config, fig06_padding_counts.run),
    "fig07": (fig07_tier1_pairs.Fig07Config, fig07_tier1_pairs.run),
    "fig08": (fig08_random_pairs.Fig08Config, fig08_random_pairs.run),
    "fig09": (fig09_tier1_vs_tier1.Fig09Config, fig09_tier1_vs_tier1.run),
    "fig10": (fig10_tier1_vs_tier3.Fig10Config, fig10_tier1_vs_tier3.run),
    "fig11": (fig11_stub_vs_tier1.Fig11Config, fig11_stub_vs_tier1.run),
    "fig12": (fig12_stub_vs_stub.Fig12Config, fig12_stub_vs_stub.run),
    "fig13": (fig13_detection_accuracy.Fig13Config, fig13_detection_accuracy.run),
    "fig14": (
        fig14_pollution_before_detection.Fig14Config,
        fig14_pollution_before_detection.run,
    ),
    "figD1": (figD1_deployment_sweep.FigD1Config, figD1_deployment_sweep.run),
    "figD2": (figD2_policy_tiers.FigD2Config, figD2_policy_tiers.run),
    "figM1": (figM1_time_to_recovery.FigM1Config, figM1_time_to_recovery.run),
    "figM2": (figM2_feed_loss.FigM2Config, figM2_feed_loss.run),
    "ablation-engine": (ablation_engine.AblationEngineConfig, ablation_engine.run),
    "ablation-monitors": (
        ablation_monitors.AblationMonitorsConfig,
        ablation_monitors.run,
    ),
    "ablation-defense": (
        ablation_defense.AblationDefenseConfig,
        ablation_defense.run,
    ),
    "ablation-scale": (
        ablation_scale.AblationScaleConfig,
        ablation_scale.run,
    ),
    "ablation-fp": (
        ablation_false_positives.AblationFalsePositivesConfig,
        ablation_false_positives.run,
    ),
}


def experiment_config(experiment_id: str, config: object | None = None, **overrides):
    """The config a registered experiment runs with.

    ``config`` defaults to the registered factory's; ``overrides``
    replace individual fields — ``None`` values and fields the config
    lacks are ignored, so one set of CLI flags serves every experiment.
    """
    if experiment_id not in REGISTRY:
        known = ", ".join(sorted(REGISTRY))
        raise ExperimentError(f"unknown experiment {experiment_id!r}; known: {known}")
    if config is None:
        config = REGISTRY[experiment_id][0]()
    applicable = {
        field.name: overrides[field.name]
        for field in dataclasses.fields(config)
        if overrides.get(field.name) is not None
    }
    return dataclasses.replace(config, **applicable) if applicable else config


def run_experiment(
    experiment_id: str,
    config: object | None = None,
    *,
    metrics: RunMetrics | None = None,
    **overrides,
) -> ExperimentResult:
    """Run a registered experiment by id: registry lookup,
    :func:`experiment_config`, then the run function, which records
    into ``metrics``."""
    config = experiment_config(experiment_id, config, **overrides)
    return REGISTRY[experiment_id][1](config, metrics=metrics)
