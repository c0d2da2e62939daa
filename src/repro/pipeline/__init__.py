"""The unified experiment pipeline: declarative specs, stage-cached runs.

Every figure/table of the paper is an :class:`ExperimentSpec` — pure data
describing typed stages (:class:`BuildDataset`, :class:`TrainModels`,
:class:`TuneCandidates`, :class:`Report`) over experiment-level parameters.
:func:`run_experiment` executes a spec with content-addressed stage caching
(:class:`StageCache`, backed by :mod:`repro.serve` artifacts), fans tuning
stages out through :class:`~repro.tuners.campaign.TuningCampaign` sessions
(``workers=N``), and renders the paper-style report.

The one CLI for every figure::

    python -m repro list
    python -m repro describe fig4
    python -m repro run fig4 --workers 4 --quick --cache ~/.cache/repro

Library use::

    >>> from repro.pipeline import run_experiment
    >>> run = run_experiment("fig4", overrides={"epochs": 10}, workers=4,
    ...                      cache_dir="~/.cache/repro/stages")
    >>> print(run.text)
"""

from repro.pipeline.spec import (
    BuildDataset,
    ExperimentSpec,
    Report,
    StageSpec,
    TrainModels,
    TuneCandidates,
    get_stage_impl,
    ref,
    stage_impl,
)
from repro.pipeline.cache import StageCache, recipe_key
from repro.pipeline.registry import (
    EXPERIMENT_MODULES,
    RegisteredExperiment,
    describe,
    experiment_names,
    get_experiment,
    get_spec,
    load_all,
    register_experiment,
)
from repro.pipeline.runner import (
    ExperimentRun,
    StageContext,
    StageRun,
    run_experiment,
)

__all__ = [
    "ExperimentSpec",
    "StageSpec",
    "BuildDataset",
    "TrainModels",
    "TuneCandidates",
    "Report",
    "ref",
    "stage_impl",
    "get_stage_impl",
    "StageCache",
    "recipe_key",
    "EXPERIMENT_MODULES",
    "RegisteredExperiment",
    "register_experiment",
    "experiment_names",
    "get_experiment",
    "get_spec",
    "load_all",
    "describe",
    "ExperimentRun",
    "StageRun",
    "StageContext",
    "run_experiment",
]
