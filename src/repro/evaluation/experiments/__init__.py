"""Experiment specs regenerating every table and figure of the paper.

Each module declares one :class:`~repro.pipeline.spec.ExperimentSpec` —
typed stages (dataset build, DL training, black-box search, report) over
experiment-level parameters — and registers it with
:mod:`repro.pipeline.registry`, plus a ``format_result(...)`` helper that
prints the rows / series the paper reports.

The one entry point is ``python -m repro run <experiment>`` (or
:func:`repro.pipeline.run_experiment`), which adds stage caching and
multiprocess tuning fan-out.
"""

from repro.evaluation.experiments import common

__all__ = ["common"]
