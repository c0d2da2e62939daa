"""Stage-cached execution of :class:`~repro.pipeline.spec.ExperimentSpec`.

``run_experiment`` resolves the experiment parameters (defaults ← quick
profile ← caller overrides), then walks the stages in order.  For each
cacheable stage it derives a content-addressed key from the stage recipe
(kind + implementation + resolved parameters + upstream keys) and consults
the :class:`~repro.pipeline.cache.StageCache`; hits skip the computation
entirely, so re-running a figure after a training-only parameter change
reuses the dataset build, and re-running it unchanged reuses everything but
the report.
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import Any, Dict, List, Mapping, Optional, Union

import numpy as np

from repro.pipeline.cache import MISS, StageCache, recipe_key
from repro.pipeline.spec import ExperimentSpec, get_stage_impl
from repro.simulator.microarch import GPUDevice, MicroArch

#: environment switch for CLI smoke runs (the CI experiment job sets it);
#: honoured by ``python -m repro`` only — library calls to
#: :func:`run_experiment` stay environment-independent
QUICK_ENV = "REPRO_EXP_QUICK"

#: default daemon socket for ``python -m repro run`` (overridden by
#: ``--daemon``); honoured by the CLI only, like :data:`QUICK_ENV`
DAEMON_ENV = "REPRO_SERVE_SOCKET"


@dataclasses.dataclass(frozen=True)
class StageContext:
    """Runtime knobs stage implementations may consult.

    Deliberately *not* part of the cache key: stage outputs must be
    invariant under ``workers`` and under local-vs-daemon execution (the
    campaign sessions guarantee both).  ``daemon`` is the socket path of a
    running :class:`~repro.serve.daemon.ServeDaemon`; tuning stages send
    their search sessions there instead of forking a local pool.
    """

    workers: int = 1
    quick: bool = False
    daemon: Optional[str] = None


@dataclasses.dataclass
class StageRun:
    """How one stage of a run was satisfied."""

    name: str
    kind: str
    impl: str
    cache: str                  # "hit" | "miss" | "uncached" | "disabled"
    key: Optional[str]
    seconds: float


@dataclasses.dataclass
class ExperimentRun:
    """Everything a pipeline run produced."""

    name: str
    params: Dict[str, Any]
    result: Any                       # the final Report stage's output
    text: str                         # human-readable rendering
    stages: List[StageRun]
    outputs: Dict[str, Any]           # every stage's output, by stage name

    @property
    def cache_summary(self) -> Dict[str, int]:
        counts = {"hit": 0, "miss": 0, "uncached": 0, "disabled": 0}
        for stage in self.stages:
            counts[stage.cache] += 1
        return counts


def normalize_params(params: Mapping[str, Any]) -> Dict[str, Any]:
    """Coerce caller-supplied parameters into their declarative (JSON) form."""
    return {key: _normalize(value) for key, value in params.items()}


def _normalize(value: Any) -> Any:
    if isinstance(value, MicroArch):
        return dataclasses.asdict(value)
    if isinstance(value, GPUDevice):
        return dataclasses.asdict(value)
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_normalize(v) for v in value]
    if isinstance(value, Mapping):
        return {k: _normalize(v) for k, v in value.items()}
    return value


def quick_requested() -> bool:
    return os.environ.get(QUICK_ENV, "") == "1"


def run_experiment(experiment: Union[str, ExperimentSpec], *,
                   overrides: Optional[Mapping[str, Any]] = None,
                   quick: bool = False, workers: int = 1,
                   cache_dir: Optional[Union[str, os.PathLike]] = None,
                   daemon: Optional[str] = None,
                   ) -> ExperimentRun:
    """Run one experiment spec through the stage-cached pipeline.

    ``cache_dir=None`` disables stage caching entirely, so every stage
    recomputes.  ``quick=True`` applies the
    spec's quick profile underneath any explicit ``overrides``.
    """
    from repro.pipeline.registry import get_experiment

    if isinstance(experiment, str):
        entry = get_experiment(experiment)
        spec, formatter = entry.spec, entry.formatter
    else:
        spec, formatter = experiment, None
        spec.validate()

    params = spec.resolve(normalize_params(overrides or {}), quick=quick)
    params = normalize_params(params)
    ctx = StageContext(workers=max(1, int(workers)), quick=quick,
                       daemon=daemon)
    cache = StageCache(cache_dir) if cache_dir is not None else None

    outputs: Dict[str, Any] = {}
    keys: Dict[str, str] = {}
    runs: List[StageRun] = []
    for stage in spec.stages:
        started = time.perf_counter()
        stage_params = stage.resolve_params(params)
        inputs = {name: outputs[name] for name in stage.inputs}
        key = None
        status = "uncached"
        output = MISS
        if stage.cacheable:
            key = recipe_key(stage.kind, stage.impl, stage_params,
                             {name: keys[name] for name in stage.inputs})
            keys[stage.name] = key
            if cache is None:
                status = "disabled"
            else:
                output = cache.load(key)
                status = "miss" if output is MISS else "hit"
        if output is MISS:
            impl = get_stage_impl(stage.impl)
            output = impl(ctx, inputs, **stage_params)
            if cache is not None and stage.cacheable:
                cache.store(key, output, metadata={
                    "experiment": spec.name, "stage": stage.name,
                    "impl": stage.impl, "kind": stage.kind})
        outputs[stage.name] = output
        runs.append(StageRun(name=stage.name, kind=stage.kind,
                             impl=stage.impl, cache=status, key=key,
                             seconds=time.perf_counter() - started))

    result = outputs[spec.stages[-1].name]
    text = formatter(result) if formatter is not None else ""
    return ExperimentRun(name=spec.name, params=params, result=result,
                         text=text, stages=runs, outputs=outputs)

