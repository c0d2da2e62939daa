"""Figure 5: impact of static and dynamic features (ablation study).

Models trained with both static and dynamic features (MGA, IR2Vec, PROGRAML)
are compared with their static-only variants, a dynamic-only model and the
search tuners, on a randomized 80/20 split.  Expected shape: static+dynamic >
static-only > dynamic-only, and all DL models above the search tuners.

Declared as the ``fig5`` experiment spec; run it with
``python -m repro run fig5`` or ``run_experiment("fig5")``.
"""

from __future__ import annotations

from typing import Dict

from repro.evaluation.metrics import geometric_mean
from repro.pipeline.registry import register_experiment
from repro.pipeline.spec import (
    BuildDataset,
    ExperimentSpec,
    Report,
    TrainModels,
    TuneCandidates,
    ref,
    stage_impl,
)
from repro.pipeline.stages import SEARCH_DISPLAY_ORDER, resolve_splits

#: static-only variants first, then full models — the paper's reading order
_DL_ORDER = ("MGA-Static", "IR2Vec-Static", "PROGRAML-Static", "Dynamic Only",
             "MGA", "IR2Vec", "PROGRAML")
_SPLIT = {"type": "holdout", "fraction": ref("holdout"), "seed": ref("seed")}


@stage_impl("fig5.report")
def _report(ctx, inputs, *, split, include_search):
    dataset = inputs["dataset"]
    search = inputs["search"]["speedups"]
    dl = inputs["dl"]["speedups"]
    _, splits = resolve_splits(dataset, split)
    _, val_idx = splits[0]
    results: Dict[str, float] = {}
    if include_search:
        for name in SEARCH_DISPLAY_ORDER:
            results[name] = geometric_mean(search[name][0])
    for name in _DL_ORDER:
        results[name] = geometric_mean(dl[name][0])
    results["Oracle"] = geometric_mean(
        [dataset.samples[i].oracle_speedup for i in val_idx])
    return results


SPEC = ExperimentSpec(
    name="fig5",
    title="Static vs dynamic feature ablation (Figure 5)",
    description="Geomean speedups of full, static-only and dynamic-only "
                "models plus the search tuners on an 80/20 split.",
    params={
        "arch": "comet_lake",
        "max_kernels": 45,
        "num_inputs": 10,
        "epochs": 25,
        "budget": 10,
        "include_search": True,
        "holdout": 0.2,
        "seed": 0,
    },
    stages=(
        BuildDataset(impl="openmp.dataset", name="dataset", params={
            "arch": ref("arch"),
            "space": {"type": "threads"},
            "kernels": {"select": "openmp", "max": ref("max_kernels")},
            "targets": {"num": ref("num_inputs")},
            "seed": ref("seed"),
        }),
        TuneCandidates(impl="openmp.search_speedups", name="search",
                       inputs=("dataset",), params={
                           "split": _SPLIT,
                           "budget": ref("budget"),
                           "seed": ref("seed"),
                           "enabled": ref("include_search"),
                       }),
        TrainModels(impl="openmp.dl_speedups", name="dl",
                    inputs=("dataset",), params={
                        "split": _SPLIT,
                        "approaches": list(_DL_ORDER),
                        "epochs": ref("epochs"),
                        "seed": ref("seed"),
                    }),
        Report(impl="fig5.report", name="report",
               inputs=("dataset", "search", "dl"), params={
                   "split": _SPLIT,
                   "include_search": ref("include_search"),
               }),
    ),
    quick={"max_kernels": 6, "num_inputs": 3, "epochs": 4, "budget": 4},
)


def format_result(result: Dict[str, float]) -> str:
    lines = ["Figure 5: static vs dynamic feature ablation "
             "(geomean speedup over default)"]
    for name, value in result.items():
        lines.append(f"  {name:<16} {value:6.2f}x")
    return "\n".join(lines)


register_experiment(SPEC, format_result)
