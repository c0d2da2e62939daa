"""Figure 4: OpenMP thread prediction, 5-fold cross-validation.

Per fold: geometric-mean speedup over the default configuration for Default /
ytopt / OpenTuner / BLISS / PROGRAML / IR2Vec / MGA / Oracle, normalised by
the oracle speedup.  Expected shape (paper): MGA is the closest to the oracle
(≥0.95 in most folds), followed by IR2Vec, PROGRAML, then the search tuners.

Declared as the ``fig4`` experiment spec (dataset → search → DL → report);
run it with ``python -m repro run fig4`` or ``run_experiment("fig4")``.
"""

from __future__ import annotations

from typing import Dict, List

from repro.evaluation.experiments.common import (
    ApproachResult,
    default_speedups,
    format_normalized_table,
    normalized_table,
    oracle_speedups,
)
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

_DL_ORDER = ("MGA", "IR2Vec", "PROGRAML")
_SPLIT = {"type": "kfold_kernel", "k": ref("folds"), "seed": ref("seed")}


@stage_impl("fig4.report")
def _report(ctx, inputs, *, split, include_search):
    dataset = inputs["dataset"]
    search = inputs["search"]["speedups"]
    dl = inputs["dl"]["speedups"]
    _, splits = resolve_splits(dataset, split)
    fold_results: List[Dict[str, ApproachResult]] = []
    for fold, (_, val_idx) in enumerate(splits):
        result = {"Default": ApproachResult("Default",
                                            default_speedups(val_idx))}
        if include_search:
            for name in SEARCH_DISPLAY_ORDER:
                result[name] = ApproachResult(name, search[name][fold])
        for name in _DL_ORDER:
            result[name] = ApproachResult(name, dl[name][fold])
        result["Oracle"] = ApproachResult("Oracle",
                                          oracle_speedups(dataset, val_idx))
        fold_results.append(result)
    table = normalized_table(fold_results)
    absolute = {name: [fold[name].geomean for fold in fold_results]
                for name in fold_results[0]}
    return {
        "dataset": dataset,
        "fold_results": fold_results,
        "normalized": table,
        "absolute": absolute,
    }


SPEC = ExperimentSpec(
    name="fig4",
    title="OpenMP thread prediction, 5-fold cross-validation (Figure 4)",
    description="Normalised geomean speedups of every approach per "
                "unseen-loop fold on the Comet Lake thread space.",
    params={
        "arch": "comet_lake",
        "max_kernels": 45,
        "num_inputs": 10,
        "folds": 5,
        "epochs": 25,
        "budget": 10,
        "include_search": True,
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
        Report(impl="fig4.report", name="report",
               inputs=("dataset", "search", "dl"), params={
                   "split": _SPLIT,
                   "include_search": ref("include_search"),
               }),
    ),
    quick={"max_kernels": 6, "num_inputs": 3, "folds": 2, "epochs": 4,
           "budget": 4},
)


def format_result(result: Dict[str, object]) -> str:
    lines = ["Figure 4: thread prediction (normalised speedups per fold)"]
    lines.append(format_normalized_table(result["normalized"]))
    lines.append("")
    lines.append("Absolute geometric-mean speedups over the default (per fold):")
    for name, values in result["absolute"].items():
        row = ", ".join(f"{v:.2f}x" for v in values)
        lines.append(f"  {name:<12} {row}")
    return "\n".join(lines)


register_experiment(SPEC, format_result)
