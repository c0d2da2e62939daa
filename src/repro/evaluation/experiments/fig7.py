"""Figure 7 + Table 2: the larger search space (threads × schedule × chunk).

Leave-one-application-out validation over PolyBench + Rodinia + LULESH on the
Skylake 10c/20t system with the Table-2 search space.  Expected shape: MGA
normalised speedups ≥0.95 for most applications and above ytopt / OpenTuner /
BLISS for most applications; ``trisolv`` remains the worst case.

Declared as the ``fig7`` experiment spec; run it with
``python -m repro run fig7`` or ``run_experiment("fig7")``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.evaluation.experiments.common import oracle_speedups
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

_SPLIT = {"type": "loao"}


def default_applications(max_apps: Optional[int] = None) -> List[str]:
    """PolyBench + Rodinia subset + LULESH (30 applications in the paper)."""
    poly = [f"polybench/{name}" for name in
            ("2mm", "lu", "syrk", "convolution-2d", "correlation", "fdtd-2d",
             "seidel-2d", "jacobi-2d", "trmm", "fdtd-apml", "gemm", "trisolv",
             "doitgen", "mvt", "gemver", "covariance", "gesummv", "symm",
             "gramschmidt", "bicg", "durbin", "syr2k", "cholesky", "adi",
             "atax")]
    rodinia = [f"rodinia/{name}" for name in
               ("backprop", "nn", "kmeans", "streamcluster")]
    apps = poly + rodinia + ["lulesh/lulesh"]
    return apps[:max_apps] if max_apps else apps


@stage_impl("fig7.report")
def _report(ctx, inputs, *, split, include_search):
    dataset = inputs["dataset"]
    search = inputs["search"]["speedups"]
    dl = inputs["dl"]["speedups"]
    labels, splits = resolve_splits(dataset, split)
    per_app: Dict[str, Dict[str, float]] = {}
    for fold, (kernel, (_, val_idx)) in enumerate(zip(labels, splits)):
        oracle = geometric_mean(oracle_speedups(dataset, val_idx))
        row: Dict[str, float] = {"Oracle": oracle}
        row["MGA"] = geometric_mean(dl["MGA"][fold])
        if include_search:
            for name in SEARCH_DISPLAY_ORDER:
                row[name] = geometric_mean(search[name][fold])
        per_app[kernel] = row

    mga_norm = [row["MGA"] / row["Oracle"] for row in per_app.values()
                if row["Oracle"] > 0]
    summary = {
        "geomean_mga": geometric_mean([row["MGA"] for row in per_app.values()]),
        "geomean_oracle": geometric_mean([row["Oracle"]
                                          for row in per_app.values()]),
        "apps_above_095": sum(1 for v in mga_norm if v >= 0.95),
        "apps_above_085": sum(1 for v in mga_norm if v >= 0.85),
        "num_apps": len(per_app),
        "search_space_size": dataset.num_configs,
    }
    return {"per_app": per_app, "summary": summary, "dataset": dataset}


SPEC = ExperimentSpec(
    name="fig7",
    title="Larger search space, leave-one-application-out (Fig. 7 / Table 2)",
    description="MGA vs the search tuners over the Table-2 "
                "threads × schedule × chunk space on Skylake.",
    params={
        "arch": "skylake_4114",
        "max_apps": None,
        "num_inputs": 6,
        "epochs": 20,
        "budget": 10,
        "include_search": True,
        "seed": 0,
        "chunks": [1, 8, 32, 64, 128, 256, 512],
        "threads": [1, 2, 4, 8, 12, 16, 20],
    },
    stages=(
        BuildDataset(impl="openmp.dataset", name="dataset", params={
            "arch": ref("arch"),
            "space": {"type": "full", "threads": ref("threads"),
                      "chunks": ref("chunks")},
            "kernels": {"select": "applications", "max": ref("max_apps")},
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
                        "approaches": ["MGA"],
                        "epochs": ref("epochs"),
                        "seed": ref("seed"),
                    }),
        Report(impl="fig7.report", name="report",
               inputs=("dataset", "search", "dl"), params={
                   "split": _SPLIT,
                   "include_search": ref("include_search"),
               }),
    ),
    quick={"max_apps": 4, "num_inputs": 2, "epochs": 4, "budget": 4},
)


def format_result(result: Dict[str, object]) -> str:
    lines = ["Figure 7 / Table 2: larger search space "
             f"({result['summary']['search_space_size']} configurations), "
             "leave-one-application-out"]
    header = f"  {'application':<28}" + "".join(
        f"{name:>11}" for name in next(iter(result["per_app"].values())))
    lines.append(header)
    for app, row in result["per_app"].items():
        lines.append(f"  {app:<28}" + "".join(f"{v:11.2f}" for v in row.values()))
    s = result["summary"]
    lines.append(f"  geomean: MGA {s['geomean_mga']:.2f}x vs oracle "
                 f"{s['geomean_oracle']:.2f}x; "
                 f"{s['apps_above_095']}/{s['num_apps']} apps ≥0.95 normalised, "
                 f"{s['apps_above_085']}/{s['num_apps']} ≥0.85")
    return "\n".join(lines)


register_experiment(SPEC, format_result)
