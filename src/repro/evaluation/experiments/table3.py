"""Table 3: OpenCL heterogeneous device mapping (accuracy, F1, speedups).

10-fold stratified cross-validation over the device-mapping dataset for each
GPU (AMD Tahiti 7970, NVIDIA GTX 970), comparing the MGA model against
Grewe et al., DeepTune, inst2vec, PROGRAML-only and IR2Vec-only baselines,
plus speedups over the static mapping.  Expected shape: MGA has the highest
accuracy (~98% in the paper) and the best speedup relative to the oracle.

Declared as the ``table3`` experiment spec; run it with
``python -m repro run table3`` or ``run_experiment("table3")``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.evaluation.metrics import geometric_mean
from repro.pipeline.registry import register_experiment
from repro.pipeline.spec import (
    BuildDataset,
    ExperimentSpec,
    Report,
    TrainModels,
    ref,
    stage_impl,
)
from repro.simulator.microarch import gpu_from_config

_DEFAULT_BASELINES = ["Static mapping", "Grewe et al.", "DeepTune",
                      "inst2vec", "IR2Vec", "PROGRAML"]


def _speedup_over_static(dataset, indices: Sequence[int],
                         predictions: np.ndarray, static_label: int) -> float:
    static_times = [dataset.samples[i].time_of(static_label) for i in indices]
    chosen_times = [dataset.samples[i].time_of(int(p))
                    for i, p in zip(indices, predictions)]
    return geometric_mean(np.array(static_times) / np.array(chosen_times))


def _make_approaches(include: Sequence[str], seed: int):
    from repro.core.mga import ModalityConfig
    from repro.core.tuner import DeviceMapper
    from repro.tuners.devmap_baselines import (
        DeepTuneBaseline,
        GreweBaseline,
        Inst2VecBaseline,
        StaticMappingBaseline,
        XGBoostLikeBaseline,
    )

    factories = {
        "Static mapping": lambda: StaticMappingBaseline(),
        "Grewe et al.": lambda: GreweBaseline(seed=seed),
        "DeepTune": lambda: DeepTuneBaseline(seed=seed),
        "inst2vec": lambda: Inst2VecBaseline(seed=seed),
        "IR2Vec": lambda: DeviceMapper(modalities=ModalityConfig.ir2vec(),
                                       seed=seed),
        "IR2Vec-GBT": lambda: XGBoostLikeBaseline(seed=seed),
        "PROGRAML": lambda: DeviceMapper(modalities=ModalityConfig.programl(),
                                         seed=seed),
        "MGA": lambda: DeviceMapper(modalities=ModalityConfig.mga(), seed=seed),
    }
    selected = {name: factories[name] for name in include if name in factories}
    selected["MGA"] = factories["MGA"]
    return selected


@stage_impl("table3.datasets")
def _datasets(ctx, inputs, *, gpus, max_kernels, points_per_kernel, seed):
    from repro.datasets.devmap import DevMapDatasetBuilder
    from repro.kernels import registry

    specs = registry.opencl_kernels()
    if max_kernels is not None:
        specs = specs[:max_kernels]
    datasets = {}
    for gpu_config in gpus:
        gpu = gpu_from_config(gpu_config)
        builder = DevMapDatasetBuilder(gpu, seed=seed)
        datasets[gpu.name] = builder.build(
            specs, points_per_kernel=points_per_kernel)
    return {"datasets": datasets}


@stage_impl("table3.evaluate")
def _evaluate(ctx, inputs, *, folds, epochs, seed, include_baselines):
    from repro.core.tuner import DeviceMapper
    from repro.nn import accuracy as accuracy_fn
    from repro.nn import f1_score

    raw: Dict[str, Dict[str, object]] = {}
    for gpu_name, dataset in inputs["datasets"]["datasets"].items():
        static_label = dataset.static_mapping_label()
        approaches = _make_approaches(include_baselines, seed)
        per_approach: Dict[str, Dict[str, List[float]]] = {
            name: {"acc": [], "f1": [], "speedup": []} for name in approaches}
        oracle_speedups: List[float] = []
        for train_idx, val_idx in dataset.stratified_kfold(k=folds, seed=seed):
            y_true = dataset.labels(dataset.subset(val_idx))
            for name, factory in approaches.items():
                model = factory()
                if isinstance(model, DeviceMapper):
                    model.fit(dataset, train_indices=train_idx, epochs=epochs)
                    preds = model.predict(dataset, val_idx)
                else:
                    model.fit(dataset, train_idx)
                    preds = model.predict(dataset, val_idx)
                per_approach[name]["acc"].append(accuracy_fn(preds, y_true))
                per_approach[name]["f1"].append(f1_score(preds, y_true))
                per_approach[name]["speedup"].append(
                    _speedup_over_static(dataset, val_idx, preds, static_label))
            oracle_speedups.append(_speedup_over_static(
                dataset, val_idx, y_true, static_label))
        raw[gpu_name] = {
            "per_approach": per_approach,
            "oracle_speedups": oracle_speedups,
            "num_points": float(len(dataset)),
            "gpu_fraction": float(dataset.labels().mean()),
        }
    return {"per_gpu": raw}


@stage_impl("table3.report")
def _report(ctx, inputs):
    results: Dict[str, Dict[str, Dict[str, float]]] = {}
    for gpu_name, raw in inputs["evaluate"]["per_gpu"].items():
        results[gpu_name] = {
            name: {
                "accuracy": float(np.mean(vals["acc"]) * 100.0),
                "f1": float(np.mean(vals["f1"])),
                "speedup_over_static": geometric_mean(vals["speedup"]),
            }
            for name, vals in raw["per_approach"].items()
        }
        results[gpu_name]["Oracle"] = {
            "accuracy": 100.0, "f1": 1.0,
            "speedup_over_static": geometric_mean(raw["oracle_speedups"]),
        }
        results[gpu_name]["_meta"] = {
            "num_points": raw["num_points"],
            "gpu_fraction": raw["gpu_fraction"],
        }
    return results


SPEC = ExperimentSpec(
    name="table3",
    title="OpenCL heterogeneous device mapping (Table 3)",
    description="Stratified 10-fold CV of MGA vs the device-mapping "
                "baselines for each GPU.",
    params={
        "gpus": ["nvidia_gtx_970", "amd_tahiti_7970"],
        "max_kernels": None,
        "points_per_kernel": 3,
        "folds": 10,
        "epochs": 20,
        "seed": 0,
        "include_baselines": list(_DEFAULT_BASELINES),
    },
    stages=(
        BuildDataset(impl="table3.datasets", name="datasets", params={
            "gpus": ref("gpus"),
            "max_kernels": ref("max_kernels"),
            "points_per_kernel": ref("points_per_kernel"),
            "seed": ref("seed"),
        }),
        TrainModels(impl="table3.evaluate", name="evaluate",
                    inputs=("datasets",), params={
                        "folds": ref("folds"),
                        "epochs": ref("epochs"),
                        "seed": ref("seed"),
                        "include_baselines": ref("include_baselines"),
                    }),
        Report(impl="table3.report", name="report", inputs=("evaluate",)),
    ),
    quick={"max_kernels": 16, "points_per_kernel": 2, "folds": 2,
           "epochs": 4, "include_baselines": ["Static mapping",
                                              "Grewe et al."]},
)


def format_result(results: Dict[str, object]) -> str:
    lines = ["Table 3: heterogeneous device mapping"]
    for gpu, rows in results.items():
        meta = rows.get("_meta", {})
        lines.append(f"  device: {gpu} ({int(meta.get('num_points', 0))} points, "
                     f"{meta.get('gpu_fraction', 0.0) * 100:.0f}% GPU-labelled)")
        lines.append(f"    {'approach':<16}{'accuracy %':>12}{'F1':>8}"
                     f"{'speedup/static':>16}")
        for name, vals in rows.items():
            if name == "_meta":
                continue
            lines.append(f"    {name:<16}{vals['accuracy']:12.1f}"
                         f"{vals['f1']:8.2f}{vals['speedup_over_static']:16.2f}")
    return "\n".join(lines)


register_experiment(SPEC, format_result)
