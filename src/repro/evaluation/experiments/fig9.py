"""Figure 9: µ-architecture portability.

A model trained on Comet Lake data predicts thread counts for Broadwell and
Sandy Bridge systems: the target system is profiled under the default
configuration, its counters are rescaled by the cache-size ratios
(:func:`repro.profiling.rescale_counters`) and fed to the pre-trained model
without retraining.  Expected shape: predicted configurations achieve close
to the target system's oracle speedups for most PolyBench kernels.

Declared as the ``fig9`` experiment spec; run it with
``python -m repro run fig9`` or ``run_experiment("fig9")``.
"""

from __future__ import annotations

from typing import Dict, List

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
from repro.simulator.microarch import microarch_from_config


@stage_impl("fig9.targets")
def _targets(ctx, inputs, *, train_arch, target_archs, max_kernels,
             num_inputs, seed):
    """Build the per-target-system datasets over the *training* space."""
    from repro.datasets.openmp import OpenMPDatasetBuilder, default_input_targets
    from repro.pipeline.stages import resolve_kernels
    from repro.tuners.space import thread_search_space

    train_arch = microarch_from_config(train_arch)
    specs = resolve_kernels({"select": "polybench", "max": max_kernels})
    targets = default_input_targets(num=num_inputs, min_bytes=1e6,
                                    max_bytes=256e6)   # STANDARD / LARGE inputs
    datasets = {}
    for arch_config in target_archs:
        target_arch = microarch_from_config(arch_config)
        target_space = thread_search_space(train_arch)   # same 8-core space
        builder = OpenMPDatasetBuilder(target_arch, list(target_space),
                                       seed=seed + 1)
        datasets[target_arch.name] = builder.build(specs, targets)
    return {"datasets": datasets}


@stage_impl("fig9.evaluate")
def _evaluate(ctx, inputs, *, train_arch, target_archs, epochs, seed):
    """Train on the source system, predict the rescaled target systems."""
    import dataclasses

    from repro.core.mga import ModalityConfig
    from repro.core.tuner import MGATuner
    from repro.datasets.openmp import OpenMPTuningDataset
    from repro.profiling import rescale_counters

    train_arch = microarch_from_config(train_arch)
    train_dataset = inputs["train_dataset"]
    tuner = MGATuner(train_arch, list(train_dataset.configs),
                     modalities=ModalityConfig.mga(), seed=seed)
    tuner.fit(train_dataset, epochs=epochs)

    results: Dict[str, Dict[str, List[float]]] = {}
    for arch_config in target_archs:
        target_arch = microarch_from_config(arch_config)
        measured = inputs["target_datasets"]["datasets"][target_arch.name]
        # rescale into a per-sample copy: the upstream stage output keeps the
        # target system's measured counters (what the cache holds, too)
        target_dataset = OpenMPTuningDataset(
            [dataclasses.replace(s, counters=dict(s.counters))
             for s in measured.samples],
            measured.configs, measured.arch, measured.counter_names)
        predicted_speedups, oracle_speedups_list = [], []
        for sample in target_dataset.samples:
            # rescale the target system's counters into the training system's
            # feature space (the paper's portability transformation)
            scaled = rescale_counters(sample.counters, source=train_arch,
                                      target=target_arch)
            sample.counters.update(scaled)
        predictions = tuner.predict_indices(target_dataset,
                                            list(range(len(target_dataset))))
        for sample, pred in zip(target_dataset.samples, predictions):
            predicted_speedups.append(sample.speedup_of(int(pred)))
            oracle_speedups_list.append(sample.oracle_speedup)
        results[target_arch.name] = {
            "predicted": predicted_speedups,
            "oracle": oracle_speedups_list,
        }
    return {"per_arch": results}


@stage_impl("fig9.report")
def _report(ctx, inputs):
    return {"per_arch": inputs["evaluate"]["per_arch"]}


SPEC = ExperimentSpec(
    name="fig9",
    title="Micro-architecture portability (Figure 9)",
    description="A Comet-Lake-trained model predicts thread counts for "
                "Sandy Bridge and Broadwell via counter rescaling.",
    params={
        "train_arch": "comet_lake",
        "target_archs": ["sandy_bridge", "broadwell"],
        "max_kernels": 25,
        "num_inputs": 4,
        "epochs": 20,
        "seed": 0,
    },
    stages=(
        BuildDataset(impl="openmp.dataset", name="train_dataset", params={
            "arch": ref("train_arch"),
            "space": {"type": "threads"},
            "kernels": {"select": "polybench", "max": ref("max_kernels")},
            "targets": {"num": ref("num_inputs"), "min_bytes": 1e6,
                        "max_bytes": 256e6},
            "seed": ref("seed"),
        }),
        BuildDataset(impl="fig9.targets", name="target_datasets", params={
            "train_arch": ref("train_arch"),
            "target_archs": ref("target_archs"),
            "max_kernels": ref("max_kernels"),
            "num_inputs": ref("num_inputs"),
            "seed": ref("seed"),
        }),
        TrainModels(impl="fig9.evaluate", name="evaluate",
                    inputs=("train_dataset", "target_datasets"), params={
                        "train_arch": ref("train_arch"),
                        "target_archs": ref("target_archs"),
                        "epochs": ref("epochs"),
                        "seed": ref("seed"),
                    }),
        Report(impl="fig9.report", name="report", inputs=("evaluate",)),
    ),
    quick={"max_kernels": 5, "num_inputs": 2, "epochs": 4},
)


def format_result(result: Dict[str, object]) -> str:
    lines = ["Figure 9: µ-architecture portability "
             "(model trained on Comet Lake)"]
    for arch, data in result["per_arch"].items():
        pred = geometric_mean(data["predicted"])
        oracle = geometric_mean(data["oracle"])
        ratio = pred / oracle if oracle > 0 else 0.0
        lines.append(f"  {arch:<16} predicted {pred:5.2f}x vs oracle "
                     f"{oracle:5.2f}x (normalised {ratio:.3f})")
    return "\n".join(lines)


register_experiment(SPEC, format_result)
