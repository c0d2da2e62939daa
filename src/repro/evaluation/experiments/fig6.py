"""Figure 6: thread prediction on unseen loops *and* unseen input sizes.

20% of the input sizes are held out together with the validation-fold loops;
the model must generalise across both axes.  Expected shape: MGA still close
to (but a little further from) the oracle than in Figure 4.

Declared as the ``fig6`` experiment spec; run it with
``python -m repro run fig6`` or ``run_experiment("fig6")``.
"""

from __future__ import annotations

from typing import Dict, List

from repro.evaluation.experiments.common import oracle_speedups
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
from repro.pipeline.stages import resolve_splits

_SPLIT = {"type": "unseen_inputs", "k": ref("folds"), "seed": ref("seed")}


@stage_impl("fig6.report")
def _report(ctx, inputs, *, split):
    dataset = inputs["dataset"]
    dl = inputs["dl"]["speedups"]
    _, splits = resolve_splits(dataset, split)
    mga_norm, mga_abs, oracle_abs = [], [], []
    for fold, (_, val_idx) in enumerate(splits):
        oracle = geometric_mean(oracle_speedups(dataset, val_idx))
        mga = geometric_mean(dl["MGA"][fold])
        mga_abs.append(mga)
        oracle_abs.append(oracle)
        mga_norm.append(mga / oracle if oracle > 0 else 0.0)
    return {"MGA": mga_abs, "Oracle": oracle_abs, "MGA_normalized": mga_norm}


SPEC = ExperimentSpec(
    name="fig6",
    title="Unseen loops + unseen input sizes (Figure 6)",
    description="MGA vs the oracle when both the validation loops and 20% "
                "of the input sizes are held out of training.",
    params={
        "arch": "comet_lake",
        "max_kernels": 45,
        "num_inputs": 10,
        "folds": 5,
        "epochs": 25,
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
        TrainModels(impl="openmp.dl_speedups", name="dl",
                    inputs=("dataset",), params={
                        "split": _SPLIT,
                        "approaches": ["MGA"],
                        "epochs": ref("epochs"),
                        "seed": ref("seed"),
                    }),
        Report(impl="fig6.report", name="report", inputs=("dataset", "dl"),
               params={"split": _SPLIT}),
    ),
    quick={"max_kernels": 6, "num_inputs": 4, "folds": 2, "epochs": 4},
)


def format_result(result: Dict[str, List[float]]) -> str:
    lines = ["Figure 6: unseen loops + unseen input sizes"]
    for fold, (m, o, n) in enumerate(zip(result["MGA"], result["Oracle"],
                                         result["MGA_normalized"]), start=1):
        lines.append(f"  fold {fold}: MGA {m:5.2f}x, oracle {o:5.2f}x, "
                     f"normalised {n:5.3f}")
    lines.append(f"  geomean MGA {sum(result['MGA']) / len(result['MGA']):.2f}x "
                 f"vs oracle {sum(result['Oracle']) / len(result['Oracle']):.2f}x")
    return "\n".join(lines)


register_experiment(SPEC, format_result)
