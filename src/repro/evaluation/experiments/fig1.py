"""Figure 1: motivation.

(a) execution time of the Rodinia ``kmeans`` kernel at 1..8 threads on the
8-core Comet Lake system; (b) distribution of the best thread count over all
loops and input sizes (≈64% of combinations need a non-default thread count
in the paper).

Declared as the ``fig1`` experiment spec; run it with
``python -m repro run fig1`` or ``run_experiment("fig1")``, whose result
holds both panels (``fig1a`` and ``fig1b``).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.pipeline.registry import register_experiment
from repro.pipeline.spec import BuildDataset, ExperimentSpec, Report, ref, stage_impl
from repro.simulator.microarch import MicroArch, microarch_from_config


def _fig1a(arch: MicroArch, scale: float,
           max_threads: Optional[int]) -> Dict[int, float]:
    from repro.frontend.analysis import analyze_spec
    from repro.frontend.openmp import OMPConfig
    from repro.kernels import registry
    from repro.simulator.openmp import OpenMPSimulator

    spec = registry.get_kernel("rodinia/kmeans")
    summary = analyze_spec(spec, scale)
    simulator = OpenMPSimulator(arch, noise=0.0)
    max_threads = max_threads or arch.max_threads
    return {t: simulator.run(summary, OMPConfig(t)).time_seconds
            for t in range(1, max_threads + 1)}


@stage_impl("fig1.report")
def _report(ctx, inputs, *, arch, scale, max_threads):
    arch = microarch_from_config(arch)
    dataset = inputs["dataset"]
    best_threads = [dataset.configs[s.label].num_threads
                    for s in dataset.samples]
    counts = {t: best_threads.count(t) for t in sorted(set(best_threads))}
    default = arch.max_threads
    non_default = sum(v for t, v in counts.items() if t != default)
    return {
        "fig1a": _fig1a(arch, scale, max_threads),
        "fig1b": {
            "histogram": counts,
            "percent_non_default":
                100.0 * non_default / max(1, len(best_threads)),
            "num_combinations": len(best_threads),
        },
    }


SPEC = ExperimentSpec(
    name="fig1",
    title="Motivation: kmeans thread sweep + best-thread distribution (Fig. 1)",
    description="Execution time of kmeans per thread count, and the "
                "distribution of oracle thread counts over loops × inputs.",
    params={
        "arch": "comet_lake",
        "scale": 2.0,
        "max_threads": None,
        "max_kernels": 45,
        "num_inputs": 10,
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
        Report(impl="fig1.report", name="report", inputs=("dataset",),
               params={"arch": ref("arch"), "scale": ref("scale"),
                       "max_threads": ref("max_threads")}),
    ),
    quick={"max_kernels": 6, "num_inputs": 3},
)


def format_result(result: Dict[str, object]) -> str:
    fig1a, fig1b = result["fig1a"], result["fig1b"]
    lines = ["Figure 1a: kmeans execution time per thread count"]
    best = min(fig1a.values())
    for t, time in fig1a.items():
        marker = " <-- best" if time == best else ""
        lines.append(f"  threads={t}: {time * 1e3:8.3f} ms{marker}")
    lines.append("Figure 1b: best-thread-count distribution")
    for t, count in fig1b["histogram"].items():
        lines.append(f"  best={t} threads: {count} combinations")
    lines.append(f"  non-default best configuration: "
                 f"{fig1b['percent_non_default']:.1f}% of combinations "
                 f"(paper: ~64%)")
    return "\n".join(lines)


register_experiment(SPEC, format_result)
