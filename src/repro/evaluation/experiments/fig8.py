"""Figure 8: performance-counter comparison, default vs predicted config.

For the PolyBench ``2mm`` kernel on the Skylake system, the counters measured
under the default configuration (all threads, static scheduling) are compared
with the counters under the oracle/predicted configuration.  Expected shape:
the tuned configuration reduces cache misses and branch mispredictions.

Declared as the ``fig8`` experiment spec; the exhaustive sweep over the
Table-2 space runs as a :class:`~repro.tuners.campaign.TuningCampaign`
(``workers=N`` fans the simulated executions out over a process pool).
Run it with ``python -m repro run fig8`` or ``run_experiment("fig8")``.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.pipeline.registry import register_experiment
from repro.pipeline.spec import ExperimentSpec, Report, TuneCandidates, ref, stage_impl
from repro.simulator.microarch import microarch_from_config

COUNTERS_OF_INTEREST = ("PAPI_L3_LDM", "PAPI_L1_DCM", "PAPI_BR_MSP",
                        "PAPI_L2_DCM", "PAPI_TOT_CYC", "PAPI_BR_INS")


@stage_impl("fig8.sweep")
def _sweep(ctx, inputs, *, arch, kernel_uid, target_bytes, seed):
    from repro.frontend.analysis import analyze_spec
    from repro.frontend.openmp import default_omp_config
    from repro.kernels import registry
    from repro.simulator.openmp import OpenMPSimulator
    from repro.tuners.campaign import SimObjectiveSpec, TuningCampaign
    from repro.tuners.exhaustive import ExhaustiveTuner
    from repro.tuners.space import full_search_space

    arch = microarch_from_config(arch)
    spec = registry.get_kernel(kernel_uid)
    scale = spec.scale_for_bytes(target_bytes)
    summary = analyze_spec(spec, scale)
    simulator = OpenMPSimulator(arch, noise=0.0)
    space = full_search_space(max_threads=arch.max_threads)

    default_config = default_omp_config(arch.max_threads)
    default_run = simulator.run(summary, default_config)

    # noise=0 makes every simulated execution deterministic, so the campaign
    # sweep is byte-identical to the serial enumeration at any worker count
    objective = SimObjectiveSpec(kernel_uid=kernel_uid, arch=arch,
                                 scale=scale, noise=0.0, seed=seed)
    campaign = TuningCampaign(ExhaustiveTuner(), space, objective,
                              workers=ctx.workers)
    result = campaign.run()
    best_config, best_time = result.best_config, result.best_time
    best_run = simulator.run(summary, best_config)

    return {
        "default_config": default_config,
        "predicted_config": best_config,
        "default_time": default_run.time_seconds,
        "predicted_time": best_time,
        "default_counters": dict(default_run.counters),
        "predicted_counters": dict(best_run.counters),
    }


@stage_impl("fig8.report")
def _report(ctx, inputs):
    sweep = inputs["sweep"]
    normalized: Dict[str, Tuple[float, float]] = {}
    for name in COUNTERS_OF_INTEREST:
        d = sweep["default_counters"][name]
        o = sweep["predicted_counters"][name]
        biggest = max(d, o, 1e-12)
        normalized[name] = (o / biggest, d / biggest)     # (optimal, default)
    return {
        "default_config": sweep["default_config"],
        "predicted_config": sweep["predicted_config"],
        "default_time": sweep["default_time"],
        "predicted_time": sweep["predicted_time"],
        "normalized_counters": normalized,
    }


SPEC = ExperimentSpec(
    name="fig8",
    title="Counters under default vs predicted config (Figure 8)",
    description="Normalised PAPI counters of 2mm on Skylake under the "
                "default and the oracle configuration of the Table-2 space.",
    params={
        "arch": "skylake_4114",
        "kernel_uid": "polybench/2mm",
        "target_bytes": 64e6,
        "seed": 0,
    },
    stages=(
        TuneCandidates(impl="fig8.sweep", name="sweep", params={
            "arch": ref("arch"),
            "kernel_uid": ref("kernel_uid"),
            "target_bytes": ref("target_bytes"),
            "seed": ref("seed"),
        }),
        Report(impl="fig8.report", name="report", inputs=("sweep",)),
    ),
    quick={"target_bytes": 16e6},
)


def format_result(result: Dict[str, object]) -> str:
    lines = [
        "Figure 8: normalised counters for 2mm (default vs predicted config)",
        f"  default   config: {result['default_config'].label()} "
        f"({result['default_time'] * 1e3:.2f} ms)",
        f"  predicted config: {result['predicted_config'].label()} "
        f"({result['predicted_time'] * 1e3:.2f} ms)",
        f"  {'counter':<16}{'optimal':>10}{'default':>10}   [lower is better]",
    ]
    for name, (optimal, default) in result["normalized_counters"].items():
        lines.append(f"  {name:<16}{optimal:10.3f}{default:10.3f}")
    return "\n".join(lines)


register_experiment(SPEC, format_result)
