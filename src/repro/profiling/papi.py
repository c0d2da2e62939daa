"""PAPI-like profiler over the OpenMP simulator."""

from __future__ import annotations

import dataclasses
import os
import time
from typing import Dict, List, Optional, Sequence, Union

from repro.frontend.analysis import WorkloadSummary
from repro.frontend.openmp import OMPConfig, default_omp_config
from repro.frontend.spec import KernelSpec
from repro.simulator.microarch import MicroArch
from repro.simulator.openmp import NoiseDraws, OpenMPSimulator

#: The ~20 preset counters collected during dataset construction (§4.1.1).
PAPI_PRESET_COUNTERS: List[str] = [
    "PAPI_L1_DCM", "PAPI_L2_DCM", "PAPI_L3_LDM", "PAPI_BR_INS", "PAPI_BR_MSP",
    "PAPI_TOT_INS", "PAPI_TOT_CYC", "PAPI_FP_OPS", "PAPI_LD_INS",
    "PAPI_SR_INS", "PAPI_L1_ICM", "PAPI_L2_ICM", "PAPI_L3_TCM", "PAPI_TLB_DM",
    "PAPI_RES_STL", "PAPI_STL_ICY", "PAPI_MEM_WCY", "PAPI_CA_SHR",
    "PAPI_CA_CLN", "PAPI_PRF_DM",
]

#: The five counters the paper selects via Pearson correlation: L1 and L2
#: cache misses, L3 load misses, retired branch instructions, mispredicted
#: branches.
SELECTED_COUNTERS: List[str] = [
    "PAPI_L1_DCM", "PAPI_L2_DCM", "PAPI_L3_LDM", "PAPI_BR_INS", "PAPI_BR_MSP",
]

#: How many counters can be measured in a single run on the paper's systems
#: (the selected five need two runs; see §4.1.4 "Observations and Analysis").
COUNTERS_PER_RUN = 4


@dataclasses.dataclass
class ProfileRecord:
    """Counters + execution time of one profiled run."""

    kernel: str
    scale: float
    config: OMPConfig
    time_seconds: float
    counters: Dict[str, float]
    runs_needed: int


#: Environment knobs for walltime emulation (see ``PAPIProfiler``):
#: ``REPRO_PROFILE_WALLTIME_SCALE`` / ``REPRO_PROFILE_WALLTIME_CAP``.
WALLTIME_SCALE_ENV = "REPRO_PROFILE_WALLTIME_SCALE"
WALLTIME_CAP_ENV = "REPRO_PROFILE_WALLTIME_CAP"


class PAPIProfiler:
    """Profile kernels on a simulated micro-architecture.

    ``walltime_scale`` optionally makes each :meth:`profile` call *occupy*
    wall-clock time proportional to the simulated execution (capped at
    ``walltime_cap`` seconds), exactly like
    :class:`~repro.tuners.campaign.SimObjectiveSpec` does for campaign
    evaluations: on real hardware a profiling run waits on the kernel's
    execution, and that wait — not the counter bookkeeping — is what a
    serving worker pool overlaps.  The scaling benchmarks set the
    ``REPRO_PROFILE_WALLTIME_SCALE`` / ``REPRO_PROFILE_WALLTIME_CAP``
    environment fallbacks so the emulation reaches worker processes without
    threading a knob through every serving layer; both default to off.

    Every profile restarts the noise stream seeded with ``seed``, so a
    profile does not depend on the profiles before it, and one profiler can
    serve requests in any order.  The restarted stream's draws are the same
    every time, so they are drawn once, when the profiler is built.  With
    ``seed=None`` every profile draws fresh noise.
    """

    def __init__(self, arch: MicroArch, noise: float = 0.015,
                 seed: Optional[int] = 0,
                 walltime_scale: Optional[float] = None,
                 walltime_cap: Optional[float] = None):
        self.arch = arch
        self.simulator = OpenMPSimulator(arch, noise=noise, seed=seed)
        # the simulator's stream is freshly seeded here: its first draws are
        # the ones every restarted profile would take
        self._draws = (None if seed is None else
                       NoiseDraws(self.simulator._rng, self.simulator.noise,
                                  len(PAPI_PRESET_COUNTERS)))
        if walltime_scale is None:
            walltime_scale = float(os.environ.get(WALLTIME_SCALE_ENV, "0"))
        if walltime_cap is None:
            walltime_cap = float(os.environ.get(WALLTIME_CAP_ENV, "0.05"))
        self.walltime_scale = float(walltime_scale)
        self.walltime_cap = float(walltime_cap)

    # ------------------------------------------------------------------
    def profile(self, spec: Union[KernelSpec, WorkloadSummary],
                scale: float = 1.0, config: Optional[OMPConfig] = None,
                events: Optional[Sequence[str]] = None) -> ProfileRecord:
        """Profile one kernel at one input size under one configuration.

        ``spec`` may be the kernel's :class:`WorkloadSummary` at ``scale``
        instead, as :meth:`OpenMPSimulator.run` accepts: a caller holding a
        kernel's :class:`~repro.frontend.analysis.WorkloadPlan` skips the
        analysis.  ``events`` defaults to the full preset list; the number
        of simulated runs needed is ``ceil(len(events) / COUNTERS_PER_RUN)``
        (mirroring the hardware restriction of counting only a few events
        per run) but a single simulator evaluation provides all values.
        """
        config = config or default_omp_config(self.arch.cores)
        events = list(events or PAPI_PRESET_COUNTERS)
        unknown = [e for e in events if e not in PAPI_PRESET_COUNTERS]
        if unknown:
            raise KeyError(f"unknown PAPI events: {unknown}")
        result = self.simulator.run(spec, config, scale=scale,
                                    rng=self._draws)
        counters = {e: result.counters[e] for e in events}
        runs_needed = ((len(events) + COUNTERS_PER_RUN - 1)
                       // COUNTERS_PER_RUN)
        if self.walltime_scale > 0.0:
            # occupy (a scaled share of) the simulated execution time: the
            # profiling runs of a real deployment block on the kernel
            time.sleep(min(result.time_seconds * self.walltime_scale
                           * runs_needed, self.walltime_cap))
        kernel = (spec.kernel if isinstance(spec, WorkloadSummary)
                  else spec.uid)
        return ProfileRecord(kernel=kernel, scale=scale, config=config,
                             time_seconds=result.time_seconds,
                             counters=counters, runs_needed=runs_needed)

    def profile_many(self, spec: KernelSpec, scales: Sequence[float],
                     configs: Sequence[OMPConfig],
                     events: Optional[Sequence[str]] = None) -> List[ProfileRecord]:
        """Profile the cartesian product of input sizes and configurations.

        With a seed, every profile of the grid takes the same noise draws
        (one time factor and one jitter per counter), so the grid's noise
        is fully correlated across points; ``seed=None`` draws it afresh
        for each point.
        """
        records = []
        for scale in scales:
            for config in configs:
                records.append(self.profile(spec, scale=scale, config=config,
                                            events=events))
        return records
