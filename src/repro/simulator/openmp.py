"""OpenMP execution model: time and counters for (kernel, input, config).

``simulate_openmp`` composes the workload summary of a kernel with a CPU
micro-architecture model and an OpenMP runtime configuration (threads /
schedule / chunk) into an execution time plus a PAPI-style counter set.  The
model captures the mechanisms that make OpenMP tuning non-trivial on real
hardware and that the paper's MGA tuner exploits:

* Amdahl-style serial fraction and parallel-region fork/barrier overheads,
* roofline behaviour (compute throughput vs. memory bandwidth saturation),
* cache-capacity and access-pattern driven miss rates (per level),
* shared-LLC and memory-controller contention at high thread counts,
* load imbalance vs. scheduling policy and chunk size,
* dynamic-scheduling dispatch overhead and locality loss for tiny chunks,
* atomic/reduction contention,
* SMT efficiency (Skylake 10c/20t) and per-µarch clock/cache differences,
* kernels whose parallel version is intrinsically slower (``serial_advantage``).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Optional, Union

import numpy as np

from repro.frontend.analysis import WorkloadSummary, analyze_spec
from repro.frontend.openmp import OMPConfig, OMPSchedule
from repro.frontend.spec import KernelSpec
from repro.simulator.cache import CacheTraffic, estimate_cache_traffic
from repro.simulator.microarch import (
    MicroArch,
    microarch_from_config,
    microarch_to_config,
)

#: Baseline fraction of branches mispredicted even for perfectly predictable
#: loop back-edges.
BASE_MISPREDICT_RATE = 0.004

#: Cost of one contended atomic RMW operation (ns).
ATOMIC_COST_NS = 18.0


@dataclasses.dataclass
class ExecutionResult:
    """Outcome of one simulated OpenMP execution."""

    time_seconds: float
    counters: Dict[str, float]
    breakdown: Dict[str, float]
    config: OMPConfig
    arch: str

    def counter(self, name: str) -> float:
        return self.counters[name]


class NoiseDraws:
    """The noise of one simulated execution, drawn ahead of it.

    :meth:`OpenMPSimulator.run` draws a time factor, then one jitter per
    counter.  A caller that restarts the noise stream from one seed before
    every run, so that a run does not depend on the runs before it, would
    draw the same numbers every time: it draws them once, here, and passes
    them to :meth:`~OpenMPSimulator.run` as ``rng``.  ``rng`` is the
    freshly seeded stream; the draws are taken from its start.
    """

    __slots__ = ("time_factor", "jitter")

    def __init__(self, rng: np.random.Generator, noise: float,
                 counters: int):
        self.time_factor = float(np.exp(rng.normal(0.0, noise)))
        self.jitter = np.exp(rng.normal(0.0, noise * 2.0, size=counters))
        self.jitter.flags.writeable = False


class OpenMPSimulator:
    """Reusable simulator bound to one micro-architecture."""

    def __init__(self, arch: MicroArch, noise: float = 0.015,
                 seed: Optional[int] = 1234):
        self.arch = arch
        self.noise = float(noise)
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    def get_config(self) -> Dict:
        """JSON-serialisable parameters rebuilding an equivalent simulator.

        The internal RNG position is *not* captured; a reconstructed
        simulator restarts its noise stream from ``seed`` (callers that need
        order-independent determinism pass an explicit ``rng`` to
        :meth:`run`, as the campaign workers do).
        """
        return {"arch": microarch_to_config(self.arch), "noise": self.noise,
                "seed": self.seed}

    @classmethod
    def from_config(cls, config: Dict) -> "OpenMPSimulator":
        return cls(microarch_from_config(config["arch"]),
                   noise=float(config["noise"]), seed=config["seed"])

    # ------------------------------------------------------------------
    def run(self, workload: Union[KernelSpec, WorkloadSummary],
            config: OMPConfig, scale: float = 1.0,
            rng: Union[np.random.Generator, NoiseDraws, None] = None
            ) -> ExecutionResult:
        """Simulate one execution and return time + counters.

        The noise is drawn from ``rng`` (default: the simulator's own
        stream), or taken from it when it is a :class:`NoiseDraws`.
        """
        summary = (workload if isinstance(workload, WorkloadSummary)
                   else analyze_spec(workload, scale))
        rng = rng or self._rng
        arch = self.arch

        threads = max(1, min(config.num_threads, arch.max_threads))
        eff_threads = max(1, min(threads, summary.parallel_trip))
        trip = max(1, summary.parallel_trip)
        chunk = float(config.effective_chunk(trip))

        traffic = estimate_cache_traffic(summary, arch, eff_threads, chunk)

        par_fraction = 1.0 - summary.serial_fraction
        compute_s = self._compute_time(summary, eff_threads) * par_fraction
        memory_s = self._memory_time(summary, traffic, eff_threads) * par_fraction
        branch_s = self._branch_time(summary, eff_threads) * par_fraction

        base_parallel = compute_s + memory_s + branch_s

        slack, sched_overhead_s = self._schedule_effects(
            summary, config, eff_threads, trip, chunk, base_parallel)

        sync_s = self._sync_overheads(summary, eff_threads, threads)

        parallel_s = (base_parallel * (1.0 + slack) + sched_overhead_s + sync_s)
        parallel_s *= summary.serial_advantage

        serial_s = self._serial_time(summary)

        total = serial_s + parallel_s
        drawn = isinstance(rng, NoiseDraws)
        if self.noise > 0:
            total *= (rng.time_factor if drawn
                      else float(np.exp(rng.normal(0.0, self.noise))))

        counters = self._counters(summary, traffic, total, eff_threads)
        if self.noise > 0:
            if drawn:
                jitter = rng.jitter
                if len(jitter) != len(counters):
                    raise ValueError(f"{len(jitter)} jitter draws for "
                                     f"{len(counters)} counters")
            else:
                jitter = np.exp(rng.normal(0.0, self.noise * 2.0,
                                           size=len(counters)))
            counters = {k: float(v * j)
                        for (k, v), j in zip(counters.items(), jitter)}
        breakdown = {
            "serial": serial_s,
            "compute": compute_s,
            "memory": memory_s,
            "branch": branch_s,
            "schedule_overhead": sched_overhead_s,
            "sync_overhead": sync_s,
            "imbalance_slack": base_parallel * slack,
        }
        return ExecutionResult(time_seconds=float(total), counters=counters,
                               breakdown=breakdown, config=config,
                               arch=arch.name)

    # ------------------------------------------------------------------
    # components
    # ------------------------------------------------------------------
    def _compute_time(self, summary: WorkloadSummary, threads: int) -> float:
        arch = self.arch
        flop_s = summary.flops / (arch.peak_gflops(threads) * 1e9)
        # scalar integer / address arithmetic: ~3 ops per cycle per core
        int_throughput = arch.peak_gflops(threads) / arch.flops_per_cycle * 3.0
        int_s = summary.int_ops / (int_throughput * 1e9)
        return flop_s + int_s

    def _memory_time(self, summary: WorkloadSummary, traffic: CacheTraffic,
                     threads: int) -> float:
        arch = self.arch
        # DRAM bandwidth component (shared resource, saturates with threads,
        # degrades slightly past saturation due to controller contention)
        bw = arch.effective_mem_bw(threads)
        contention = 1.0
        if summary.working_set_bytes > 0.5 * arch.l3_bytes and threads > 2:
            contention += 0.07 * (threads - 2)
        bandwidth_s = traffic.dram_bytes * contention / (bw * 1e9)

        # cache service time: L2 hits for L1 misses, L3 hits for L2 misses.
        # Several misses overlap (hardware MLP); each thread has its own ports.
        mlp = 6.0
        l2_s = (traffic.l1_misses - traffic.l2_misses) * arch.l2_latency_ns
        l3_s = (traffic.l2_misses - traffic.l3_misses) * arch.l3_latency_ns
        cache_s = (l2_s + l3_s) / (mlp * threads) * 1e-9

        # latency-bound DRAM component (dependent / irregular accesses)
        lat_mlp = 2.0
        latency_s = (traffic.l3_misses * traffic.latency_bound_fraction
                     * arch.mem_latency_ns / (lat_mlp * threads)) * 1e-9
        return bandwidth_s + cache_s + latency_s

    def _branch_time(self, summary: WorkloadSummary, threads: int) -> float:
        mispredicts = (summary.expected_mispredicts
                       + summary.branches * BASE_MISPREDICT_RATE)
        return mispredicts * self.arch.branch_penalty_ns / threads * 1e-9

    def _schedule_effects(self, summary: WorkloadSummary, config: OMPConfig,
                          threads: int, trip: int, chunk: float,
                          base_parallel: float):
        """Return (imbalance slack fraction, scheduling overhead seconds)."""
        arch = self.arch
        imbalance = summary.imbalance
        if threads <= 1:
            # single-thread teams take the OpenMP runtime's serialised fast
            # path: no worker wake-up, no barrier rendezvous
            return 0.0, 0.4 * arch.fork_overhead_us * 1e-6

        chunks_total = max(1.0, trip / chunk)
        chunk_fraction = min(1.0, chunk * threads / trip)

        if config.schedule == OMPSchedule.STATIC:
            if config.chunk_size is None:
                # one contiguous block per thread: full exposure to imbalance
                slack = imbalance * (1.0 - 1.0 / threads)
            else:
                # round-robin chunks average out monotone imbalance
                slack = imbalance * (1.0 - 1.0 / threads) * chunk_fraction
            dispatch_s = 0.0
        elif config.schedule == OMPSchedule.DYNAMIC:
            slack = imbalance * chunk_fraction * 0.5
            per_chunk = arch.sched_overhead_us * (1.0 + 0.04 * threads)
            dispatch_s = chunks_total / threads * per_chunk * 1e-6
        else:  # GUIDED
            guided_chunks = threads * (math.log2(max(2.0, chunks_total / threads))
                                       + 1.0)
            slack = imbalance * 0.25 * chunk_fraction + imbalance * 0.05
            per_chunk = arch.sched_overhead_us * (1.0 + 0.04 * threads)
            dispatch_s = guided_chunks / threads * per_chunk * 1e-6

        # waking up and joining worker threads costs more the wider the team is
        fork_s = arch.fork_overhead_us * (1.0 + 0.22 * threads) * 1e-6
        return slack, dispatch_s + fork_s

    def _sync_overheads(self, summary: WorkloadSummary, eff_threads: int,
                        requested_threads: int) -> float:
        total = 0.0
        if summary.has_reduction:
            total += math.log2(max(2, eff_threads)) * 0.6e-6
        if summary.has_atomic:
            atomic_ops = summary.stores
            contention = 1.0 + 0.12 * (eff_threads - 1)
            total += atomic_ops * ATOMIC_COST_NS * contention / eff_threads * 1e-9
        # barrier cost grows with the number of threads that must rendezvous
        total += 0.2e-6 * requested_threads
        return total

    def _serial_time(self, summary: WorkloadSummary) -> float:
        if summary.serial_fraction <= 0.0:
            return 0.0
        single = OMPConfig(num_threads=1)
        traffic = estimate_cache_traffic(summary, self.arch, 1,
                                         float(max(1, summary.parallel_trip)))
        compute = self._compute_time(summary, 1)
        memory = self._memory_time(summary, traffic, 1)
        branch = self._branch_time(summary, 1)
        del single
        return (compute + memory + branch) * summary.serial_fraction

    # ------------------------------------------------------------------
    def _counters(self, summary: WorkloadSummary, traffic: CacheTraffic,
                  time_s: float, threads: int) -> Dict[str, float]:
        """The counters of one execution, before noise."""
        arch = self.arch
        mispredicts = (summary.expected_mispredicts
                       + summary.branches * BASE_MISPREDICT_RATE)
        total_ins = (summary.flops + summary.int_ops + summary.loads
                     + summary.stores + summary.branches)
        cycles = time_s * arch.freq_ghz * 1e9 * min(threads, arch.cores)
        page_bytes = 4096.0
        counters = {
            # --- the five counters selected in §4.1.1 ---
            "PAPI_L1_DCM": traffic.l1_misses,
            "PAPI_L2_DCM": traffic.l2_misses,
            "PAPI_L3_LDM": traffic.l3_misses
            * (summary.loads / max(1.0, summary.loads + summary.stores)),
            "PAPI_BR_INS": summary.branches,
            "PAPI_BR_MSP": mispredicts,
            # --- the rest of the ~20 preset counters collected initially ---
            "PAPI_TOT_INS": total_ins,
            "PAPI_TOT_CYC": cycles,
            "PAPI_FP_OPS": summary.flops,
            "PAPI_LD_INS": summary.loads,
            "PAPI_SR_INS": summary.stores,
            "PAPI_L1_ICM": 1e3 + summary.branches * 1e-4,
            "PAPI_L2_ICM": 5e2 + summary.branches * 5e-5,
            "PAPI_L3_TCM": traffic.l3_misses,
            "PAPI_TLB_DM": summary.working_set_bytes / page_bytes
            + traffic.accesses * summary.random_frac * 0.02,
            "PAPI_RES_STL": cycles * min(0.9, 0.2 + 0.6 * summary.random_frac
                                         + 0.2 * summary.strided_frac),
            "PAPI_STL_ICY": cycles * 0.05,
            "PAPI_MEM_WCY": traffic.dram_bytes / max(arch.mem_bw_gbs, 1.0),
            "PAPI_CA_SHR": summary.stores * (1.0 if summary.has_atomic else 0.01),
            "PAPI_CA_CLN": summary.stores * 0.1,
            "PAPI_PRF_DM": traffic.accesses * summary.strided_frac * 0.3,
        }
        return counters


def simulate_openmp(workload: Union[KernelSpec, WorkloadSummary],
                    config: OMPConfig, arch: MicroArch, scale: float = 1.0,
                    noise: float = 0.015,
                    seed: Optional[int] = None) -> ExecutionResult:
    """One-shot convenience wrapper around :class:`OpenMPSimulator`."""
    sim = OpenMPSimulator(arch, noise=noise, seed=seed)
    return sim.run(workload, config, scale=scale)
