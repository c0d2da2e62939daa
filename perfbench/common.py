"""What every workload shares: the kernel split, the model, quality, and
the CPU time and memory of processes."""

from __future__ import annotations

import math
import os
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.core import MGATuner, mga
from repro.datasets import OpenMPDatasetBuilder
from repro.kernels import registry
from repro.nn import train_epoch
from repro.simulator.microarch import COMET_LAKE_8C
from repro.tuners import thread_search_space

ARCH = COMET_LAKE_8C
#: working-set sizes of the training samples (3 per training kernel)
TRAIN_TARGETS = tuple(np.geomspace(1e5, 2e8, 3))
#: held-out scoring sizes of every unseen kernel
SCORE_TARGETS = tuple(np.geomspace(1e5, 2e8, 8))


def kernel_split():
    """(training kernels, unseen kernels): every fourth uid is held out."""
    specs = registry.openmp_kernels()
    train = [spec for i, spec in enumerate(specs) if i % 4 != 3]
    unseen = [spec for i, spec in enumerate(specs) if i % 4 == 3]
    return train, unseen


def space():
    return list(thread_search_space(ARCH))


def build_training_set(train_specs):
    """``OpenMPDatasetBuilder.build`` over the training kernels."""
    return OpenMPDatasetBuilder(ARCH, space(), seed=0).build(
        train_specs, TRAIN_TARGETS)


def fit_tuner(dataset) -> Tuple[MGATuner, dict, float, float]:
    """The default ``MGATuner``, fitted with its defaults.

    Returns (tuner, history, fit seconds, steady fit CPU seconds).  The fit
    runs alone in this process on one BLAS thread, so its CPU time is the
    work it did.  Contention from other tenants of a shared host still
    slows some epochs, in bursts, so the steady figure counts every
    replayed epoch at the CPU time of the fastest one; DAE pre-training
    and the recording epoch count as measured.  Epochs are timed around
    ``repro.core.mga.train_epoch``.
    """
    tuner = MGATuner(ARCH, space(), seed=0)
    epochs: List[float] = []

    def timed_epoch(*args, **kwargs):
        started = time.process_time()
        try:
            return train_epoch(*args, **kwargs)
        finally:
            epochs.append(time.process_time() - started)

    mga.train_epoch = timed_epoch
    try:
        started, cpu_started = time.perf_counter(), time.process_time()
        history = tuner.fit(dataset)
        fit_s = time.perf_counter() - started
        fit_cpu_s = time.process_time() - cpu_started
    finally:
        mga.train_epoch = train_epoch
    replayed = epochs[1:]
    steady_cpu_s = fit_cpu_s - sum(replayed) + len(replayed) * min(replayed)
    return tuner, history, fit_s, steady_cpu_s


def samples_per_s(dataset, history, seconds: float) -> float:
    return len(dataset) * len(history["loss"]) / seconds


def speedup_geomean(tuner, unseen_specs) -> Tuple[float, List[int]]:
    """Geometric-mean speedup over the default config on unseen kernels."""
    held_out = OpenMPDatasetBuilder(ARCH, space(), seed=0).build(
        unseen_specs, SCORE_TARGETS)
    picks = [int(i) for i in
             tuner.predict_indices(held_out, range(len(held_out)))]
    logs = [math.log(sample.speedup_of(pick))
            for sample, pick in zip(held_out.samples, picks)]
    return math.exp(sum(logs) / len(logs)), picks


def request_scales(rng: np.random.Generator, count: int) -> List[float]:
    """Seeded input scales, log-uniform in [0.25, 4] (distinct in practice)."""
    return [float(scale) for scale in
            np.exp(rng.uniform(math.log(0.25), math.log(4.0), count))]


def proc_stat(pid: int) -> List[str]:
    """``/proc/<pid>/stat`` from the state field on (state is index 0)."""
    with open(f"/proc/{pid}/stat") as handle:
        return handle.read().rsplit(")", 1)[1].split()


def process_tree(pid: int) -> List[int]:
    """``pid`` and every live process descended from it."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                parent = int(proc_stat(int(entry))[1])
            except (OSError, IndexError):
                continue              # exited while listed
            children.setdefault(parent, []).append(int(entry))
    tree, todo = [], [pid]
    while todo:
        current = todo.pop()
        tree.append(current)
        todo.extend(children.get(current, ()))
    return tree


def cpu_s(pids: List[int]) -> float:
    """User plus system CPU seconds used so far by the processes ``pids``.

    Unlike wall time this does not grow while other tenants of a shared
    host hold the processor.
    """
    ticks = os.sysconf("SC_CLK_TCK")
    total = 0
    for pid in pids:
        try:
            fields = proc_stat(pid)
        except OSError:
            continue                  # exited since it was listed
        total += int(fields[11]) + int(fields[12])    # utime, stime
    return total / ticks


def hwm_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ValueError(f"no VmHWM for process {pid}")

