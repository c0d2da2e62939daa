"""Cost gate: CPU per ``predict``, cold request (in the engine and as a
daemon worker receives it), daemon import and memoized daemon request,
calibrated.

Every other CI perf gate is a ratio between two configurations of the same
code (speedup vs seed, tape vs eager, 4 workers vs 1), so a uniformly
slower ``predict`` passes all of them.  This benchmark measures what one
predict costs:

* a default-sized MGA model is trained on a small OpenMP dataset (the
  architecture a daemon serves; training quality does not matter here);
* queries are the held-out kernels at one unseen working-set size, so
  every predict batches its graphs afresh, as a cold request does;
* process CPU time (``time.process_time``) is taken per predict at batch 1
  and batch 16, and per run of a fixed calibration kernel — small numpy
  ops behind Python dispatch, like an inference step — timed in the same
  process and interleaved round by round with the predicts;
* ``engine_cold_b1`` is one cold request through
  ``InferenceEngine.predict_batch`` at batch 1: its scale was never asked
  before, so it misses the feature and result caches and pays profiling
  under the default config, but its kernel was seen in warm-up, so the
  per-kernel code cache spares it the GNN and the DAE;
* ``worker_cold_b1`` is the same cold request as a daemon worker receives
  it: one wire-format ``tune`` (kernel uid, a never-asked scale, version)
  through ``daemon._execute_tune_map`` over a ``TuningService`` configured
  like a worker's.  On top of ``engine_cold_b1`` it pays resolving the
  kernel uid and the version, building the reply fields and the drift
  bookkeeping; ``engine_cold_b1`` reuses one spec object per kernel;
* ``serve_import`` is the cold start of a daemon: the CPU time, summed over
  user and system (``RUSAGE_CHILDREN``), of a fresh interpreter that
  imports what ``python -m repro.serve daemon --root`` imports before it
  forks its workers.  None of it is numpy or the model stack: each worker
  imports those after the fork, in parallel with the others;
* ``daemon_memo`` is one memoized ``tune`` through a 2-worker ``python -m
  repro.serve daemon`` over the trained model, sent back to back on one
  unix-socket connection: user plus system CPU time summed over the daemon
  and its workers, read from ``/proc/<pid>/stat``.  The daemon answers a
  repeat from its loop's memo, so this is the daemon's share of the hot
  path: socket reads, request parsing, the memo lookup and the reply, which
  splices the memoized answer's encoded bytes with the request's id,
  latency, worker and batch instead of encoding the answer again.
  ``/proc`` counts in clock ticks (10 ms), so each block sends enough
  requests to span 20 or more.

Each figure is reported raw (CPU ms per call) and, under ``gate_metrics``,
as calibration time divided by the figure: each block of predicts is paired
with the calibration block timed just before it, and the per-round ratios
are reduced by the median.  The calibrated form is higher-is-better and
cancels most of the speed difference between machines, which is what
``check_regression.py`` diffs against ``benchmarks/baselines/``.  The
batch-16 figure includes the system time of page faults on its larger
arrays, which differs from process to process by up to 40%, so its
committed quick baseline is the median of ten runs.

Writes ``BENCH_cost.json`` at the repository root.  Run directly
(``python benchmarks/bench_cost.py [--quick]``) or through pytest.
"""

import argparse
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import weakref

if __name__ == "__main__":
    # one BLAS thread, set before numpy loads: process CPU time then counts
    # the work done, not idle BLAS threads spinning on tiny matrices
    for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                      "MKL_NUM_THREADS"):
        os.environ[_variable] = "1"

import numpy as np

import repro
from repro.core import MGATuner
from repro.datasets import OpenMPDatasetBuilder
from repro.kernels import registry
from repro.serve import (
    DaemonClient,
    InferenceEngine,
    ModelRegistry,
    TuningService,
)
from repro.serve.daemon import _execute_tune_map
from repro.simulator.microarch import COMET_LAKE_8C
from repro.tuners import thread_search_space

from _harness import write_bench_json

ARCH = COMET_LAKE_8C
BATCH = 16
ROUNDS = 15
#: calls per timed block; each block takes roughly 50-100 ms, except one
#: fresh interpreter's imports, which take several times that, and the
#: daemon requests, which span 20 or more ``/proc`` clock ticks
CALLS = {"calibration": 40, "b1": 40, "b16": 5, "engine_cold_b1": 120,
         "worker_cold_b1": 120, "serve_import": 1, "daemon_memo": 4000}
#: timed figure -> its gate metric (``<name>_calibrated``)
GATED = {"b1": "predict_b1", "b16": "predict_b16",
         "engine_cold_b1": "engine_cold_b1",
         "worker_cold_b1": "worker_cold_b1", "serve_import": "serve_import",
         "daemon_memo": "daemon_memo"}
#: what the daemon parent imports before it forks (``repro.serve.__main__``
#: imports the CLI, whose ``daemon`` command imports the daemon, which
#: imports the registry for ``--root``)
SERVE_IMPORTS = "import repro.serve.cli, repro.serve.daemon, repro.serve.registry"
#: the child imports ``repro`` from where this process does
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
    os.path.dirname(os.path.dirname(repro.__file__)),
    os.environ.get("PYTHONPATH")])))


def calibration_kernel() -> float:
    """A fixed mix of small matmuls, element-wise ops and Python dispatch."""
    rng = np.random.default_rng(0)
    weight = rng.standard_normal((32, 32)) / 8.0
    rows = rng.standard_normal((16, 32))
    total = 0.0
    for _ in range(150):
        rows = np.tanh(rows @ weight)
        rows = rows / (1.0 + np.abs(rows).sum(axis=1, keepdims=True))
        total += float(rows[0, 0])
    return total


def _children_cpu_s() -> float:
    """User + system CPU seconds of every child process waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def serve_import() -> None:
    """Import what the daemon parent imports, in a fresh interpreter."""
    subprocess.run([sys.executable, "-c", SERVE_IMPORTS], env=CHILD_ENV,
                   check=True)


def _serve_imports_load(module: str) -> bool:
    """Whether the daemon parent's imports load ``module``."""
    probe = subprocess.run(
        [sys.executable, "-c",
         SERVE_IMPORTS + f"; import sys; print({module!r} in sys.modules)"],
        env=CHILD_ENV, check=True, capture_output=True, text=True)
    return probe.stdout.strip() == "True"


def _tree_cpu_s(pids) -> float:
    """User + system CPU seconds used so far by the processes ``pids``."""
    ticks = 0
    for pid in pids:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        ticks += int(fields[11]) + int(fields[12])      # utime, stime
    return ticks / os.sysconf("SC_CLK_TCK")


def _children(pid: int):
    """The live child processes of ``pid``, over all of its threads."""
    children = []
    for task in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{task}/children") as handle:
            children.extend(int(child) for child in handle.read().split())
    return children


class MemoDaemon:
    """A 2-worker ``python -m repro.serve daemon`` process over ``tuner``,
    with one client connection and one request it has already answered."""

    def __init__(self, tuner, kernel: str):
        self._dir = tempfile.TemporaryDirectory(prefix="repro-cost-")
        root = os.path.join(self._dir.name, "registry")
        ModelRegistry(root).publish("mga", tuner)
        path = os.path.join(self._dir.name, "d.sock")
        # one BLAS thread, as in the daemon perfbench starts
        env = dict(CHILD_ENV, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "daemon", "--socket", path,
             "--root", root, "--workers", "2", "--preload", "mga"],
            stdout=subprocess.PIPE, text=True, env=env)
        try:
            ready = self.process.stdout.readline()
            if not ready:
                raise RuntimeError("the daemon exited before it was ready")
            self.pids = [self.process.pid, *_children(self.process.pid)]
            self.client = DaemonClient(path)
            self.request = {"op": "tune", "model": "mga", "kernel": kernel,
                            "scale": 1.0}
            self.first = self.client.request(self.request)
            self.repeat = self.client.request(self.request)
        except BaseException:
            self.close()
            raise

    def __call__(self) -> None:
        self.client.request(self.request)

    def cpu_s(self) -> float:
        return _tree_cpu_s(self.pids)

    def close(self) -> None:
        client = getattr(self, "client", None)
        if client is not None:
            client.close()
        self.process.terminate()
        self.process.wait(timeout=60)
        self.process.stdout.close()
        self._dir.cleanup()


class WorkerCold:
    """Cold wire-format ``tune`` requests answered the way a daemon worker
    answers them, each at a scale never asked before."""

    def __init__(self, tuner, kernels):
        self._dir = tempfile.TemporaryDirectory(prefix="repro-cost-")
        ModelRegistry(self._dir.name).publish("mga", tuner)
        # as a daemon worker builds it: the daemon loop memoizes answers
        self.service = TuningService(ModelRegistry(self._dir.name),
                                     memoize_results=False)
        self.engine, self.version = self.service.engine("mga")
        self._kernels = itertools.cycle([spec.uid for spec in kernels])
        self._scales = itertools.count()
        self._drift_sent = weakref.WeakKeyDictionary()

    def __call__(self) -> None:
        request = {"op": "tune", "model": "mga",
                   "kernel": next(self._kernels),
                   "scale": 1.0 + 1e-4 * next(self._scales),
                   "version": self.version}
        results, _ = _execute_tune_map(self.service, [request],
                                       self._drift_sent)
        if not results[0]["ok"]:
            raise RuntimeError(f"worker_cold_b1 failed: {results[0]}")

    def close(self) -> None:
        self.service.close()
        self._dir.cleanup()


def _cpu_s(fn, calls: int, clock=time.process_time) -> float:
    """CPU seconds per call of ``fn`` over ``calls`` calls, on ``clock``."""
    started = clock()
    for _ in range(calls):
        fn()
    return (clock() - started) / calls


def _model_and_queries(num_kernels: int, epochs: int):
    """A fitted tuner, the unseen kernels and their (graphs, vectors, extra)."""
    space = list(thread_search_space(ARCH))
    specs = registry.openmp_kernels()
    # every fourth kernel is held out, as in perfbench's serve workloads
    train = [spec for i, spec in enumerate(specs) if i % 4 != 3][:num_kernels]
    unseen = [spec for i, spec in enumerate(specs) if i % 4 == 3]
    builder = OpenMPDatasetBuilder(ARCH, space, seed=0)
    tuner = MGATuner(ARCH, space, seed=0)
    tuner.fit(builder.build(train, np.geomspace(1e5, 2e8, 3)),
              epochs=epochs, dae_epochs=epochs)
    held_out = builder.build(unseen, [3.2e7])
    graphs = [s.graph for s in held_out.samples]
    vectors = np.stack([s.vector for s in held_out.samples])
    extra = held_out.counter_matrix()
    return tuner, unseen, graphs, vectors, extra


def run(quick: bool = False) -> dict:
    tuner, unseen, graphs, vectors, extra = _model_and_queries(
        num_kernels=6 if quick else 12, epochs=2 if quick else 6)
    model = tuner.model
    kernels = itertools.cycle(range(len(graphs)))
    engine = InferenceEngine(tuner)
    engine_kernels = itertools.cycle(unseen)
    scales = itertools.count()

    def predict_b1():
        i = next(kernels)
        model.predict(graphs[i:i + 1], vectors[i:i + 1], extra[i:i + 1])

    def predict_b16():
        model.predict(graphs[:BATCH], vectors[:BATCH], extra[:BATCH])

    def engine_cold_b1():
        # a scale never asked before misses the feature and result caches,
        # so the request pays profiling and a predict; its kernel was seen
        # in warm-up, as a daemon worker's kernels are
        engine.predict_batch([(next(engine_kernels),
                               1.0 + 1e-4 * next(scales))])

    # inference is stateless: the same batch must give the same logits
    first = model.predict_logits(graphs, vectors, extra)
    second = model.predict_logits(graphs, vectors, extra)
    deterministic = first.tobytes() == second.tobytes()

    worker = WorkerCold(tuner, unseen)
    timed = {"calibration": calibration_kernel, "b1": predict_b1,
             "b16": predict_b16, "engine_cold_b1": engine_cold_b1,
             "worker_cold_b1": worker, "serve_import": serve_import,
             "daemon_memo": MemoDaemon(tuner, unseen[0].uid)}
    daemon = timed["daemon_memo"]
    #: the CPU clock of each figure: this process, the children it waits
    #: for, or the daemon's process tree
    clocks = {"serve_import": _children_cpu_s, "daemon_memo": daemon.cpu_s}
    samples = {name: [] for name in timed}
    ratios = {name: [] for name in GATED}
    try:
        for name, fn in timed.items():   # warm-up: caches and lazy set-up
            _cpu_s(fn, CALLS[name], clocks.get(name, time.process_time))
        for _ in range(ROUNDS):
            for name in ratios:
                # each figure is divided by the calibration block right
                # before it, so both see the same state of a shared host
                calibration = _cpu_s(calibration_kernel,
                                     CALLS["calibration"])
                figure = _cpu_s(timed[name], CALLS[name],
                                clocks.get(name, time.process_time))
                samples["calibration"].append(calibration)
                samples[name].append(figure)
                ratios[name].append(calibration / figure)
    finally:
        daemon.close()
        worker.close()

    result = {
        "quick": quick,
        "rounds": ROUNDS,
        "calls_per_block": CALLS,
        "queries": len(graphs),
        "graph_nodes_mean": float(np.mean([g.num_nodes for g in graphs])),
        "deterministic": deterministic,
        "serve_import_loads_numpy": _serve_imports_load("numpy"),
        "serve_import_loads_scipy": _serve_imports_load("scipy"),
        # the first request went to a worker, its repeats stayed in the loop
        "daemon_memo_workers": [daemon.first["worker"],
                                daemon.repeat["worker"]],
        "cpu_ms_per_call": {name: 1e3 * statistics.median(values)
                            for name, values in samples.items()},
        "cpu_ms_per_call_quartiles": {
            name: [1e3 * q for q in statistics.quantiles(values, n=4)]
            for name, values in samples.items()},
        # calibration CPU time / figure, per round, median: higher is better
        "gate_metrics": {f"{GATED[name]}_calibrated": statistics.median(r)
                         for name, r in ratios.items()},
    }
    engine.close()
    for name, stats in (("engine", engine.stats()),
                        ("worker_engine", worker.engine.stats())):
        result[name] = {key: stats[key] for key in (
            "cache_hit_rate", "result_cache_hit_rate", "code_cache_hits",
            "code_cache_misses", "memoized_responses")}
    write_bench_json("cost", result)
    return result


def _check(result: dict) -> None:
    assert result["deterministic"], "repeated predicts gave different logits"
    for name, ms in result["cpu_ms_per_call"].items():
        assert ms > 0.0, f"{name}: no CPU time measured"
    engine = result["engine"]
    assert engine["cache_hit_rate"] == engine["result_cache_hit_rate"] == 0.0, \
        "engine_cold_b1 requests must miss the feature and result caches"
    assert engine["code_cache_misses"] == result["queries"], \
        "each unseen kernel's codes must be encoded exactly once"
    worker = result["worker_engine"]
    assert worker["cache_hit_rate"] == 0.0 == worker["memoized_responses"], \
        "worker_cold_b1 requests must miss the feature and result caches"
    assert worker["code_cache_misses"] == result["queries"], \
        "worker_cold_b1: each unseen kernel's codes encoded exactly once"
    for module in ("numpy", "scipy"):
        assert not result[f"serve_import_loads_{module}"], \
            f"the daemon parent must not import {module}"
    first, repeat = result["daemon_memo_workers"]
    assert first is not None and repeat is None, \
        "daemon_memo repeats must be answered by the daemon loop"


def test_cost(once, capsys):
    result = once(run, quick=True)
    with capsys.disabled():
        print("\n" + json.dumps(
            {k: result[k] for k in ("cpu_ms_per_call", "gate_metrics")},
            indent=2))
    _check(result)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small training set (CI mode)")
    args = parser.parse_args()
    summary = run(quick=args.quick)
    print(json.dumps(summary, indent=2))
    _check(summary)
