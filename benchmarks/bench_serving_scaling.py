"""Serving-daemon scaling: closed-loop load against 1..N worker processes.

Publishes a small tuner, then drives the same stream of *distinct*
``tune`` requests (every request pays real feature-extraction work — no
cache hits) through ``ServeDaemon`` at increasing worker counts with a
closed-loop generator: ``CLIENTS`` threads, each with its own connection,
each holding at most one request in flight.  Reports requests/second and
the speedup over the single-worker daemon, and verifies that every daemon
response is byte-identical to the in-process ``InferenceEngine`` over the
same published artifact (the acceptance bar: the daemon adds concurrency,
never different answers).

Like ``bench_campaign_scaling``, the daemon runs emulate the *occupancy*
of real profiling: each cold request's profiling run sleeps for (a capped
multiple of) its simulated kernel execution time
(``REPRO_PROFILE_WALLTIME_SCALE``, see :class:`repro.profiling.papi.
PAPIProfiler`).  On real hardware the service blocks on exactly that
execution, and overlapping those waits is what the worker pool buys — the
numbers are then meaningful even on single-core CI runners, where pure
CPU work cannot overlap.  The emulation only adds waits; response values
are unaffected (the byte-identity check runs without it).

Writes ``BENCH_serving_scaling.json`` at the repository root; its
``gate_metrics`` are diffed against ``benchmarks/baselines/`` by the CI
regression gate.  Run directly (``python benchmarks/bench_serving_scaling.py
[--quick]``) or through pytest.
"""

import argparse
import json
import os
import tempfile
import threading
import time

import numpy as np

from repro.core import MGATuner
from repro.datasets import OpenMPDatasetBuilder
from repro.kernels import registry
from repro.profiling.papi import WALLTIME_CAP_ENV, WALLTIME_SCALE_ENV
from repro.serve import DaemonClient, InferenceEngine, ModelRegistry, ServeDaemon
from repro.simulator.microarch import COMET_LAKE_8C
from repro.tuners import thread_search_space

from _harness import write_bench_json

TRAIN_KERNELS = 8
TRAIN_INPUTS = 3
EPOCHS = 8
SERVE_KERNELS = 6          # unseen kernels served after training
NUM_REQUESTS = 240         # distinct (kernel, scale) pairs — no cache help
WARMUP_REQUESTS = 24       # untimed: settles per-worker numpy/model caches
CLIENTS = 24
MAX_BATCH = 4
#: profiling-occupancy emulation (see module docstring): each cold request
#: waits on its kernel's simulated execution, capped per run
WALLTIME_SCALE = 2.0
WALLTIME_CAP = 0.02


def _publish(root: str) -> None:
    arch = COMET_LAKE_8C
    space = list(thread_search_space(arch))
    specs = registry.openmp_kernels()
    tuner = MGATuner(arch, space, seed=0, gnn_hidden=12, gnn_out=12,
                     dae_hidden=24, dae_code=8, mlp_hidden=16)
    dataset = OpenMPDatasetBuilder(arch, space, seed=0).build(
        specs[:TRAIN_KERNELS], np.geomspace(1e5, 2e8, TRAIN_INPUTS))
    tuner.fit(dataset, epochs=EPOCHS, dae_epochs=EPOCHS)
    ModelRegistry(root).publish("bench-openmp", tuner)


def _request_stream(num_requests: int, seed: int = 7):
    """Distinct (kernel uid, scale) pairs: every request is a cache miss."""
    served = registry.openmp_kernels()[TRAIN_KERNELS:
                                      TRAIN_KERNELS + SERVE_KERNELS]
    rng = np.random.default_rng(seed)
    scales = rng.uniform(0.25, 4.0, size=num_requests)
    return [(served[i % len(served)].uid, round(float(scales[i]), 6))
            for i in range(num_requests)]


def _reference_responses(root: str, requests):
    """The in-process engine's answers over the same published artifact."""
    tuner = ModelRegistry(root).load("bench-openmp")
    with InferenceEngine(tuner, max_batch_size=MAX_BATCH) as engine:
        responses = []
        for uid, scale in requests:
            config, counters = engine.tune(registry.get_kernel(uid), scale)
            responses.append({"config_label": config.label(),
                              "num_threads": config.num_threads,
                              "schedule": config.schedule.value,
                              "chunk_size": config.chunk_size,
                              "counters": dict(counters)})
    return responses


def _closed_loop(socket_path: str, requests, clients: int):
    """Drive all requests through per-thread connections; returns responses."""
    responses = [None] * len(requests)
    cursor = {"next": 0}
    lock = threading.Lock()

    def worker():
        client = DaemonClient(socket_path)
        try:
            while True:
                with lock:
                    index = cursor["next"]
                    if index >= len(requests):
                        return
                    cursor["next"] = index + 1
                uid, scale = requests[index]
                result = client.request({"op": "tune", "model": "bench-openmp",
                                         "kernel": uid, "scale": scale})
                responses[index] = {
                    "config_label": result["config_label"],
                    "num_threads": result["num_threads"],
                    "schedule": result["schedule"],
                    "chunk_size": result["chunk_size"],
                    "counters": dict(result["counters"]),
                }
        finally:
            client.close()

    threads = [threading.Thread(target=worker, daemon=True)
               for _ in range(clients)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return responses, time.perf_counter() - started


def run(num_requests: int = NUM_REQUESTS, clients: int = CLIENTS,
        worker_counts=(1, 2, 4)) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        root = os.path.join(tmp, "registry")
        _publish(root)
        requests = _request_stream(num_requests)
        warmup = _request_stream(WARMUP_REQUESTS, seed=1234)
        # the reference runs without occupancy emulation: values, not timing
        reference = _reference_responses(root, requests)

        per_workers = {}
        identical = True
        os.environ[WALLTIME_SCALE_ENV] = str(WALLTIME_SCALE)
        os.environ[WALLTIME_CAP_ENV] = str(WALLTIME_CAP)
        try:
            for workers in worker_counts:
                socket_path = os.path.join(tmp, f"daemon-{workers}.sock")
                with ServeDaemon(socket_path, registry_root=root,
                                 workers=workers, max_batch=MAX_BATCH,
                                 max_queue=4 * clients,
                                 preload=["bench-openmp"]) as daemon:
                    # untimed warmup: every worker executes a few batches
                    # before the clock starts, as a long-running daemon would
                    _closed_loop(socket_path, warmup, clients)
                    responses, seconds = _closed_loop(socket_path, requests,
                                                      clients)
                    stats = daemon.stats()
                identical = identical and responses == reference
                per_workers[workers] = {
                    "wall_s": seconds,
                    "rps": num_requests / seconds,
                    "mean_batch_size": stats["batches"]["mean_size"],
                    "p50_latency_ms": stats["latency_ms"]["p50"],
                    "p99_latency_ms": stats["latency_ms"]["p99"],
                    "shed": stats["requests"]["shed"],
                }
        finally:
            os.environ.pop(WALLTIME_SCALE_ENV, None)
            os.environ.pop(WALLTIME_CAP_ENV, None)
    serial = per_workers[worker_counts[0]]["wall_s"]
    for workers in worker_counts:
        per_workers[workers]["speedup"] = \
            serial / per_workers[workers]["wall_s"]
    top = worker_counts[-1]
    return {
        "model": "bench-openmp",
        "requests": num_requests,
        "clients": clients,
        "max_batch": MAX_BATCH,
        "profile_walltime": {"scale": WALLTIME_SCALE, "cap_s": WALLTIME_CAP},
        "predictions_identical_to_engine": identical,
        "workers": {str(w): per_workers[w] for w in worker_counts},
        # only dimensionless ratios gate CI: absolute rps depends on the
        # runner's hardware, the speedup is occupancy overlap
        "gate_metrics": {
            f"serving_speedup_{top}w": per_workers[top]["speedup"],
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small request count, workers 1-2, no speedup "
                             "assert (CI smoke mode)")
    args = parser.parse_args()

    if args.quick:
        payload = run(num_requests=32, clients=8, worker_counts=(1, 2))
    else:
        payload = run()
    path = write_bench_json("serving_scaling", payload)
    print(json.dumps(payload, indent=2))
    print(f"\nwrote {path}")

    assert payload["predictions_identical_to_engine"], (
        "daemon responses diverged from the in-process InferenceEngine")
    if not args.quick:
        speedup4 = payload["workers"]["4"]["speedup"]
        assert speedup4 >= 2.0, (
            f"expected >=2x throughput at 4 workers vs 1, got "
            f"{speedup4:.2f}x")
        print(f"4-worker speedup {speedup4:.2f}x (>= 2x required)")
    return 0


def test_serving_scaling(once, capsys):
    if os.environ.get("REPRO_BENCH_QUICK") == "1":
        payload = once(lambda: run(num_requests=24, clients=8,
                                   worker_counts=(1, 2)))
    else:
        payload = once(run)
        assert payload["workers"]["4"]["speedup"] >= 2.0
    with capsys.disabled():
        print()
        print("serving daemon scaling:")
        print(json.dumps(payload, indent=2))
    assert payload["predictions_identical_to_engine"]


if __name__ == "__main__":
    raise SystemExit(main())
