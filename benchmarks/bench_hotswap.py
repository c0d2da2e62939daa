"""Online lifecycle benchmark: hot-swap, shadow tee and drift under load.

Publishes two versions of one tuner (differently seeded fits over the same
training set, drift baseline co-published with each) behind a multi-worker
``ServeDaemon`` on loopback TCP, then exercises the three online-lifecycle
guarantees the serving layer claims:

* **swap** — an open-loop Poisson stream runs while the route hot-swaps
  from v1 to v2 mid-flight.  Every offered request must come back exactly
  once (zero dropped, zero shed), every micro-batch must be single-version
  (the flip lands *between* batches, never inside one), and a post-swap
  request grid must be byte-identical to a cold daemon pinned to v2 — the
  binary ``swap_identity`` gate;
* **shadow** — v1 redeploys as a shadow of the now-live v2 and a serial
  request drive is teed to it.  Shadow batches may only use idle workers:
  the daemon's contention counter must stay at zero while comparisons
  accumulate — the binary ``shadow_zero_critical_path_impact`` gate.  The
  report also records primary latency with the shadow off vs on;
* **drift** — the same daemon serves an exact replay of the training set
  (per-route drift deltas must stay unflagged and score zero) and then an
  out-of-distribution stream of unseen kernels at working-set scales far
  outside the training envelope (the deltas must flag).  Both loadgen
  reports carry the server's drift summary (``server_drift``).

The gates are binary by design — 1.0 when the invariant holds, 0.0 when it
does not — so the CI regression diff against ``benchmarks/baselines/``
fails on any violation, not only on a >30% drop.

Writes ``BENCH_hotswap.json`` at the repository root.  Run directly
(``python benchmarks/bench_hotswap.py [--quick]``) or through pytest.
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
from repro.serve import (
    DaemonClient,
    ModelRegistry,
    ServeDaemon,
    baseline_for,
    open_loop,
)
from repro.simulator.microarch import COMET_LAKE_8C
from repro.tuners import thread_search_space

from _harness import write_bench_json

MODEL = "bench-hotswap"
TRAIN_KERNELS = 6
TRAIN_INPUTS = 3
EPOCHS = 4
SERVE_KERNELS = 4          # unseen kernels: swap/shadow/OOD streams
NUM_REQUESTS = 240         # swap-phase stream (distinct → every one cold)
OFFERED_RPS = 80.0
CONCURRENCY = 32
IDENTITY_GRID = 24         # post-swap byte-identity grid size
SHADOW_REQUESTS = 24       # serial tee drive (and the shadow-off baseline)
OOD_REQUESTS = 36          # out-of-distribution drift stream
DRIFT_RPS = 40.0
WORKERS = 2
MAX_BATCH = 4
MAX_QUEUE = 512            # zero-drop phase: the queue must absorb bursts
SLO_MS = 250.0
LOOPBACK = "tcp://127.0.0.1:0"

#: byte-identity is judged over every prediction-bearing response field
RESULT_FIELDS = ("version", "config_label", "num_threads", "schedule",
                 "chunk_size", "counters")


def _publish_two_versions(root: str):
    """v1 and v2 of ``MODEL`` (seeds 0 and 7) with drift baselines."""
    arch = COMET_LAKE_8C
    space = list(thread_search_space(arch))
    specs = registry.openmp_kernels()
    dataset = OpenMPDatasetBuilder(arch, space, seed=0).build(
        specs[:TRAIN_KERNELS], np.geomspace(1e5, 2e8, TRAIN_INPUTS))
    published = ModelRegistry(root)
    for seed in (0, 7):
        tuner = MGATuner(arch, space, seed=seed, gnn_hidden=12, gnn_out=12,
                         dae_hidden=24, dae_code=8, mlp_hidden=16)
        tuner.fit(dataset, epochs=EPOCHS, dae_epochs=EPOCHS)
        published.publish(MODEL, tuner,
                          drift_baseline=baseline_for(tuner, dataset))
    return dataset


def _served_kernels():
    return registry.openmp_kernels()[TRAIN_KERNELS:
                                     TRAIN_KERNELS + SERVE_KERNELS]


def _request_stream(num_requests: int, seed: int, lo: float = 0.25,
                    hi: float = 4.0):
    """Distinct (kernel, scale) pairs over the unseen serve kernels."""
    served = _served_kernels()
    rng = np.random.default_rng(seed)
    scales = rng.uniform(lo, hi, size=num_requests)
    return [{"op": "tune", "model": MODEL, "kernel": served[i % len(served)].uid,
             "scale": round(float(scales[i]), 6)}
            for i in range(num_requests)]


def _replay_stream(dataset):
    """The training set, verbatim: every (kernel, scale) the sketch saw."""
    return [{"op": "tune", "model": MODEL, "kernel": sample.kernel_uid,
             "scale": sample.scale}
            for sample in dataset.samples]


def _identity_grid():
    served = _served_kernels()
    return [{"op": "tune", "model": MODEL, "kernel": served[i % len(served)].uid,
             "scale": round(10.0 + 0.037 * i, 6)}
            for i in range(IDENTITY_GRID)]


def _serial_drive(address: str, requests):
    """One connection, one request at a time; returns (responses, mean_ms)."""
    responses, elapsed = [], []
    with DaemonClient(address) as client:
        for request in requests:
            start = time.perf_counter()
            responses.append(client.request(dict(request)))
            elapsed.append((time.perf_counter() - start) * 1e3)
    return responses, float(np.mean(elapsed))


def _cold_reference(root: str, requests):
    """What a fresh daemon pinned to v2 answers for ``requests``."""
    daemon = ServeDaemon(LOOPBACK, registry_root=root, workers=1,
                         max_batch=MAX_BATCH, watch_interval_s=0.0).start()
    try:
        with DaemonClient(daemon.address) as client:
            client.swap(MODEL, version=2)
            responses, _ = _serial_drive(daemon.address, requests)
        return responses
    finally:
        daemon.shutdown()


def _identical(responses, reference) -> bool:
    for response, expected in zip(responses, reference):
        if response is None:
            return False
        if any(response[field] != expected[field]
               for field in RESULT_FIELDS):
            return False
    return True


def _mixed_version_batches(responses) -> int:
    """Micro-batches that served more than one model version (must be 0)."""
    batches = {}
    for response in responses:
        if response is None:
            continue
        key = (response["worker"], response["batch"])
        batches.setdefault(key, set()).add(response["version"])
    return sum(1 for versions in batches.values() if len(versions) > 1)


def _swap_mid_stream(address: str, delay_s: float, outcome: dict):
    def flip():
        time.sleep(delay_s)
        try:
            with DaemonClient(address) as admin:
                outcome["result"] = admin.swap(MODEL, version=2)
        except Exception as exc:  # recorded, judged by the gate
            outcome["error"] = repr(exc)

    thread = threading.Thread(target=flip, daemon=True)
    thread.start()
    return thread


def _drift_route(stats: dict) -> dict:
    return stats["drift"]["routes"].get(f"{MODEL}@2",
                                        {"count": 0, "flagged": 0,
                                         "mean_score": 0.0})


def _drift_delta(after: dict, before: dict) -> dict:
    """Phase-local drift counters from two cumulative route summaries."""
    count = int(after["count"]) - int(before["count"])
    flagged = int(after["flagged"]) - int(before["flagged"])
    score = (float(after["mean_score"]) * int(after["count"])
             - float(before["mean_score"]) * int(before["count"]))
    return {
        "count": count,
        "flagged": flagged,
        "flagged_rate": (flagged / count) if count else 0.0,
        "mean_score": (score / count) if count else 0.0,
    }


def run(num_requests: int = NUM_REQUESTS,
        shadow_requests: int = SHADOW_REQUESTS,
        ood_requests: int = OOD_REQUESTS) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        root = os.path.join(tmp, "registry")
        dataset = _publish_two_versions(root)

        grid = _identity_grid()
        reference = _cold_reference(root, grid)

        daemon = ServeDaemon(LOOPBACK, registry_root=root, workers=WORKERS,
                             max_batch=MAX_BATCH, max_queue=MAX_QUEUE,
                             watch_interval_s=0.0).start()
        try:
            address = daemon.address
            with DaemonClient(address) as admin:
                admin.swap(MODEL, version=1)

            # ---- phase 1: hot-swap v1 → v2 under open-loop load --------
            stream = _request_stream(num_requests, seed=7)
            swap_outcome = {}
            flipper = _swap_mid_stream(
                address, 0.4 * num_requests / OFFERED_RPS, swap_outcome)
            report = open_loop(address, stream, rate_rps=OFFERED_RPS,
                               concurrency=CONCURRENCY, slo_ms=SLO_MS,
                               collect_responses=True)
            flipper.join()
            responses = report["responses"]
            served = [r for r in responses if r is not None]
            versions = sorted({r["version"] for r in served})
            mixed = _mixed_version_batches(responses)

            post_swap, _ = _serial_drive(address, grid)
            post_identical = (
                _identical(post_swap, reference)
                and all(r["version"] == 2 for r in post_swap))

            lifecycle = daemon.stats()["lifecycle"]
            route = lifecycle["routes"][MODEL]
            swap_ok = (
                "result" in swap_outcome
                and report["completed"] == len(stream)
                and report["shed"] == 0
                and len(served) == len(stream)
                and set(versions) <= {1, 2}
                and mixed == 0
                and post_identical
                and route["active_version"] == 2)

            # ---- phase 2: v1 shadows v2, strictly off the critical path
            baseline_reqs = _request_stream(shadow_requests, seed=11)
            _, mean_ms_off = _serial_drive(address, baseline_reqs)

            with DaemonClient(address) as admin:
                admin.shadow_start(MODEL, 1, fraction=1.0, tolerance=0.25)
                teed_reqs = _request_stream(shadow_requests, seed=13)
                primaries, mean_ms_on = _serial_drive(address, teed_reqs)
                deadline = time.monotonic() + 30.0
                status = admin.shadow_status(MODEL)
                while (status["compared"] < shadow_requests
                       and time.monotonic() < deadline):
                    time.sleep(0.05)
                    status = admin.shadow_status(MODEL)
                shadow_stats = daemon.stats()["shadow"]
                admin.shadow_stop(MODEL)

            shadow_ok = (
                status["compared"] >= shadow_requests
                and status["errors"] == 0
                and shadow_stats["contention"] == 0
                and all(r["version"] == 2 for r in primaries))

            # ---- phase 3: drift — exact training replay, then OOD ------
            before = _drift_route(daemon.stats())
            replay = open_loop(address, _replay_stream(dataset),
                               rate_rps=DRIFT_RPS, concurrency=8)
            mid = _drift_route(daemon.stats())
            in_dist = _drift_delta(mid, before)

            ood_stream = _request_stream(ood_requests, seed=17,
                                         lo=0.01, hi=0.1)
            ood_report = open_loop(address, ood_stream, rate_rps=DRIFT_RPS,
                                   concurrency=8)
            out_dist = _drift_delta(_drift_route(daemon.stats()), mid)
        finally:
            daemon.shutdown()

    return {
        "workers": WORKERS,
        "max_batch": MAX_BATCH,
        "max_queue": MAX_QUEUE,
        "swap": {
            "requests": len(stream),
            "offered_rps": report["offered_rps"],
            "achieved_rps": report["achieved_rps"],
            "completed": report["completed"],
            "shed": report["shed"],
            "errors": report["errors"],
            "p50_latency_ms": report["latency_ms"]["p50"],
            "p99_latency_ms": report["latency_ms"]["p99"],
            "slo_attainment": report["slo"]["attainment"],
            "admin": swap_outcome,
            "versions_served": versions,
            "mixed_version_batches": mixed,
            "post_swap_identical_to_cold_daemon": post_identical,
            "route": route,
        },
        "shadow": {
            "primary_mean_ms_shadow_off": mean_ms_off,
            "primary_mean_ms_shadow_on": mean_ms_on,
            "teed": status["teed"],
            "compared": status["compared"],
            "agree": status["agree"],
            "near": status["near"],
            "disagree": status["disagree"],
            "disagreement_rate": status["disagreement_rate"],
            "errors": status["errors"],
            "contention": shadow_stats["contention"],
            "batches": shadow_stats["batches"],
        },
        "drift": {
            "in_distribution": in_dist,
            "out_of_distribution": out_dist,
            "replay_server_drift": replay.get("server_drift"),
            "ood_server_drift": ood_report.get("server_drift"),
        },
        # binary invariants, not throughputs: 1.0 = holds, 0.0 = violated,
        # so the CI baseline diff fails on any break
        "gate_metrics": {
            "swap_identity": 1.0 if swap_ok else 0.0,
            "shadow_zero_critical_path_impact": 1.0 if shadow_ok else 0.0,
        },
    }


def _check(payload: dict) -> None:
    swap = payload["swap"]
    assert payload["gate_metrics"]["swap_identity"] == 1.0, swap
    assert swap["completed"] == swap["requests"], (
        f"dropped requests across the hot-swap: "
        f"{swap['completed']}/{swap['requests']}")
    assert swap["mixed_version_batches"] == 0, (
        "a micro-batch mixed model versions across the flip")
    assert swap["post_swap_identical_to_cold_daemon"], (
        "post-swap predictions diverged from a cold daemon pinned to v2")

    shadow = payload["shadow"]
    assert payload["gate_metrics"][
        "shadow_zero_critical_path_impact"] == 1.0, shadow
    assert shadow["compared"] > 0 and shadow["contention"] == 0, shadow

    drift = payload["drift"]
    in_dist, out_dist = drift["in_distribution"], drift["out_of_distribution"]
    assert in_dist["count"] > 0 and in_dist["flagged"] == 0, (
        f"training-set replay flagged as drift: {in_dist}")
    # near-zero: far below the 0.05 flag threshold, not bit-exact — the
    # served profile pass may pick a different (still in-envelope) config
    assert in_dist["mean_score"] < 0.02, in_dist
    assert out_dist["count"] > 0 and out_dist["flagged_rate"] > 0.5, (
        f"out-of-distribution stream not flagged: {out_dist}")
    assert drift["replay_server_drift"], (
        "loadgen report is missing the server drift summary")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small request counts (CI smoke mode)")
    args = parser.parse_args()

    if args.quick:
        payload = run(num_requests=96, shadow_requests=12, ood_requests=16)
    else:
        payload = run()
    path = write_bench_json("hotswap", payload)
    print(json.dumps(payload, indent=2))
    print(f"\nwrote {path}")
    _check(payload)
    return 0


def test_hotswap(once, capsys):
    if os.environ.get("REPRO_BENCH_QUICK") == "1":
        payload = once(lambda: run(num_requests=96, shadow_requests=12,
                                   ood_requests=16))
    else:
        payload = once(run)
    with capsys.disabled():
        print()
        print("hotswap lifecycle:")
        print(json.dumps(payload, indent=2))
    _check(payload)


if __name__ == "__main__":
    raise SystemExit(main())
