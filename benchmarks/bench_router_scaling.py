"""Router scaling: open-loop load against 1..N consistent-hash replica groups.

Publishes a small tuner under several model names (the shard keys), stands
up a fleet of single-worker ``ServeDaemon`` replicas behind a
``ServeRouter`` — everything over TCP on loopback — and drives the same
open-loop Poisson request stream (``repro.serve.loadgen``) at increasing
group counts.  Model names are picked deterministically so the consistent-
hash ring spreads them evenly over every topology, mirroring how a real
deployment shards by ``(model, version)``.

Three phases per report:

* **identity** — every routed response is byte-identical to the in-process
  ``InferenceEngine`` over the same published artifact (the acceptance
  bar: two network hops and a hash ring add distribution, never different
  answers);
* **scaling** — the same offered rate against 1, 2, .. replica groups;
  ``achieved_rps`` (goodput) should grow with the fleet;
* **overload** — a deliberately oversized rate against the smallest fleet;
  the excess must come back as structured ``overloaded`` sheds while every
  replica queue stays at its bound (no unbounded growth past saturation).

Replica runs emulate profiling *occupancy* exactly like
``bench_serving_scaling``: each cold request's profiling run sleeps for (a
capped multiple of) its simulated kernel execution time
(``REPRO_PROFILE_WALLTIME_SCALE``), so overlapping replicas buy real
wall-clock on single-core CI runners too.  The emulation only adds waits;
response values are unaffected.

Writes ``BENCH_router_scaling.json`` at the repository root; its
``gate_metrics`` are diffed against ``benchmarks/baselines/`` by the CI
regression gate.  Run directly (``python benchmarks/bench_router_scaling.py
[--quick]``) or through pytest.
"""

import argparse
import json
import os
import tempfile
import time

import numpy as np

from repro.core import MGATuner
from repro.datasets import OpenMPDatasetBuilder
from repro.kernels import registry
from repro.profiling.papi import WALLTIME_CAP_ENV, WALLTIME_SCALE_ENV
from repro.serve import (
    HashRing,
    InferenceEngine,
    ModelRegistry,
    ServeDaemon,
    ServeRouter,
    open_loop,
)
from repro.simulator.microarch import COMET_LAKE_8C
from repro.tuners import thread_search_space

from _harness import write_bench_json

TRAIN_KERNELS = 8
TRAIN_INPUTS = 3
EPOCHS = 8
SERVE_KERNELS = 6          # unseen kernels served after training
MODELS_PER_GROUP = 2       # shard keys owned by each replica group
NUM_REQUESTS = 360         # distinct (model, kernel, scale) triples
WARMUP_REQUESTS = 24       # untimed: settles per-replica numpy/model caches
OFFERED_RPS = 120.0        # past 1-group capacity, under 4-group capacity
OVERLOAD_RPS = 400.0       # far past any capacity: must shed, not queue
OVERLOAD_REQUESTS = 120
CONCURRENCY = 48           # loadgen sender threads (callers, not load rate)
MAX_BATCH = 4
MAX_QUEUE = 16             # per-replica bound: small so saturation sheds
SLO_MS = 250.0
LOOPBACK = "tcp://127.0.0.1:0"
#: profiling-occupancy emulation (see module docstring): each cold request
#: waits on its kernel's simulated execution, capped per run
WALLTIME_SCALE = 2.0
WALLTIME_CAP = 0.02


def _group_names(count: int):
    return [f"g{i}" for i in range(count)]


def _shard_models(group_count: int):
    """Model names hashing onto each group of a ``group_count`` fleet.

    Deterministic: candidate names are enumerated in order and bucketed by
    the same ring the router uses, until every group owns
    ``MODELS_PER_GROUP`` of them — balanced sharding by construction, no
    hash luck involved.
    """
    ring = HashRing(_group_names(group_count))
    buckets = {group: [] for group in _group_names(group_count)}
    index = 0
    while any(len(names) < MODELS_PER_GROUP for names in buckets.values()):
        name = f"bench-openmp-{index}"
        index += 1
        owner = buckets[ring.lookup(f"{name}@latest")]
        if len(owner) < MODELS_PER_GROUP:
            owner.append(name)
    return buckets


def _publish(root: str, model_names) -> None:
    arch = COMET_LAKE_8C
    space = list(thread_search_space(arch))
    specs = registry.openmp_kernels()
    tuner = MGATuner(arch, space, seed=0, gnn_hidden=12, gnn_out=12,
                     dae_hidden=24, dae_code=8, mlp_hidden=16)
    dataset = OpenMPDatasetBuilder(arch, space, seed=0).build(
        specs[:TRAIN_KERNELS], np.geomspace(1e5, 2e8, TRAIN_INPUTS))
    tuner.fit(dataset, epochs=EPOCHS, dae_epochs=EPOCHS)
    published = ModelRegistry(root)
    for name in model_names:
        published.publish(name, tuner)


def _request_stream(models, num_requests: int, seed: int = 7):
    """Distinct (model, kernel uid, scale) triples: every one a cache miss."""
    served = registry.openmp_kernels()[TRAIN_KERNELS:
                                       TRAIN_KERNELS + SERVE_KERNELS]
    rng = np.random.default_rng(seed)
    scales = rng.uniform(0.25, 4.0, size=num_requests)
    return [{"op": "tune", "model": models[i % len(models)],
             "kernel": served[i % len(served)].uid,
             "scale": round(float(scales[i]), 6)}
            for i in range(num_requests)]


def _reference_responses(root: str, requests):
    """The in-process engine's answers over the same published artifact.

    Every published name points at the same artifact, so the reference is
    computed once per (kernel, scale) regardless of the model name a
    request shards by.
    """
    tuner = ModelRegistry(root).load(requests[0]["model"])
    with InferenceEngine(tuner, max_batch_size=MAX_BATCH) as engine:
        answers = {}
        for request in requests:
            key = (request["kernel"], request["scale"])
            if key not in answers:
                config, counters = engine.tune(
                    registry.get_kernel(request["kernel"]), request["scale"])
                answers[key] = {"config_label": config.label(),
                                "num_threads": config.num_threads,
                                "schedule": config.schedule.value,
                                "chunk_size": config.chunk_size,
                                "counters": dict(counters)}
    return [answers[(r["kernel"], r["scale"])] for r in requests]


def _identical(responses, reference) -> bool:
    for response, expected in zip(responses, reference):
        if response is None:
            return False
        got = {"config_label": response["config_label"],
               "num_threads": response["num_threads"],
               "schedule": response["schedule"],
               "chunk_size": response["chunk_size"],
               "counters": dict(response["counters"])}
        if got != expected:
            return False
    return True


class _Fleet:
    """``group_count`` single-worker TCP replicas behind one TCP router."""

    def __init__(self, root: str, group_count: int, shards):
        self.daemons = []
        self.router = None
        try:
            replicas = []
            for group in _group_names(group_count):
                daemon = ServeDaemon(
                    LOOPBACK, registry_root=root, workers=1,
                    max_batch=MAX_BATCH,
                    max_queue=MAX_QUEUE, preload=shards[group]).start()
                self.daemons.append(daemon)
                replicas.append((group, daemon.address))
            self.router = ServeRouter(
                LOOPBACK, replicas=replicas, probe_interval=0.5,
                max_inflight=4 * CONCURRENCY,
                max_inflight_per_route=4 * CONCURRENCY).start()
        except BaseException:
            self.close()
            raise

    @property
    def address(self) -> str:
        return self.router.address

    def queue_depths(self):
        return [daemon.stats()["queue"]["depth"] for daemon in self.daemons]

    def close(self) -> None:
        if self.router is not None:
            self.router.shutdown()
        for daemon in self.daemons:
            daemon.shutdown()


def run(num_requests: int = NUM_REQUESTS, group_counts=(1, 2, 4),
        offered_rps: float = OFFERED_RPS,
        overload_requests: int = OVERLOAD_REQUESTS) -> dict:
    top = max(group_counts)
    shards = {count: _shard_models(count) for count in group_counts}
    all_models = sorted({name for by_group in shards.values()
                         for names in by_group.values() for name in names})
    with tempfile.TemporaryDirectory() as tmp:
        root = os.path.join(tmp, "registry")
        _publish(root, all_models)

        identical = True
        per_groups = {}
        os.environ[WALLTIME_SCALE_ENV] = str(WALLTIME_SCALE)
        os.environ[WALLTIME_CAP_ENV] = str(WALLTIME_CAP)
        try:
            for count in group_counts:
                models = [name for names in shards[count].values()
                          for name in names]
                requests = _request_stream(models, num_requests)
                reference = _reference_responses(root, requests)
                fleet = _Fleet(root, count, shards[count])
                try:
                    # untimed warmup: every replica serves a few batches
                    # before the clock starts, as a long-running fleet would
                    open_loop(fleet.address,
                              _request_stream(models, WARMUP_REQUESTS,
                                              seed=1234),
                              rate_rps=offered_rps, concurrency=CONCURRENCY)
                    report = open_loop(
                        fleet.address, requests, rate_rps=offered_rps,
                        concurrency=CONCURRENCY, slo_ms=SLO_MS,
                        collect_responses=True)
                    router_stats = fleet.router.stats()
                    depths = fleet.queue_depths()
                finally:
                    fleet.close()
                served = [response for response in report["responses"]
                          if response is not None]
                matched = [expected for response, expected
                           in zip(report["responses"], reference)
                           if response is not None]
                identical = identical and bool(served) \
                    and _identical(served, matched)
                per_groups[count] = {
                    "offered_rps": report["offered_rps"],
                    "achieved_rps": report["achieved_rps"],
                    "completed": report["completed"],
                    "shed": report["shed"],
                    "p50_latency_ms": report["latency_ms"]["p50"],
                    "p99_latency_ms": report["latency_ms"]["p99"],
                    "p999_latency_ms": report["latency_ms"]["p999"],
                    "slo_attainment": report["slo"]["attainment"],
                    "router_retried": router_stats["requests"]["retried"],
                    "final_queue_depths": depths,
                }

            # overload: the smallest fleet at a rate far past saturation —
            # the excess must shed with structured errors, queues bounded
            smallest = min(group_counts)
            models = [name for names in shards[smallest].values()
                      for name in names]
            fleet = _Fleet(root, smallest, shards[smallest])
            try:
                overload = open_loop(
                    fleet.address,
                    _request_stream(models, overload_requests, seed=99),
                    rate_rps=OVERLOAD_RPS, concurrency=CONCURRENCY)
                overload_depths = fleet.queue_depths()
            finally:
                fleet.close()
        finally:
            os.environ.pop(WALLTIME_SCALE_ENV, None)
            os.environ.pop(WALLTIME_CAP_ENV, None)

    base = min(group_counts)
    for count in group_counts:
        per_groups[count]["scaling"] = (per_groups[count]["achieved_rps"]
                                        / per_groups[base]["achieved_rps"])
    return {
        "models_per_group": MODELS_PER_GROUP,
        "requests": num_requests,
        "offered_rps": offered_rps,
        "concurrency": CONCURRENCY,
        "max_batch": MAX_BATCH,
        "max_queue": MAX_QUEUE,
        "slo_ms": SLO_MS,
        "profile_walltime": {"scale": WALLTIME_SCALE, "cap_s": WALLTIME_CAP},
        "predictions_identical_to_engine": identical,
        "groups": {str(count): per_groups[count] for count in group_counts},
        "overload": {
            "groups": min(group_counts),
            "offered_rps": OVERLOAD_RPS,
            "requests": overload_requests,
            "completed": overload["completed"],
            "shed": overload["shed"],
            "errors": overload["errors"],
            "final_queue_depths": overload_depths,
            "queues_bounded": all(depth <= MAX_QUEUE
                                  for depth in overload_depths),
        },
        # only dimensionless ratios gate CI: absolute rps depends on the
        # runner's hardware, the scaling ratio is fleet-level overlap
        "gate_metrics": {
            f"router_scaling_{top}g": per_groups[top]["scaling"],
        },
    }


def _check(payload: dict, quick: bool) -> None:
    assert payload["predictions_identical_to_engine"], (
        "routed responses diverged from the in-process InferenceEngine")
    overload = payload["overload"]
    assert overload["shed"] > 0, (
        "an offered rate far past saturation produced no structured sheds")
    assert overload["queues_bounded"], (
        f"replica queues exceeded their bound past saturation: "
        f"{overload['final_queue_depths']} > {payload['max_queue']}")
    if not quick:
        top = max(int(count) for count in payload["groups"])
        scaling = payload["groups"][str(top)]["scaling"]
        assert scaling >= 1.5, (
            f"expected >=1.5x goodput at {top} replica groups vs 1, got "
            f"{scaling:.2f}x")
        print(f"{top}-group scaling {scaling:.2f}x (>= 1.5x required)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small request count, groups 1-2, no scaling "
                             "assert (CI smoke mode)")
    args = parser.parse_args()

    if args.quick:
        payload = run(num_requests=96, group_counts=(1, 2),
                      overload_requests=64)
    else:
        payload = run()
    path = write_bench_json("router_scaling", payload)
    print(json.dumps(payload, indent=2))
    print(f"\nwrote {path}")
    _check(payload, args.quick)
    return 0


def test_router_scaling(once, capsys):
    quick = os.environ.get("REPRO_BENCH_QUICK") == "1"
    if quick:
        payload = once(lambda: run(num_requests=96, group_counts=(1, 2),
                                   overload_requests=64))
    else:
        payload = once(run)
    with capsys.disabled():
        print()
        print("router scaling:")
        print(json.dumps(payload, indent=2))
    _check(payload, quick)


if __name__ == "__main__":
    raise SystemExit(main())
