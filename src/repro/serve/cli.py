"""Command line interface: ``python -m repro.serve <command>``.

Commands
--------
``publish-demo``  train a small demo tuner/mapper and publish it
``list``          enumerate registry contents
``info``          print a published version's manifest
``tune``          tune one kernel with a published OpenMP tuner
``map``           map one kernel with a published device mapper
``campaign``      run/resume a parallel black-box search campaign
``fleet-coordinator``  serve a campaign's config batches as leases so
                  workers on any host can evaluate them (fault-tolerant,
                  elastic; resumable from the same checkpoints)
``fleet-worker``  lease/evaluate/submit against a running coordinator;
                  ``--faults`` (or ``REPRO_FAULTS``) injects a chaos plan
``daemon``        serve models over a socket (multi-worker, batched);
                  ``--socket PATH`` for AF_UNIX or ``--tcp HOST:PORT``
``router``        shard requests over replica daemons (consistent hashing,
                  health probes, fleet-level admission control)
``request``       send one request to a running daemon or router
``swap``          hot-swap a served model to another published version
                  (or ``--rollback`` to the previous one) with zero drain
``shadow``        start/stop/inspect a shadow deploy: tee a fraction of
                  live traffic to a candidate version and diff predictions
``loadgen``       open-loop Poisson load against a daemon or router

Machine-readable output: every command prints one JSON document to stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import List, Optional


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Publish and query MGA tuner models.")
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("publish-demo",
                          help="train a small tuner and publish it")
    demo.add_argument("--root", required=True, help="registry root directory")
    demo.add_argument("--name", default="demo-openmp", help="model name")
    demo.add_argument("--task", choices=("openmp", "devmap"), default="openmp")
    demo.add_argument("--kernels", type=int, default=8,
                      help="number of training kernels")
    demo.add_argument("--inputs", type=int, default=3,
                      help="input sizes per kernel (openmp task)")
    demo.add_argument("--epochs", type=int, default=10)
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument("--no-drift", action="store_true",
                      help="skip co-publishing the input-drift baseline "
                           "sketched from the training set")

    lst = sub.add_parser("list", help="list registry contents")
    lst.add_argument("--root", required=True)

    info = sub.add_parser("info", help="show a published version's manifest")
    info.add_argument("--root", required=True)
    info.add_argument("name")
    info.add_argument("--version", type=int, default=None)

    tune = sub.add_parser("tune", help="tune one kernel")
    tune.add_argument("--root", default=None,
                      help="registry root (omit with --daemon)")
    tune.add_argument("--daemon", default=None, metavar="SOCKET",
                      help="route through a running daemon instead of "
                           "loading the model in-process")
    tune.add_argument("--model", required=True)
    tune.add_argument("--version", type=int, default=None)
    tune.add_argument("--kernel", required=True,
                      help="kernel uid, e.g. polybench/gemm")
    tune.add_argument("--scale", type=float, default=None)
    tune.add_argument("--target-bytes", type=float, default=None)

    mapper = sub.add_parser("map", help="map one kernel to CPU/GPU")
    mapper.add_argument("--root", default=None,
                        help="registry root (omit with --daemon)")
    mapper.add_argument("--daemon", default=None, metavar="SOCKET",
                        help="route through a running daemon instead of "
                             "loading the model in-process")
    mapper.add_argument("--model", required=True)
    mapper.add_argument("--version", type=int, default=None)
    mapper.add_argument("--kernel", required=True)
    mapper.add_argument("--transfer-bytes", type=float, required=True)
    mapper.add_argument("--wgsize", type=int, default=64)

    daemon = sub.add_parser(
        "daemon",
        help="serve published models over a socket: a work-conserving "
             "dispatcher hands each idle worker process the oldest waiting "
             "requests, batching only what queues while every worker is "
             "busy")
    daemon.add_argument("--socket", default=None,
                        help="address to listen on: an AF_UNIX path or "
                             "tcp://HOST:PORT")
    daemon.add_argument("--tcp", default=None, metavar="HOST:PORT",
                        help="shorthand for --socket tcp://HOST:PORT "
                             "(port 0 binds an ephemeral port)")
    daemon.add_argument("--root", default=None,
                        help="model registry root (omit for a session-only "
                             "daemon)")
    daemon.add_argument("--workers", type=int, default=2,
                        help="worker processes, each holding warm models")
    daemon.add_argument("--max-batch", type=int, default=16,
                        help="most requests one worker takes at once")
    daemon.add_argument("--max-queue", type=int, default=64,
                        help="bounded queue: shed (overloaded) beyond this "
                             "many waiting requests")
    daemon.add_argument("--preload", action="append", default=[],
                        metavar="MODEL[@VERSION]",
                        help="warm these models in every worker before "
                             "accepting requests (repeatable)")
    daemon.add_argument("--watch-interval", type=float, default=0.5,
                        help="seconds between registry-generation polls for "
                             "auto hot-swap of unpinned routes (0 disables "
                             "the watch thread)")
    daemon.add_argument("--debug-ops", action="store_true",
                        help="enable the fault-injection ops used by tests "
                             "(_crash, _sleep)")
    daemon.add_argument("--mp-start", default=None,
                        choices=("fork", "spawn", "forkserver"),
                        help="multiprocessing start method for the workers")

    router = sub.add_parser(
        "router",
        help="shard requests over replica daemons: consistent hashing by "
             "(model, version) over replica groups, health-checked "
             "discovery, fleet-level admission control")
    router.add_argument("--listen", default=None,
                        help="address to listen on: an AF_UNIX path or "
                             "tcp://HOST:PORT")
    router.add_argument("--tcp", default=None, metavar="HOST:PORT",
                        help="shorthand for --listen tcp://HOST:PORT")
    router.add_argument("--replica", action="append", default=[],
                        metavar="[GROUP=]ADDRESS", required=True,
                        help="a replica daemon address, optionally "
                             "prefixed with its shard group (repeat; "
                             "same GROUP = load-balanced replicas of one "
                             "shard)")
    router.add_argument("--probe-interval", type=float, default=0.5,
                        help="seconds between health probes per replica")
    router.add_argument("--fail-after", type=int, default=3,
                        help="consecutive probe failures before ejection")
    router.add_argument("--max-inflight", type=int, default=256,
                        help="fleet-level cap on in-flight requests; "
                             "beyond it requests are shed (overloaded)")
    router.add_argument("--max-inflight-per-route", type=int, default=None,
                        help="per-(model,version) in-flight cap "
                             "(default: max-inflight / 2)")
    router.add_argument("--vnodes", type=int, default=64,
                        help="virtual nodes per group on the hash ring")

    request = sub.add_parser(
        "request",
        help="send one JSON request to a running daemon or router")
    request.add_argument("--socket", required=True,
                        help="daemon/router address (AF_UNIX path or "
                             "tcp://HOST:PORT)")
    group = request.add_mutually_exclusive_group(required=True)
    group.add_argument("--json", default=None,
                       help="raw request document, e.g. "
                            "'{\"op\": \"stats\"}'")
    group.add_argument("--op", default=None,
                       choices=("ping", "stats", "shutdown", "tune", "map"))
    request.add_argument("--model", default=None)
    request.add_argument("--version", type=int, default=None)
    request.add_argument("--kernel", default=None)
    request.add_argument("--scale", type=float, default=None)
    request.add_argument("--target-bytes", type=float, default=None)
    request.add_argument("--transfer-bytes", type=float, default=None)
    request.add_argument("--wgsize", type=int, default=None)
    request.add_argument("--timeout", type=float, default=600.0)

    swap = sub.add_parser(
        "swap",
        help="hot-swap a served model to another published version with "
             "zero drain (flips between micro-batches)")
    swap.add_argument("--socket", required=True,
                      help="daemon/router address (AF_UNIX path or "
                           "tcp://HOST:PORT)")
    swap.add_argument("--model", required=True)
    swap.add_argument("--version", type=int, default=None,
                      help="target version (default: registry latest); an "
                           "explicit version pins the route")
    swap.add_argument("--rollback", action="store_true",
                      help="return to the previously active version and "
                           "pin it")
    swap.add_argument("--track-latest", action="store_true",
                      help="swap without pinning: the route keeps following "
                           "new registry publishes")
    swap.add_argument("--timeout", type=float, default=600.0)

    shadow = sub.add_parser(
        "shadow",
        help="shadow deploys: tee a fraction of a model's live traffic to "
             "a candidate version and diff the predictions")
    shadow.add_argument("action", choices=("start", "stop", "status"))
    shadow.add_argument("--socket", required=True,
                        help="daemon/router address (AF_UNIX path or "
                             "tcp://HOST:PORT)")
    shadow.add_argument("--model", required=True)
    shadow.add_argument("--version", type=int, default=None,
                        help="candidate version (required for start)")
    shadow.add_argument("--fraction", type=float, default=0.2,
                        help="fraction of live traffic to tee (0, 1]")
    shadow.add_argument("--tolerance", type=float, default=0.0,
                        help="relative num_threads tolerance under which a "
                             "tune disagreement counts as 'near'")
    shadow.add_argument("--min-compared", type=int, default=0,
                        help="comparisons before the auto promote/abort "
                             "policy may act (0 disables the policy)")
    shadow.add_argument("--promote-below", type=float, default=0.0,
                        help="auto-promote when the disagreement rate is "
                             "at or below this")
    shadow.add_argument("--abort-above", type=float, default=1.0,
                        help="auto-abort when the disagreement rate is "
                             "at or above this")
    shadow.add_argument("--timeout", type=float, default=600.0)

    loadgen = sub.add_parser(
        "loadgen",
        help="open-loop Poisson load against a daemon or router: latency "
             "histograms, SLO attainment, shed accounting")
    loadgen.add_argument("--address", required=True,
                         help="daemon/router address (AF_UNIX path or "
                              "tcp://HOST:PORT)")
    loadgen.add_argument("--json", required=True,
                         help="request template document, e.g. '{\"op\": "
                              "\"tune\", \"model\": \"demo\", \"kernel\": "
                              "\"polybench/gemm\"}'")
    loadgen.add_argument("--rate", type=float, required=True,
                         help="offered load in requests/second")
    loadgen.add_argument("--requests", type=int, required=True,
                         help="total requests to offer")
    loadgen.add_argument("--seed", type=int, default=0,
                         help="Poisson arrival seed")
    loadgen.add_argument("--concurrency", type=int, default=32,
                         help="sender threads/connections (must exceed "
                              "rate x worst-case latency)")
    loadgen.add_argument("--slo-ms", type=float, default=None,
                         help="report attainment against this latency SLO")
    loadgen.add_argument("--timeout", type=float, default=120.0)

    campaign = sub.add_parser(
        "campaign",
        help="run a parallel black-box search campaign on the simulator")
    # search-defining flags default to None so the resume path can tell
    # "explicitly passed" (an error: the checkpoint owns these) from
    # "omitted" (CampaignRequest supplies the defaults)
    campaign.add_argument("--kernel", default=None,
                          help="kernel uid, e.g. polybench/gemm "
                               "(not allowed with --resume)")
    campaign.add_argument("--tuner", default=None,
                          help="strategy: random/oracle/opentuner/ytopt/bliss "
                               "(default random)")
    campaign.add_argument("--budget", type=int, default=None,
                          help="evaluation budget (default 20; oracle "
                               "ignores it)")
    campaign.add_argument("--arch", default=None,
                          help="micro-architecture preset name "
                               "(default skylake_4114)")
    campaign.add_argument("--space", choices=("full", "threads"),
                          default=None, help="(default full)")
    campaign.add_argument("--scale", type=float, default=None)
    campaign.add_argument("--noise", type=float, default=None)
    campaign.add_argument("--repeats", type=int, default=None,
                          help="simulated measurements per configuration")
    campaign.add_argument("--seed", type=int, default=None,
                          help="search seed (proposals)")
    campaign.add_argument("--sim-seed", type=int, default=None,
                          help="measurement seed (simulator noise)")
    campaign.add_argument("--batch-size", type=int, default=None,
                          help="proposals per ask/tell round (default 8)")
    campaign.add_argument("--workers", type=int, default=1,
                          help="evaluation worker processes")
    campaign.add_argument("--checkpoint", default=None,
                          help="directory to checkpoint campaign state into")
    campaign.add_argument("--resume", default=None,
                          help="checkpoint directory to continue from")

    fleet = sub.add_parser(
        "fleet-coordinator",
        help="serve a campaign's proposal batches as config leases: workers "
             "on any host lease, heartbeat and submit; the coordinator owns "
             "ask/tell, reissues expired leases and falls back to local "
             "evaluation when no workers are connected")
    fleet.add_argument("--listen", default=None,
                       help="address to listen on: an AF_UNIX path or "
                            "tcp://HOST:PORT")
    fleet.add_argument("--tcp", default=None, metavar="HOST:PORT",
                       help="shorthand for --listen tcp://HOST:PORT "
                            "(port 0 binds an ephemeral port)")
    # search-defining flags: same conflict-with---resume contract as the
    # `campaign` subcommand (the checkpoint owns the search definition)
    fleet.add_argument("--kernel", default=None,
                       help="kernel uid (not allowed with --resume)")
    fleet.add_argument("--tuner", default=None,
                       help="strategy: random/oracle/opentuner/ytopt/bliss "
                            "(default random)")
    fleet.add_argument("--budget", type=int, default=None,
                       help="evaluation budget (default 20)")
    fleet.add_argument("--arch", default=None,
                       help="micro-architecture preset (default skylake_4114)")
    fleet.add_argument("--space", choices=("full", "threads"), default=None)
    fleet.add_argument("--scale", type=float, default=None)
    fleet.add_argument("--noise", type=float, default=None)
    fleet.add_argument("--repeats", type=int, default=None)
    fleet.add_argument("--seed", type=int, default=None,
                       help="search seed (proposals)")
    fleet.add_argument("--sim-seed", type=int, default=None,
                       help="measurement seed (simulator noise)")
    fleet.add_argument("--batch-size", type=int, default=None,
                       help="proposals per ask/tell round (default 8)")
    fleet.add_argument("--walltime-scale", type=float, default=None,
                       help="make each evaluation occupy wall-clock time "
                            "proportional to the simulated execution")
    fleet.add_argument("--walltime-cap", type=float, default=None,
                       help="cap per-evaluation occupancy (seconds)")
    fleet.add_argument("--checkpoint", default=None,
                       help="directory to checkpoint campaign state into")
    fleet.add_argument("--resume", default=None,
                       help="checkpoint directory to continue from")
    fleet.add_argument("--lease-timeout", type=float, default=2.0,
                       help="seconds without a heartbeat before a lease "
                            "expires and its configs are reissued")
    fleet.add_argument("--lease-configs", type=int, default=4,
                       help="max configs granted per lease")
    fleet.add_argument("--local-fallback", type=float, default=1.0,
                       help="seconds of worker silence before the "
                            "coordinator evaluates configs itself "
                            "(negative disables)")
    fleet.add_argument("--linger", type=float, default=2.0,
                       help="keep serving this long after the campaign "
                            "finishes so workers observe done and exit")

    fworker = sub.add_parser(
        "fleet-worker",
        help="evaluate config leases from a running fleet-coordinator "
             "until the campaign is done")
    fworker.add_argument("--coordinator", required=True, metavar="ADDRESS",
                         help="coordinator address (AF_UNIX path or "
                              "tcp://HOST:PORT)")
    fworker.add_argument("--worker-id", default=None,
                         help="stable worker name (default: pid-derived)")
    fworker.add_argument("--max-configs", type=int, default=2,
                         help="configs to request per lease")
    fworker.add_argument("--max-leases", type=int, default=None,
                         help="exit after this many leases (default: run "
                              "until the campaign is done)")
    fworker.add_argument("--request-timeout", type=float, default=5.0)
    fworker.add_argument("--retries", type=int, default=10,
                         help="transport-level retries per request")
    fworker.add_argument("--faults", default=None, metavar="SPEC",
                         help="chaos fault plan, e.g. 'drop=0.1,delay_ms=15,"
                              "kill_after=9' (default: REPRO_FAULTS env)")
    fworker.add_argument("--fault-seed", type=int, default=None,
                         help="fault plan RNG seed (default: "
                              "REPRO_FAULT_SEED env)")
    fworker.add_argument("--fault-seed-offset", type=int, default=0,
                         help="decorrelates sibling workers' fault schedules")
    return parser


# ----------------------------------------------------------------------
def _cmd_publish_demo(args) -> int:
    import numpy as np

    from repro.core import DeviceMapper, MGATuner
    from repro.datasets import DevMapDatasetBuilder, OpenMPDatasetBuilder
    from repro.kernels import registry as kernels
    from repro.serve.drift import baseline_for
    from repro.serve.registry import ModelRegistry
    from repro.simulator.microarch import COMET_LAKE_8C, TAHITI_7970
    from repro.tuners import thread_search_space

    model_registry = ModelRegistry(args.root)
    small = dict(gnn_hidden=12, gnn_out=12, dae_hidden=24, dae_code=8,
                 mlp_hidden=16)
    if args.task == "openmp":
        arch = COMET_LAKE_8C
        space = list(thread_search_space(arch))
        specs = kernels.openmp_kernels()[:args.kernels]
        dataset = OpenMPDatasetBuilder(arch, space, seed=args.seed).build(
            specs, np.geomspace(1e5, 2e8, args.inputs))
        tuner = MGATuner(arch, space, seed=args.seed, **small)
        tuner.fit(dataset, epochs=args.epochs, dae_epochs=args.epochs)
        baseline = None if args.no_drift else baseline_for(tuner, dataset)
        published = model_registry.publish(
            args.name, tuner,
            metadata={"task": "openmp", "arch": arch.name,
                      "train_samples": len(dataset),
                      "num_configs": dataset.num_configs},
            drift_baseline=baseline)
    else:
        specs = kernels.opencl_kernels()[:args.kernels]
        dataset = DevMapDatasetBuilder(TAHITI_7970, seed=args.seed).build(
            specs, points_per_kernel=3)
        mapper = DeviceMapper(seed=args.seed, **small)
        mapper.fit(dataset, epochs=args.epochs, dae_epochs=args.epochs)
        baseline = None if args.no_drift else baseline_for(mapper, dataset)
        published = model_registry.publish(
            args.name, mapper,
            metadata={"task": "devmap", "gpu": dataset.gpu_name,
                      "train_samples": len(dataset)},
            drift_baseline=baseline)
    print(json.dumps({"published": published.ref, "path": published.path,
                      "kind": published.kind,
                      "drift_baseline": baseline is not None,
                      "metadata": published.metadata}, indent=2))
    return 0


def _cmd_list(args) -> int:
    from repro.serve.registry import ModelRegistry

    entries = ModelRegistry(args.root).describe()
    print(json.dumps([{"name": e.name, "version": e.version, "kind": e.kind,
                       "metadata": e.metadata} for e in entries], indent=2))
    return 0


def _cmd_info(args) -> int:
    from repro.serve.registry import ModelRegistry

    manifest = ModelRegistry(args.root).info(args.name, args.version)
    manifest = dict(manifest)
    manifest.pop("config", None)      # large; `load` reads it, humans rarely do
    print(json.dumps(manifest, indent=2, sort_keys=True))
    return 0


def _service_for(args):
    from repro.serve.registry import ModelRegistry
    from repro.serve.service import TuningService

    if args.daemon is None and args.root is None:
        raise ValueError("one of --root / --daemon is required")
    registry = ModelRegistry(args.root) if args.root is not None else None
    return TuningService(registry, daemon=args.daemon)


def _cmd_tune(args) -> int:
    from repro.serve.service import TuneRequest

    with _service_for(args) as service:
        response = service.tune(TuneRequest(
            model=args.model, version=args.version, kernel=args.kernel,
            scale=args.scale, target_bytes=args.target_bytes))
        print(json.dumps(dataclasses.asdict(response), indent=2))
    return 0


def _cmd_map(args) -> int:
    from repro.serve.service import MapRequest

    with _service_for(args) as service:
        response = service.map_device(MapRequest(
            model=args.model, version=args.version, kernel=args.kernel,
            transfer_bytes=args.transfer_bytes, wgsize=args.wgsize))
        print(json.dumps(dataclasses.asdict(response), indent=2))
    return 0


def _listen_address(socket_arg, tcp_arg, flag="--socket"):
    if socket_arg is not None and tcp_arg is not None:
        raise ValueError(f"{flag} and --tcp are mutually exclusive")
    if tcp_arg is not None:
        return f"tcp://{tcp_arg}"
    if socket_arg is None:
        raise ValueError(f"one of {flag} / --tcp is required")
    return socket_arg


def _run_until_stop(server) -> None:
    """Block until SIGINT/SIGTERM or a ``shutdown`` op stops ``server`` (a
    daemon or a router), then shut it down: a daemon drains first."""
    import signal
    import threading

    stop = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: stop.set())
    try:
        while not stop.is_set() and server.running:
            stop.wait(0.2)
    finally:
        server.shutdown()


def _cmd_daemon(args) -> int:
    from repro.serve.daemon import ServeDaemon

    daemon = ServeDaemon(
        address=_listen_address(args.socket, args.tcp),
        registry_root=args.root,
        workers=args.workers, max_batch=args.max_batch,
        max_queue=args.max_queue, preload=args.preload,
        debug_ops=args.debug_ops, mp_start_method=args.mp_start,
        watch_interval_s=args.watch_interval)
    daemon.start()
    # daemon.address is the *resolved* form (ephemeral TCP ports filled in)
    print(json.dumps({"ready": True, "socket": daemon.address,
                      "transport": daemon.scheme,
                      "workers": args.workers, "max_batch": args.max_batch,
                      "max_queue": args.max_queue, "pid": os.getpid()}),
          flush=True)
    _run_until_stop(daemon)
    return 0


def _cmd_router(args) -> int:
    from repro.serve.router import ServeRouter

    router = ServeRouter(
        address=_listen_address(args.listen, args.tcp, flag="--listen"),
        replicas=args.replica, probe_interval=args.probe_interval,
        fail_after=args.fail_after, max_inflight=args.max_inflight,
        max_inflight_per_route=args.max_inflight_per_route,
        vnodes=args.vnodes)
    router.start()
    print(json.dumps({"ready": True, "listen": router.address,
                      "transport": router.scheme,
                      "replicas": [replica.address
                                   for replica in router.replicas],
                      "groups": sorted({replica.group for replica
                                        in router.replicas}),
                      "pid": os.getpid()}), flush=True)
    _run_until_stop(router)
    return 0


def _cmd_loadgen(args) -> int:
    from repro.serve.loadgen import open_loop

    template = json.loads(args.json)
    if not isinstance(template, dict) or "op" not in template:
        raise ValueError("--json must be a request object with an 'op'")
    report = open_loop(args.address, [dict(template)] * args.requests,
                       rate_rps=args.rate, seed=args.seed,
                       concurrency=args.concurrency, timeout=args.timeout,
                       slo_ms=args.slo_ms)
    print(json.dumps(report, indent=2))
    return 0


def _cmd_request(args) -> int:
    from repro.serve.client import DaemonClient, DaemonError

    if args.json is not None:
        document = json.loads(args.json)
    else:
        document = {"op": args.op}
        for field in ("model", "version", "kernel", "scale",
                      "target_bytes", "transfer_bytes", "wgsize"):
            value = getattr(args, field)
            if value is not None:
                document[field] = value
        if args.op == "map":
            # same default as the in-process `map` subcommand
            document.setdefault("wgsize", 64)
    with DaemonClient(args.socket, timeout=args.timeout) as client:
        try:
            result = client.request(document)
        except DaemonError as exc:
            print(json.dumps({"ok": False, "error": {
                "code": exc.code, "message": exc.message}}, indent=2))
            return 1
    print(json.dumps({"ok": True, "result": result}, indent=2))
    return 0


def _cmd_swap(args) -> int:
    from repro.serve.client import DaemonClient, DaemonError

    with DaemonClient(args.socket, timeout=args.timeout) as client:
        try:
            result = client.swap(args.model, version=args.version,
                                 rollback=args.rollback,
                                 track_latest=args.track_latest)
        except DaemonError as exc:
            print(json.dumps({"ok": False, "error": {
                "code": exc.code, "message": exc.message}}, indent=2))
            return 1
    print(json.dumps({"ok": True, "result": result}, indent=2))
    return 0


def _cmd_shadow(args) -> int:
    from repro.serve.client import DaemonClient, DaemonError

    with DaemonClient(args.socket, timeout=args.timeout) as client:
        try:
            if args.action == "start":
                if args.version is None:
                    raise ValueError("shadow start requires --version")
                result = client.shadow_start(
                    args.model, args.version, fraction=args.fraction,
                    tolerance=args.tolerance,
                    min_compared=args.min_compared,
                    promote_below=args.promote_below,
                    abort_above=args.abort_above)
            elif args.action == "stop":
                result = client.shadow_stop(args.model)
            else:
                result = client.shadow_status(args.model)
        except DaemonError as exc:
            print(json.dumps({"ok": False, "error": {
                "code": exc.code, "message": exc.message}}, indent=2))
            return 1
    print(json.dumps({"ok": True, "result": result}, indent=2))
    return 0


def _cmd_campaign(args) -> int:
    from repro.serve.service import CampaignRequest, TuningService

    search_flags = {name: getattr(args, name) for name in
                    ("kernel", "tuner", "budget", "arch", "space", "scale",
                     "noise", "repeats", "seed", "sim_seed", "batch_size")}
    if args.resume is not None:
        conflicting = sorted(k for k, v in search_flags.items()
                             if v is not None)
        if conflicting:
            raise ValueError(
                "these flags define the search and come from the checkpoint; "
                "they cannot be combined with --resume: "
                + ", ".join("--" + c.replace("_", "-") for c in conflicting))
    request = CampaignRequest(
        workers=args.workers, checkpoint=args.checkpoint, resume=args.resume,
        **{k: v for k, v in search_flags.items() if v is not None})
    with TuningService() as service:
        response = service.run_campaign(request)
        print(json.dumps(dataclasses.asdict(response), indent=2))
    return 0


def _fleet_campaign(args):
    """Build (or resume) the TuningCampaign a coordinator will serve."""
    from repro.kernels import registry as kernel_registry
    from repro.serve.service import CampaignRequest
    from repro.simulator.microarch import get_microarch
    from repro.tuners.campaign import (
        SimObjectiveSpec,
        TuningCampaign,
        make_tuner,
    )
    from repro.tuners.space import full_search_space, thread_search_space

    search_flags = {name: getattr(args, name) for name in
                    ("kernel", "tuner", "budget", "arch", "space", "scale",
                     "noise", "repeats", "seed", "sim_seed", "batch_size",
                     "walltime_scale", "walltime_cap")}
    if args.resume is not None:
        conflicting = sorted(k for k, v in search_flags.items()
                             if v is not None)
        if conflicting:
            raise ValueError(
                "these flags define the search and come from the checkpoint; "
                "they cannot be combined with --resume: "
                + ", ".join("--" + c.replace("_", "-") for c in conflicting))
        return TuningCampaign.resume(
            args.resume, checkpoint_path=args.checkpoint or args.resume)
    walltime = {k: search_flags.pop(k) for k in
                ("walltime_scale", "walltime_cap")}
    request = CampaignRequest(
        checkpoint=args.checkpoint,
        **{k: v for k, v in search_flags.items() if v is not None})
    if request.kernel is None:
        raise ValueError("--kernel is required unless resuming from a "
                         "checkpoint")
    arch = get_microarch(request.arch)
    kernel = kernel_registry.get_kernel(request.kernel)
    if request.space == "threads":
        space = thread_search_space(arch)
    else:
        space = full_search_space(max_threads=arch.max_threads)
    objective_spec = SimObjectiveSpec(
        kernel_uid=kernel.uid, arch=arch, scale=request.scale,
        noise=request.noise, seed=request.sim_seed, repeats=request.repeats,
        **{k: v for k, v in walltime.items() if v is not None})
    config = ({} if request.tuner == "oracle"
              else {"budget": request.budget, "seed": request.seed})
    tuner = make_tuner(request.tuner, config)
    return TuningCampaign(tuner, space, objective_spec,
                          batch_size=request.batch_size,
                          checkpoint_path=request.checkpoint)


def _cmd_fleet_coordinator(args) -> int:
    import time

    from repro.tuners.fleet import CampaignCoordinator

    campaign = _fleet_campaign(args)
    fallback = None if args.local_fallback < 0 else args.local_fallback
    coordinator = CampaignCoordinator(
        campaign, _listen_address(args.listen, args.tcp, flag="--listen"),
        lease_timeout=args.lease_timeout,
        max_lease_configs=args.lease_configs,
        local_fallback_s=fallback)
    with coordinator:
        print(json.dumps({"ready": True, "listen": coordinator.address,
                          "campaign": coordinator.campaign_id,
                          "evaluations": len(campaign.history),
                          "budget": campaign.tuner.effective_budget(
                              campaign.space),
                          "pid": os.getpid()}), flush=True)
        result = coordinator.run()
        # let polling workers observe done before the listener goes away
        if args.linger > 0:
            time.sleep(args.linger)
        stats = coordinator.stats()
    print(json.dumps({
        "best_label": result.best_config.label(),
        "best_time": result.best_time,
        "evaluations": result.evaluations,
        "batches": campaign.batches,
        "wall_seconds": campaign.wall_seconds,
        "checkpoint": campaign.checkpoint_path,
        "finished": campaign.finished,
        "stats": stats}, indent=2))
    return 0


def _cmd_fleet_worker(args) -> int:
    from repro.serve.faults import FaultPlan
    from repro.tuners.fleet import run_worker

    if args.faults is not None:
        plan = FaultPlan.parse(args.faults, seed=args.fault_seed)
    else:
        plan = FaultPlan.from_env()
        if plan is not None and args.fault_seed is not None:
            plan = dataclasses.replace(plan, seed=args.fault_seed)
    summary = run_worker(
        args.coordinator, worker_id=args.worker_id,
        max_configs=args.max_configs, fault_plan=plan,
        fault_seed_offset=args.fault_seed_offset,
        max_leases=args.max_leases,
        request_timeout=args.request_timeout, retries=args.retries)
    print(json.dumps(summary, indent=2))
    return 0


_COMMANDS = {
    "publish-demo": _cmd_publish_demo,
    "list": _cmd_list,
    "info": _cmd_info,
    "tune": _cmd_tune,
    "map": _cmd_map,
    "campaign": _cmd_campaign,
    "fleet-coordinator": _cmd_fleet_coordinator,
    "fleet-worker": _cmd_fleet_worker,
    "daemon": _cmd_daemon,
    "router": _cmd_router,
    "request": _cmd_request,
    "swap": _cmd_swap,
    "shadow": _cmd_shadow,
    "loadgen": _cmd_loadgen,
}


def _reported_errors() -> tuple:
    """The exception types ``main`` reports as ``{"error": ...}``.

    ``ArtifactError`` joins them only once its module is loaded: a command
    that never imported it cannot have raised one, and the commands that
    talk to a daemon never load the model stack.
    """
    artifacts = sys.modules.get("repro.serve.artifacts")
    extra = (artifacts.ArtifactError,) if artifacts is not None else ()
    return (KeyError, ValueError, TypeError, OSError) + extra


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:
        if not isinstance(exc, _reported_errors()):
            raise
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1
