"""The workloads: ``serve_hot`` and ``serve_cold``.

A run builds the training set, fits the model, scores it on unseen
kernels (``speedup_geomean``), publishes it, starts a ``repro.serve
daemon`` process on it (``setup_s``) and times ``tune`` requests over a
unix socket in three phases: a low fixed rate where requests arrive alone,
a high fixed rate where batches form, and a closed loop with a fixed number
of requests in flight.  ``peak_rss_mb`` is the daemon's peak RSS plus its
largest worker's.  The workloads differ only in the requests.
"""

from __future__ import annotations

import collections
import contextlib
import json
import math
import os
import statistics
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.kernels import registry as kernel_registry
from repro.serve import DaemonClient, ModelRegistry, ServeDaemon, TuningService
from repro.serve.service import tune_response_fields

import common
from served import DaemonProcess
from loadgen import (
    TIMEOUT_S,
    DaemonTarget,
    InProcessTarget,
    Phase,
    lateness_stats,
)
from spans import Recorder

MODEL = "mga"
#: daemon-added response fields that are not part of the answer
TRANSPORT_FIELDS = ("latency_ms", "worker", "batch")
PHASE_SHARES = {"low": 0.30, "high": 0.40, "peak": 0.30}
#: fresh distinct requests available to one run (far more than it sends)
STREAM_LENGTH = 1 << 17
WARMUP_WINDOW = 32
WARMUP_ROUNDS = 50


def canonical(answer: Dict) -> str:
    return json.dumps(answer, sort_keys=True, separators=(",", ":"))


def tune_payload(uid: str, scale: float) -> dict:
    return {"op": "tune", "model": MODEL, "kernel": uid, "scale": scale}


class Stream:
    """Seeded tune requests; phases take consecutive, never reused slices."""

    def __init__(self, request_at: Callable[[int], dict]):
        self.request_at = request_at
        self.cursor = 0

    def phase(self, name: str) -> Phase:
        base = self.cursor
        return Phase(name, lambda i: self.request_at(base + i))

    def advance(self, phase: Phase) -> None:
        """Move past every request ``phase`` sent."""
        self.cursor += len(phase.due)


def distinct_stream(unseen, rng) -> Stream:
    """Distinct (unseen kernel, seeded scale) pairs: no cache ever helps."""
    scales = common.request_scales(rng, STREAM_LENGTH)
    return Stream(lambda j: tune_payload(unseen[j % len(unseen)].uid,
                                         scales[j]))


def hot_stream(unseen, rng, pairs: int) -> Stream:
    """A few seeded (unseen kernel, scale) pairs, repeated round-robin."""
    kernels = rng.choice(len(unseen), size=pairs, replace=False)
    scales = common.request_scales(rng, pairs)
    hot = [tune_payload(unseen[k].uid, s) for k, s in zip(kernels, scales)]
    return Stream(lambda j: hot[j % len(hot)])


def run_phases(target, stream: Stream, settings: dict, seconds: float,
               cpu_clock: Callable[[], float],
               between: Optional[Callable[[], None]] = None) -> List[Phase]:
    """The low, high and peak phases; ``between`` runs after each one.

    ``cpu_clock`` reads the CPU seconds the server has used so far.
    """
    phases = []
    for name in ("low", "high", "peak"):
        phase = stream.phase(name)
        duration = PHASE_SHARES[name] * seconds
        cpu_started = cpu_clock()
        if name == "peak":
            target.closed_loop(phase, settings["peak_window"], duration)
        else:
            target.open_loop(phase, settings["rates_rps"][name], duration)
        phase.cpu_s = cpu_clock() - cpu_started
        stream.advance(phase)
        phases.append(phase)
        if between is not None:
            between()
    return phases


def phase_report(phases: List[Phase], limit_ms: float) -> dict:
    report = {}
    for phase in phases:
        summary = phase.summary()
        summary["over_limit"] = summary["failed"] + sum(
            latency > limit_ms for latency in phase.latencies_ms())
        summary["completed_rps"] = phase.completed_rps()
        summary["cpu_ms_per_req"] = cpu_ms_per_req(phase)
        report[phase.name] = summary
    return report


def cpu_ms_per_req(phase: Phase) -> float:
    """Server CPU time per answered request."""
    return 1e3 * phase.cpu_s / max(1, len(phase.latencies_ms()))


def latency_metrics(phases: List[Phase]) -> dict:
    low, high, _ = phases
    return {"p50_ms_low": low.summary()["p50_ms"],
            "p50_ms_high": high.summary()["p50_ms"]}


def lateness_check(phases: List[Phase], common_cfg: dict, checks: dict
                   ) -> dict:
    lateness = lateness_stats([p for p in phases if p.name != "peak"],
                              common_cfg["late_after_ms"] / 1e3)
    checks["generator_on_schedule"] = \
        lateness["late_frac"] <= common_cfg["max_late_frac"]
    return lateness


def fit_model(dataset, checks: dict):
    tuner, history, fit_s, steady_cpu_s = common.fit_tuner(dataset)
    checks["loss_finite"] = all(math.isfinite(v) for v in history["loss"])
    return tuner, history, fit_s, steady_cpu_s


# ----------------------------------------------------------------------
# serve_hot / serve_cold
# ----------------------------------------------------------------------
def _batch_totals(stats: dict):
    histogram = stats["batches"]["histogram"]
    return (sum(histogram.values()),
            sum(int(size) * count for size, count in histogram.items()))


def _batch_mean(before: dict, after: dict) -> float:
    count0, total0 = _batch_totals(before)
    count1, total1 = _batch_totals(after)
    return (total1 - total0) / max(1, count1 - count0)


def _daemon_p50_ms(phase: Phase) -> float:
    """Median latency the daemon itself measured (enqueue to reply)."""
    values = [body["latency_ms"] for _, _, ok, body in phase.done.values()
              if ok]
    return statistics.median(values) if values else 0.0


def _warm_up(target, stream: Stream, key_of, keys, workers: int) -> None:
    """Closed-loop bursts until every worker has answered every key."""
    seen: Dict[object, set] = collections.defaultdict(set)
    for _ in range(WARMUP_ROUNDS):
        phase = stream.phase("warmup")
        target.closed_loop(phase, WARMUP_WINDOW, 0.1)
        stream.advance(phase)
        for _, _, ok, body in phase.done.values():
            if ok:
                seen[key_of(body)].add(body["worker"])
        if all(len(seen[key]) >= workers for key in keys):
            return
    raise RuntimeError("warm-up did not reach every worker")


def _engine_handler(engine, version: int, latencies: List[float]):
    """Answer a batch the way a daemon worker does: submit all, then wait."""
    def handle(payloads):
        submitted = []
        for payload in payloads:
            spec = kernel_registry.get_kernel(payload["kernel"])
            submitted.append((payload, engine.submit_tune(
                spec, float(payload["scale"]))))
        answers = []
        for payload, pending in submitted:
            try:
                config, counters = pending.result(timeout=TIMEOUT_S)
            except Exception as exc:
                answers.append((False, {"message": repr(exc)}))
                continue
            latencies.append(pending.latency_seconds)
            answers.append((True, tune_response_fields(
                MODEL, version, payload["kernel"], payload["scale"],
                config, counters)))
        return answers
    return handle


def _replay(root, engine_opts, settings, stream: Stream, warm_payloads,
            seconds, recorder: Recorder):
    """The same seeded stream and schedule through an in-process engine,
    configured like a daemon worker, traced: the engine, profiling and
    ``predict`` rows the daemon's forked workers cannot show."""
    service = TuningService(ModelRegistry(root), **engine_opts)
    engine, version = service.engine(MODEL)
    latencies: List[float] = []
    handler = _engine_handler(engine, version, latencies)
    target = InProcessTarget(handler, engine_opts["max_batch_size"])
    recorder.install()
    try:
        recorder.phase = "warmup"
        handler(warm_payloads)
        before = engine.stats()
        latencies.clear()
        recorder.phase = "replay"
        phases = run_phases(target, stream, settings, seconds,
                            time.process_time)
        after = engine.stats()
    finally:
        recorder.uninstall()
        target.close()
        service.close()
    requests = max(1, after["requests"] - before["requests"])
    lookups = (after["cache_hits"] + after["cache_misses"]
               - before["cache_hits"] - before["cache_misses"])
    batches = after["batches"] - before["batches"]
    batched = (after["mean_batch_size"] * after["batches"]
               - before["mean_batch_size"] * before["batches"])
    layers = {
        "engine.latency_p50_ms": 1e3 * statistics.median(latencies)
        if latencies else 0.0,
        "engine.memo_hit_rate":
            (after["memoized_responses"] - before["memoized_responses"])
            / requests,
        "engine.feature_hit_rate":
            (after["cache_hits"] - before["cache_hits"]) / max(1, lookups),
        "engine.batch_cache_hit_rate": after["batch_cache_hit_rate"],
        "engine.batch_mean": batched / batches if batches else 0.0,
    }
    r, replay = recorder, ("replay",)
    layers.update({
        "profiling.profile.p50_ms": r.p50_ms("profiling.profile", replay),
        "simulator.run.p50_ms": r.p50_ms("simulator.run", replay),
        "simulator.run.calls": len(r.select("simulator.run", replay)),
        "mga.predict.p50_ms": r.p50_ms("mga.predict", replay),
        "mga.predict.calls": len(r.select("mga.predict", replay)),
        "mga.predict.self_ms": r.self_p50_ms("mga.predict", replay),
        "mga.head.p50_ms": r.p50_ms("mga.head", replay),
        "nn.eval_train.p50_ms": r.child_sum_p50_ms("mga.predict",
                                                   "nn.train_mode", replay),
        "nn.gaussrank.transform.p50_ms":
            r.p50_ms("nn.gaussrank.transform", replay),
        "nn.minmax.transform.p50_ms":
            r.p50_ms("nn.minmax.transform", replay),
        "gnn.encoder.p50_ms": r.p50_ms("gnn.encoder", replay),
        "dae.encode.p50_ms": r.p50_ms("dae.encode", replay),
        "graphs.batch_graphs.p50_ms": r.p50_ms("graphs.batch_graphs",
                                               replay),
    })
    return phases, layers


def _train(recorder: Optional[Recorder], checks: dict) -> dict:
    """Build the training set and fit the served model.

    Traced, the build runs under the recorder and the model is fitted a
    second time, traced: tracing must not change a single loss or pick.
    """
    train_specs, unseen = common.kernel_split()
    if recorder is not None:
        recorder.install()
        recorder.phase = "build"
    try:
        started = time.perf_counter()
        dataset = common.build_training_set(train_specs)
        build_s = time.perf_counter() - started
    finally:
        if recorder is not None:
            recorder.uninstall()
    tuner, history, fit_s, steady_cpu_s = fit_model(dataset, checks)
    speedup, picks = common.speedup_geomean(tuner, unseen)
    samples_per_cpu_s = common.samples_per_s(dataset, history, steady_cpu_s)
    trained = {"tuner": tuner, "unseen": unseen, "speedup": speedup,
               "report": {"build_s": build_s, "fit_s": fit_s,
                          "steady_fit_cpu_s": steady_cpu_s,
                          "samples_per_cpu_s": samples_per_cpu_s,
                          "samples": len(dataset),
                          "epochs": len(history["loss"])}}
    if recorder is None:
        return trained
    recorder.install()
    try:
        recorder.phase = "fit"
        traced, traced_history, traced_fit_s, _ = fit_model(dataset, checks)
        recorder.phase = "score"
        traced_speedup, traced_picks = common.speedup_geomean(traced, unseen)
    finally:
        recorder.uninstall()
    checks["trace_preserves_training"] = (
        traced_history == history and traced_speedup == speedup
        and traced_picks == picks)
    tape = collections.Counter()
    for runner in recorder.tape_runners:
        tape.update(runner.stats())
    r, fit = recorder, ("fit",)
    build = ("build",)
    lowered = len(r.select("frontend.lower", build))

    def per_kernel_ms(name):
        return 1e3 * r.total_s(name, build) / lowered

    trained["layers"] = {
        "mga.fit.samples_per_cpu_s": samples_per_cpu_s,
        "datasets.build_s": r.total_s("datasets.build", build),
        "features.extract_ms": per_kernel_ms("features.extract"),
        "frontend.lower_ms": per_kernel_ms("frontend.lower"),
        "ir.verify_ms": per_kernel_ms("ir.verify"),
        "embeddings.encode_ms": per_kernel_ms("embeddings.encode"),
        "graphs.programl_ms": per_kernel_ms("graphs.programl"),
        "graphs.to_hetero_ms": per_kernel_ms("graphs.to_hetero"),
        "dae.fit_s": r.total_s("dae.fit", fit),
        "gnn.forward_s": r.total_s("gnn.encoder", fit),
        "graphs.batch_build_s": r.total_s("graphs.batch_build", fit),
        "tape.records": tape["records"],
        "tape.replays": tape["replays"],
        "tape.fallbacks": tape["eager_steps"] + tape["guard_failures"],
        "tape.replay_s": r.total_s("tape.replay", fit),
        "nn.backward_s": r.total_s("nn.backward", fit),
        "optim.step_s": r.total_s("optim.step", fit),
        "mga.fit.self_s": r.self_s("mga.fit", fit),
        "trace.overhead_frac": traced_fit_s / fit_s - 1.0,
    }
    return trained


def serve(settings: dict, common_cfg: dict, seed: int, seconds: float,
          trace: bool, workdir: str) -> dict:
    """One run: train the model, then serve it from a daemon and check it."""
    checks: Dict[str, bool] = {}
    recorder = Recorder() if trace else None
    trained = _train(recorder, checks)
    unseen = trained["unseen"]
    root = os.path.join(workdir, "registry")
    ModelRegistry(root).publish(MODEL, trained.pop("tuner"))

    # every worker answers every unseen kernel before timing, so the
    # workers' memory does not depend on which kernels a seed picks
    kernels = distinct_stream(unseen, np.random.default_rng([seed, 2]))
    warm_payloads = [kernels.request_at(j) for j in range(len(unseen))]
    warmups = [(kernels, lambda body: body["kernel"],
                {payload["kernel"] for payload in warm_payloads})]
    if "hot_pairs" in settings:
        def make_stream():
            return hot_stream(unseen, np.random.default_rng([seed, 1]),
                              settings["hot_pairs"])
        hot = make_stream()
        hot_payloads = [hot.request_at(j)
                        for j in range(settings["hot_pairs"])]
        warm_payloads += hot_payloads
        warmups.append((hot, lambda body: (body["kernel"], body["scale"]),
                        {(p["kernel"], p["scale"]) for p in hot_payloads}))
    else:
        def make_stream():
            return distinct_stream(unseen, np.random.default_rng([seed, 1]))

    workers = settings["daemon"]["workers"]
    address = os.path.join(workdir, "d.sock")
    setups = []
    with contextlib.ExitStack() as running:
        for _ in range(common_cfg["setup_repeats"]):
            running.close()           # the previous set-up's daemon
            started = time.perf_counter()
            daemon = running.enter_context(DaemonProcess(
                address, root, workers, [MODEL],
                os.path.join(workdir, "daemon.log")))
            target = DaemonTarget(daemon.address)
            running.callback(target.close)
            for stream, key_of, keys in warmups:
                _warm_up(target, stream, key_of, keys, workers)
            setups.append(time.perf_counter() - started)
        client = DaemonClient(daemon.address)
        running.callback(client.close)
        snapshots = [client.stats()]
        phases = run_phases(target, make_stream(), settings, seconds,
                            daemon.cpu_s,
                            between=lambda: snapshots.append(client.stats()))
        pings = []
        for _ in range(200):
            started = time.perf_counter()
            client.ping()
            pings.append(time.perf_counter() - started)
        rss = daemon.rss_mb()
    # an unstarted daemon holds the defaults the served one runs with
    engine_opts = dict(ServeDaemon(address).engine_opts)
    lateness = lateness_check(phases, common_cfg, checks)
    first, last = snapshots[0], snapshots[-1]
    restarts = (last["workers"]["restarts"] - first["workers"]["restarts"])
    checks["no_worker_restarts"] = restarts == 0

    # every successful answer must equal the in-process engine's, byte for
    # byte, over the same published artifact
    answers: Dict[tuple, str] = {}
    for phase in phases:
        for _, _, ok, body in phase.done.values():
            if ok:
                body = {k: v for k, v in body.items()
                        if k not in TRANSPORT_FIELDS}
                answers[(body["kernel"], body["scale"])] = canonical(body)
    reference = {}
    service = TuningService(ModelRegistry(root), **engine_opts)
    try:
        engine, version = service.engine(MODEL)
        keys = sorted(answers)
        for start in range(0, len(keys), engine.max_batch_size):
            chunk = keys[start:start + engine.max_batch_size]
            results = engine.tune_many([(kernel_registry.get_kernel(k), s)
                                        for k, s in chunk])
            for key, (config, counters) in zip(chunk, results):
                reference[key] = canonical(tune_response_fields(
                    MODEL, version, key[0], key[1], config, counters))
    finally:
        service.close()
    checks["daemon_matches_engine"] = all(answers[key] == reference[key]
                                          for key in answers)

    attempted = sum(len(phase.due) for phase in phases)
    failed = sum(phase.summary()["failed"] for phase in phases)
    e2e = dict(latency_metrics(phases),
               setup_s=statistics.median(setups),
               speedup_geomean=trained["speedup"],
               peak_rss_mb=rss[0] + max(rss[1:]))
    result = {"e2e": e2e, "checks": checks, "attempted": attempted,
              "failed": failed,
              "report": {"phases": phase_report(
                  phases, settings["latency_limit_ms"]),
                  "setup_s": setups, "lateness": lateness, "rss_mb": rss,
                  "training": trained["report"],
                  "daemon": {"workers": workers, **engine_opts}}}
    if recorder is None:
        return result

    low, high, peak = phases
    daemon_p50 = [_daemon_p50_ms(phase) for phase in (low, high)]
    layers = dict(trained["layers"])
    layers.update({
        "transport.ping_p50_ms": 1e3 * statistics.median(pings),
        "transport.gap_p50_ms_low": low.summary()["p50_ms"] - daemon_p50[0],
        "daemon.p50_ms_low": daemon_p50[0],
        "daemon.p50_ms_high": daemon_p50[1],
        "daemon.batch_mean_low": _batch_mean(snapshots[0], snapshots[1]),
        "daemon.batch_mean_high": _batch_mean(snapshots[1], snapshots[2]),
        "daemon.batch_mean_peak": _batch_mean(snapshots[2], snapshots[3]),
        "daemon.shed": last["requests"]["shed"] - first["requests"]["shed"],
        "daemon.retried": (last["requests"]["retried"]
                           - first["requests"]["retried"]),
        "daemon.worker_restarts": restarts,
        "daemon.peak_rps": peak.completed_rps(),
        "daemon.cpu_ms_per_req_peak": cpu_ms_per_req(peak),
        "loadgen.max_lateness_ms": lateness["max_ms"],
        "loadgen.late_frac": lateness["late_frac"],
        "failed_frac": failed / max(1, attempted),
    })
    replayed, engine_layers = _replay(root, engine_opts, settings,
                                      make_stream(), warm_payloads, seconds,
                                      recorder)
    layers.update(engine_layers)
    checks["replay_matches_daemon"] = all(
        answers.get((body["kernel"], body["scale"]), canonical(body))
        == canonical(body)
        for phase in replayed for _, _, ok, body in phase.done.values() if ok)
    result["layers"] = layers
    result["recorder"] = recorder
    return result
