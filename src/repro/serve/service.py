"""Request/response façade over the registry and the inference engines.

:class:`TuningService` is the deployable entry point: it owns a
:class:`~repro.serve.registry.ModelRegistry`, lazily loads each requested
``model`` (name, optional version) into a per-model
:class:`~repro.serve.engine.InferenceEngine`, resolves kernels by their
``suite/name`` uid through :mod:`repro.kernels` (each once per process, see
:func:`resolve_kernel`), and keeps service-level latency/throughput
counters.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Any, Dict, Optional, Tuple

from repro.core.tuner import DeviceMapper, MGATuner
from repro.kernels import registry as kernel_registry
from repro.serve.engine import InferenceEngine
from repro.serve.protocol import (
    MapRequest,
    MapResponse,
    TuneRequest,
    TuneResponse,
)
from repro.serve.registry import ModelRegistry
from repro.simulator.microarch import get_microarch


@dataclasses.dataclass(frozen=True)
class CampaignRequest:
    """One search-based tuning campaign over the simulator objective.

    Unlike :class:`TuneRequest` (a single model inference), a campaign
    actually *searches*: ``tuner`` names a registered black-box strategy,
    ``workers`` sizes the evaluation pool, and ``checkpoint`` / ``resume``
    give interrupted campaigns exact continuation semantics.
    """

    kernel: Optional[str] = None      # kernel uid, e.g. "polybench/gemm";
                                      # optional on resume (checkpoint has it)
    tuner: str = "random"
    budget: int = 20
    arch: str = "skylake_4114"
    space: str = "full"               # "full" | "threads"
    scale: float = 1.0
    noise: float = 0.015
    sim_seed: int = 1234
    repeats: int = 1
    seed: int = 0
    workers: int = 1
    batch_size: Optional[int] = None
    checkpoint: Optional[str] = None
    resume: Optional[str] = None


@dataclasses.dataclass(frozen=True)
class CampaignResponse:
    kernel: str
    tuner: str
    arch: str
    best_label: str                   # e.g. "t8/static/c64"
    best_time: float
    default_time: float
    speedup_over_default: float
    evaluations: int
    batches: int
    workers: int
    wall_seconds: float
    checkpoint: Optional[str]
    finished: bool


# ----------------------------------------------------------------------
# request semantics shared by the in-process service and the daemon
# workers — one definition, so the two serving paths cannot drift
# ----------------------------------------------------------------------
def resolve_tune_scale(spec, scale: Optional[float],
                       target_bytes: Optional[float]) -> float:
    """The input scale of a tune request (``scale`` xor ``target_bytes``)."""
    if scale is not None and target_bytes is not None:
        raise ValueError("set only one of scale / target_bytes")
    if target_bytes is not None:
        return spec.scale_for_bytes(float(target_bytes))
    return 1.0 if scale is None else float(scale)


#: every kernel spec this process has resolved, by uid
_KERNELS: Dict[str, Any] = {}


def resolve_kernel(uid: str):
    """The :class:`~repro.frontend.spec.KernelSpec` of a ``suite/name`` uid.

    Each kernel is built once per process and then shared: serving code
    only reads specs.  An unknown uid raises ``KeyError`` and is not
    stored, so the table holds at most the kernel registry.
    """
    spec = _KERNELS.get(uid)
    if spec is None:
        spec = _KERNELS[uid] = kernel_registry.get_kernel(uid)
    return spec


def require_tuner(predictor, model: str) -> None:
    if not isinstance(predictor, MGATuner):
        raise TypeError(f"model {model!r} is not an OpenMP tuner")


def require_mapper(predictor, model: str) -> None:
    if not isinstance(predictor, DeviceMapper):
        raise TypeError(f"model {model!r} is not a device mapper")


def tune_response_fields(model: str, version: int, kernel: str, scale: float,
                         config, counters) -> Dict[str, Any]:
    """Everything of a :class:`TuneResponse` except ``latency_ms``."""
    return {"model": model, "version": version, "kernel": kernel,
            "scale": scale, "config_label": config.label(),
            "num_threads": config.num_threads,
            "schedule": config.schedule.value,
            "chunk_size": config.chunk_size, "counters": dict(counters)}


def map_response_fields(model: str, version: int, kernel: str,
                        label: int) -> Dict[str, Any]:
    """Everything of a :class:`MapResponse` except ``latency_ms``."""
    return {"model": model, "version": version, "kernel": kernel,
            "device": "cpu" if int(label) == 0 else "gpu",
            "label": int(label)}


class TuningService:
    """Route tuning/mapping requests to registry-published models.

    Each request is answered on the calling thread: the service resolves
    the kernel, then calls the version's :class:`InferenceEngine`, which
    answers synchronously from its caches or one ``MGAModel.predict``.
    Several threads may share one service; it starts no thread of its own.
    With ``daemon`` set, requests go to that serve daemon instead, whose
    dispatcher batches concurrent requests across clients.
    """

    def __init__(self, registry: Optional[ModelRegistry] = None,
                 max_batch_size: int = 32, cache_size: int = 512,
                 daemon: Optional[str] = None,
                 memoize_results: bool = True):
        self.registry = registry
        #: socket path of a running serve daemon; when set, ``tune`` and
        #: ``map_device`` are forwarded there instead of loading models
        #: in-process (campaigns always run locally — they are compute, not
        #: model serving)
        self.daemon = daemon
        self._daemon_local = threading.local()
        self._daemon_clients: list = []      # every client, for close()
        self.max_batch_size = max_batch_size
        self.cache_size = cache_size
        #: passed to every engine; a serve daemon's workers turn it off,
        #: because the daemon loop memoizes their answers
        self.memoize_results = memoize_results
        self._engines: Dict[Tuple[str, int], InferenceEngine] = {}
        self._loading: Dict[Tuple[str, int], threading.Lock] = {}
        self._lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._requests = 0
        self._errors = 0
        self._latency_sum = 0.0
        self._per_model: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def engine(self, model: str, version: Optional[int] = None
               ) -> Tuple[InferenceEngine, int]:
        """The (cached) engine serving one published model version.

        Returns the engine together with the concrete version it serves, so
        responses report the version that actually answered.  Artifact
        loading happens outside the service-wide lock (under a per-version
        lock), so a cold load never stalls requests to warm models.
        """
        if self.registry is None:
            raise RuntimeError("service was created without a model registry "
                               "(campaign-only mode)")
        resolved = version if version is not None \
            else self.registry.latest(model)
        if resolved is None:
            raise KeyError(f"model {model!r} has no published versions")
        key = (model, int(resolved))
        with self._lock:
            engine = self._engines.get(key)
            if engine is not None:
                return engine, key[1]
            load_lock = self._loading.setdefault(key, threading.Lock())
        with load_lock:
            with self._lock:
                engine = self._engines.get(key)
            if engine is None:
                predictor = self.registry.load(model, key[1])
                engine = InferenceEngine(
                    predictor, max_batch_size=self.max_batch_size,
                    cache_size=self.cache_size,
                    memoize_results=self.memoize_results,
                    drift_monitor=self._drift_monitor(model, key[1]))
                with self._lock:
                    self._engines[key] = engine
                    self._loading.pop(key, None)
        return engine, key[1]

    def _drift_monitor(self, model: str, version: int):
        """A monitor over the version's published baseline, if it has one.

        A missing or unreadable sketch silently disables drift scoring for
        the engine — serving never fails because monitoring cannot start.
        """
        try:
            baseline = self.registry.load_drift_baseline(model, version)
        except Exception:
            return None
        if baseline is None:
            return None
        from repro.serve.drift import DriftMonitor
        return DriftMonitor(baseline)

    def retire(self, model: str, version: int) -> bool:
        """Close and drop the engine of one (model, version), if loaded.

        The hot-swap path calls this after flipping a route to a new
        version: the old engine's feature/result caches go with it, so a
        stale prediction can never resurface on the route.
        """
        key = (model, int(version))
        with self._lock:
            engine = self._engines.pop(key, None)
        if engine is not None:
            engine.close()
        return engine is not None

    def warm(self, model: str, version: Optional[int] = None) -> int:
        """Load (or touch) one engine; returns the concrete version."""
        _, resolved = self.engine(model, version)
        return resolved

    def _record(self, model: str, started: float, failed: bool) -> float:
        latency_ms = 1e3 * (time.perf_counter() - started)
        with self._stats_lock:
            self._requests += 1
            self._errors += int(failed)
            self._latency_sum += latency_ms
            self._per_model[model] = self._per_model.get(model, 0) + 1
        return latency_ms

    def _daemon(self):
        """This thread's client of the configured serve daemon.

        One connection per calling thread, so concurrent ``tune`` calls
        reach the daemon concurrently and its dispatcher can batch them —
        a single shared client would serialise them to batches of one.
        """
        client = getattr(self._daemon_local, "client", None)
        if client is None:
            from repro.serve.client import DaemonClient
            client = DaemonClient(self.daemon)
            self._daemon_local.client = client
            with self._lock:
                self._daemon_clients.append(client)
        return client

    # ------------------------------------------------------------------
    def tune(self, request: TuneRequest) -> TuneResponse:
        """Tune one kernel with a published :class:`MGATuner`."""
        started = time.perf_counter()
        if self.daemon is not None:
            try:
                response = self._daemon().tune(request)
            except BaseException:
                self._record(request.model, started, failed=True)
                raise
            self._record(request.model, started, failed=False)
            return response
        try:
            engine, version = self.engine(request.model, request.version)
            require_tuner(engine.predictor, request.model)
            spec = resolve_kernel(request.kernel)
            scale = resolve_tune_scale(spec, request.scale,
                                       request.target_bytes)
            config, counters = engine.tune(spec, scale)
        except BaseException:
            self._record(request.model, started, failed=True)
            raise
        latency_ms = self._record(request.model, started, failed=False)
        return TuneResponse(latency_ms=latency_ms, **tune_response_fields(
            request.model, version, request.kernel, scale, config, counters))

    def run_campaign(self, request: CampaignRequest) -> CampaignResponse:
        """Run (or resume) a parallel search campaign on the simulator."""
        # the search stack loads with the first campaign: serving processes
        # never pay for it
        from repro.tuners.campaign import (
            SimObjectiveSpec,
            TuningCampaign,
            make_tuner,
        )
        from repro.tuners.space import full_search_space, thread_search_space

        started = time.perf_counter()
        label = f"campaign:{request.tuner}"
        try:
            if request.resume is not None:
                # the checkpoint is the source of truth for kernel / arch /
                # space / simulator parameters — only execution knobs
                # (workers, checkpoint destination) come from the request
                campaign = TuningCampaign.resume(
                    request.resume, workers=request.workers,
                    checkpoint_path=request.checkpoint or request.resume)
            else:
                if request.kernel is None:
                    raise ValueError("kernel is required unless resuming "
                                     "from a checkpoint")
                arch = get_microarch(request.arch)
                spec_kernel = resolve_kernel(request.kernel)
                if request.space == "threads":
                    space = thread_search_space(arch)
                elif request.space == "full":
                    space = full_search_space(max_threads=arch.max_threads)
                else:
                    raise ValueError(f"unknown space {request.space!r} "
                                     f"(expected 'full' or 'threads')")
                objective_spec = SimObjectiveSpec(
                    kernel_uid=spec_kernel.uid, arch=arch, scale=request.scale,
                    noise=request.noise, seed=request.sim_seed,
                    repeats=request.repeats)
                config: Dict[str, Any] = {}
                if request.tuner != "oracle":
                    config = {"budget": request.budget, "seed": request.seed}
                tuner = make_tuner(request.tuner, config)
                campaign = TuningCampaign(
                    tuner, space, objective_spec, workers=request.workers,
                    batch_size=request.batch_size,
                    checkpoint_path=request.checkpoint)
            result = campaign.run()
            from repro.frontend.openmp import default_omp_config
            campaign_arch = campaign.objective_spec.arch
            default = default_omp_config(campaign_arch.cores)
            try:
                key = campaign.space.index_of(default)
            except KeyError:
                key = len(campaign.space)
            default_time = campaign.objective_spec.build()(default, key)
        except BaseException:
            self._record(label, started, failed=True)
            raise
        self._record(label, started, failed=False)
        return CampaignResponse(
            kernel=campaign.objective_spec.kernel_uid, tuner=campaign.tuner.name,
            arch=campaign_arch.name, best_label=result.best_config.label(),
            best_time=result.best_time, default_time=default_time,
            speedup_over_default=default_time / result.best_time,
            evaluations=result.evaluations, batches=campaign.batches,
            workers=campaign.workers, wall_seconds=campaign.wall_seconds,
            checkpoint=campaign.checkpoint_path, finished=campaign.finished)

    def map_device(self, request: MapRequest) -> MapResponse:
        """Map one kernel with a published :class:`DeviceMapper`."""
        started = time.perf_counter()
        if self.daemon is not None:
            try:
                response = self._daemon().map_device(request)
            except BaseException:
                self._record(request.model, started, failed=True)
                raise
            self._record(request.model, started, failed=False)
            return response
        try:
            engine, version = self.engine(request.model, request.version)
            require_mapper(engine.predictor, request.model)
            spec = resolve_kernel(request.kernel)
            label = engine.map_device(spec, request.transfer_bytes,
                                      request.wgsize)
        except BaseException:
            self._record(request.model, started, failed=True)
            raise
        latency_ms = self._record(request.model, started, failed=False)
        return MapResponse(latency_ms=latency_ms, **map_response_fields(
            request.model, version, request.kernel, label))

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Service-level counters plus the per-engine batching/cache stats."""
        with self._stats_lock:
            snapshot: Dict[str, Any] = {
                "requests": self._requests,
                "errors": self._errors,
                "mean_latency_ms": self._latency_sum / max(1, self._requests),
                "per_model_requests": dict(self._per_model),
            }
        with self._lock:
            snapshot["engines"] = {
                f"{name}@{version}": engine.stats()
                for (name, version), engine in self._engines.items()
            }
        if self.daemon is not None and self._daemon_clients:
            snapshot["daemon"] = self._daemon().stats()
        return snapshot

    def close(self) -> None:
        with self._lock:
            engines, self._engines = list(self._engines.values()), {}
            clients, self._daemon_clients = self._daemon_clients, []
        for engine in engines:
            engine.close()
        for client in clients:
            client.close()
        self._daemon_local = threading.local()

    def __enter__(self) -> "TuningService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
