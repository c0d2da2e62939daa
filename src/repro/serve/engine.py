"""Thread-safe batched inference over a fitted tuner or device mapper.

Two ways in, one ``MGAModel.predict`` per batch either way:

* :meth:`InferenceEngine.predict_batch` answers a batch the caller already
  holds, synchronously on the caller's thread, in ``max_batch_size``
  chunks.  Daemon workers use it: the daemon's batch is the engine's batch.
* ``submit_tune`` / ``submit_map`` queue single requests for in-process
  callers; a worker thread (started by the first submit) gathers everything
  queued within a short window (``max_wait_ms``, up to ``max_batch_size``)
  into one batch, which amortises graph batching and the per-call numpy
  overhead across concurrent requests.

Static features are memoised in an LRU cache: the ProGraML graph, the IR2Vec
vector and — for OpenMP tuning — the default-configuration profiling counters
are identical across repeated requests for the same (kernel, input size), so
only the first request pays for lowering, graph construction, encoding and
the simulated profiling runs.

A cold tune request still profiles at its input size, but only the loops'
trip counts depend on that size.  The engine compiles each kernel once into a
:class:`~repro.frontend.analysis.WorkloadPlan`, cached per ``(uid, model)``
in an LRU bounded by ``cache_size``, and evaluates it at each new size.  It
profiles through one :class:`~repro.profiling.PAPIProfiler`, which restarts
its seeded noise stream on every profile, so the counters do not depend on
the order in which requests arrive.

Only the counters depend on the input: a kernel's GNN embedding and DAE code
(:meth:`MGAModel.static_codes`) are the same at every scale.  They are cached
per kernel, keyed on ``(uid, model)``, in a second LRU bounded by the same
``cache_size``, so a cold request for an already-seen kernel runs only the
scalers and the head.  A batch encodes each uncached kernel once.  An engine
serves one fitted model, and the service keeps one engine per published
version, so cached codes never cross versions.

Because the model is deterministic given those features, the *final* response
is memoised too (``memoize_results``): a repeat of an already-answered
(kernel, input size) request returns without touching the model at all, the
way any serving layer fronts a pure function with a response cache.
"""

from __future__ import annotations

import collections
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.tuner import DeviceMapper, MGATuner
from repro.frontend.analysis import WorkloadPlan
from repro.frontend.openmp import OMPConfig, default_omp_config
from repro.frontend.spec import KernelSpec
from repro.graphs import batch_graphs
from repro.nn.backend import xp
from repro.profiling import PAPIProfiler
from repro.serve.drift import map_feature_vector, tune_feature_vector


class _LRUCache:
    """A small thread-safe least-recently-used cache with hit statistics."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self._data: "collections.OrderedDict" = collections.OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key):
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self.hits += 1
                return self._data[key]
            self.misses += 1
            return None

    def put(self, key, value) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)


class PendingResult:
    """Handle for one queued request; ``result()`` blocks until completion."""

    __slots__ = ("_event", "_value", "_error", "submitted_at", "completed_at")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._value = None
        self._error: Optional[BaseException] = None
        self.submitted_at = time.perf_counter()
        self.completed_at: Optional[float] = None

    def _finish(self, value=None, error: Optional[BaseException] = None) -> None:
        self._value = value
        self._error = error
        self.completed_at = time.perf_counter()
        self._event.set()

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None):
        if not self._event.wait(timeout):
            raise TimeoutError("request did not complete in time")
        if self._error is not None:
            raise self._error
        return self._value

    @property
    def latency_seconds(self) -> float:
        if self.completed_at is None:
            raise RuntimeError("request not completed")
        return self.completed_at - self.submitted_at


class _Request:
    __slots__ = ("kernel", "graph", "vector", "extra", "finalize", "pending")

    def __init__(self, kernel, graph, vector, extra, finalize):
        self.kernel = kernel              # (uid, model): the code-cache key
        self.graph = graph
        self.vector = vector
        self.extra = extra
        self.finalize = finalize          # index -> response value
        self.pending: Optional[PendingResult] = None


class InferenceEngine:
    """Batched, cached serving front-end for one fitted tuner/mapper."""

    def __init__(self, predictor: Union[MGATuner, DeviceMapper],
                 max_batch_size: int = 32, max_wait_ms: float = 2.0,
                 cache_size: int = 512, memoize_results: bool = True,
                 drift_monitor=None):
        if not isinstance(predictor, (MGATuner, DeviceMapper)):
            raise TypeError("predictor must be an MGATuner or DeviceMapper")
        if predictor.model is None:
            raise ValueError("predictor is not fitted")
        self.predictor = predictor
        #: optional :class:`~repro.serve.drift.DriftMonitor` scoring each
        #: *distinct* served request (memoized repeats skip feature
        #: extraction entirely, so they are not re-scored) against the
        #: published training-distribution sketch
        self.drift_monitor = drift_monitor
        self.max_batch_size = int(max_batch_size)
        self.max_wait_s = float(max_wait_ms) / 1e3
        self.cache = _LRUCache(cache_size)
        self.results = _LRUCache(cache_size) if memoize_results else None
        #: per-kernel ``MGAModel.static_codes`` rows (read-only), keyed on
        #: ``(uid, model)``: they do not depend on the input scale
        self.codes = _LRUCache(cache_size)
        #: per-kernel :class:`~repro.frontend.analysis.WorkloadPlan`, keyed
        #: on ``(uid, model)``: profiling evaluates it at each new scale
        self.plans = _LRUCache(cache_size)
        #: a tuner's one profiler (its profiles do not depend on order)
        self.profiler = (PAPIProfiler(predictor.arch)
                         if isinstance(predictor, MGATuner) else None)
        self._code_hits = 0
        self._code_misses = 0
        self._queue: "collections.deque[_Request]" = collections.deque()
        self._cond = threading.Condition()
        self._running = True
        self._worker: Optional[threading.Thread] = None
        self._stats_lock = threading.Lock()
        self._requests = 0
        self._errors = 0
        self._memoized = 0
        self._batches = 0
        self._batched_requests = 0
        self._max_batch_seen = 0
        self._latency_sum = 0.0

    # ------------------------------------------------------------------
    # request preparation (runs on the caller's thread, cache-memoised)
    # ------------------------------------------------------------------
    def _tune_features(self, spec: KernelSpec, scale: float):
        tuner = self.predictor
        key = ("tune", spec.uid, spec.model.value, float(scale))
        cached = self.cache.get(key)
        if cached is None:
            kernel = (spec.uid, spec.model.value)
            plan = self.plans.get(kernel)
            if plan is None:
                plan = WorkloadPlan(spec)
                self.plans.put(kernel, plan)
            record = self.profiler.profile(
                plan.summary(scale), scale=scale,
                config=default_omp_config(tuner.arch.cores),
                events=tuner.counter_names)
            graph, vector = tuner.extractor.extract(spec)
            extra = xp.array([record.counters[name]
                              for name in tuner.counter_names])
            cached = (graph, vector, extra, dict(record.counters))
            self.cache.put(key, cached)
        return cached

    def _map_features(self, spec: KernelSpec):
        key = ("map", spec.uid, spec.model.value)
        cached = self.cache.get(key)
        if cached is None:
            cached = self.predictor.extractor.extract(spec)
            self.cache.put(key, cached)
        return cached

    def _prepare_tune(self, spec: KernelSpec, scale: float):
        """The memoised answer, or a :class:`_Request` ready for predict."""
        if not isinstance(self.predictor, MGATuner):
            raise TypeError("this engine serves a DeviceMapper, not a tuner")
        key = ("tune", spec.uid, spec.model.value, float(scale))
        hit = self._memoized_answer(key)
        if hit is not None:
            return hit
        graph, vector, extra, counters = self._tune_features(spec, scale)
        if self.drift_monitor is not None:
            self.drift_monitor.observe(
                tune_feature_vector(
                    vector, counters,
                    self.drift_monitor.baseline.counter_names),
                graph=graph)
        configs = self.predictor.configs

        def finalize(index: int):
            if self.results is not None:
                self.results.put(key, (index, counters))
            return configs[index], dict(counters)

        return _Request((spec.uid, spec.model.value), graph, vector, extra,
                        finalize)

    def _prepare_map(self, spec: KernelSpec, transfer_bytes: float,
                     wgsize: int):
        """The memoised answer, or a :class:`_Request` ready for predict."""
        if not isinstance(self.predictor, DeviceMapper):
            raise TypeError("this engine serves an MGATuner, not a mapper")
        key = ("map", spec.uid, spec.model.value, float(transfer_bytes),
               int(wgsize))
        hit = self._memoized_answer(key)
        if hit is not None:
            return hit
        graph, vector = self._map_features(spec)
        if self.drift_monitor is not None:
            self.drift_monitor.observe(
                map_feature_vector(vector, transfer_bytes, wgsize),
                graph=graph)
        extra = xp.array([xp.log1p(float(transfer_bytes)),
                          xp.log1p(float(wgsize))])

        def finalize(index: int):
            if self.results is not None:
                self.results.put(key, (index, None))
            return index

        return _Request((spec.uid, spec.model.value), graph, vector, extra,
                        finalize)

    def _memoized_answer(self, key):
        """The response of an already-served request, or ``None``."""
        if self.results is None:
            return None
        hit = self.results.get(key)
        if hit is None:
            return None
        index, counters = hit
        if key[0] == "tune":
            return self.predictor.configs[index], dict(counters)
        return index

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def predict_batch(self, queries: Sequence[tuple]) -> List[object]:
        """Answer a batch synchronously, on the caller's thread.

        Each query is ``(spec, scale)`` for a tuner or ``(spec,
        transfer_bytes, wgsize)`` for a mapper; the answers are what
        :meth:`tune` / :meth:`map_device` return, in query order.  Memoised
        queries are answered at once, the rest by one ``MGAModel.predict``
        per ``max_batch_size`` chunk.  A query that cannot be prepared
        (wrong kind, failing feature extraction) gets its exception in its
        slot, without failing the others; a failing ``predict`` raises.
        """
        started = time.perf_counter()
        prepare = (self._prepare_tune if isinstance(self.predictor, MGATuner)
                   else self._prepare_map)
        answers: List[object] = []
        todo: List[Tuple[int, _Request]] = []
        memoized = 0
        for query in queries:
            try:
                prepared = prepare(*query)
            except Exception as exc:
                answers.append(exc)
                continue
            if isinstance(prepared, _Request):
                todo.append((len(answers), prepared))
            else:
                memoized += 1
            answers.append(prepared)
        with self._stats_lock:
            self._requests += memoized + len(todo)
            self._memoized += memoized
            self._latency_sum += memoized * (time.perf_counter() - started)
        for start in range(0, len(todo), self.max_batch_size):
            chunk = todo[start:start + self.max_batch_size]
            try:
                values = self._predict([request for _, request in chunk])
            except Exception:
                with self._stats_lock:
                    self._errors += len(chunk)
                raise
            for (position, _), value in zip(chunk, values):
                answers[position] = value
            self._count_batch(len(chunk),
                              len(chunk) * (time.perf_counter() - started))
        return answers

    def submit_tune(self, spec: KernelSpec, scale: float = 1.0) -> PendingResult:
        """Queue one OpenMP tuning request; returns immediately."""
        pending = PendingResult()
        return self._submit(pending, self._prepare_tune(spec, scale))

    def tune(self, spec: KernelSpec, scale: float = 1.0
             ) -> Tuple[OMPConfig, Dict[str, float]]:
        """Blocking :meth:`MGATuner.tune` equivalent (batched under the hood)."""
        return self.submit_tune(spec, scale).result()

    def submit_map(self, spec: KernelSpec, transfer_bytes: float,
                   wgsize: int) -> PendingResult:
        """Queue one CPU/GPU mapping request; returns immediately."""
        pending = PendingResult()
        return self._submit(pending,
                            self._prepare_map(spec, transfer_bytes, wgsize))

    def map_device(self, spec: KernelSpec, transfer_bytes: float,
                   wgsize: int) -> int:
        """Blocking :meth:`DeviceMapper.map_device` equivalent."""
        return self.submit_map(spec, transfer_bytes, wgsize).result()

    def tune_many(self, requests: Sequence[Tuple[KernelSpec, float]]
                  ) -> List[Tuple[OMPConfig, Dict[str, float]]]:
        """Submit many (spec, scale) requests at once and wait for all."""
        handles = [self.submit_tune(spec, scale) for spec, scale in requests]
        return [h.result() for h in handles]

    # ------------------------------------------------------------------
    def _submit(self, pending: PendingResult, prepared) -> PendingResult:
        """Finish ``pending`` from the response cache or queue the request."""
        if not isinstance(prepared, _Request):
            pending._finish(value=prepared)
            with self._stats_lock:
                self._requests += 1
                self._memoized += 1
                self._latency_sum += pending.latency_seconds
            return pending
        prepared.pending = pending
        with self._cond:
            if not self._running:
                raise RuntimeError("engine is closed")
            if self._worker is None:
                self._worker = threading.Thread(target=self._serve_loop,
                                                name="repro-serve-engine",
                                                daemon=True)
                self._worker.start()
            self._queue.append(prepared)
            self._cond.notify_all()
        with self._stats_lock:
            self._requests += 1
        return pending

    def _serve_loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue and self._running:
                    self._cond.wait()
                if not self._queue and not self._running:
                    return
                # gather a micro-batch: wait (briefly) for co-arriving work
                deadline = time.perf_counter() + self.max_wait_s
                while len(self._queue) < self.max_batch_size and self._running:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        break
                    self._cond.wait(remaining)
                batch = [self._queue.popleft()
                         for _ in range(min(len(self._queue),
                                            self.max_batch_size))]
            try:
                values = self._predict(batch)
            except Exception as exc:           # pragma: no cover - defensive
                for request in batch:
                    request.pending._finish(error=exc)
                with self._stats_lock:
                    self._errors += len(batch)
                continue
            for request, value in zip(batch, values):
                request.pending._finish(value=value)
            self._count_batch(len(batch), sum(r.pending.latency_seconds
                                              for r in batch))

    def _predict(self, batch: List[_Request]) -> List[object]:
        """One ``MGAModel.predict`` over ``batch``: the finalized answers."""
        extra = xp.stack([r.extra for r in batch])
        indices = self.predictor.model.predict(
            None, None, extra, codes=self._static_codes(batch))
        return [request.finalize(int(index))
                for request, index in zip(batch, indices)]

    def _static_codes(self, batch: List[_Request]):
        """The batch's static-code rows, encoding only uncached kernels.

        A kernel missing from the code cache is encoded once per batch,
        however often it appears; every other request is a hit.
        """
        rows: Dict[tuple, object] = {}
        encode: List[_Request] = []
        for request in batch:
            if request.kernel in rows:
                continue
            rows[request.kernel] = self.codes.get(request.kernel)
            if rows[request.kernel] is None:
                encode.append(request)
        if encode:
            model = self.predictor.model
            graphs = [r.graph for r in encode]
            batched = (batch_graphs(graphs) if model.modalities.use_graph
                       else None)
            fresh = model.static_codes(
                graphs, xp.stack([r.vector for r in encode]), batch=batched)
            for request, row in zip(encode, fresh):
                row = row.copy()
                row.flags.writeable = False
                self.codes.put(request.kernel, row)
                rows[request.kernel] = row
        with self._stats_lock:
            self._code_hits += len(batch) - len(encode)
            self._code_misses += len(encode)
        return xp.stack([rows[r.kernel] for r in batch])

    def _count_batch(self, size: int, latency_sum: float) -> None:
        with self._stats_lock:
            self._batches += 1
            self._batched_requests += size
            self._max_batch_seen = max(self._max_batch_seen, size)
            self._latency_sum += latency_sum

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """Counters for monitoring: batching, caching and latency."""
        with self._stats_lock:
            completed = self._batched_requests + self._memoized
            lookups = self.cache.hits + self.cache.misses
            result_lookups = (self.results.hits + self.results.misses
                              if self.results is not None else 0)
            return {
                "requests": self._requests,
                "completed": completed,
                "errors": self._errors,
                "batches": self._batches,
                "mean_batch_size": self._batched_requests / max(1, self._batches),
                "max_batch_size_seen": self._max_batch_seen,
                "cache_hits": self.cache.hits,
                "cache_misses": self.cache.misses,
                "cache_hit_rate": self.cache.hits / max(1, lookups),
                "cache_entries": len(self.cache),
                "memoized_responses": self._memoized,
                "result_cache_hit_rate": (self.results.hits
                                          / max(1, result_lookups)
                                          if self.results is not None else 0.0),
                # block-diagonal batches are no longer cached (every batch
                # is built fresh); the key stays for dashboards
                "batch_cache_hit_rate": 0.0,
                "code_cache_hits": self._code_hits,
                "code_cache_misses": self._code_misses,
                "code_cache_entries": len(self.codes),
                "mean_latency_ms": 1e3 * self._latency_sum / max(1, completed),
                "drift": (self.drift_monitor.summary()
                          if self.drift_monitor is not None else None),
            }

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the worker; outstanding queued requests fail."""
        with self._cond:
            if not self._running:
                return
            self._running = False
            leftover = list(self._queue)
            self._queue.clear()
            self._cond.notify_all()
            worker = self._worker
        if worker is not None:
            worker.join()
        for request in leftover:
            request.pending._finish(error=RuntimeError("engine is closed"))

    def __enter__(self) -> "InferenceEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
