"""Concurrent multi-worker serving daemon with work-conserving batching.

:class:`ServeDaemon` is the socket-served, multi-process big sibling of the
in-process :class:`~repro.serve.engine.InferenceEngine`:

* a **front-end** accepts JSON-line requests over a stream socket — a local
  ``AF_UNIX`` path or ``tcp://HOST:PORT`` for cross-host replicas, selected
  by the address scheme (:func:`~repro.serve.protocol.parse_address`) —
  many connections, pipelined requests, out-of-order responses;
* an **async dispatcher** queues requests per ``(model, version)`` route
  and is work-conserving: whenever a worker is idle, the route with the
  oldest waiting request flushes at once, up to ``max_batch`` requests.  A
  lone request never waits on a timer; batches form by themselves while
  every worker is busy;
* a **pool of worker processes**, each holding a warm
  :class:`~repro.serve.registry.ModelRegistry` model behind its own
  :class:`~repro.serve.engine.InferenceEngine`, answers each batch with one
  synchronous ``predict_batch`` call — the only batching stage on the path.

The request queue is bounded: when ``max_queue`` requests are already
waiting, new work is *shed* with a structured ``overloaded`` error instead
of growing the queue without bound (the client backs off; latency stays
bounded).  A monitor thread heals the pool — if a worker dies mid-batch its
requests are retried once on another worker (the deliberately-crashing
debug op is failed, not retried) and a replacement process is spawned.
``shutdown`` drains: queued and in-flight work completes, workers stop
cleanly, then the socket disappears.

Determinism: a worker answers ``tune``/``map`` through the same
``registry.load`` → ``InferenceEngine`` path as in-process serving, so
daemon predictions are byte-identical to :class:`InferenceEngine` over the
same published artifact.

Online operations (:mod:`repro.serve.lifecycle`): with a registry the
daemon runs a **watcher** thread that polls the registry generation and
hot-swaps routes onto newly published versions with zero drain — the
dispatcher stamps every batch with the route's resolved version under the
dispatch lock, so a flip lands exactly between micro-batches and no batch
mixes versions.  ``swap`` pins/rolls back a route; ``shadow`` tees a
fraction of answered live traffic to a candidate version through a
separate low-priority queue, diffing its answers against the delivered
ones.  A shadow batch takes a worker only while no live request waits and
at least ``min(2, workers)`` workers are idle, so in a pool of two or more
it never takes the last idle worker the next live request needs (the
bounded priority blocking of DPCP-p).  Workers stream cumulative
per-engine drift scores back with every batch; ``stats`` reports swap
counters, shadow disagreement and per-route drift.
"""

from __future__ import annotations

import collections
import multiprocessing
import os
import socket
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.serve import faults
from repro.serve.lifecycle import (
    DriftAggregator,
    LifecycleManager,
    ShadowPolicy,
    SwapError,
)
from repro.serve.protocol import (
    ADMIN_OPS,
    ERR_BAD_REQUEST,
    ERR_INTERNAL,
    ERR_NO_REGISTRY,
    ERR_OVERLOADED,
    ERR_SHUTTING_DOWN,
    ERR_WORKER_CRASHED,
    LineChannel,
    ProtocolError,
    connect_address,
    create_listener,
    error_response,
    format_address,
    ok_response,
    parse_address,
    percentile,
    validate_request,
)

#: per-request retry budget after a worker crash
MAX_ATTEMPTS = 2

_ROUTE_SESSION = ("session",)
_ROUTE_DEBUG = ("debug",)


def route_label(route: tuple) -> str:
    """A stable human/JSON-friendly name of a dispatch route tuple."""
    if route and route[0] == "model":
        _, model, version = route
        return f"{model}@{version if version is not None else 'latest'}"
    if route and route[0] == "shadow":
        _, model, version = route
        return f"shadow:{model}@{version}"
    return route[0] if route else "?"


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------
def _failure(code: str, exc: BaseException) -> Dict[str, Any]:
    return {"ok": False, "error": {"code": code,
                                   "message": f"{type(exc).__name__}: {exc}"}}


def _execute_tune_map(service, requests: List[Dict[str, Any]]
                      ) -> Tuple[List[Dict[str, Any]], Dict[str, Any]]:
    """Answer a batch of tune/map requests on this thread.

    Requests are grouped by the warm engine that serves them and each group
    is answered by one synchronous :meth:`InferenceEngine.predict_batch`
    call — the daemon's batch is the engine's batch, with no second queue
    or wait window behind it.  A request that cannot be resolved or
    prepared fails alone (``bad_request``); a failing ``predict`` fails its
    group (``internal``).  Returns the results plus cumulative per-engine
    drift summaries (keyed ``model@version``) for the daemon's aggregator.
    """
    from repro.kernels import registry as kernel_registry
    from repro.serve.service import (
        map_response_fields,
        require_mapper,
        require_tuner,
        resolve_tune_scale,
        tune_response_fields,
    )

    results: List[Dict[str, Any]] = [{}] * len(requests)
    groups: Dict[str, Tuple[Any, list]] = {}
    for position, request in enumerate(requests):
        try:
            engine, version = service.engine(request["model"],
                                             request.get("version"))
            group = groups.setdefault(f"{request['model']}@{version}",
                                      (engine, []))[1]
            spec = kernel_registry.get_kernel(request["kernel"])
            fields = [request["model"], version, request["kernel"]]
            if request["op"] == "tune":
                require_tuner(engine.predictor, request["model"])
                scale = resolve_tune_scale(spec, request.get("scale"),
                                           request.get("target_bytes"))
                fields.append(scale)
                query = (spec, scale)
            else:
                require_mapper(engine.predictor, request["model"])
                query = (spec, float(request["transfer_bytes"]),
                         int(request["wgsize"]))
        except Exception as exc:
            results[position] = _failure(ERR_BAD_REQUEST, exc)
            continue
        group.append((position, request["op"], fields, query))
    for engine, group in groups.values():
        try:
            answers = engine.predict_batch([q for *_, q in group])
            code = ERR_BAD_REQUEST           # in-band: could not be prepared
        except Exception as exc:
            answers, code = [exc] * len(group), ERR_INTERNAL
        for (position, op, fields, _), answer in zip(group, answers):
            if isinstance(answer, Exception):
                results[position] = _failure(code, answer)
            elif op == "tune":
                results[position] = {"ok": True, "result":
                                     tune_response_fields(*fields, *answer)}
            else:
                results[position] = {"ok": True, "result":
                                     map_response_fields(*fields,
                                                         int(answer))}
    drift: Dict[str, Any] = {}
    for label, (engine, _) in groups.items():
        summary = engine.drift_summary()
        if summary is not None:
            drift[label] = summary
    return results, ({"drift": drift} if drift else {})


def _execute_one(service, request: Dict[str, Any],
                 debug_ops: bool) -> Dict[str, Any]:
    from repro.serve.protocol import (
        outcome_to_wire,
        session_from_wire,
    )
    from repro.tuners.campaign import run_search_session

    op = request["op"]
    if op == "session":
        outcome = run_search_session(session_from_wire(request["session"]))
        return {"ok": True, "result": outcome_to_wire(outcome)}
    if op == "_sleep":
        if not debug_ops:
            raise ValueError("debug ops are disabled (start the daemon "
                             "with --debug-ops)")
        seconds = float(request.get("seconds", 0.1))
        time.sleep(seconds)
        return {"ok": True, "result": {"slept": seconds}}
    if op == "_crash":
        if not debug_ops:
            raise ValueError("debug ops are disabled (start the daemon "
                             "with --debug-ops)")
        os._exit(17)
    raise ValueError(f"unroutable op {op!r}")


def _run_control(service, worker_id: int, control_id: int,
                 command: Dict[str, Any], result_queue) -> None:
    """Execute one warm/retire control command and ack it."""
    try:
        if command["cmd"] == "warm":
            version = service.warm(command["model"],
                                   command.get("version"))
            detail = f"warmed {command['model']}@{version}"
        elif command["cmd"] == "retire":
            closed = service.retire(command["model"], command["version"])
            detail = ("retired" if closed else "not loaded")
        else:
            raise ValueError(f"unknown control cmd {command.get('cmd')!r}")
        result_queue.put(("control_done", worker_id, control_id,
                          True, detail))
    except Exception as exc:
        result_queue.put(("control_done", worker_id, control_id, False,
                          f"{type(exc).__name__}: {exc}"))


def _exit_when_orphaned(parent: int) -> None:
    """Exit this worker once the daemon that started it is gone.

    A SIGKILLed daemon sends no ``stop``, so the worker's blocking
    ``task_queue.get()`` would wait forever.  ``os._exit`` skips joining the
    result-queue feeder, which nobody reads any more.  A watchdog thread,
    not a ``get(timeout=...)`` poll, keeps the check off the per-batch path.
    """
    while os.getppid() == parent:
        time.sleep(1.0)
    os._exit(0)


def _worker_main(worker_id: int, registry_root: Optional[str],
                 engine_opts: Dict[str, Any], preload: List[str],
                 debug_ops: bool, task_queue, result_queue) -> None:
    """One worker: a warm per-model engine cache behind a task queue."""
    from repro.serve.registry import ModelRegistry
    from repro.serve.service import TuningService

    # chaos only: an REPRO_FAULTS plan with kill_after SIGKILLs this worker
    # after that many answered tune/map requests — after the answers are
    # computed but before they are submitted, the nastiest instant
    faults.install(faults.FaultPlan.from_env(), seed_offset=worker_id)
    threading.Thread(target=_exit_when_orphaned, args=(os.getppid(),),
                     name="repro-worker-orphan-watch", daemon=True).start()
    registry = ModelRegistry(registry_root) if registry_root else None
    service = TuningService(registry, **engine_opts)
    try:
        for entry in preload:
            name, _, version = entry.partition("@")
            service.engine(name, int(version) if version else None)
    except Exception as exc:
        result_queue.put(("failed", worker_id,
                          f"preload failed: {type(exc).__name__}: {exc}"))
        return
    result_queue.put(("ready", worker_id, os.getpid()))
    while True:
        message = task_queue.get()
        if message[0] == "stop":
            break
        if message[0] == "control":
            _, control_id, command = message
            if command.get("cmd") == "warm":
                # warm-load off the batch path: live batches keep flowing
                # on this worker while the candidate engine loads
                threading.Thread(
                    target=_run_control,
                    args=(service, worker_id, control_id, command,
                          result_queue),
                    name=f"repro-worker-warm-{control_id}",
                    daemon=True).start()
            else:
                _run_control(service, worker_id, control_id, command,
                             result_queue)
            continue
        _, batch_id, requests = message
        results: List[Dict[str, Any]] = []
        extras: Dict[str, Any] = {}
        tune_map: List[Tuple[int, Dict[str, Any]]] = []
        for position, request in enumerate(requests):
            if request["op"] in ("tune", "map"):
                if registry is None:
                    results.append(
                        {"ok": False,
                         "error": {"code": ERR_NO_REGISTRY,
                                   "message": "daemon was started without "
                                              "--root; tune/map need a "
                                              "model registry"}})
                else:
                    tune_map.append((position, request))
                    results.append({})       # placeholder, filled below
            else:
                try:
                    results.append(_execute_one(service, request, debug_ops))
                except Exception as exc:
                    results.append(_failure(ERR_BAD_REQUEST, exc))
        if tune_map:
            answers, extras = _execute_tune_map(
                service, [request for _, request in tune_map])
            for (position, _), answer in zip(tune_map, answers):
                results[position] = answer
        injector = faults.active()
        if injector is not None:
            for _ in tune_map:
                injector.evaluated()
        result_queue.put(("done", worker_id, batch_id, results, extras))
    service.close()


# ----------------------------------------------------------------------
# daemon-side request bookkeeping
# ----------------------------------------------------------------------
class _PendingRequest:
    __slots__ = ("request_id", "op", "payload", "reply", "enqueued_at",
                 "attempts", "route", "stalled")

    def __init__(self, request_id, op, payload, reply, route):
        self.request_id = request_id
        self.op = op
        self.payload = payload
        self.reply = reply
        self.enqueued_at = time.perf_counter()
        self.attempts = 0
        self.route = route
        self.stalled = False          # counted as shadow contention


class _Worker:
    """Daemon-side handle of one worker process."""

    def __init__(self, worker_id: int, process, task_queue):
        self.worker_id = worker_id
        self.process = process
        self.task_queue = task_queue
        self.busy_with: Optional[int] = None      # batch id

    def alive(self) -> bool:
        return self.process.is_alive()


class ServeDaemon:
    """Socket front-end + dispatcher + healing worker pool (see module doc)."""

    def __init__(self, address: str, registry_root: Optional[str] = None,
                 workers: int = 2, max_batch: int = 16, max_queue: int = 64,
                 cache_size: int = 512,
                 preload: Optional[List[str]] = None, debug_ops: bool = False,
                 mp_start_method: Optional[str] = None,
                 watch_interval_s: float = 0.5):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        # an AF_UNIX path (historical default) or tcp://HOST:PORT; the
        # resolved form (ephemeral TCP ports filled in) lands here on start
        self.scheme, self._location = parse_address(address)
        self.address = format_address(self.scheme, self._location)
        self.registry_root = (os.fspath(registry_root)
                              if registry_root is not None else None)
        self.workers = int(workers)
        self.max_batch = int(max_batch)
        self.max_queue = int(max_queue)
        self.engine_opts = {"max_batch_size": int(max_batch),
                            "cache_size": int(cache_size)}
        self.preload = list(preload or [])
        self.debug_ops = bool(debug_ops)
        #: registry-watch poll period; 0 disables the watcher (routes then
        #: only move on explicit ``swap`` ops)
        self.watch_interval_s = float(watch_interval_s)
        self._mp = (multiprocessing.get_context(mp_start_method)
                    if mp_start_method else multiprocessing)

        self._lock = threading.Lock()
        self._work_available = threading.Condition(self._lock)
        self._drained = threading.Condition(self._lock)
        self._routes: "collections.OrderedDict[tuple, collections.deque]" = \
            collections.OrderedDict()
        self._queued = 0
        self._inflight: Dict[int, List[_PendingRequest]] = {}
        self._pool: Dict[int, _Worker] = {}
        self._next_batch_id = 0
        self._next_worker_id = 0
        self._result_queue = None
        self._listener: Optional[socket.socket] = None
        self._conns: set = set()
        self._conns_lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        self._running = False
        self._draining = False
        self._started_at = 0.0
        self._stop_event = threading.Event()

        # online operations: lifecycle manager over this registry, shadow
        # queueing, worker control-message plumbing, drift aggregation
        self._registry = None
        self._lifecycle: Optional[LifecycleManager] = None
        if self.registry_root is not None:
            from repro.serve.registry import ModelRegistry
            self._registry = ModelRegistry(self.registry_root)
            self._lifecycle = LifecycleManager(
                self._registry, self._warm_workers, self._retire_workers)
        self._warm_set: set = set()          # "model@version" kept warm
        self._shadow_routes: "collections.OrderedDict[tuple, collections.deque]" = \
            collections.OrderedDict()
        self._shadow_queued = 0
        self._shadow_batch_ids: set = set()
        self._shadow_contention = 0
        self._shadow_batch_count = 0
        self._control_lock = threading.Lock()
        self._control_waiters: Dict[int, Dict[str, Any]] = {}
        self._next_control_id = 0
        self._drift = DriftAggregator()

        self._stats_lock = threading.Lock()
        self._received = 0
        self._completed = 0
        self._errors = 0
        self._shed = 0
        self._retried = 0
        self._worker_restarts = 0
        self._batch_histogram: Dict[int, int] = {}
        self._latencies: "collections.deque[float]" = \
            collections.deque(maxlen=4096)
        self._per_model: Dict[str, int] = {}

    @property
    def socket_path(self) -> str:
        """The serving address (historical name from AF_UNIX-only days)."""
        return self.address

    @property
    def running(self) -> bool:
        return self._running

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, ready_timeout: float = 120.0) -> "ServeDaemon":
        """Bind the socket, spawn + warm the workers, start the dispatcher."""
        if self._running:
            raise RuntimeError("daemon already started")
        if self.scheme == "unix" and os.path.exists(self._location):
            # a crashed daemon leaves a dead socket file behind — but a
            # *live* one must not be hijacked: probe before unlinking
            try:
                probe = connect_address(self.address, timeout=1.0)
            except OSError:
                os.unlink(self._location)        # stale: nobody listening
            else:
                probe.close()
                raise RuntimeError(
                    f"another daemon is already serving {self.address}")
        # bind before spawning: a refused bind must not leak worker processes
        listener, self.address = create_listener(self.address)
        self._listener = listener

        self._result_queue = self._mp.Queue()
        try:
            with self._lock:
                for _ in range(self.workers):
                    self._spawn_worker_locked()
            self._await_workers(ready_timeout)
        except BaseException:
            for worker in self._pool.values():
                worker.process.terminate()
            listener.close()
            if self.scheme == "unix":
                os.unlink(self._location)
            raise
        self._running = True
        self._started_at = time.perf_counter()
        loops = [(self._accept_loop, "accept"),
                 (self._dispatch_loop, "dispatch"),
                 (self._collect_loop, "collect"),
                 (self._monitor_loop, "monitor")]
        if self._lifecycle is not None and self.watch_interval_s > 0:
            loops.append((self._watch_loop, "watch"))
        for target, name in loops:
            thread = threading.Thread(target=target,
                                      name=f"repro-daemon-{name}",
                                      daemon=True)
            thread.start()
            self._threads.append(thread)
        return self

    def _spawn_worker_locked(self) -> _Worker:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        task_queue = self._mp.Queue()
        # healed workers come up warm on every version the lifecycle has
        # swapped in, not just the configured preload — a route must heal
        # onto the version it currently serves
        preload = sorted(set(self.preload) | self._warm_set)
        process = self._mp.Process(
            target=_worker_main,
            args=(worker_id, self.registry_root, self.engine_opts,
                  preload, self.debug_ops, task_queue,
                  self._result_queue),
            name=f"repro-serve-worker-{worker_id}", daemon=True)
        process.start()
        worker = _Worker(worker_id, process, task_queue)
        self._pool[worker_id] = worker
        return worker

    def _await_workers(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        ready = 0
        while ready < self.workers:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError("workers did not come up in time")
            try:
                message = self._result_queue.get(timeout=remaining)
            except Exception as exc:
                raise RuntimeError("workers did not come up in time") from exc
            if message[0] == "ready":
                ready += 1
            elif message[0] == "failed":
                raise RuntimeError(f"worker {message[1]} failed to start: "
                                   f"{message[2]}")

    # ------------------------------------------------------------------
    # worker control channel: warm/retire broadcasts for hot-swap
    # ------------------------------------------------------------------
    def _broadcast_control(self, command: Dict[str, Any],
                           timeout: float = 120.0) -> Dict[int, tuple]:
        """Send one control command to every live worker; gather the acks.

        Returns ``{worker_id: (ok, detail)}``.  Workers that die while the
        command is outstanding are recorded as failed instead of hanging
        the broadcast — the monitor replaces them, and replacements come
        up warm via the preload set.
        """
        with self._lock:
            targets = {worker_id: worker
                       for worker_id, worker in self._pool.items()
                       if worker.alive()}
        if not targets:
            raise RuntimeError("no live workers to control")
        with self._control_lock:
            control_id = self._next_control_id
            self._next_control_id += 1
            waiter = {"pending": set(targets), "results": {},
                      "event": threading.Event()}
            self._control_waiters[control_id] = waiter
        try:
            for worker_id, worker in targets.items():
                try:
                    worker.task_queue.put(("control", control_id, command))
                except (OSError, ValueError):
                    self._control_ack(worker_id, control_id, False,
                                      "control channel closed")
            deadline = time.monotonic() + timeout
            while not waiter["event"].wait(0.2):
                with self._lock:
                    dead = [worker_id for worker_id in list(waiter["pending"])
                            if worker_id not in self._pool
                            or not self._pool[worker_id].alive()]
                for worker_id in dead:
                    self._control_ack(worker_id, control_id, False,
                                      "worker died during control op")
                if time.monotonic() > deadline:
                    raise RuntimeError(
                        f"control op {command.get('cmd')!r} timed out "
                        f"waiting for workers {sorted(waiter['pending'])}")
        finally:
            with self._control_lock:
                self._control_waiters.pop(control_id, None)
        return dict(waiter["results"])

    def _control_ack(self, worker_id: int, control_id: int, ok: bool,
                     detail: str) -> None:
        with self._control_lock:
            waiter = self._control_waiters.get(control_id)
            if waiter is None or worker_id not in waiter["pending"]:
                return
            waiter["pending"].discard(worker_id)
            waiter["results"][worker_id] = (ok, detail)
            if not waiter["pending"]:
                waiter["event"].set()

    def _warm_workers(self, model: str, version: int) -> None:
        """Warm-load one version on every worker (all must succeed)."""
        results = self._broadcast_control(
            {"cmd": "warm", "model": model, "version": int(version)})
        failures = {worker_id: detail
                    for worker_id, (ok, detail) in results.items() if not ok}
        if failures:
            raise RuntimeError(f"warm failed on workers {failures}")
        with self._lock:
            self._warm_set.add(f"{model}@{int(version)}")

    def _retire_workers(self, model: str, version: int) -> None:
        """Close one version's engines everywhere (best effort)."""
        with self._lock:
            self._warm_set.discard(f"{model}@{int(version)}")
        try:
            self._broadcast_control(
                {"cmd": "retire", "model": model, "version": int(version)},
                timeout=30.0)
        except RuntimeError:
            pass          # dead workers retire by dying

    def _watch_loop(self) -> None:
        """Poll the registry generation; hot-swap unpinned stale routes."""
        while not self._stop_event.wait(self.watch_interval_s):
            if not self._running or self._draining:
                return
            try:
                self._lifecycle.check_registry()
            except Exception:
                continue      # registry hiccup: retry next tick

    def shutdown(self, drain: bool = True, timeout: float = 120.0,
                 _exempt_conn: Optional[socket.socket] = None) -> None:
        """Stop the daemon; with ``drain`` outstanding work completes first."""
        self._stop_event.set()
        with self._lock:
            if not self._running:
                return
            self._draining = True
            if drain:
                deadline = time.monotonic() + timeout
                while (self._queued or self._inflight) and \
                        time.monotonic() < deadline:
                    self._work_available.notify_all()
                    self._drained.wait(timeout=0.1)
            self._running = False
            pool = list(self._pool.values())
            self._work_available.notify_all()
        for worker in pool:
            try:
                worker.task_queue.put(("stop",))
            except (OSError, ValueError):
                pass
        for worker in pool:
            worker.process.join(timeout=10.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=5.0)
        if self._listener is not None:
            # wake the accept thread before closing: a close() alone leaves
            # it blocked in accept(), and the in-kernel reference it holds
            # keeps the port in LISTEN after we exit (EADDRINUSE on restart)
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        if self.scheme == "unix" and os.path.exists(self._location):
            try:
                os.unlink(self._location)
            except OSError:
                pass
        # fail anything still queued (drain=False or drain timeout)
        with self._lock:
            leftovers = [request for pending in self._routes.values()
                         for request in pending]
            leftovers.extend(request
                             for pending in self._shadow_routes.values()
                             for request in pending)
            for batch in self._inflight.values():
                leftovers.extend(batch)
            self._routes.clear()
            self._shadow_routes.clear()
            self._inflight.clear()
            self._queued = 0
            self._shadow_queued = 0
        for request in leftovers:
            request.reply(error_response(request.request_id,
                                         ERR_SHUTTING_DOWN,
                                         "daemon stopped before this "
                                         "request completed"))
        # hang up on connected clients so they observe the stop instead of
        # talking to a zombie; the connection that requested the shutdown
        # is exempted so its ack can still be delivered
        with self._conns_lock:
            open_conns = [conn for conn in self._conns
                          if conn is not _exempt_conn]
        for conn in open_conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def __enter__(self) -> "ServeDaemon":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # front-end: connections and admission control
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while self._running:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            if self.scheme == "tcp":
                try:
                    conn.setsockopt(socket.IPPROTO_TCP,
                                    socket.TCP_NODELAY, 1)
                    # let a restarted daemon rebind this port while old
                    # client connections are still draining
                    conn.setsockopt(socket.SOL_SOCKET,
                                    socket.SO_REUSEADDR, 1)
                except OSError:
                    pass
            thread = threading.Thread(target=self._connection_loop,
                                      args=(conn,),
                                      name="repro-daemon-conn", daemon=True)
            thread.start()

    def _connection_loop(self, conn: socket.socket) -> None:
        channel = LineChannel(conn)
        write_lock = threading.Lock()
        with self._conns_lock:
            self._conns.add(conn)

        def reply(document: Dict[str, Any]) -> None:
            try:
                with write_lock:
                    channel.send(document)
            except OSError:
                pass                  # client went away; nothing to tell it

        try:
            while True:
                try:
                    document = channel.recv()
                except ProtocolError as exc:
                    reply(error_response(None, ERR_BAD_REQUEST, str(exc)))
                    return
                except OSError:
                    return
                if document is None:
                    return
                self._handle_request(document, reply, conn)
        finally:
            with self._conns_lock:
                self._conns.discard(conn)
            channel.close()

    def _handle_request(self, document: Dict[str, Any], reply,
                        conn: Optional[socket.socket] = None) -> None:
        try:
            request_id, op = validate_request(document)
        except ProtocolError as exc:
            reply(error_response(document.get("id"), ERR_BAD_REQUEST,
                                 str(exc)))
            with self._stats_lock:
                self._received += 1
                self._errors += 1
            return
        with self._stats_lock:
            self._received += 1
        if op == "ping":
            reply(ok_response(request_id, {"pong": True}))
            return
        if op == "stats":
            reply(ok_response(request_id, self.stats()))
            return
        if op == "shutdown":
            # drain on a helper thread so this connection's reader keeps
            # the reply path alive until outstanding work has finished
            def drain_and_ack():
                self.shutdown(drain=bool(document.get("drain", True)),
                              _exempt_conn=conn)
                reply(ok_response(request_id, {"stopped": True}))
            threading.Thread(target=drain_and_ack,
                             name="repro-daemon-shutdown",
                             daemon=True).start()
            return
        if op in ADMIN_OPS:
            # swap/shadow run synchronously on this connection's thread:
            # the warm broadcast completes via the collector thread, and
            # the caller gets a deterministic done/failed answer
            self._handle_admin(request_id, op, document, reply)
            return
        self._admit(_PendingRequest(request_id, op, document, reply,
                                    self._route_of(document, op)))

    def _handle_admin(self, request_id, op: str, document: Dict[str, Any],
                      reply) -> None:
        if self._lifecycle is None:
            reply(error_response(request_id, ERR_NO_REGISTRY,
                                 "daemon was started without --root; "
                                 "online operations need a model registry"))
            with self._stats_lock:
                self._errors += 1
            return
        try:
            if op == "swap":
                result = self._lifecycle.swap(
                    document["model"],
                    version=document.get("version"),
                    rollback=bool(document.get("rollback", False)),
                    track_latest=bool(document.get("track_latest", False)))
            else:
                action = document.get("action", "status")
                if action == "start":
                    result = self._lifecycle.shadow_start(
                        document["model"], int(document["version"]),
                        fraction=float(document.get("fraction", 0.2)),
                        tolerance=float(document.get("tolerance", 0.0)),
                        policy=ShadowPolicy(
                            min_compared=int(document.get("min_compared",
                                                          0)),
                            promote_below=float(
                                document.get("promote_below", 0.0)),
                            abort_above=float(
                                document.get("abort_above", 1.0))))
                elif action == "stop":
                    result = self._lifecycle.shadow_stop(document["model"])
                else:
                    result = self._lifecycle.shadow_status(document["model"])
        except (SwapError, KeyError, ValueError, RuntimeError) as exc:
            reply(error_response(request_id, ERR_BAD_REQUEST,
                                 f"{type(exc).__name__}: {exc}"))
            with self._stats_lock:
                self._errors += 1
            return
        reply(ok_response(request_id, result))

    @staticmethod
    def _route_of(document: Dict[str, Any], op: str) -> tuple:
        if op in ("tune", "map"):
            return ("model", document["model"], document.get("version"))
        if op == "session":
            return _ROUTE_SESSION
        return _ROUTE_DEBUG

    def _admit(self, request: _PendingRequest) -> None:
        with self._lock:
            if self._draining or not self._running:
                shed_code, message = ERR_SHUTTING_DOWN, \
                    "daemon is shutting down"
            elif self._queued >= self.max_queue:
                shed_code, message = ERR_OVERLOADED, \
                    f"request queue is full ({self._queued} waiting)"
            else:
                pending = self._routes.get(request.route)
                if pending is None:
                    pending = self._routes.setdefault(request.route,
                                                      collections.deque())
                pending.append(request)
                self._queued += 1
                self._work_available.notify_all()
                return
            depth = self._queued
        with self._stats_lock:
            self._shed += 1
        request.reply(error_response(request.request_id, shed_code,
                                     message, queue_depth=depth))

    # ------------------------------------------------------------------
    # dispatcher: work-conserving batch formation
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while True:
            with self._lock:
                if not self._running:
                    return
                assignment = self._form_batch_locked()
                if assignment is None:
                    # nothing to dispatch until an admission, a finished
                    # batch or a healed worker notifies
                    self._work_available.wait(0.5)
                    continue
                worker, batch_id, _, payloads = assignment
            try:
                worker.task_queue.put(("batch", batch_id, payloads))
            except (OSError, ValueError):
                pass        # dead worker: the monitor reassigns the batch

    def _form_batch_locked(self):
        """Pop the next batch and assign it to an idle worker, or ``None``.

        Work-conserving: while a worker is idle and live requests wait, the
        route with the *oldest* head request flushes at once, up to
        ``max_batch`` requests.  A lone request goes straight to an idle
        worker; batches form from what queued up while every worker was
        busy.  Oldest-head-first keeps a saturated hot route from starving
        another route's requests.

        Version stamping happens here, under the dispatch lock: a
        latest-route batch is dispatched with the lifecycle's *resolved*
        active version written into every payload, so one batch is always
        one version and a hot-swap flip takes effect exactly between
        batches.  With no live request waiting, a queued *shadow* batch may
        take a worker — but only while at least ``min(2, pool)`` workers
        are idle, so shadow work never takes the last idle worker of a
        larger pool.
        """
        idle = [worker for worker in self._pool.values()
                if worker.busy_with is None and worker.alive()]
        if not idle:
            self._note_shadow_contention_locked()
            return None
        if not self._routes:
            return self._form_shadow_batch_locked(idle)
        # a route is deleted with its last request, so every head exists
        route = min(self._routes,
                    key=lambda key: self._routes[key][0].enqueued_at)
        batch_id, batch = self._pop_batch_locked(self._routes, route, idle[0])
        self._queued -= len(batch)
        return idle[0], batch_id, batch, \
            self._stamped_payloads_locked(route, batch)

    def _form_shadow_batch_locked(self, idle: List[_Worker]):
        """A shadow batch, taken only while ``min(2, pool)`` workers idle."""
        if (not self._shadow_routes or self._draining
                or len(idle) < min(2, len(self._pool))):
            return None
        route = next(iter(self._shadow_routes))
        batch_id, batch = self._pop_batch_locked(self._shadow_routes, route,
                                                 idle[0])
        self._shadow_queued -= len(batch)
        self._shadow_batch_ids.add(batch_id)
        return idle[0], batch_id, batch, \
            [request.payload for request in batch]

    def _pop_batch_locked(self, routes, route: tuple, worker: _Worker
                          ) -> Tuple[int, List[_PendingRequest]]:
        """Up to ``max_batch`` requests of ``route``, in flight on ``worker``."""
        pending = routes[route]
        batch = [pending.popleft()
                 for _ in range(min(len(pending), self.max_batch))]
        if not pending:
            del routes[route]             # don't accumulate dead routes
        batch_id = self._next_batch_id
        self._next_batch_id += 1
        self._inflight[batch_id] = batch
        worker.busy_with = batch_id
        return batch_id, batch

    def _stamped_payloads_locked(self, route: tuple,
                                 batch: List[_PendingRequest]
                                 ) -> List[Dict[str, Any]]:
        """The batch's wire payloads, stamped with one resolved version."""
        if (route[0] == "model" and route[2] is None
                and self._lifecycle is not None):
            active = self._lifecycle.resolve(route[1])
            if active is not None:
                stamped = []
                for request in batch:
                    payload = dict(request.payload)
                    payload["version"] = active
                    stamped.append(payload)
                return stamped
        return [request.payload for request in batch]

    def _note_shadow_contention_locked(self) -> None:
        """Count, once each, queued live requests that find no idle worker
        while a shadow batch holds one."""
        if not self._queued or not any(
                worker.busy_with in self._shadow_batch_ids
                for worker in self._pool.values()):
            return
        for pending in self._routes.values():
            for request in pending:
                if not request.stalled:
                    request.stalled = True
                    self._shadow_contention += 1

    # ------------------------------------------------------------------
    # collector: worker results back to the connections
    # ------------------------------------------------------------------
    def _collect_loop(self) -> None:
        while True:
            try:
                message = self._result_queue.get(timeout=0.1)
            except Exception:
                if not self._running:
                    return
                continue
            if message[0] == "ready":
                continue              # a healed worker came up
            if message[0] == "control_done":
                _, worker_id, control_id, ok, detail = message
                self._control_ack(worker_id, control_id, ok, detail)
                continue
            if message[0] != "done":
                continue
            _, worker_id, batch_id, results, extras = message
            for label, snapshot in (extras.get("drift") or {}).items():
                self._drift.update(worker_id, label, snapshot)
            with self._lock:
                batch = self._inflight.pop(batch_id, None)
                shadow = batch_id in self._shadow_batch_ids
                self._shadow_batch_ids.discard(batch_id)
                worker = self._pool.get(worker_id)
                if worker is not None and worker.busy_with == batch_id:
                    worker.busy_with = None
                self._work_available.notify_all()
                if not self._queued and not self._inflight:
                    self._drained.notify_all()
            if batch is None:
                continue              # already failed over by the monitor
            self._deliver(batch, results, worker_id, batch_id,
                          shadow=shadow)

    def _deliver(self, batch: List[_PendingRequest],
                 results: List[Dict[str, Any]], worker_id: int,
                 batch_id: int, shadow: bool = False) -> None:
        if shadow:
            # off the books: shadow answers only feed the diff report (the
            # reply closures), never latency/throughput accounting
            with self._stats_lock:
                self._shadow_batch_count += 1
            for request, outcome in zip(batch, results):
                if outcome.get("ok"):
                    request.reply(ok_response(request.request_id,
                                              dict(outcome["result"])))
                else:
                    error = outcome.get("error") or {}
                    request.reply(error_response(
                        request.request_id,
                        error.get("code", ERR_INTERNAL),
                        error.get("message", "")))
            return
        now = time.perf_counter()
        with self._stats_lock:
            size = len(batch)
            self._batch_histogram[size] = \
                self._batch_histogram.get(size, 0) + 1
        for request, outcome in zip(batch, results):
            latency_ms = 1e3 * (now - request.enqueued_at)
            # account BEFORE replying: a client that reads /stats right
            # after its response must see its own request counted
            with self._stats_lock:
                self._completed += 1
                self._errors += int(not outcome.get("ok"))
                self._latencies.append(latency_ms)
                if outcome.get("ok"):
                    # answered requests only: failed ones may name any
                    # model, and the key set must stay bounded
                    model = request.payload.get("model", request.op)
                    self._per_model[model] = \
                        self._per_model.get(model, 0) + 1
            if outcome.get("ok"):
                result = dict(outcome["result"])
                result["latency_ms"] = latency_ms
                result["worker"] = worker_id
                result["batch"] = batch_id
                request.reply(ok_response(request.request_id, result))
                self._maybe_tee_shadow(request, result)
            else:
                error = outcome.get("error") or {"code": ERR_INTERNAL,
                                                 "message": "worker returned "
                                                            "no result"}
                request.reply(error_response(request.request_id,
                                             error.get("code", ERR_INTERNAL),
                                             error.get("message", "")))

    # ------------------------------------------------------------------
    # shadow deploys: tee answered live requests to the candidate
    # ------------------------------------------------------------------
    def _maybe_tee_shadow(self, request: _PendingRequest,
                          result: Dict[str, Any]) -> None:
        if self._lifecycle is None or request.op not in ("tune", "map"):
            return
        model = request.payload.get("model")
        candidate = self._lifecycle.sample_shadow(model)
        if candidate is None or candidate == result.get("version"):
            return
        lifecycle = self._lifecycle
        op = request.op
        primary = {key: result.get(key)
                   for key in ("kernel", "version", "config_label",
                               "num_threads", "schedule", "chunk_size",
                               "label", "device")}
        payload = dict(request.payload)
        payload["version"] = int(candidate)

        def record(document: Dict[str, Any]) -> None:
            lifecycle.record_shadow(model, candidate, op, primary, document)

        shadow = _PendingRequest(f"shadow:{request.request_id}", op,
                                 payload, record,
                                 ("shadow", model, int(candidate)))
        with self._lock:
            if (not self._running or self._draining
                    or self._shadow_queued >= self.max_queue):
                dropped = True
            else:
                dropped = False
                pending = self._shadow_routes.setdefault(
                    shadow.route, collections.deque())
                pending.append(shadow)
                self._shadow_queued += 1
                self._work_available.notify_all()
        if dropped:
            lifecycle.record_shadow_dropped(model, candidate)

    # ------------------------------------------------------------------
    # monitor: worker crash detection, retry and pool healing
    # ------------------------------------------------------------------
    def _monitor_loop(self) -> None:
        while True:
            time.sleep(0.05)
            with self._lock:
                if not self._running:
                    return
                dead = [worker for worker in self._pool.values()
                        if not worker.alive()]
                recovered: List[_PendingRequest] = []
                failed: List[_PendingRequest] = []
                shadow_failed: List[_PendingRequest] = []
                for worker in dead:
                    del self._pool[worker.worker_id]
                    self._worker_restarts += 1
                    if worker.busy_with is not None:
                        was_shadow = worker.busy_with in self._shadow_batch_ids
                        self._shadow_batch_ids.discard(worker.busy_with)
                        batch = self._inflight.pop(worker.busy_with, [])
                        for request in batch:
                            if was_shadow:
                                # shadow work is best-effort: never retried,
                                # never counted against live traffic
                                shadow_failed.append(request)
                                continue
                            request.attempts += 1
                            if (request.op == "_crash"
                                    or request.attempts >= MAX_ATTEMPTS):
                                failed.append(request)
                            else:
                                recovered.append(request)
                    self._drift.forget_worker(worker.worker_id)
                    self._spawn_worker_locked()
                for request in recovered:
                    # retry at the front of its route: it has already waited
                    pending = self._routes.setdefault(request.route,
                                                      collections.deque())
                    pending.appendleft(request)
                    self._queued += 1
                if recovered or dead:
                    self._work_available.notify_all()
            for request in shadow_failed:
                request.reply(error_response(
                    request.request_id, ERR_WORKER_CRASHED,
                    "worker process died while executing shadow request"))
            for request in failed:
                with self._stats_lock:
                    self._completed += 1
                    self._errors += 1
                request.reply(error_response(
                    request.request_id, ERR_WORKER_CRASHED,
                    "worker process died while executing this request"))
            if recovered:
                with self._stats_lock:
                    self._retried += len(recovered)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Queue depth, batch-size histogram, latency percentiles, workers."""
        with self._lock:
            queue_depth = self._queued
            per_route = {route_label(route): len(pending)
                         for route, pending in self._routes.items()
                         if pending}
            inflight = {batch_id: len(batch)
                        for batch_id, batch in self._inflight.items()}
            alive = sum(worker.alive() for worker in self._pool.values())
            shadow_depth = self._shadow_queued
            shadow_contention = self._shadow_contention
        if self._lifecycle is not None:
            lifecycle_stats: Optional[Dict[str, Any]] = {
                "enabled": True,
                "watch_interval_s": self.watch_interval_s,
            }
            lifecycle_stats.update(self._lifecycle.stats())
            shadow_routes = self._lifecycle.shadow_stats()
            shadow_finished = self._lifecycle.finished_shadow_stats()
        else:
            lifecycle_stats = None
            shadow_routes = {}
            shadow_finished = {}
        with self._stats_lock:
            histogram = dict(sorted(self._batch_histogram.items()))
            batches = sum(histogram.values())
            batched = sum(size * count for size, count in histogram.items())
            latencies = sorted(self._latencies)
            snapshot = {
                "uptime_s": time.perf_counter() - self._started_at,
                "address": self.address,
                "transport": self.scheme,
                "workers": {"configured": self.workers, "alive": alive,
                            "restarts": self._worker_restarts},
                "queue": {"depth": queue_depth, "max_queue": self.max_queue,
                          "per_route": per_route,
                          "inflight_requests": sum(inflight.values()),
                          "inflight_batches": len(inflight)},
                "requests": {"received": self._received,
                             "completed": self._completed,
                             "errors": self._errors,
                             "shed": self._shed,
                             "retried": self._retried},
                "batches": {
                    "count": batches,
                    "histogram": {str(size): count
                                  for size, count in histogram.items()},
                    "max_size": max(histogram) if histogram else 0,
                    "mean_size": batched / max(1, batches),
                },
                "latency_ms": {
                    "count": len(latencies),
                    "mean": (sum(latencies) / len(latencies)
                             if latencies else 0.0),
                    "p50": percentile(latencies, 0.50),
                    "p99": percentile(latencies, 0.99),
                    "p999": percentile(latencies, 0.999),
                },
                "per_model": dict(self._per_model),
                "max_batch": self.max_batch,
                "lifecycle": lifecycle_stats,
                "shadow": {
                    "routes": shadow_routes,
                    "finished": shadow_finished,
                    "queue_depth": shadow_depth,
                    "batches": self._shadow_batch_count,
                    "contention": shadow_contention,
                },
                "drift": {"routes": self._drift.stats()},
            }
        return snapshot
