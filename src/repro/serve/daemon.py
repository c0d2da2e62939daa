"""Concurrent multi-worker serving daemon with work-conserving batching.

:class:`ServeDaemon` is the socket-served, multi-process big sibling of the
in-process :class:`~repro.serve.engine.InferenceEngine`:

* a **front-end** accepts JSON-line requests over a stream socket — a local
  ``AF_UNIX`` path or ``tcp://HOST:PORT`` for cross-host replicas, selected
  by the address scheme (:func:`~repro.serve.protocol.parse_address`) —
  many connections, pipelined requests, out-of-order responses;
* a **work-conserving dispatch rule** queues requests per ``(model,
  version)`` route: whenever a worker is idle, the route with the oldest
  waiting request flushes at once, up to ``max_batch`` requests, so a lone
  request never waits on a timer and batches form while workers are busy;
* a **pool of worker processes**, each holding a warm
  :class:`~repro.serve.registry.ModelRegistry` model behind its own
  :class:`~repro.serve.engine.InferenceEngine`, answers each batch with one
  synchronous ``predict_batch`` call — the only batching stage on the path.

One thread, ``repro-daemon-loop``, drives them: a :mod:`selectors` loop
over the listening socket, the client sockets and one duplex
:func:`multiprocessing.Pipe` per worker.  Each event admits the complete
request lines a client sent or takes one worker message; then, if any
request waits, idle workers get batches until
:meth:`ServeDaemon._form_batch_locked` has none left.  A worker is idle only
after its ``ready``, never while it is still loading.

The parent process imports neither numpy nor the model stack: it parses,
queues, memoizes, reads registry pointers and merges drift counters in
plain Python.  Each worker imports the registry and the service after the
fork, so numpy and its BLAS start up in the worker, never across a fork,
and a replacement worker pays those imports itself before its ``ready``.

The request queue is bounded: beyond ``max_queue`` waiting requests new
work is *shed* with a structured ``overloaded`` error.  A worker's death is
EOF on its pipe: its requests are retried once on another worker (the
deliberately-crashing debug op is failed, not retried) and a replacement
is spawned.  ``shutdown`` drains: queued and in-flight work completes,
workers stop cleanly, then the socket disappears.  The loop tears itself
down as it exits, so a stop asked for by :meth:`ServeDaemon.shutdown` and
one asked for by the ``shutdown`` op (which runs on the loop and starts no
thread) take the same path.

Determinism: a worker answers ``tune``/``map`` through the same
``registry.load`` → ``InferenceEngine`` path as in-process serving, so
daemon predictions are byte-identical to :class:`InferenceEngine` over the
same published artifact.

Repeats never leave the loop: an answer is a pure function of the request's
fields and the artifact version, so the loop keeps the worker answers of
live ``tune``/``map`` requests in an LRU memo bounded by ``cache_size``,
keyed on ``(fields, version)``.  The memo holds each answer encoded: the
loop encodes a live answer once, when it first replies with it, and every
reply, fresh or memoized, splices those bytes with the request's ``id``,
``latency_ms``, ``worker`` and ``batch``
(:func:`~repro.serve.protocol.ok_frame`), so a hit copies no dict and
encodes no answer.  A latest-route request takes its version from the
lifecycle at receive time, as a batch of one dispatched at that instant
would, so a swap still lands between answers.  A hit is answered at once,
without queueing or a worker: it counts as completed, but not as a batch.
Its reply reads ``worker: null`` and a ``batch`` id of its own, so grouping
answers by ``(worker, batch)`` never merges two of them.  Each
path keeps one response memo: daemon workers build their engines with
``memoize_results=False``, while in-process serving keeps the engine's.

Online operations (:mod:`repro.serve.lifecycle`): with a registry the loop
reads the registry generation every ``watch_interval_s`` (its selector
timeout); when it moved, a short-lived helper thread hot-swaps routes with
zero drain.  ``swap``/``shadow`` ops run on helpers too; their broadcasts
complete on loop events (worker acks, or a dead worker's EOF).  A helper
never writes to a client: it queues its reply and wakes the loop, which
sends it, so the loop is the one writer of every client socket.  Batches
are stamped with one resolved version under the dispatch lock, so a flip
lands between micro-batches.  ``shadow`` tees answered live traffic to a
candidate version and diffs the answers; a shadow batch starts only while
no live request waits and ``min(2, workers)`` workers are idle, so it never
takes the last idle worker of a larger pool (DPCP-p's bounded priority
blocking).  ``stats`` reports swaps, shadow disagreement and the drift
scores workers send back with every batch.
"""

from __future__ import annotations

import collections
import itertools
import json
import math
import multiprocessing
import multiprocessing.connection
import os
import selectors
import socket
import threading
import time
import weakref
from typing import Any, Callable, Dict, List, Optional, Tuple

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
    ClientConnection,
    FrontEnd,
    ProtocolError,
    close_listener,
    create_listener,
    encode_body,
    error_response,
    format_address,
    ok_frame,
    ok_response,
    parse_address,
    percentile,
    validate_request,
)

#: per-request retry budget after a worker crash
MAX_ATTEMPTS = 2

_ROUTE_SESSION = ("session",)
_ROUTE_DEBUG = ("debug",)

#: ``_Worker.busy_with`` of a worker that has not reported ``ready`` yet
_LOADING = "loading"

#: drift-summary serials of a worker's engines, in creation order
_ENGINE_SERIALS = itertools.count()


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


def _execute_tune_map(service, requests: List[Dict[str, Any]],
                      drift_sent: "weakref.WeakKeyDictionary"
                      ) -> Tuple[List[Dict[str, Any]], Dict[str, Any]]:
    """Answer a batch of tune/map requests on this thread.

    Requests are grouped by the warm engine that serves them and each group
    is answered by one synchronous :meth:`InferenceEngine.predict_batch`
    call — the daemon's batch is the engine's batch, with no second queue
    or wait window behind it.  A request that cannot be resolved or
    prepared fails alone (``bad_request``); a failing ``predict`` fails its
    group (``internal``).  Returns the results plus cumulative per-engine
    drift summaries (keyed ``model@version``) for the daemon's aggregator:
    only those whose monitor scored a request since this worker last sent
    one, as ``drift_sent`` (engine -> (serial, count sent)) records.  The
    aggregator keeps each worker's latest summary, so a batch of memo hits,
    which scores nothing, has nothing to send.  Each summary carries its
    engine's ``serial``, unique in this process: an engine retired and
    warmed again counts from 0 under a new serial, which tells the
    aggregator to keep the old engine's totals.
    """
    from repro.serve.service import (
        map_response_fields,
        require_mapper,
        require_tuner,
        resolve_kernel,
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
            spec = resolve_kernel(request["kernel"])
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
        monitor = engine.drift_monitor
        serial, count = drift_sent.get(engine, (None, None))
        if monitor is None or count == monitor.count:
            continue
        if serial is None:
            serial = next(_ENGINE_SERIALS)
        drift[label] = dict(monitor.summary(), serial=serial)
        drift_sent[engine] = (serial, drift[label]["count"])
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


def _run_control(service, control_id: int, command: Dict[str, Any],
                 send: Callable[[tuple], None]) -> None:
    """Execute one warm/retire control command and ack it."""
    try:
        if command["cmd"] == "warm":
            version = service.warm(command["model"],
                                   command.get("version"))
            ok, detail = True, f"warmed {command['model']}@{version}"
        elif command["cmd"] == "retire":
            closed = service.retire(command["model"], command["version"])
            ok, detail = True, ("retired" if closed else "not loaded")
        else:
            raise ValueError(f"unknown control cmd {command.get('cmd')!r}")
    except Exception as exc:
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    send(("control_done", control_id, ok, detail))


def _exit_when_orphaned(parent: int) -> None:
    """Exit this worker once the daemon that started it is gone.

    A SIGKILLed daemon sends no ``stop``, and under fork later workers hold
    copies of earlier workers' daemon-side pipe ends, so ``conn.recv()``
    may never see EOF.  A watchdog thread, not a ``recv`` timeout, keeps
    the check off the per-batch path.
    """
    while os.getppid() == parent:
        time.sleep(1.0)
    os._exit(0)


def _worker_main(worker_id: int, registry_root: Optional[str],
                 engine_opts: Dict[str, Any], preload: List[str],
                 debug_ops: bool, conn) -> None:
    """One worker: a warm per-model engine cache behind one duplex pipe."""
    from repro.serve.registry import ModelRegistry
    from repro.serve.service import TuningService

    send_lock = threading.Lock()

    def send(message: tuple) -> None:
        # the warm thread answers too: one whole message at a time
        with send_lock:
            conn.send(message)

    # chaos only: an REPRO_FAULTS plan with kill_after SIGKILLs this worker
    # after that many answered tune/map requests — after the answers are
    # computed but before they are submitted, the nastiest instant
    faults.install(faults.FaultPlan.from_env(), seed_offset=worker_id)
    threading.Thread(target=_exit_when_orphaned, args=(os.getppid(),),
                     name="repro-worker-orphan-watch", daemon=True).start()
    registry = ModelRegistry(registry_root) if registry_root else None
    # repeats are answered by the loop's memo: one response memo per path
    service = TuningService(registry, memoize_results=False, **engine_opts)
    drift_sent: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
    try:
        for entry in preload:
            name, _, version = entry.partition("@")
            service.engine(name, int(version) if version else None)
    except Exception as exc:
        send(("failed", f"preload failed: {type(exc).__name__}: {exc}"))
        return
    send(("ready",))
    while True:
        try:
            message = conn.recv()
        except EOFError:
            break                     # the daemon closed its end
        if message[0] == "stop":
            break
        if message[0] == "control":
            _, control_id, command = message
            if command.get("cmd") == "warm":
                # warm-load off the batch path: live batches keep flowing
                # on this worker while the candidate engine loads
                threading.Thread(
                    target=_run_control,
                    args=(service, control_id, command, send),
                    name=f"repro-worker-warm-{control_id}",
                    daemon=True).start()
            else:
                _run_control(service, control_id, command, send)
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
                service, [request for _, request in tune_map], drift_sent)
            for (position, _), answer in zip(tune_map, answers):
                results[position] = answer
        injector = faults.active()
        if injector is not None:
            for _ in tune_map:
                injector.evaluated()
        send(("done", batch_id, results, extras))
    service.close()


# ----------------------------------------------------------------------
# daemon-side bookkeeping: requests, workers, connections
# ----------------------------------------------------------------------
#: the request fields that pick a ``tune``/``map`` answer, with the version
_MEMO_FIELDS = ("op", "model", "kernel", "scale", "target_bytes",
                "transfer_bytes", "wgsize")
_JSON_SCALARS = frozenset((str, int, float, bool, type(None)))


def _memo_fields(document: Dict[str, Any]) -> Optional[tuple]:
    """The version-less memo key of a ``tune``/``map`` request, or ``None``
    when a field is not a hashable JSON scalar (the worker then answers,
    and rejects it as usual)."""
    fields = tuple(map(document.get, _MEMO_FIELDS))
    if _JSON_SCALARS.issuperset(map(type, fields)):
        return fields
    return None


class _PendingRequest:
    __slots__ = ("request_id", "op", "payload", "reply", "reply_frame",
                 "enqueued_at", "attempts", "route", "stalled", "memo_fields")

    def __init__(self, request_id, op, payload, reply, route,
                 memo_fields=None, reply_frame=None):
        self.request_id = request_id
        self.op = op
        self.payload = payload
        #: answers with a document; a live request's ``reply_frame`` sends
        #: a frame that is already encoded
        self.reply = reply
        self.reply_frame = reply_frame
        self.enqueued_at = time.perf_counter()
        self.attempts = 0
        self.route = route
        self.stalled = False          # counted as shadow contention
        #: version-less memo key of a live tune/map request, else None
        self.memo_fields = memo_fields


class _Worker:
    """Daemon-side handle of one worker process and its duplex pipe."""

    def __init__(self, worker_id: int, process, conn):
        self.worker_id = worker_id
        self.process = process
        self.conn = conn
        #: the batch id in flight, ``_LOADING`` before ``ready``, or None
        self.busy_with: Any = None

    def alive(self) -> bool:
        return self.process.is_alive()

    def reap(self) -> None:
        """Join (terminating a straggler) and close the process and pipe."""
        self.process.join(timeout=10.0)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5.0)
        self.conn.close()
        if not self.process.is_alive():
            self.process.close()


class ServeDaemon:
    """Socket front-end + dispatch rule + healing worker pool, driven by
    one selector loop (see module doc)."""

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
        #: registry-watch period (the loop's selector timeout); 0 disables
        #: the watch (routes then only move on explicit ``swap`` ops)
        self.watch_interval_s = float(watch_interval_s)
        self._mp = (multiprocessing.get_context(mp_start_method)
                    if mp_start_method else multiprocessing)

        #: guards the queues, the pool, the control waiters and the stats;
        #: the loop is the only writer except for admin helpers' broadcasts
        self._lock = threading.Lock()
        self._routes: "collections.OrderedDict[tuple, collections.deque]" = \
            collections.OrderedDict()
        self._queued = 0
        self._inflight: Dict[int, List[_PendingRequest]] = {}
        self._pool: Dict[int, _Worker] = {}
        self._next_batch_id = 0
        self._next_worker_id = 0
        self._listener: Optional[socket.socket] = None
        self._selector: Optional[selectors.BaseSelector] = None
        self._front: Optional[FrontEnd] = None
        self._loop_thread: Optional[threading.Thread] = None
        self._helpers: List[threading.Thread] = []
        self._running = False
        self._draining = False
        #: once draining, the loop stops here even with work outstanding
        self._stop_at = math.inf
        #: ``(client, response)`` the helpers answered, for the loop to send
        self._replies: "collections.deque[tuple]" = collections.deque()
        #: ``(client, response)`` acks of ``shutdown`` ops, sent at the stop
        self._acks: List[tuple] = []
        self._started_at = 0.0

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
        self._control_waiters: Dict[int, Dict[str, Any]] = {}
        self._next_control_id = 0
        self._drift = DriftAggregator()

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
        #: encoded answers (``encode_body``) of live tune/map requests,
        #: keyed ``(memo_fields, version)``; only touched under ``_lock``
        self._memo: "collections.OrderedDict[tuple, bytes]" = \
            collections.OrderedDict()
        self._memo_capacity = int(cache_size)
        self._memo_hits = 0

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
        """Bind the socket, spawn + warm the workers, start the loop."""
        if self._running:
            raise RuntimeError("daemon already started")
        # bind before spawning: a refused bind must not leak worker processes
        self._listener, self.address = create_listener(self.address)
        self._selector = selectors.DefaultSelector()
        try:
            with self._lock:
                for _ in range(self.workers):
                    self._spawn_worker_locked()
            self._await_workers(ready_timeout)
        except BaseException:
            for worker in self._pool.values():
                worker.process.terminate()
            self._release()
            raise
        self._front = FrontEnd(self._selector, self._listener,
                               self._handle_request)
        self._running, self._draining, self._stop_at = True, False, math.inf
        self._started_at = time.perf_counter()
        self._loop_thread = threading.Thread(target=self._loop,
                                             name="repro-daemon-loop",
                                             daemon=True)
        self._loop_thread.start()
        return self

    def _spawn_worker_locked(self) -> _Worker:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        conn, child_conn = self._mp.Pipe()
        # healed workers come up warm on every version the lifecycle has
        # swapped in, not just the configured preload — a route must heal
        # onto the version it currently serves
        preload = sorted(set(self.preload) | self._warm_set)
        process = self._mp.Process(
            target=_worker_main,
            args=(worker_id, self.registry_root, self.engine_opts,
                  preload, self.debug_ops, child_conn),
            name=f"repro-serve-worker-{worker_id}", daemon=True)
        process.start()
        # the worker's death is EOF on ``conn`` only once no copy of its
        # end survives here
        child_conn.close()
        worker = _Worker(worker_id, process, conn)
        worker.busy_with = _LOADING
        self._pool[worker_id] = worker
        self._selector.register(conn, selectors.EVENT_READ,
                                (self._read_worker, worker))
        return worker

    def _await_workers(self, timeout: float) -> None:
        """Wait for every worker's ``ready``; fail fast if one dies first."""
        deadline = time.monotonic() + timeout
        loading = {worker.conn: worker for worker in self._pool.values()}
        while loading:
            ready = multiprocessing.connection.wait(
                list(loading), max(0.0, deadline - time.monotonic()))
            if not ready:
                raise RuntimeError("workers did not come up in time")
            for conn in ready:
                worker = loading.pop(conn)
                try:
                    message = conn.recv()
                except EOFError:
                    worker.process.join(timeout=5.0)
                    raise RuntimeError(
                        f"worker {worker.worker_id} exited with code "
                        f"{worker.process.exitcode} before it was ready"
                    ) from None
                if message[0] == "failed":
                    raise RuntimeError(f"worker {worker.worker_id} failed "
                                       f"to start: {message[1]}")
                worker.busy_with = None

    def _release(self) -> None:
        """Reap the workers; close the listener, socket file and selector."""
        for worker in self._pool.values():
            worker.reap()
        with self._lock:
            self._pool.clear()
        close_listener(self._listener, self.address)
        self._selector.close()

    def _start_helper(self, name: str, target: Callable[[], None]) -> None:
        """A short-lived thread for work that waits on loop events (only
        the loop starts one, and joins them all as it stops)."""
        self._helpers = [t for t in self._helpers if t.is_alive()]
        self._helpers.append(threading.Thread(
            target=target, name=f"repro-daemon-{name}", daemon=True))
        self._helpers[-1].start()

    # ------------------------------------------------------------------
    # worker control channel: warm/retire broadcasts for hot-swap
    # ------------------------------------------------------------------
    def _broadcast_control(self, command: Dict[str, Any],
                           timeout: float = 120.0) -> Dict[int, tuple]:
        """Send one control command to every worker; gather the acks.

        Returns ``{worker_id: (ok, detail)}``.  Completes on loop events
        only: each worker's ack, or the EOF of a worker that died, which
        counts as a failure (its replacement comes up warm via preload).
        """
        event = threading.Event()
        with self._lock:
            if not self._running:
                raise RuntimeError("daemon is not running")
            control_id = self._next_control_id
            self._next_control_id += 1
            waiter = {"pending": set(self._pool), "results": {},
                      "event": event}
            self._control_waiters[control_id] = waiter
            for worker in self._pool.values():
                self._send_locked(worker, ("control", control_id, command))
        try:
            if not event.wait(timeout) or waiter["pending"]:
                raise RuntimeError(
                    f"control op {command.get('cmd')!r} got no ack from "
                    f"workers {sorted(waiter['pending'])}")
        finally:
            with self._lock:
                self._control_waiters.pop(control_id, None)
        return dict(waiter["results"])

    def _settle_control_locked(self, worker_id: int, control_id: int,
                               ok: bool, detail: str) -> None:
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

    def _watch_tick(self) -> None:
        """Hand a registry generation move to a helper that hot-swaps
        (the lifecycle serialises swaps that overlap)."""
        try:
            moved = self._lifecycle.generation_moved()
        except Exception:
            return            # registry hiccup: keep serving what we have
        if moved:
            self._start_helper("watch", self._swap_stale)

    def _swap_stale(self) -> None:
        try:
            self._lifecycle.swap_stale()
        except Exception:
            pass              # registry hiccup: keep serving what we have

    def shutdown(self, drain: bool = True, timeout: float = 120.0) -> None:
        """Stop the daemon; with ``drain`` outstanding work completes first.

        New work is refused at once.  The loop leaves once it has drained,
        or ``timeout`` seconds from now (at once without ``drain``; the
        earliest stop asked for wins), and tears the daemon down as it
        exits (:meth:`_close`).  Returns once the loop and every helper
        have exited and every worker, pipe and socket is closed; a call
        racing a stop in progress waits for it.  Called on the loop (the
        ``shutdown`` op), it only marks the stop.
        """
        with self._lock:
            self._draining = True
            self._stop_at = min(self._stop_at, time.monotonic()
                                + (timeout if drain else 0.0))
        loop = self._loop_thread
        if loop is not None:
            self._front.wake()
            if loop is not threading.current_thread():
                loop.join()

    def __enter__(self) -> "ServeDaemon":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # the loop: sockets and worker pipes in, admissions and batches out
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        watch = self._lifecycle is not None and self.watch_interval_s > 0
        next_watch = time.monotonic() + self.watch_interval_s
        try:
            while (now := time.monotonic()) < self._stop_at:
                watching = watch and not self._draining
                wake_at = min(self._stop_at,
                              next_watch if watching else math.inf)
                for key, _ in self._selector.select(
                        None if wake_at == math.inf else wake_at - now):
                    handler, source = key.data
                    handler(source)
                    if self._dispatch():
                        return                # drained
                while self._replies:
                    client, response = self._replies.popleft()
                    client.reply(response)
                if watching and time.monotonic() >= next_watch:
                    next_watch = time.monotonic() + self.watch_interval_s
                    self._watch_tick()
        finally:
            self._close()

    def _close(self) -> None:
        """Tear the daemon down on the loop thread, as it exits."""
        with self._lock:
            self._running = False
            for worker in self._pool.values():
                self._send_locked(worker, ("stop",))
        self._release()
        # fail anything still queued (drain=False or drain timeout) and
        # every control op still waiting on a worker
        with self._lock:
            leftovers = [request for queue in (self._routes,
                                               self._shadow_routes,
                                               self._inflight)
                         for pending in queue.values()
                         for request in pending]
            self._routes.clear()
            self._shadow_routes.clear()
            self._inflight.clear()
            self._queued = 0
            self._shadow_queued = 0
            for waiter in self._control_waiters.values():
                waiter["event"].set()      # unacked: the broadcast fails
        for request in leftovers:
            request.reply(error_response(request.request_id,
                                         ERR_SHUTTING_DOWN,
                                         "daemon stopped before this "
                                         "request completed"))
        for thread in self._helpers:
            thread.join()
        for client, response in [*self._replies, *self._acks]:
            client.reply(response)
        self._replies.clear()
        self._acks.clear()
        # hang up on clients: they observe the stop, not a zombie
        self._front.close()

    def _dispatch(self) -> bool:
        """Hand batches to idle workers; True once a drain has finished."""
        with self._lock:
            if not self._routes and not self._shadow_routes:
                # nothing waits: no batch to form, so no worker to check
                return self._draining and not self._inflight
            while (assignment := self._form_batch_locked()) is not None:
                worker, batch_id, _, payloads = assignment
                self._send_locked(worker, ("batch", batch_id, payloads))
            return self._draining and not self._queued and not self._inflight

    @staticmethod
    def _send_locked(worker: _Worker, message: tuple) -> None:
        try:
            worker.conn.send(message)
        except (OSError, ValueError):
            pass          # a dead worker: EOF on its pipe retries the batch

    def _read_worker(self, worker: _Worker) -> None:
        """Take one worker message; EOF means the worker died."""
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):
            self._worker_lost(worker)
            return
        if message[0] == "done":
            self._complete(worker, *message[1:])
            return
        with self._lock:
            if message[0] == "ready":
                worker.busy_with = None
            elif message[0] == "control_done":
                self._settle_control_locked(worker.worker_id, *message[1:])
        # "failed" (a healed worker's preload): its EOF follows

    def _handle_request(self, document: Dict[str, Any],
                        client: ClientConnection) -> None:
        reply = client.reply
        with self._lock:
            self._received += 1
        try:
            request_id, op = validate_request(document)
        except ProtocolError as exc:
            reply(error_response(document.get("id"), ERR_BAD_REQUEST,
                                 str(exc)))
            with self._lock:
                self._errors += 1
            return
        if op == "ping":
            reply(ok_response(request_id, {"pong": True}))
            return
        if op == "stats":
            reply(ok_response(request_id, self.stats()))
            return
        if op == "shutdown":
            # the loop serves the outstanding work, then acks as it stops
            self._acks.append((client, ok_response(request_id,
                                                   {"stopped": True})))
            self.shutdown(drain=bool(document.get("drain", True)))
            return
        if op in ADMIN_OPS:
            # swap/shadow wait on worker acks, which only the loop reads;
            # the helper hands its done/failed answer to the loop to send
            def admin() -> None:
                self._replies.append((client, self._handle_admin(
                    request_id, op, document)))
                self._front.wake()

            self._start_helper(op, admin)
            return
        fields = (_memo_fields(document) if op in ("tune", "map")
                  and self._lifecycle is not None else None)
        request = _PendingRequest(request_id, op, document, reply,
                                  self._route_of(document, op), fields,
                                  client.reply_frame)
        if fields is not None and self._answer_from_memo(request):
            return
        self._admit(request)

    def _answer_from_memo(self, request: _PendingRequest) -> bool:
        """Answer a repeat from the loop's memo; False on a miss."""
        version = request.route[2]
        if version is None:
            try:
                version = self._lifecycle.resolve(request.route[1])
            except OSError:
                return False          # a registry hiccup: a worker answers
            if version is None:
                return False
        key = (request.memo_fields, version)
        with self._lock:
            body = self._memo.get(key)
            if body is None or self._draining or not self._running:
                return False
            self._memo.move_to_end(key)
            batch_id = self._next_batch_id
            self._next_batch_id += 1
            latency_ms = 1e3 * (time.perf_counter() - request.enqueued_at)
            self._memo_hits += 1
            self._completed += 1
            self._latencies.append(latency_ms)
            model = request.route[1]
            self._per_model[model] = self._per_model.get(model, 0) + 1
        request.reply_frame(ok_frame(request.request_id, body, latency_ms,
                                     None, batch_id))
        self._maybe_tee_shadow(request, version, body)
        return True

    def _handle_admin(self, request_id, op: str,
                      document: Dict[str, Any]) -> Dict[str, Any]:
        """The answer to a ``swap``/``shadow`` op (run on a helper)."""
        if self._lifecycle is None:
            with self._lock:
                self._errors += 1
            return error_response(request_id, ERR_NO_REGISTRY,
                                  "daemon was started without --root; "
                                  "online operations need a model "
                                  "registry")
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
        except (SwapError, KeyError, TypeError, ValueError,
                RuntimeError) as exc:
            with self._lock:
                self._errors += 1
            return error_response(request_id, ERR_BAD_REQUEST,
                                  f"{type(exc).__name__}: {exc}")
        return ok_response(request_id, result)

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
                self._routes.setdefault(
                    request.route, collections.deque()).append(request)
                self._queued += 1
                return
            depth = self._queued
            self._shed += 1
        request.reply(error_response(request.request_id, shed_code,
                                     message, queue_depth=depth))

    # ------------------------------------------------------------------
    # dispatch rule: work-conserving batch formation (clock-free)
    # ------------------------------------------------------------------
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
                return [dict(request.payload, version=active)
                        for request in batch]
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
    # worker messages: results back to the connections, pool healing
    # ------------------------------------------------------------------
    def _complete(self, worker: _Worker, batch_id: int,
                  results: List[Dict[str, Any]],
                  extras: Dict[str, Any]) -> None:
        """A finished batch: account for it, then answer its requests."""
        for label, snapshot in (extras.get("drift") or {}).items():
            self._drift.update(worker.worker_id, label, snapshot)
        now = time.perf_counter()
        # only this loop thread changes the shadow batch ids; a live answer
        # is encoded once, here, for its reply and the memo
        shadow = batch_id in self._shadow_batch_ids
        bodies = [None if shadow or not outcome.get("ok")
                  else encode_body(outcome["result"]) for outcome in results]
        with self._lock:
            batch = self._inflight.pop(batch_id)
            self._shadow_batch_ids.discard(batch_id)
            worker.busy_with = None
            # shadow answers only feed the diff report (their reply
            # closures); live ones are accounted BEFORE replying, so a client
            # reading /stats right after its response sees itself counted
            if shadow:
                self._shadow_batch_count += 1
            else:
                self._batch_histogram[len(batch)] = \
                    self._batch_histogram.get(len(batch), 0) + 1
                for request, outcome, body in zip(batch, results, bodies):
                    self._completed += 1
                    self._errors += int(not outcome.get("ok"))
                    self._latencies.append(1e3 * (now - request.enqueued_at))
                    if outcome.get("ok"):
                        # answered requests only: failed ones may name any
                        # model, and the key set must stay bounded
                        model = request.payload.get("model", request.op)
                        self._per_model[model] = \
                            self._per_model.get(model, 0) + 1
                        if request.memo_fields is not None:
                            self._remember_locked(
                                request.memo_fields,
                                outcome["result"]["version"], body)
        for request, outcome, body in zip(batch, results, bodies):
            if not outcome.get("ok"):
                error = outcome.get("error") or {"code": ERR_INTERNAL,
                                                 "message": "worker returned "
                                                            "no result"}
                request.reply(error_response(request.request_id,
                                             error.get("code", ERR_INTERNAL),
                                             error.get("message", "")))
                continue
            if shadow:
                # a shadow answer feeds the diff report as a document
                request.reply(ok_response(request.request_id,
                                          outcome["result"]))
                continue
            request.reply_frame(ok_frame(
                request.request_id, body, 1e3 * (now - request.enqueued_at),
                worker.worker_id, batch_id))
            self._maybe_tee_shadow(request, outcome["result"].get("version"),
                                   body)

    def _remember_locked(self, fields: tuple, version, body: bytes) -> None:
        """Memoize an encoded live answer under the version that gave it."""
        self._memo[(fields, version)] = body
        if len(self._memo) > self._memo_capacity:
            self._memo.popitem(last=False)

    def _worker_lost(self, worker: _Worker) -> None:
        """EOF on a worker's pipe: retry or fail its batch, heal the pool."""
        self._selector.unregister(worker.conn)
        worker.reap()
        failed: List[_PendingRequest] = []
        with self._lock:
            del self._pool[worker.worker_id]
            self._worker_restarts += 1
            for control_id in list(self._control_waiters):
                self._settle_control_locked(worker.worker_id, control_id,
                                            False, "worker died during "
                                                   "control op")
            shadow = worker.busy_with in self._shadow_batch_ids
            self._shadow_batch_ids.discard(worker.busy_with)
            for request in self._inflight.pop(worker.busy_with, []):
                request.attempts += 1
                if (shadow or request.op == "_crash"
                        or request.attempts >= MAX_ATTEMPTS):
                    failed.append(request)
                else:
                    # retry at the front of its route: it has already waited
                    self._routes.setdefault(
                        request.route, collections.deque()).appendleft(request)
                    self._queued += 1
                    self._retried += 1
            self._drift.forget_worker(worker.worker_id)
            self._spawn_worker_locked()
            if not shadow:      # shadow work is best-effort, off the books
                self._completed += len(failed)
                self._errors += len(failed)
        noun = "shadow request" if shadow else "request"
        for request in failed:
            request.reply(error_response(
                request.request_id, ERR_WORKER_CRASHED,
                f"worker process died while executing this {noun}"))

    # ------------------------------------------------------------------
    # shadow deploys: tee answered live requests to the candidate
    # ------------------------------------------------------------------
    def _maybe_tee_shadow(self, request: _PendingRequest, version,
                          body: bytes) -> None:
        """Tee an answered live request to a sampled shadow candidate;
        ``body`` is its encoded answer, decoded only for a tee."""
        if self._lifecycle is None or request.op not in ("tune", "map"):
            return
        model = request.payload.get("model")
        candidate = self._lifecycle.sample_shadow(model)
        if candidate is None or candidate == version:
            return
        result = json.loads(body)
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
            dropped = (not self._running or self._draining
                       or self._shadow_queued >= self.max_queue)
            if not dropped:
                self._shadow_routes.setdefault(
                    shadow.route, collections.deque()).append(shadow)
                self._shadow_queued += 1
        if dropped:
            lifecycle.record_shadow_dropped(model, candidate)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Queue depth, batch-size histogram, latency percentiles, workers."""
        lifecycle_stats, shadow_routes, shadow_finished = None, {}, {}
        if self._lifecycle is not None:
            lifecycle_stats = {"enabled": True,
                               "watch_interval_s": self.watch_interval_s,
                               **self._lifecycle.stats()}
            shadow_routes = self._lifecycle.shadow_stats()
            shadow_finished = self._lifecycle.finished_shadow_stats()
        with self._lock:
            histogram = dict(sorted(self._batch_histogram.items()))
            batches = sum(histogram.values())
            batched = sum(size * count for size, count in histogram.items())
            latencies = sorted(self._latencies)
            snapshot = {
                "uptime_s": time.perf_counter() - self._started_at,
                "address": self.address,
                "transport": self.scheme,
                "workers": {"configured": self.workers,
                            "alive": sum(worker.alive()
                                         for worker in self._pool.values()),
                            "restarts": self._worker_restarts},
                "queue": {"depth": self._queued, "max_queue": self.max_queue,
                          "per_route": {route_label(route): len(pending)
                                        for route, pending
                                        in self._routes.items()},
                          "inflight_requests": sum(
                              map(len, self._inflight.values())),
                          "inflight_batches": len(self._inflight)},
                "requests": {"received": self._received,
                             "completed": self._completed,
                             "errors": self._errors,
                             "shed": self._shed,
                             "retried": self._retried,
                             "memo_hits": self._memo_hits},
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
                "memo": {"entries": len(self._memo),
                         "capacity": self._memo_capacity},
                "max_batch": self.max_batch,
                "lifecycle": lifecycle_stats,
                "shadow": {
                    "routes": shadow_routes,
                    "finished": shadow_finished,
                    "queue_depth": self._shadow_queued,
                    "batches": self._shadow_batch_count,
                    "contention": self._shadow_contention,
                },
                "drift": {"routes": self._drift.stats()},
            }
        return snapshot
