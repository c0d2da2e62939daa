"""Consistent-hash request router over health-checked replica groups.

:class:`ServeRouter` is the fleet-level front door of the serving stack.
Replica daemons (:class:`~repro.serve.daemon.ServeDaemon`, AF_UNIX or TCP)
are organised into **groups** — the replicas of one group serve the same
shard and load-balance round-robin; *which* group owns a request is decided
by consistent hashing of its ``(model, version)`` route key over a ring of
virtual nodes (:class:`HashRing`).  Adding or losing a group remaps only the
routes that hashed onto it; every other shard keeps its warm replicas.

Health is both active and passive:

* a **probe thread** sends each replica a ``stats`` request every
  ``probe_interval`` seconds; ``fail_after`` consecutive probe failures
  eject the replica from rotation, one successful probe re-admits it.  The
  probe's response (queue depth, shed count, latency percentiles — the
  daemon's extended ``stats`` op) is kept as the replica's last-known
  saturation snapshot and surfaced through the router's own ``stats``;
* a **forwarding failure** (connection refused/reset, timeout) marks the
  replica unhealthy immediately and the request retries once on another
  replica of the same group; re-admission still requires a probe success.

Admission control extends the daemon's bounded-queue load shedding to the
fleet: the router caps in-flight requests globally (``max_inflight``) and
per route (``max_inflight_per_route``) and answers excess load with the
same structured ``overloaded`` error the daemon uses — queues stay bounded
at every level, clients back off at either.

The router speaks the unmodified JSON-line protocol on both sides, so any
daemon client works against a router unchanged, and responses it relays are
byte-identical to what the chosen replica produced (only the caller's
request ``id`` is restored).
"""

from __future__ import annotations

import bisect
import collections
import hashlib
import os
import socket
import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.serve.daemon import route_label
from repro.serve.protocol import (
    ADMIN_OPS,
    ERR_BAD_REQUEST,
    ERR_NO_REPLICA,
    ERR_OVERLOADED,
    ERR_SHUTTING_DOWN,
    INLINE_OPS,
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

DEFAULT_VNODES = 64


def stable_hash(key: str) -> int:
    """A 64-bit hash that is identical across processes and PYTHONHASHSEED."""
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """Consistent hashing: keys to group names via a virtual-node ring."""

    def __init__(self, groups: Iterable[str], vnodes: int = DEFAULT_VNODES):
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = int(vnodes)
        self.groups = sorted(set(groups))
        points: List[Tuple[int, str]] = []
        for group in self.groups:
            points.extend((stable_hash(f"{group}#{vnode}"), group)
                          for vnode in range(self.vnodes))
        points.sort()
        self._points = points
        self._hashes = [point for point, _ in points]

    def lookup(self, key: str) -> Optional[str]:
        """The group owning ``key`` (``None`` on an empty ring)."""
        if not self._points:
            return None
        index = bisect.bisect_right(self._hashes, stable_hash(key))
        return self._points[index % len(self._points)][1]


# ----------------------------------------------------------------------
# multiplexed backend connection
# ----------------------------------------------------------------------
class _Waiter:
    __slots__ = ("event", "response", "error")

    def __init__(self):
        self.event = threading.Event()
        self.response: Optional[Dict[str, Any]] = None
        self.error: Optional[BaseException] = None


class _MuxChannel:
    """One persistent connection multiplexing concurrent requests by id.

    Many router threads ``submit()`` concurrently; a single reader thread
    matches the (possibly out-of-order) responses back to their waiters.
    A broken connection fails every outstanding waiter and is re-dialled
    lazily on the next submit.
    """

    def __init__(self, address: str, connect_timeout: float = 5.0):
        self.address = address
        self.connect_timeout = connect_timeout
        self._lock = threading.Lock()
        self._channel: Optional[LineChannel] = None
        self._reader: Optional[threading.Thread] = None
        self._pending: Dict[str, _Waiter] = {}
        self._next_id = 0

    def submit(self, document: Dict[str, Any],
               timeout: Optional[float]) -> Dict[str, Any]:
        """Send one request and block for its response."""
        waiter = _Waiter()
        with self._lock:
            if self._channel is None:
                channel = LineChannel(
                    connect_address(self.address,
                                    timeout=self.connect_timeout))
                self._channel = channel
                self._reader = threading.Thread(
                    target=self._read_loop, args=(channel,),
                    name=f"repro-router-read[{self.address}]", daemon=True)
                self._reader.start()
            request_id = f"x{self._next_id}"
            self._next_id += 1
            self._pending[request_id] = waiter
            wire = dict(document)
            wire["id"] = request_id
            try:
                self._channel.send(wire)
            except OSError:
                self._teardown_locked(ConnectionError(
                    f"lost connection to {self.address}"))
                raise
        if not waiter.event.wait(timeout):
            with self._lock:
                self._pending.pop(request_id, None)
            raise TimeoutError(f"no response from {self.address} within "
                               f"{timeout}s")
        if waiter.error is not None:
            raise waiter.error
        return waiter.response

    def _read_loop(self, channel: LineChannel) -> None:
        while True:
            try:
                response = channel.recv()
            except (OSError, ProtocolError):
                response = None
            with self._lock:
                if self._channel is not channel:
                    return               # superseded by a reconnect
                if response is None:
                    self._teardown_locked(ConnectionError(
                        f"{self.address} closed the connection"))
                    return
                waiter = self._pending.pop(response.get("id"), None)
            if waiter is not None:
                waiter.response = response
                waiter.event.set()

    def _teardown_locked(self, error: BaseException) -> None:
        if self._channel is not None:
            # shut down before closing: close() alone does not wake a
            # reader blocked in recv()
            try:
                self._channel.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._channel.close()
            self._channel = None
        pending, self._pending = self._pending, {}
        for waiter in pending.values():
            waiter.error = error
            waiter.event.set()

    def close(self) -> None:
        """Tear the connection down; returns once its reader has exited."""
        with self._lock:
            reader, self._reader = self._reader, None
            self._teardown_locked(ConnectionError("channel closed"))
        if reader is not None and reader is not threading.current_thread():
            reader.join()


# ----------------------------------------------------------------------
# replicas and the router
# ----------------------------------------------------------------------
class Replica:
    """Router-side handle of one replica daemon."""

    def __init__(self, group: str, address: str, connect_timeout: float):
        self.group = group
        self.address = address
        self.channel = _MuxChannel(address, connect_timeout=connect_timeout)
        self.healthy = True              # optimistic until a probe says no
        self.consecutive_failures = 0
        self.ejections = 0
        self.forwarded = 0
        self.errors = 0
        self.last_probe: Optional[Dict[str, Any]] = None

    def describe(self) -> Dict[str, Any]:
        return {"group": self.group, "healthy": self.healthy,
                "consecutive_failures": self.consecutive_failures,
                "ejections": self.ejections, "forwarded": self.forwarded,
                "errors": self.errors, "last_probe": self.last_probe}


def parse_replica_spec(spec: Union[str, Tuple[str, str]]) -> Tuple[str, str]:
    """``(group, address)`` from ``"group=address"`` / ``"address"`` forms.

    An address without an explicit group is its own group of one (each
    replica owns a distinct shard range); repeated group names pool
    replicas into one load-balanced shard owner.
    """
    if isinstance(spec, tuple):
        group, address = spec
        return str(group), str(address)
    group, sep, address = spec.partition("=")
    if sep and group and not group.startswith(("tcp:", "unix:", "/", ".")):
        return group, address
    return spec, spec


class ServeRouter:
    """Fleet front door: shard routing + health + admission (module doc)."""

    def __init__(self, address: str,
                 replicas: Sequence[Union[str, Tuple[str, str]]],
                 probe_interval: float = 0.5, fail_after: int = 3,
                 probe_timeout: float = 5.0, connect_timeout: float = 5.0,
                 request_timeout: float = 600.0, max_inflight: int = 256,
                 max_inflight_per_route: Optional[int] = None,
                 vnodes: int = DEFAULT_VNODES, forward_threads: int = 32):
        if not replicas:
            raise ValueError("a router needs at least one replica")
        if fail_after < 1:
            raise ValueError("fail_after must be >= 1")
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.scheme, self._location = parse_address(address)
        self.address = format_address(self.scheme, self._location)
        self.probe_interval = float(probe_interval)
        self.fail_after = int(fail_after)
        self.probe_timeout = float(probe_timeout)
        self.request_timeout = float(request_timeout)
        self.max_inflight = int(max_inflight)
        self.max_inflight_per_route = (int(max_inflight_per_route)
                                       if max_inflight_per_route is not None
                                       else max(1, self.max_inflight // 2))
        self.vnodes = int(vnodes)
        self.forward_threads = int(forward_threads)

        self._replicas: List[Replica] = []
        seen = set()
        for spec in replicas:
            group, replica_address = parse_replica_spec(spec)
            if replica_address in seen:
                raise ValueError(f"duplicate replica {replica_address!r}")
            seen.add(replica_address)
            self._replicas.append(Replica(group, replica_address,
                                          connect_timeout))
        self._groups: "collections.OrderedDict[str, List[Replica]]" = \
            collections.OrderedDict()
        for replica in self._replicas:
            self._groups.setdefault(replica.group, []).append(replica)

        self._lock = threading.Lock()
        self._ring = HashRing(self._groups, vnodes=self.vnodes)
        self._rr: Dict[str, int] = {group: 0 for group in self._groups}
        self._inflight_total = 0
        self._inflight_route: Dict[str, int] = {}
        self._listener = None
        self._conns: set = set()
        self._conns_lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        self._stop_event = threading.Event()
        #: set whenever the router is not running; a shutdown() racing the
        #: one in progress waits on it
        self._stopped = threading.Event()
        self._stopped.set()
        self._executor = None
        self._running = False
        self._started_at = 0.0

        self._stats_lock = threading.Lock()
        self._received = 0
        self._forwarded = 0
        self._completed = 0
        self._errors = 0
        self._shed = 0
        self._no_replica = 0
        self._retried = 0
        self._per_route: Dict[str, Dict[str, int]] = {}
        self._latencies: "collections.deque[float]" = \
            collections.deque(maxlen=4096)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._running

    @property
    def replicas(self) -> List[Replica]:
        return list(self._replicas)

    def start(self) -> "ServeRouter":
        from concurrent.futures import ThreadPoolExecutor

        if self._running:
            raise RuntimeError("router already started")
        self._listener, self.address = create_listener(self.address)
        self._executor = ThreadPoolExecutor(
            max_workers=self.forward_threads,
            thread_name_prefix="repro-router-fwd")
        self._running = True
        self._stop_event.clear()
        self._stopped.clear()
        self._started_at = time.perf_counter()
        for target, name in ((self._accept_loop, "accept"),
                             (self._probe_loop, "probe")):
            thread = threading.Thread(target=target,
                                      name=f"repro-router-{name}",
                                      daemon=True)
            thread.start()
            self._threads.append(thread)
        return self

    def shutdown(self) -> None:
        """Stop the router (replicas keep running; they are not owned).

        Returns once every router thread has exited; a call racing a
        shutdown in progress waits for it.
        """
        if not self._running:
            self._stopped.wait()
            return
        self._running = False
        self._stop_event.set()           # wakes the probe loop's wait
        # wake the accept thread before closing: a close() alone leaves it
        # blocked in accept(), and the in-kernel reference it holds keeps
        # the port in LISTEN after we exit (EADDRINUSE on restart)
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        if self.scheme == "unix":
            try:
                os.unlink(self._location)
            except OSError:
                pass
        self._executor.shutdown(wait=True)
        # join the loops before closing the channels, so a probe still in
        # flight cannot re-dial a replica after its channel is closed
        current = threading.current_thread()
        for thread in self._threads:
            if thread is not current:
                thread.join()
        for replica in self._replicas:
            replica.channel.close()
        # hang up on connected clients so they observe the stop instead of
        # talking to a zombie (their readers see EOF and reconnect)
        with self._conns_lock:
            open_conns = list(self._conns)
        for conn in open_conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        self._stopped.set()

    def __enter__(self) -> "ServeRouter":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # front-end
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
                    # let a restarted router rebind this port while old
                    # client connections are still draining
                    conn.setsockopt(socket.SOL_SOCKET,
                                    socket.SO_REUSEADDR, 1)
                except OSError:
                    pass
            threading.Thread(target=self._connection_loop, args=(conn,),
                             name="repro-router-conn", daemon=True).start()

    def _connection_loop(self, conn) -> None:
        channel = LineChannel(conn)
        write_lock = threading.Lock()
        with self._conns_lock:
            self._conns.add(conn)

        def reply(document: Dict[str, Any]) -> None:
            try:
                with write_lock:
                    channel.send(document)
            except OSError:
                pass

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
                self._handle_request(document, reply)
        finally:
            with self._conns_lock:
                self._conns.discard(conn)
            channel.close()

    def _handle_request(self, document: Dict[str, Any], reply) -> None:
        try:
            request_id, op = validate_request(document)
        except ProtocolError as exc:
            reply(error_response(document.get("id"), ERR_BAD_REQUEST,
                                 str(exc)))
            return
        with self._stats_lock:
            self._received += 1
        if op in INLINE_OPS:
            if op == "ping":
                reply(ok_response(request_id, {"pong": True, "router": True}))
            elif op == "stats":
                reply(ok_response(request_id, self.stats()))
            else:                        # shutdown: the router, not the fleet
                reply(ok_response(request_id, {"stopped": True,
                                               "router": True}))
                threading.Thread(target=self.shutdown,
                                 name="repro-router-shutdown",
                                 daemon=True).start()
            return
        if op in ADMIN_OPS:
            # lifecycle ops address every replica of the shard owner: all
            # serving copies of the model must flip/shadow together
            try:
                if not self._running:
                    raise RuntimeError("router is shutting down")
                self._executor.submit(self._forward_admin, request_id,
                                      document, reply)
            except RuntimeError:
                reply(error_response(request_id, ERR_SHUTTING_DOWN,
                                     "router is shutting down"))
            return
        route = self._route_key(document, op)
        if not self._admit(route):
            with self._stats_lock:
                self._shed += 1
                self._route_stats_locked(route)["shed"] += 1
            reply(error_response(
                request_id, ERR_OVERLOADED,
                f"router in-flight limit reached for route {route!r}",
                route=route, scope="router",
                max_inflight=self.max_inflight,
                max_inflight_per_route=self.max_inflight_per_route))
            return
        started = time.perf_counter()
        try:
            if not self._running:
                raise RuntimeError("router is shutting down")
            self._executor.submit(self._forward, route, request_id, document,
                                  reply, started)
        except RuntimeError:             # executor shut down under us
            self._release(route)
            reply(error_response(request_id, ERR_SHUTTING_DOWN,
                                 "router is shutting down"))

    @staticmethod
    def _route_key(document: Dict[str, Any], op: str) -> str:
        if op in ("tune", "map"):
            return route_label(("model", document["model"],
                                document.get("version")))
        if op == "session":
            return "session"
        return "debug"

    # ------------------------------------------------------------------
    # admission control (fleet-level bounded queues)
    # ------------------------------------------------------------------
    def _admit(self, route: str) -> bool:
        with self._lock:
            route_inflight = self._inflight_route.get(route, 0)
            if (self._inflight_total >= self.max_inflight
                    or route_inflight >= self.max_inflight_per_route):
                return False
            self._inflight_total += 1
            self._inflight_route[route] = route_inflight + 1
            return True

    def _release(self, route: str) -> None:
        with self._lock:
            self._inflight_total -= 1
            remaining = self._inflight_route.get(route, 1) - 1
            if remaining:
                self._inflight_route[route] = remaining
            else:
                self._inflight_route.pop(route, None)

    # ------------------------------------------------------------------
    # forwarding
    # ------------------------------------------------------------------
    def _forward(self, route: str, request_id, document: Dict[str, Any],
                 reply, started: float) -> None:
        try:
            excluded: set = set()
            for attempt in range(2):
                replica = self._pick_replica(route, excluded)
                if replica is None:
                    break
                try:
                    response = replica.channel.submit(document,
                                                      self.request_timeout)
                except (OSError, ConnectionError, TimeoutError):
                    self._mark_failed(replica)
                    excluded.add(replica.address)
                    if attempt == 0:
                        with self._stats_lock:
                            self._retried += 1
                    continue
                response = dict(response)
                response["id"] = request_id
                latency_ms = 1e3 * (time.perf_counter() - started)
                with self._stats_lock:
                    replica.forwarded += 1
                    self._forwarded += 1
                    self._completed += 1
                    self._errors += int(not response.get("ok"))
                    self._latencies.append(latency_ms)
                    self._route_stats_locked(route)["forwarded"] += 1
                reply(response)
                return
            with self._stats_lock:
                self._no_replica += 1
                self._errors += 1
            reply(error_response(
                request_id, ERR_NO_REPLICA,
                f"no healthy replica for route {route!r}", route=route))
        finally:
            self._release(route)

    def _forward_admin(self, request_id, document: Dict[str, Any],
                       reply) -> None:
        """Fan a swap/shadow op out to every healthy replica of the group
        that owns the model's latest-route, collecting per-replica results.
        """
        route = route_label(("model", document["model"], None))
        with self._lock:
            group = self._ring.lookup(route)
            members = ([replica for replica in self._groups[group]
                        if replica.healthy] if group is not None else [])
        if not members:
            with self._stats_lock:
                self._no_replica += 1
                self._errors += 1
            reply(error_response(
                request_id, ERR_NO_REPLICA,
                f"no healthy replica for route {route!r}", route=route))
            return
        results: Dict[str, Dict[str, Any]] = {}
        succeeded = 0
        for replica in members:
            try:
                response = replica.channel.submit(document,
                                                  self.request_timeout)
            except (OSError, ConnectionError, TimeoutError) as exc:
                self._mark_failed(replica)
                results[replica.address] = {
                    "ok": False,
                    "error": {"code": ERR_NO_REPLICA, "message": str(exc)}}
                continue
            entry: Dict[str, Any] = {"ok": bool(response.get("ok"))}
            if response.get("ok"):
                entry["result"] = response.get("result", {})
                succeeded += 1
            else:
                entry["error"] = response.get("error", {})
            results[replica.address] = entry
        with self._stats_lock:
            self._forwarded += len(members)
            self._completed += 1
            self._errors += int(succeeded == 0)
            self._route_stats_locked(route)["forwarded"] += 1
        if succeeded == 0:
            first_error = next(iter(results.values())).get("error", {})
            reply(error_response(
                request_id,
                first_error.get("code", ERR_NO_REPLICA),
                first_error.get("message",
                                "admin op failed on every replica"),
                group=group, replicas=results))
            return
        reply(ok_response(request_id, {"group": group,
                                       "replicas": results,
                                       "succeeded": succeeded,
                                       "attempted": len(members)}))

    def _pick_replica(self, route: str, excluded: set) -> Optional[Replica]:
        with self._lock:
            group = self._ring.lookup(route)
            if group is None:
                return None
            members = [replica for replica in self._groups[group]
                       if replica.healthy
                       and replica.address not in excluded]
            if not members:
                return None
            turn = self._rr[group]
            self._rr[group] = turn + 1
            return members[turn % len(members)]

    def _mark_failed(self, replica: Replica) -> None:
        """Passive health: a forwarding failure ejects immediately."""
        with self._lock:
            replica.errors += 1
            replica.consecutive_failures += 1
            if replica.healthy:
                replica.healthy = False
                replica.ejections += 1
                self._rebuild_ring_locked()

    # ------------------------------------------------------------------
    # active health probes
    # ------------------------------------------------------------------
    def _probe_loop(self) -> None:
        while self._running:
            for replica in self._replicas:
                if not self._running:
                    return
                self._probe_one(replica)
            if self._stop_event.wait(self.probe_interval):
                return

    def _probe_one(self, replica: Replica) -> None:
        try:
            response = replica.channel.submit({"op": "stats"},
                                              self.probe_timeout)
            if not response.get("ok"):
                raise ConnectionError("stats probe returned an error")
        except Exception:
            with self._lock:
                replica.consecutive_failures += 1
                if (replica.healthy
                        and replica.consecutive_failures >= self.fail_after):
                    replica.healthy = False
                    replica.ejections += 1
                    self._rebuild_ring_locked()
            return
        result = response.get("result", {})
        lifecycle = result.get("lifecycle") or {}
        snapshot = {
            "queue_depth": result.get("queue", {}).get("depth"),
            "queue_per_route": result.get("queue", {}).get("per_route"),
            "shed": result.get("requests", {}).get("shed"),
            "p99_ms": result.get("latency_ms", {}).get("p99"),
            "p999_ms": result.get("latency_ms", {}).get("p999"),
            "workers_alive": result.get("workers", {}).get("alive"),
            "generation": lifecycle.get("generation"),
            "swaps": lifecycle.get("swaps"),
            "drift": (result.get("drift") or {}).get("routes") or {},
        }
        with self._lock:
            replica.consecutive_failures = 0
            replica.last_probe = snapshot
            if not replica.healthy:
                replica.healthy = True           # re-admission
                self._rebuild_ring_locked()

    def _rebuild_ring_locked(self) -> None:
        healthy_groups = [group for group, members in self._groups.items()
                          if any(replica.healthy for replica in members)]
        self._ring = HashRing(healthy_groups, vnodes=self.vnodes)

    # ------------------------------------------------------------------
    def _route_stats_locked(self, route: str) -> Dict[str, int]:
        stats = self._per_route.get(route)
        if stats is None:
            stats = self._per_route[route] = {"forwarded": 0, "shed": 0}
        return stats

    def owner_of(self, route: str) -> Optional[str]:
        """The group currently owning ``route`` (for tests/debugging)."""
        with self._lock:
            return self._ring.lookup(route)

    def stats(self) -> Dict[str, Any]:
        """Fleet view: ring, per-replica health + saturation, admission."""
        with self._lock:
            replicas = {replica.address: replica.describe()
                        for replica in self._replicas}
            healthy_groups = list(self._ring.groups)
            inflight_total = self._inflight_total
            inflight_route = dict(self._inflight_route)
        with self._stats_lock:
            latencies = sorted(self._latencies)
            per_route = {route: dict(stats)
                         for route, stats in self._per_route.items()}
            snapshot = {
                "router": True,
                "address": self.address,
                "transport": self.scheme,
                "uptime_s": time.perf_counter() - self._started_at,
                "requests": {"received": self._received,
                             "forwarded": self._forwarded,
                             "completed": self._completed,
                             "errors": self._errors,
                             "shed": self._shed,
                             "no_replica": self._no_replica,
                             "retried": self._retried},
                "inflight": {"total": inflight_total,
                             "per_route": inflight_route,
                             "max_inflight": self.max_inflight,
                             "max_inflight_per_route":
                                 self.max_inflight_per_route},
                "latency_ms": {
                    "count": len(latencies),
                    "mean": (sum(latencies) / len(latencies)
                             if latencies else 0.0),
                    "p50": percentile(latencies, 0.50),
                    "p99": percentile(latencies, 0.99),
                    "p999": percentile(latencies, 0.999),
                },
                "per_route": per_route,
                "ring": {"groups": sorted(self._groups),
                         "healthy_groups": healthy_groups,
                         "vnodes": self.vnodes},
                "replicas": replicas,
                "drift": {"routes": self._fleet_drift(replicas)},
            }
        return snapshot

    @staticmethod
    def _fleet_drift(replicas: Dict[str, Dict[str, Any]]
                     ) -> Dict[str, Dict[str, Any]]:
        """Per-route drift across the fleet, from the last probe snapshots.

        Shards are disjoint so routes rarely collide across replicas; when
        two replicas of one group report the same route, the snapshot with
        the larger sample count wins (probes are eventually consistent).
        """
        routes: Dict[str, Dict[str, Any]] = {}
        for described in replicas.values():
            probe = described.get("last_probe") or {}
            for route, summary in (probe.get("drift") or {}).items():
                known = routes.get(route)
                if (known is None
                        or summary.get("count", 0) >= known.get("count", 0)):
                    routes[route] = summary
        return routes
