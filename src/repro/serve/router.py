"""Consistent-hash request router over health-checked replica groups.

:class:`ServeRouter` is the fleet-level front door of the serving stack.
Replica daemons (:class:`~repro.serve.daemon.ServeDaemon`, AF_UNIX or TCP)
are organised into **groups** — the replicas of one group serve the same
shard and load-balance round-robin; *which* group owns a request is decided
by consistent hashing of its ``(model, version)`` route key over a ring of
virtual nodes (:class:`HashRing`).  Adding or losing a group remaps only the
routes that hashed onto it; every other shard keeps its warm replicas.

One thread, ``repro-router-loop``, runs a :mod:`selectors` loop over the
listener, the client sockets, one connection per replica and a wake-up
socketpair.  A request goes to its replica under a router-local id; the
reply, matched by that id, gets the caller's ``id`` back and is relayed.
Probes and the request, probe and connect timeouts share one deadline heap,
which sets the selector timeout; replicas are dialled without blocking.

Health is both active and passive:

* every ``probe_interval`` seconds the loop sends each replica a ``stats``
  **probe**; ``fail_after`` consecutive probe failures eject the replica
  from rotation, one successful probe re-admits it.  The probe's response
  (queue depth, shed count, latency percentiles — the daemon's extended
  ``stats`` op) is kept as the replica's last-known saturation snapshot
  and surfaced through the router's own ``stats``;
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
import dataclasses
import functools
import hashlib
import heapq
import itertools
import os
import selectors
import socket
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, \
    Tuple, Union

from repro.serve.daemon import route_label
from repro.serve.protocol import (
    ADMIN_OPS,
    ERR_BAD_REQUEST,
    ERR_NO_REPLICA,
    ERR_OVERLOADED,
    ERR_SHUTTING_DOWN,
    ClientConnection,
    FrontEnd,
    LineChannel,
    ProtocolError,
    close_listener,
    create_listener,
    error_response,
    format_address,
    ok_response,
    parse_address,
    percentile,
    start_connect,
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
# replicas, and the requests the loop owes a client an answer for
# ----------------------------------------------------------------------
class Replica:
    """Router-side handle of one replica daemon and its connection."""

    def __init__(self, group: str, address: str):
        self.group = group
        self.address = address
        #: the connection, dialled lazily; None while there is none
        self.channel: Optional[LineChannel] = None
        self.connected = False
        self.probing = False
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


@dataclasses.dataclass(eq=False)
class _Request:
    """A client request the loop owes an answer: a forward (at most two
    tries) or an admin op's fan-out (one call per group member)."""
    client: ClientConnection
    request_id: Any
    route: str
    started: float = dataclasses.field(default_factory=time.perf_counter)
    #: a forward's failed replicas (a second failure ends its tries)
    excluded: set = dataclasses.field(default_factory=set)
    #: a fan-out's answers by member address (None: still waiting)
    results: Dict[str, Any] = dataclasses.field(default_factory=dict)


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
    """Fleet front door: shard routing + health + admission, driven by one
    selector loop (module doc)."""

    def __init__(self, address: str,
                 replicas: Sequence[Union[str, Tuple[str, str]]],
                 probe_interval: float = 0.5, fail_after: int = 3,
                 probe_timeout: float = 5.0, connect_timeout: float = 5.0,
                 request_timeout: float = 600.0, max_inflight: int = 256,
                 max_inflight_per_route: Optional[int] = None,
                 vnodes: int = DEFAULT_VNODES):
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
        self.connect_timeout = float(connect_timeout)
        self.request_timeout = float(request_timeout)
        self.max_inflight = int(max_inflight)
        self.max_inflight_per_route = (int(max_inflight_per_route)
                                       if max_inflight_per_route is not None
                                       else max(1, self.max_inflight // 2))
        self.vnodes = int(vnodes)

        self._replicas: List[Replica] = []
        seen = set()
        for spec in replicas:
            group, replica_address = parse_replica_spec(spec)
            if replica_address in seen:
                raise ValueError(f"duplicate replica {replica_address!r}")
            seen.add(replica_address)
            self._replicas.append(Replica(group, replica_address))
        self._groups: "collections.OrderedDict[str, List[Replica]]" = \
            collections.OrderedDict()
        for replica in self._replicas:
            self._groups.setdefault(replica.group, []).append(replica)

        #: guards health, ring, admission and counters, which stats() and
        #: owner_of() read from other threads; only the loop writes them
        self._lock = threading.Lock()
        self._ring = HashRing(self._groups, vnodes=self.vnodes)
        self._rr: Dict[str, int] = {group: 0 for group in self._groups}
        self._inflight_total = 0
        self._inflight_route: Dict[str, int] = {}
        self._listener: Optional[socket.socket] = None
        self._selector: Optional[selectors.BaseSelector] = None
        self._front: Optional[FrontEnd] = None
        self._loop_thread: Optional[threading.Thread] = None
        self._draining = False
        self._started_at = 0.0

        # loop-only state: the calls awaiting a replica's reply, as
        # {router-local id: (replica, frame, done)}, the deadline heap, and
        # the number of client requests still unanswered
        self._pending: Dict[int, tuple] = {}
        self._call_ids = itertools.count()
        self._timers: List[tuple] = []
        self._timer_seq = itertools.count()
        self._compact_at = 64
        self._outstanding = 0

        self._requests = dict.fromkeys(
            ("received", "forwarded", "completed", "errors", "shed",
             "no_replica", "retried"), 0)
        self._per_route: Dict[str, Dict[str, int]] = {}
        self._latencies: "collections.deque[float]" = \
            collections.deque(maxlen=4096)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        loop = self._loop_thread
        return loop is not None and loop.is_alive() and not self._draining

    @property
    def replicas(self) -> List[Replica]:
        return list(self._replicas)

    def start(self) -> "ServeRouter":
        if self._loop_thread is not None and self._loop_thread.is_alive():
            raise RuntimeError("router already started")
        self._listener, self.address = create_listener(self.address)
        self._selector = selectors.DefaultSelector()
        self._front = FrontEnd(self._selector, self._listener,
                               self._handle_request)
        self._draining = False
        self._started_at = time.perf_counter()
        self._after(0.0, self._probe_tick)
        self._loop_thread = threading.Thread(target=self._loop,
                                             name="repro-router-loop",
                                             daemon=True)
        self._loop_thread.start()
        return self

    def shutdown(self) -> None:
        """Stop the router (replicas keep running; they are not owned).

        In-flight requests finish, new ones are answered
        ``shutting_down``, then every client is hung up on.  Returns once
        the loop has exited and closed every socket it owned; a call
        racing a shutdown in progress waits for it.
        """
        loop, self._draining = self._loop_thread, True
        if loop is not None:
            self._front.wake()
            if loop is not threading.current_thread():
                loop.join()

    def __enter__(self) -> "ServeRouter":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # the loop: sockets and deadlines in, relayed answers out
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        try:
            while not (self._draining and not self._outstanding):
                for key, _ in self._selector.select(self._fire_timers()):
                    # skip a socket an earlier handler of this batch dropped
                    if self._selector.get_map().get(key.fd) is key:
                        handler, source = key.data
                        handler(source)
        finally:
            self._close()

    def _close(self) -> None:
        """Release every socket the loop owns (on the loop, as it exits)."""
        self._pending.clear()            # leftover probes: nobody waits
        self._timers.clear()
        self._outstanding = 0
        for replica in self._replicas:
            self._drop(replica, "router stopped")
            replica.probing = False
        self._front.close()
        self._selector.close()
        close_listener(self._listener, self.address)

    def _after(self, delay: float, action: Callable, *args) -> None:
        """Run ``action(*args)`` on the loop ``delay`` seconds from now."""
        heapq.heappush(self._timers, (time.monotonic() + delay,
                                      next(self._timer_seq), action, args))
        if len(self._timers) > self._compact_at:
            # a settled call leaves its timeout behind: drop those
            self._timers = [timer for timer in self._timers
                            if timer[2] != self._fail
                            or timer[3][0] in self._pending]
            heapq.heapify(self._timers)
            self._compact_at = 2 * len(self._timers) + 64

    def _fire_timers(self) -> Optional[float]:
        """Run every due timer; the wait until the next one (None: none)."""
        while self._timers:
            delay = self._timers[0][0] - time.monotonic()
            if delay > 0:
                return delay
            _, _, action, args = heapq.heappop(self._timers)
            action(*args)
        return None

    # ------------------------------------------------------------------
    # front-end
    # ------------------------------------------------------------------
    def _handle_request(self, document: Dict[str, Any],
                        client: ClientConnection) -> None:
        try:
            request_id, op = validate_request(document)
        except ProtocolError as exc:
            client.reply(error_response(document.get("id"), ERR_BAD_REQUEST,
                                        str(exc)))
            return
        with self._lock:
            self._requests["received"] += 1
        if op == "ping":
            client.reply(ok_response(request_id, {"pong": True,
                                                  "router": True}))
        elif op == "stats":
            client.reply(ok_response(request_id, self.stats()))
        elif op == "shutdown":           # the router, not the fleet
            client.reply(ok_response(request_id, {"stopped": True,
                                                  "router": True}))
            self._draining = True
        elif self._draining:
            client.reply(error_response(request_id, ERR_SHUTTING_DOWN,
                                        "router is shutting down"))
        elif op in ADMIN_OPS:
            self._fan_out(request_id, document, client)
        else:
            route = self._route_key(document, op)
            if not self._admit(route):
                with self._lock:
                    self._requests["shed"] += 1
                    self._route_stats_locked(route)["shed"] += 1
                client.reply(error_response(
                    request_id, ERR_OVERLOADED,
                    f"router in-flight limit reached for route {route!r}",
                    route=route, scope="router",
                    max_inflight=self.max_inflight,
                    max_inflight_per_route=self.max_inflight_per_route))
                return
            self._outstanding += 1
            self._forward(_Request(client, request_id, route), document)

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
    def _forward(self, request: _Request, document: Dict[str, Any]) -> None:
        """Send to a replica of the owning group; one retry on failure."""
        replica = (self._pick_replica(request.route, request.excluded)
                   if len(request.excluded) < 2 else None)
        if replica is None:
            self._release(request.route)
            self._outstanding -= 1
            self._no_replica(request.client, request.request_id,
                             request.route)
            return
        self._call(replica, document, self.request_timeout,
                   functools.partial(self._relay, request, document, replica))

    def _relay(self, request: _Request, document: Dict[str, Any],
               replica: Replica, response: Optional[Dict[str, Any]],
               error: Optional[str]) -> None:
        if response is None:
            self._mark_failed(replica)
            request.excluded.add(replica.address)
            if len(request.excluded) == 1:
                with self._lock:
                    self._requests["retried"] += 1
            self._forward(request, document)
            return
        response = dict(response)
        response["id"] = request.request_id
        latency_ms = 1e3 * (time.perf_counter() - request.started)
        with self._lock:
            replica.forwarded += 1
            self._requests["forwarded"] += 1
            self._requests["completed"] += 1
            self._requests["errors"] += int(not response.get("ok"))
            self._latencies.append(latency_ms)
            self._route_stats_locked(request.route)["forwarded"] += 1
        self._release(request.route)
        self._outstanding -= 1
        request.client.reply(response)

    def _no_replica(self, client: ClientConnection, request_id,
                    route: str) -> None:
        with self._lock:
            self._requests["no_replica"] += 1
            self._requests["errors"] += 1
        client.reply(error_response(
            request_id, ERR_NO_REPLICA,
            f"no healthy replica for route {route!r}", route=route))

    def _fan_out(self, request_id, document: Dict[str, Any],
                 client: ClientConnection) -> None:
        """Send a swap/shadow op to every healthy replica of the group that
        owns the model's latest-route; answer once each has answered or
        failed (all serving copies of the model flip/shadow together)."""
        route = route_label(("model", document["model"], None))
        with self._lock:
            group = self._ring.lookup(route)
            members = ([replica for replica in self._groups[group]
                        if replica.healthy] if group is not None else [])
        if not members:
            self._no_replica(client, request_id, route)
            return
        request = _Request(client, request_id, route, results=dict.fromkeys(
            replica.address for replica in members))
        self._outstanding += 1
        for replica in members:
            self._call(replica, document, self.request_timeout,
                       functools.partial(self._collect, request, group,
                                         replica))

    def _collect(self, request: _Request, group: str, replica: Replica,
                 response: Optional[Dict[str, Any]],
                 error: Optional[str]) -> None:
        if response is None:
            self._mark_failed(replica)
            entry = {"ok": False,
                     "error": {"code": ERR_NO_REPLICA, "message": error}}
        elif response.get("ok"):
            entry = {"ok": True, "result": response.get("result", {})}
        else:
            entry = {"ok": False, "error": response.get("error", {})}
        results = request.results
        results[replica.address] = entry
        if None in results.values():
            return
        succeeded = sum(entry["ok"] for entry in results.values())
        with self._lock:
            self._requests["forwarded"] += len(results)
            self._requests["completed"] += 1
            self._requests["errors"] += int(succeeded == 0)
            self._route_stats_locked(request.route)["forwarded"] += 1
        self._outstanding -= 1
        if succeeded == 0:
            first_error = next(iter(results.values())).get("error", {})
            request.client.reply(error_response(
                request.request_id,
                first_error.get("code", ERR_NO_REPLICA),
                first_error.get("message",
                                "admin op failed on every replica"),
                group=group, replicas=results))
            return
        request.client.reply(ok_response(request.request_id, {
            "group": group, "replicas": results,
            "succeeded": succeeded, "attempted": len(results)}))

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
    # replica connections: one call table over every replica
    # ------------------------------------------------------------------
    def _call(self, replica: Replica, document: Dict[str, Any],
              timeout: float, done: Callable) -> None:
        """Send ``document`` to ``replica`` under a router-local id.
        ``done`` runs exactly once: with the reply, or with the reason
        there is none (connect failure, EOF, socket error, timeout)."""
        call_id = next(self._call_ids)
        frame = dict(document)
        frame["id"] = call_id
        self._pending[call_id] = (replica, frame, done)
        self._after(timeout, self._fail, call_id,
                    f"no response from {replica.address} within {timeout}s")
        if replica.channel is None:
            self._dial(replica)          # written once connected
        elif replica.connected:
            self._write(replica, frame)

    def _fail(self, call_id: int, reason: str) -> None:
        call = self._pending.pop(call_id, None)
        if call is not None:
            call[2](None, reason)

    def _dial(self, replica: Replica) -> None:
        try:
            sock = start_connect(replica.address)
        except OSError as exc:
            self._drop(replica, f"cannot connect to {replica.address}: {exc}")
            return
        replica.channel = LineChannel(sock)
        self._selector.register(sock, selectors.EVENT_WRITE,
                                (self._connected, replica))
        self._after(self.connect_timeout, self._connect_expired, replica,
                    replica.channel)

    def _connected(self, replica: Replica) -> None:
        sock = replica.channel.sock
        code = sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
        if code:
            self._drop(replica, f"cannot connect to {replica.address}: "
                                f"{os.strerror(code)}")
            return
        sock.setblocking(True)           # whole-frame writes, like clients
        self._selector.modify(sock, selectors.EVENT_READ,
                              (self._read_replica, replica))
        replica.connected = True
        for owner, frame, _ in list(self._pending.values()):
            if owner is replica and not self._write(replica, frame):
                return

    def _connect_expired(self, replica: Replica,
                         channel: LineChannel) -> None:
        if replica.channel is channel and not replica.connected:
            self._drop(replica, f"connect to {replica.address} timed out "
                                f"after {self.connect_timeout}s")

    def _write(self, replica: Replica, frame: Dict[str, Any]) -> bool:
        try:
            replica.channel.send(frame)
        except OSError as exc:
            self._drop(replica, f"lost connection to {replica.address}: "
                                f"{exc}")
            return False
        return True

    def _read_replica(self, replica: Replica) -> None:
        """Settle every call the replica has answered; EOF, a socket error
        or a bad frame drops its connection (and fails its other calls)."""
        channel = replica.channel
        try:
            chunk = channel.sock.recv(65536)
            channel.feed(chunk)
            while (response := channel.pop()) is not None:
                call_id = response.get("id")
                # an unknown id is a reply that came after its timeout
                if isinstance(call_id, int) and call_id in self._pending:
                    self._pending.pop(call_id)[2](response, None)
        except Exception as exc:
            # outside input: a bad frame, or a reply its caller cannot use
            self._drop(replica, f"lost connection to {replica.address}: "
                                f"{exc}")
            return
        if not chunk:
            self._drop(replica, f"{replica.address} closed the connection")

    def _drop(self, replica: Replica, reason: str) -> None:
        """Close the replica's connection and fail every call on it."""
        if replica.channel is not None:
            self._selector.unregister(replica.channel.sock)
            replica.channel.close()
        replica.channel, replica.connected = None, False
        for call_id in [call_id for call_id, (owner, _, _)
                        in self._pending.items() if owner is replica]:
            self._fail(call_id, reason)

    # ------------------------------------------------------------------
    # active health probes
    # ------------------------------------------------------------------
    def _probe_tick(self) -> None:
        for replica in self._replicas:
            if not replica.probing:
                replica.probing = True
                self._call(replica, {"op": "stats"}, self.probe_timeout,
                           functools.partial(self._probed, replica))
        self._after(self.probe_interval, self._probe_tick)

    def _probed(self, replica: Replica, response: Optional[Dict[str, Any]],
                error: Optional[str]) -> None:
        replica.probing = False
        if response is None or not response.get("ok"):
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
            latencies = sorted(self._latencies)
            per_route = {route: dict(stats)
                         for route, stats in self._per_route.items()}
            return {
                "router": True,
                "address": self.address,
                "transport": self.scheme,
                "uptime_s": time.perf_counter() - self._started_at,
                "requests": dict(self._requests),
                "inflight": {"total": self._inflight_total,
                             "per_route": dict(self._inflight_route),
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
                         "healthy_groups": list(self._ring.groups),
                         "vnodes": self.vnodes},
                "replicas": replicas,
                "drift": {"routes": self._fleet_drift(replicas)},
            }

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
