"""Wire protocol of the serving daemon: JSON lines over a stream socket.

Every request and response is one JSON document on one ``\\n``-terminated
UTF-8 line.  Requests carry a caller-chosen ``id`` that the daemon echoes
back, so one connection may pipeline many requests and receive the responses
out of order (batches complete when their worker finishes, not in arrival
order).

Transports
----------
The protocol is transport-agnostic: the same framing, ops and error codes
run over a local ``AF_UNIX`` socket (one box) or TCP (cross-host), selected
by the *address scheme*:

``/tmp/repro.sock`` or ``unix:///tmp/repro.sock``
    an ``AF_UNIX`` stream socket at that filesystem path;
``tcp://HOST:PORT``
    an ``AF_INET`` stream socket (``PORT`` 0 binds an ephemeral port, which
    :func:`create_listener` resolves into the returned address).

:func:`parse_address`, :func:`connect_address`, :func:`start_connect` and
:func:`create_listener` are the only places that know the difference;
daemon, router and client all take address strings.

Request ops
-----------
``tune``      ``{"op": "tune", "model": ..., "kernel": ..., "scale": ...}``
``map``       ``{"op": "map", "model": ..., "kernel": ..., ...}``
``session``   one self-contained black-box search session (see
              :func:`session_to_wire`)
``stats``     daemon introspection: queue depth, batch histogram, latency,
              swap counters, shadow disagreement, drift scores
``swap``      hot-swap control: pin a route to a version, roll back, or
              re-track the registry's latest (see
              :mod:`repro.serve.lifecycle`)
``shadow``    start/stop/inspect a shadow deploy of a candidate version
``ping``      liveness probe
``shutdown``  drain outstanding work, stop the workers, exit

A :class:`~repro.tuners.fleet.CampaignCoordinator` speaks the same framing
with its own op set (``lease`` / ``heartbeat`` / ``submit``, see
:mod:`repro.tuners.fleet`); ``stats``/``ping``/``shutdown`` work there too.

Responses are ``{"id": ..., "ok": true, "result": {...}}`` on success and
``{"id": ..., "ok": false, "error": {"code": ..., "message": ...}}`` on
failure.  ``code`` is machine-actionable; the important ones are
``overloaded`` (the bounded request queue is full — the daemon *sheds* the
request instead of queueing it; back off and retry) and ``worker_crashed``
(a worker died mid-batch and the request exhausted its retry).
"""

from __future__ import annotations

import dataclasses
import errno
import json
import os
import selectors
import socket
import threading
from typing import Any, Callable, Dict, Optional, Tuple, Union

from repro.serve import faults

#: requests the dispatcher batches and hands to worker processes
BATCHED_OPS = ("tune", "map", "session", "_crash", "_sleep")

#: requests the front-end answers inline (never queued, never shed)
INLINE_OPS = ("stats", "ping", "shutdown")

#: online-operations requests (answered inline by the daemon's lifecycle
#: manager; the router fans them out to every replica of the owning group)
ADMIN_OPS = ("swap", "shadow")

#: campaign-fleet requests (answered inline by a CampaignCoordinator)
FLEET_OPS = ("lease", "heartbeat", "submit")

#: error codes a client can act on
ERR_BAD_REQUEST = "bad_request"
ERR_OVERLOADED = "overloaded"
ERR_SHUTTING_DOWN = "shutting_down"
ERR_WORKER_CRASHED = "worker_crashed"
ERR_NO_REGISTRY = "no_registry"
ERR_NO_REPLICA = "no_replica"
ERR_INTERNAL = "internal"

MAX_LINE_BYTES = 32 * 1024 * 1024


# ----------------------------------------------------------------------
# addresses: one string names a transport + endpoint
# ----------------------------------------------------------------------
def parse_address(address: Union[str, os.PathLike]
                  ) -> Tuple[str, Union[str, Tuple[str, int]]]:
    """``("unix", path)`` or ``("tcp", (host, port))`` from an address.

    A bare string is an ``AF_UNIX`` path (the historical form); ``unix://``
    makes that explicit and ``tcp://host:port`` selects TCP.
    """
    address = os.fspath(address)
    if address.startswith("unix://"):
        path = address[len("unix://"):]
        if not path:
            raise ValueError("unix:// address needs a socket path")
        return "unix", path
    if address.startswith("tcp://"):
        host, sep, port = address[len("tcp://"):].rpartition(":")
        if not sep or not host:
            raise ValueError(f"tcp address must be tcp://HOST:PORT, "
                             f"got {address!r}")
        try:
            port_number = int(port)
        except ValueError as exc:
            raise ValueError(f"invalid port in {address!r}") from exc
        if not 0 <= port_number <= 65535:
            raise ValueError(f"port out of range in {address!r}")
        return "tcp", (host, port_number)
    if not address:
        raise ValueError("empty address")
    return "unix", address


def format_address(scheme: str,
                   location: Union[str, Tuple[str, int]]) -> str:
    if scheme == "unix":
        return str(location)
    host, port = location
    return f"tcp://{host}:{port}"


def connect_address(address: str,
                    timeout: Optional[float] = None) -> socket.socket:
    """A connected stream socket for ``address`` (caller closes it)."""
    scheme, location = parse_address(address)
    sock = socket.socket(socket.AF_UNIX if scheme == "unix"
                         else socket.AF_INET)
    try:
        if timeout is not None:
            sock.settimeout(timeout)
        sock.connect(location)
        if scheme == "tcp":
            # small JSON frames: never wait for Nagle coalescing
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(None)
    except BaseException:
        sock.close()
        raise
    return sock


def start_connect(address: str) -> socket.socket:
    """A non-blocking socket whose connect to ``address`` is under way.  It
    turns writable once the connect is done; ``SO_ERROR`` then tells how.
    A connect that fails at once raises here."""
    scheme, location = parse_address(address)
    sock = socket.socket(socket.AF_UNIX if scheme == "unix"
                         else socket.AF_INET)
    sock.setblocking(False)
    if scheme == "tcp":
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    code = sock.connect_ex(location)
    if code not in (0, errno.EINPROGRESS):
        sock.close()
        raise OSError(code, os.strerror(code))
    return sock


def create_listener(address: str,
                    backlog: int = 128) -> Tuple[socket.socket, str]:
    """A bound + listening socket and its *resolved* address string.

    TCP port 0 binds an ephemeral port; the returned address carries the
    port the kernel actually assigned.  An ``AF_UNIX`` socket file that a
    dead server left behind is unlinked and bound again; one where a live
    server still accepts connections raises :class:`RuntimeError` (it is
    never hijacked).
    """
    scheme, location = parse_address(address)
    if scheme == "unix":
        if os.path.exists(location):
            try:
                probe = connect_address(location, timeout=1.0)
            except OSError:
                os.unlink(location)          # stale: nobody is listening
            else:
                probe.close()
                raise RuntimeError(f"{location} already has a live server")
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            listener.bind(location)
            listener.listen(backlog)
        except BaseException:
            listener.close()
            raise
        return listener, format_address("unix", location)
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(location)
        listener.listen(backlog)
        host, port = listener.getsockname()[:2]
    except BaseException:
        listener.close()
        raise
    return listener, format_address("tcp", (location[0], port))


def close_listener(listener: socket.socket, address: str) -> None:
    """Close a :func:`create_listener` socket and remove its ``AF_UNIX``
    file.  The shutdown first wakes a thread blocked in ``accept()``."""
    try:
        listener.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    listener.close()
    scheme, location = parse_address(address)
    if scheme == "unix":
        try:
            os.unlink(location)
        except OSError:
            pass


class ProtocolError(Exception):
    """A malformed frame (bad JSON, missing fields, oversized line)."""


def encode_frame(document: Dict[str, Any]) -> bytes:
    """One JSON document as one newline-terminated UTF-8 line."""
    return (json.dumps(document, separators=(",", ":"))
            + "\n").encode("utf-8")


def decode_frame(line: bytes) -> Dict[str, Any]:
    try:
        document = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    if not isinstance(document, dict):
        raise ProtocolError("frame must be a JSON object")
    return document


def error_response(request_id, code: str, message: str,
                   **detail) -> Dict[str, Any]:
    error: Dict[str, Any] = {"code": code, "message": message}
    error.update(detail)
    return {"id": request_id, "ok": False, "error": error}


def ok_response(request_id, result: Dict[str, Any]) -> Dict[str, Any]:
    return {"id": request_id, "ok": True, "result": result}


# ----------------------------------------------------------------------
# framed socket I/O (shared by the selector loops and the client)
# ----------------------------------------------------------------------
class LineChannel:
    """Buffered newline framing over one connected socket.  :meth:`recv`
    and the selector loops share one parser: :meth:`feed`/:meth:`pop`.
    """

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self._buffer = b""

    def send(self, document: Dict[str, Any]) -> None:
        frame = encode_frame(document)
        injector = faults.active()
        if injector is None:
            self.sock.sendall(frame)
            return
        # chaos only: an installed fault plan may drop, duplicate or delay
        # outgoing frames (receivers already tolerate all three: callers
        # time out and retry, and responses are matched by id)
        for part in injector.frames(frame):
            self.sock.sendall(part)

    def recv(self, timeout: Optional[float] = None) -> Optional[Dict[str, Any]]:
        """The next decoded frame, or ``None`` on a clean EOF."""
        self.sock.settimeout(timeout)
        while True:
            document = self.pop()
            if document is not None:
                return document
            chunk = self.sock.recv(65536)
            self.feed(chunk)
            if not chunk:
                return None

    def feed(self, chunk: bytes) -> None:
        """Buffer received bytes; an empty ``chunk`` is the peer's EOF."""
        if not chunk and self._buffer:
            raise ProtocolError("connection closed mid-frame")
        self._buffer += chunk

    def pop(self) -> Optional[Dict[str, Any]]:
        """The next complete buffered frame, or ``None`` if there is none."""
        line, newline, rest = self._buffer.partition(b"\n")
        if not newline:
            if len(self._buffer) > MAX_LINE_BYTES:
                raise ProtocolError("frame exceeds the line size limit")
            return None
        self._buffer = rest
        return decode_frame(line)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class ClientConnection(LineChannel):
    """One accepted connection of a selector loop.  The loop and a helper
    thread may both answer it, so each reply goes out whole (a blocking
    ``sendall``) under ``write_lock``."""

    def __init__(self, sock: socket.socket):
        super().__init__(sock)
        self.write_lock = threading.Lock()

    def reply(self, document: Dict[str, Any]) -> None:
        try:
            with self.write_lock:
                self.send(document)
        except OSError:
            pass                      # client went away; nothing to tell it

    def close(self) -> None:
        # a process forked while this client was connected holds a copy of
        # the socket: without a shutdown, close() would not hang up
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        super().close()


class FrontEnd:
    """The accept, client-read and wake-up steps of the daemon's and the
    router's selector loops, whose keys carry ``(handler, source)``.
    ``handle`` runs once per request line; a frame that cannot be parsed,
    or that breaks ``handle``, is answered ``bad_request`` and hangs up on
    that one client only."""

    def __init__(self, selector: selectors.BaseSelector,
                 listener: socket.socket,
                 handle: Callable[[Dict[str, Any], ClientConnection], None]):
        self.selector = selector
        self.handle = handle
        self.clients: set = set()
        listener.setblocking(False)
        selector.register(listener, selectors.EVENT_READ,
                          (self.accept, listener))
        self._wakeup = socket.socketpair()        # (loop end, waker)
        self._wakeup[1].setblocking(False)
        self._wake_lock = threading.Lock()
        selector.register(self._wakeup[0], selectors.EVENT_READ,
                          (lambda sock: sock.recv(4096), self._wakeup[0]))

    def wake(self) -> None:
        """Return the loop from ``select()``; any thread, even after
        :meth:`close`."""
        with self._wake_lock:
            try:
                self._wakeup[1].send(b"\0")
            except OSError:
                pass          # closed, or full: the loop is awake anyway

    def accept(self, listener: socket.socket) -> None:
        try:
            sock, _ = listener.accept()
        except OSError:
            return                    # the peer gave up before the accept
        sock.setblocking(True)
        if sock.family == socket.AF_INET:
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                # let a restarted server rebind this port while old client
                # connections are still draining
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            except OSError:
                pass
        client = ClientConnection(sock)
        self.clients.add(client)
        self.selector.register(sock, selectors.EVENT_READ,
                               (self.read, client))

    def read(self, client: ClientConnection) -> None:
        """Handle every complete request line the client has sent."""
        try:
            chunk = client.sock.recv(65536)
        except OSError:
            chunk = b""
        try:
            client.feed(chunk)
            while (document := client.pop()) is not None:
                self.handle(document, client)
        except Exception as exc:
            client.reply(error_response(None, ERR_BAD_REQUEST, str(exc)))
            chunk = b""
        if not chunk:
            self.selector.unregister(client.sock)
            self.clients.discard(client)
            client.close()

    def close(self) -> None:
        """Hang up on every client and close the wake-up socketpair (the
        loop has stopped reading them)."""
        for client in self.clients:
            client.close()
        self.clients.clear()
        with self._wake_lock:
            for end in self._wakeup:
                end.close()


# ----------------------------------------------------------------------
# typed tune/map requests and responses, shared by the in-process
# TuningService and the DaemonClient (importing them loads no model stack)
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class TuneRequest:
    """One OpenMP tuning request.

    At most one of ``scale`` / ``target_bytes`` sizes the input (setting both
    is rejected; neither means ``scale=1.0``).  With ``target_bytes`` the
    scale solving the kernel's working-set equation is used (the natural
    remote-caller interface: "this kernel at 32 MB").
    """

    model: str
    kernel: str                       # kernel uid, e.g. "polybench/gemm"
    scale: Optional[float] = None
    target_bytes: Optional[float] = None
    version: Optional[int] = None


@dataclasses.dataclass(frozen=True)
class TuneResponse:
    model: str
    version: int
    kernel: str
    scale: float
    config_label: str                 # e.g. "t8/static/cauto"
    num_threads: int
    schedule: str
    chunk_size: Optional[int]
    counters: Dict[str, float]
    latency_ms: float


@dataclasses.dataclass(frozen=True)
class MapRequest:
    """One OpenCL CPU/GPU device-mapping request."""

    model: str
    kernel: str
    transfer_bytes: float
    wgsize: int
    version: Optional[int] = None


@dataclasses.dataclass(frozen=True)
class MapResponse:
    model: str
    version: int
    kernel: str
    device: str                       # "cpu" | "gpu"
    label: int
    latency_ms: float


# ----------------------------------------------------------------------
# objective + search-session payloads (the tuning fan-out units)
# ----------------------------------------------------------------------
def objective_to_wire(objective) -> Dict[str, Any]:
    """An objective spec as a pure-JSON tree.

    ``float`` values survive the JSON round trip exactly (``repr`` round
    trips IEEE-754 doubles), so an objective evaluated remotely produces
    the same measurement bytes as a local run.
    """
    import numpy as np

    from repro.tuners.campaign import LookupObjectiveSpec, SimObjectiveSpec

    if isinstance(objective, LookupObjectiveSpec):
        return {"type": "lookup",
                "times": np.asarray(objective.times,
                                    dtype=np.float64).tolist(),
                "floor": float(objective.floor)}
    if isinstance(objective, SimObjectiveSpec):
        return {"type": "sim", "spec": objective.to_config()}
    raise TypeError(f"objective {type(objective).__name__} has no wire form")


def objective_from_wire(data: Dict[str, Any]):
    import numpy as np

    from repro.tuners.campaign import LookupObjectiveSpec, SimObjectiveSpec

    kind = data.get("type")
    if kind == "lookup":
        return LookupObjectiveSpec(
            times=np.asarray(data["times"], dtype=np.float64),
            floor=float(data["floor"]))
    if kind == "sim":
        return SimObjectiveSpec.from_config(data["spec"])
    raise ProtocolError(f"unknown objective type {kind!r}")


def session_to_wire(session) -> Dict[str, Any]:
    """A :class:`~repro.tuners.campaign.SearchSession` as a pure-JSON tree."""
    return {"tuner_name": session.tuner_name,
            "tuner_config": dict(session.tuner_config),
            "space": list(session.space),
            "objective": objective_to_wire(session.objective)}


def session_from_wire(data: Dict[str, Any]):
    from repro.tuners.campaign import SearchSession

    return SearchSession(tuner_name=data["tuner_name"],
                         tuner_config=dict(data["tuner_config"]),
                         space=list(data["space"]),
                         objective=objective_from_wire(data["objective"]))


def outcome_to_wire(outcome) -> Dict[str, Any]:
    """A :class:`~repro.tuners.campaign.SessionOutcome` as a JSON tree."""
    return {"best_index": int(outcome.best_index),
            "best_time": float(outcome.best_time),
            "evaluations": int(outcome.evaluations),
            "indices": [int(i) for i in outcome.indices],
            "times": [float(t) for t in outcome.times]}


def outcome_from_wire(data: Dict[str, Any]):
    import numpy as np

    from repro.tuners.campaign import SessionOutcome

    return SessionOutcome(
        best_index=int(data["best_index"]),
        best_time=float(data["best_time"]),
        evaluations=int(data["evaluations"]),
        indices=np.asarray(data["indices"], dtype=np.int64),
        times=np.asarray(data["times"], dtype=np.float64))


def percentile(sorted_values, fraction: float) -> float:
    """Nearest-rank percentile over an already-sorted sequence."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1,
               max(0, int(round(fraction * (len(sorted_values) - 1)))))
    return float(sorted_values[rank])


def validate_request(document: Dict[str, Any]) -> Tuple[Any, str]:
    """``(id, op)`` of a request frame, raising :class:`ProtocolError`."""
    op = document.get("op")
    if not isinstance(op, str):
        raise ProtocolError("request is missing the 'op' field")
    if (op not in BATCHED_OPS and op not in INLINE_OPS
            and op not in ADMIN_OPS and op not in FLEET_OPS):
        raise ProtocolError(f"unknown op {op!r}")
    if op in ADMIN_OPS and not isinstance(document.get("model"), str):
        raise ProtocolError(f"op {op!r} requires a string 'model' field")
    if (op in ADMIN_OPS or op in ("tune", "map")) and \
            document.get("version") is not None and \
            not isinstance(document.get("version"), int):
        raise ProtocolError(f"op {op!r} 'version' must be an integer")
    if op == "shadow":
        action = document.get("action", "status")
        if action not in ("start", "stop", "status"):
            raise ProtocolError("op 'shadow' action must be start/stop/"
                                "status")
        if action == "start" and not isinstance(document.get("version"),
                                                int):
            raise ProtocolError("op 'shadow' start requires an integer "
                                "'version' (the candidate)")
    if op in ("tune", "map"):
        for field in ("model", "kernel"):
            if not isinstance(document.get(field), str):
                raise ProtocolError(f"op {op!r} requires a string "
                                    f"{field!r} field")
    if op == "map":
        for field in ("transfer_bytes", "wgsize"):
            if not isinstance(document.get(field), (int, float)):
                raise ProtocolError(f"op 'map' requires a numeric "
                                    f"{field!r} field")
    if op == "session" and not isinstance(document.get("session"), dict):
        raise ProtocolError("op 'session' requires a 'session' object")
    if op in FLEET_OPS and not isinstance(document.get("worker"), str):
        raise ProtocolError(f"op {op!r} requires a string 'worker' field")
    if op in ("heartbeat", "submit"):
        if not isinstance(document.get("lease"), str):
            raise ProtocolError(f"op {op!r} requires a string 'lease' field")
    if op == "submit":
        if not isinstance(document.get("campaign"), str):
            raise ProtocolError("op 'submit' requires a string 'campaign' "
                                "field")
        for field in ("eval", "attempt", "value"):
            if not isinstance(document.get(field), (int, float)):
                raise ProtocolError(f"op 'submit' requires a numeric "
                                    f"{field!r} field")
    return document.get("id"), op
