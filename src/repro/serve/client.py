"""Client for the serving daemon's JSON-line socket protocol.

:class:`DaemonClient` mirrors the :class:`~repro.serve.service.TuningService`
request/response surface (``tune``/``map_device`` over the same dataclasses,
defined in :mod:`repro.serve.protocol`, so the client loads no numpy or
model stack) so callers can swap the in-process service for a running
daemon without touching request construction.  One client owns one connection and is safe
to share across threads (calls are serialised); open one client per thread
for closed-loop load generation.

The address selects the transport (``/path/to.sock`` or ``unix://`` for
``AF_UNIX``, ``tcp://HOST:PORT`` cross-host — see
:func:`repro.serve.protocol.parse_address`).  A broken connection (replica
restart, router failover) is dropped and transparently re-dialled on the
*next* request: the failing call raises so the caller decides whether the
lost request is safe to resend.

Retry policy: by default every call is single-attempt.  ``retries=N`` opts
into bounded retry with exponential backoff + jitter, covering exactly the
two failure modes that are always safe to retry — the *connect phase*
failing (the request never reached a server) and a structured
``overloaded`` shed (the server refused the request without running it).
A connection that breaks *mid-request* still raises immediately even with
retries enabled: only the caller knows whether the in-flight operation is
idempotent.
"""

from __future__ import annotations

import dataclasses
import random
import threading
import time
from typing import Any, Dict, Optional

from repro.serve.protocol import (
    ERR_OVERLOADED,
    LineChannel,
    MapRequest,
    MapResponse,
    TuneRequest,
    TuneResponse,
    connect_address,
    session_to_wire,
)


class DaemonError(RuntimeError):
    """A structured error response from the daemon."""

    def __init__(self, code: str, message: str,
                 detail: Optional[Dict[str, Any]] = None):
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message
        self.detail = dict(detail or {})

    @property
    def overloaded(self) -> bool:
        """True when the daemon shed this request (back off and retry)."""
        return self.code == ERR_OVERLOADED


class DaemonClient:
    """Blocking request/response client over one daemon connection."""

    def __init__(self, address: str, timeout: float = 600.0,
                 connect_timeout: Optional[float] = None,
                 retries: int = 0, backoff_base: float = 0.05,
                 backoff_max: float = 2.0):
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if backoff_base <= 0 or backoff_max <= 0:
            raise ValueError("backoff_base and backoff_max must be > 0")
        self.address = address
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self.retries = int(retries)
        self.backoff_base = float(backoff_base)
        self.backoff_max = float(backoff_max)
        self._lock = threading.Lock()
        self._channel: Optional[LineChannel] = None
        self._next_id = 0
        self._retry_rng = random.Random()

    @property
    def socket_path(self) -> str:
        """The daemon address (historical name from AF_UNIX-only days)."""
        return self.address

    # ------------------------------------------------------------------
    def _connect(self) -> LineChannel:
        if self._channel is None:
            self._channel = LineChannel(
                connect_address(self.address, timeout=self.connect_timeout))
        return self._channel

    def request(self, document: Dict[str, Any],
                timeout: Optional[float] = None) -> Dict[str, Any]:
        """Send one request; return its ``result``; raise on error replies.

        With ``retries`` > 0, connect-phase failures and ``overloaded``
        sheds are retried with exponential backoff + jitter (see the module
        docstring); everything else raises on the first occurrence.
        """
        attempt = 0
        while True:
            in_connect = True
            try:
                with self._lock:
                    channel = self._connect()
                    in_connect = False
                    request_id = f"c{self._next_id}"
                    self._next_id += 1
                    payload = dict(document)
                    payload["id"] = request_id
                    try:
                        channel.send(payload)
                        while True:
                            response = channel.recv(
                                self.timeout if timeout is None else timeout)
                            if response is None:
                                raise ConnectionError(
                                    "daemon closed the connection")
                            if response.get("id") == request_id:
                                break
                    except (OSError, ConnectionError):
                        self._reset_locked()
                        raise
            except (OSError, ConnectionError):
                if not in_connect or attempt >= self.retries:
                    raise
                self._sleep_backoff(attempt)
                attempt += 1
                continue
            if response.get("ok"):
                return response.get("result", {})
            error = response.get("error", {})
            exc = DaemonError(error.get("code", "internal"),
                              error.get("message", "unknown daemon error"),
                              error)
            if exc.overloaded and attempt < self.retries:
                self._sleep_backoff(attempt)
                attempt += 1
                continue
            raise exc

    def _sleep_backoff(self, attempt: int) -> None:
        delay = min(self.backoff_max, self.backoff_base * (2 ** attempt))
        time.sleep(delay * (0.5 + 0.5 * self._retry_rng.random()))

    def _reset_locked(self) -> None:
        if self._channel is not None:
            self._channel.close()
            self._channel = None

    # ------------------------------------------------------------------
    # the TuningService-shaped surface
    # ------------------------------------------------------------------
    def tune(self, request: TuneRequest) -> TuneResponse:
        result = self.request({"op": "tune",
                               **dataclasses.asdict(request)})
        return TuneResponse(
            model=result["model"], version=result["version"],
            kernel=result["kernel"], scale=result["scale"],
            config_label=result["config_label"],
            num_threads=result["num_threads"], schedule=result["schedule"],
            chunk_size=result["chunk_size"],
            counters=dict(result["counters"]),
            latency_ms=result["latency_ms"])

    def map_device(self, request: MapRequest) -> MapResponse:
        result = self.request({"op": "map",
                               **dataclasses.asdict(request)})
        return MapResponse(
            model=result["model"], version=result["version"],
            kernel=result["kernel"], device=result["device"],
            label=result["label"], latency_ms=result["latency_ms"])

    def run_session(self, session):
        """Execute one :class:`SearchSession` on the daemon's worker pool."""
        from repro.serve.protocol import outcome_from_wire

        result = self.request({"op": "session",
                               "session": session_to_wire(session)})
        return outcome_from_wire(result)

    def stats(self) -> Dict[str, Any]:
        return self.request({"op": "stats"})

    # ------------------------------------------------------------------
    # online-operations surface (lifecycle-managed daemons)
    # ------------------------------------------------------------------
    def swap(self, model: str, version: Optional[int] = None,
             rollback: bool = False,
             track_latest: bool = False) -> Dict[str, Any]:
        """Hot-swap ``model`` to ``version`` (default: registry latest).

        ``rollback=True`` returns to the previously active version and
        pins it; an explicit ``version`` pins too unless ``track_latest``.
        Returns the daemon's route snapshot after the flip.
        """
        document: Dict[str, Any] = {"op": "swap", "model": model}
        if version is not None:
            document["version"] = int(version)
        if rollback:
            document["rollback"] = True
        if track_latest:
            document["track_latest"] = True
        return self.request(document)

    def rollback(self, model: str) -> Dict[str, Any]:
        return self.swap(model, rollback=True)

    def shadow_start(self, model: str, version: int, fraction: float = 0.2,
                     tolerance: float = 0.0,
                     min_compared: int = 0, promote_below: float = 0.0,
                     abort_above: float = 1.0) -> Dict[str, Any]:
        """Tee a fraction of ``model`` traffic to candidate ``version``."""
        return self.request({"op": "shadow", "action": "start",
                             "model": model, "version": int(version),
                             "fraction": fraction, "tolerance": tolerance,
                             "min_compared": min_compared,
                             "promote_below": promote_below,
                             "abort_above": abort_above})

    def shadow_stop(self, model: str) -> Dict[str, Any]:
        return self.request({"op": "shadow", "action": "stop",
                             "model": model})

    def shadow_status(self, model: str) -> Dict[str, Any]:
        return self.request({"op": "shadow", "action": "status",
                             "model": model})

    def ping(self, timeout: float = 5.0) -> bool:
        return bool(self.request({"op": "ping"},
                                 timeout=timeout).get("pong"))

    def shutdown(self, drain: bool = True,
                 timeout: Optional[float] = None) -> Dict[str, Any]:
        return self.request({"op": "shutdown", "drain": drain},
                            timeout=timeout)

    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            self._reset_locked()

    def __enter__(self) -> "DaemonClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
