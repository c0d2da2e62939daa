"""Request generators: a fixed-rate open loop and a fixed-window closed loop.

One sender (the calling thread) and one receiver (the target's thread)
share one connection; requests are pipelined and matched by ``id``.  In the
open loop every request is timed from the moment it was *due* (wrk2 style),
so a stall is charged to every request it delays, and the sender records
how late it ran.  ``repro.serve.loadgen.open_loop`` is not used: it blocks
one thread per connection, which at two cores turns into a closed loop.
"""

from __future__ import annotations

import collections
import itertools
import socket
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.serve.protocol import LineChannel, ProtocolError, connect_address

#: a request with no answer this long after its phase stopped sending is a
#: timeout
TIMEOUT_S = 5.0


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an unsorted sample (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


class Phase:
    """The requests of one load phase and what happened to each."""

    def __init__(self, name: str, request_of: Callable[[int], dict]):
        self.name = name
        self.request_of = request_of
        self.due: Dict[int, float] = {}
        self.lateness: List[float] = []
        #: index -> (latency_s, completed_at, ok, result-or-error)
        self.done: Dict[int, Tuple[float, float, bool, dict]] = {}
        self.started = self.stopped = 0.0
        #: CPU seconds the server spent on the phase
        self.cpu_s = 0.0
        self.closed_window: Optional[Tuple[object, float]] = None
        self._next = itertools.count()
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)

    def next_index(self) -> int:
        return next(self._next)

    def complete(self, index: int, at: float, ok: bool, body: dict) -> None:
        with self._lock:
            if index in self.done or index not in self.due:
                return
            self.done[index] = (at - self.due[index], at, ok, body)
            if len(self.done) == len(self.due):
                self._idle.notify_all()
        if self.closed_window is not None:
            target, deadline = self.closed_window
            if at < deadline:
                target.send(self, self.next_index())

    def wait(self, timeout: float) -> None:
        end = time.perf_counter() + timeout
        with self._lock:
            while len(self.done) < len(self.due):
                remaining = end - time.perf_counter()
                if remaining <= 0:
                    return
                self._idle.wait(remaining)

    # ------------------------------------------------------------------
    def latencies_ms(self) -> List[float]:
        return [1e3 * latency for latency, _, ok, _ in self.done.values()
                if ok]

    def summary(self) -> dict:
        latencies = self.latencies_ms()
        succeeded = len(latencies)
        return {"sent": len(self.due), "succeeded": succeeded,
                "failed": len(self.due) - succeeded,
                "timeouts": len(self.due) - len(self.done),
                "p50_ms": percentile(latencies, 0.50),
                "p95_ms": percentile(latencies, 0.95),
                "p99_ms": percentile(latencies, 0.99),
                "wall_s": self.stopped - self.started}

    def completed_rps(self) -> float:
        """Successful completions per second while the phase was sending."""
        finished = sum(1 for _, at, ok, _ in self.done.values()
                       if ok and at <= self.stopped)
        return finished / max(self.stopped - self.started, 1e-9)


# ----------------------------------------------------------------------
# targets: where a phase's requests go
# ----------------------------------------------------------------------
class PipelinedTarget:
    """A target with its own receiver: the caller's thread only sends."""

    def send(self, phase: Phase, index: int,
             due: Optional[float] = None) -> float:
        raise NotImplementedError

    def open_loop(self, phase: Phase, rate: float, seconds: float) -> Phase:
        """Send ``rate`` requests per second, evenly spaced, for ``seconds``."""
        count = max(1, int(round(rate * seconds)))
        phase.started = start = time.perf_counter() + 0.005
        for index in range(count):
            due = start + index / rate
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            with phase._lock:
                phase.due[index] = due
            phase.lateness.append(self.send(phase, index, due) - due)
        phase.stopped = time.perf_counter()
        phase.wait(TIMEOUT_S)
        return phase

    def closed_loop(self, phase: Phase, window: int, seconds: float) -> Phase:
        """Keep ``window`` requests in flight for ``seconds``."""
        phase.started = time.perf_counter()
        phase.stopped = phase.started + seconds
        phase.closed_window = (self, phase.stopped)
        for _ in range(window):
            self.send(phase, phase.next_index())
        time.sleep(max(0.0, phase.stopped - time.perf_counter()))
        phase.wait(TIMEOUT_S)
        phase.closed_window = None
        return phase


class DaemonTarget(PipelinedTarget):
    """One pipelined connection to a serve daemon plus its receiver thread."""

    def __init__(self, address: str):
        self.channel = LineChannel(connect_address(address))
        self._send_lock = threading.Lock()
        self._pending: Dict[int, Tuple[Phase, int]] = {}
        self._ids = itertools.count()
        self._receiver = threading.Thread(target=self._receive,
                                          name="perfbench-receiver")
        self._receiver.start()

    def send(self, phase: Phase, index: int,
             due: Optional[float] = None) -> float:
        request = dict(phase.request_of(index))
        with self._send_lock:
            request["id"] = request_id = next(self._ids)
            self._pending[request_id] = (phase, index)
            sent_at = time.perf_counter()
            if due is None:
                with phase._lock:
                    phase.due[index] = sent_at
            self.channel.send(request)
        return sent_at

    def _receive(self) -> None:
        while True:
            try:
                document = self.channel.recv()
            except (OSError, ProtocolError):
                return
            if document is None:
                return
            at = time.perf_counter()
            entry = self._pending.pop(document.get("id"), None)
            if entry is None:
                continue
            phase, index = entry
            ok = bool(document.get("ok"))
            phase.complete(index, at, ok,
                           document.get("result" if ok else "error") or {})

    def close(self) -> None:
        try:
            # wakes the receiver: close() alone leaves it blocked in recv()
            self.channel.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.channel.close()
        self._receiver.join(timeout=10.0)


class InProcessTarget(PipelinedTarget):
    """A worker thread that answers queued requests by calling ``handler``.

    Like a daemon worker, each call drains up to ``max_batch`` queued
    requests; ``handler(payloads)`` returns one ``(ok, body)`` per payload.
    """

    def __init__(self, handler, max_batch: int):
        self.handler = handler
        self.max_batch = max_batch
        self._queue: "collections.deque" = collections.deque()
        self._cond = threading.Condition()
        self._running = True
        self._worker = threading.Thread(target=self._serve,
                                        name="perfbench-inprocess")
        self._worker.start()

    def send(self, phase: Phase, index: int,
             due: Optional[float] = None) -> float:
        request = phase.request_of(index)
        sent_at = time.perf_counter()
        if due is None:
            with phase._lock:
                phase.due[index] = sent_at
        with self._cond:
            self._queue.append((phase, index, request))
            self._cond.notify()
        return sent_at

    def _serve(self) -> None:
        while True:
            with self._cond:
                while not self._queue and self._running:
                    self._cond.wait()
                if not self._queue:
                    return
                batch = [self._queue.popleft()
                         for _ in range(min(len(self._queue),
                                            self.max_batch))]
            answers = self.handler([request for _, _, request in batch])
            at = time.perf_counter()
            for (phase, index, _), (ok, body) in zip(batch, answers):
                phase.complete(index, at, ok, body)

    def close(self) -> None:
        with self._cond:
            self._running = False
            self._cond.notify()
        self._worker.join(timeout=30.0)


def lateness_stats(phases: List[Phase], late_after_s: float) -> dict:
    """How far behind schedule the open-loop sender ran, over ``phases``."""
    lateness = [value for phase in phases for value in phase.lateness]
    if not lateness:
        return {"max_ms": 0.0, "late_frac": 0.0}
    return {"max_ms": 1e3 * max(lateness),
            "late_frac": sum(value > late_after_s for value in lateness)
            / len(lateness)}
