"""Fault-tolerant elastic tuning fleets over the serve transport.

:class:`CampaignCoordinator` promotes a :class:`~repro.tuners.campaign.
TuningCampaign` from single-host multiprocessing to a coordinator/worker
design: the coordinator owns the tuner's ask/tell loop and *serves* the
current proposal batch as config leases over the existing JSON-line
protocol (``AF_UNIX`` or ``tcp://`` — see :mod:`repro.serve.protocol`);
:class:`CampaignWorker` processes connect from any host, lease a slice of
the batch, heartbeat while evaluating, and stream results back.

The design keeps the campaign invariant — **histories are byte-identical
to** ``workers=1`` — structurally rather than by luck:

* only one proposal batch is ever outstanding (ask/tell is
  history-dependent); parallelism comes from leasing *slices* of it, and
  results are told in proposal order once the batch completes;
* objective values are pure functions of ``(objective spec, config
  index)`` (per-config-seeded measurement RNGs, PR 3), so *who* evaluates
  a config — any worker, any attempt, or the coordinator itself — cannot
  change the value;
* the proposal RNG is only advanced by ``ask`` and checkpoints are only
  written at batch boundaries, so a killed coordinator resumes without
  double-telling.

Failure handling (qualified by ``tests/test_fleet_chaos.py`` under
:mod:`repro.serve.faults` plans):

* **lease expiry + reissue** — a worker that misses heartbeats for
  ``lease_timeout`` seconds loses its lease; its configs return to the
  pool with a bumped ``attempt`` counter;
* **idempotent submission** — results are keyed by ``(campaign_id,
  eval index, attempt)``; duplicate, stale (reissued elsewhere) and
  foreign (pre-restart) submissions are acknowledged but not recorded,
  so reissued work tells exactly once;
* **elastic join/leave** — workers need no registration: leasing is
  joining, and leaving (gracefully or by SIGKILL) just means expiry;
* **graceful degradation** — when no worker has been heard from for
  ``local_fallback_s`` seconds the coordinator evaluates pending configs
  inline, so a campaign with zero (or only dead) workers still finishes;
* **coordinator crash safety** — the sha256-checked rename-aside
  checkpoints of :class:`TuningCampaign` plus a fresh ``campaign_id`` per
  incarnation (stale submissions are ignored as foreign) make
  kill-then-:meth:`~CampaignCoordinator.resume` exact.

The coordinator serves from one ``fleet-loop`` thread, a :mod:`selectors`
loop over the daemon's and router's :class:`~repro.serve.protocol.FrontEnd`.
:meth:`~CampaignCoordinator.run` sleeps until a request changes the batch or
the next lease deadline or local-fallback moment: nothing polls.
"""

from __future__ import annotations

import json
import os
import random
import selectors
import threading
import time
from typing import Any, Dict, List, Optional

from repro.frontend.openmp import OMPConfig
from repro.serve import faults
from repro.serve.protocol import (
    ERR_BAD_REQUEST,
    FrontEnd,
    ProtocolError,
    close_listener,
    create_listener,
    error_response,
    objective_from_wire,
    objective_to_wire,
    ok_response,
    parse_address,
    validate_request,
)
from repro.tuners.base import TuningResult
from repro.tuners.campaign import TuningCampaign

_PENDING = "pending"
_LEASED = "leased"
_DONE = "done"

#: lease id of slots the coordinator claimed for inline evaluation
_LOCAL_LEASE = "local"

#: how long a worker waits before asking again after an empty lease reply
_RETRY_MS = 25.0


class _Slot:
    """One config of the in-flight batch, keyed by its history position."""

    __slots__ = ("eval_index", "key", "config", "attempt", "state", "value",
                 "lease_id")

    def __init__(self, eval_index: int, key: int, config: OMPConfig):
        self.eval_index = eval_index     # global history position
        self.key = key                   # index in the search space
        self.config = config
        self.attempt = 0                 # bumped on every reissue
        self.state = _PENDING
        self.value: Optional[float] = None
        self.lease_id: Optional[str] = None


class _Lease:
    __slots__ = ("lease_id", "worker", "deadline", "eval_indices")

    def __init__(self, lease_id: str, worker: str, deadline: float,
                 eval_indices: List[int]):
        self.lease_id = lease_id
        self.worker = worker
        self.deadline = deadline
        self.eval_indices = eval_indices


class CampaignCoordinator:
    """Serve a campaign's proposal batches as leases; own ask/tell.

    Use as a context manager (or call :meth:`start`/:meth:`shutdown`), then
    drive the campaign with :meth:`run` — workers may connect at any time
    before or during the run, or never.
    """

    def __init__(self, campaign: TuningCampaign, address: str,
                 lease_timeout: float = 2.0, max_lease_configs: int = 4,
                 local_fallback_s: Optional[float] = 1.0):
        if lease_timeout <= 0:
            raise ValueError("lease_timeout must be > 0")
        if max_lease_configs < 1:
            raise ValueError("max_lease_configs must be >= 1")
        self.campaign = campaign
        parse_address(address)           # reject a malformed address early
        self.address = address
        self.lease_timeout = float(lease_timeout)
        self.max_lease_configs = int(max_lease_configs)
        self.local_fallback_s = (None if local_fallback_s is None
                                 else float(local_fallback_s))
        #: one incarnation = one campaign id; submissions from before a
        #: coordinator restart carry the old id and are ignored as foreign
        self.campaign_id = f"c{os.urandom(6).hex()}"
        self._objective_wire = objective_to_wire(campaign.objective_spec)
        self._lock = threading.Lock()
        self._progress = threading.Condition(self._lock)
        self._slots: List[_Slot] = []
        self._slot_by_eval: Dict[int, _Slot] = {}
        self._leases: Dict[str, _Lease] = {}
        self._next_lease = 0
        self._workers_seen: Dict[str, float] = {}
        self._last_worker_contact = time.monotonic()
        self._running = False
        self._done = False
        self._listener = None
        self._front: Optional[FrontEnd] = None
        self._loop_thread: Optional[threading.Thread] = None
        self._inline_objective = None
        # counters (exposed by stats)
        self._leases_issued = 0
        self._leases_expired = 0
        self._reissues = 0
        self._accepted = 0
        self._duplicates = 0
        self._stale = 0
        self._foreign = 0
        self._heartbeats = 0
        self._local_evals = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def resume(cls, path, address: str, lease_timeout: float = 2.0,
               max_lease_configs: int = 4,
               local_fallback_s: Optional[float] = 1.0,
               **campaign_overrides
               ) -> "CampaignCoordinator":
        """A coordinator over :meth:`TuningCampaign.resume` of ``path``."""
        campaign = TuningCampaign.resume(path, **campaign_overrides)
        return cls(campaign, address, lease_timeout=lease_timeout,
                   max_lease_configs=max_lease_configs,
                   local_fallback_s=local_fallback_s)

    def start(self) -> "CampaignCoordinator":
        if self._running:
            raise RuntimeError("coordinator already started")
        self._listener, self.address = create_listener(self.address)
        self._front = FrontEnd(selectors.DefaultSelector(), self._listener,
                               self._handle_request)
        self._running = True
        self._last_worker_contact = time.monotonic()
        self._loop_thread = threading.Thread(target=self._loop,
                                             name="fleet-loop", daemon=True)
        self._loop_thread.start()
        return self

    def shutdown(self) -> None:
        """Stop serving; returns once the loop has exited and closed every
        socket it owned (called on the loop, it only marks the stop)."""
        with self._lock:
            self._running = False
            self._progress.notify_all()
        loop = self._loop_thread
        if loop is not None:
            self._front.wake()
            if loop is not threading.current_thread():
                loop.join()

    def __enter__(self) -> "CampaignCoordinator":
        return self.start() if not self._running else self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # the ask/tell loop (exactly TuningCampaign.run's schedule)
    # ------------------------------------------------------------------
    def run(self, max_evals: Optional[int] = None) -> TuningResult:
        """Drive the campaign to its budget (or ``max_evals`` more evals).

        Proposal and tell order match :meth:`TuningCampaign.run` exactly;
        checkpoints land only at batch boundaries, so a resumed campaign
        continues the same schedule.
        """
        if not self._running:
            raise RuntimeError("coordinator is not started")
        campaign = self.campaign
        budget = campaign.tuner.effective_budget(campaign.space)
        batches_limit = None
        if max_evals is not None:
            batches_limit = campaign.batches + max(
                1, -(-int(max_evals) // campaign.batch_size))  # ceil division
        started = time.perf_counter()
        exhausted = False
        while len(campaign.history) < budget and (
                batches_limit is None or campaign.batches < batches_limit):
            with self._lock:
                if not self._running:
                    break
            k = min(campaign.batch_size, budget - len(campaign.history))
            pre_ask_rng = campaign._rng.bit_generator.state
            batch = campaign.tuner.ask(campaign.space, campaign.history,
                                       campaign._rng, k)
            if not batch:
                exhausted = True
                break
            base = len(campaign.history)
            slots = [_Slot(base + i, campaign.space.index_of(config), config)
                     for i, config in enumerate(batch)]
            with self._lock:
                self._slots = slots
                self._slot_by_eval = {slot.eval_index: slot for slot in slots}
                self._progress.notify_all()
            if not self._await_batch():
                # stopped mid-batch: discard the in-flight proposals and
                # restore the pre-ask RNG so any final checkpoint sits on
                # the last batch boundary
                campaign._rng.bit_generator.state = pre_ask_rng
                with self._lock:
                    self._clear_batch_locked()
                break
            with self._lock:
                values = [float(slot.value) for slot in self._slots]
                self._clear_batch_locked()
            evaluated = list(zip(batch, values))
            campaign.history.extend(evaluated)
            campaign.tuner.tell(evaluated, campaign.history)
            campaign.batches += 1
            if campaign.batches % campaign.checkpoint_every == 0:
                campaign.checkpoint()
        campaign.wall_seconds += time.perf_counter() - started
        if campaign.batches != campaign._checkpointed_batches:
            campaign.checkpoint()
        if not campaign.history:
            raise RuntimeError("campaign produced no evaluations")
        best_config, best_time = min(campaign.history,
                                     key=lambda item: item[1])
        result = TuningResult(best_config=best_config, best_time=best_time,
                              evaluations=len(campaign.history),
                              history=list(campaign.history))
        if exhausted or len(campaign.history) >= budget:
            campaign.tuner.finalize(result)
            with self._lock:
                self._done = True
                self._progress.notify_all()
        return result

    def _clear_batch_locked(self) -> None:
        self._slots = []
        self._slot_by_eval = {}
        # leases over the settled batch are void; heartbeats on them answer
        # invalid so workers re-lease promptly
        self._leases.clear()

    def _await_batch(self) -> bool:
        """Block until every slot is DONE; False if stopped mid-batch."""
        while True:
            claim = None
            with self._lock:
                if not self._running:
                    return False
                if all(slot.state == _DONE for slot in self._slots):
                    return True
                now = time.monotonic()
                self._expire_leases_locked(now)
                if self._local_due_locked(now):
                    for slot in self._slots:
                        if slot.state == _PENDING:
                            slot.state = _LEASED
                            slot.lease_id = _LOCAL_LEASE
                            claim = slot
                            break
                if claim is None:
                    wake = self._next_wake_locked(now)
                    self._progress.wait(None if wake is None
                                        else max(0.0, wake - now))
                    continue
            # inline evaluation happens outside the lock; the value is the
            # same pure function of (spec, key) the workers compute
            value = self._local_objective()(claim.config, claim.key)
            with self._lock:
                if claim.state == _LEASED and claim.lease_id == _LOCAL_LEASE:
                    claim.value = float(value)
                    claim.state = _DONE
                    self._local_evals += 1
                    self._progress.notify_all()

    def _next_wake_locked(self, now: float) -> Optional[float]:
        """The earliest lease deadline, or the local-fallback moment while
        it is ahead (once passed, run() claims pending slots at once)."""
        moments = [lease.deadline for lease in self._leases.values()]
        if self.local_fallback_s is not None:
            fallback = self._last_worker_contact + self.local_fallback_s
            if fallback > now:
                moments.append(fallback)
        return min(moments, default=None)

    def _local_objective(self):
        if self._inline_objective is None:
            self._inline_objective = self.campaign.objective_spec.build()
        return self._inline_objective

    def _local_due_locked(self, now: float) -> bool:
        if self.local_fallback_s is None:
            return False
        return now - self._last_worker_contact >= self.local_fallback_s

    def _expire_leases_locked(self, now: float) -> None:
        expired = [lease for lease in self._leases.values()
                   if lease.deadline < now]
        for lease in expired:
            del self._leases[lease.lease_id]
            self._leases_expired += 1
            for eval_index in lease.eval_indices:
                slot = self._slot_by_eval.get(eval_index)
                if (slot is not None and slot.state == _LEASED
                        and slot.lease_id == lease.lease_id):
                    slot.state = _PENDING
                    slot.attempt += 1
                    slot.lease_id = None
                    self._reissues += 1
        if expired:
            self._progress.notify_all()

    # ------------------------------------------------------------------
    # the wire surface
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        selector = self._front.selector
        try:
            while self._running:
                for key, _ in selector.select():
                    # skip a socket an earlier handler of this batch dropped
                    if selector.get_map().get(key.fd) is key:
                        handler, source = key.data
                        handler(source)
        finally:
            # the loop owns every socket: release them as it exits
            self._front.close()
            selector.close()
            close_listener(self._listener, self.address)

    def _handle_request(self, request: Dict[str, Any], client) -> None:
        try:
            request_id, op = validate_request(request)
        except ProtocolError as exc:
            client.reply(error_response(request.get("id"), ERR_BAD_REQUEST,
                                        str(exc)))
            return
        if op == "ping":
            result = {"pong": True, "fleet": True}
        elif op == "stats":
            result = self.stats()
        elif op == "shutdown":
            result = {"stopped": True, "fleet": True}
            with self._lock:
                self._running = False       # run() returns, the loop exits
                self._progress.notify_all()
        elif op == "lease":
            result = self._handle_lease(request)
        elif op == "heartbeat":
            result = self._handle_heartbeat(request)
        elif op == "submit":
            result = self._handle_submit(request)
        else:
            client.reply(error_response(request_id, ERR_BAD_REQUEST,
                                        f"op {op!r} is not a fleet operation"))
            return
        client.reply(ok_response(request_id, result))

    def _touch_locked(self, worker: str) -> None:
        now = time.monotonic()
        self._workers_seen[worker] = now
        self._last_worker_contact = now

    def _handle_lease(self, request: Dict[str, Any]) -> Dict[str, Any]:
        worker = request["worker"]
        want = int(request.get("max_configs", self.max_lease_configs))
        want = max(1, min(want, self.max_lease_configs))
        with self._lock:
            self._touch_locked(worker)
            self._expire_leases_locked(time.monotonic())
            free = [slot for slot in self._slots if slot.state == _PENDING]
            if not free:
                return {"empty": True, "done": self._done,
                        "retry_ms": _RETRY_MS}
            grant = free[:want]
            lease_id = f"l{self._next_lease}"
            self._next_lease += 1
            self._leases[lease_id] = _Lease(
                lease_id, worker, time.monotonic() + self.lease_timeout,
                [slot.eval_index for slot in grant])
            for slot in grant:
                slot.state = _LEASED
                slot.lease_id = lease_id
            self._leases_issued += 1
            self._progress.notify_all()      # run() waits for the deadline
            return {
                "campaign": self.campaign_id,
                "lease": lease_id,
                "deadline_s": self.lease_timeout,
                "batch": self.campaign.batches,
                "objective": self._objective_wire,
                "configs": [{"eval": slot.eval_index, "key": slot.key,
                             "attempt": slot.attempt,
                             "config": slot.config.to_dict()}
                            for slot in grant],
            }

    def _handle_heartbeat(self, request: Dict[str, Any]) -> Dict[str, Any]:
        with self._lock:
            self._touch_locked(request["worker"])
            self._expire_leases_locked(time.monotonic())
            lease = self._leases.get(request["lease"])
            if lease is None:
                return {"valid": False}
            lease.deadline = time.monotonic() + self.lease_timeout
            self._heartbeats += 1
            return {"valid": True}

    def _handle_submit(self, request: Dict[str, Any]) -> Dict[str, Any]:
        with self._lock:
            self._touch_locked(request["worker"])
            if request.get("campaign") != self.campaign_id:
                self._foreign += 1
                return {"accepted": False, "state": "foreign"}
            slot = self._slot_by_eval.get(int(request["eval"]))
            if slot is None:
                # the batch this result belongs to was already told
                self._duplicates += 1
                return {"accepted": False, "state": "settled"}
            if slot.state == _DONE:
                self._duplicates += 1
                return {"accepted": False, "state": "duplicate"}
            if int(request["attempt"]) != slot.attempt:
                # the lease was reissued; this attempt's result is void
                self._stale += 1
                return {"accepted": False, "state": "stale"}
            slot.value = float(request["value"])
            slot.state = _DONE
            slot.lease_id = None
            self._accepted += 1
            self._progress.notify_all()
            return {"accepted": True, "state": "recorded"}

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        campaign = self.campaign
        with self._lock:
            states = [slot.state for slot in self._slots]
            return {
                "fleet": True,
                "address": self.address,
                "campaign": self.campaign_id,
                "progress": {
                    "evaluations": len(campaign.history),
                    "budget": campaign.tuner.effective_budget(campaign.space),
                    "batches": campaign.batches,
                    "done": self._done,
                },
                "batch": {"pending": states.count(_PENDING),
                          "leased": states.count(_LEASED),
                          "done": states.count(_DONE)},
                "workers": {"seen": len(self._workers_seen),
                            "active_leases": len(self._leases)},
                "leases": {"issued": self._leases_issued,
                           "expired": self._leases_expired,
                           "reissued_configs": self._reissues},
                "submissions": {"accepted": self._accepted,
                                "duplicate": self._duplicates,
                                "stale": self._stale,
                                "foreign": self._foreign},
                "heartbeats": self._heartbeats,
                "local_evaluations": self._local_evals,
                "lease_timeout_s": self.lease_timeout,
            }


# ----------------------------------------------------------------------
# the worker side
# ----------------------------------------------------------------------
class CampaignWorker:
    """Lease, evaluate, heartbeat, submit — until the campaign is done.

    A worker is stateless and crash-cheap: everything it holds is leased
    and expires.  ``fault_plan`` (or the ``REPRO_FAULTS`` environment)
    installs a :class:`~repro.serve.faults.FaultPlan` for chaos testing.
    """

    def __init__(self, address: str, worker_id: Optional[str] = None,
                 max_configs: int = 2, request_timeout: float = 5.0,
                 retries: int = 10, backoff_base: float = 0.05,
                 fault_plan=None, fault_seed_offset: int = 0):
        self.address = address
        self.worker_id = worker_id or f"w{os.getpid()}-{os.urandom(3).hex()}"
        self.max_configs = max(1, int(max_configs))
        self.request_timeout = float(request_timeout)
        self.retries = max(0, int(retries))
        self.backoff_base = float(backoff_base)
        self.fault_plan = fault_plan
        self.fault_seed_offset = int(fault_seed_offset)
        self._jitter = random.Random(self.worker_id)

    def run(self, max_leases: Optional[int] = None) -> Dict[str, Any]:
        """Work until the coordinator reports the campaign done.

        Returns a summary dict (leases completed, configs evaluated).
        Raises :class:`ConnectionError` when the coordinator stays
        unreachable beyond the retry budget.
        """
        from repro.serve.client import DaemonClient

        if self.fault_plan is not None:
            faults.install(self.fault_plan, self.fault_seed_offset)
        injector = faults.active()
        client = DaemonClient(self.address, timeout=self.request_timeout,
                              retries=self.retries,
                              backoff_base=self.backoff_base)
        beat_client = DaemonClient(self.address,
                                   timeout=self.request_timeout)
        leases = 0
        evaluations = 0
        objective = None
        objective_key = None
        try:
            while max_leases is None or leases < max_leases:
                grant = self._call(client, {
                    "op": "lease", "worker": self.worker_id,
                    "max_configs": self.max_configs})
                if grant.get("empty"):
                    if grant.get("done"):
                        break
                    time.sleep(float(grant.get("retry_ms", _RETRY_MS)) / 1e3)
                    continue
                wire = grant["objective"]
                cache_key = json.dumps(wire, sort_keys=True)
                if cache_key != objective_key:
                    objective = objective_from_wire(wire).build()
                    objective_key = cache_key
                self._work_lease(client, beat_client, grant, objective,
                                 injector)
                evaluations += len(grant["configs"])
                leases += 1
        finally:
            client.close()
            beat_client.close()
        return {"worker": self.worker_id, "leases": leases,
                "evaluations": evaluations}

    # ------------------------------------------------------------------
    def _work_lease(self, client, beat_client, grant, objective,
                    injector) -> None:
        stop = threading.Event()
        invalid = threading.Event()
        beat = threading.Thread(
            target=self._beat_loop,
            args=(beat_client, grant, stop, invalid),
            name="fleet-heartbeat", daemon=True)
        beat.start()
        try:
            for item in grant["configs"]:
                if invalid.is_set():
                    return               # lease lost: re-lease what's left
                config = OMPConfig.from_dict(item["config"])
                value = objective(config, int(item["key"]))
                if injector is not None:
                    # a scheduled SIGKILL lands here: after the value is
                    # computed, before it is submitted
                    injector.evaluated()
                response = self._call(client, {
                    "op": "submit", "worker": self.worker_id,
                    "campaign": grant["campaign"], "lease": grant["lease"],
                    "eval": item["eval"], "attempt": item["attempt"],
                    "value": float(value)})
                if response.get("state") in ("stale", "settled", "foreign"):
                    return               # the coordinator moved on without us
        finally:
            stop.set()
            beat.join(timeout=self.request_timeout + 1.0)

    def _beat_loop(self, beat_client, grant, stop: threading.Event,
                   invalid: threading.Event) -> None:
        interval = max(0.05, float(grant.get("deadline_s", 2.0)) / 3.0)
        injector = faults.active()
        while not stop.wait(interval):
            if injector is not None and not injector.heartbeat_allowed():
                continue                 # chaos: this beat is swallowed
            try:
                result = beat_client.request(
                    {"op": "heartbeat", "worker": self.worker_id,
                     "lease": grant["lease"]},
                    timeout=self.request_timeout)
            except Exception:
                continue                 # beats are best-effort
            if not result.get("valid"):
                invalid.set()
                return

    def _call(self, client, document: Dict[str, Any]) -> Dict[str, Any]:
        """Request with bounded retry over transport-level failures.

        Every fleet op is idempotent (leases are granted fresh, submits are
        deduplicated by the coordinator), so resending after a timeout or a
        mid-request break is always safe — unlike the general client case.
        """
        backoff = self.backoff_base
        for attempt in range(self.retries + 1):
            try:
                return client.request(document)
            except (OSError, ConnectionError, TimeoutError, ProtocolError):
                client.close()          # never reuse a suspect connection
                if attempt >= self.retries:
                    raise
                time.sleep(backoff * (0.5 + self._jitter.random()))
                backoff = min(1.0, backoff * 2)
        raise AssertionError("unreachable")


def run_worker(address: str, worker_id: Optional[str] = None,
               max_configs: int = 2, fault_plan=None,
               fault_seed_offset: int = 0,
               max_leases: Optional[int] = None,
               **kwargs) -> Dict[str, Any]:
    """Module-level worker entry point (picklable for multiprocessing)."""
    worker = CampaignWorker(address, worker_id=worker_id,
                            max_configs=max_configs, fault_plan=fault_plan,
                            fault_seed_offset=fault_seed_offset, **kwargs)
    return worker.run(max_leases=max_leases)
