"""Fleet campaigns: coordinator/worker leasing over the serve transport.

The load-bearing property carries over from ``test_campaign.py``: a fleet
campaign's history must be byte-identical to ``workers=1`` no matter how
many workers lease configs, when they join or leave, whether leases expire
and are reissued, or whether the coordinator is stopped and resumed.  This
file covers the fault-free mechanics (plus the client retry satellite);
``test_fleet_chaos.py`` qualifies the same invariant under injected faults.
"""

import os
import tempfile
import threading
import time
import uuid

import numpy as np
import pytest

from repro.serve import faults
from repro.serve.client import DaemonClient, DaemonError
from repro.serve.faults import FaultInjector, FaultPlan
from repro.serve.protocol import (
    LineChannel,
    ProtocolError,
    close_listener,
    create_listener,
    error_response,
    objective_from_wire,
    objective_to_wire,
    ok_response,
    validate_request,
)
from repro.simulator.microarch import COMET_LAKE_8C
from repro.tuners import (
    CampaignCoordinator,
    CampaignWorker,
    SimObjectiveSpec,
    TuningCampaign,
    full_search_space,
    make_tuner,
)
from repro.tuners.campaign import LookupObjectiveSpec
from repro.tuners.fleet import _Slot


def _socket_path():
    return os.path.join(tempfile.gettempdir(),
                        f"repro-fleet-{uuid.uuid4().hex[:10]}.sock")


def _spec(**overrides):
    defaults = dict(kernel_uid="polybench/atax", arch=COMET_LAKE_8C,
                    scale=0.2, noise=0.015, seed=42)
    defaults.update(overrides)
    return SimObjectiveSpec(**defaults)


def _await(predicate, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


@pytest.fixture(scope="module")
def space():
    """A 36-configuration Table-2-style space (4 threads x 3 x 3)."""
    return full_search_space(threads=(1, 2, 4, 8), chunks=(1, 32, 256))


@pytest.fixture(scope="module")
def serial_history(space):
    """The workers=1 reference history every fleet run must reproduce."""
    campaign = TuningCampaign(make_tuner("random", budget=24, seed=0),
                              space, _spec(), batch_size=8)
    return campaign.run().history


def _fresh_campaign(space, **kwargs):
    kwargs.setdefault("batch_size", 8)
    return TuningCampaign(make_tuner("random", budget=24, seed=0),
                          space, _spec(), **kwargs)


def _worker_thread(address, **kwargs):
    worker = CampaignWorker(address, **kwargs)
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    return thread


def _runner_thread(coordinator):
    """coordinator.run in a thread; a stop before any eval is not an error."""

    def target():
        try:
            coordinator.run()
        except RuntimeError:
            pass

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread


# ----------------------------------------------------------------------
# wire forms + fault plans
# ----------------------------------------------------------------------
class TestWire:
    def test_sim_objective_round_trip(self):
        spec = _spec(repeats=2, walltime_scale=3.0)
        restored = objective_from_wire(objective_to_wire(spec))
        assert restored == spec

    def test_lookup_objective_round_trip(self):
        spec = LookupObjectiveSpec(
            times=np.array([[1.0, 2.0], [3.0, 4.0]]), floor=1e-12)
        restored = objective_from_wire(objective_to_wire(spec))
        assert np.array_equal(restored.times, spec.times)
        assert restored.floor == spec.floor

    def test_validate_fleet_ops(self):
        assert validate_request({"op": "lease", "worker": "w0",
                                 "id": 1}) == (1, "lease")
        assert validate_request({"op": "heartbeat", "worker": "w0",
                                 "lease": "l0"})[1] == "heartbeat"
        assert validate_request({"op": "submit", "worker": "w0",
                                 "lease": "l0", "campaign": "c0",
                                 "eval": 3, "attempt": 0,
                                 "value": 0.5})[1] == "submit"
        with pytest.raises(ProtocolError):
            validate_request({"op": "lease"})           # no worker
        with pytest.raises(ProtocolError):
            validate_request({"op": "heartbeat", "worker": "w0"})
        with pytest.raises(ProtocolError):
            validate_request({"op": "submit", "worker": "w0", "lease": "l0",
                              "campaign": "c0", "eval": 3, "attempt": 0})

    def test_fault_plan_parse_round_trip(self):
        plan = FaultPlan(drop=0.1, dup=0.05, delay_ms=15.0, kill_after=9,
                         stall_after=2, stall_for=1.5, seed=3)
        assert FaultPlan.parse(plan.to_spec()) == plan
        assert FaultPlan.parse("drop=0.2", seed=7) == FaultPlan(drop=0.2,
                                                                seed=7)
        with pytest.raises(ValueError):
            FaultPlan.parse("bogus=1")
        with pytest.raises(ValueError):
            FaultPlan(drop=1.5)

    def test_fault_plan_from_env(self):
        environ = {"REPRO_FAULTS": "drop=0.1,kill_after=4",
                   "REPRO_FAULT_SEED": "99"}
        plan = FaultPlan.from_env(environ)
        assert plan == FaultPlan(drop=0.1, kill_after=4, seed=99)
        assert FaultPlan.from_env({}) is None
        assert FaultPlan().benign and not plan.benign

    def test_injector_is_seed_deterministic(self):
        def schedule(seed_offset):
            injector = FaultInjector(FaultPlan(drop=0.3, dup=0.3, seed=5),
                                     seed_offset)
            return [len(injector.frames(b"x\n")) for _ in range(64)]

        assert schedule(0) == schedule(0)
        assert schedule(0) != schedule(1)       # siblings decorrelated
        counts = schedule(0)
        assert 0 in counts and 2 in counts      # drops and dups both occur

    def test_injector_heartbeat_stall_window(self):
        injector = FaultInjector(FaultPlan(stall_after=2, stall_for=0.15))
        assert injector.heartbeat_allowed()
        assert injector.heartbeat_allowed()
        assert not injector.heartbeat_allowed()     # stall begins
        assert _await(injector.heartbeat_allowed, timeout=2.0)
        assert FaultInjector(FaultPlan()).heartbeat_allowed()


# ----------------------------------------------------------------------
# coordinator/worker mechanics
# ----------------------------------------------------------------------
class TestFleetCampaign:
    def test_zero_workers_degrades_to_local(self, space, serial_history):
        campaign = _fresh_campaign(space)
        with CampaignCoordinator(campaign, _socket_path(),
                                 local_fallback_s=0.05) as coordinator:
            result = coordinator.run()
        assert result.history == serial_history
        stats = coordinator.stats()
        assert stats["local_evaluations"] == len(serial_history)
        assert stats["progress"]["done"]

    def test_workers_history_identical_to_serial(self, space, serial_history):
        campaign = _fresh_campaign(space)
        with CampaignCoordinator(campaign, _socket_path(),
                                 local_fallback_s=None) as coordinator:
            threads = [_worker_thread(coordinator.address,
                                      worker_id=f"w{i}", max_configs=3)
                       for i in range(2)]
            result = coordinator.run()
            for thread in threads:
                thread.join(timeout=10)
        assert result.history == serial_history
        stats = coordinator.stats()
        assert stats["local_evaluations"] == 0
        assert stats["submissions"]["accepted"] == len(serial_history)
        assert stats["workers"]["seen"] == 2

    def test_worker_fault_plan_ends_with_its_run(self, space,
                                                 serial_history):
        """An in-process worker's fault plan lasts as long as its run:
        afterwards the process has the injector it had before."""
        before = faults.install(FaultPlan(delay_ms=1.0, seed=3))
        try:
            campaign = _fresh_campaign(space)
            with CampaignCoordinator(campaign, _socket_path(),
                                     local_fallback_s=None) as coordinator:
                done = {}
                runner = threading.Thread(
                    target=lambda: done.setdefault("r", coordinator.run()),
                    daemon=True)
                runner.start()
                worker = CampaignWorker(
                    coordinator.address, worker_id="faulty", max_configs=3,
                    fault_plan=FaultPlan(delay_ms=2.0, seed=4))
                summary = worker.run()
                runner.join(timeout=30)
            assert not runner.is_alive()
            assert done["r"].history == serial_history
            assert summary["evaluations"] >= len(serial_history)
            assert faults.active() is before
        finally:
            faults.uninstall()

    def test_elastic_join_and_leave_mid_campaign(self, space, serial_history):
        """Workers arriving after the run starts and leaving before it ends
        must not change the history."""
        campaign = _fresh_campaign(space)
        with CampaignCoordinator(campaign, _socket_path(),
                                 local_fallback_s=None) as coordinator:
            done = {}
            runner = threading.Thread(
                target=lambda: done.setdefault("r", coordinator.run()))
            runner.start()
            # nobody is connected yet: the run must be blocked on leases
            time.sleep(0.2)
            assert runner.is_alive()
            # one short-lived worker takes a single lease and leaves...
            early = CampaignWorker(coordinator.address, worker_id="early",
                                   max_configs=2)
            early.run(max_leases=1)
            assert runner.is_alive()
            # ...then two late joiners finish the campaign
            threads = [_worker_thread(coordinator.address,
                                      worker_id=f"late{i}", max_configs=3)
                       for i in range(2)]
            runner.join(timeout=30)
            assert not runner.is_alive()
            for thread in threads:
                thread.join(timeout=10)
        assert done["r"].history == serial_history
        assert coordinator.stats()["workers"]["seen"] == 3

    def test_lease_expiry_reissues_configs(self, space, serial_history):
        campaign = _fresh_campaign(space)
        with CampaignCoordinator(campaign, _socket_path(),
                                 local_fallback_s=None,
                                 lease_timeout=0.2) as coordinator:
            done = {}
            runner = threading.Thread(
                target=lambda: done.setdefault("r", coordinator.run()))
            runner.start()
            # a "worker" that leases two configs, never heartbeats, never
            # submits — its lease must expire and the configs reissue
            with DaemonClient(coordinator.address) as client:
                assert _await(lambda: not client.request(
                    {"op": "lease", "worker": "ghost",
                     "max_configs": 2}).get("empty"), timeout=5.0)
            thread = _worker_thread(coordinator.address, worker_id="real",
                                    max_configs=3)
            runner.join(timeout=30)
            assert not runner.is_alive()
            thread.join(timeout=10)
        assert done["r"].history == serial_history
        stats = coordinator.stats()
        assert stats["leases"]["expired"] >= 1
        assert stats["leases"]["reissued_configs"] >= 1

    def test_submissions_are_idempotent(self, space):
        campaign = _fresh_campaign(space)
        with CampaignCoordinator(campaign, _socket_path(),
                                 local_fallback_s=None,
                                 lease_timeout=30.0) as coordinator:
            runner = _runner_thread(coordinator)
            with DaemonClient(coordinator.address) as client:
                grant = None

                def leased():
                    nonlocal grant
                    grant = client.request({"op": "lease", "worker": "w0",
                                            "max_configs": 1})
                    return not grant.get("empty")

                assert _await(leased, timeout=5.0)
                item = grant["configs"][0]
                submit = {"op": "submit", "worker": "w0",
                          "campaign": grant["campaign"],
                          "lease": grant["lease"], "eval": item["eval"],
                          "attempt": item["attempt"], "value": 1.25}
                first = client.request(submit)
                assert first == {"accepted": True, "state": "recorded"}
                # byte-for-byte duplicate: acknowledged, not re-recorded
                assert client.request(submit)["state"] == "duplicate"
                # wrong attempt on a fresh slot: stale
                grant2 = client.request({"op": "lease", "worker": "w0",
                                         "max_configs": 1})
                item2 = grant2["configs"][0]
                stale = dict(submit, lease=grant2["lease"],
                             eval=item2["eval"],
                             attempt=item2["attempt"] + 5)
                assert client.request(stale)["state"] == "stale"
                # a submission from a previous coordinator incarnation
                foreign = dict(submit, campaign="c-previous-life")
                assert client.request(foreign)["state"] == "foreign"
                stats = coordinator.stats()
                assert stats["submissions"]["accepted"] == 1
                assert stats["submissions"]["duplicate"] == 1
                assert stats["submissions"]["stale"] == 1
                assert stats["submissions"]["foreign"] == 1
            coordinator.shutdown()
            runner.join(timeout=10)

    def test_heartbeat_keeps_lease_alive(self, space):
        campaign = _fresh_campaign(space)
        with CampaignCoordinator(campaign, _socket_path(),
                                 local_fallback_s=None,
                                 lease_timeout=0.3) as coordinator:
            runner = _runner_thread(coordinator)
            with DaemonClient(coordinator.address) as client:
                grant = None

                def leased():
                    nonlocal grant
                    grant = client.request({"op": "lease", "worker": "w0",
                                            "max_configs": 1})
                    return not grant.get("empty")

                assert _await(leased, timeout=5.0)
                beat = {"op": "heartbeat", "worker": "w0",
                        "lease": grant["lease"]}
                for _ in range(6):                 # 0.6 s > lease_timeout
                    time.sleep(0.1)
                    assert client.request(beat)["valid"]
                # stop beating past the window: the lease must expire
                # (polling with heartbeats would itself renew the lease)
                time.sleep(1.0)
                assert not client.request(beat)["valid"]
            coordinator.shutdown()
            runner.join(timeout=10)

    def test_stop_and_resume_reproduces_serial(self, space, serial_history,
                                               tmp_path):
        ck = str(tmp_path / "fleet-ck")
        campaign = _fresh_campaign(space, checkpoint_path=ck)
        with CampaignCoordinator(campaign, _socket_path(),
                                 local_fallback_s=0.05) as coordinator:
            partial = coordinator.run(max_evals=8)
        assert 0 < partial.evaluations < len(serial_history)
        resumed = CampaignCoordinator.resume(ck, _socket_path(),
                                             local_fallback_s=0.05)
        # a new incarnation gets a new campaign id (stale submits are void)
        assert resumed.campaign_id != coordinator.campaign_id
        with resumed:
            result = resumed.run()
        assert result.history == serial_history
        # checkpoint hygiene: no swap leftovers after resume
        assert not os.path.exists(TuningCampaign._previous_path(ck))
        assert not os.path.exists(TuningCampaign._staging_path(ck))

    def test_midbatch_stop_discards_inflight_batch(self, space,
                                                   serial_history, tmp_path):
        """Stopping while a batch is outstanding must roll back to the last
        batch boundary (proposal RNG included) so resume stays exact."""
        ck = str(tmp_path / "fleet-ck")
        campaign = _fresh_campaign(space, checkpoint_path=ck)
        with CampaignCoordinator(campaign, _socket_path(),
                                 local_fallback_s=0.05) as coordinator:
            coordinator.run(max_evals=8)       # two clean batches
        campaign2 = TuningCampaign.resume(ck)
        with CampaignCoordinator(campaign2, _socket_path(),
                                 local_fallback_s=None) as coordinator2:
            done = {}
            runner = threading.Thread(
                target=lambda: done.setdefault("r", coordinator2.run()))
            runner.start()
            # wait until batch 3's slots are posted (leases would be
            # grantable), then stop with the batch still in flight
            assert _await(lambda: coordinator2.stats()["batch"]["pending"]
                          > 0, timeout=10.0)
            coordinator2.shutdown()
            runner.join(timeout=10)
            assert not runner.is_alive()
        assert done["r"].evaluations == 8      # in-flight batch discarded
        final = TuningCampaign.resume(ck)
        assert final.run().history == serial_history

    def test_shutdown_joins_accept_and_connection_threads(self, space):
        """``shutdown()`` returns only after the loop thread that serves
        every connection has exited, with clients still connected."""
        before = set(threading.enumerate())
        coordinator = CampaignCoordinator(_fresh_campaign(space),
                                          _socket_path()).start()
        clients = [DaemonClient(coordinator.address) for _ in range(3)]
        try:
            assert all(client.ping() for client in clients)
            coordinator.shutdown()
            leaked = [t.name for t in threading.enumerate()
                      if t not in before]
            assert leaked == []
        finally:
            for client in clients:
                client.close()


    def test_one_loop_thread_serves_every_client(self, space):
        """Three connected clients are served by one ``fleet-loop`` thread,
        and ``shutdown()`` leaves no thread and no fd behind."""
        def cycle():
            before = set(threading.enumerate())
            coordinator = CampaignCoordinator(_fresh_campaign(space),
                                              _socket_path()).start()
            clients = [DaemonClient(coordinator.address) for _ in range(3)]
            try:
                assert all(client.ping() for client in clients)
                serving = [t.name for t in threading.enumerate()
                           if t not in before]
                coordinator.shutdown()
                leaked = [t.name for t in threading.enumerate()
                          if t not in before]
                return serving, leaked
            finally:
                for client in clients:
                    client.close()

        def open_fds() -> int:
            return len(os.listdir("/proc/self/fd"))

        assert cycle() == (["fleet-loop"], [])      # the warm-up cycle
        opened = open_fds()
        assert cycle() == (["fleet-loop"], [])
        assert open_fds() <= opened


class TestWakeTime:
    """When ``run`` wakes without a request, at a fixed ``now``."""

    def _coordinator(self, space, local_fallback_s):
        coordinator = CampaignCoordinator(_fresh_campaign(space),
                                          _socket_path(),
                                          local_fallback_s=local_fallback_s)
        coordinator._slots = [_Slot(i, i, space[i]) for i in range(4)]
        coordinator._slot_by_eval = {slot.eval_index: slot
                                     for slot in coordinator._slots}
        return coordinator

    def _wake(self, coordinator, now):
        with coordinator._lock:
            return coordinator._next_wake_locked(now)

    def test_nothing_to_wait_for(self, space):
        assert self._wake(self._coordinator(space, None), 100.0) is None

    def test_fallback_moment_until_it_passes(self, space):
        coordinator = self._coordinator(space, 1.0)
        coordinator._last_worker_contact = 100.0
        assert self._wake(coordinator, 100.5) == 101.0
        # once due, pending slots are claimed at once: no wake is needed
        assert self._wake(coordinator, 101.5) is None

    def test_earliest_lease_deadline_and_heartbeat(self, space):
        coordinator = self._coordinator(space, 10.0)
        now = time.monotonic()
        for _ in range(2):
            coordinator._handle_lease({"worker": "w", "max_configs": 1})
        first, second = (coordinator._leases[lease].deadline
                         for lease in ("l0", "l1"))
        assert now < first <= second < coordinator._last_worker_contact + 10
        assert self._wake(coordinator, now) == first
        assert coordinator._handle_heartbeat({"worker": "w",
                                              "lease": "l0"})["valid"]
        assert coordinator._leases["l0"].deadline > first
        assert self._wake(coordinator, now) == second
        # a fallback moment ahead of both deadlines wins
        coordinator._last_worker_contact = now - 9.5
        fallback = coordinator._last_worker_contact + 10.0
        assert now < fallback < first
        assert self._wake(coordinator, now) == fallback


# ----------------------------------------------------------------------
# DaemonClient bounded retry (satellite)
# ----------------------------------------------------------------------
def _fake_server(listener, script):
    """Serve one connection; per request, run script[i] -> response dict."""
    seen = []

    def serve():
        conn, _ = listener.accept()
        channel = LineChannel(conn)
        while True:
            try:
                request = channel.recv(timeout=10.0)
            except (ProtocolError, OSError):
                break
            if request is None:
                break
            seen.append(request)
            index = min(len(seen) - 1, len(script) - 1)
            response = script[index](request)
            if response is None:
                break                      # hang up mid-request
            channel.send(response)
        channel.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return seen, thread


class TestClientRetry:
    def test_default_is_single_attempt(self):
        missing = _socket_path()
        with pytest.raises(OSError):
            DaemonClient(missing).request({"op": "ping"})

    def test_connect_retry_waits_for_listener(self):
        path = _socket_path()
        bound = []

        def bind_late():
            time.sleep(0.4)
            listener, _ = create_listener(path)
            bound.append(listener)
            _fake_server(listener, [
                lambda req: ok_response(req["id"], {"pong": True})])

        threading.Thread(target=bind_late, daemon=True).start()
        client = DaemonClient(path, retries=12, backoff_base=0.05)
        try:
            assert client.ping(timeout=5.0)
        finally:
            client.close()
            for listener in bound:
                close_listener(listener, path)

    def test_overloaded_shed_is_retried(self):
        path = _socket_path()
        listener, _ = create_listener(path)
        try:
            seen, _ = _fake_server(listener, [
                lambda req: error_response(req["id"], "overloaded", "shed"),
                lambda req: ok_response(req["id"], {"pong": True}),
            ])
            client = DaemonClient(path, retries=3, backoff_base=0.01)
            assert client.ping(timeout=5.0)
            assert len(seen) == 2
            client.close()
        finally:
            close_listener(listener, path)

    def test_overloaded_without_retries_raises(self):
        path = _socket_path()
        listener, _ = create_listener(path)
        try:
            _fake_server(listener, [
                lambda req: error_response(req["id"], "overloaded", "shed")])
            client = DaemonClient(path)
            with pytest.raises(DaemonError) as excinfo:
                client.ping(timeout=5.0)
            assert excinfo.value.overloaded
            client.close()
        finally:
            close_listener(listener, path)

    def test_midrequest_break_is_never_retried(self):
        path = _socket_path()
        listener, _ = create_listener(path)
        try:
            seen, _ = _fake_server(listener, [lambda req: None])  # read, hang up
            client = DaemonClient(path, retries=5, backoff_base=0.01)
            with pytest.raises((ConnectionError, OSError)):
                client.request({"op": "ping"}, timeout=5.0)
            assert len(seen) == 1       # the request was not resent
            client.close()
        finally:
            close_listener(listener, path)

    def test_non_overloaded_errors_are_not_retried(self):
        path = _socket_path()
        listener, _ = create_listener(path)
        try:
            seen, _ = _fake_server(listener, [
                lambda req: error_response(req["id"], "bad_request", "nope")])
            client = DaemonClient(path, retries=5, backoff_base=0.01)
            with pytest.raises(DaemonError):
                client.request({"op": "ping"}, timeout=5.0)
            assert len(seen) == 1
            client.close()
        finally:
            close_listener(listener, path)
