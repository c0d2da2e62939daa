"""Chaos suite: fleet campaigns under injected faults.

Every test here drives a real coordinator with real subprocess (or thread)
workers while ``repro.serve.faults`` drops, delays, and duplicates frames,
stalls heartbeats, and SIGKILLs workers — and asserts the one property the
fleet layer exists to protect: **the tuning history is byte-identical to a
serial ``workers=1`` run**.  The standard fault plan's seed is pinned via
``REPRO_FAULT_SEED`` in CI so failures replay deterministically.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.serve.faults import FaultPlan
from repro.simulator.microarch import COMET_LAKE_8C
from repro.tuners import (
    CampaignCoordinator,
    CampaignWorker,
    SimObjectiveSpec,
    TuningCampaign,
    full_search_space,
    make_tuner,
    run_worker,
)

from conftest import short_socket_path

# The chaos suite's standard fault plan (ISSUE: "a standard fault plan").
# CI pins REPRO_FAULT_SEED so a red run reproduces bit-for-bit.
FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "1234"))
STANDARD_PLAN = FaultPlan(drop=0.15, dup=0.15, delay_ms=10.0,
                          kill_after=5, stall_after=2, stall_for=0.6,
                          seed=FAULT_SEED)

_FORK = multiprocessing.get_context("fork")


def _socket_path():
    return short_socket_path("repro-chaos-")


def _spec(**overrides):
    defaults = dict(kernel_uid="polybench/atax", arch=COMET_LAKE_8C,
                    scale=0.2, noise=0.015, seed=42)
    defaults.update(overrides)
    return SimObjectiveSpec(**defaults)


def _campaign(space, **kwargs):
    kwargs.setdefault("batch_size", 8)
    return TuningCampaign(make_tuner("random", budget=24, seed=0),
                          space, _spec(**kwargs.pop("spec_overrides", {})),
                          **kwargs)


@pytest.fixture(scope="module")
def space():
    return full_search_space(threads=(1, 2, 4, 8), chunks=(1, 32, 256))


@pytest.fixture(scope="module")
def serial_history(space):
    return _campaign(space).run().history


def _spawn_workers(address, count, plan, **kwargs):
    """Fork real worker processes so SIGKILL faults kill a whole process."""
    procs = []
    for index in range(count):
        proc = _FORK.Process(
            target=run_worker, args=(address,),
            kwargs=dict(worker_id=f"chaos{index}", fault_plan=plan,
                        fault_seed_offset=index + 1, **kwargs),
            daemon=True)
        proc.start()
        procs.append(proc)
    return procs


def _reap(procs, timeout=30.0):
    deadline = time.monotonic() + timeout
    for proc in procs:
        proc.join(timeout=max(0.1, deadline - time.monotonic()))
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=5.0)
    return [proc.exitcode for proc in procs]


class TestChaos:
    def test_worker_sigkill_history_identical(self, space, serial_history):
        """kill_after=5 SIGKILLs every worker mid-lease (after the value is
        computed, before it is submitted) — the nastiest window."""
        campaign = _campaign(space)
        with CampaignCoordinator(campaign, _socket_path(),
                                 lease_timeout=0.5,
                                 local_fallback_s=1.0,
                                 max_lease_configs=4) as coordinator:
            procs = _spawn_workers(coordinator.address, 3, STANDARD_PLAN,
                                   max_configs=2, request_timeout=1.0,
                                   retries=6, backoff_base=0.02)
            result = coordinator.run()
            exitcodes = _reap(procs)
        assert result.history == serial_history
        # workers die by SIGKILL on their 5th evaluation; a worker that the
        # scheduler starved below 5 evals exits 0, so require a majority of
        # violent deaths rather than all three
        assert sum(code == -signal.SIGKILL for code in exitcodes) >= 2
        stats = coordinator.stats()
        assert stats["leases"]["expired"] >= 1
        assert stats["leases"]["reissued_configs"] >= 1

    def test_frame_faults_only_no_local_fallback(self, space, serial_history):
        """Drops/dups/delays alone (no kills): workers must still deliver
        every result themselves, exactly once each."""
        plan = FaultPlan(drop=0.2, dup=0.2, delay_ms=5.0, seed=FAULT_SEED)
        campaign = _campaign(space)
        with CampaignCoordinator(campaign, _socket_path(),
                                 lease_timeout=0.5,
                                 local_fallback_s=None,
                                 max_lease_configs=4) as coordinator:
            procs = _spawn_workers(coordinator.address, 2, plan,
                                   max_configs=3, request_timeout=1.0,
                                   retries=10, backoff_base=0.02)
            result = coordinator.run()
            exitcodes = _reap(procs)
        assert result.history == serial_history
        assert all(code == 0 for code in exitcodes)
        stats = coordinator.stats()
        assert stats["local_evaluations"] == 0
        assert stats["submissions"]["accepted"] == len(serial_history)

    def test_stalled_heartbeats_trigger_reissue(self, space):
        """A worker whose heartbeats all vanish keeps losing leases; the
        campaign still terminates with the serial history because each
        re-lease completes at least one config inside the lease window."""
        plan = FaultPlan(stall_after=0, stall_for=3600.0, seed=FAULT_SEED)
        walltime = dict(walltime_scale=2000.0, walltime_cap=0.08)
        serial = _campaign(space, spec_overrides=walltime).run().history
        # the lease window (0.25 s) fits ~3 of the 4 leased ~0.08 s evals:
        # every lease expires mid-flight (forcing reissue) yet each re-lease
        # still lands >= 2 configs, so the campaign terminates
        campaign = _campaign(space, spec_overrides=walltime)
        with CampaignCoordinator(campaign, _socket_path(),
                                 lease_timeout=0.25,
                                 local_fallback_s=None,
                                 max_lease_configs=4) as coordinator:
            worker = CampaignWorker(coordinator.address, worker_id="stalled",
                                    max_configs=4, request_timeout=2.0,
                                    fault_plan=plan)
            import threading
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            result = coordinator.run()
            thread.join(timeout=15)
        assert result.history == serial
        stats = coordinator.stats()
        assert stats["leases"]["expired"] >= 1
        assert stats["submissions"]["stale"] + \
            stats["leases"]["reissued_configs"] >= 1


class TestCoordinatorKillResume:
    def test_cli_coordinator_sigkill_then_resume(self, space, tmp_path):
        """SIGKILL the coordinator *process* mid-campaign, resume from its
        checkpoint with fresh workers, and match the serial history."""
        ck = str(tmp_path / "fleet-ck")
        listen = f"unix://{_socket_path()}"
        base = [sys.executable, "-m", "repro.serve", "fleet-coordinator",
                "--kernel", "polybench/atax", "--arch", "comet_lake",
                "--tuner", "random", "--budget", "24", "--batch-size", "4",
                "--scale", "0.2", "--noise", "0.015", "--sim-seed", "42",
                "--seed", "0", "--walltime-scale", "2000",
                "--walltime-cap", "0.05", "--checkpoint", ck,
                "--local-fallback", "0.25", "--linger", "5",
                "--listen", listen]
        env = dict(os.environ, PYTHONPATH="src",
                   REPRO_FAULTS="drop=0.1,delay_ms=5",
                   REPRO_FAULT_SEED=str(FAULT_SEED))
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

        def start_workers(address, count=2):
            return [subprocess.Popen(
                [sys.executable, "-m", "repro.serve", "fleet-worker",
                 "--coordinator", address, "--max-configs", "2",
                 "--request-timeout", "2", "--retries", "20",
                 "--fault-seed-offset", str(i + 1)],
                env=env, cwd=repo, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL) for i in range(count)]

        first = subprocess.Popen(base, env=env, cwd=repo,
                                 stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, text=True)
        workers = []
        try:
            ready = json.loads(first.stdout.readline())
            assert ready["ready"]
            workers = start_workers(ready["listen"])
            # wait for real progress (>= 2 settled batches), then murder it
            from repro.serve.client import DaemonClient
            deadline = time.monotonic() + 60
            with DaemonClient(ready["listen"], retries=10,
                              backoff_base=0.05) as client:
                while time.monotonic() < deadline:
                    stats = client.request({"op": "stats"}, timeout=5.0)
                    if stats["progress"]["batches"] >= 2:
                        break
                    if stats["progress"]["done"]:
                        break
                    time.sleep(0.05)
                else:
                    pytest.fail("coordinator made no progress")
                assert not stats["progress"]["done"], \
                    "campaign finished before it could be killed"
            os.kill(first.pid, signal.SIGKILL)
            first.wait(timeout=10)
        finally:
            for proc in workers:
                proc.kill()
            if first.poll() is None:
                first.kill()
            first.wait(timeout=10)

        # resume: same checkpoint, a fresh socket, fresh workers
        listen2 = f"unix://{_socket_path()}"
        resume_cmd = [sys.executable, "-m", "repro.serve",
                      "fleet-coordinator", "--resume", ck,
                      "--local-fallback", "0.25", "--linger", "0.2",
                      "--listen", listen2]
        second = subprocess.Popen(resume_cmd, env=env, cwd=repo,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True)
        workers2 = []
        try:
            ready2 = json.loads(second.stdout.readline())
            workers2 = start_workers(ready2["listen"])
            out, err = second.communicate(timeout=120)
        finally:
            for proc in workers2:
                proc.kill()
            if second.poll() is None:
                second.kill()
                second.communicate(timeout=10)
        assert second.returncode == 0, err
        result = json.loads(out)    # the ready line was already consumed
        assert result["finished"]
        assert result["evaluations"] == 24

        # the recovered history must be byte-identical to a serial run
        final = TuningCampaign.resume(ck)
        serial = TuningCampaign(
            make_tuner("random", budget=24, seed=0),
            # the CLI builds --space full over the arch's thread range
            full_search_space(max_threads=COMET_LAKE_8C.max_threads),
            _spec(walltime_scale=2000.0, walltime_cap=0.05),
            batch_size=4).run()
        assert final.history == serial.history
        # checkpoint hygiene survives the crash + resume
        assert not os.path.exists(TuningCampaign._previous_path(ck))
        assert not os.path.exists(TuningCampaign._staging_path(ck))
