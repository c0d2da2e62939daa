"""The serving daemon: protocol, batching, failure paths, CLI, wiring."""

import json
import os
import signal
import socket
import subprocess
import sys
import collections
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import MGATuner
from repro.kernels import registry as kernel_registry
from repro.serve import daemon as daemon_module
from repro.serve import (
    DaemonClient,
    DaemonError,
    InferenceEngine,
    ModelRegistry,
    ServeDaemon,
    TuneRequest,
    TuningService,
)
from repro.serve import faults
from repro.serve.daemon import _PendingRequest, _Worker
from repro.serve.protocol import (
    ClientConnection,
    LineChannel,
    ProtocolError,
    decode_frame,
    encode_body,
    encode_frame,
    ok_frame,
    ok_response,
)
from repro.simulator.microarch import COMET_LAKE_8C, SKYLAKE_4114
from repro.tuners.campaign import (
    LookupObjectiveSpec,
    SearchSession,
    run_search_sessions,
)
from repro.tuners.space import full_search_space

from conftest import short_socket_path

TRAIN_KW = dict(gnn_hidden=12, gnn_out=12, dae_hidden=24, dae_code=8,
                mlp_hidden=16)


def _socket_path() -> str:
    return short_socket_path("repro-daemon-")


@pytest.fixture(scope="module")
def registry_root(tmp_path_factory, small_openmp_dataset, extractor):
    """A registry with one published (small, fast-trained) OpenMP tuner."""
    ds = small_openmp_dataset
    tuner = MGATuner(COMET_LAKE_8C, ds.configs, extractor=extractor, seed=0,
                     **TRAIN_KW)
    tuner.fit(ds, epochs=2, dae_epochs=2)
    root = str(tmp_path_factory.mktemp("daemon-registry"))
    ModelRegistry(root).publish("openmp", tuner)
    return root


@pytest.fixture(scope="module")
def serving_daemon(registry_root):
    """One warm daemon shared by the serving tests (module scoped)."""
    path = _socket_path()
    with ServeDaemon(path, registry_root=registry_root, workers=2,
                     max_batch=4, max_queue=64,
                     preload=["openmp"]) as daemon:
        yield daemon


def _wait_for(condition, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


def _sessions(count: int):
    space = full_search_space(max_threads=SKYLAKE_4114.max_threads)
    rng = np.random.default_rng(3)
    sessions = []
    for i in range(count):
        times = rng.uniform(1e-3, 1e-1, size=(2, len(space)))
        sessions.append(SearchSession(
            tuner_name="random", tuner_config={"budget": 6, "seed": i},
            space=space.to_config(), objective=LookupObjectiveSpec(times)))
    return sessions


# ----------------------------------------------------------------------
class TestDaemonServing:
    def test_concurrent_tunes_byte_identical_to_engine(self, registry_root,
                                                       serving_daemon):
        specs = [kernel_registry.get_kernel(uid)
                 for uid in ("polybench/atax", "polybench/gemm",
                             "rodinia/kmeans")]
        requests = [(spec, scale) for spec in specs
                    for scale in (0.5, 1.0, 2.0)]

        tuner = ModelRegistry(registry_root).load("openmp")
        with InferenceEngine(tuner, max_batch_size=4) as engine:
            reference = [engine.tune(spec, scale)
                         for spec, scale in requests]

        def one(item):
            spec, scale = item
            with DaemonClient(serving_daemon.socket_path) as client:
                return client.request({"op": "tune", "model": "openmp",
                                       "kernel": spec.uid, "scale": scale})

        with ThreadPoolExecutor(max_workers=6) as pool:
            responses = list(pool.map(one, requests))

        for response, (config, counters) in zip(responses, reference):
            assert response["config_label"] == config.label()
            assert response["num_threads"] == config.num_threads
            assert response["schedule"] == config.schedule.value
            assert response["chunk_size"] == config.chunk_size
            assert response["counters"] == dict(counters)
            assert response["version"] == 1
            assert response["latency_ms"] > 0

        stats = serving_daemon.stats()
        assert stats["per_model"]["openmp"] >= len(requests)
        assert stats["batches"]["count"] >= 1
        assert stats["latency_ms"]["p99"] >= stats["latency_ms"]["p50"] > 0

    def test_tuning_service_forwards_to_daemon(self, serving_daemon):
        with TuningService(daemon=serving_daemon.socket_path) as service:
            response = service.tune(TuneRequest(
                model="openmp", kernel="polybench/atax", target_bytes=32e6))
            assert response.model == "openmp" and response.version == 1
            assert response.config_label.startswith(
                f"t{response.num_threads}/")
            assert response.scale > 0
            stats = service.stats()
        assert stats["requests"] == 1 and stats["errors"] == 0
        assert "daemon" in stats

    def test_request_error_codes(self, serving_daemon):
        with DaemonClient(serving_daemon.socket_path) as client:
            with pytest.raises(DaemonError) as err:
                client.request({"op": "tune", "model": "ghost",
                                "kernel": "polybench/gemm"})
            assert err.value.code == "bad_request"
            with pytest.raises(DaemonError) as err:
                client.request({"op": "tune", "model": "openmp",
                                "kernel": "polybench/gemm",
                                "scale": 1.0, "target_bytes": 1e6})
            assert "target_bytes" in err.value.message
            with pytest.raises(DaemonError) as err:
                client.request({"op": "_sleep", "seconds": 0.01})
            assert "debug ops are disabled" in err.value.message
            # the connection survives every error response
            assert client.ping()

    def test_unknown_kernel_is_a_bad_request(self, serving_daemon):
        """Workers share one resolved spec per uid; a uid the registry does
        not know is still rejected per request, and the next good request
        on the same connection is answered."""
        with DaemonClient(serving_daemon.socket_path) as client:
            for _ in range(2):
                with pytest.raises(DaemonError) as err:
                    client.request({"op": "tune", "model": "openmp",
                                    "kernel": "polybench/no-such-kernel",
                                    "scale": 1.25})
                assert err.value.code == "bad_request"
                assert "no-such-kernel" in err.value.message
            answer = client.request({"op": "tune", "model": "openmp",
                                     "kernel": "polybench/gemm",
                                     "scale": 1.25})
            assert answer["kernel"] == "polybench/gemm"

    def test_failed_requests_leave_per_model_bounded(self, serving_daemon):
        before = set(serving_daemon.stats()["per_model"])
        with DaemonClient(serving_daemon.socket_path) as client:
            for i in range(50):
                with pytest.raises(DaemonError) as err:
                    client.request({"op": "tune", "model": f"ghost-{i}",
                                    "kernel": "polybench/gemm"})
                assert err.value.code == "bad_request"
        assert set(serving_daemon.stats()["per_model"]) == before


# ----------------------------------------------------------------------
class TestDaemonFailurePaths:
    def test_malformed_requests(self):
        path = _socket_path()
        with ServeDaemon(path, workers=1, max_batch=2):
            raw = socket.socket(socket.AF_UNIX)
            raw.connect(path)
            raw.sendall(b"not json at all\n")
            response = json.loads(raw.recv(65536).split(b"\n")[0])
            assert response["ok"] is False
            assert response["error"]["code"] == "bad_request"
            raw.close()

            with DaemonClient(path) as client:
                for document in ({"op": "nope"}, {"op": "tune"},
                                 {"op": "session"}, {"no_op": True}):
                    with pytest.raises(DaemonError) as err:
                        client.request(document)
                    assert err.value.code == "bad_request"
                assert client.ping()     # daemon is still healthy

    def test_unhandled_frame_hangs_up_on_its_client_only(self,
                                                         monkeypatch):
        """A frame that breaks its handler is answered and closes that one
        connection; the loop keeps serving every other client."""
        path = _socket_path()
        with ServeDaemon(path, workers=1, max_batch=1,
                         debug_ops=True) as daemon, \
                DaemonClient(path, timeout=30) as bystander:
            with DaemonClient(path, timeout=30) as client:
                with pytest.raises(DaemonError) as err:
                    client.request({"op": "tune", "model": "m",
                                    "kernel": "k", "version": [1]})
                assert err.value.code == "bad_request"

            def broken_route(document, op):
                raise TypeError("unhashable route")

            monkeypatch.setattr(daemon, "_route_of", broken_route)
            raw = socket.socket(socket.AF_UNIX)
            raw.settimeout(30)
            raw.connect(path)
            raw.sendall(b'{"op": "_sleep", "seconds": 0}\n')
            response = json.loads(raw.recv(65536).split(b"\n")[0])
            assert response["error"]["code"] == "bad_request"
            assert raw.recv(65536) == b""          # hung up on
            raw.close()
            monkeypatch.undo()

            assert bystander.ping()
            assert bystander.request({"op": "_sleep",
                                      "seconds": 0.0})["slept"] == 0.0

    def test_shutdown_joins_loop_threads(self):
        """``shutdown()`` returns only after every thread it started has
        exited, with a client still connected, and leaves no fd behind."""
        def cycle():
            before = set(threading.enumerate())
            daemon = ServeDaemon(_socket_path(), workers=1,
                                 max_batch=1).start()
            client = DaemonClient(daemon.address)
            try:
                assert client.ping()
                daemon.shutdown()
                return [t.name for t in threading.enumerate()
                        if t not in before]
            finally:
                client.close()

        def open_fds() -> int:
            return len(os.listdir("/proc/self/fd"))

        assert cycle() == []              # the warm-up cycle
        opened = open_fds()
        assert cycle() == []
        assert open_fds() == opened

    def test_start_fails_fast_when_a_worker_exits_before_ready(
            self, monkeypatch):
        def children():
            pids = set()
            for task in os.listdir("/proc/self/task"):
                with open(f"/proc/self/task/{task}/children") as f:
                    pids.update(f.read().split())
            return pids

        monkeypatch.setattr(daemon_module, "_worker_main",
                            lambda *args: os._exit(3))
        path = _socket_path()
        before = children()
        daemon = ServeDaemon(path, workers=2, mp_start_method="fork")
        started = time.monotonic()
        with pytest.raises(RuntimeError, match=r"worker \d+ exited"):
            daemon.start(ready_timeout=30)
        assert time.monotonic() - started < 5.0
        assert children() == before          # every worker reaped
        assert not os.path.exists(path)

    def test_queue_overflow_sheds_with_structured_response(self):
        path = _socket_path()
        with ServeDaemon(path, workers=1, max_batch=1,
                         max_queue=2, debug_ops=True) as daemon:
            with ThreadPoolExecutor(max_workers=10) as pool:
                busy = pool.submit(
                    lambda: DaemonClient(path).request(
                        {"op": "_sleep", "seconds": 0.8}))
                time.sleep(0.2)          # the sleep is on the worker now

                def try_one():
                    try:
                        DaemonClient(path).request({"op": "_sleep",
                                                    "seconds": 0.01})
                        return "ok"
                    except DaemonError as exc:
                        assert exc.overloaded
                        assert exc.detail.get("queue_depth") >= 2
                        return exc.code
                outcomes = [pool.submit(try_one) for _ in range(6)]
                outcomes = sorted(f.result(timeout=60) for f in outcomes)
                busy.result(timeout=60)
            assert "overloaded" in outcomes          # load was shed...
            assert "ok" in outcomes                  # ...but not all of it
            stats = daemon.stats()
            assert stats["requests"]["shed"] >= 1
            # the daemon serves normally once the backlog clears
            with DaemonClient(path) as client:
                assert client.request({"op": "_sleep",
                                       "seconds": 0.0})["slept"] == 0.0

    def test_worker_crash_mid_batch_retries_and_heals(self):
        path = _socket_path()
        with ServeDaemon(path, workers=2, max_batch=4,
                         max_queue=32, debug_ops=True) as daemon:
            with ThreadPoolExecutor(max_workers=8) as pool:
                def sleeper():
                    return DaemonClient(path).request(
                        {"op": "_sleep", "seconds": 1.0})

                def crash():
                    try:
                        DaemonClient(path).request({"op": "_crash"})
                        return "no-error"
                    except DaemonError as exc:
                        return exc.code

                def victim():
                    return DaemonClient(path).request(
                        {"op": "_sleep", "seconds": 0.01})

                # occupy every worker first (one sleeper each, so none is
                # co-batched): the crash and its victims then queue on the
                # debug route and leave together as one batch
                sleepers = []
                for busy in (1, 2):
                    sleepers.append(pool.submit(sleeper))
                    _wait_for(lambda: daemon.stats()["queue"][
                        "inflight_batches"] == busy)
                crash_future = pool.submit(crash)
                victims = [pool.submit(victim) for _ in range(3)]
                _wait_for(lambda: daemon.stats()["queue"]["depth"] == 4)
                # the crash op fails cleanly, never retried
                assert crash_future.result(timeout=60) == "worker_crashed"
                # co-batched innocents are retried on a healthy worker
                for future in victims:
                    assert future.result(timeout=60)["slept"] == 0.01
                for future in sleepers:
                    assert future.result(timeout=60)["slept"] == 1.0
            _wait_for(lambda: daemon.stats()["workers"]["alive"] == 2)
            stats = daemon.stats()
            assert stats["workers"]["alive"] == 2    # pool healed
            assert stats["workers"]["restarts"] >= 1
            assert stats["requests"]["retried"] >= 1
            with DaemonClient(path) as client:       # and still serves
                assert client.request({"op": "_sleep",
                                       "seconds": 0.0})["slept"] == 0.0

    def test_idle_worker_sigkill_is_replaced_without_traffic(self):
        path = _socket_path()
        with ServeDaemon(path, workers=2, max_batch=1,
                         debug_ops=True) as daemon:
            victim = list(daemon._pool.values())[0].process.pid
            os.kill(victim, signal.SIGKILL)
            _wait_for(lambda: daemon.stats()["workers"]["restarts"] == 1)
            _wait_for(lambda: daemon.stats()["workers"]["alive"] == 2)
            with DaemonClient(path) as client:
                assert client.request({"op": "_sleep",
                                       "seconds": 0.0})["slept"] == 0.0

    def test_drain_on_shutdown_completes_outstanding_work(self):
        path = _socket_path()
        daemon = ServeDaemon(path, workers=2, max_batch=1,
                             max_queue=32, debug_ops=True).start()
        with ThreadPoolExecutor(max_workers=8) as pool:
            slow = [pool.submit(lambda: DaemonClient(path).request(
                {"op": "_sleep", "seconds": 0.3})) for _ in range(5)]
            time.sleep(0.1)
            ack = pool.submit(lambda: DaemonClient(path).shutdown())
            # every queued/in-flight request completes before the stop
            assert [f.result(timeout=60)["slept"] for f in slow] == [0.3] * 5
            assert ack.result(timeout=60) == {"stopped": True}
        assert not os.path.exists(path)              # socket removed
        with pytest.raises(OSError):
            DaemonClient(path).ping()
        # admissions during/after the drain are refused, not queued forever
        daemon.shutdown()                            # idempotent

    def test_new_requests_shed_while_draining(self):
        path = _socket_path()
        with ServeDaemon(path, workers=1, max_batch=1,
                         max_queue=32, debug_ops=True):
            with ThreadPoolExecutor(max_workers=6) as pool:
                slow = pool.submit(lambda: DaemonClient(path).request(
                    {"op": "_sleep", "seconds": 0.5}))
                time.sleep(0.1)
                ack = pool.submit(lambda: DaemonClient(path).shutdown())
                time.sleep(0.1)
                with pytest.raises((DaemonError, OSError)) as err:
                    DaemonClient(path).request({"op": "_sleep",
                                                "seconds": 0.0})
                if err.type is DaemonError:
                    assert err.value.code == "shutting_down"
                assert slow.result(timeout=60)["slept"] == 0.5
                ack.result(timeout=60)


# ----------------------------------------------------------------------
class TestLoopOwnsItsSockets:
    """The loop thread is the one writer of every client socket, and it
    tears the daemon down itself, whoever asked for the stop."""

    def test_only_the_loop_writes_to_clients(self, registry_root, tmp_path,
                                             monkeypatch):
        root = str(tmp_path / "registry")
        tuner = ModelRegistry(registry_root).load("openmp")
        for _ in range(2):                 # versions 1 and 2 of one model
            ModelRegistry(root).publish("openmp", tuner)
        writers = []
        send_frame = LineChannel.send_frame

        def recording(channel, frame):
            if isinstance(channel, ClientConnection):
                writers.append(threading.current_thread().name)
            send_frame(channel, frame)

        monkeypatch.setattr(LineChannel, "send_frame", recording)
        path = _socket_path()
        daemon = ServeDaemon(path, registry_root=root, workers=1,
                             max_batch=2, preload=["openmp"]).start()
        try:
            with DaemonClient(path) as client:
                tune = {"op": "tune", "model": "openmp",
                        "kernel": "polybench/atax", "scale": 0.5}
                assert client.request(tune)["worker"] == 0
                assert client.request(tune)["worker"] is None    # memo hit
                assert client.request({"op": "swap", "model": "openmp",
                                       "version": 1})["swapped"]
                shadow = {"op": "shadow", "model": "openmp"}
                client.request(dict(shadow, action="start", version=2))
                client.request(shadow)
                client.request(dict(shadow, action="stop"))
                with pytest.raises(DaemonError):
                    client.request({"op": "no-such-op"})
                raw = socket.socket(socket.AF_UNIX)
                raw.settimeout(30)
                raw.connect(path)
                raw.sendall(b"{not json\n")
                assert b"bad_request" in raw.recv(65536)
                raw.close()
                assert client.shutdown() == {"stopped": True}
        finally:
            daemon.shutdown()
        # nine replies: two tunes, swap, three shadows, two bad requests
        # and the shutdown ack
        assert writers == ["repro-daemon-loop"] * 9

    @pytest.mark.parametrize("stop", ["no_drain", "timeout", "op"])
    def test_stop_without_drain_answers_work_in_flight(self, stop):
        path = _socket_path()
        daemon = ServeDaemon(path, workers=1, max_batch=1,
                             debug_ops=True).start()
        pids = [worker.process.pid for worker in daemon._pool.values()]
        with ThreadPoolExecutor(max_workers=1) as pool:
            sleeper = pool.submit(lambda: DaemonClient(path).request(
                {"op": "_sleep", "seconds": 1.0}))
            _wait_for(lambda: daemon.stats()["queue"]["inflight_requests"])
            if stop == "no_drain":
                daemon.shutdown(drain=False)
            elif stop == "timeout":
                daemon.shutdown(timeout=0.2)
            else:
                assert DaemonClient(path).shutdown(drain=False) == \
                    {"stopped": True}
                daemon.shutdown()
            with pytest.raises(DaemonError) as err:
                sleeper.result(timeout=60)
        assert err.value.code == "shutting_down"
        assert not os.path.exists(path)
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


# ----------------------------------------------------------------------
class TestSessionServing:
    def test_daemon_sessions_identical_to_local(self):
        sessions = _sessions(6)
        local = run_search_sessions(sessions, workers=1)
        path = _socket_path()
        with ServeDaemon(path, workers=2, max_batch=4) as daemon:
            remote = run_search_sessions(sessions, workers=4, daemon=path)
            stats = daemon.stats()
        assert stats["per_model"]["session"] == len(sessions)
        for a, b in zip(local, remote):
            assert a.best_index == b.best_index
            assert a.best_time == b.best_time
            assert a.evaluations == b.evaluations
            np.testing.assert_array_equal(a.indices, b.indices)
            np.testing.assert_array_equal(a.times, b.times)

    def test_tune_and_map_need_a_registry(self):
        path = _socket_path()
        with ServeDaemon(path, workers=1, max_batch=1):
            with DaemonClient(path) as client:
                with pytest.raises(DaemonError) as err:
                    client.request({"op": "tune", "model": "any",
                                    "kernel": "polybench/gemm"})
                assert err.value.code == "no_registry"


# ----------------------------------------------------------------------
class TestDaemonCLI:
    def test_daemon_and_request_subcommands(self):
        """`python -m repro.serve daemon` end to end in a fresh process."""
        path = _socket_path()
        src = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                           os.pardir, "src"))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "daemon",
             "--socket", path, "--workers", "1", "--max-batch", "2"],
            stdout=subprocess.PIPE, text=True, env=env)
        try:
            ready = json.loads(daemon.stdout.readline())
            assert ready["ready"] is True and ready["workers"] == 1

            probe = subprocess.run(
                [sys.executable, "-m", "repro.serve", "request",
                 "--socket", path, "--op", "ping"],
                capture_output=True, text=True, env=env, timeout=60)
            assert probe.returncode == 0, probe.stderr
            assert json.loads(probe.stdout)["result"] == {"pong": True}

            stats = subprocess.run(
                [sys.executable, "-m", "repro.serve", "request",
                 "--socket", path, "--op", "stats"],
                capture_output=True, text=True, env=env, timeout=60)
            assert json.loads(stats.stdout)["result"]["workers"]["alive"] == 1

            stop = subprocess.run(
                [sys.executable, "-m", "repro.serve", "request",
                 "--socket", path, "--op", "shutdown"],
                capture_output=True, text=True, env=env, timeout=60)
            assert json.loads(stop.stdout)["result"] == {"stopped": True}
            assert daemon.wait(timeout=60) == 0
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()

    def test_serving_processes_never_import_scipy(self, registry_root):
        """What a daemon parent and its workers run stays free of scipy
        and of the search stack, from import to cold and memoized tunes."""
        src = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                           os.pardir, "src"))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        queries = [("polybench/gemm", 0.5), ("rodinia/kmeans", 2.0),
                   ("polybench/gemm", 3.0)]
        script = f"""
import json, sys
import repro.serve.cli, repro.serve.daemon
from repro.kernels import registry as kernels
from repro.serve.engine import InferenceEngine
from repro.serve.registry import ModelRegistry

engine = InferenceEngine(ModelRegistry({registry_root!r}).load("openmp"))
queries = [(kernels.get_kernel(uid), scale) for uid, scale in {queries!r}]
cold = engine.predict_batch(queries)
memo = engine.predict_batch(queries)
stats = engine.stats()
print(json.dumps({{
    "cold": [config.label() for config, _ in cold],
    "memo": [config.label() for config, _ in memo],
    "memoized": stats["memoized_responses"],
    "loaded": sorted(name for name in sys.modules
                     if name.split(".")[0] == "scipy"
                     or name.startswith("repro.tuners")),
}}))
"""
        child = subprocess.run([sys.executable, "-c", script],
                               capture_output=True, text=True, env=env,
                               timeout=120)
        assert child.returncode == 0, child.stderr
        report = json.loads(child.stdout)
        assert report["loaded"] == []
        with InferenceEngine(ModelRegistry(registry_root).load("openmp")) \
                as engine:
            expected = [engine.tune(kernel_registry.get_kernel(uid),
                                    scale)[0].label()
                        for uid, scale in queries]
        assert report["cold"] == report["memo"] == expected
        assert report["memoized"] == len(queries)

    def test_cli_import_leaves_out_numpy_and_the_model_stack(self):
        """Commands that only talk to a daemon never load the model."""
        src = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                           os.pardir, "src"))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        script = ("import json, sys, repro.serve.cli; print(json.dumps("
                  "[name for name in ('numpy', 'repro.core', "
                  "'repro.serve.artifacts') if name in sys.modules]))")
        child = subprocess.run([sys.executable, "-c", script],
                               capture_output=True, text=True, env=env,
                               timeout=60)
        assert child.returncode == 0, child.stderr
        assert json.loads(child.stdout) == []

    def test_client_router_and_daemon_leave_out_the_model_stack(self):
        """A process that runs a daemon parent, a router and a client and
        moves requests through them loads no numpy and no model."""
        src = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                           os.pardir, "src"))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        script = f"""
import json, sys
from repro.serve.client import DaemonClient
from repro.serve.daemon import ServeDaemon
from repro.serve.router import ServeRouter

with ServeDaemon({_socket_path()!r}, workers=1) as daemon:
    with ServeRouter({_socket_path()!r}, replicas=[daemon.address],
                     probe_interval=0.05) as router:
        with DaemonClient(router.address) as client:
            pong = client.ping(timeout=10.0)
            stats = client.stats()
print(json.dumps({{
    "pong": pong, "replicas": len(stats["replicas"]),
    "loaded": [name for name in ("numpy", "repro.core", "repro.nn")
               if name in sys.modules],
}}))
"""
        child = subprocess.run([sys.executable, "-c", script],
                               capture_output=True, text=True, env=env,
                               timeout=120)
        assert child.returncode == 0, child.stderr
        assert json.loads(child.stdout) == {"pong": True, "replicas": 1,
                                            "loaded": []}

    def test_cli_reports_artifact_errors(self, tmp_path, capsys):
        from repro.serve.cli import main

        version_dir = tmp_path / "broken" / "v0001"
        version_dir.mkdir(parents=True)
        (version_dir / "manifest.json").write_text("{}")
        assert main(["tune", "--root", str(tmp_path), "--model", "broken",
                     "--kernel", "polybench/gemm"]) == 1
        assert "error" in json.loads(capsys.readouterr().err)

    def test_sigkilled_daemon_does_not_orphan_its_workers(self):
        """Workers notice their daemon is gone and exit on their own."""
        src = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                           os.pardir, "src"))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "daemon",
             "--socket", _socket_path(), "--workers", "1"],
            stdout=subprocess.PIPE, text=True, env=env)
        try:
            assert json.loads(daemon.stdout.readline())["ready"] is True
            with open(f"/proc/{daemon.pid}/task/{daemon.pid}/children") as f:
                workers = [int(pid) for pid in f.read().split()]
            assert workers
        finally:
            daemon.kill()
            daemon.wait()

        def alive(pid: int) -> bool:
            # an exited worker reparented to a non-reaping init lingers
            # as a zombie; that counts as gone
            try:
                with open(f"/proc/{pid}/stat") as f:
                    return f.read().rsplit(")", 1)[1].split()[0] != "Z"
            except FileNotFoundError:
                return False

        deadline = time.monotonic() + 5.0
        while any(alive(pid) for pid in workers) and \
                time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(alive(pid) for pid in workers), workers


# ----------------------------------------------------------------------
class _StubProcess:
    def is_alive(self) -> bool:
        return True


class _FrozenClock:
    """``time`` as the daemon module sees it, with ``perf_counter`` stopped."""

    def __getattr__(self, name):
        return getattr(time, name)

    @staticmethod
    def perf_counter() -> float:
        return 100.0


class _StubLifecycle:
    def __init__(self, active: int):
        self.active = active

    def resolve(self, model: str) -> int:
        return self.active


def _dispatcher(workers: int, max_batch: int = 4, lifecycle=None):
    """An unstarted daemon over stub workers: no threads, no processes."""
    daemon = ServeDaemon("never-bound.sock", workers=workers,
                         max_batch=max_batch)
    daemon._running = True               # admit without serving
    daemon._lifecycle = lifecycle
    for worker_id in range(workers):
        daemon._pool[worker_id] = _Worker(worker_id, _StubProcess(), None)
    return daemon


def _enqueue(daemon, request_id, model="m", version=None,
             enqueued_at=None) -> _PendingRequest:
    payload = {"op": "tune", "model": model, "kernel": "polybench/gemm"}
    if version is not None:
        payload["version"] = version
    request = _PendingRequest(request_id, "tune", payload, lambda doc: None,
                              daemon._route_of(payload, "tune"))
    if enqueued_at is not None:
        request.enqueued_at = enqueued_at
    daemon._admit(request)
    return request


def _enqueue_shadow(daemon, request_id) -> None:
    payload = {"op": "tune", "model": "m", "kernel": "polybench/gemm",
               "version": 2}
    request = _PendingRequest(request_id, "tune", payload, lambda doc: None,
                              ("shadow", "m", 2))
    daemon._shadow_routes.setdefault(request.route,
                                     collections.deque()).append(request)
    daemon._shadow_queued += 1


def _form(daemon):
    with daemon._lock:
        return daemon._form_batch_locked()


class TestDispatchRule:
    """The dispatch decision on a frozen clock, without sleeps."""

    @pytest.fixture(autouse=True)
    def frozen_clock(self, monkeypatch):
        monkeypatch.setattr(daemon_module, "time", _FrozenClock())

    def test_lone_request_dispatches_at_once_to_an_idle_worker(self):
        daemon = _dispatcher(workers=2)
        request = _enqueue(daemon, "r0")
        worker, batch_id, batch, payloads = _form(daemon)
        assert batch == [request]
        assert payloads == [request.payload]
        assert worker.busy_with == batch_id
        assert daemon._inflight[batch_id] == [request]
        assert daemon._queued == 0 and not daemon._routes
        assert _form(daemon) is None             # nothing left to send

    def test_all_workers_busy_yields_none(self):
        daemon = _dispatcher(workers=2)
        for worker in daemon._pool.values():
            worker.busy_with = -1
        for i in range(3):
            _enqueue(daemon, f"r{i}")
        assert _form(daemon) is None
        assert daemon._queued == 3

    def test_freed_worker_takes_up_to_max_batch_oldest_head_first(self):
        daemon = _dispatcher(workers=1, max_batch=4)
        worker = daemon._pool[0]
        worker.busy_with = -1
        late = [_enqueue(daemon, f"b{i}", model="b", enqueued_at=2.0)
                for i in range(2)]
        early = [_enqueue(daemon, f"a{i}", model="a", enqueued_at=1.0 + i)
                 for i in range(6)]
        batches = []
        while daemon._queued:
            worker.busy_with = None              # the previous batch is done
            batches.append(_form(daemon)[2])
        # route a's head is the oldest until only its last two requests
        # (5.0, 6.0) remain, behind route b's head (2.0)
        assert batches == [early[:4], late, early[4:]]

    def test_shadow_never_takes_the_last_idle_worker(self):
        daemon = _dispatcher(workers=2)
        _enqueue_shadow(daemon, "s0")
        _enqueue_shadow(daemon, "s1")
        # live work first, even with both workers idle...
        live = _enqueue(daemon, "r0")
        assert _form(daemon)[2] == [live]
        # ...and then one idle worker is the last one: no shadow takes it
        assert _form(daemon) is None
        daemon._pool[0].busy_with = None
        daemon._pool[1].busy_with = None
        _, batch_id, batch, _ = _form(daemon)
        assert [request.request_id for request in batch] == ["s0", "s1"]
        assert batch_id in daemon._shadow_batch_ids
        _enqueue_shadow(daemon, "s2")
        assert _form(daemon) is None             # one idle worker left
        # a one-worker pool lends its only idle worker to shadow work
        solo = _dispatcher(workers=1)
        _enqueue_shadow(solo, "s0")
        assert _form(solo)[2][0].request_id == "s0"

    def test_contention_counts_each_stalled_live_request_once(self):
        daemon = _dispatcher(workers=2)
        _enqueue_shadow(daemon, "s0")
        _form(daemon)                            # shadow takes worker 0
        daemon._pool[1].busy_with = -1           # live work holds worker 1
        for i in range(3):
            _enqueue(daemon, f"r{i}")
        assert _form(daemon) is None
        assert _form(daemon) is None
        assert daemon._shadow_contention == 3
        # no shadow batch in flight: a busy pool is not contention
        plain = _dispatcher(workers=1)
        plain._pool[0].busy_with = -1
        _enqueue(plain, "r0")
        assert _form(plain) is None
        assert plain._shadow_contention == 0

    def test_batches_are_stamped_with_one_resolved_version(self):
        daemon = _dispatcher(workers=2, lifecycle=_StubLifecycle(active=7))
        latest = [_enqueue(daemon, f"r{i}", enqueued_at=1.0)
                  for i in range(3)]
        pinned = _enqueue(daemon, "p0", version=3, enqueued_at=2.0)
        _, _, batch, payloads = _form(daemon)
        assert batch == latest
        assert [payload["version"] for payload in payloads] == [7, 7, 7]
        assert all("version" not in r.payload for r in latest)  # copies
        _, _, batch, payloads = _form(daemon)
        assert batch == [pinned] and payloads == [pinned.payload]
        # without a registry, payloads go out exactly as received
        registryless = _dispatcher(workers=1)
        request = _enqueue(registryless, "r0")
        assert _form(registryless)[3] == [request.payload]


# ----------------------------------------------------------------------
#: any JSON value: the ids a client may choose, the values of a result
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(), children, max_size=4)),
    max_leaves=12)
#: result objects without the keys a reply adds, some with counters
_RESULTS = st.dictionaries(
    st.text().filter(lambda key: key not in ("latency_ms", "worker",
                                             "batch")),
    _JSON | st.dictionaries(st.text(), st.floats(), max_size=5),
    max_size=6)


class TestProtocol:
    @settings(max_examples=300, deadline=None)
    @given(request_id=_JSON, result=_RESULTS,
           latency_ms=st.floats(allow_nan=False, allow_infinity=False),
           worker=st.none() | st.integers(min_value=0),
           batch=st.integers(min_value=0))
    @example(request_id=True, result={}, latency_ms=0.25, worker=None,
             batch=0)
    @example(request_id=False, result={"counters": {"PAPI_L1_DCM": 1.5}},
             latency_ms=1e-9, worker=3, batch=7)
    def test_ok_frame_is_the_encoded_reply(self, request_id, result,
                                           latency_ms, worker, batch):
        """A spliced reply is byte for byte the reply encoded whole."""
        whole = encode_frame(ok_response(request_id, dict(
            result, latency_ms=latency_ms, worker=worker, batch=batch)))
        assert ok_frame(request_id, encode_body(result), latency_ms, worker,
                        batch) == whole

    @settings(max_examples=200, deadline=None)
    @given(document=st.dictionaries(st.text(), _JSON, max_size=6),
           before=st.text(" \t\r", max_size=3),
           after=st.text(" \t\r", max_size=3))
    def test_decode_frame_reads_what_json_loads_reads(self, document,
                                                       before, after):
        text = before + json.dumps(document) + after
        assert encode_frame(decode_frame(text.encode())) == \
            encode_frame(json.loads(text))

    @pytest.mark.parametrize("line", [
        b"", b" ", b"[1]", b'"x"', b'{"a":1} x', b'{"a":1}{"b":2}',
        b'{"a":1}\x0c', b'\xef\xbb\xbf{"a":1}', b'{"a":', b"\xff"])
    def test_decode_frame_rejects_what_json_loads_rejects(self, line):
        with pytest.raises(ProtocolError):
            decode_frame(line)
        try:
            accepted = isinstance(json.loads(line.decode("utf-8")), dict)
        except ValueError:
            accepted = False
        assert not accepted

    def test_fault_plan_applies_to_sent_frames(self):
        """An installed fault plan sees every frame, spliced ones too."""
        left, right = socket.socketpair()
        before = faults.active()
        faults.install(faults.FaultPlan(dup=1.0, seed=1))
        try:
            LineChannel(left).send_frame(encode_frame({"id": 1}))
            ClientConnection(left).reply_frame(
                ok_frame(2, encode_body({}), 0.5, None, 0))
        finally:
            faults.restore(before)
        receiver = LineChannel(right)
        try:
            frames = [receiver.recv(timeout=5.0) for _ in range(4)]
        finally:
            left.close()
            right.close()
        spliced = {"id": 2, "ok": True,
                   "result": {"latency_ms": 0.5, "worker": None, "batch": 0}}
        assert frames == [{"id": 1}, {"id": 1}, spliced, spliced]

    def test_framing_cpu_is_linear_in_an_unterminated_line(self):
        """An unterminated line fed in 64 KB chunks, with a pop after each,
        costs CPU linear in its length: 32 MB over 8 MB stays below 8
        (linear is about 4, a copy of the buffer per chunk about 16).  Each
        size runs in a fresh interpreter, so both pay the first touch of
        their buffer's pages."""
        src = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                           os.pardir, "src"))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        script = ("import sys, time\n"
                  "from repro.serve.protocol import LineChannel\n"
                  "channel, chunk = LineChannel(None), b'x' * 65536\n"
                  "start = time.process_time()\n"
                  "for _ in range(16 * int(sys.argv[1])):\n"
                  "    channel.feed(chunk)\n"
                  "    assert channel.pop() is None\n"
                  "print(time.process_time() - start)\n")

        def cpu_s(megabytes: int) -> float:
            return min(float(subprocess.run(
                [sys.executable, "-c", script, str(megabytes)],
                capture_output=True, text=True, env=env, timeout=120,
                check=True).stdout) for _ in range(3))

        assert cpu_s(32) / cpu_s(8) < 8

    def test_session_wire_round_trip(self):
        session = _sessions(1)[0]
        from repro.serve.protocol import session_from_wire, session_to_wire
        wire = json.loads(json.dumps(session_to_wire(session)))
        rebuilt = session_from_wire(wire)
        assert rebuilt.tuner_name == session.tuner_name
        assert rebuilt.tuner_config == session.tuner_config
        assert rebuilt.space == session.space
        np.testing.assert_array_equal(rebuilt.objective.times,
                                      session.objective.times)

    def test_validation_rejects_bad_shapes(self):
        from repro.serve.protocol import ProtocolError, validate_request
        for document in ({}, {"op": 3}, {"op": "tune", "model": "m"},
                         {"op": "map", "model": "m", "kernel": "k"},
                         {"op": "tune", "model": "m", "kernel": "k",
                          "version": [1]},
                         {"op": "session"}):
            with pytest.raises(ProtocolError):
                validate_request(document)
        assert validate_request({"op": "ping", "id": 7}) == (7, "ping")

    def test_protocol_import_leaves_out_numpy(self):
        """Speaking the wire protocol loads numpy only to convert fleet
        objectives and session outcomes."""
        src = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                           os.pardir, "src"))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        script = ("import sys, repro.serve.protocol; "
                  "print('numpy' in sys.modules)")
        child = subprocess.run([sys.executable, "-c", script],
                               capture_output=True, text=True, env=env,
                               timeout=60)
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip() == "False"
