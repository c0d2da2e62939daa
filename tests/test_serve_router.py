"""Multi-host serving: TCP transport, consistent-hash router, loadgen."""

import json
import os
import select
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import MGATuner
from repro.kernels import registry as kernel_registry
from repro.serve import (
    DaemonClient,
    DaemonError,
    HashRing,
    InferenceEngine,
    ModelRegistry,
    ServeDaemon,
    ServeRouter,
    open_loop,
)
from repro.serve.loadgen import LatencyHistogram, poisson_arrivals
from repro.serve.protocol import (
    connect_address,
    create_listener,
    format_address,
    parse_address,
)
from repro.serve.router import parse_replica_spec, stable_hash
from repro.simulator.microarch import COMET_LAKE_8C

from conftest import short_socket_path

TRAIN_KW = dict(gnn_hidden=12, gnn_out=12, dae_hidden=24, dae_code=8,
                mlp_hidden=16)
LOOPBACK = "tcp://127.0.0.1:0"


def _socket_path() -> str:
    return short_socket_path("repro-router-")


def _await(predicate, timeout=30.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


# ----------------------------------------------------------------------
class TestAddressScheme:
    def test_parse_forms(self):
        assert parse_address("/tmp/a.sock") == ("unix", "/tmp/a.sock")
        assert parse_address("unix:///tmp/a.sock") == ("unix", "/tmp/a.sock")
        assert parse_address("tcp://127.0.0.1:7000") == \
            ("tcp", ("127.0.0.1", 7000))
        assert parse_address("tcp://example.com:0") == \
            ("tcp", ("example.com", 0))

    def test_round_trip(self):
        for address in ("/tmp/a.sock", "tcp://127.0.0.1:7000"):
            assert format_address(*parse_address(address)) == address

    def test_rejected_forms(self):
        for bad in ("", "unix://", "tcp://", "tcp://nohost",
                    "tcp://h:notaport", "tcp://h:70000", "tcp://:7000"):
            with pytest.raises(ValueError):
                parse_address(bad)

    def test_tcp_listener_resolves_ephemeral_port(self):
        listener, resolved = create_listener(LOOPBACK)
        try:
            scheme, (host, port) = parse_address(resolved)
            assert scheme == "tcp" and host == "127.0.0.1" and port > 0
            probe = connect_address(resolved, timeout=5.0)
            probe.close()
        finally:
            listener.close()

    def test_replica_spec_forms(self):
        assert parse_replica_spec("g0=tcp://h:1") == ("g0", "tcp://h:1")
        assert parse_replica_spec("g0=/tmp/a.sock") == ("g0", "/tmp/a.sock")
        assert parse_replica_spec(("g1", "/tmp/b.sock")) == \
            ("g1", "/tmp/b.sock")
        # a bare address is its own group of one
        assert parse_replica_spec("/tmp/a.sock") == \
            ("/tmp/a.sock", "/tmp/a.sock")
        assert parse_replica_spec("tcp://h:1") == ("tcp://h:1", "tcp://h:1")


# ----------------------------------------------------------------------
class TestHashRing:
    def test_deterministic_across_instances(self):
        keys = [f"model-{i}@latest" for i in range(64)]
        a = HashRing(["g0", "g1", "g2"])
        b = HashRing(["g2", "g1", "g0"])      # order must not matter
        assert [a.lookup(k) for k in keys] == [b.lookup(k) for k in keys]
        assert stable_hash("x") == stable_hash("x")

    def test_all_groups_reachable(self):
        ring = HashRing(["g0", "g1", "g2", "g3"])
        owners = {ring.lookup(f"m{i}@1") for i in range(256)}
        assert owners == {"g0", "g1", "g2", "g3"}

    def test_losing_a_group_only_remaps_its_keys(self):
        keys = [f"m{i}@latest" for i in range(256)]
        full = HashRing(["g0", "g1", "g2", "g3"])
        reduced = HashRing(["g0", "g1", "g2"])
        moved = 0
        for key in keys:
            before, after = full.lookup(key), reduced.lookup(key)
            if before == "g3":
                assert after in ("g0", "g1", "g2")
                moved += 1
            else:
                assert after == before       # survivors keep their shards
        assert moved > 0

    def test_empty_ring(self):
        assert HashRing([]).lookup("anything") is None


# ----------------------------------------------------------------------
class TestTCPTransport:
    def test_daemon_round_trip_over_tcp(self):
        with ServeDaemon(LOOPBACK, workers=1, max_batch=2,
                         debug_ops=True) as daemon:
            assert daemon.scheme == "tcp"
            assert daemon.address.startswith("tcp://127.0.0.1:")
            with DaemonClient(daemon.address) as client:
                assert client.ping()
                assert client.request({"op": "_sleep",
                                       "seconds": 0.0})["slept"] == 0.0
                stats = client.stats()
            assert stats["transport"] == "tcp"
            assert stats["address"] == daemon.address

    def test_partial_frames_across_recv_boundaries(self):
        """One frame dribbled byte-group-wise, then two frames in one send."""
        with ServeDaemon(LOOPBACK, workers=1, max_batch=2) as daemon:
            raw = connect_address(daemon.address, timeout=10.0)
            raw.settimeout(10.0)
            try:
                frame = b'{"op": "ping", "id": "split"}\n'
                for start in range(0, len(frame), 7):
                    raw.sendall(frame[start:start + 7])
                    time.sleep(0.01)     # force separate recv() chunks
                reader = raw.makefile("rb")
                response = json.loads(reader.readline())
                assert response == {"id": "split", "ok": True,
                                    "result": {"pong": True}}
                # pipelining: two frames in one TCP segment, two responses
                raw.sendall(b'{"op": "ping", "id": "a"}\n'
                            b'{"op": "ping", "id": "b"}\n')
                ids = {json.loads(reader.readline())["id"] for _ in range(2)}
                assert ids == {"a", "b"}
            finally:
                raw.close()

    def test_oversized_payload_rejected(self, monkeypatch):
        from repro.serve import protocol
        monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 4096)
        with ServeDaemon(LOOPBACK, workers=1, max_batch=2) as daemon:
            raw = connect_address(daemon.address, timeout=10.0)
            raw.settimeout(10.0)
            try:
                raw.sendall(b"x" * (256 * 1024))     # no newline: one giant
                response = json.loads(raw.makefile("rb").readline())
                assert response["ok"] is False
                assert response["error"]["code"] == "bad_request"
                assert "size limit" in response["error"]["message"]
                # the daemon closed the connection after the oversized
                # frame (EOF, or RST if our unread bytes were discarded)
                try:
                    assert raw.recv(65536) == b""
                except ConnectionResetError:
                    pass
            except BrokenPipeError:
                pass     # daemon may reset before the whole blob is written
            finally:
                raw.close()
            # and still serves new connections
            with DaemonClient(daemon.address) as client:
                assert client.ping()

    def test_client_reconnects_after_replica_restart(self):
        first = ServeDaemon(LOOPBACK, workers=1, max_batch=2,
                            debug_ops=True).start()
        address = first.address
        client = DaemonClient(address)
        try:
            assert client.request({"op": "_sleep",
                                   "seconds": 0.0})["slept"] == 0.0
            first.shutdown()
            # the daemon restarts on the same host:port (the old accepted
            # connection may linger briefly, so retry the bind); the
            # client's old connection is dead — the first call surfaces
            # that, the next one re-dials transparently
            deadline = time.monotonic() + 30.0
            while True:
                try:
                    second = ServeDaemon(address, workers=1, max_batch=2,
                                         debug_ops=True).start()
                    break
                except OSError:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.1)
            try:
                with pytest.raises((OSError, ConnectionError, DaemonError)):
                    client.request({"op": "ping"})
                assert client.ping()
                assert client.request({"op": "_sleep",
                                       "seconds": 0.0})["slept"] == 0.0
            finally:
                second.shutdown()
        finally:
            client.close()
            first.shutdown()

    def test_stats_gained_p999_and_per_route_depth(self):
        with ServeDaemon(LOOPBACK, workers=1, max_batch=1,
                         max_queue=32, debug_ops=True) as daemon:
            with ThreadPoolExecutor(max_workers=4) as pool:
                blockers = [pool.submit(
                    lambda: DaemonClient(daemon.address).request(
                        {"op": "_sleep", "seconds": 0.3}))
                    for _ in range(3)]
                assert _await(lambda: daemon.stats()["queue"]
                              .get("per_route", {}).get("debug", 0) >= 1,
                              timeout=10.0)
                for future in blockers:
                    future.result(timeout=60)
            stats = daemon.stats()
            latency = stats["latency_ms"]
            assert latency["p999"] >= latency["p99"] >= latency["p50"] > 0
            assert stats["requests"]["shed"] == 0
            assert stats["queue"]["per_route"] == {}     # drained


# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def registry_root(tmp_path_factory, small_openmp_dataset, extractor):
    """A registry serving one artifact under two shard-distinct names."""
    ds = small_openmp_dataset
    tuner = MGATuner(COMET_LAKE_8C, ds.configs, extractor=extractor, seed=0,
                     **TRAIN_KW)
    tuner.fit(ds, epochs=2, dae_epochs=2)
    root = str(tmp_path_factory.mktemp("router-registry"))
    registry = ModelRegistry(root)
    for name in _model_names():
        registry.publish(name, tuner)
    return root


def _model_names():
    """Two names of the same artifact, one hashing onto each fleet group.

    Model names are the shard keys: a deployment picks names (or group
    counts) so the ring spreads them.  Selecting them deterministically
    here keeps the test independent of hash luck.
    """
    ring = HashRing(["g0", "g1"])
    by_group = {}
    index = 0
    while len(by_group) < 2:
        name = f"openmp-{index}"
        index += 1
        by_group.setdefault(ring.lookup(f"{name}@latest"), name)
    return [by_group["g0"], by_group["g1"]]


@pytest.fixture(scope="module")
def fleet(registry_root):
    """Two single-replica groups (one AF_UNIX, one TCP) behind a router."""
    replica_unix = ServeDaemon(
        _socket_path(), registry_root=registry_root, workers=1, max_batch=4,
        preload=_model_names(), debug_ops=True).start()
    replica_tcp = ServeDaemon(
        LOOPBACK, registry_root=registry_root, workers=1, max_batch=4,
        preload=_model_names(), debug_ops=True).start()
    router = ServeRouter(
        LOOPBACK, replicas=[("g0", replica_unix.address),
                            ("g1", replica_tcp.address)],
        probe_interval=0.1, fail_after=2, max_inflight=64).start()
    try:
        yield router, {"g0": replica_unix, "g1": replica_tcp}
    finally:
        router.shutdown()
        replica_unix.shutdown()
        replica_tcp.shutdown()


class TestRouterServing:
    def test_predictions_byte_identical_to_engine(self, registry_root,
                                                  fleet):
        """The invariant: router → TCP/unix → daemon ≡ in-process engine."""
        router, _ = fleet
        specs = [kernel_registry.get_kernel(uid)
                 for uid in ("polybench/atax", "polybench/gemm",
                             "rodinia/kmeans")]
        requests = [(model, spec, scale)
                    for model in _model_names()
                    for spec in specs for scale in (0.5, 2.0)]

        tuner = ModelRegistry(registry_root).load(_model_names()[0])
        with InferenceEngine(tuner, max_batch_size=4,
                             max_wait_ms=1.0) as engine:
            reference = [engine.tune(spec, scale)
                         for _, spec, scale in requests]

        def one(item):
            model, spec, scale = item
            with DaemonClient(router.address) as client:
                return client.request({"op": "tune", "model": model,
                                       "kernel": spec.uid, "scale": scale})

        with ThreadPoolExecutor(max_workers=6) as pool:
            responses = list(pool.map(one, requests))

        for response, (config, counters) in zip(responses, reference):
            assert response["config_label"] == config.label()
            assert response["num_threads"] == config.num_threads
            assert response["schedule"] == config.schedule.value
            assert response["chunk_size"] == config.chunk_size
            assert response["counters"] == dict(counters)

    def test_requests_shard_to_their_hash_owner(self, fleet):
        router, replicas = fleet
        name_g0, name_g1 = _model_names()
        assert router.owner_of(f"{name_g0}@latest") == "g0"
        assert router.owner_of(f"{name_g1}@latest") == "g1"
        with DaemonClient(router.address) as client:
            for model in (name_g0, name_g1):
                client.request({"op": "tune", "model": model,
                                "kernel": "polybench/atax", "scale": 1.0})
        # each replica saw exactly its shard's model
        for group, model in (("g0", name_g0), ("g1", name_g1)):
            per_model = replicas[group].stats()["per_model"]
            assert per_model.get(model, 0) >= 1
            other = name_g1 if group == "g0" else name_g0
            assert other not in per_model

    def test_router_stats_surface_fleet_health(self, fleet):
        router, replicas = fleet
        assert _await(lambda: all(
            entry["last_probe"] is not None
            for entry in router.stats()["replicas"].values()), timeout=10.0)
        stats = router.stats()
        assert stats["router"] is True
        assert stats["ring"]["healthy_groups"] == ["g0", "g1"]
        for replica in replicas.values():
            entry = stats["replicas"][replica.address]
            assert entry["healthy"] is True
            probe = entry["last_probe"]
            assert probe["queue_depth"] is not None
            assert probe["shed"] is not None
            assert probe["p999_ms"] is not None
        with DaemonClient(router.address) as client:
            assert client.request({"op": "ping"})["router"] is True
            remote = client.stats()
        assert remote["ring"] == stats["ring"]

    def test_shutdown_joins_loop_threads(self):
        """``shutdown()`` returns only after every thread the router
        started has exited, with clients still connected, and leaves no fd
        behind."""
        replica = ServeDaemon(_socket_path(), workers=1, max_batch=1).start()

        def cycle():
            before = set(threading.enumerate())
            router = ServeRouter(LOOPBACK, replicas=[("g0", replica.address)],
                                 probe_interval=0.05).start()
            clients = [DaemonClient(router.address) for _ in range(2)]
            try:
                assert all(client.ping() for client in clients)
                assert _await(lambda: router.replicas[0].last_probe
                              is not None, timeout=10.0)
                router.shutdown()
                return [t.name for t in threading.enumerate()
                        if t not in before]
            finally:
                for client in clients:
                    client.close()

        def open_fds() -> int:
            return len(os.listdir("/proc/self/fd"))

        try:
            assert cycle() == []              # the warm-up cycle
            # the in-process replica closes its end of the router's
            # connection once it reads the EOF: wait for that, not a leak
            assert _await(lambda: not replica._front.clients, timeout=10.0)
            opened = open_fds()
            assert cycle() == []
            assert _await(lambda: not replica._front.clients, timeout=10.0)
            assert open_fds() == opened
        finally:
            replica.shutdown()

    def test_shutdown_finishes_inflight_forwards_then_hangs_up(self):
        replica = ServeDaemon(_socket_path(), workers=1, max_batch=1,
                              debug_ops=True).start()
        router = ServeRouter(LOOPBACK, replicas=[("g0", replica.address)],
                             probe_interval=60.0).start()

        def slow():
            with DaemonClient(router.address) as client:
                return client.request({"op": "_sleep", "seconds": 1.0})

        try:
            with ThreadPoolExecutor(max_workers=2) as pool, \
                    DaemonClient(router.address) as late:
                assert late.ping()
                inflight = pool.submit(slow)
                assert _await(lambda: router.stats()["inflight"]["total"]
                              >= 1, timeout=10.0)
                stopping = pool.submit(router.shutdown)
                assert _await(lambda: not router.running, timeout=10.0)
                with pytest.raises(DaemonError) as err:
                    late.request({"op": "_sleep", "seconds": 0.0})
                assert err.value.code == "shutting_down"
                assert inflight.result(timeout=30)["slept"] == 1.0
                stopping.result(timeout=30)
                with pytest.raises((OSError, ConnectionError)):
                    late.request({"op": "ping"})         # hung up on
        finally:
            router.shutdown()
            replica.shutdown()

    def test_router_starts_over_a_stale_socket_file(self):
        path = _socket_path()
        stale = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        stale.bind(path)
        stale.close()                    # a dead server's file, left behind
        assert os.path.exists(path)
        router = ServeRouter(path, replicas=[_socket_path()],
                             probe_interval=60.0).start()
        try:
            with DaemonClient(path) as client:
                assert client.request({"op": "ping"})["router"] is True
        finally:
            router.shutdown()
        assert not os.path.exists(path)

    def test_router_refuses_a_live_daemons_path(self):
        with ServeDaemon(_socket_path(), workers=1, max_batch=1) as daemon:
            router = ServeRouter(daemon.address, replicas=[_socket_path()])
            with pytest.raises(RuntimeError, match="live server"):
                router.start()
            with DaemonClient(daemon.address) as client:
                assert client.ping()         # the daemon kept its socket

    def test_frame_that_breaks_its_handler_hangs_up_that_client_only(
            self, monkeypatch):
        replica = ServeDaemon(_socket_path(), workers=1, max_batch=1,
                              debug_ops=True).start()
        router = ServeRouter(LOOPBACK, replicas=[("g0", replica.address)],
                             probe_interval=0.5).start()
        try:
            with DaemonClient(router.address) as other:
                assert other.ping()

                def broken(document, op):
                    raise RuntimeError("route key exploded")

                monkeypatch.setattr(ServeRouter, "_route_key",
                                    staticmethod(broken))
                raw = connect_address(router.address, timeout=10.0)
                raw.settimeout(10.0)
                try:
                    raw.sendall(b'{"op": "_sleep", "seconds": 0.0, '
                                b'"id": "boom"}\n')
                    reader = raw.makefile("rb")
                    response = json.loads(reader.readline())
                    assert response["ok"] is False
                    assert response["error"]["code"] == "bad_request"
                    assert "route key exploded" in \
                        response["error"]["message"]
                    try:
                        assert reader.readline() == b""      # hung up
                    except ConnectionResetError:
                        pass
                finally:
                    raw.close()
                monkeypatch.undo()
                assert other.ping()
                assert other.request({"op": "_sleep",
                                      "seconds": 0.0})["slept"] == 0.0
        finally:
            router.shutdown()
            replica.shutdown()

    def test_replica_whose_connect_never_finishes_does_not_stall(self):
        """A group whose only replica is a TCP listener with a full accept
        backlog: its connects never finish, yet requests routed to the
        healthy group keep their latency."""
        stuck = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        stuck.bind(("127.0.0.1", 0))
        stuck.listen(0)
        stuck_address = format_address("tcp", stuck.getsockname())
        fillers = []
        for _ in range(64):              # fill the backlog until a connect
            filler = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            fillers.append(filler)       # hangs
            filler.setblocking(False)
            filler.connect_ex(stuck.getsockname())
            _, writable, _ = select.select([], [filler], [], 0.2)
            if not writable:
                break
        else:
            pytest.fail("every connect to the stuck listener finished")
        # group names for which the debug route lands on the healthy group
        healthy = next(name for name in (f"ok-{i}" for i in range(64))
                       if HashRing([name, "stuck"]).lookup("debug") == name)
        replica = ServeDaemon(_socket_path(), workers=1, max_batch=2,
                              debug_ops=True).start()
        router = ServeRouter(LOOPBACK,
                             replicas=[(healthy, replica.address),
                                       ("stuck", stuck_address)],
                             probe_interval=0.05).start()
        try:
            with DaemonClient(router.address) as client:
                deadline = time.monotonic() + 1.5
                while time.monotonic() < deadline:
                    started = time.monotonic()
                    assert client.request({"op": "_sleep",
                                           "seconds": 0.0})["slept"] == 0.0
                    assert time.monotonic() - started < 1.0
            stats = router.stats()["replicas"]
            assert stats[replica.address]["last_probe"] is not None
            assert stats[stuck_address]["last_probe"] is None
        finally:
            router.shutdown()
            replica.shutdown()
            for sock in (stuck, *fillers):
                sock.close()

    def test_admission_control_sheds_with_structured_error(self,
                                                           registry_root):
        replica = ServeDaemon(_socket_path(), workers=1, max_batch=1,
                              max_queue=64,
                              debug_ops=True).start()
        router = ServeRouter(LOOPBACK, replicas=[("g0", replica.address)],
                             probe_interval=0.2, max_inflight=2,
                             max_inflight_per_route=2).start()
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                def slow():
                    return DaemonClient(router.address).request(
                        {"op": "_sleep", "seconds": 0.6})
                busy = [pool.submit(slow) for _ in range(2)]
                assert _await(lambda: router.stats()["inflight"]["total"]
                              >= 2, timeout=10.0)

                with pytest.raises(DaemonError) as err:
                    DaemonClient(router.address).request(
                        {"op": "_sleep", "seconds": 0.0})
                assert err.value.overloaded
                assert err.value.detail.get("scope") == "router"
                assert err.value.detail.get("route") == "debug"
                for future in busy:
                    assert future.result(timeout=60)["slept"] == 0.6
            assert router.stats()["requests"]["shed"] >= 1
            # fleet serves again once the in-flight work drains
            with DaemonClient(router.address) as client:
                assert client.request({"op": "_sleep",
                                       "seconds": 0.0})["slept"] == 0.0
        finally:
            router.shutdown()
            replica.shutdown()

    def test_ejection_failover_and_readmission(self):
        path_a, path_b = _socket_path(), _socket_path()
        replica_a = ServeDaemon(path_a, workers=1, max_batch=2,
                                debug_ops=True).start()
        replica_b = ServeDaemon(path_b, workers=1, max_batch=2,
                                debug_ops=True).start()
        router = ServeRouter(LOOPBACK,
                             replicas=[("ga", path_a), ("gb", path_b)],
                             probe_interval=0.1, fail_after=2).start()
        try:
            owner = router.owner_of("debug")
            victim = replica_a if owner == "ga" else replica_b
            survivor_group = "gb" if owner == "ga" else "ga"
            with DaemonClient(router.address) as client:
                assert client.request({"op": "_sleep",
                                       "seconds": 0.0})["slept"] == 0.0
                victim.shutdown()
                # failover: the dead replica is ejected passively and the
                # request retries onto the surviving group immediately
                assert client.request({"op": "_sleep",
                                       "seconds": 0.0})["slept"] == 0.0
                assert router.owner_of("debug") == survivor_group
                stats = router.stats()
                assert stats["requests"]["retried"] >= 1
                assert stats["ring"]["healthy_groups"] == [survivor_group]
                assert stats["replicas"][victim.address]["healthy"] is False
                assert stats["replicas"][victim.address]["ejections"] >= 1

                # restart the replica at the same address: the next probe
                # re-admits it and its shard range comes home
                revived = ServeDaemon(victim.address, workers=1, max_batch=2,
                                      debug_ops=True).start()
                try:
                    assert _await(
                        lambda: router.stats()["replicas"][victim.address]
                        ["healthy"], timeout=30.0)
                    assert router.owner_of("debug") == owner
                    assert client.request({"op": "_sleep",
                                           "seconds": 0.0})["slept"] == 0.0
                finally:
                    revived.shutdown()
        finally:
            router.shutdown()
            replica_a.shutdown()
            replica_b.shutdown()

    def test_sigkill_mid_request_retries_inflight_victim(self):
        """SIGKILL a replica while it holds an in-flight request: the
        router must retry that very request onto the group's surviving
        member and the caller sees a success, not a reset."""
        import signal
        import subprocess
        import sys

        src = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                           os.pardir, "src"))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

        def popen_daemon():
            return subprocess.Popen(
                [sys.executable, "-m", "repro.serve", "daemon",
                 "--tcp", "127.0.0.1:0", "--workers", "1",
                 "--max-batch", "2", "--debug-ops"],
                stdout=subprocess.PIPE, text=True, env=env)

        victim_proc, survivor_proc = popen_daemon(), popen_daemon()
        router = None
        try:
            victim_addr = json.loads(
                victim_proc.stdout.readline())["socket"]
            survivor_addr = json.loads(
                survivor_proc.stdout.readline())["socket"]
            # ONE group, two members; round-robin starts at members[0],
            # so the victim of the first request is deterministic
            router = ServeRouter(LOOPBACK,
                                 replicas=[("g0", victim_addr),
                                           ("g0", survivor_addr)],
                                 probe_interval=60.0).start()  # passive only
            with ThreadPoolExecutor(max_workers=1) as pool:
                with DaemonClient(router.address) as client:
                    inflight = pool.submit(
                        client.request, {"op": "_sleep", "seconds": 1.0},
                        30.0)
                    # let the request land on the victim, then murder it
                    assert _await(lambda: router.stats()["inflight"]
                                  ["total"] >= 1, timeout=10.0)
                    time.sleep(0.2)
                    os.kill(victim_proc.pid, signal.SIGKILL)
                    assert victim_proc.wait(timeout=10) == -signal.SIGKILL
                    # the caller still gets its answer (via the survivor)
                    assert inflight.result(timeout=30)["slept"] == 1.0
            stats = router.stats()
            assert stats["requests"]["retried"] >= 1
            assert stats["replicas"][victim_addr]["healthy"] is False
            assert stats["replicas"][victim_addr]["ejections"] >= 1
            assert stats["replicas"][survivor_addr]["healthy"] is True
        finally:
            if router is not None:
                router.shutdown()
            for proc in (victim_proc, survivor_proc):
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()

    def test_no_replica_left_is_a_structured_error(self):
        replica = ServeDaemon(_socket_path(), workers=1, max_batch=2,
                              debug_ops=True).start()
        router = ServeRouter(LOOPBACK, replicas=[("g0", replica.address)],
                             probe_interval=60.0).start()   # passive only
        try:
            with DaemonClient(router.address) as client:
                assert client.ping()
                replica.shutdown()
                with pytest.raises(DaemonError) as err:
                    client.request({"op": "_sleep", "seconds": 0.0})
                assert err.value.code == "no_replica"
                assert err.value.detail.get("route") == "debug"
        finally:
            router.shutdown()
            replica.shutdown()

    def test_round_robin_within_a_group(self):
        path_a, path_b = _socket_path(), _socket_path()
        replica_a = ServeDaemon(path_a, workers=1, max_batch=2,
                                debug_ops=True).start()
        replica_b = ServeDaemon(path_b, workers=1, max_batch=2,
                                debug_ops=True).start()
        # one group, two members: both serve the same shard
        router = ServeRouter(LOOPBACK, replicas=[("g0", path_a),
                                                 ("g0", path_b)],
                             probe_interval=0.5).start()
        try:
            with DaemonClient(router.address) as client:
                for _ in range(8):
                    client.request({"op": "_sleep", "seconds": 0.0})
            counts = [entry["forwarded"] for entry
                      in router.stats()["replicas"].values()]
            assert sorted(counts) == [4, 4]
        finally:
            router.shutdown()
            replica_a.shutdown()
            replica_b.shutdown()


# ----------------------------------------------------------------------
class TestLoadgen:
    def test_poisson_arrivals_deterministic_and_calibrated(self):
        a = poisson_arrivals(100.0, 4000, seed=7)
        b = poisson_arrivals(100.0, 4000, seed=7)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, poisson_arrivals(100.0, 4000, seed=8))
        assert np.all(np.diff(a) >= 0)
        # 4000 arrivals at 100/s span ~40s
        assert a[-1] == pytest.approx(40.0, rel=0.15)

    def test_histogram_buckets(self):
        histogram = LatencyHistogram()
        assert histogram.edges_ms == sorted(histogram.edges_ms)
        for value in (0.01, 1.0, 3.0, 3.0, 50_000.0, 10_000_000.0):
            histogram.record(value)
        rows = histogram.to_config()
        assert sum(row["count"] for row in rows) == 6
        assert rows[-1]["le_ms"] == float("inf")     # overflow bucket

    def test_open_loop_against_a_daemon(self):
        with ServeDaemon(LOOPBACK, workers=2, max_batch=4,
                         max_queue=64, debug_ops=True) as daemon:
            report = open_loop(
                daemon.address, [{"op": "_sleep", "seconds": 0.005}] * 60,
                rate_rps=300.0, concurrency=16, slo_ms=250.0,
                collect_responses=True)
        assert report["completed"] == 60
        assert report["errors"] == {}
        assert report["achieved_rps"] > 0
        latency = report["latency_ms"]
        assert latency["p999"] >= latency["p99"] >= latency["p50"] >= 5.0
        assert sum(row["count"] for row in report["histogram"]) == 60
        assert report["slo"]["target_ms"] == 250.0
        assert 0.0 <= report["slo"]["attainment"] <= 1.0
        assert all(response["slept"] == 0.005
                   for response in report["responses"])

    def test_open_loop_counts_sheds_past_saturation(self):
        # 1 worker x 50ms per request ≈ 20 rps capacity; offer 400 rps
        # with a 2-deep queue: the overload MUST be shed, not queued
        with ServeDaemon(LOOPBACK, workers=1, max_batch=1,
                         max_queue=2, debug_ops=True) as daemon:
            report = open_loop(
                daemon.address, [{"op": "_sleep", "seconds": 0.05}] * 80,
                rate_rps=400.0, concurrency=32)
            stats = daemon.stats()
        assert report["shed"] > 0
        assert report["completed"] + sum(report["errors"].values()) == 80
        assert report["completed"] >= 3          # survivors were served
        assert stats["queue"]["depth"] <= 2      # the queue stayed bounded


# ----------------------------------------------------------------------
class TestRouterCLI:
    def test_router_and_loadgen_subcommands(self):
        """daemon --tcp → router --tcp → request/loadgen, fresh processes."""
        import subprocess
        import sys

        src = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                           os.pardir, "src"))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

        def popen(*argv):
            return subprocess.Popen(
                [sys.executable, "-m", "repro.serve", *argv],
                stdout=subprocess.PIPE, text=True, env=env)

        daemon = popen("daemon", "--tcp", "127.0.0.1:0", "--workers", "1",
                       "--max-batch", "2", "--debug-ops")
        router = None
        try:
            ready = json.loads(daemon.stdout.readline())
            assert ready["transport"] == "tcp"
            replica_address = ready["socket"]

            router = popen("router", "--tcp", "127.0.0.1:0",
                           "--replica", f"g0={replica_address}")
            routed = json.loads(router.stdout.readline())
            assert routed["ready"] is True
            assert routed["groups"] == ["g0"]
            listen = routed["listen"]

            probe = subprocess.run(
                [sys.executable, "-m", "repro.serve", "request",
                 "--socket", listen, "--op", "stats"],
                capture_output=True, text=True, env=env, timeout=60)
            assert probe.returncode == 0, probe.stderr
            stats = json.loads(probe.stdout)["result"]
            assert stats["router"] is True
            assert stats["ring"]["healthy_groups"] == ["g0"]

            load = subprocess.run(
                [sys.executable, "-m", "repro.serve", "loadgen",
                 "--address", listen,
                 "--json", '{"op": "_sleep", "seconds": 0.002}',
                 "--rate", "200", "--requests", "20", "--slo-ms", "500"],
                capture_output=True, text=True, env=env, timeout=120)
            assert load.returncode == 0, load.stderr
            report = json.loads(load.stdout)
            assert report["completed"] == 20
            assert report["slo"]["target_ms"] == 500.0

            stop = subprocess.run(
                [sys.executable, "-m", "repro.serve", "request",
                 "--socket", listen, "--op", "shutdown"],
                capture_output=True, text=True, env=env, timeout=60)
            assert json.loads(stop.stdout)["result"]["router"] is True
            assert router.wait(timeout=60) == 0

            stop = subprocess.run(
                [sys.executable, "-m", "repro.serve", "request",
                 "--socket", replica_address, "--op", "shutdown"],
                capture_output=True, text=True, env=env, timeout=60)
            assert json.loads(stop.stdout)["result"] == {"stopped": True}
            assert daemon.wait(timeout=60) == 0
        finally:
            for process in (daemon, router):
                if process is not None and process.poll() is None:
                    process.kill()
                    process.wait()
