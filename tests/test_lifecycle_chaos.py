"""Chaos: SIGKILL daemon workers mid-hot-swap, assert the route heals.

Workers install the ``REPRO_FAULTS`` plan at startup and tick it once per
answered tune/map request, so ``kill_after=N`` SIGKILLs each worker after N
evaluations — with a swap issued while load is in flight, kills land around
the warm/flip window.  The daemon's monitor must heal the pool and the route
must converge onto exactly one version whose predictions are byte-identical
to a fresh, fault-free daemon serving that version.
"""

import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import MGATuner
from repro.serve import (
    DaemonClient,
    DaemonError,
    ModelRegistry,
    ServeDaemon,
)
from repro.simulator.microarch import COMET_LAKE_8C

from conftest import short_socket_path

TRAIN_KW = dict(gnn_hidden=12, gnn_out=12, dae_hidden=24, dae_code=8,
                mlp_hidden=16)
KERNEL = "polybench/gemm"


def _socket_path() -> str:
    return short_socket_path("repro-chaos-")


@pytest.fixture(scope="module")
def chaos_registry(tmp_path_factory, small_openmp_dataset, extractor):
    """v1 and v2 of one model (differently-seeded small tuners)."""
    root = str(tmp_path_factory.mktemp("chaos-registry"))
    registry = ModelRegistry(root)
    for seed in (0, 7):
        tuner = MGATuner(COMET_LAKE_8C, small_openmp_dataset.configs,
                         extractor=extractor, seed=seed, **TRAIN_KW)
        tuner.fit(small_openmp_dataset, epochs=2, dae_epochs=2)
        registry.publish("m", tuner)
    return root


def _request(client, scale):
    return client.request({"op": "tune", "model": "m", "kernel": KERNEL,
                           "scale": scale})


def _collect_reference(root, scales):
    """What a fresh, fault-free daemon pinned to v2 answers."""
    path = _socket_path()
    with ServeDaemon(path, registry_root=root, workers=1, max_batch=4,
                     watch_interval_s=0.0):
        with DaemonClient(path) as client:
            client.swap("m", version=2)
            return {scale: _request(client, scale) for scale in scales}


class TestHotSwapChaos:
    def test_worker_sigkill_mid_swap_heals_onto_one_version(
            self, chaos_registry, monkeypatch):
        scales = [round(0.5 + 0.05 * i, 4) for i in range(24)]
        reference = _collect_reference(chaos_registry, scales)

        # every worker SIGKILLs itself after 12 answered evaluations: with
        # 2 workers and ~72 offered requests, kills land before, during
        # and after the swap below
        monkeypatch.setenv("REPRO_FAULTS", "kill_after=12")
        monkeypatch.setenv("REPRO_FAULT_SEED", "3")
        path = _socket_path()
        with ServeDaemon(path, registry_root=chaos_registry, workers=2,
                         max_batch=4, max_queue=256,
                         watch_interval_s=0.0) as daemon:
            with DaemonClient(path) as admin:
                admin.swap("m", version=1)

                outcomes = []

                def one(scale):
                    try:
                        with DaemonClient(path, retries=3) as client:
                            return ("ok", _request(client, scale))
                    except DaemonError as exc:
                        return (exc.code, None)
                    except (OSError, ConnectionError) as exc:
                        return (type(exc).__name__, None)

                with ThreadPoolExecutor(max_workers=8) as pool:
                    futures = [pool.submit(one, scale)
                               for scale in scales * 3]
                    time.sleep(0.1)      # load flowing and workers dying
                    swapped = False
                    for _ in range(50):  # warm can race a SIGKILL: retry
                        try:
                            admin.swap("m", version=2)
                            swapped = True
                            break
                        except (DaemonError, OSError, ConnectionError):
                            time.sleep(0.1)
                    outcomes = [future.result() for future in futures]
                assert swapped

                # every offered request was answered exactly once: a real
                # result or a structured worker_crashed error, never silence
                assert len(outcomes) == len(scales) * 3
                codes = {code for code, _ in outcomes}
                assert codes <= {"ok", "worker_crashed"}
                answered = [result for code, result in outcomes
                            if code == "ok"]
                assert answered
                assert {result["version"] for result in answered} <= {1, 2}

                # stop the chaos plan for workers healed from here on, then
                # wait for the pool to converge (planned workers die off)
                monkeypatch.delenv("REPRO_FAULTS")
                monkeypatch.delenv("REPRO_FAULT_SEED")
                deadline = time.monotonic() + 30.0
                stable = {}
                while time.monotonic() < deadline:
                    try:
                        with DaemonClient(path, retries=5) as client:
                            stable = {scale: _request(client, scale)
                                      for scale in scales}
                        break
                    except (DaemonError, OSError, ConnectionError):
                        time.sleep(0.2)
                else:
                    pytest.fail("daemon never converged after chaos")

                # healed route serves exactly one version — the swap target —
                # byte-identical to the fresh fault-free daemon on v2
                assert {r["version"] for r in stable.values()} == {2}
                for scale in scales:
                    for field in ("config_label", "num_threads", "schedule",
                                  "chunk_size", "counters", "version"):
                        assert stable[scale][field] == \
                            reference[scale][field]

                stats = daemon.stats()
                assert stats["workers"]["restarts"] >= 1   # kills happened
                assert stats["workers"]["alive"] == 2      # and healed
                assert stats["lifecycle"]["routes"]["m"][
                    "active_version"] == 2
