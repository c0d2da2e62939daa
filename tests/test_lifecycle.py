"""Online model lifecycle: atomic publish, hot-swap, shadow deploys, drift."""

import json
import os
import subprocess
import sys
import tempfile
import threading
import time
import types
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MGATuner
from repro.kernels import registry as kernel_registry
from repro.serve import (
    DaemonClient,
    DaemonError,
    InferenceEngine,
    ModelRegistry,
    ServeDaemon,
    ServeRouter,
    TuningService,
)
from repro.serve.daemon import _execute_tune_map
from repro.serve.lifecycle import DriftAggregator, LifecycleManager, SwapError
from repro.serve.drift import (
    FRACTIONS,
    DriftBaseline,
    DriftMonitor,
    baseline_from_devmap,
    baseline_from_openmp,
    merge_route_drift,
    token_ids_from_graph,
    tune_feature_vector,
)
from repro.serve.service import tune_response_fields
from repro.simulator.microarch import COMET_LAKE_8C
import repro.serve.registry as registry_module

TRAIN_KW = dict(gnn_hidden=12, gnn_out=12, dae_hidden=24, dae_code=8,
                mlp_hidden=16)


def _socket_path() -> str:
    # AF_UNIX paths are length-limited (~107 bytes); stay in /tmp
    return os.path.join(tempfile.mkdtemp(prefix="repro-lc-"), "d.sock")


@pytest.fixture(scope="module")
def tuner_pair(small_openmp_dataset, extractor):
    """Two differently-seeded tuners over the same training set."""
    ds = small_openmp_dataset
    pair = []
    for seed in (0, 7):
        tuner = MGATuner(COMET_LAKE_8C, ds.configs, extractor=extractor,
                         seed=seed, **TRAIN_KW)
        tuner.fit(ds, epochs=2, dae_epochs=2)
        pair.append(tuner)
    return tuple(pair)


def _two_version_registry(root, tuner_pair, dataset):
    """v1 = first tuner, v2 = second, both with drift baselines."""
    registry = ModelRegistry(str(root))
    baseline = baseline_from_openmp(dataset)
    for tuner in tuner_pair:
        registry.publish("m", tuner, metadata={"task": "openmp"},
                         drift_baseline=baseline)
    return registry


def _tune(client, kernel="polybench/gemm", scale=1.0, version=None):
    document = {"op": "tune", "model": "m", "kernel": kernel, "scale": scale}
    if version is not None:
        document["version"] = version
    return client.request(document)


def _engine_reference(registry, version, requests):
    """config labels the version's engine produces for (kernel, scale)s."""
    tuner = registry.load("m", version)
    reference = {}
    with InferenceEngine(tuner, max_batch_size=4, max_wait_ms=1.0) as engine:
        for uid, scale in requests:
            config, counters = engine.tune(kernel_registry.get_kernel(uid),
                                           scale)
            reference[(uid, scale)] = (config.label(), config.num_threads,
                                       config.schedule.value,
                                       config.chunk_size, dict(counters))
    return reference


REQUEST_GRID = [(uid, scale)
                for uid in ("polybench/gemm", "polybench/atax",
                            "rodinia/kmeans")
                for scale in (0.5, 1.0, 2.0)]


# ----------------------------------------------------------------------
class TestRegistryAtomicity:
    def test_reader_racing_slow_publish_never_sees_partial_state(
            self, tmp_path, tuner_pair, small_openmp_dataset, monkeypatch):
        """A publish held open mid-staging is invisible until the rename."""
        registry = ModelRegistry(str(tmp_path))
        registry.publish("m", tuner_pair[0])
        reader = ModelRegistry(str(tmp_path))   # no shared in-process lock

        in_staging = threading.Event()
        real_save = registry_module.save_artifact

        def slow_save(path, obj, metadata=None):
            result = real_save(path, obj, metadata=metadata)
            in_staging.set()
            time.sleep(0.4)                     # hold the staging window open
            return result

        monkeypatch.setattr(registry_module, "save_artifact", slow_save)
        failures = []
        stop = threading.Event()

        def read_loop():
            while not stop.is_set():
                try:
                    generation = reader.generation()
                    versions = reader.versions("m")
                    latest = reader.latest("m")
                    if not set(versions) <= {1, 2}:
                        failures.append(f"partial versions {versions}")
                    if latest not in (1, 2):
                        failures.append(f"bad latest {latest}")
                    if generation >= 2 and reader.latest("m") < 2:
                        failures.append("generation moved before LATEST")
                    reader.load("m")            # must always deserialise
                except Exception as exc:        # any reader crash is a fail
                    failures.append(repr(exc))
                time.sleep(0.005)

        thread = threading.Thread(target=read_loop, daemon=True)
        thread.start()
        published = registry.publish("m", tuner_pair[1])
        stop.set()
        thread.join(5.0)
        assert not failures
        assert in_staging.is_set()
        assert published.version == 2
        assert reader.latest("m") == 2
        assert reader.generation() == 2
        leftovers = [entry for entry in os.listdir(tmp_path / "m")
                     if entry.startswith(".staging")]
        assert not leftovers

    def test_generation_bumps_and_drift_co_publishes(
            self, tmp_path, tuner_pair, small_openmp_dataset):
        registry = _two_version_registry(tmp_path, tuner_pair,
                                         small_openmp_dataset)
        assert registry.generation() == 2
        for version in (1, 2):
            baseline = registry.load_drift_baseline("m", version)
            assert isinstance(baseline, DriftBaseline)
            assert baseline.task == "tune"
            assert baseline.n_samples == len(small_openmp_dataset)
        assert registry.load_drift_baseline("m") is not None

    def test_version_without_baseline_loads_none(self, tmp_path, tuner_pair):
        registry = ModelRegistry(str(tmp_path))
        registry.publish("m", tuner_pair[0])
        assert registry.load_drift_baseline("m", 1) is None


# ----------------------------------------------------------------------
class TestDriftDetection:
    def test_in_distribution_replay_scores_exactly_zero(
            self, small_openmp_dataset):
        baseline = baseline_from_openmp(small_openmp_dataset)
        monitor = DriftMonitor(baseline)
        names = baseline.counter_names
        for sample in small_openmp_dataset.samples:
            row = tune_feature_vector(sample.vector, sample.counters, names)
            signals = monitor.observe(row, graph=sample.graph)
            assert signals["score"] == 0.0
            assert not signals["flagged"]
        summary = monitor.summary()
        assert summary["count"] == len(small_openmp_dataset)
        assert summary["flagged"] == 0
        assert summary["score_sum"] == 0.0

    def test_out_of_distribution_rows_flag(self, small_openmp_dataset):
        baseline = baseline_from_openmp(small_openmp_dataset)
        monitor = DriftMonitor(baseline)
        sample = small_openmp_dataset.samples[0]
        row = tune_feature_vector(sample.vector, sample.counters,
                                  baseline.counter_names)
        shifted = row + 10.0 * (np.abs(baseline.hi) + 1.0)
        signals = monitor.observe(shifted)
        assert signals["oob"] == 1.0
        assert signals["flagged"]

    def test_unseen_vocabulary_tokens_flag(self):
        features = np.zeros((8, 3))
        baseline = DriftBaseline.from_features(
            features, [np.array([0, 1])], task="tune", vocab_size=6)
        monitor = DriftMonitor(baseline)
        unseen = np.zeros((4, 6))
        unseen[:, 5] = 1.0                      # token id 5: never trained on
        graph = types.SimpleNamespace(node_features=unseen)
        signals = monitor.observe(np.zeros(3), graph=graph)
        assert signals["unseen_tokens"] == 1.0
        assert signals["score"] == 1.0
        assert signals["flagged"]

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_unseen_tokens_match_the_per_node_loop(self, data):
        """The vocabulary mask counts exactly what a set lookup per node
        counted, out-of-vocabulary baseline ids and empty rows included."""
        vocab = data.draw(st.integers(1, 12))
        trained = data.draw(st.frozensets(st.integers(-3, vocab + 3)))
        baseline = DriftBaseline(
            task="tune", quantiles=np.zeros((len(FRACTIONS), 2)),
            token_ids=trained, vocab_size=vocab, counter_names=(),
            n_samples=1)
        # -1: a node with no token bit set (argmax reads it as token 0)
        tokens = data.draw(st.lists(st.integers(-1, vocab - 1), max_size=40))
        features = np.zeros((len(tokens), vocab + 3))
        for node, token in enumerate(tokens):
            if token >= 0:
                features[node, token] = 1.0
        graph = types.SimpleNamespace(node_features=features)
        ids = token_ids_from_graph(graph, vocab)
        expected = 0.0
        if ids.size:
            unseen = sum(1 for t in ids if int(t) not in trained)
            expected = unseen / float(ids.size)
        signals = DriftMonitor(baseline).observe(np.zeros(2), graph=graph)
        assert signals["unseen_tokens"].hex() == expected.hex()

    def test_payload_round_trip(self, small_openmp_dataset):
        baseline = baseline_from_openmp(small_openmp_dataset)
        config, arrays = baseline.to_payload()
        restored = DriftBaseline.from_payload(config, arrays)
        assert restored.task == baseline.task
        assert restored.token_ids == baseline.token_ids
        assert restored.counter_names == baseline.counter_names
        assert restored.threshold == baseline.threshold
        np.testing.assert_array_equal(restored.quantiles, baseline.quantiles)

    def test_devmap_baseline_builds(self, extractor):
        from repro.datasets import DevMapDatasetBuilder
        from repro.simulator.microarch import TAHITI_7970

        specs = kernel_registry.opencl_kernels()[:3]
        dataset = DevMapDatasetBuilder(TAHITI_7970, extractor=extractor,
                                       seed=0).build(specs,
                                                     points_per_kernel=2)
        baseline = baseline_from_devmap(dataset)
        assert baseline.task == "map"
        assert baseline.feature_dim == 32 + 2   # vector + log extras

    def test_merge_route_drift_accumulates(self):
        merged = merge_route_drift([
            {"count": 10, "flagged": 1, "score_sum": 0.5, "oob_sum": 0.5,
             "token_sum": 0.0, "band_tvd": 0.2, "threshold": 0.05},
            {"count": 30, "flagged": 5, "score_sum": 2.5, "oob_sum": 1.5,
             "token_sum": 1.0, "band_tvd": 0.4, "threshold": 0.05},
        ])
        assert merged["count"] == 40
        assert merged["flagged"] == 6
        assert merged["flagged_rate"] == pytest.approx(0.15)
        assert merged["mean_score"] == pytest.approx(0.075)
        assert merged["drifting"]


class TestDriftReporting:
    """A worker sends an engine's drift summary only when it moved."""

    #: (kernel, scale) requests in order: cold ones and memo hits; the
    #: extreme scales put counters outside the training envelope
    SCRIPT = [("polybench/gemm", 1.0), ("polybench/atax", 0.01),
              ("polybench/gemm", 1.0), ("polybench/atax", 0.01),
              ("rodinia/kmeans", 300.0), ("polybench/gemm", 1.0),
              ("rodinia/kmeans", 300.0), ("polybench/atax", 2.0),
              ("polybench/gemm", 0.5)]

    @staticmethod
    def _requests(pairs, version):
        return [{"op": "tune", "model": "m", "version": version,
                 "kernel": uid, "scale": scale} for uid, scale in pairs]

    def test_memo_hits_carry_no_drift_extras(self, tmp_path, tuner_pair,
                                             small_openmp_dataset):
        registry = _two_version_registry(tmp_path, tuner_pair,
                                         small_openmp_dataset)
        sent = weakref.WeakKeyDictionary()
        with TuningService(registry) as service:
            def run(requests):
                results, extras = _execute_tune_map(service, requests, sent)
                assert all(result["ok"] for result in results)
                return extras

            pairs = REQUEST_GRID[:3]
            extras = run(self._requests(pairs, 1))
            assert extras["drift"]["m@1"]["count"] == 3
            assert run(self._requests(pairs, 1)) == {}      # all memo hits
            assert run(self._requests(pairs[::-1], 1)) == {}
            extras = run(self._requests(REQUEST_GRID[:4], 1))
            assert extras["drift"]["m@1"]["count"] == 4
            # one batch, two engines: only the one that scored sends
            extras = run(self._requests(pairs, 1) + self._requests(pairs, 2))
            assert set(extras["drift"]) == {"m@2"}
            assert extras["drift"]["m@2"]["count"] == 3

    def test_route_totals_survive_retire_and_warm_again(
            self, tmp_path, tuner_pair, small_openmp_dataset):
        """A re-warmed engine counts from 0 under a new serial; the
        aggregator keeps the retired engine's counts beside it."""
        registry = _two_version_registry(tmp_path, tuner_pair,
                                         small_openmp_dataset)
        sent = weakref.WeakKeyDictionary()
        aggregator = DriftAggregator()
        with TuningService(registry) as service:
            def run(pairs):
                results, extras = _execute_tune_map(
                    service, self._requests(pairs, 1), sent)
                assert all(result["ok"] for result in results)
                for label, snapshot in extras["drift"].items():
                    aggregator.update(0, label, snapshot)

            run(REQUEST_GRID[:3])
            assert service.retire("m", 1)
            service.warm("m", 1)
            run(REQUEST_GRID[:1])
        assert aggregator.stats()["m@1"]["count"] == 4

    def test_daemon_drift_stats_match_the_engine(self, tmp_path, tuner_pair,
                                                 small_openmp_dataset):
        """Route drift totals equal an in-process engine's over the same
        script, exactly: skipping unchanged summaries loses nothing."""
        registry = _two_version_registry(tmp_path, tuner_pair,
                                         small_openmp_dataset)
        path = _socket_path()
        with ServeDaemon(path, registry_root=str(tmp_path), workers=1,
                         max_batch=4, watch_interval_s=0):
            with DaemonClient(path) as client:
                # one at a time: the monitor sums scores in arrival order
                for uid, scale in self.SCRIPT:
                    _tune(client, uid, scale, version=1)
                drift = client.stats()["drift"]["routes"]

        with TuningService(registry) as service:
            engine, _ = service.engine("m", 1)
            for uid, scale in self.SCRIPT:
                engine.predict_batch([(kernel_registry.get_kernel(uid),
                                       scale)])
            expected = merge_route_drift([engine.drift_monitor.summary()])
        assert expected["count"] == 5
        assert expected["flagged"] > 0
        assert drift == {"m@1": expected}


# ----------------------------------------------------------------------
class TestHotSwap:
    def test_zero_drain_swap_under_load_with_homogeneous_batches(
            self, tmp_path, tuner_pair, small_openmp_dataset):
        registry = _two_version_registry(tmp_path, tuner_pair,
                                         small_openmp_dataset)
        requests = REQUEST_GRID * 8              # 72 requests
        reference = {version: _engine_reference(registry, version,
                                                REQUEST_GRID)
                     for version in (1, 2)}
        path = _socket_path()
        with ServeDaemon(path, registry_root=str(tmp_path), workers=2,
                         max_batch=4, max_queue=256,
                         watch_interval_s=0.0) as daemon:
            with DaemonClient(path) as admin:
                admin.swap("m", version=1)

                def one(item):
                    uid, scale = item
                    with DaemonClient(path) as client:
                        return _tune(client, kernel=uid, scale=scale)

                with ThreadPoolExecutor(max_workers=8) as pool:
                    futures = [pool.submit(one, item) for item in requests]
                    time.sleep(0.05)            # load in flight: now flip
                    swap = admin.swap("m", version=2)
                    responses = [future.result() for future in futures]
                assert swap["swapped"] and swap["version"] == 2

                # zero dropped, zero duplicated: every offered request got
                # exactly one well-formed response
                assert len(responses) == len(requests)
                versions = {response["version"] for response in responses}
                assert versions <= {1, 2}

                # no mixed-version micro-batch, ever
                by_batch = {}
                for response in responses:
                    key = (response["worker"], response["batch"])
                    by_batch.setdefault(key, set()).add(response["version"])
                assert all(len(seen) == 1 for seen in by_batch.values())

                # every response is byte-identical to its own version's
                # engine — no cross-version contamination
                for item, response in zip(requests, responses):
                    expected = reference[response["version"]][item]
                    assert response["config_label"] == expected[0]
                    assert response["num_threads"] == expected[1]
                    assert response["schedule"] == expected[2]
                    assert response["chunk_size"] == expected[3]
                    assert response["counters"] == expected[4]

                # post-swap traffic is on v2, identical to a cold engine
                post = _tune(admin, kernel="polybench/gemm", scale=1.0)
                assert post["version"] == 2
                assert post["config_label"] == \
                    reference[2][("polybench/gemm", 1.0)][0]
                stats = daemon.stats()
                assert stats["lifecycle"]["routes"]["m"]["active_version"] == 2
                assert stats["lifecycle"]["swaps"] >= 2

    def test_engine_cache_is_version_keyed_across_swap(
            self, tmp_path, tuner_pair, small_openmp_dataset):
        """Satellite: a cached v1 prediction must never answer v2 traffic."""
        registry = _two_version_registry(tmp_path, tuner_pair,
                                         small_openmp_dataset)
        reference = {version: _engine_reference(registry, version,
                                                REQUEST_GRID)
                     for version in (1, 2)}
        path = _socket_path()
        with ServeDaemon(path, registry_root=str(tmp_path), workers=1,
                         max_batch=4, watch_interval_s=0.0):
            with DaemonClient(path) as client:
                client.swap("m", version=1)
                # prime the v1 engine's feature/prediction caches
                before = {item: _tune(client, kernel=item[0], scale=item[1])
                          for item in REQUEST_GRID}
                client.swap("m", version=2)
                after = {item: _tune(client, kernel=item[0], scale=item[1])
                         for item in REQUEST_GRID}
        differing = 0
        for item in REQUEST_GRID:
            assert before[item]["version"] == 1
            assert after[item]["version"] == 2
            assert before[item]["config_label"] == reference[1][item][0]
            # the key assertion: the answer comes from the v2 engine even
            # though the identical request was just cached under v1
            assert after[item]["config_label"] == reference[2][item][0]
            assert after[item]["counters"] == reference[2][item][4]
            differing += int(reference[1][item][0] != reference[2][item][0])
        # the two versions genuinely disagree somewhere, so a stale cache
        # would have been caught (if this ever fails, reseed tuner_pair)
        assert differing > 0

    def test_registry_watch_swaps_unpinned_route(
            self, tmp_path, tuner_pair, small_openmp_dataset):
        registry = _two_version_registry(tmp_path, tuner_pair,
                                         small_openmp_dataset)
        path = _socket_path()
        with ServeDaemon(path, registry_root=str(tmp_path), workers=1,
                         max_batch=4, watch_interval_s=0.05):
            with DaemonClient(path) as client:
                assert _tune(client)["version"] == 2    # latest, unpinned
                registry.publish("m", tuner_pair[0],
                                 drift_baseline=baseline_from_openmp(
                                     small_openmp_dataset))
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    if _tune(client)["version"] == 3:
                        break
                    time.sleep(0.05)
                else:
                    pytest.fail("watch thread never swapped to v3")
                route = client.stats()["lifecycle"]["routes"]["m"]
                assert route["active_version"] == 3
                assert not route["pinned"]
                assert route["last_swap"]["reason"] == "registry-watch"

    def test_unpublished_models_leave_no_route(
            self, tmp_path, tuner_pair, small_openmp_dataset):
        """A tune for a model nobody published stores no route state, so
        the route table stays bounded; a model published later resolves."""
        registry = _two_version_registry(tmp_path, tuner_pair,
                                         small_openmp_dataset)
        path = _socket_path()
        with ServeDaemon(path, registry_root=str(tmp_path), workers=1,
                         max_batch=4):
            with DaemonClient(path) as client:
                assert _tune(client)["version"] == 2
                routes = client.stats()["lifecycle"]["routes"]
                for i in range(200):
                    with pytest.raises(DaemonError) as excinfo:
                        client.request({"op": "tune", "model": f"ghost-{i}",
                                        "kernel": "polybench/gemm",
                                        "scale": 1.0})
                    assert excinfo.value.code == "bad_request"
                assert client.stats()["lifecycle"]["routes"] == routes
                registry.publish("ghost-7", tuner_pair[0])
                late = client.request({"op": "tune", "model": "ghost-7",
                                       "kernel": "polybench/gemm",
                                       "scale": 1.0})
                assert late["version"] == 1
                assert client.stats()["lifecycle"]["routes"][
                    "ghost-7"]["active_version"] == 1

    def test_failed_swaps_leave_no_route(self, tmp_path, tuner_pair):
        """A swap that fails its target check stores no route state, so a
        model published after it resolves to its latest version at once."""
        registry = ModelRegistry(str(tmp_path))
        lifecycle = LifecycleManager(registry, warm=lambda *args: None,
                                     retire=lambda *args: None)
        routes = lifecycle.stats()["routes"]
        for i in range(50):
            with pytest.raises(SwapError):
                lifecycle.swap(f"ghost-{i}")
        assert lifecycle.stats()["routes"] == routes
        registry.publish("ghost-7", tuner_pair[0])
        assert lifecycle.resolve("ghost-7") == 1
        assert lifecycle.swap("ghost-7")["swapped"] is False

    def test_pinned_route_ignores_publishes_until_rollback(
            self, tmp_path, tuner_pair, small_openmp_dataset):
        registry = _two_version_registry(tmp_path, tuner_pair,
                                         small_openmp_dataset)
        path = _socket_path()
        with ServeDaemon(path, registry_root=str(tmp_path), workers=1,
                         max_batch=4, watch_interval_s=0.05):
            with DaemonClient(path) as client:
                client.swap("m", version=1)              # explicit = pinned
                registry.publish("m", tuner_pair[1])
                time.sleep(0.4)                          # several watch ticks
                assert _tune(client)["version"] == 1
                rolled = client.swap("m", version=2)
                assert rolled["version"] == 2
                back = client.rollback("m")
                assert back["version"] == 1
                assert back["previous_version"] == 2
                assert _tune(client)["version"] == 1

    def test_swap_to_unknown_version_is_rejected(
            self, tmp_path, tuner_pair, small_openmp_dataset):
        _two_version_registry(tmp_path, tuner_pair, small_openmp_dataset)
        path = _socket_path()
        with ServeDaemon(path, registry_root=str(tmp_path), workers=1,
                         watch_interval_s=0.0):
            with DaemonClient(path) as client:
                with pytest.raises(DaemonError) as excinfo:
                    client.swap("m", version=99)
                assert excinfo.value.code == "bad_request"
                assert _tune(client)["version"] == 2     # route unharmed


# ----------------------------------------------------------------------
class TestShadowDeploys:
    def _drive(self, path, count, kernel="polybench/gemm", scale=1.0):
        with DaemonClient(path) as client:
            return [_tune(client, kernel=kernel, scale=scale + 0.01 * i)
                    for i in range(count)]

    def test_shadow_tee_compares_off_the_critical_path(
            self, tmp_path, tuner_pair, small_openmp_dataset):
        _two_version_registry(tmp_path, tuner_pair, small_openmp_dataset)
        path = _socket_path()
        with ServeDaemon(path, registry_root=str(tmp_path), workers=2,
                         max_batch=4, watch_interval_s=0.0) as daemon:
            with DaemonClient(path) as admin:
                admin.swap("m", version=1)
                started = admin.shadow_start("m", 2, fraction=1.0,
                                             tolerance=0.25)
                assert started["candidate_version"] == 2
                responses = self._drive(path, 16)
                assert all(r["version"] == 1 for r in responses)

                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    status = admin.shadow_status("m")
                    if status["compared"] >= 16:
                        break
                    time.sleep(0.05)
                assert status["teed"] >= 16
                assert status["compared"] >= 16
                assert status["errors"] == 0
                assert (status["agree"] + status["near"]
                        + status["disagree"]) == status["compared"]
                assert 0.0 <= status["disagreement_rate"] <= 1.0
                for entry in status["recent_disagreements"]:
                    assert entry["primary"]["version"] == 1
                    assert entry["shadow"]["version"] == 2

                stats = daemon.stats()
                assert stats["shadow"]["contention"] == 0
                assert stats["shadow"]["batches"] >= 1
                assert "m" in stats["shadow"]["routes"]

                stopped = admin.shadow_stop("m")
                assert stopped["outcome"] == "stopped"
                final = admin.stats()["shadow"]
                assert final["routes"] == {}
                assert final["finished"]["m"]["compared"] >= 16

    def test_shadow_auto_promote_on_agreement(
            self, tmp_path, tuner_pair, small_openmp_dataset):
        registry = _two_version_registry(tmp_path, tuner_pair,
                                         small_openmp_dataset)
        # v3 repeats the active tuner: predictions agree, rate stays 0
        registry.publish("m", tuner_pair[1])
        path = _socket_path()
        with ServeDaemon(path, registry_root=str(tmp_path), workers=2,
                         max_batch=4, watch_interval_s=0.0):
            with DaemonClient(path) as admin:
                admin.swap("m", version=2)
                admin.shadow_start("m", 3, fraction=1.0, tolerance=0.0,
                                   min_compared=5, promote_below=0.01)
                self._drive(path, 12)
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    route = admin.stats()["lifecycle"]["routes"]["m"]
                    if route["active_version"] == 3:
                        break
                    time.sleep(0.05)
                else:
                    pytest.fail("shadow never auto-promoted")
                assert route["last_swap"]["reason"] == "auto-promote"
                assert _tune(admin)["version"] == 3

    def test_shadow_auto_abort_on_disagreement(
            self, tmp_path, tuner_pair, small_openmp_dataset):
        registry = _two_version_registry(tmp_path, tuner_pair,
                                         small_openmp_dataset)
        reference = {version: _engine_reference(registry, version,
                                                REQUEST_GRID)
                     for version in (1, 2)}
        disagreeing = [item for item in REQUEST_GRID
                       if reference[1][item][0] != reference[2][item][0]]
        if not disagreeing:
            pytest.skip("tuner pair agrees on the whole request grid")
        kernel, scale = disagreeing[0]
        path = _socket_path()
        with ServeDaemon(path, registry_root=str(tmp_path), workers=2,
                         max_batch=4, watch_interval_s=0.0):
            with DaemonClient(path) as admin:
                admin.swap("m", version=1)
                admin.shadow_start("m", 2, fraction=1.0, tolerance=0.0,
                                   min_compared=4, abort_above=0.5)
                with DaemonClient(path) as client:
                    for _ in range(12):
                        _tune(client, kernel=kernel, scale=scale)
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    stats = admin.stats()
                    if not stats["shadow"]["routes"]:
                        break
                    time.sleep(0.05)
                else:
                    pytest.fail("shadow never auto-aborted")
                route = stats["lifecycle"]["routes"]["m"]
                assert route["active_version"] == 1      # abort kept v1


# ----------------------------------------------------------------------
class TestStatsSchema:
    """Satellite: the full online-operations stats payload shape."""

    def test_daemon_stats_schema(self, tmp_path, tuner_pair,
                                 small_openmp_dataset):
        _two_version_registry(tmp_path, tuner_pair, small_openmp_dataset)
        path = _socket_path()
        with ServeDaemon(path, registry_root=str(tmp_path), workers=1,
                         max_batch=4, watch_interval_s=0.1):
            with DaemonClient(path) as client:
                client.swap("m", version=1)
                client.shadow_start("m", 2, fraction=1.0)
                for i in range(4):
                    # distinct scales: memoized repeats are not re-scored
                    _tune(client, scale=1.0 + 0.1 * i)
                time.sleep(0.5)
                stats = client.stats()

        lifecycle = stats["lifecycle"]
        assert lifecycle["enabled"] is True
        assert lifecycle["watch_interval_s"] == pytest.approx(0.1)
        assert isinstance(lifecycle["generation"], int)
        assert isinstance(lifecycle["checks"], int)
        assert isinstance(lifecycle["swaps"], int)
        assert isinstance(lifecycle["warm_failures"], int)
        route = lifecycle["routes"]["m"]
        for key in ("active_version", "previous_version", "pinned", "swaps",
                    "last_swap"):
            assert key in route
        assert set(route["last_swap"]) == {"from", "to", "reason", "at_unix"}

        shadow = stats["shadow"]
        assert set(shadow) == {"routes", "finished", "queue_depth",
                               "batches", "contention"}
        state = shadow["routes"]["m"]
        for key in ("candidate_version", "fraction", "tolerance", "policy",
                    "outcome", "teed", "dropped", "compared", "agree",
                    "near", "disagree", "errors", "disagreement_rate",
                    "recent_disagreements"):
            assert key in state
        assert set(state["policy"]) == {"min_compared", "promote_below",
                                        "abort_above"}

        drift = stats["drift"]["routes"]
        assert "m@1" in drift
        summary = drift["m@1"]
        for key in ("count", "flagged", "flagged_rate", "mean_score",
                    "mean_oob", "mean_unseen_tokens", "band_tvd",
                    "threshold", "drifting"):
            assert key in summary
        assert summary["count"] >= 4
        assert summary["mean_score"] == 0.0      # in-distribution traffic
        assert summary["drifting"] is False

    def test_registryless_daemon_reports_lifecycle_disabled(self):
        path = _socket_path()
        with ServeDaemon(path, workers=1, debug_ops=True):
            with DaemonClient(path) as client:
                stats = client.stats()
                assert stats["lifecycle"] is None
                assert stats["shadow"]["routes"] == {}
                assert stats["drift"]["routes"] == {}
                with pytest.raises(DaemonError) as excinfo:
                    client.swap("m", version=1)
                assert excinfo.value.code == "no_registry"


# ----------------------------------------------------------------------
class TestRouterLifecycle:
    def test_admin_ops_fan_out_to_every_replica_of_the_group(
            self, tmp_path, tuner_pair, small_openmp_dataset):
        _two_version_registry(tmp_path, tuner_pair, small_openmp_dataset)
        paths = [_socket_path(), _socket_path()]
        with ServeDaemon(paths[0], registry_root=str(tmp_path), workers=1,
                         max_batch=4, watch_interval_s=0.0):
            with ServeDaemon(paths[1], registry_root=str(tmp_path),
                             workers=1, max_batch=4, watch_interval_s=0.0):
                router_path = _socket_path()
                with ServeRouter(router_path,
                                 [f"g={paths[0]}", f"g={paths[1]}"],
                                 probe_interval=0.1) as router:
                    with DaemonClient(router_path) as client:
                        result = client.swap("m", version=1)
                        assert result["succeeded"] == 2
                        assert result["attempted"] == 2
                        assert set(result["replicas"]) == set(paths)
                        for entry in result["replicas"].values():
                            assert entry["ok"]
                            assert entry["result"]["version"] == 1
                        # both replicas now actually serve v1
                        for path in paths:
                            with DaemonClient(path) as direct:
                                assert _tune(direct)["version"] == 1
                                route = direct.stats()["lifecycle"][
                                    "routes"]["m"]
                                assert route["active_version"] == 1
                        # drift flows through probes into router stats
                        with DaemonClient(router_path) as via:
                            for _ in range(4):
                                _tune(via)
                        deadline = time.monotonic() + 10.0
                        while time.monotonic() < deadline:
                            drift = router.stats()["drift"]["routes"]
                            if "m@1" in drift:
                                break
                            time.sleep(0.1)
                        else:
                            pytest.fail("router never surfaced drift stats")
                        assert drift["m@1"]["count"] >= 1
                        assert drift["m@1"]["drifting"] is False


# ----------------------------------------------------------------------
def _answer(response):
    """A daemon reply without the fields the daemon adds to an answer."""
    return json.dumps({key: value for key, value in response.items()
                       if key not in ("latency_ms", "worker", "batch")},
                      sort_keys=True)


class TestLoopMemo:
    """Repeats of live tune/map requests are answered by the daemon loop."""

    def test_repeat_is_answered_by_the_loop(self, tmp_path, tuner_pair,
                                            small_openmp_dataset):
        _two_version_registry(tmp_path, tuner_pair, small_openmp_dataset)
        path = _socket_path()
        with ServeDaemon(path, registry_root=str(tmp_path), workers=1,
                         max_batch=4, watch_interval_s=0.0):
            with DaemonClient(path) as client:
                first = _tune(client, kernel="polybench/atax", scale=2.0)
                repeats = [_tune(client, kernel="polybench/atax", scale=2.0)
                           for _ in range(3)]
                pinned = _tune(client, kernel="polybench/atax", scale=2.0,
                               version=first["version"])
        assert isinstance(first["worker"], int)
        for response in repeats + [pinned]:
            assert _answer(response) == _answer(first)
            assert response["worker"] is None
            assert response["latency_ms"] > 0
        batches = [r["batch"] for r in [first] + repeats + [pinned]]
        assert len(set(batches)) == len(batches)

    def test_stats_count_hits_as_completed_requests(
            self, tmp_path, tuner_pair, small_openmp_dataset):
        _two_version_registry(tmp_path, tuner_pair, small_openmp_dataset)
        path = _socket_path()
        with ServeDaemon(path, registry_root=str(tmp_path), workers=1,
                         max_batch=4, cache_size=64,
                         watch_interval_s=0.0) as daemon:
            with DaemonClient(path) as client:
                for _ in range(4):
                    _tune(client, kernel="polybench/gemm", scale=0.5)
            stats = daemon.stats()
        assert stats["requests"]["received"] == 4
        assert stats["requests"]["completed"] == 4
        assert stats["requests"]["memo_hits"] == 3
        assert stats["requests"]["errors"] == 0
        assert stats["batches"]["count"] == 1          # hits are not batches
        assert stats["latency_ms"]["count"] == 4
        assert stats["per_model"] == {"m": 4}
        assert stats["memo"] == {"entries": 1, "capacity": 64}

    def test_swap_between_repeats_moves_the_key(self, tmp_path, tuner_pair,
                                                small_openmp_dataset):
        """The version is part of the key: after a flip the same request
        is the new version's, and pinning the old version still hits."""
        _two_version_registry(tmp_path, tuner_pair, small_openmp_dataset)
        path = _socket_path()
        with ServeDaemon(path, registry_root=str(tmp_path), workers=2,
                         max_batch=4, watch_interval_s=0.0):
            with DaemonClient(path) as client:
                client.swap("m", version=1)
                v1 = [_tune(client) for _ in range(2)]
                client.swap("m", version=2)
                v2 = [_tune(client) for _ in range(2)]
                pinned = _tune(client, version=1)
                client.swap("m", rollback=True)
                back = _tune(client)
        assert [r["version"] for r in v1] == [1, 1]
        assert [r["version"] for r in v2] == [2, 2]
        assert v1[1]["worker"] is None and v2[1]["worker"] is None
        assert isinstance(v2[0]["worker"], int)     # a miss after the flip
        assert _answer(v2[1]) == _answer(v2[0])
        for response in (pinned, back):
            assert response["worker"] is None
            assert _answer(response) == _answer(v1[0])

    def test_memo_never_exceeds_cache_size(self, tmp_path, tuner_pair,
                                           small_openmp_dataset):
        _two_version_registry(tmp_path, tuner_pair, small_openmp_dataset)
        path = _socket_path()
        with ServeDaemon(path, registry_root=str(tmp_path), workers=1,
                         max_batch=4, cache_size=3,
                         watch_interval_s=0.0) as daemon:
            with DaemonClient(path) as client:
                entries = []

                def hit(scale):
                    response = _tune(client, scale=scale)
                    entries.append(daemon.stats()["memo"]["entries"])
                    return response["worker"] is None

                # least recently used first, as the memo should order it
                assert [hit(s) for s in (0.5, 1.0, 2.0)] == [False] * 3
                assert hit(0.5)                       # 1.0 2.0 0.5
                assert not hit(3.0)                   # 2.0 0.5 3.0
                assert hit(0.5)                       # 2.0 3.0 0.5
                assert not hit(1.0)                   # 3.0 0.5 1.0
                assert [hit(s) for s in (4.0, 5.0)] == [False] * 2
                assert [hit(s) for s in (1.0, 4.0, 5.0)] == [True] * 3
                assert daemon.stats()["memo"]["capacity"] == 3
        assert entries == [1, 2, 3] + [3] * 9

    def test_hit_is_teed_to_a_running_shadow(self, tmp_path, tuner_pair,
                                             small_openmp_dataset):
        _two_version_registry(tmp_path, tuner_pair, small_openmp_dataset)
        path = _socket_path()
        with ServeDaemon(path, registry_root=str(tmp_path), workers=2,
                         max_batch=4, watch_interval_s=0.0):
            with DaemonClient(path) as admin:
                admin.swap("m", version=1)
                _tune(admin)                          # fills the memo
                admin.shadow_start("m", 2, fraction=1.0, tolerance=0.25)
                hit = _tune(admin)
                assert hit["worker"] is None
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    status = admin.shadow_status("m")
                    if status["compared"] >= 1:
                        break
                    time.sleep(0.05)
        assert status["teed"] == 1
        assert status["compared"] == 1
        assert status["errors"] == 0

    def test_non_scalar_fields_go_to_the_worker(self, tmp_path, tuner_pair,
                                                small_openmp_dataset):
        _two_version_registry(tmp_path, tuner_pair, small_openmp_dataset)
        path = _socket_path()
        with ServeDaemon(path, registry_root=str(tmp_path), workers=1,
                         max_batch=4, watch_interval_s=0.0):
            with DaemonClient(path) as client:
                for scale in ([1.0], {"x": 1.0}, [1.0]):
                    with pytest.raises(DaemonError) as err:
                        _tune(client, scale=scale)
                    assert err.value.code == "bad_request"
                    assert "TypeError" in err.value.message
                assert client.ping()
                stats = client.stats()
        assert stats["requests"]["errors"] == 3
        assert stats["requests"]["memo_hits"] == 0
        assert stats["memo"]["entries"] == 0
        assert stats["batches"]["count"] == 3


class TestDaemonParentImports:
    """The daemon parent parses, queues, memoizes, aggregates and swaps;
    only its workers import numpy and the model stack."""

    def test_parent_serves_and_swaps_without_the_model_stack(
            self, tmp_path, tuner_pair, small_openmp_dataset):
        registry = _two_version_registry(tmp_path, tuner_pair,
                                         small_openmp_dataset)
        cold = REQUEST_GRID + [("polybench/gemm", 3.0)]
        swapped = ("polybench/atax", 4.0)
        src = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                           os.pardir, "src"))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        script = f"""
import json, os, sys, tempfile
from repro.serve.client import DaemonClient
from repro.serve.daemon import ServeDaemon

def tune(client, uid, scale):
    return client.request({{"op": "tune", "model": "m", "kernel": uid,
                           "scale": scale}})

with tempfile.TemporaryDirectory(prefix="repro-lc-") as work:
    path = os.path.join(work, "d.sock")
    with ServeDaemon(path, registry_root={str(tmp_path)!r}, workers=2,
                     preload=["m"]):
        with DaemonClient(path) as client:
            client.swap("m", version=1)
            cold = [tune(client, uid, scale) for uid, scale in {cold!r}]
            repeat = tune(client, *{cold[0]!r})
            stats = client.stats()
            client.swap("m", version=2)
            after = tune(client, *{swapped!r})
print(json.dumps({{
    "cold": cold, "repeat": repeat, "after": after,
    "memo_hits": stats["requests"]["memo_hits"],
    "loaded": [name for name in ("numpy", "repro.core", "repro.nn",
                                 "repro.serve.artifacts")
               if name in sys.modules],
}}))
"""
        child = subprocess.run([sys.executable, "-c", script],
                               capture_output=True, text=True, env=env,
                               timeout=180)
        assert child.returncode == 0, child.stderr
        report = json.loads(child.stdout)
        assert report["loaded"] == []
        assert report["memo_hits"] == 1
        assert report["repeat"]["worker"] is None
        assert all(isinstance(r["worker"], int) for r in report["cold"])

        def expected(version, requests):
            answers = []
            with InferenceEngine(registry.load("m", version)) as engine:
                for uid, scale in requests:
                    config, counters = engine.tune(
                        kernel_registry.get_kernel(uid), scale)
                    answers.append(json.dumps(tune_response_fields(
                        "m", version, uid, scale, config, counters),
                        sort_keys=True))
            return answers

        assert [_answer(r) for r in report["cold"]] == expected(1, cold)
        assert _answer(report["repeat"]) == expected(1, cold[:1])[0]
        assert _answer(report["after"]) == expected(2, [swapped])[0]
