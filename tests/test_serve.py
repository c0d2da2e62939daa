"""The serving subsystem: artifacts, registry, engine, service and CLI."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core import DeviceMapper, MGATuner
from repro.datasets import DevMapDatasetBuilder
from repro.kernels import registry as kernel_registry
from repro.serve import (
    ArtifactError,
    InferenceEngine,
    MapRequest,
    ModelRegistry,
    TuneRequest,
    TuningService,
    load_artifact,
    read_manifest,
    save_artifact,
)
from repro.serve.cli import main as cli_main
from repro.simulator.microarch import COMET_LAKE_8C, TAHITI_7970

TRAIN_KW = dict(gnn_hidden=12, gnn_out=12, dae_hidden=24, dae_code=8,
                mlp_hidden=16)


@pytest.fixture(scope="module")
def trained_tuner(small_openmp_dataset, extractor):
    ds = small_openmp_dataset
    train_idx, val_idx = ds.kfold_by_kernel(k=4, seed=0)[0]
    tuner = MGATuner(COMET_LAKE_8C, ds.configs, extractor=extractor, seed=0,
                     **TRAIN_KW)
    tuner.fit(ds, train_indices=train_idx, epochs=6, dae_epochs=4)
    return tuner, val_idx


@pytest.fixture(scope="module")
def trained_mapper(extractor):
    specs = kernel_registry.opencl_kernels()[:12]
    dataset = DevMapDatasetBuilder(TAHITI_7970, extractor=extractor,
                                   seed=1).build(specs, points_per_kernel=2)
    mapper = DeviceMapper(extractor=extractor, seed=0, **TRAIN_KW)
    mapper.fit(dataset, epochs=6, dae_epochs=4)
    return mapper, dataset


# ----------------------------------------------------------------------
class TestArtifacts:
    def test_tuner_round_trip_identical_predictions(self, tmp_path,
                                                    trained_tuner,
                                                    small_openmp_dataset):
        tuner, val_idx = trained_tuner
        path = tmp_path / "tuner"
        tuner.save(path)
        manifest = read_manifest(path)
        assert manifest["kind"] == "mga_tuner"
        assert manifest["format_version"] == 1

        loaded = MGATuner.load(path)
        assert loaded.counter_names == tuner.counter_names
        assert loaded.configs == tuner.configs
        assert loaded.arch == tuner.arch
        np.testing.assert_array_equal(
            tuner.predict_indices(small_openmp_dataset, val_idx),
            loaded.predict_indices(small_openmp_dataset, val_idx))

    def test_mapper_round_trip(self, tmp_path, trained_mapper):
        mapper, dataset = trained_mapper
        path = tmp_path / "mapper"
        mapper.save(path)
        loaded = DeviceMapper.load(path)
        indices = list(range(len(dataset)))
        np.testing.assert_array_equal(mapper.predict(dataset, indices),
                                      loaded.predict(dataset, indices))
        spec = kernel_registry.opencl_kernels()[15]
        assert loaded.map_device(spec, 1e6, 64) == \
            mapper.map_device(spec, 1e6, 64)

    def test_model_round_trip(self, tmp_path, trained_tuner,
                              small_openmp_dataset):
        tuner, val_idx = trained_tuner
        ds = small_openmp_dataset
        save_artifact(tmp_path / "model", tuner.model)
        model = load_artifact(tmp_path / "model")
        samples = ds.subset(val_idx)
        graphs = [s.graph for s in samples]
        vectors = np.stack([s.vector for s in samples])
        extra = ds.counter_matrix(samples)
        np.testing.assert_array_equal(
            tuner.model.predict(graphs, vectors, extra),
            model.predict(graphs, vectors, extra))

    def test_corrupted_payload_detected(self, tmp_path, trained_tuner):
        tuner, _ = trained_tuner
        path = tmp_path / "corrupt"
        tuner.save(path)
        arrays = path / "arrays.npz"
        blob = bytearray(arrays.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        arrays.write_bytes(bytes(blob))
        with pytest.raises(ArtifactError, match="integrity"):
            load_artifact(path)

    def test_missing_manifest_detected(self, tmp_path):
        with pytest.raises(ArtifactError):
            load_artifact(tmp_path)

    def test_wrong_kind_rejected_by_typed_load(self, tmp_path, trained_tuner):
        tuner, _ = trained_tuner
        tuner.save(tmp_path / "t")
        with pytest.raises(TypeError):
            DeviceMapper.load(tmp_path / "t")


# ----------------------------------------------------------------------
class TestModelRegistry:
    def test_publish_versioning_and_load(self, tmp_path, trained_tuner,
                                         small_openmp_dataset):
        tuner, val_idx = trained_tuner
        registry = ModelRegistry(tmp_path / "reg")
        v1 = registry.publish("openmp-comet", tuner, metadata={"run": 1})
        v2 = registry.publish("openmp-comet", tuner, metadata={"run": 2})
        assert (v1.version, v2.version) == (1, 2)
        assert registry.versions("openmp-comet") == [1, 2]
        assert registry.latest("openmp-comet") == 2
        assert registry.list_models() == ["openmp-comet"]
        assert registry.info("openmp-comet")["metadata"] == {"run": 2}
        assert registry.info("openmp-comet", 1)["metadata"] == {"run": 1}
        assert [e.ref for e in registry.describe()] == \
            ["openmp-comet@1", "openmp-comet@2"]

        loaded = registry.load("openmp-comet")
        np.testing.assert_array_equal(
            tuner.predict_indices(small_openmp_dataset, val_idx),
            loaded.predict_indices(small_openmp_dataset, val_idx))

    def test_invalid_names_and_missing_models(self, tmp_path, trained_tuner):
        registry = ModelRegistry(tmp_path / "reg2")
        with pytest.raises(ValueError):
            registry.publish("../escape", trained_tuner[0])
        with pytest.raises(KeyError):
            registry.load("absent")
        assert registry.latest("absent") is None


# ----------------------------------------------------------------------
class TestDeviceMapperFixes:
    def test_fit_empty_samples_raises(self, trained_mapper):
        _, dataset = trained_mapper
        with pytest.raises(ValueError, match="no training samples"):
            DeviceMapper(**TRAIN_KW).fit(dataset, train_indices=[])

    def test_map_device_before_fit_raises(self):
        spec = kernel_registry.opencl_kernels()[0]
        with pytest.raises(RuntimeError):
            DeviceMapper().map_device(spec, 1e6, 64)


# ----------------------------------------------------------------------
class TestInferenceEngine:
    def test_batched_results_match_naive_tune(self, trained_tuner):
        tuner, _ = trained_tuner
        specs = [kernel_registry.get_kernel(uid)
                 for uid in ("polybench/atax", "polybench/gemm",
                             "rodinia/kmeans")]
        requests = [(spec, scale) for spec in specs for scale in (0.5, 1.5)]
        naive = [tuner.tune(spec, scale=scale) for spec, scale in requests]
        with InferenceEngine(tuner, max_wait_ms=1.0) as engine:
            batched = engine.tune_many(requests)
            repeat = engine.tune(specs[0], scale=0.5)   # memoized path
            stats = engine.stats()
        for (config_a, counters_a), (config_b, counters_b) in zip(naive,
                                                                  batched):
            assert config_a == config_b
            assert counters_a == counters_b
        assert repeat[0] == naive[0][0]
        assert stats["requests"] == len(requests) + 1
        assert stats["completed"] == len(requests) + 1
        assert stats["memoized_responses"] >= 1
        assert stats["errors"] == 0

    def test_predict_batch_answers_on_the_callers_thread(self, trained_tuner):
        tuner, _ = trained_tuner
        specs = [kernel_registry.get_kernel(uid)
                 for uid in ("polybench/atax", "polybench/gemm",
                             "rodinia/kmeans")]
        queries = [(spec, scale) for spec in specs for scale in (0.5, 1.5)]
        naive = [tuner.tune(spec, scale=scale) for spec, scale in queries]
        with InferenceEngine(tuner, max_batch_size=4) as engine:
            answers = engine.predict_batch(queries)
            memoized, broken = engine.predict_batch(
                [queries[0], (specs[0], float("nan"))])
            stats = engine.stats()
            assert engine._worker is None        # no engine thread started
        assert answers == naive
        assert memoized == naive[0]
        assert isinstance(broken, ValueError)    # fails alone, in its slot
        assert stats["batches"] == 2             # chunks of 4 + 2
        assert stats["requests"] == len(queries) + 1
        assert stats["completed"] == len(queries) + 1
        assert stats["memoized_responses"] == 1
        assert stats["errors"] == 0
        assert stats["batch_cache_hit_rate"] == 0.0

    def test_map_requests_match_mapper(self, trained_mapper):
        mapper, _ = trained_mapper
        specs = kernel_registry.opencl_kernels()[12:16]
        with InferenceEngine(mapper, max_wait_ms=1.0) as engine:
            handles = [engine.submit_map(spec, 2e6, 128) for spec in specs]
            labels = [h.result(timeout=30) for h in handles]
        assert labels == [mapper.map_device(spec, 2e6, 128) for spec in specs]
        assert all(label in (0, 1) for label in labels)

    def test_request_kind_and_lifecycle_errors(self, trained_tuner,
                                               trained_mapper):
        tuner, _ = trained_tuner
        spec = kernel_registry.get_kernel("polybench/atax")
        with InferenceEngine(tuner) as engine:
            with pytest.raises(TypeError):
                engine.submit_map(spec, 1e6, 64)
        with pytest.raises(RuntimeError, match="closed"):
            engine.submit_tune(spec)
        with pytest.raises(ValueError, match="not fitted"):
            InferenceEngine(MGATuner(COMET_LAKE_8C,
                                     [c for c in trained_tuner[0].configs]))


# ----------------------------------------------------------------------
#: every fourth OpenMP kernel, as the benchmarks hold them out
UNSEEN = [spec for i, spec in enumerate(kernel_registry.openmp_kernels())
          if i % 4 == 3]


class TestStaticCodeCache:
    """Per-kernel GNN/DAE codes are computed once and reused across scales."""

    def test_one_miss_per_kernel_and_answers_match_tuner(self,
                                                         trained_tuner):
        tuner, _ = trained_tuner
        # each kernel's three scales sit side by side, so chunks of 8
        # repeat kernels within a batch as well as across batches
        queries = [(spec, scale) for spec in UNSEEN
                   for scale in (0.5, 1.0, 1.5)]
        with InferenceEngine(tuner, max_batch_size=8) as engine:
            answers = engine.predict_batch(queries)
            stats = engine.stats()
        assert answers == [tuner.tune(spec, scale=scale)
                           for spec, scale in queries]
        assert stats["code_cache_misses"] == len(UNSEEN)
        assert stats["code_cache_hits"] == len(queries) - len(UNSEEN)
        assert stats["code_cache_entries"] == len(UNSEEN)

    def test_map_requests_share_codes_across_sizes(self, trained_mapper):
        mapper, _ = trained_mapper
        specs = kernel_registry.opencl_kernels()[12:16]
        queries = [(spec, transfer, wgsize) for spec in specs
                   for transfer, wgsize in ((2e6, 64), (8e6, 128),
                                            (3e7, 256))]
        with InferenceEngine(mapper, max_wait_ms=1.0) as engine:
            labels = [engine.map_device(*query) for query in queries]
            stats = engine.stats()
        assert labels == [mapper.map_device(*query) for query in queries]
        assert stats["code_cache_misses"] == len(specs)
        assert stats["code_cache_hits"] == len(queries) - len(specs)

    def test_bounded_by_cache_size(self, trained_tuner):
        tuner, _ = trained_tuner
        queries = [(spec, scale) for scale in (0.5, 1.0, 1.5)
                   for spec in UNSEEN[:3]]
        with InferenceEngine(tuner, max_batch_size=2,
                             cache_size=2) as engine:
            answers = engine.predict_batch(queries)
            stats = engine.stats()
        assert answers == [tuner.tune(spec, scale=scale)
                           for spec, scale in queries]
        assert stats["code_cache_entries"] <= 2
        # cycling three kernels through two slots evicts before each reuse
        assert stats["code_cache_misses"] > 3

    def test_each_engine_answers_as_its_own_model(self, trained_tuner,
                                                  small_openmp_dataset,
                                                  extractor):
        tuner, _ = trained_tuner
        other = MGATuner(COMET_LAKE_8C, small_openmp_dataset.configs,
                         extractor=extractor, seed=5, **TRAIN_KW)
        other.fit(small_openmp_dataset, epochs=2, dae_epochs=2)
        queries = [(spec, scale) for spec in UNSEEN
                   for scale in (0.5, 1.5)]
        expected = [[t.tune(spec, scale=scale)[0] for spec, scale in queries]
                    for t in (tuner, other)]
        # the two versions must disagree somewhere for the check to bite
        assert expected[0] != expected[1]
        answers = [[], []]
        with InferenceEngine(tuner) as first, \
                InferenceEngine(other) as second:
            for query in queries:           # the same kernel, interleaved
                for engine, out in zip((first, second), answers):
                    out.append(engine.predict_batch([query])[0][0])
            assert first.stats()["code_cache_hits"] == len(UNSEEN)
        assert answers == expected


# ----------------------------------------------------------------------
class TestTuningService:
    def test_tune_and_map_end_to_end(self, tmp_path, trained_tuner,
                                     trained_mapper):
        tuner, _ = trained_tuner
        mapper, _ = trained_mapper
        registry = ModelRegistry(tmp_path / "reg")
        registry.publish("openmp", tuner)
        registry.publish("devmap", mapper)

        with TuningService(registry, max_wait_ms=1.0) as service:
            response = service.tune(TuneRequest(
                model="openmp", kernel="polybench/atax", target_bytes=32e6))
            assert response.model == "openmp" and response.version == 1
            assert response.config_label.startswith(
                f"t{response.num_threads}/")
            assert set(response.counters) == set(tuner.counter_names)
            assert response.latency_ms > 0

            mapped = service.map_device(MapRequest(
                model="devmap", kernel=kernel_registry.opencl_kernels()[15].uid,
                transfer_bytes=4e6, wgsize=128))
            assert mapped.device in ("cpu", "gpu")
            assert mapped.label in (0, 1)

            with pytest.raises(TypeError):
                service.tune(TuneRequest(model="devmap",
                                         kernel="polybench/atax"))
            with pytest.raises(ValueError, match="only one"):
                service.tune(TuneRequest(model="openmp",
                                         kernel="polybench/atax",
                                         scale=1.0, target_bytes=32e6))
            stats = service.stats()
        assert stats["requests"] == 4
        assert stats["errors"] == 2
        assert stats["per_model_requests"] == {"openmp": 2, "devmap": 2}
        assert "openmp@1" in stats["engines"]

    def test_unknown_model_raises(self, tmp_path):
        service = TuningService(ModelRegistry(tmp_path / "empty"))
        with pytest.raises(KeyError):
            service.tune(TuneRequest(model="ghost", kernel="polybench/gemm"))


# ----------------------------------------------------------------------
class TestCLI:
    def test_publish_list_tune(self, tmp_path, capsys):
        root = str(tmp_path / "cli-reg")
        assert cli_main(["publish-demo", "--root", root, "--name", "demo",
                         "--kernels", "4", "--inputs", "2",
                         "--epochs", "2"]) == 0
        published = json.loads(capsys.readouterr().out)
        assert published["published"] == "demo@1"

        assert cli_main(["list", "--root", root]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert [(e["name"], e["version"]) for e in listing] == [("demo", 1)]

        assert cli_main(["info", "--root", root, "demo"]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["kind"] == "mga_tuner"

        assert cli_main(["tune", "--root", root, "--model", "demo",
                         "--kernel", "polybench/atax",
                         "--target-bytes", "3.2e7"]) == 0
        response = json.loads(capsys.readouterr().out)
        assert response["kernel"] == "polybench/atax"
        assert response["num_threads"] >= 1

    def test_missing_model_reports_error(self, tmp_path, capsys):
        root = str(tmp_path / "cli-reg2")
        os.makedirs(root, exist_ok=True)
        assert cli_main(["tune", "--root", root, "--model", "ghost",
                         "--kernel", "polybench/gemm"]) == 1
        assert "error" in json.loads(capsys.readouterr().err)


# ----------------------------------------------------------------------
_CHILD_SCRIPT = """\
import json, sys
import numpy as np
from repro.core.features import StaticFeatureExtractor
from repro.datasets.openmp import OpenMPDatasetBuilder
from repro.kernels import registry
from repro.serve import ModelRegistry
from repro.simulator.microarch import COMET_LAKE_8C
from repro.tuners.space import thread_search_space

root, name = sys.argv[1], sys.argv[2]
uids = json.loads(sys.argv[3])
val_idx = json.loads(sys.argv[4])
specs = [registry.get_kernel(uid) for uid in uids]
builder = OpenMPDatasetBuilder(COMET_LAKE_8C,
                               list(thread_search_space(COMET_LAKE_8C)),
                               extractor=StaticFeatureExtractor(vector_dim=32),
                               seed=0)
dataset = builder.build(specs, np.geomspace(1e5, 2e8, 4))
tuner = ModelRegistry(root).load(name)
preds = tuner.predict_indices(dataset, val_idx)
print(json.dumps([int(p) for p in preds]))
"""

#: must match the ``small_specs`` conftest fixture (the child process
#: rebuilds the identical dataset from scratch)
_SMALL_SPEC_UIDS = ["polybench/gemm", "polybench/jacobi-2d",
                    "polybench/trisolv", "rodinia/kmeans", "rodinia/bfs",
                    "stream/triad", "dataracebench/DRB061", "npb/EP"]


class TestCrossProcess:
    def test_published_model_identical_in_fresh_process(
            self, tmp_path, trained_tuner, small_openmp_dataset):
        """The acceptance criterion: publish here, load in a *fresh* python
        process, get identical predictions on the held-out split."""
        tuner, val_idx = trained_tuner
        registry = ModelRegistry(tmp_path / "xproc")
        registry.publish("openmp-comet", tuner)
        parent_preds = [int(p) for p in
                        tuner.predict_indices(small_openmp_dataset, val_idx)]

        script = tmp_path / "child.py"
        script.write_text(_CHILD_SCRIPT)
        src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir,
                                           "src"))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, str(script), str(tmp_path / "xproc"),
             "openmp-comet", json.dumps(_SMALL_SPEC_UIDS),
             json.dumps(list(map(int, val_idx)))],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        child_preds = json.loads(proc.stdout)
        assert child_preds == parent_preds
