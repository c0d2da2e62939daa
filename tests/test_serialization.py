"""State-dict round trips: scalers, modules and the full MGA model —
plus on-disk artifact integrity for campaign checkpoints.

The satellite requirement: after ``state_dict`` → fresh model →
``load_state_dict``, predictions must be bit-identical, for every
:class:`ModalityConfig` ablation variant (the extra state plumbing carries
the fitted min-max and Gauss-rank scalers alongside the weights).
"""

import os

import numpy as np
import pytest

from repro.core import MGAModel, ModalityConfig
from repro.dae import DenoisingAutoencoder
from repro.nn import GaussRankScaler, MinMaxScaler, MLP, StandardScaler

ALL_VARIANTS = [
    ("mga", ModalityConfig.mga()),
    ("mga_static", ModalityConfig.mga_static()),
    ("programl", ModalityConfig.programl()),
    ("programl_static", ModalityConfig.programl_static()),
    ("ir2vec", ModalityConfig.ir2vec()),
    ("ir2vec_static", ModalityConfig.ir2vec_static()),
    ("dynamic_only", ModalityConfig.dynamic_only()),
]


class TestScalerState:
    def test_minmax_round_trip(self, rng):
        x = rng.normal(size=(20, 4)) * 50
        scaler = MinMaxScaler().fit(x)
        clone = MinMaxScaler()
        clone.set_state(scaler.get_state())
        np.testing.assert_array_equal(scaler.transform(x), clone.transform(x))

    def test_standard_round_trip(self, rng):
        x = rng.normal(size=(20, 4))
        scaler = StandardScaler().fit(x)
        clone = StandardScaler()
        clone.set_state(scaler.get_state())
        np.testing.assert_array_equal(scaler.transform(x), clone.transform(x))

    def test_gaussrank_round_trip(self, rng):
        x = rng.normal(size=(30, 3))
        scaler = GaussRankScaler().fit(x)
        clone = GaussRankScaler()
        clone.set_state(scaler.get_state())
        unseen = rng.normal(size=(7, 3))
        np.testing.assert_array_equal(scaler.transform(unseen),
                                      clone.transform(unseen))
        # states saved before the quantile table was persisted still load
        assert set(scaler.get_state()) == {"sorted", "table"}
        legacy = GaussRankScaler()
        legacy.set_state({"sorted": scaler.get_state()["sorted"]})
        assert legacy.transform(unseen).tobytes() \
            == scaler.transform(unseen).tobytes()

    def test_unfitted_state_is_empty(self):
        assert MinMaxScaler().get_state() == {}
        assert GaussRankScaler().get_state() == {}


class TestModuleStateDict:
    def test_missing_parameter_raises(self):
        mlp = MLP(4, [3], 2)
        state = mlp.state_dict()
        state.pop(sorted(state)[0])
        with pytest.raises(KeyError):
            MLP(4, [3], 2).load_state_dict(state)

    def test_shape_mismatch_raises(self):
        state = MLP(4, [3], 2).state_dict()
        with pytest.raises(ValueError):
            MLP(4, [5], 2).load_state_dict(state)

    def test_dae_extra_state_restores_scaler_and_flag(self, rng):
        vectors = rng.normal(size=(24, 6))
        dae = DenoisingAutoencoder(6, hidden_dim=8, code_dim=3, seed=0)
        dae.fit(vectors, epochs=2)
        state = dae.state_dict()
        assert any(key.startswith("scaler.") for key in state)

        clone = DenoisingAutoencoder(6, hidden_dim=8, code_dim=3, seed=1)
        clone.load_state_dict(state)
        unseen = rng.normal(size=(5, 6))
        np.testing.assert_array_equal(dae.encode(unseen), clone.encode(unseen))


class TestMGAModelRoundTrip:
    @pytest.mark.parametrize("name,modalities", ALL_VARIANTS,
                             ids=[n for n, _ in ALL_VARIANTS])
    def test_bit_identical_predictions(self, small_openmp_dataset, name,
                                       modalities):
        ds = small_openmp_dataset
        graphs = [s.graph for s in ds.samples]
        vectors = np.stack([s.vector for s in ds.samples])
        extra = ds.counter_matrix()
        labels = ds.labels()
        model = MGAModel(graph_feature_dim=graphs[0].feature_dim,
                         vector_dim=vectors.shape[1], extra_dim=extra.shape[1],
                         num_classes=ds.num_configs, modalities=modalities,
                         gnn_hidden=8, gnn_out=8, dae_hidden=16, dae_code=6,
                         mlp_hidden=12, seed=0)
        model.fit(graphs, vectors, extra, labels, epochs=2, dae_epochs=2)

        state = model.state_dict()
        clone = MGAModel.from_config(model.get_config())
        assert clone.modalities == modalities
        clone.load_state_dict(state)

        reference = model.predict_proba(graphs, vectors, extra)
        restored = clone.predict_proba(graphs, vectors, extra)
        np.testing.assert_array_equal(reference, restored)

    def test_tuner_artifact_without_gaussrank_table(self, tmp_path,
                                                    small_openmp_dataset,
                                                    extractor):
        """An artifact published before the table was persisted predicts
        byte-identically to one that carries it."""
        from repro.core import MGATuner
        from repro.serve.artifacts import (load_artifact, payload_for,
                                           write_artifact_dir)
        from repro.simulator.microarch import COMET_LAKE_8C

        ds = small_openmp_dataset
        tuner = MGATuner(COMET_LAKE_8C, ds.configs, extractor=extractor,
                         seed=0, gnn_hidden=8, gnn_out=8, dae_hidden=16,
                         dae_code=6, mlp_hidden=12)
        tuner.fit(ds, epochs=2, dae_epochs=2)
        kind, config, arrays = payload_for(tuner)
        legacy = {key: value for key, value in arrays.items()
                  if not key.endswith("scaler.table")}
        assert set(arrays) - set(legacy) == {"model.dae.scaler.table"}
        write_artifact_dir(tmp_path / "new", kind, config, arrays)
        write_artifact_dir(tmp_path / "legacy", kind, config, legacy)

        graphs = [s.graph for s in ds.samples]
        vectors = np.stack([s.vector for s in ds.samples])
        extra = ds.counter_matrix()
        reference = tuner.model.predict_logits(graphs, vectors, extra)
        for name in ("new", "legacy"):
            loaded = load_artifact(tmp_path / name)
            logits = loaded.model.predict_logits(graphs, vectors, extra)
            assert logits.tobytes() == reference.tobytes(), name

    def test_unfitted_clone_refuses_predict(self, small_openmp_dataset):
        ds = small_openmp_dataset
        model = MGAModel(ds.samples[0].graph.feature_dim, 32, 5,
                         ds.num_configs)
        clone = MGAModel.from_config(model.get_config())
        with pytest.raises(RuntimeError):
            clone.predict([ds.samples[0].graph],
                          ds.samples[0].vector[None, :], np.zeros((1, 5)))


class TestCampaignCheckpointArtifacts:
    """On-disk integrity of campaign checkpoints (repro.serve artifacts)."""

    @staticmethod
    def _campaign(checkpoint_path, max_evals=8):
        from repro.simulator.microarch import COMET_LAKE_8C
        from repro.tuners import (SimObjectiveSpec, TuningCampaign,
                                  full_search_space, make_tuner)
        space = full_search_space(threads=(1, 2, 4, 8), chunks=(1, 32, 256))
        spec = SimObjectiveSpec(kernel_uid="polybench/atax",
                                arch=COMET_LAKE_8C, scale=0.2, seed=5)
        campaign = TuningCampaign(make_tuner("random", budget=16, seed=1),
                                  space, spec, batch_size=4,
                                  checkpoint_path=os.fspath(checkpoint_path))
        if max_evals:
            campaign.run(max_evals=max_evals)
        return campaign

    def test_checkpoint_save_load_integrity(self, tmp_path):
        from repro.serve.artifacts import load_artifact, read_manifest
        from repro.tuners import TuningCampaign
        ck = tmp_path / "ck"
        campaign = self._campaign(ck)
        manifest = read_manifest(ck)
        assert manifest["kind"] == "tuning_campaign"
        restored = load_artifact(ck)
        assert isinstance(restored, TuningCampaign)
        assert restored.history == campaign.history
        assert restored.space.configs == campaign.space.configs
        assert restored.objective_spec == campaign.objective_spec
        assert restored.tuner.get_config() == campaign.tuner.get_config()

    def test_sha256_mismatch_raises(self, tmp_path):
        from repro.serve.artifacts import ArtifactError, load_artifact
        ck = tmp_path / "ck"
        self._campaign(ck)
        arrays = ck / "arrays.npz"
        payload = bytearray(arrays.read_bytes())
        payload[-1] ^= 0xFF
        arrays.write_bytes(bytes(payload))
        with pytest.raises(ArtifactError, match="integrity"):
            load_artifact(ck)

    def test_partial_write_keeps_previous_checkpoint(self, tmp_path,
                                                     monkeypatch):
        """A crash mid-save must neither corrupt the previous checkpoint nor
        leave staging litter behind."""
        import repro.serve.artifacts as artifacts
        from repro.serve.artifacts import load_artifact
        ck = tmp_path / "ck"
        campaign = self._campaign(ck)
        before = load_artifact(ck).history

        real_savez = np.savez

        def exploding_savez(path, **arrays):
            real_savez(path, **arrays)      # bytes hit the disk...
            raise OSError("disk full")      # ...but the save "crashes"

        monkeypatch.setattr(artifacts.np, "savez", exploding_savez)
        with pytest.raises(OSError):
            campaign.run(max_evals=4)
        monkeypatch.undo()

        assert load_artifact(ck).history == before     # old state intact
        staging = [p for p in os.listdir(tmp_path)
                   if p.startswith(".staging")]
        assert staging == []                           # temp dirs cleaned up

    def test_registry_publish_cleans_staging_on_failure(self, tmp_path,
                                                        monkeypatch):
        from repro.serve.registry import ModelRegistry
        registry = ModelRegistry(tmp_path / "reg")
        with pytest.raises(TypeError):
            registry.publish("broken", object())
        model_dir = tmp_path / "reg" / "broken"
        leftovers = ([p for p in os.listdir(model_dir)
                      if p.startswith(".staging")]
                     if model_dir.exists() else [])
        assert leftovers == []
