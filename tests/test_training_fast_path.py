"""Vectorised training fast path: equivalence, dtype and caching tests.

The contract under test: the fast path (float32, sorted-segment kernels,
fused GRU, cached batches, precomputed frozen modalities) is a *performance*
change only — float64 mode with the seed training schedule reproduces the
seed implementation's logits (golden file, atol 1e-8), and every vectorised
kernel matches its naive ``np.add.at`` reference.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mga import MGAModel, ModalityConfig
from repro.datasets.openmp import OpenMPDatasetBuilder
from repro.gnn.conv import (
    FusedGRUCell,
    GATConv,
    GCNConv,
    GGNNConv,
    GRUCell,
    SAGEConv,
)
from repro.graphs.hetero import EdgeLayout, GraphBatchCache
from repro.kernels import registry
from repro.nn import Dropout, Tensor, use_fast_segment_ops
from repro.nn.layers import Module
from repro.nn.tape import Tape
from repro.simulator.microarch import COMET_LAKE_8C
from repro.tuners.space import thread_search_space

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_mga_float64.npz"


def _random_edges(rng: np.random.Generator, num_nodes: int,
                  num_edges: int) -> np.ndarray:
    return np.stack([rng.integers(0, num_nodes, num_edges),
                     rng.integers(0, num_nodes, num_edges)]).astype(np.int64)


class TestConvOldVsNew:
    """The sorted-segment (reduceat) path matches the np.add.at reference."""

    @pytest.mark.parametrize("conv_cls", [GGNNConv, GATConv, GCNConv, SAGEConv])
    def test_forward_and_backward_match(self, conv_cls):
        rng = np.random.default_rng(42)
        num_nodes, num_edges, dim = 30, 140, 6
        edges = _random_edges(rng, num_nodes, num_edges)
        conv = conv_cls(dim, dim, rng=np.random.default_rng(7))
        x_data = rng.standard_normal((num_nodes, dim))

        with use_fast_segment_ops(False):
            x_naive = Tensor(x_data.copy(), requires_grad=True)
            out_naive = conv(x_naive, edges)
            out_naive.sum().backward()
            grads_naive = [p.grad.copy() for p in conv.parameters()]
        conv.zero_grad()
        with use_fast_segment_ops(True):
            x_fast = Tensor(x_data.copy(), requires_grad=True)
            out_fast = conv(x_fast, EdgeLayout(edges, num_nodes))
            out_fast.sum().backward()

        np.testing.assert_allclose(out_fast.data, out_naive.data, atol=1e-10)
        np.testing.assert_allclose(x_fast.grad, x_naive.grad, atol=1e-10)
        for p, g_naive in zip(conv.parameters(), grads_naive):
            np.testing.assert_allclose(p.grad, g_naive, atol=1e-10)

    def test_empty_relation_falls_through(self):
        conv = GGNNConv(4, 4, rng=np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).standard_normal((5, 4)))
        out = conv(x, np.zeros((2, 0), dtype=np.int64))
        assert out.shape == (5, 4)


class TestFusedGRU:
    def test_matches_reference_cell(self):
        ref = GRUCell(5, 7, rng=np.random.default_rng(5))
        fused = FusedGRUCell(5, 7, rng=np.random.default_rng(5))
        rng = np.random.default_rng(1)
        x_data = rng.standard_normal((9, 5))
        h_data = rng.standard_normal((9, 7))
        x1, h1 = Tensor(x_data, requires_grad=True), Tensor(h_data, requires_grad=True)
        x2 = Tensor(x_data.copy(), requires_grad=True)
        h2 = Tensor(h_data.copy(), requires_grad=True)
        out_ref, out_fused = ref(x1, h1), fused(x2, h2)
        np.testing.assert_allclose(out_fused.data, out_ref.data, atol=1e-12)
        out_ref.sum().backward()
        out_fused.sum().backward()
        np.testing.assert_allclose(x2.grad, x1.grad, atol=1e-12)
        np.testing.assert_allclose(h2.grad, h1.grad, atol=1e-12)
        in_dim = 5
        w_x_ref = np.concatenate([ref.w_z.weight.grad[:in_dim],
                                  ref.w_r.weight.grad[:in_dim],
                                  ref.w_h.weight.grad[:in_dim]], axis=1)
        np.testing.assert_allclose(fused.w_x.grad, w_x_ref, atol=1e-12)
        bias_ref = np.concatenate([ref.w_z.bias.grad, ref.w_r.bias.grad,
                                   ref.w_h.bias.grad])
        np.testing.assert_allclose(fused.bias.grad, bias_ref, atol=1e-12)

    def test_reference_cell_converts_to_fused(self):
        ref = GRUCell(3, 4, rng=np.random.default_rng(2))
        fused = ref.fused()
        rng = np.random.default_rng(3)
        x, h = Tensor(rng.standard_normal((6, 3))), Tensor(rng.standard_normal((6, 4)))
        np.testing.assert_allclose(fused(x, h).data, ref(x, h).data, atol=1e-12)


class TestSeedEquivalence:
    """float64 mode + seed schedule reproduces the seed implementation."""

    @pytest.mark.parametrize("fast_ops", [False, True])
    def test_golden_logits(self, small_openmp_dataset, fast_ops):
        ds = small_openmp_dataset
        graphs = [s.graph for s in ds.samples]
        vectors = np.stack([s.vector for s in ds.samples])
        extra = ds.counter_matrix()
        labels = ds.labels()
        golden = np.load(GOLDEN_PATH)
        assert int(golden["num_samples"]) == len(labels), \
            "golden fixture no longer matches the dataset fixture"
        model = MGAModel(graphs[0].feature_dim, vectors.shape[1],
                         extra.shape[1], ds.num_configs, gnn_hidden=12,
                         gnn_out=12, dae_hidden=24, dae_code=8, mlp_hidden=16,
                         seed=0, dtype="float64")
        with use_fast_segment_ops(fast_ops):
            history = model.fit(graphs, vectors, extra, labels, epochs=6,
                                dae_epochs=4, cache_batches=False,
                                precompute_frozen=False)
            logits = model.predict_logits(graphs, vectors, extra)
        np.testing.assert_allclose(np.array(history["loss"]), golden["loss"],
                                   atol=1e-8)
        np.testing.assert_allclose(logits, golden["logits"], atol=1e-8)


class TestDtype:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_round_trip_through_save_load(self, small_openmp_dataset, dtype):
        ds = small_openmp_dataset
        graphs = [s.graph for s in ds.samples]
        vectors = np.stack([s.vector for s in ds.samples])
        extra = ds.counter_matrix()
        model = MGAModel(graphs[0].feature_dim, vectors.shape[1],
                         extra.shape[1], ds.num_configs, gnn_hidden=12,
                         gnn_out=12, dae_hidden=24, dae_code=8, mlp_hidden=16,
                         seed=0, dtype=dtype)
        assert all(p.data.dtype == np.dtype(dtype) for p in model.parameters())
        model.fit(graphs, vectors, extra, ds.labels(), epochs=2, dae_epochs=2)

        clone = MGAModel.from_config(model.get_config())
        assert clone.dtype == np.dtype(dtype)
        clone.load_state_dict(model.state_dict())
        assert all(p.data.dtype == np.dtype(dtype) for p in clone.parameters())
        np.testing.assert_array_equal(
            model.predict_proba(graphs[:5], vectors[:5], extra[:5]),
            clone.predict_proba(graphs[:5], vectors[:5], extra[:5]))

    def test_float32_training_predicts_normalised_probabilities(
            self, small_openmp_dataset):
        ds = small_openmp_dataset
        graphs = [s.graph for s in ds.samples]
        vectors = np.stack([s.vector for s in ds.samples])
        extra = ds.counter_matrix()
        model = MGAModel(graphs[0].feature_dim, vectors.shape[1],
                         extra.shape[1], ds.num_configs, gnn_hidden=12,
                         gnn_out=12, dae_hidden=24, dae_code=8, mlp_hidden=16,
                         seed=0, dtype="float32")
        model.fit(graphs, vectors, extra, ds.labels(), epochs=2, dae_epochs=2)
        proba = model.predict_proba(graphs, vectors, extra)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)


class TestStatelessPredict:
    """A predict reads the model it serves and never writes to it."""

    def test_predict_leaves_modes_and_dropout_rng_alone(
            self, small_openmp_dataset, monkeypatch):
        ds = small_openmp_dataset
        graphs = [s.graph for s in ds.samples]
        vectors = np.stack([s.vector for s in ds.samples])
        extra = ds.counter_matrix()
        model = MGAModel(graphs[0].feature_dim, vectors.shape[1],
                         extra.shape[1], ds.num_configs, gnn_hidden=12,
                         gnn_out=12, dae_hidden=24, dae_code=8, mlp_hidden=16,
                         dropout=0.5, seed=0)
        model.fit(graphs, vectors, extra, ds.labels(), epochs=1, dae_epochs=1)
        dropouts = [m for m in model.named_modules().values()
                    if isinstance(m, Dropout)]
        assert dropouts, "the head is expected to carry a dropout layer"

        def refuse(self, mode=True):
            raise AssertionError("predict must not call Module.train")

        logits = {}
        for mode in (True, False):
            model.train(mode)
            flags = {name: m.training
                     for name, m in model.named_modules().items()}
            rng_states = [d._rng.bit_generator.state for d in dropouts]
            with monkeypatch.context() as patch:
                patch.setattr(Module, "train", refuse)
                logits[mode] = model.predict_logits(graphs[:6], vectors[:6],
                                                    extra[:6])
            assert {name: m.training
                    for name, m in model.named_modules().items()} == flags
            assert [d._rng.bit_generator.state
                    for d in dropouts] == rng_states
        np.testing.assert_array_equal(logits[True], logits[False])


#: model variants whose static codes do not depend on the batch at all
EXACT_CODES = {
    "default": {},
    "homogeneous": dict(hetero=False),
    "programl": dict(modalities=ModalityConfig.programl()),
    "dynamic_only": dict(modalities=ModalityConfig.dynamic_only()),
}
#: variants whose codes move at the last bit with the batch's other
#: members; their full predict_logits already did so before the codes were
#: split out (same size of error, equal argmax), so the split adds no new
#: kind of batch dependence: (constructor arguments, rtol)
CLOSE_CODES = {
    "gat": (dict(conv_type="gat"), 1e-6),
    "float64": (dict(dtype="float64"), 1e-12),
}


@pytest.fixture(scope="module")
def held_out(extractor):
    """Graphs, vectors and counters of every fourth (unseen) kernel."""
    specs = [spec for i, spec in enumerate(registry.openmp_kernels())
             if i % 4 == 3]
    builder = OpenMPDatasetBuilder(COMET_LAKE_8C,
                                   list(thread_search_space(COMET_LAKE_8C)),
                                   extractor=extractor, seed=0)
    dataset = builder.build(specs, [3.2e7])
    return ([s.graph for s in dataset.samples],
            np.stack([s.vector for s in dataset.samples]),
            dataset.counter_matrix())


@pytest.fixture(scope="module")
def code_models(small_openmp_dataset):
    """Default-sized models, one per variant, fitted for one epoch."""
    ds = small_openmp_dataset
    graphs = [s.graph for s in ds.samples]
    vectors = np.stack([s.vector for s in ds.samples])
    extra = ds.counter_matrix()
    variants = dict(EXACT_CODES)
    variants.update({name: kwargs
                     for name, (kwargs, _) in CLOSE_CODES.items()})
    models = {}
    for name, kwargs in variants.items():
        model = MGAModel(graphs[0].feature_dim, vectors.shape[1],
                         extra.shape[1], ds.num_configs, seed=0, **kwargs)
        model.fit(graphs, vectors, extra, ds.labels(), epochs=1,
                  dae_epochs=1)
        models[name] = model
    return models


_SUBSETS = st.lists(st.integers(0, 15), min_size=1, max_size=16, unique=True)


class TestStaticCodes:
    """Per-kernel codes: the input-independent half of inference."""

    def _alone_and_batched(self, model, held_out, subset):
        graphs, vectors, _ = held_out
        alone = np.concatenate([model.static_codes(graphs[i:i + 1],
                                                   vectors[i:i + 1])
                                for i in subset])
        batched = model.static_codes([graphs[i] for i in subset],
                                     vectors[subset])
        return alone, batched

    @pytest.mark.parametrize("name", sorted(EXACT_CODES))
    @given(subset=_SUBSETS)
    @settings(max_examples=15, deadline=None)
    def test_codes_do_not_depend_on_the_batch(self, code_models, held_out,
                                              name, subset):
        model = code_models[name]
        alone, batched = self._alone_and_batched(model, held_out, subset)
        static_width = model.fused_dim - model.extra_dim
        assert batched.shape == (len(subset), static_width)
        assert batched.tobytes() == alone.tobytes()

    @pytest.mark.parametrize("name", sorted(CLOSE_CODES))
    @given(subset=_SUBSETS)
    @settings(max_examples=15, deadline=None)
    def test_last_bit_batch_dependence_is_bounded(self, code_models,
                                                  held_out, name, subset):
        alone, batched = self._alone_and_batched(code_models[name], held_out,
                                                 subset)
        assert np.allclose(batched, alone, rtol=CLOSE_CODES[name][1])

    @pytest.mark.parametrize("name", sorted(EXACT_CODES) + sorted(CLOSE_CODES))
    def test_predict_from_codes_is_byte_equal(self, code_models, held_out,
                                              name):
        model = code_models[name]
        graphs, vectors, extra = held_out
        codes = model.static_codes(graphs, vectors)
        assert model.predict_logits(None, None, extra, codes=codes).tobytes() \
            == model.predict_logits(graphs, vectors, extra).tobytes()

    def test_codes_are_bare_data_and_record_nothing(self, code_models,
                                                    held_out):
        graphs, vectors, _ = held_out
        tape = Tape()
        with tape.recording():
            codes = code_models["default"].static_codes(graphs, vectors)
        assert type(codes) is np.ndarray
        assert tape.records == []


class TestEarlyStopping:
    def test_patience_stops_plateaued_training(self, small_openmp_dataset):
        ds = small_openmp_dataset
        graphs = [s.graph for s in ds.samples]
        vectors = np.stack([s.vector for s in ds.samples])
        extra = ds.counter_matrix()
        model = MGAModel(graphs[0].feature_dim, vectors.shape[1],
                         extra.shape[1], ds.num_configs, gnn_hidden=12,
                         gnn_out=12, dae_hidden=24, dae_code=8, mlp_hidden=16,
                         dropout=0.0, seed=0)
        # a vanishing learning rate makes every epoch identical, so training
        # must stop after 1 + patience epochs instead of running all 30
        history = model.fit(graphs, vectors, extra, ds.labels(), epochs=30,
                            dae_epochs=1, lr=1e-12, patience=2)
        assert len(history["loss"]) == 3


class TestBatchCaching:
    def test_graph_batch_cache_hits(self, small_openmp_dataset):
        graphs = [s.graph for s in small_openmp_dataset.samples]
        cache = GraphBatchCache(graphs)
        first = cache.get([0, 1, 2])
        second = cache.get(np.array([0, 1, 2]))
        other = cache.get([2, 1, 0])
        assert first is second
        assert other is not first
        assert (cache.hits, cache.misses) == (1, 2)
        # layouts hang off the batch and are themselves memoised
        assert first.relation_layouts() is first.relation_layouts()
        assert first.pool_layout() is first.pool_layout()

    def test_edge_layout_degrees(self):
        edges = np.array([[0, 0, 1, 3], [1, 2, 2, 3]], dtype=np.int64)
        layout = EdgeLayout(edges, 4)
        assert layout.num_edges == 4
        np.testing.assert_array_equal(layout.dst_layout.counts, [0, 1, 2, 1])
        np.testing.assert_allclose(layout.inv_in_deg.ravel(),
                                   [1.0, 1.0, 0.5, 1.0])
        src_sorted, dst_sorted, _ = layout.by_dst
        assert np.all(np.diff(dst_sorted) >= 0)
        assert set(zip(src_sorted, dst_sorted)) == {(0, 1), (0, 2), (1, 2),
                                                    (3, 3)}
