"""Layers, optimisers, scalers and training-utility tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import erfinv

from repro.nn import (
    Adam,
    AdamW,
    Dropout,
    EarlyStopping,
    GaussRankScaler,
    Linear,
    MinMaxScaler,
    MLP,
    SGD,
    Sequential,
    StandardScaler,
    Tensor,
    accuracy,
    cross_entropy,
    f1_score,
    iterate_minibatches,
    set_seed,
)


class TestLayers:
    def test_linear_shapes_and_params(self):
        layer = Linear(5, 3)
        out = layer(Tensor(np.ones((7, 5))))
        assert out.shape == (7, 3)
        assert {p.data.shape for p in layer.parameters()} == {(5, 3), (3,)}

    def test_mlp_construction(self):
        model = MLP(10, [16, 8], 4, dropout=0.1)
        out = model(Tensor(np.zeros((2, 10))))
        assert out.shape == (2, 4)
        assert model.num_parameters() > 0
        with pytest.raises(ValueError):
            MLP(4, [4], 2, activation="swishy")

    def test_train_eval_propagates(self):
        model = Sequential(Linear(4, 4), Dropout(0.5))
        model.eval()
        assert all(not m.training for m in model.layers)
        model.train()
        assert all(m.training for m in model.layers)

    def test_state_dict_roundtrip(self):
        model = MLP(6, [5], 2)
        state = model.state_dict()
        model2 = MLP(6, [5], 2, rng=np.random.default_rng(99))
        model2.load_state_dict(state)
        x = Tensor(np.random.default_rng(0).standard_normal((3, 6)))
        np.testing.assert_allclose(model(x).data, model2(x).data)

    def test_load_state_dict_shape_mismatch(self):
        model = MLP(6, [5], 2)
        state = model.state_dict()
        key = next(iter(state))
        state[key] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            model.load_state_dict(state)


class TestOptimisers:
    def _quadratic_problem(self):
        target = np.array([3.0, -2.0])
        w = Tensor(np.zeros(2), requires_grad=True)
        return w, target

    @pytest.mark.parametrize("optimizer_cls,kwargs", [
        (SGD, {"lr": 0.1, "momentum": 0.9}),
        (Adam, {"lr": 0.1}),
        (AdamW, {"lr": 0.1, "weight_decay": 1e-4}),
    ])
    def test_convergence_on_quadratic(self, optimizer_cls, kwargs):
        w, target = self._quadratic_problem()
        opt = optimizer_cls([w], **kwargs)
        for _ in range(200):
            loss = ((w - Tensor(target)) ** 2).sum()
            opt.zero_grad()
            loss.backward()
            opt.step()
        np.testing.assert_allclose(w.data, target, atol=0.05)

    def test_optimizer_rejects_empty_params(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_adam_state_allocated_once_and_updated_in_place(self):
        w = Tensor(np.zeros(4), requires_grad=True)
        opt = Adam([w], lr=0.1)
        buffers = None
        for step in range(3):
            loss = ((w - Tensor(np.ones(4))) ** 2).sum()
            opt.zero_grad()
            loss.backward()
            opt.step()
            if step == 0:
                buffers = (opt._m[id(w)], opt._v[id(w)])
        # the moment buffers must be reused (updated in place), not
        # reallocated via a zeros_like default on every step
        assert opt._m[id(w)] is buffers[0]
        assert opt._v[id(w)] is buffers[1]
        assert np.all(buffers[1] > 0)

    def test_mlp_learns_xor(self):
        set_seed(0)
        x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        y = np.array([0, 1, 1, 0])
        model = MLP(2, [16], 2, rng=np.random.default_rng(3))
        opt = Adam(model.parameters(), lr=0.05)
        for _ in range(300):
            loss = cross_entropy(model(Tensor(x)), y)
            opt.zero_grad()
            loss.backward()
            opt.step()
        preds = model(Tensor(x)).data.argmax(1)
        assert accuracy(preds, y) == 1.0


class TestScalers:
    def test_standard_scaler(self):
        rng = np.random.default_rng(0)
        x = rng.normal(5.0, 3.0, (200, 4))
        z = StandardScaler().fit_transform(x)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-9)

    def test_standard_scaler_roundtrip(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(50, 3))
        scaler = StandardScaler().fit(x)
        np.testing.assert_allclose(scaler.inverse_transform(scaler.transform(x)),
                                   x, atol=1e-10)

    def test_minmax_scaler_clips_unseen(self):
        x = np.array([[0.0], [10.0]])
        scaler = MinMaxScaler().fit(x)
        out = scaler.transform(np.array([[-5.0], [5.0], [20.0]]))
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_unfitted_scalers_raise(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.ones((2, 2)))
        with pytest.raises(RuntimeError):
            MinMaxScaler().transform(np.ones((2, 2)))
        with pytest.raises(RuntimeError):
            GaussRankScaler().transform(np.ones((2, 2)))

    def test_gauss_rank_produces_normal_like_output(self):
        rng = np.random.default_rng(2)
        x = rng.exponential(2.0, size=(500, 2))     # heavily skewed input
        z = GaussRankScaler().fit_transform(x)
        assert abs(float(np.mean(z))) < 0.15
        assert 0.7 < float(np.std(z)) < 1.3

    @given(st.integers(10, 200))
    @settings(max_examples=20, deadline=None)
    def test_gauss_rank_is_monotone(self, n):
        x = np.random.default_rng(n).uniform(size=(n, 1))
        scaler = GaussRankScaler().fit(x)
        z = scaler.transform(np.sort(x, axis=0))
        assert np.all(np.diff(z[:, 0]) >= -1e-12)


def _gauss_rank_by_column(scaler: GaussRankScaler, x: np.ndarray) -> np.ndarray:
    """The per-column loop ``GaussRankScaler.transform`` used to run."""
    out = np.empty_like(x)
    for j, ref in enumerate(scaler.sorted_):
        n = len(ref)
        ranks = np.searchsorted(ref, x[:, j], side="left").astype(np.float64)
        frac = np.clip(ranks / max(n - 1, 1), scaler.epsilon,
                       1.0 - scaler.epsilon)
        out[:, j] = np.sqrt(2.0) * erfinv(2.0 * frac - 1.0)
    return out


#: a few finite values (so training columns repeat them), the extremes,
#: signed zeros, infinities and NaN
_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e300, -1e300,
                                5e-324, np.inf, -np.inf, np.nan])
_ANY_FLOAT = st.one_of(_EDGE_FLOATS, st.floats(allow_nan=True,
                                               allow_infinity=True))


class TestGaussRankVectorised:
    """One-pass ranking equals the per-column ``searchsorted`` byte for byte."""

    @given(data=st.data(), n=st.integers(1, 12), d=st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_matches_the_per_column_loop(self, data, n, d):
        train = data.draw(arrays(np.float64, (n, d), elements=_ANY_FLOAT))
        scaler = GaussRankScaler().fit(train)
        # repeats of the reference values, plus anything at all
        picks = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                             st.integers(0, d - 1)),
                                   max_size=4))
        rows = [train[i, j] * np.ones(d) for i, j in picks]
        fresh = data.draw(arrays(np.float64, (data.draw(st.integers(0, 5)), d),
                                 elements=_ANY_FLOAT))
        x = np.concatenate([train, np.reshape(rows, (-1, d)), fresh])
        expected = _gauss_rank_by_column(scaler, x)
        assert scaler.transform(x).tobytes() == expected.tobytes()

        clone = GaussRankScaler()
        clone.set_state(scaler.get_state())
        assert clone.transform(x).tobytes() == expected.tobytes()

        # a state saved before the quantile table was persisted
        legacy = GaussRankScaler()
        legacy.set_state({"sorted": scaler.get_state()["sorted"]})
        assert legacy.table_.tobytes() == scaler.table_.tobytes()
        assert legacy.transform(x).tobytes() == expected.tobytes()

    def test_rejects_a_matrix_of_the_wrong_width(self):
        scaler = GaussRankScaler().fit(np.ones((4, 3)))
        with pytest.raises(ValueError):
            scaler.transform(np.ones((2, 2)))

    def test_rejects_a_table_of_the_wrong_length(self):
        state = GaussRankScaler().fit(np.ones((4, 3))).get_state()
        assert state["table"].shape == (5,)
        with pytest.raises(ValueError):
            GaussRankScaler().set_state({**state, "table": state["table"][:4]})


class TestTrainingUtilities:
    def test_minibatches_cover_all_indices(self):
        batches = list(iterate_minibatches(103, 10, shuffle=True,
                                           rng=np.random.default_rng(0)))
        all_idx = np.concatenate(batches)
        assert sorted(all_idx.tolist()) == list(range(103))
        with pytest.raises(ValueError):
            list(iterate_minibatches(10, 0))

    def test_early_stopping(self):
        stopper = EarlyStopping(patience=2)
        assert not stopper.step(1.0)
        assert not stopper.step(0.5)
        assert not stopper.step(0.6)
        assert stopper.step(0.7)

    def test_metrics(self):
        y = np.array([0, 1, 1, 0, 1])
        p = np.array([0, 1, 0, 0, 1])
        assert accuracy(p, y) == pytest.approx(0.8)
        assert 0.0 < f1_score(p, y) <= 1.0
        assert f1_score(y, y) == pytest.approx(1.0)
        assert accuracy(np.array([]), np.array([])) == 0.0
