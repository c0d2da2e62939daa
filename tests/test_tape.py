"""Tape record/replay: bit-exact equivalence with the eager engine.

The contract under test: recording a step's backward graph and replaying
the compiled plan is a *performance* change only.  Replayed losses and
gradients are bitwise identical to eager for every traced primitive
(including the fused GRU, the segment kernels and all four convolutions),
arena gradient buffers keep a stable ``id(p.grad)`` across steps, and the
guards (fingerprint, config epoch, unsupported ops) fall back to eager
without changing any numbers.
"""

import numpy as np
import pytest

from repro.core.mga import MGAModel
from repro.gnn.conv import (
    FusedGRUCell,
    GATConv,
    GCNConv,
    GGNNConv,
    SAGEConv,
)
from repro.graphs.hetero import EdgeLayout, GraphBatchCache
from repro.nn import (
    MLP,
    TapeRunner,
    Tensor,
    concat,
    config_epoch,
    cross_entropy,
    dropout,
    log_softmax,
    runtime,
    segment_mean,
    segment_sum,
    softmax,
    stack_rows,
    use_fast_segment_ops,
)
from repro.nn.autograd import PRIMITIVES
from repro.nn.tape import Tape


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _run_tape_vs_eager(make_loss, params):
    """Eager backward vs record+replay of the same deterministic loss.

    Returns ``(eager_loss, eager_grads, replay_loss, replay_grads)``;
    ``make_loss`` must be deterministic (no rng consumption).
    """
    for p in params:
        p.grad = None
    loss = make_loss()
    loss.backward()
    eager_loss = float(loss.data)
    eager_grads = [None if p.grad is None else p.grad.copy() for p in params]

    runner = TapeRunner(wrt=params)
    runner.step("k", make_loss)          # record (itself an eager step)
    replay_loss = runner.step("k", make_loss)
    assert runner.records == 1 and runner.replays == 1
    replay_grads = [None if p.grad is None else p.grad.copy() for p in params]
    return eager_loss, eager_grads, replay_loss, replay_grads


def _assert_bitwise(make_loss, params):
    e_loss, e_grads, r_loss, r_grads = _run_tape_vs_eager(make_loss, params)
    assert r_loss == e_loss
    for eg, rg in zip(e_grads, r_grads):
        if eg is None:
            assert rg is None
        else:
            np.testing.assert_array_equal(rg, eg)
    return r_grads


def _numeric_grad(make_loss, p, eps=1e-6):
    """Central-difference gradient of ``float(make_loss().data)`` wrt ``p``."""
    grad = np.zeros_like(p.data)
    flat, gflat = p.data.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = float(make_loss().data)
        flat[i] = orig - eps
        down = float(make_loss().data)
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * eps)
    return grad


def _gradcheck_replayed(make_loss, params, atol=1e-4):
    """The *replayed* gradients pass a finite-difference check."""
    replay_grads = _assert_bitwise(make_loss, params)
    for p, rg in zip(params, replay_grads):
        numeric = _numeric_grad(make_loss, p)
        np.testing.assert_allclose(rg, numeric, atol=atol)


def _random_edges(rng, num_nodes, num_edges):
    return np.stack([rng.integers(0, num_nodes, num_edges),
                     rng.integers(0, num_nodes, num_edges)]).astype(np.int64)


# ----------------------------------------------------------------------
# one replay case per registered primitive
# ----------------------------------------------------------------------
def _leaf(shape, seed):
    return Tensor(np.random.default_rng(seed).standard_normal(shape),
                  requires_grad=True)


def _weighted(t, seed=99):
    """``(t * W).sum()`` for a fixed random ``W``: every output element
    reaches the loss with its own weight."""
    w = np.random.default_rng(seed).standard_normal(t.shape)
    return (t * Tensor(w)).sum()


def _unary(op, shape=(4, 5)):
    x = _leaf(shape, 0)
    return (lambda: _weighted(op(x))), [x]


def _binary(op, b_shape=(4, 5)):
    x, y = _leaf((4, 5), 0), _leaf(b_shape, 1)
    return (lambda: _weighted(op(x, y))), [x, y]


def _case_linear():
    x, w, b = _leaf((6, 4), 3), _leaf((4, 3), 4), _leaf(3, 5)
    return (lambda: _weighted(x.linear(w, b).tanh())
            + x.linear(w).sum()), [x, w, b]


def _case_concat():
    x, y = _leaf((4, 3), 0), _leaf((4, 2), 1)
    return (lambda: _weighted(concat([x, y], axis=1))
            + _weighted(concat([x, x], axis=0))), [x, y]


def _case_stack_rows():
    rows = [_leaf(5, i) for i in range(3)]
    return (lambda: _weighted(stack_rows(rows))), rows


def _case_index_select():
    idx = np.array([0, 2, 2, 5, 1], dtype=np.int64)
    return _unary(lambda x: x.index_select(idx), shape=(6, 3))


def _case_scatter_add():
    ids = np.array([0, 0, 1, 3, 3, 3, 1, 0], dtype=np.int64)
    return _unary(lambda x: x.scatter_add(ids, 5), shape=(8, 3))


def _case_fused_gru():
    cell = FusedGRUCell(4, 6, rng=np.random.default_rng(5))
    x, h = _leaf((7, 4), 9), _leaf((7, 6), 10)
    return (lambda: _weighted(cell(x, h))), [x, h] + cell.parameters()


def _case_mean_agg():
    rng = np.random.default_rng(42)
    layout = EdgeLayout(_random_edges(rng, 12, 40), 12)
    conv = GGNNConv(4, 4, rng=np.random.default_rng(7))
    x = _leaf((12, 4), 8)
    return (lambda: _weighted(conv(x, layout))), [x] + conv.parameters()


def _case_dropout():
    """Two identically seeded streams: eager vs record + replay."""
    def build():
        x = _leaf((8, 5), 11)
        rng = np.random.default_rng(3)
        return (lambda: (dropout(x, 0.3, rng) * x).sum()), [x]
    return build


PRIMITIVE_CASES = {
    "add_s": lambda: _unary(lambda x: (x + 2.0) * x),
    "add_t": lambda: _binary(lambda x, b: (x + b) * (x + x), b_shape=(5,)),
    "neg": lambda: _unary(lambda x: -x * x),
    "rsub_s": lambda: _unary(lambda x: (3.0 - x) * x),
    "mul_s": lambda: _unary(lambda x: x * 0.5 * x),
    "mul_t": lambda: _binary(lambda x, b: x * b * x, b_shape=(1, 5)),
    "div_s": lambda: _unary(lambda x: (x / 4.0) * x),
    "div_t": lambda: _binary(lambda x, b: x / (b * b + 2.0), b_shape=(5,)),
    "pow": lambda: _unary(lambda x: (x * x + 1.0) ** 1.5),
    "matmul": lambda: _binary(lambda x, w: (x @ w).tanh(), b_shape=(5, 3)),
    "linear": _case_linear,
    "sum": lambda: _unary(lambda x: x.sum(axis=0) * x.sum(axis=1,
                                                          keepdims=True)
                          + x.sum()),
    "reshape": lambda: _unary(lambda x: x.reshape(5, 4)),
    "transpose": lambda: _unary(lambda x: x.T),
    "slice_cols": lambda: _unary(lambda x: x.slice_cols(1, 4)),
    "relu": lambda: _unary(lambda x: x.relu()),
    "leaky_relu": lambda: _unary(lambda x: x.leaky_relu(0.2)),
    "sigmoid": lambda: _unary(lambda x: x.sigmoid()),
    "tanh": lambda: _unary(lambda x: x.tanh()),
    "exp": lambda: _unary(lambda x: x.exp()),
    "log": lambda: _unary(lambda x: (x * x + 1.0).log()),
    "sub_max": lambda: _unary(lambda x: softmax(x)),
    "dropout": _case_dropout,
    "index_select": _case_index_select,
    "scatter_add": _case_scatter_add,
    "concat": _case_concat,
    "stack_rows": _case_stack_rows,
    "fused_gru": _case_fused_gru,
    "mean_agg": _case_mean_agg,
}


def _recorded_primitives(make_loss):
    tape = Tape()
    with tape.recording():
        make_loss()
    return {t._prim.name for t in tape.records}


# ----------------------------------------------------------------------
# primitive-by-primitive replay equivalence
# ----------------------------------------------------------------------
class TestPrimitiveReplay:
    """Every traced primitive replays bitwise-identical to eager."""

    def _xy(self, shape=(4, 5), seed=0):
        rng = np.random.default_rng(seed)
        return (Tensor(rng.standard_normal(shape), requires_grad=True),
                Tensor(rng.standard_normal(shape), requires_grad=True))

    def test_elementwise_arithmetic(self):
        x, y = self._xy()
        _assert_bitwise(
            lambda: ((x * y + 2.0) / (y * y + 3.0) - x * 0.5).sum(),
            [x, y])

    def test_pow_exp_log(self):
        x, _ = self._xy()
        _assert_bitwise(lambda: ((x * x + 1.0).log() + (x * 0.1).exp()
                                 + (x * x) ** 1.5).sum(), [x])

    def test_activations(self):
        x, _ = self._xy()
        _assert_bitwise(
            lambda: (x.relu() + x.sigmoid() + x.tanh()
                     + x.leaky_relu(0.2)).sum(), [x])

    def test_matmul_and_linear(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)
        _gradcheck_replayed(lambda: (x.linear(w, b).tanh()
                                     + (x @ w)).sum(), [x, w, b])

    def test_softmax_cross_entropy(self):
        rng = np.random.default_rng(4)
        logits = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        targets = np.array([0, 2, 1, 0, 2])
        weights = np.array([1.0, 0.5, 0.25])
        _assert_bitwise(
            lambda: cross_entropy(logits, targets, class_weights=weights)
            + softmax(logits).sum() * 0.0 + log_softmax(logits).sum() * 0.0,
            [logits])

    def test_shape_ops(self):
        x, y = self._xy((4, 6))
        _assert_bitwise(
            lambda: concat([x.slice_cols(0, 3), y.slice_cols(3, 6)],
                           axis=1).reshape(6, 4).T.sum(), [x, y])

    def test_stack_rows(self):
        rng = np.random.default_rng(6)
        rows = [Tensor(rng.standard_normal(5), requires_grad=True)
                for _ in range(3)]
        _assert_bitwise(lambda: (stack_rows(rows) * 2.0).sum(), rows)

    @pytest.mark.parametrize("fast", [False, True])
    def test_segment_ops(self, fast):
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((10, 4)), requires_grad=True)
        ids = np.array([0, 0, 1, 2, 2, 2, 3, 3, 0, 1], dtype=np.int64)
        with use_fast_segment_ops(fast):
            _gradcheck_replayed(
                lambda: (segment_sum(x, ids, 4)
                         + segment_mean(x, ids, 4)).sum(), [x])

    def test_index_select(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
        idx = np.array([0, 2, 2, 5, 1], dtype=np.int64)
        _gradcheck_replayed(lambda: (x.index_select(idx) * 3.0).sum(), [x])

    def test_fused_gru(self):
        cell = FusedGRUCell(4, 6, rng=np.random.default_rng(5))
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((7, 4)), requires_grad=True)
        h = Tensor(rng.standard_normal((7, 6)), requires_grad=True)
        _gradcheck_replayed(lambda: cell(x, h).sum(),
                            [x, h] + cell.parameters(), atol=1e-4)

    @pytest.mark.parametrize("conv_cls", [GCNConv, SAGEConv, GATConv, GGNNConv])
    def test_convolutions(self, conv_cls):
        rng = np.random.default_rng(42)
        num_nodes, num_edges, dim = 12, 40, 4
        layout = EdgeLayout(_random_edges(rng, num_nodes, num_edges),
                            num_nodes)
        conv = conv_cls(dim, dim, rng=np.random.default_rng(7))
        x = Tensor(rng.standard_normal((num_nodes, dim)), requires_grad=True)
        with use_fast_segment_ops(True):
            _gradcheck_replayed(lambda: conv(x, layout).tanh().sum(),
                                [x] + conv.parameters(), atol=1e-4)

    @pytest.mark.parametrize("name", sorted(PRIMITIVES))
    def test_registered_primitive(self, name):
        """Every registered primitive has a case, and the case records it."""
        assert name in PRIMITIVE_CASES, \
            f"primitive {name!r} has no replay case in PRIMITIVE_CASES"
        with use_fast_segment_ops(True):
            if name == "dropout":
                build = PRIMITIVE_CASES[name]()
                assert name in _recorded_primitives(build()[0])
                (make_a, params_a), (make_b, params_b) = build(), build()
                runner = TapeRunner(wrt=params_b)
                for _ in range(3):
                    for p in params_a:
                        p.grad = None
                    loss = make_a()
                    loss.backward()
                    assert runner.step("k", make_b) == float(loss.data)
                    for pa, pb in zip(params_a, params_b):
                        np.testing.assert_array_equal(pb.grad, pa.grad)
                assert runner.replays == 2
                return
            make_loss, params = PRIMITIVE_CASES[name]()
            assert name in _recorded_primitives(make_loss)
            _gradcheck_replayed(make_loss, params)

    def test_every_case_names_a_registered_primitive(self):
        assert set(PRIMITIVE_CASES) <= set(PRIMITIVES)

    def test_dropout_rng_stream_stays_aligned(self):
        """Replay draws dropout masks from the captured rng, like eager."""
        def build():
            rng = np.random.default_rng(11)
            x = Tensor(rng.standard_normal((8, 5)), requires_grad=True)
            mlp = MLP(5, [6], 3, dropout=0.3, rng=np.random.default_rng(2))
            targets = np.array([0, 1, 2, 0, 1, 2, 0, 1])
            params = [x] + mlp.parameters()
            return (lambda: cross_entropy(mlp(x), targets)), params

        loss_a, params_a = build()          # pure eager, twice
        loss_b, params_b = build()          # record then replay
        runner = TapeRunner(wrt=params_b)
        for step in range(2):
            for p in params_a:
                p.grad = None
            la = loss_a()
            la.backward()
            lb = runner.step("k", loss_b)
            assert lb == float(la.data)
        assert runner.replays == 1
        for pa, pb in zip(params_a, params_b):
            np.testing.assert_array_equal(pb.grad, pa.grad)


# ----------------------------------------------------------------------
# arena gradient buffers
# ----------------------------------------------------------------------
class TestArena:
    def _setup(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        runner = TapeRunner(wrt=[x, w])
        make_loss = lambda: (x @ w).tanh().sum()
        return x, w, runner, make_loss

    def test_grad_identity_stable_across_replays(self):
        x, w, runner, make_loss = self._setup()
        runner.step("k", make_loss)
        runner.step("k", make_loss)
        assert x.grad_arena and w.grad_arena
        ids = (id(x.grad), id(w.grad))
        first = (x.grad.copy(), w.grad.copy())
        runner.step("k", make_loss)
        assert runner.replays == 2
        assert (id(x.grad), id(w.grad)) == ids
        np.testing.assert_array_equal(x.grad, first[0])
        np.testing.assert_array_equal(w.grad, first[1])

    def test_zero_grad_clears_arena_in_place(self):
        x, w, runner, make_loss = self._setup()
        runner.step("k", make_loss)
        runner.step("k", make_loss)
        buf = x.grad
        x.zero_grad()
        assert x.grad is buf, "arena buffer must survive zero_grad"
        assert x.grad_arena
        np.testing.assert_array_equal(buf, np.zeros_like(buf))
        # non-arena gradients still drop to None
        y = Tensor(np.ones(3), requires_grad=True)
        (y * 2.0).sum().backward()
        assert y.grad is not None and not y.grad_arena
        y.zero_grad()
        assert y.grad is None


# ----------------------------------------------------------------------
# guards and fallback
# ----------------------------------------------------------------------
class TestGuards:
    def test_fingerprint_change_rerecords(self):
        rng = np.random.default_rng(1)
        w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        small = rng.standard_normal((4, 3))
        big = rng.standard_normal((6, 3))
        runner = TapeRunner(wrt=[w])

        def loss_for(data):
            return lambda: (Tensor(data) @ w).sum()

        runner.step("k", loss_for(small), fingerprint=(4,))
        runner.step("k", loss_for(small), fingerprint=(4,))
        assert runner.replays == 1

        # shape change under the same key: plan dropped, fresh record
        loss = runner.step("k", loss_for(big), fingerprint=(6,))
        assert runner.guard_failures == 1 and runner.records == 2
        ref = Tensor(big) @ Tensor(w.data.copy(), requires_grad=True)
        assert loss == float(ref.sum().data)
        np.testing.assert_array_equal(w.grad, big.sum(axis=0)[:, None]
                                      .repeat(2, axis=1))
        runner.step("k", loss_for(big), fingerprint=(6,))
        assert runner.replays == 2

    def test_config_epoch_invalidates_plans(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((8, 3)), requires_grad=True)
        ids = np.array([0, 1, 1, 2, 0, 2, 2, 1], dtype=np.int64)
        make_loss = lambda: (segment_sum(x, ids, 3) ** 2.0).sum()
        runner = TapeRunner(wrt=[x])
        with runtime.use(fast_segment_ops=True):
            runner.step("k", make_loss)
            runner.step("k", make_loss)
            assert runner.replays == 1
            epoch = config_epoch()

            runtime.configure(fast_segment_ops=False)  # bumps the epoch
            assert config_epoch() == epoch + 1
            loss = runner.step("k", make_loss)
            assert runner.guard_failures == 1 and runner.records == 2
            got = x.grad.copy()

            # numbers match a fresh eager step under the new flag value
            x.grad = None
            ref = make_loss()
            ref.backward()
            assert loss == float(ref.data)
            np.testing.assert_array_equal(got, x.grad)

            # and the re-recorded plan replays under the new flag
            x.grad = None
            runner.step("k", make_loss)
            assert runner.replays == 2
            np.testing.assert_array_equal(x.grad, got)

    def test_leaf_identity_guard(self):
        """Replacing a leaf's array (not just mutating it) drops the plan."""
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        runner = TapeRunner(wrt=[x])
        make_loss = lambda: (x * x).sum()
        runner.step("k", make_loss)
        runner.step("k", make_loss)
        assert runner.replays == 1
        x.data = x.data.copy()        # new array object, same values
        runner.step("k", make_loss)
        assert runner.guard_failures == 1 and runner.records == 2
        np.testing.assert_array_equal(x.grad, 2.0 * x.data)

    def test_unsupported_op_pins_key_to_eager(self):
        x = Tensor(np.arange(4.0) + 1.0, requires_grad=True)

        def untraced_double(t):
            def backward(grad):
                if t.requires_grad:
                    t._accumulate_owned(grad * 2.0)
            return Tensor._make(t.data * 2.0, (t,), backward)

        make_loss = lambda: untraced_double(x).sum()
        runner = TapeRunner(wrt=[x])
        for _ in range(3):
            loss = runner.step("k", make_loss)
            assert loss == float(2.0 * x.data.sum())
            np.testing.assert_array_equal(x.grad, np.full(4, 2.0))
        assert runner.records == 0 and runner.replays == 0
        assert runner.eager_steps == 3 and "k" in runner.unsupported

    def test_view_contribution_is_copied_before_accumulation(self):
        """A view of the loss seed that later receives ``+=`` is copied
        first, as eager ``_accumulate`` does, so the seed survives."""
        x = Tensor(np.array([1.5]), requires_grad=True)

        def make_loss():
            y = x * 1.0          # a non-leaf: its gradient lives in a slot
            return (y * 2.0).sum() + y.reshape(())
        runner = TapeRunner(wrt=[x])
        for _ in range(3):
            assert runner.step("k", make_loss) == 4.5
            np.testing.assert_array_equal(x.grad, [3.0])
        assert runner.replays == 2

    def test_absent_param_grad_is_none(self):
        """Params outside the replayed graph get grad=None, like zero_grad."""
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        unused = Tensor(np.ones(3), requires_grad=True)
        unused.grad = np.ones(3)      # stale gradient from elsewhere
        runner = TapeRunner(wrt=[x, unused])
        make_loss = lambda: (x * 3.0).sum()
        runner.step("k", make_loss)
        unused.grad = np.ones(3)
        runner.step("k", make_loss)
        assert runner.replays == 1
        assert unused.grad is None
        np.testing.assert_array_equal(x.grad, np.full((2, 2), 3.0))


# ----------------------------------------------------------------------
# end-to-end training equivalence
# ----------------------------------------------------------------------
class TestTrainingEquivalence:
    def test_fit_histories_and_weights_bitwise_identical(
            self, small_openmp_dataset):
        ds = small_openmp_dataset
        graphs = [s.graph for s in ds.samples]
        vectors = np.stack([s.vector for s in ds.samples])
        extra = ds.counter_matrix()
        labels = ds.labels()

        def fit(tape, runner=None):
            model = MGAModel(graphs[0].feature_dim, vectors.shape[1],
                             extra.shape[1], ds.num_configs, gnn_hidden=12,
                             gnn_out=12, dae_hidden=24, dae_code=8,
                             mlp_hidden=16, seed=0, dtype="float64")
            history = model.fit(graphs, vectors, extra, labels, epochs=4,
                                dae_epochs=2, batch_size=8, tape=tape,
                                tape_runner=runner)
            return history, model.state_dict()

        eager_history, eager_state = fit(tape=False)
        runner = TapeRunner()
        tape_history, tape_state = fit(tape=True, runner=runner)

        assert runner.replays > 0 and runner.records > 0
        assert runner.guard_failures == 0
        assert runner.eager_steps == 0
        assert tape_history["loss"] == eager_history["loss"]
        assert set(tape_state) == set(eager_state)
        for name in eager_state:
            np.testing.assert_array_equal(tape_state[name], eager_state[name])


# ----------------------------------------------------------------------
# batch cache hygiene (audit satellite)
# ----------------------------------------------------------------------
class TestGraphBatchCacheClear:
    def test_clear_drops_entries_and_counters(self, small_openmp_dataset):
        graphs = [s.graph for s in small_openmp_dataset.samples]
        cache = GraphBatchCache(graphs)
        cache.get([0, 1, 2])
        cache.get([0, 1, 2])
        cache.get([3, 4])
        assert len(cache) == 2 and cache.hits == 1 and cache.misses == 2
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0
        cache.get([0, 1, 2])
        assert cache.misses == 1
