"""Autograd engine tests, including hypothesis-driven gradient checks."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn import (
    SegmentLayout,
    Tensor,
    as_tensor,
    concat,
    cross_entropy,
    binary_cross_entropy,
    default_dtype,
    dropout,
    get_default_dtype,
    grad_enabled,
    gradcheck,
    log_softmax,
    mse_loss,
    no_grad,
    segment_mean,
    segment_sum,
    softmax,
    stack_rows,
    use_fast_segment_ops,
)
from repro.nn.tape import Tape

small_matrix = arrays(np.float64, (3, 4),
                      elements=st.floats(-2.0, 2.0, allow_nan=False))


class TestForward:
    def test_basic_arithmetic(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[2.0, 0.5], [1.0, 1.0]])
        np.testing.assert_allclose((a + b).data, [[3, 2.5], [4, 5]])
        np.testing.assert_allclose((a * b).data, [[2, 1], [3, 4]])
        np.testing.assert_allclose((a - b).data, [[-1, 1.5], [2, 3]])
        np.testing.assert_allclose((a / b).data, [[0.5, 4], [3, 4]])

    def test_broadcasting(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.arange(4.0), requires_grad=True)
        out = (a * b).sum()
        out.backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        np.testing.assert_allclose(b.grad, 3 * np.ones(4))

    def test_softmax_rows_sum_to_one(self):
        logits = Tensor(np.random.default_rng(0).standard_normal((5, 7)))
        probs = softmax(logits).data
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(5))
        assert np.all(probs >= 0)

    def test_log_softmax_consistency(self):
        logits = Tensor(np.random.default_rng(1).standard_normal((4, 3)))
        np.testing.assert_allclose(np.exp(log_softmax(logits).data),
                                   softmax(logits).data, atol=1e-10)

    def test_scalar_backward_requires_scalar(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            t.backward()


class TestGradcheck:
    def test_matmul_chain(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        assert gradcheck(lambda a, b: ((a @ b).tanh() * 3.0).sum(), [a, b])

    def test_activations(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((4, 3)) + 0.1, requires_grad=True)
        assert gradcheck(lambda x: x.relu().sum(), [x])
        assert gradcheck(lambda x: x.sigmoid().sum(), [x])
        assert gradcheck(lambda x: x.leaky_relu(0.1).sum(), [x])
        assert gradcheck(lambda x: (x * x).exp().sum(), [x])

    def test_reductions_and_reshape(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
        assert gradcheck(lambda x: x.mean(axis=0).sum(), [x])
        assert gradcheck(lambda x: x.reshape(2, 12).sum(axis=1).sum(), [x])
        assert gradcheck(lambda x: x.T.sum(), [x])

    def test_gather_scatter(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        idx = np.array([0, 2, 2, 4, 1, 0])
        assert gradcheck(
            lambda x: x.index_select(idx).scatter_add(idx, 5).sigmoid().sum(), [x])

    def test_segment_mean_and_concat(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((6, 2)), requires_grad=True)
        y = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        seg = np.array([0, 0, 1, 1, 2, 2])
        assert gradcheck(
            lambda x, y: concat([segment_mean(x, seg, 3), y], axis=1).sum(),
            [x, y])

    def test_cross_entropy_gradient(self):
        rng = np.random.default_rng(5)
        logits = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
        targets = np.array([0, 1, 2, 3, 1, 0])
        assert gradcheck(lambda lg: cross_entropy(lg, targets), [logits])

    def test_bce_gradient(self):
        rng = np.random.default_rng(6)
        probs = Tensor(rng.uniform(0.2, 0.8, (5, 1)), requires_grad=True)
        targets = np.array([[1.0], [0.0], [1.0], [1.0], [0.0]])
        assert gradcheck(lambda p: binary_cross_entropy(p, targets), [probs])

    @given(small_matrix)
    @settings(max_examples=15, deadline=None)
    def test_sum_gradient_is_ones(self, data):
        x = Tensor(data, requires_grad=True)
        x.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones_like(data))

    @given(small_matrix, small_matrix)
    @settings(max_examples=15, deadline=None)
    def test_add_gradient_distributes(self, a_data, b_data):
        a = Tensor(a_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True)
        ((a + b) * 2.0).sum().backward()
        np.testing.assert_allclose(a.grad, 2 * np.ones_like(a_data))
        np.testing.assert_allclose(b.grad, 2 * np.ones_like(b_data))


class TestSegmentOps:
    """The sorted-segment (reduceat) kernels vs the np.add.at reference."""

    def test_segment_sum_fast_matches_naive(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((80, 5))
        index = rng.integers(0, 13, 80).astype(np.int64)
        upstream = rng.standard_normal((13, 5))
        results = {}
        for fast in (False, True):
            with use_fast_segment_ops(fast):
                x = Tensor(data.copy(), requires_grad=True)
                layout = SegmentLayout(index, 13) if fast else None
                out = segment_sum(x, index, 13, layout=layout)
                out.backward(upstream)
                results[fast] = (out.data, x.grad)
        np.testing.assert_allclose(results[True][0], results[False][0],
                                   atol=1e-12)
        np.testing.assert_allclose(results[True][1], results[False][1],
                                   atol=1e-12)

    def test_index_select_backward_fast_matches_naive(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((15, 4))
        index = rng.integers(0, 15, 60).astype(np.int64)
        upstream = rng.standard_normal((60, 4))
        grads = {}
        for fast in (False, True):
            with use_fast_segment_ops(fast):
                x = Tensor(data.copy(), requires_grad=True)
                layout = SegmentLayout(index, 15) if fast else None
                x.index_select(index, layout=layout).backward(upstream)
                grads[fast] = x.grad
        np.testing.assert_allclose(grads[True], grads[False], atol=1e-12)

    def test_gradcheck_segment_ops_with_layout(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((7, 3)), requires_grad=True)
        seg = np.array([2, 0, 0, 1, 2, 2, 1])
        layout = SegmentLayout(seg, 3)
        with use_fast_segment_ops(True):
            assert gradcheck(
                lambda x: segment_sum(x, seg, 3, layout=layout).sigmoid().sum(),
                [x])
            assert gradcheck(
                lambda x: segment_mean(x, seg, 3, layout=layout).tanh().sum(),
                [x])

    def test_empty_and_missing_segments(self):
        x = Tensor(np.ones((3, 2)))
        out = segment_sum(x, np.array([0, 0, 3]), 5)
        np.testing.assert_allclose(out.data,
                                   [[2, 2], [0, 0], [0, 0], [1, 1], [0, 0]])
        empty = segment_mean(Tensor(np.zeros((0, 2))), np.zeros(0, np.int64), 2)
        np.testing.assert_allclose(empty.data, np.zeros((2, 2)))

    def test_segment_layout_runs(self):
        layout = SegmentLayout(np.array([3, 1, 1, 3, 0]), 5)
        np.testing.assert_array_equal(layout.counts, [1, 2, 0, 2, 0])
        np.testing.assert_array_equal(layout.segments, [0, 1, 3])
        np.testing.assert_array_equal(layout.starts, [0, 1, 3])


class TestDtypes:
    def test_float32_graph_stays_float32(self):
        x = Tensor(np.ones((3, 4), dtype=np.float32), requires_grad=True)
        w = Tensor(np.ones((4, 2), dtype=np.float32), requires_grad=True)
        b = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
        out = (x.linear(w, b) * 0.5 + 1.0).sigmoid().relu()
        assert out.data.dtype == np.float32
        out.sum().backward()
        assert x.grad.dtype == np.float32
        assert w.grad.dtype == np.float32

    def test_float_arrays_keep_their_dtype(self):
        assert Tensor(np.ones(3, dtype=np.float32)).data.dtype == np.float32
        assert Tensor(np.ones(3)).data.dtype == np.float64
        assert Tensor(np.ones(3), dtype="float32").data.dtype == np.float32

    def test_default_dtype_coerces_non_float(self):
        assert get_default_dtype() == np.float64
        assert Tensor(np.array([1, 2])).data.dtype == np.float64
        with default_dtype(np.float32):
            assert Tensor(np.array([1, 2])).data.dtype == np.float32
        assert Tensor(np.array([1, 2])).data.dtype == np.float64

    def test_gradcheck_promotes_float32_inputs(self):
        x = Tensor(np.random.default_rng(0).standard_normal((3, 3))
                   .astype(np.float32), requires_grad=True)
        assert gradcheck(lambda x: (x * x).sum(), [x])


class TestFusedOps:
    def test_linear_matches_two_node_form(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)
        fused = x.linear(w, b)
        reference = x @ w + b
        np.testing.assert_array_equal(fused.data, reference.data)
        assert gradcheck(lambda x, w, b: x.linear(w, b).tanh().sum(), [x, w, b])

    def test_slice_cols_gradcheck(self):
        x = Tensor(np.random.default_rng(4).standard_normal((4, 6)),
                   requires_grad=True)
        assert gradcheck(
            lambda x: (x.slice_cols(1, 4) * x.slice_cols(3, 6)).sum(), [x])


class TestUtilities:
    def test_deep_chain_does_not_overflow_recursion(self):
        # the seed's recursive topo sort overflowed Python's stack here
        x = Tensor(np.ones(4), requires_grad=True)
        y = x
        for _ in range(2000):
            y = y * 1.0
        y.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones(4))

    def test_reused_tensor_accumulates_grad(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * 3.0 + x * 4.0
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_stack_rows(self):
        rows = [Tensor(np.arange(3.0), requires_grad=True) for _ in range(4)]
        out = stack_rows(rows)
        assert out.shape == (4, 3)
        out.sum().backward()
        for r in rows:
            np.testing.assert_allclose(r.grad, np.ones(3))

    def test_dropout_eval_mode_identity(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((10, 10)))
        out = dropout(x, 0.5, rng, training=False)
        np.testing.assert_allclose(out.data, x.data)

    def test_dropout_scales_in_training(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((2000, 10)))
        out = dropout(x, 0.25, rng, training=True).data
        assert out.mean() == pytest.approx(1.0, rel=0.05)

    def test_mse_loss_zero_for_identical(self):
        x = Tensor(np.ones((3, 3)))
        assert mse_loss(x, np.ones((3, 3))).item() == pytest.approx(0.0)

    def test_as_tensor_passthrough(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t
        assert isinstance(as_tensor(2.0), Tensor)


def _assert_bare(t: Tensor) -> None:
    """``t`` is a graph leaf: nothing links it to what produced it."""
    assert not t.requires_grad
    assert t._parents == ()
    assert t._prim is None and t._saved is None and t._backward is None


class TestNoGrad:
    def test_primitive_output_is_bare(self):
        w = Tensor(np.ones((3, 2)), requires_grad=True)
        x = Tensor(np.arange(6.0).reshape(2, 3))
        with no_grad():
            out = (x @ w).relu()          # relu saves a mask when linked
        _assert_bare(out)
        np.testing.assert_array_equal(out.data, (x @ w).relu().data)

    def test_make_output_is_bare(self):
        x = Tensor(np.ones(3), requires_grad=True)
        calls = []
        with no_grad():
            out = Tensor._make(x.data * 2.0, (x,), calls.append)
        _assert_bare(out)
        linked = Tensor._make(x.data * 2.0, (x,), calls.append)
        assert linked.requires_grad and linked._parents == (x,)

    def test_nested_blocks_restore_the_outer_state(self):
        assert grad_enabled()
        with no_grad():
            assert not grad_enabled()
            with no_grad():
                assert not grad_enabled()
            assert not grad_enabled()
        assert grad_enabled()

    def test_exception_inside_the_block_restores_the_state(self):
        with pytest.raises(ZeroDivisionError):
            with no_grad():
                1 / 0
        assert grad_enabled()
        x = Tensor(np.ones(2), requires_grad=True)
        (x * 3.0).sum().backward()
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])

    def test_other_threads_still_build_graphs(self):
        inside, done = threading.Event(), threading.Event()
        seen = {}

        def predictor():
            with no_grad():
                inside.set()
                done.wait(timeout=10)
                seen["predictor"] = grad_enabled()

        thread = threading.Thread(target=predictor)
        thread.start()
        try:
            assert inside.wait(timeout=10)
            seen["trainer"] = grad_enabled()
            x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
            loss = (x * x).sum()
            loss.backward()
        finally:
            done.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert seen == {"trainer": True, "predictor": False}
        assert loss._parents
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_tape_records_nothing_from_a_no_grad_region(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        x = Tensor(np.ones((1, 2)))
        tape = Tape()
        with tape.recording():
            outside = (x @ w).tanh()
            with no_grad():
                (x @ w).tanh().sum()
        assert [t._prim.name for t in tape.records] == ["matmul", "tanh"]
        assert tape.records[-1] is outside
