"""Reverse-mode automatic differentiation over the ``xp`` backend seam.

This is the reproduction's replacement for PyTorch's autograd: a small
define-by-run :class:`Tensor` supporting the operations needed by the MGA
models (dense layers, gated graph convolutions, attention, autoencoders and
the fused classifier).  Gradients are verified against finite differences in
the test suite (``tests/nn/test_autograd.py``).

Performance notes
-----------------

The engine is tuned for the training fast path:

* tensors carry a float dtype (float32 or float64).  Incoming float arrays
  keep their dtype; everything else is coerced to the configurable default
  (``runtime.configure(default_dtype=...)``).  Python scalars are "weak" operands, as in
  PyTorch: ``x * 0.5`` never promotes a float32 graph to float64.
* gradient accumulation is in place (``grad += g``) after the first
  contribution, instead of reallocating ``grad + g`` per edge.
* :meth:`Tensor.backward` uses an iterative topological sort, so deep graphs
  (e.g. a GGNN unrolled for many steps, or a 2000-op chain) cannot overflow
  the Python recursion limit.
* segment reductions (the message-passing primitives) can run over a
  precomputed :class:`SegmentLayout`: the index is sorted once and every
  scatter becomes a gather + ``xp.add_reduceat`` over contiguous runs,
  replacing the element-wise ``np.ufunc.at`` loop.  The naive ``xp.add_at``
  path is kept behind ``runtime.configure(fast_segment_ops=False)`` as a
  numerical reference.
* every array operation routes through :data:`repro.nn.backend.xp`, the
  pluggable array-backend namespace.  The default numpy backend binds each
  ``xp`` entry to the numpy function itself, so this seam costs nothing and
  the numerics are bit-identical to direct numpy calls.

The process-global knobs here (default dtype, segment-ops toggle) are set
through :mod:`repro.nn.runtime` (``configure``/``use``), which also owns
backend selection, or scoped with the :func:`default_dtype` and
:func:`use_fast_segment_ops` context managers.  Every actual change bumps
the config epoch, so cached tape plans can never replay state recorded
under a different configuration.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

from . import backend as _backend
from .backend import xp

ArrayLike = Union[xp.ndarray, float, int, Sequence[float]]

_FLOAT_DTYPES = (xp.dtype(xp.float32), xp.dtype(xp.float64))

#: Dtype used when coercing non-float data into tensors and by the parameter
#: initialisers.  float64 preserves the seed numerics; training stacks opt
#: into float32 per model (``MGAModel(dtype="float32")``) for speed.
_DEFAULT_DTYPE = xp.dtype(xp.float64)

#: When True (default), segment reductions use the sorted
#: gather + ``xp.add_reduceat`` kernels; when False they fall back to the
#: original ``xp.add_at`` scatter, kept as a bit-for-bit seed reference.
_FAST_SEGMENT_OPS = True

#: Monotonic counter bumped whenever a process-global numeric knob (default
#: dtype, segment-ops toggle, active backend) actually changes value.
#: Memoised compiled state (tape plans) captures the epoch at build time
#: and treats a mismatch as a guard failure, so toggling a global
#: mid-process can never replay stale kernels.
_CONFIG_EPOCH = 0

#: Active tape recorder (see :mod:`repro.nn.tape`), or ``None`` when ops run
#: purely eagerly.  Set only via ``Tape.recording()``.
_TRACE = None


def config_epoch() -> int:
    """Current global-config epoch (see ``_CONFIG_EPOCH``)."""
    return _CONFIG_EPOCH


def _record(out: "Tensor", op: str, parents: Tuple["Tensor", ...],
            attrs: Optional[dict] = None) -> "Tensor":
    """Notify the active tape (if any) that ``out`` was produced by ``op``."""
    if _TRACE is not None and out.requires_grad:
        _TRACE.record(op, out, parents, attrs)
    return out


def _bump_config_epoch() -> None:
    global _CONFIG_EPOCH
    _CONFIG_EPOCH += 1


# a backend switch invalidates every compiled tape plan exactly like a
# dtype or segment-ops toggle does
_backend.add_change_hook(_bump_config_epoch)


def _store_default_dtype(dtype) -> None:
    """Knob storage for the default dtype; called by :mod:`repro.nn.runtime`
    and the :func:`default_dtype` context manager."""
    global _DEFAULT_DTYPE
    dtype = xp.dtype(dtype)
    if dtype not in _FLOAT_DTYPES:
        raise ValueError("default dtype must be float32 or float64")
    if dtype != _DEFAULT_DTYPE:
        _bump_config_epoch()
    _DEFAULT_DTYPE = dtype


def get_default_dtype() -> xp.dtype:
    """The current default float dtype (see :mod:`repro.nn.runtime`)."""
    return _DEFAULT_DTYPE


@contextlib.contextmanager
def default_dtype(dtype) -> Iterator[None]:
    """Context manager that temporarily overrides the default dtype."""
    previous = _DEFAULT_DTYPE
    _store_default_dtype(dtype)
    try:
        yield
    finally:
        _store_default_dtype(previous)


def _store_fast_segment_ops(enabled: bool) -> None:
    """Knob storage for the segment-ops toggle; called by
    :mod:`repro.nn.runtime` and :func:`use_fast_segment_ops`."""
    global _FAST_SEGMENT_OPS
    enabled = bool(enabled)
    if enabled != _FAST_SEGMENT_OPS:
        _bump_config_epoch()
    _FAST_SEGMENT_OPS = enabled


def fast_segment_ops_enabled() -> bool:
    return _FAST_SEGMENT_OPS


@contextlib.contextmanager
def use_fast_segment_ops(enabled: bool) -> Iterator[None]:
    """Context manager variant of the segment-ops toggle."""
    previous = _FAST_SEGMENT_OPS
    _store_fast_segment_ops(enabled)
    try:
        yield
    finally:
        _store_fast_segment_ops(previous)


# ----------------------------------------------------------------------
# sorted-segment reductions
# ----------------------------------------------------------------------
class SegmentLayout:
    """Precomputed sort order for repeated segment reductions over one index.

    Sorting ``index`` once (stable, so ties keep their original order) turns
    every subsequent scatter-add over it into ``data[order]`` followed by one
    ``xp.add_reduceat`` across the contiguous runs — a CSR-style layout that
    vectorises across feature columns instead of looping per element the way
    ``xp.add_at`` does.  Layouts are cached per batched graph, so the sort is
    paid once per batch, not once per operation per epoch.
    """

    __slots__ = ("index", "num_segments", "order", "starts", "segments",
                 "counts")

    def __init__(self, index: xp.ndarray, num_segments: int):
        index = xp.asarray(index, dtype=xp.int64)
        self.index = index
        self.num_segments = int(num_segments)
        order = xp.argsort(index, kind="stable")
        sorted_index = index[order]
        if sorted_index.size:
            run_start = xp.empty(sorted_index.size, dtype=bool)
            run_start[0] = True
            xp.not_equal(sorted_index[1:], sorted_index[:-1],
                         out=run_start[1:])
            starts = xp.flatnonzero(run_start)
            segments = sorted_index[starts]
        else:
            starts = xp.zeros(0, dtype=xp.int64)
            segments = xp.zeros(0, dtype=xp.int64)
        self.order = order
        self.starts = starts
        self.segments = segments
        self.counts = xp.bincount(index, minlength=self.num_segments)


def _segment_sum_data(data: xp.ndarray, index: xp.ndarray, num_segments: int,
                      layout: Optional[SegmentLayout]) -> xp.ndarray:
    """Sum rows of ``data`` into ``num_segments`` buckets given by ``index``."""
    data = xp.asarray(data)
    out = xp.zeros((num_segments,) + data.shape[1:], dtype=data.dtype)
    if index.size == 0:
        return out
    if _FAST_SEGMENT_OPS:
        if layout is None:
            layout = SegmentLayout(index, num_segments)
        if layout.starts.size:
            out[layout.segments] = xp.add_reduceat(
                data[layout.order], layout.starts, axis=0)
        return out
    xp.add_at(out, index, data)
    return out


def _unbroadcast(grad: xp.ndarray, shape: Tuple[int, ...]) -> xp.ndarray:
    """Sum ``grad`` back down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # sum over leading broadcast dimensions
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # sum over axes that were 1 in the original shape
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with a gradient and a backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "grad_arena", "_backward",
                 "_parents", "name")

    def __init__(self, data: ArrayLike, requires_grad: bool = False,
                 parents: Tuple["Tensor", ...] = (),
                 backward: Optional[Callable[[xp.ndarray], None]] = None,
                 name: str = "", dtype=None):
        arr = xp.asarray(data)
        if dtype is not None:
            arr = arr.astype(xp.dtype(dtype), copy=False)
        elif arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(_DEFAULT_DTYPE)
        self.data = arr
        self.grad: Optional[xp.ndarray] = None
        self.requires_grad = bool(requires_grad)
        #: True once a tape plan has pointed ``grad`` at a persistent arena
        #: buffer; :meth:`zero_grad` then clears in place instead of dropping
        #: the buffer, so its identity survives across steps.
        self.grad_arena = False
        self._backward = backward
        self._parents = parents
        self.name = name

    # ------------------------------------------------------------------
    # basics
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self) -> xp.dtype:
        return self.data.dtype

    def numpy(self) -> xp.ndarray:
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def zero_grad(self) -> None:
        """Clear the gradient.

        Ordinarily drops the array (the next backward's first contribution
        re-establishes ownership).  Once a tape plan has installed an arena
        buffer (``grad_arena``), the buffer is zeroed *in place* instead so
        its identity is stable across steps; eager ``_accumulate`` then adds
        into it, which is value-identical to the copy-on-first-write path.
        """
        if self.grad_arena and self.grad is not None \
                and self.grad.dtype == self.data.dtype \
                and self.grad.shape == self.data.shape:
            self.grad.fill(0.0)
        else:
            self.grad = None

    def _accumulate(self, grad: xp.ndarray) -> None:
        if self.grad is None:
            # always copy: the incoming array may be shared with another
            # parent's gradient (e.g. both operands of `a + a`)
            self.grad = xp.array(grad, dtype=self.data.dtype, copy=True)
        else:
            # in-place accumulation: no reallocation per contribution
            self.grad += grad

    def _accumulate_owned(self, grad: xp.ndarray) -> None:
        """Accumulate a gradient array the caller guarantees is fresh.

        Backward closures that just allocated ``grad`` (a matmul product, an
        element-wise product, a reduction ...) hand over ownership instead of
        paying :meth:`_accumulate`'s defensive copy.  Never pass an array
        that aliases the child's gradient or another tensor's buffer.
        """
        if self.grad is None:
            self.grad = grad
        else:
            self.grad += grad

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # ------------------------------------------------------------------
    # graph construction helper
    # ------------------------------------------------------------------
    @staticmethod
    def _make(data: xp.ndarray, parents: Tuple["Tensor", ...],
              backward: Callable[[xp.ndarray], None]) -> "Tensor":
        requires = any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires, parents=parents,
                     backward=backward if requires else None)
        return out

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            # weak scalar: keeps the tensor dtype, needs no graph node for
            # the constant and no unbroadcast in the backward pass
            def backward(grad: xp.ndarray) -> None:
                if self.requires_grad:
                    self._accumulate(grad)

            return _record(Tensor._make(self.data + other, (self,), backward),
                           "add_s", (self,), {"c": other})
        other = as_tensor(other)

        def backward(grad: xp.ndarray) -> None:
            if self.requires_grad:
                g = _unbroadcast(grad, self.shape)
                (self._accumulate if g is grad else self._accumulate_owned)(g)
            if other.requires_grad:
                g = _unbroadcast(grad, other.shape)
                (other._accumulate if g is grad else other._accumulate_owned)(g)

        return _record(Tensor._make(self.data + other.data, (self, other),
                                    backward), "add_t", (self, other))

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: xp.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_owned(-grad)

        return _record(Tensor._make(-self.data, (self,), backward),
                       "neg", (self,))

    def __sub__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            return self + (-other)
        return self + (-as_tensor(other))

    def __rsub__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            def backward(grad: xp.ndarray) -> None:
                if self.requires_grad:
                    self._accumulate_owned(-grad)

            return _record(Tensor._make(other - self.data, (self,), backward),
                           "rsub_s", (self,), {"c": other})
        return as_tensor(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            scale = other

            def backward(grad: xp.ndarray) -> None:
                if self.requires_grad:
                    self._accumulate_owned(grad * scale)

            return _record(Tensor._make(self.data * scale, (self,), backward),
                           "mul_s", (self,), {"c": scale})
        other = as_tensor(other)

        def backward(grad: xp.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_owned(_unbroadcast(grad * other.data,
                                                    self.shape))
            if other.requires_grad:
                other._accumulate_owned(_unbroadcast(grad * self.data,
                                                     other.shape))

        return _record(Tensor._make(self.data * other.data, (self, other),
                                    backward), "mul_t", (self, other))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            def backward(grad: xp.ndarray) -> None:
                if self.requires_grad:
                    self._accumulate_owned(grad / other)

            return _record(Tensor._make(self.data / other, (self,), backward),
                           "div_s", (self,), {"c": other})
        other = as_tensor(other)

        def backward(grad: xp.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_owned(_unbroadcast(grad / other.data,
                                                    self.shape))
            if other.requires_grad:
                other._accumulate_owned(_unbroadcast(
                    -grad * self.data / (other.data ** 2), other.shape))

        return _record(Tensor._make(self.data / other.data, (self, other),
                                    backward), "div_t", (self, other))

    def __pow__(self, exponent: float) -> "Tensor":
        exponent = float(exponent)

        def backward(grad: xp.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_owned(
                    grad * exponent * self.data ** (exponent - 1.0))

        return _record(Tensor._make(self.data ** exponent, (self,), backward),
                       "pow", (self,), {"e": exponent})

    def matmul(self, other: "Tensor") -> "Tensor":
        other = as_tensor(other)

        def backward(grad: xp.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_owned(grad @ other.data.T)
            if other.requires_grad:
                other._accumulate_owned(self.data.T @ grad)

        return _record(Tensor._make(self.data @ other.data, (self, other),
                                    backward), "matmul", (self, other))

    __matmul__ = matmul

    def linear(self, weight: "Tensor",
               bias: Optional["Tensor"] = None) -> "Tensor":
        """Fused affine map ``self @ weight + bias`` (one graph node).

        Equivalent to ``self @ weight + bias`` but with a single backward
        closure; the bias is added in place on the freshly allocated matmul
        output, so the values are identical to the two-node form.
        """
        out = self.data @ weight.data
        if bias is not None:
            out += bias.data

        def backward(grad: xp.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_owned(grad @ weight.data.T)
            if weight.requires_grad:
                weight._accumulate_owned(self.data.T @ grad)
            if bias is not None and bias.requires_grad:
                bias._accumulate_owned(grad.sum(axis=0))

        parents = (self, weight) if bias is None else (self, weight, bias)
        return _record(Tensor._make(out, parents, backward), "linear", parents)

    # ------------------------------------------------------------------
    # reductions / shaping
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        def backward(grad: xp.ndarray) -> None:
            if not self.requires_grad:
                return
            g = xp.asarray(grad)
            if axis is None:
                self._accumulate_owned(xp.full(self.shape, float(g),
                                               dtype=self.data.dtype))
            else:
                if not keepdims:
                    g = xp.expand_dims(g, axis)
                self._accumulate_owned(xp.broadcast_to(g, self.shape).copy())

        return _record(Tensor._make(self.data.sum(axis=axis, keepdims=keepdims),
                                    (self,), backward),
                       "sum", (self,), {"axis": axis, "keepdims": keepdims})

    def mean(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape: int) -> "Tensor":
        old_shape = self.shape

        def backward(grad: xp.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(old_shape))

        return _record(Tensor._make(self.data.reshape(*shape), (self,),
                                    backward),
                       "reshape", (self,), {"shape": shape, "old": old_shape})

    @property
    def T(self) -> "Tensor":
        def backward(grad: xp.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.T)

        return _record(Tensor._make(self.data.T, (self,), backward),
                       "transpose", (self,))

    def slice_cols(self, start: int, stop: int) -> "Tensor":
        """Columns ``[start:stop)`` of a 2-D tensor (differentiable view)."""
        start, stop = int(start), int(stop)

        def backward(grad: xp.ndarray) -> None:
            if self.requires_grad:
                g = xp.zeros_like(self.data)
                g[:, start:stop] = grad
                self._accumulate_owned(g)

        return _record(Tensor._make(self.data[:, start:stop], (self,),
                                    backward),
                       "slice_cols", (self,), {"start": start, "stop": stop})

    # ------------------------------------------------------------------
    # nonlinearities
    # ------------------------------------------------------------------
    def relu(self) -> "Tensor":
        mask = (self.data > 0).astype(self.data.dtype)

        def backward(grad: xp.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_owned(grad * mask)

        return _record(Tensor._make(self.data * mask, (self,), backward),
                       "relu", (self,))

    def leaky_relu(self, slope: float = 0.01) -> "Tensor":
        mask = xp.where(self.data > 0, 1.0, slope).astype(self.data.dtype)

        def backward(grad: xp.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_owned(grad * mask)

        return _record(Tensor._make(self.data * mask, (self,), backward),
                       "leaky_relu", (self,), {"slope": slope})

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + xp.exp(-xp.clip(self.data, -60.0, 60.0)))

        def backward(grad: xp.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_owned(grad * out_data * (1.0 - out_data))

        return _record(Tensor._make(out_data, (self,), backward),
                       "sigmoid", (self,))

    def tanh(self) -> "Tensor":
        out_data = xp.tanh(self.data)

        def backward(grad: xp.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_owned(grad * (1.0 - out_data ** 2))

        return _record(Tensor._make(out_data, (self,), backward),
                       "tanh", (self,))

    def exp(self) -> "Tensor":
        out_data = xp.exp(xp.clip(self.data, -60.0, 60.0))

        def backward(grad: xp.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_owned(grad * out_data)

        return _record(Tensor._make(out_data, (self,), backward),
                       "exp", (self,))

    def log(self) -> "Tensor":
        def backward(grad: xp.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_owned(grad / xp.maximum(self.data, 1e-12))

        return _record(Tensor._make(xp.log(xp.maximum(self.data, 1e-12)),
                                    (self,), backward), "log", (self,))

    def sub_max(self, axis: Optional[int] = None,
                keepdims: bool = False) -> "Tensor":
        """``self - self.data.max(axis, keepdims)`` as one primitive.

        The max shift used to stabilise softmax-style expressions is a
        *data-dependent constant*: its VJP is the identity (the gradient of a
        constant shift vanishes almost everywhere), but its forward value
        must be recomputed from fresh activations every step.  Folding the
        shift into a primitive keeps it replayable on a tape, and is
        bit-for-bit the two-node form (IEEE: ``x + (-m) == x - m``).
        """
        m = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: xp.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad)

        return _record(Tensor._make(self.data - m, (self,), backward),
                       "sub_max", (self,),
                       {"axis": axis, "keepdims": keepdims})

    # ------------------------------------------------------------------
    # indexing / scatter-gather (the message-passing primitives)
    # ------------------------------------------------------------------
    def index_select(self, index: xp.ndarray,
                     layout: Optional[SegmentLayout] = None) -> "Tensor":
        """Gather rows: ``out[i] = self[index[i]]``.

        ``layout`` is an optional precomputed :class:`SegmentLayout` over
        ``index`` (with ``num_segments == len(self)``) used to vectorise the
        scatter in the backward pass.
        """
        index = xp.asarray(index, dtype=xp.int64)
        num_rows = self.data.shape[0]

        def backward(grad: xp.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_owned(_segment_sum_data(grad, index, num_rows,
                                                         layout))

        return _record(Tensor._make(self.data[index], (self,), backward),
                       "index_select", (self,),
                       {"index": index, "layout": layout,
                        "num_rows": num_rows})

    def scatter_add(self, index: xp.ndarray, num_rows: int,
                    layout: Optional[SegmentLayout] = None) -> "Tensor":
        """Scatter rows: ``out[index[i]] += self[i]`` with ``num_rows`` rows."""
        index = xp.asarray(index, dtype=xp.int64)
        out_data = _segment_sum_data(self.data, index, int(num_rows), layout)

        def backward(grad: xp.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_owned(xp.asarray(grad)[index])

        return _record(Tensor._make(out_data, (self,), backward),
                       "scatter_add", (self,),
                       {"index": index, "layout": layout,
                        "num_rows": int(num_rows)})

    # ------------------------------------------------------------------
    # backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[xp.ndarray] = None) -> None:
        """Backpropagate from this tensor (must be scalar unless ``grad``)."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without grad requires a scalar")
            grad = xp.ones_like(self.data)
        # iterative post-order DFS: same visit order as the recursive
        # version, but immune to RecursionError on deep graphs (a tensor
        # whose parents don't require grad heads a dead subgraph — skip it)
        topo: List[Tensor] = []
        visited = {id(self)}
        stack: List[Tuple[Tensor, int]] = [(self, 0)]
        while stack:
            node, next_parent = stack[-1]
            if next_parent < len(node._parents):
                stack[-1] = (node, next_parent + 1)
                parent = node._parents[next_parent]
                if parent.requires_grad and id(parent) not in visited:
                    visited.add(id(parent))
                    stack.append((parent, 0))
            else:
                topo.append(node)
                stack.pop()
        self._accumulate(xp.asarray(grad, dtype=self.data.dtype))
        # children appear after their parents in `topo`, so the reversed walk
        # guarantees a node's output gradient is complete before its
        # _backward distributes it to the parents
        for tensor in reversed(topo):
            if tensor._backward is not None and tensor.grad is not None:
                tensor._backward(tensor.grad)


def as_tensor(value: Union[Tensor, ArrayLike]) -> Tensor:
    """Coerce numbers / arrays to (constant) tensors."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


# ----------------------------------------------------------------------
# free functions
# ----------------------------------------------------------------------
def concat(tensors: Sequence[Tensor], axis: int = 1) -> Tensor:
    """Concatenate tensors along ``axis`` (differentiable)."""
    tensors = [as_tensor(t) for t in tensors]
    data = xp.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = xp.cumsum([0] + sizes)

    def backward(grad: xp.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, stop)
                t._accumulate(grad[tuple(slicer)])

    return _record(Tensor._make(data, tuple(tensors), backward),
                   "concat", tuple(tensors),
                   {"axis": axis, "offsets": offsets})


def stack_rows(tensors: Sequence[Tensor]) -> Tensor:
    """Stack 1-D tensors into a 2-D tensor (row per input)."""
    tensors = [as_tensor(t) for t in tensors]
    data = xp.stack([t.data for t in tensors], axis=0)

    def backward(grad: xp.ndarray) -> None:
        for i, t in enumerate(tensors):
            if t.requires_grad:
                t._accumulate(grad[i])

    return _record(Tensor._make(data, tuple(tensors), backward),
                   "stack_rows", tuple(tensors))


def segment_sum(x: Tensor, segment_ids: xp.ndarray, num_segments: int,
                layout: Optional[SegmentLayout] = None) -> Tensor:
    """Sum of rows of ``x`` grouped by ``segment_ids``."""
    return x.scatter_add(xp.asarray(segment_ids, dtype=xp.int64),
                         num_segments, layout=layout)


def segment_mean(x: Tensor, segment_ids: xp.ndarray, num_segments: int,
                 layout: Optional[SegmentLayout] = None) -> Tensor:
    """Mean of rows of ``x`` grouped by ``segment_ids`` (empty segments → 0)."""
    segment_ids = xp.asarray(segment_ids, dtype=xp.int64)
    if layout is not None:
        counts = layout.counts.astype(xp.float64)
    else:
        counts = xp.bincount(segment_ids, minlength=num_segments).astype(xp.float64)
    counts = xp.maximum(counts, 1.0)
    sums = x.scatter_add(segment_ids, num_segments, layout=layout)
    inv = Tensor((1.0 / counts[:, None]).astype(sums.data.dtype, copy=False))
    return sums * inv


def dropout(x: Tensor, rate: float, rng: xp.Generator,
            training: bool = True) -> Tensor:
    """Inverted dropout (one traced primitive).

    The mask is drawn from ``rng`` at every execution — including tape
    replays, which capture the generator object itself — so the rng stream
    advances exactly as in eager mode.  Values match the historical
    ``x * Tensor(mask)`` two-node form bit for bit.
    """
    if not training or rate <= 0.0:
        return x
    mask = (rng.random(x.shape) >= rate).astype(x.data.dtype) / (1.0 - rate)

    def backward(grad: xp.ndarray) -> None:
        if x.requires_grad:
            x._accumulate_owned(grad * mask)

    return _record(Tensor._make(x.data * mask, (x,), backward),
                   "dropout", (x,), {"rate": float(rate), "rng": rng})


def gradcheck(func: Callable[..., Tensor], inputs: Sequence[Tensor],
              eps: float = 1e-6, atol: float = 1e-4) -> bool:
    """Finite-difference gradient check of ``func`` w.r.t. ``inputs``.

    Inputs are promoted to float64 in place (finite differences with a 1e-6
    step are meaningless at float32 precision), and tensors created inside
    ``func`` default to float64 for the duration of the check.
    """
    inputs = list(inputs)
    for t in inputs:
        t.data = xp.asarray(t.data, dtype=xp.float64)
        t.zero_grad()
    with default_dtype(xp.float64):
        output = func(*inputs)
        output.backward()
        for tensor in inputs:
            if not tensor.requires_grad:
                continue
            analytic = tensor.grad if tensor.grad is not None else xp.zeros_like(tensor.data)
            numeric = xp.zeros_like(tensor.data)
            flat = tensor.data.reshape(-1)
            num_flat = numeric.reshape(-1)
            for i in range(flat.size):
                original = flat[i]
                flat[i] = original + eps
                plus = func(*inputs).data.sum()
                flat[i] = original - eps
                minus = func(*inputs).data.sum()
                flat[i] = original
                num_flat[i] = (plus - minus) / (2 * eps)
            if not xp.allclose(analytic, numeric, atol=atol, rtol=1e-3):
                return False
    return True
