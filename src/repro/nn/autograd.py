"""Reverse-mode automatic differentiation over the ``xp`` backend seam.

This is the reproduction's replacement for PyTorch's autograd: a small
define-by-run :class:`Tensor` supporting the operations needed by the MGA
models (dense layers, gated graph convolutions, attention, autoencoders and
the fused classifier).  Gradients are verified against finite differences in
the test suite (``tests/test_nn_autograd.py``).

Every differentiable operation is a :class:`Primitive`: one forward
function and one VJP function, registered by name in :data:`PRIMITIVES`.
Both draw the arrays they write from a *lease* argument.  Eager execution
passes a lease that allocates fresh arrays; tape replay
(:mod:`repro.nn.tape`) reruns the same two functions with a lease bound to
pooled buffers, so replay matches eager bit for bit without a second copy
of any primitive.  Modules define their own fused primitives the same way
(the GRU cell and the mean aggregator in :mod:`repro.gnn.conv`).

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

Inference runs under :func:`no_grad`, a thread-local switch: every op
returns a bare tensor and nothing links into a graph or onto a tape.
"""

from __future__ import annotations

import contextlib
import operator
import threading
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple, Union)

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

#: Shared empty attribute dict of primitives called without attributes.
_NO_ATTRS: dict = {}


class _GradMode(threading.local):
    """Per-thread graph-building switch (see :func:`no_grad`)."""

    enabled = True


_GRAD_MODE = _GradMode()


def grad_enabled() -> bool:
    """Whether ops on this thread link their outputs into a graph."""
    return _GRAD_MODE.enabled


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Run the block without building an autograd graph (inference mode).

    Inside it every op returns a bare tensor: no parents, no saved
    residual, no backward closure and nothing recorded on an active tape.
    The switch is thread-local, so a predict on one thread never turns off
    graph building for a ``fit`` running on another.
    """
    previous = _GRAD_MODE.enabled
    _GRAD_MODE.enabled = False
    try:
        yield
    finally:
        _GRAD_MODE.enabled = previous


def config_epoch() -> int:
    """Current global-config epoch (see ``_CONFIG_EPOCH``)."""
    return _CONFIG_EPOCH


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


def _dtype(*arrays) -> xp.dtype:
    """Result dtype of an array expression over ``arrays``."""
    dtype = arrays[0].dtype
    for a in arrays[1:]:
        if a.dtype != dtype:
            return xp.result_type(*arrays)
    return dtype


def _scalar_dtype(x, c) -> xp.dtype:
    """Result dtype of ``x <op> c``: Python scalars are weak operands."""
    if type(c) is float or type(c) is int:
        return x.dtype
    return xp.result_type(x, c)


def _out(lease, a, b):
    """``lease`` the result of the element-wise ``a <op> b``."""
    shape = a.shape if a.shape == b.shape \
        else xp.broadcast_shapes(a.shape, b.shape)
    return lease(shape, a.dtype if a.dtype == b.dtype
                 else xp.result_type(a, b))


def _mm(lease, a, b) -> xp.ndarray:
    """``a @ b`` into a leased array."""
    shape = a.shape[:-1] + b.shape[-1:] if b.ndim > 1 else a.shape[:-1]
    dtype = a.dtype if a.dtype == b.dtype else xp.result_type(a, b)
    return xp.matmul(a, b, out=lease(shape, dtype))


def _segment_sum(lease, data: xp.ndarray, index: xp.ndarray,
                 num_segments: int,
                 layout: Optional[SegmentLayout]) -> xp.ndarray:
    """Sum rows of ``data`` into ``num_segments`` buckets given by ``index``."""
    out = lease.array((num_segments,) + data.shape[1:], data.dtype)
    out.fill(0.0)
    if index.size == 0:
        return out
    if _FAST_SEGMENT_OPS:
        if layout is None:
            layout = SegmentLayout(index, num_segments)
        starts = layout.starts
        if starts.size:
            cols = data.shape[1:]
            gathered = xp.take(data, layout.order, axis=0,
                               out=lease.scratch(layout.order.shape + cols,
                                                 data.dtype, 0))
            out[layout.segments] = xp.add_reduceat(
                gathered, starts, axis=0,
                out=lease.scratch(starts.shape + cols, data.dtype, 1))
        return out
    xp.add_at(out, index, data)
    return out


# ----------------------------------------------------------------------
# primitives: one forward function and one VJP each
# ----------------------------------------------------------------------
class _EagerLease:
    """The lease of eager execution: every array is fresh.

    ``out=`` targets are ``None``, so numpy allocates each result itself
    exactly as the out-of-place expression would.
    """

    __slots__ = ()

    def __call__(self, shape, dtype) -> None:
        return None

    def scratch(self, shape, dtype, i: int = 0) -> None:
        return None

    def array(self, shape, dtype, i: Optional[int] = None) -> xp.ndarray:
        return xp.empty(shape, dtype=dtype)


EAGER = _EagerLease()

#: Every primitive by name; the tape compiler replays exactly these.
PRIMITIVES: Dict[str, "Primitive"] = {}

_data_of = operator.attrgetter("data")

#: ``need`` of a one-parent node: it requires grad only through its parent
_NEED_ONE = (True,)


class Primitive:
    """One differentiable operation, defined once for eager and replay.

    ``fwd(lease, *xs, **attrs) -> (out, saved)`` maps the parents' arrays
    to the output array plus whatever residual the VJP needs (or ``None``).
    ``vjp(lease, g, need, out, saved, *xs, **attrs)`` maps the output
    gradient ``g`` to one contribution per parent, ``None`` where
    ``need[i]`` is false.

    Both take every array they write from ``lease``:

    * ``lease(shape, dtype)`` is the ``out=`` argument of one numpy call
      whose result outlives the call (an output, a saved residual, a
      gradient contribution); always use the call's return value;
    * ``lease.scratch(shape, dtype, i)`` is the same for a temporary that
      dies with the call (``i`` tells concurrent ones apart);
    * ``lease.array(shape, dtype, i=None)`` is an array to write into
      piecewise (fill, slice assignment): a temporary when ``i`` is given.

    Eager execution passes :data:`EAGER`: ``out=None``, so numpy allocates
    each result, and fresh arrays otherwise.  Tape replay
    (:mod:`repro.nn.tape`) reruns the same call with a lease bound to
    pooled buffers.  numpy's ``out=`` variants compute the same values as
    the allocating forms, so replay is bit-identical to eager by
    construction.

    A contribution becomes the parent's gradient without a copy unless it
    is ``g`` itself or ``views`` is set (the VJP returns views of ``g``).
    ``identity`` primitives hand ``g`` itself to every parent shaped like
    the output; the tape compiler fuses those edges away.
    """

    __slots__ = ("name", "fwd", "vjp", "identity", "views")

    def __init__(self, name: str, fwd: Callable, vjp: Callable,
                 identity: bool = False, views: bool = False):
        self.name = name
        self.fwd = fwd
        self.vjp = vjp
        self.identity = identity
        self.views = views
        PRIMITIVES[name] = self

    def __repr__(self) -> str:
        return f"Primitive({self.name!r})"

    def __call__(self, *parents: "Tensor", **attrs) -> "Tensor":
        """Run eagerly; link the output into the graph if it needs grad."""
        if len(parents) == 1:
            data, saved = self.fwd(EAGER, parents[0].data, **attrs)
        else:
            data, saved = self.fwd(EAGER, *map(_data_of, parents), **attrs)
        out = Tensor(data)
        if not _GRAD_MODE.enabled:
            return out
        for p in parents:
            if p.requires_grad:
                out.requires_grad = True
                out._parents = parents
                out._prim = self
                out._saved = saved
                out._attrs = attrs
                if _TRACE is not None:
                    _TRACE.record(out)
                break
        return out

    def backprop(self, node: "Tensor", grad: xp.ndarray) -> None:
        """Eager VJP of ``node``: accumulate into its parents' gradients."""
        parents = node._parents
        if len(parents) == 1:   # the common case, without the generic packing
            grads = self.vjp(EAGER, grad, _NEED_ONE, node.data, node._saved,
                             parents[0].data, **node._attrs)
        else:
            grads = self.vjp(EAGER, grad,
                             tuple([p.requires_grad for p in parents]),
                             node.data, node._saved,
                             *map(_data_of, parents), **node._attrs)
        for p, g in zip(parents, grads):
            if g is None:
                continue
            if g is grad or self.views:
                p._accumulate(g)
            else:
                p._accumulate_owned(g)


def topo_sort(root: "Tensor") -> List["Tensor"]:
    """Post-order DFS from ``root`` over the parents that require grad.

    Parents come before their children.  The walk is iterative, so deep
    graphs (a GGNN unrolled for many steps, a 2000-op chain) cannot hit
    the recursion limit; a tensor whose parents don't require grad heads a
    dead subgraph and is not descended into.  :meth:`Tensor.backward`
    walks the result in reverse and the tape compiler schedules replay in
    the same order, so gradients accumulate in the same order both ways.
    """
    topo: List[Tensor] = []
    visited = {id(root)}
    stack: List[Tuple[Tensor, int]] = [(root, 0)]
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
    return topo


class Tensor:
    """A numpy array with a gradient and the primitive that produced it."""

    __slots__ = ("data", "grad", "requires_grad", "grad_arena", "_backward",
                 "_parents", "_prim", "_saved", "_attrs", "name")

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
        #: an untraced backward closure (:meth:`_make`); primitive outputs
        #: carry ``_prim``/``_saved``/``_attrs`` instead
        self._backward = backward
        self._parents = parents
        self._prim: Optional[Primitive] = None
        self._saved = None
        self._attrs: dict = _NO_ATTRS
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

        VJPs that just allocated ``grad`` (a matmul product, an
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
        """A node with a hand-written backward closure instead of a
        :class:`Primitive`.  Eager backward runs it; the tape cannot replay
        it, so a step containing one stays eager."""
        if not (_GRAD_MODE.enabled and any(p.requires_grad for p in parents)):
            return Tensor(data)
        return Tensor(data, requires_grad=True, parents=parents,
                      backward=backward)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            # weak scalar: keeps the tensor dtype, needs no graph node for
            # the constant and no unbroadcast in the backward pass
            return _ADD_S(self, c=other)
        return _ADD_T(self, as_tensor(other))

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return _NEG(self)

    def __sub__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            return self + (-other)
        return self + (-as_tensor(other))

    def __rsub__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            return _RSUB_S(self, c=other)
        return as_tensor(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            return _MUL_S(self, c=other)
        return _MUL_T(self, as_tensor(other))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            return _DIV_S(self, c=other)
        return _DIV_T(self, as_tensor(other))

    def __pow__(self, exponent: float) -> "Tensor":
        return _POW(self, e=float(exponent))

    def matmul(self, other: "Tensor") -> "Tensor":
        return _MATMUL(self, as_tensor(other))

    __matmul__ = matmul

    def linear(self, weight: "Tensor",
               bias: Optional["Tensor"] = None) -> "Tensor":
        """Fused affine map ``self @ weight + bias`` (one graph node).

        Equivalent to ``self @ weight + bias`` but with a single VJP; the
        bias is added in place on the matmul output, so the values are
        identical to the two-node form.
        """
        if bias is None:
            return _LINEAR(self, weight)
        return _LINEAR(self, weight, bias)

    # ------------------------------------------------------------------
    # reductions / shaping
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        return _SUM(self, axis=axis, keepdims=keepdims)

    def mean(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape: int) -> "Tensor":
        return _RESHAPE(self, shape=shape)

    @property
    def T(self) -> "Tensor":
        return _TRANSPOSE(self)

    def slice_cols(self, start: int, stop: int) -> "Tensor":
        """Columns ``[start:stop)`` of a 2-D tensor (differentiable view)."""
        return _SLICE_COLS(self, start=int(start), stop=int(stop))

    # ------------------------------------------------------------------
    # nonlinearities
    # ------------------------------------------------------------------
    def relu(self) -> "Tensor":
        return _RELU(self)

    def leaky_relu(self, slope: float = 0.01) -> "Tensor":
        return _LEAKY_RELU(self, slope=slope)

    def sigmoid(self) -> "Tensor":
        return _SIGMOID(self)

    def tanh(self) -> "Tensor":
        return _TANH(self)

    def exp(self) -> "Tensor":
        return _EXP(self)

    def log(self) -> "Tensor":
        return _LOG(self)

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
        return _SUB_MAX(self, axis=axis, keepdims=keepdims)

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
        return _INDEX_SELECT(self, index=xp.asarray(index, dtype=xp.int64),
                             layout=layout)

    def scatter_add(self, index: xp.ndarray, num_rows: int,
                    layout: Optional[SegmentLayout] = None) -> "Tensor":
        """Scatter rows: ``out[index[i]] += self[i]`` with ``num_rows`` rows."""
        return _SCATTER_ADD(self, index=xp.asarray(index, dtype=xp.int64),
                            num_rows=int(num_rows), layout=layout)

    # ------------------------------------------------------------------
    # backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[xp.ndarray] = None) -> None:
        """Backpropagate from this tensor (must be scalar unless ``grad``)."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without grad requires a scalar")
            grad = xp.ones_like(self.data)
        topo = topo_sort(self)
        self._accumulate(xp.asarray(grad, dtype=self.data.dtype))
        # children appear after their parents in `topo`, so the reversed walk
        # guarantees a node's output gradient is complete before its VJP
        # distributes it to the parents
        for tensor in reversed(topo):
            grad = tensor.grad
            if grad is None:
                continue
            if tensor._prim is not None:
                tensor._prim.backprop(tensor, grad)
            elif tensor._backward is not None:
                tensor._backward(grad)


def as_tensor(value: Union[Tensor, ArrayLike]) -> Tensor:
    """Coerce numbers / arrays to (constant) tensors."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


# ----------------------------------------------------------------------
# the built-in primitives
# ----------------------------------------------------------------------
def _pass_grad(lease, g, need, out, saved, x, **attrs):
    return (g,)


def _negate_grad(lease, g, need, out, saved, x, **attrs):
    return (xp.negative(g, out=lease(g.shape, g.dtype)),)


def _add_s(lease, x, c):
    return xp.add(x, c, out=lease(x.shape, _scalar_dtype(x, c))), None


def _add_t(lease, a, b):
    return xp.add(a, b, out=_out(lease, a, b)), None


def _add_t_vjp(lease, g, need, out, saved, a, b):
    return (_unbroadcast(g, a.shape) if need[0] else None,
            _unbroadcast(g, b.shape) if need[1] else None)


def _neg(lease, x):
    return xp.negative(x, out=lease(x.shape, x.dtype)), None


def _rsub_s(lease, x, c):
    return xp.subtract(c, x, out=lease(x.shape, _scalar_dtype(x, c))), None


def _mul_s(lease, x, c):
    return xp.multiply(x, c, out=lease(x.shape, _scalar_dtype(x, c))), None


def _mul_s_vjp(lease, g, need, out, saved, x, c):
    return (xp.multiply(g, c, out=lease(g.shape, _scalar_dtype(g, c))),)


def _times(lease, g, y, shape):
    """``_unbroadcast(g * y, shape)`` with the product in a leased array."""
    return _unbroadcast(xp.multiply(g, y, out=_out(lease, g, y)), shape)


def _mul_t(lease, a, b):
    return xp.multiply(a, b, out=_out(lease, a, b)), None


def _mul_t_vjp(lease, g, need, out, saved, a, b):
    return (_times(lease, g, b, a.shape) if need[0] else None,
            _times(lease, g, a, b.shape) if need[1] else None)


def _div_s(lease, x, c):
    return xp.divide(x, c, out=lease(x.shape, _scalar_dtype(x, c))), None


def _div_s_vjp(lease, g, need, out, saved, x, c):
    return (xp.divide(g, c, out=lease(g.shape, _scalar_dtype(g, c))),)


def _div_t(lease, a, b):
    return xp.divide(a, b, out=_out(lease, a, b)), None


def _div_t_vjp(lease, g, need, out, saved, a, b):
    return (_unbroadcast(g / b, a.shape) if need[0] else None,
            _unbroadcast(-g * a / (b ** 2), b.shape) if need[1] else None)


def _pow(lease, x, e):
    return x ** e, None


def _pow_vjp(lease, g, need, out, saved, x, e):
    return (g * e * x ** (e - 1.0),)


def _matmul(lease, a, b):
    return _mm(lease, a, b), None


def _matmul_vjp(lease, g, need, out, saved, a, b):
    return (_mm(lease, g, b.T) if need[0] else None,
            _mm(lease, a.T, g) if need[1] else None)


def _linear(lease, x, w, b=None):
    out = _mm(lease, x, w)
    if b is not None:
        xp.add(out, b, out=out)
    return out, None


def _linear_vjp(lease, g, need, out, saved, x, w, b=None):
    grads = (_mm(lease, g, w.T) if need[0] else None,
             _mm(lease, x.T, g) if need[1] else None)
    if b is None:
        return grads
    return grads + (g.sum(axis=0, out=lease(g.shape[1:], g.dtype))
                    if need[2] else None,)


def _sum(lease, x, axis, keepdims):
    return x.sum(axis=axis, keepdims=keepdims), None


def _sum_vjp(lease, g, need, out, saved, x, axis, keepdims):
    gx = lease.array(x.shape, x.dtype)
    if axis is None:
        gx.fill(float(g))
    else:
        xp.copyto(gx, g if keepdims else xp.expand_dims(g, axis))
    return (gx,)


def _reshape(lease, x, shape):
    return x.reshape(*shape), None


def _reshape_vjp(lease, g, need, out, saved, x, shape):
    return (g.reshape(x.shape),)


def _transpose(lease, x):
    return x.T, None


def _transpose_vjp(lease, g, need, out, saved, x):
    return (g.T,)


def _slice_cols(lease, x, start, stop):
    return x[:, start:stop], None


def _slice_cols_vjp(lease, g, need, out, saved, x, start, stop):
    gx = lease.array(x.shape, x.dtype)
    gx.fill(0.0)
    gx[:, start:stop] = g
    return (gx,)


def _masked(lease, x, mask):
    """``(x * mask, mask)``: forward of the mask-scaled primitives."""
    return xp.multiply(x, mask, out=_out(lease, x, mask)), mask


def _masked_vjp(lease, g, need, out, mask, x, **attrs):
    return (xp.multiply(g, mask, out=_out(lease, g, mask)),)


def _relu(lease, x):
    return _masked(lease, x, (x > 0).astype(x.dtype))


def _leaky_relu(lease, x, slope):
    return _masked(lease, x, xp.where(x > 0, 1.0, slope).astype(x.dtype))


def _dropout(lease, x, rate, rng):
    # the mask is drawn at every execution (replays included), so the rng
    # stream advances exactly as in eager mode
    return _masked(lease, x,
                   (rng.random(x.shape) >= rate).astype(x.dtype) / (1.0 - rate))


def _sigmoid(lease, x):
    s = xp.clip(x, -60.0, 60.0, out=lease(x.shape, x.dtype))
    xp.negative(s, out=s)
    xp.exp(s, out=s)
    xp.add(s, 1.0, out=s)
    return xp.divide(1.0, s, out=s), None


def _sigmoid_vjp(lease, g, need, out, saved, x):
    gx = xp.multiply(g, out, out=_out(lease, g, out))
    one_minus = xp.subtract(1.0, out, out=lease.scratch(out.shape, out.dtype))
    return (xp.multiply(gx, one_minus, out=gx),)


def _tanh(lease, x):
    return xp.tanh(x, out=lease(x.shape, x.dtype)), None


def _tanh_vjp(lease, g, need, out, saved, x):
    return (g * (1.0 - out ** 2),)


def _exp(lease, x):
    e = xp.clip(x, -60.0, 60.0, out=lease(x.shape, x.dtype))
    return xp.exp(e, out=e), None


def _exp_vjp(lease, g, need, out, saved, x):
    return (xp.multiply(g, out, out=_out(lease, g, out)),)


def _log(lease, x):
    m = xp.maximum(x, 1e-12, out=lease(x.shape, x.dtype))
    return xp.log(m, out=m), None


def _log_vjp(lease, g, need, out, saved, x):
    return (g / xp.maximum(x, 1e-12),)


def _sub_max(lease, x, axis, keepdims):
    return xp.subtract(x, x.max(axis=axis, keepdims=keepdims),
                       out=lease(x.shape, x.dtype)), None


def _index_select(lease, x, index, layout):
    return xp.take(x, index, axis=0,
                   out=lease(index.shape + x.shape[1:], x.dtype)), None


def _index_select_vjp(lease, g, need, out, saved, x, index, layout):
    return (_segment_sum(lease, g, index, x.shape[0], layout),)


def _scatter_add(lease, x, index, num_rows, layout):
    return _segment_sum(lease, x, index, num_rows, layout), None


def _scatter_add_vjp(lease, g, need, out, saved, x, index, num_rows, layout):
    return (xp.take(g, index, axis=0,
                    out=lease(index.shape + g.shape[1:], g.dtype)),)


def _concat(lease, *xs, axis):
    return xp.concatenate(xs, axis=axis), None


def _concat_vjp(lease, g, need, out, saved, *xs, axis):
    grads = []
    start = 0
    for x, needed in zip(xs, need):
        stop = start + x.shape[axis]
        if needed:
            slicer = [slice(None)] * g.ndim
            slicer[axis] = slice(start, stop)
            grads.append(g[tuple(slicer)])
        else:
            grads.append(None)
        start = stop
    return grads


def _stack_rows(lease, *xs):
    return xp.stack(xs, axis=0), None


def _stack_rows_vjp(lease, g, need, out, saved, *xs):
    return [g[i] if needed else None for i, needed in enumerate(need)]


_ADD_S = Primitive("add_s", _add_s, _pass_grad, identity=True)
_ADD_T = Primitive("add_t", _add_t, _add_t_vjp, identity=True)
_NEG = Primitive("neg", _neg, _negate_grad)
_RSUB_S = Primitive("rsub_s", _rsub_s, _negate_grad)
_MUL_S = Primitive("mul_s", _mul_s, _mul_s_vjp)
_MUL_T = Primitive("mul_t", _mul_t, _mul_t_vjp)
_DIV_S = Primitive("div_s", _div_s, _div_s_vjp)
_DIV_T = Primitive("div_t", _div_t, _div_t_vjp)
_POW = Primitive("pow", _pow, _pow_vjp)
_MATMUL = Primitive("matmul", _matmul, _matmul_vjp)
_LINEAR = Primitive("linear", _linear, _linear_vjp)
_SUM = Primitive("sum", _sum, _sum_vjp)
_RESHAPE = Primitive("reshape", _reshape, _reshape_vjp, views=True)
_TRANSPOSE = Primitive("transpose", _transpose, _transpose_vjp, views=True)
_SLICE_COLS = Primitive("slice_cols", _slice_cols, _slice_cols_vjp)
_RELU = Primitive("relu", _relu, _masked_vjp)
_LEAKY_RELU = Primitive("leaky_relu", _leaky_relu, _masked_vjp)
_SIGMOID = Primitive("sigmoid", _sigmoid, _sigmoid_vjp)
_TANH = Primitive("tanh", _tanh, _tanh_vjp)
_EXP = Primitive("exp", _exp, _exp_vjp)
_LOG = Primitive("log", _log, _log_vjp)
_SUB_MAX = Primitive("sub_max", _sub_max, _pass_grad, identity=True)
_DROPOUT = Primitive("dropout", _dropout, _masked_vjp)
_INDEX_SELECT = Primitive("index_select", _index_select, _index_select_vjp)
_SCATTER_ADD = Primitive("scatter_add", _scatter_add, _scatter_add_vjp)
_CONCAT = Primitive("concat", _concat, _concat_vjp, views=True)
_STACK_ROWS = Primitive("stack_rows", _stack_rows, _stack_rows_vjp,
                        views=True)


# ----------------------------------------------------------------------
# free functions
# ----------------------------------------------------------------------
def concat(tensors: Sequence[Tensor], axis: int = 1) -> Tensor:
    """Concatenate tensors along ``axis`` (differentiable)."""
    return _CONCAT(*[as_tensor(t) for t in tensors], axis=axis)


def stack_rows(tensors: Sequence[Tensor]) -> Tensor:
    """Stack 1-D tensors into a 2-D tensor (row per input)."""
    return _STACK_ROWS(*[as_tensor(t) for t in tensors])


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
    return _DROPOUT(x, rate=rate, rng=rng)


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
