"""Autograd tape capture + replay for fixed-shape training steps.

The define-by-run engine in :mod:`repro.nn.autograd` rebuilds the backward
graph — one :class:`~repro.nn.autograd.Tensor`, one closure, one DFS visit
per op — on *every* training step, even though the MGA training loop runs
the identical (shape, dtype) graph thousands of times once batch partitions
are frozen.  This module records that graph once and compiles it into a
:class:`TapePlan`: a flat list of zero-arg forward thunks plus a flat list
of VJP thunks in the exact reverse-topological order eager execution uses,
dispatched with zero per-node Python graph construction.

Bit-for-bit equivalence with eager mode is the design constraint, not an
afterthought:

* the recording step *is* a normal eager step — recording only appends
  (op, parents, attrs) descriptors;
* every replay thunk mirrors its eager closure's numpy expression exactly
  (same ufuncs, same operand order, same temporaries), relying only on
  identities numpy guarantees (``out=`` variants of a ufunc compute the
  same values; ``x @ y`` and ``xp.matmul(x, y, out=...)`` agree);
* the backward thunk order replicates the eager iterative DFS post-order
  over the same graph, and within one node the per-parent contribution
  order replicates the closure body, so gradient accumulation — float
  addition is commutative but not associative — happens in the same order;
* data-dependent values inside a step (dropout masks, softmax max-shifts)
  are traced primitives whose thunks recompute them from fresh activations
  (and the *captured rng object*, keeping the random stream aligned).

Gradients for graph leaves (parameters and any ``requires_grad`` inputs)
land in preallocated arena buffers owned by the :class:`TapeRunner` and
shared by every plan, so ``id(p.grad)`` is stable across replayed steps and
no per-step ``xp.zeros`` is paid: the first contribution to a buffer is a
"set" (``out=`` or ``copyto``), later ones are in-place ``+=``.  Adjacent
identity-VJP nodes (scalar adds, max-shifts) are fused away entirely: when
such a node's parent receives no other contribution, the parent's gradient
slot aliases the child's and no thunk is emitted.

Plans carry guards — the global config epoch (bumped by every actual
change made through ``repro.nn.runtime.configure``), leaf array identity, and
an optional caller fingerprint — and fall back to eager re-recording when
any of them fails.  A graph containing an op the compiler does not know
raises :class:`TapeUnsupported`, permanently pinning that step key to the
eager path.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.nn import autograd
from repro.nn.autograd import (
    SegmentLayout,
    Tensor,
    _segment_sum_data,
    _unbroadcast,
)
from repro.nn.backend import xp


class TapeUnsupported(RuntimeError):
    """The recorded graph contains an op the tape compiler cannot replay."""


class _Rec:
    """One recorded op application."""

    __slots__ = ("op", "out", "parents", "attrs")

    def __init__(self, op: str, out: Tensor, parents: Tuple[Tensor, ...],
                 attrs: Optional[dict]):
        self.op = op
        self.out = out
        self.parents = parents
        self.attrs = attrs or {}


class Tape:
    """Recorder attached to the autograd trace hook."""

    def __init__(self) -> None:
        self.records: List[_Rec] = []
        self.by_id: Dict[int, _Rec] = {}

    def record(self, op: str, out: Tensor, parents: Tuple[Tensor, ...],
               attrs: Optional[dict]) -> None:
        rec = _Rec(op, out, parents, attrs)
        self.records.append(rec)
        self.by_id[id(out)] = rec

    @contextlib.contextmanager
    def recording(self) -> Iterator["Tape"]:
        if autograd._TRACE is not None:
            raise RuntimeError("tape recording cannot be nested")
        autograd._TRACE = self
        try:
            yield self
        finally:
            autograd._TRACE = None


# ----------------------------------------------------------------------
# op registry
# ----------------------------------------------------------------------
#: op -> forward emitter: ``fwd(rec, ctx) -> thunk | None``
_FWD: Dict[str, Callable] = {}
#: op -> backward emitter:
#: ``bwd(rec, ctx) -> (pre_thunk | None, [(parent, kind, value_fn, set_into)])``
#: where ``kind`` is "id" (contribution is exactly the child grad, alias
#: eligible), "view" (aliases the child grad / vals — copy on set) or
#: "owned" (freshly allocated array).  ``set_into(buf)``, when given, writes
#: the set-mode contribution directly into an arena buffer.
_BWD: Dict[str, Callable] = {}


def register_op(name: str, fwd: Callable, bwd: Callable) -> None:
    """Register replay emitters for a custom traced primitive.

    Used by modules that define hand-derived single-node ops (the fused GRU
    cell and the mean aggregator in :mod:`repro.gnn.conv`).
    """
    _FWD[name] = fwd
    _BWD[name] = bwd


def _op(name):
    def deco(pair_fn):
        fwd, bwd = pair_fn()
        register_op(name, fwd, bwd)
        return pair_fn
    return deco


class _Ctx:
    """Compile-time context handed to emitters."""

    __slots__ = ("vals", "gv", "_slots", "_gslot", "_cells", "_pool",
                 "_cursor")

    def __init__(self, pool: Optional[Dict] = None) -> None:
        self.vals: List[Optional[xp.ndarray]] = []
        self.gv: List[Optional[xp.ndarray]] = []
        self._slots: Dict[int, int] = {}
        self._gslot: Dict[int, int] = {}
        self._cells: Dict[int, dict] = {}
        self._pool: Dict = pool if pool is not None else {}
        self._cursor: Dict = {}

    def vslot(self, t: Tensor) -> int:
        s = self._slots.get(id(t))
        if s is None:
            s = len(self.vals)
            self._slots[id(t)] = s
            self.vals.append(t.data)
        return s

    def g(self, t: Tensor) -> int:
        """Resolved grad slot of ``t`` (set up by the compiler)."""
        return self._gslot[id(t)]

    def cell(self, rec: _Rec) -> dict:
        """Per-record scratch dict shared by a record's fwd/bwd thunks."""
        c = self._cells.get(id(rec))
        if c is None:
            c = self._cells[id(rec)] = {}
        return c

    def buf(self, shape, dtype) -> xp.ndarray:
        """Step-scratch array leased from the runner-wide buffer pool.

        Buffers are keyed by (shape, dtype) plus an occurrence counter, so
        within one plan every lease is a distinct array, while *different*
        plans with the same shapes alias the same memory.  Only one plan
        replays at a time and nothing leased here outlives its step (leaf
        gradients live in the separate persistent arena), so sharing is
        safe — and it keeps the replay working set at one step's worth of
        arrays instead of one per cached plan, which matters when several
        plans rotate through a cache-sized model.
        """
        key = (tuple(shape), xp.dtype(dtype).str)
        i = self._cursor.get(key, 0)
        self._cursor[key] = i + 1
        slot = self._pool.setdefault(key, [])
        while len(slot) <= i:
            slot.append(xp.empty(key[0], dtype=xp.dtype(dtype)))
        return slot[i]

    def obuf(self, rec: _Rec) -> xp.ndarray:
        """Forward output buffer matching the recorded output (pooled)."""
        return self.buf(rec.out.data.shape, rec.out.data.dtype)

    def scratch(self, shape, dtype, i: int = 0) -> xp.ndarray:
        """Thunk-local scratch: freely aliased ACROSS thunks and plans.

        Unlike :meth:`buf` there is no occurrence cursor — every thunk that
        asks for the same (shape, dtype, i) gets the *same* array, so the
        hot footprint stays one thunk's worth of temporaries no matter how
        many nodes or plans exist (mimicking malloc's recycling of freshly
        freed blocks, without the allocator round-trips).  Only valid for
        values whose lifetime ends with the thunk (or, for a backward
        emitter, with that node's contiguous pre+specs block); anything
        stored into ``vals``/``gv`` or read by a *different* node's thunk
        must use :meth:`buf`.  Distinguish concurrent uses within one thunk
        via ``i``.
        """
        key = (tuple(shape), xp.dtype(dtype).str, i)
        buf = self._pool.get(key)
        if buf is None:
            buf = self._pool[key] = xp.empty(key[0], dtype=xp.dtype(dtype))
        return buf


# ---- forward/backward emitters for the built-in autograd ops ----------

@_op("add_s")
def _():
    def fwd(rec, ctx):
        vals, x, o = ctx.vals, ctx.vslot(rec.parents[0]), ctx.vslot(rec.out)
        c, buf = rec.attrs["c"], ctx.obuf(rec)

        def run():
            xp.add(vals[x], c, out=buf)
            vals[o] = buf
        return run

    def bwd(rec, ctx):
        return None, [(rec.parents[0], "id", None, None)]
    return fwd, bwd


@_op("add_t")
def _():
    def fwd(rec, ctx):
        vals = ctx.vals
        a, b = ctx.vslot(rec.parents[0]), ctx.vslot(rec.parents[1])
        o, buf = ctx.vslot(rec.out), ctx.obuf(rec)

        def run():
            xp.add(vals[a], vals[b], out=buf)
            vals[o] = buf
        return run

    def bwd(rec, ctx):
        gv, gs = ctx.gv, ctx.g(rec.out)
        out_shape = rec.out.shape
        specs = []
        for p in rec.parents:
            if not p.requires_grad:
                continue
            if p.shape == out_shape:
                specs.append((p, "id", None, None))
            else:
                shape = p.shape
                specs.append((p, "owned",
                              (lambda shape=shape:
                               _unbroadcast(gv[gs], shape)), None))
        return None, specs
    return fwd, bwd


@_op("neg")
def _():
    def fwd(rec, ctx):
        vals, x, o = ctx.vals, ctx.vslot(rec.parents[0]), ctx.vslot(rec.out)
        buf = ctx.obuf(rec)

        def run():
            xp.negative(vals[x], out=buf)
            vals[o] = buf
        return run

    def bwd(rec, ctx):
        gv, gs = ctx.gv, ctx.g(rec.out)
        return None, [(rec.parents[0], "owned", lambda: -gv[gs],
                       lambda buf: xp.negative(gv[gs], out=buf))]
    return fwd, bwd


@_op("rsub_s")
def _():
    def fwd(rec, ctx):
        vals, x, o = ctx.vals, ctx.vslot(rec.parents[0]), ctx.vslot(rec.out)
        c, buf = rec.attrs["c"], ctx.obuf(rec)

        def run():
            xp.subtract(c, vals[x], out=buf)
            vals[o] = buf
        return run

    def bwd(rec, ctx):
        gv, gs = ctx.gv, ctx.g(rec.out)
        return None, [(rec.parents[0], "owned", lambda: -gv[gs],
                       lambda buf: xp.negative(gv[gs], out=buf))]
    return fwd, bwd


@_op("mul_s")
def _():
    def fwd(rec, ctx):
        vals, x, o = ctx.vals, ctx.vslot(rec.parents[0]), ctx.vslot(rec.out)
        c, buf = rec.attrs["c"], ctx.obuf(rec)

        def run():
            xp.multiply(vals[x], c, out=buf)
            vals[o] = buf
        return run

    def bwd(rec, ctx):
        gv, gs, c = ctx.gv, ctx.g(rec.out), rec.attrs["c"]
        return None, [(rec.parents[0], "owned", lambda: gv[gs] * c,
                       lambda buf: xp.multiply(gv[gs], c, out=buf))]
    return fwd, bwd


@_op("mul_t")
def _():
    def fwd(rec, ctx):
        vals = ctx.vals
        a, b = ctx.vslot(rec.parents[0]), ctx.vslot(rec.parents[1])
        o, buf = ctx.vslot(rec.out), ctx.obuf(rec)

        def run():
            xp.multiply(vals[a], vals[b], out=buf)
            vals[o] = buf
        return run

    def bwd(rec, ctx):
        gv, vals, gs = ctx.gv, ctx.vals, ctx.g(rec.out)
        out_shape = rec.out.shape
        specs = []
        pa, pb = rec.parents
        for p, other in ((pa, pb), (pb, pa)):
            if not p.requires_grad:
                continue
            ov, shape = ctx.vslot(other), p.shape
            if shape == out_shape:
                specs.append((p, "owned",
                              (lambda ov=ov: gv[gs] * vals[ov]),
                              (lambda buf, ov=ov:
                               xp.multiply(gv[gs], vals[ov], out=buf))))
            else:
                specs.append((p, "owned",
                              (lambda ov=ov, shape=shape:
                               _unbroadcast(gv[gs] * vals[ov], shape)), None))
        return None, specs
    return fwd, bwd


@_op("div_s")
def _():
    def fwd(rec, ctx):
        vals, x, o = ctx.vals, ctx.vslot(rec.parents[0]), ctx.vslot(rec.out)
        c, buf = rec.attrs["c"], ctx.obuf(rec)

        def run():
            xp.divide(vals[x], c, out=buf)
            vals[o] = buf
        return run

    def bwd(rec, ctx):
        gv, gs, c = ctx.gv, ctx.g(rec.out), rec.attrs["c"]
        return None, [(rec.parents[0], "owned", lambda: gv[gs] / c,
                       lambda buf: xp.divide(gv[gs], c, out=buf))]
    return fwd, bwd


@_op("div_t")
def _():
    def fwd(rec, ctx):
        vals = ctx.vals
        a, b = ctx.vslot(rec.parents[0]), ctx.vslot(rec.parents[1])
        o, buf = ctx.vslot(rec.out), ctx.obuf(rec)

        def run():
            xp.divide(vals[a], vals[b], out=buf)
            vals[o] = buf
        return run

    def bwd(rec, ctx):
        gv, vals, gs = ctx.gv, ctx.vals, ctx.g(rec.out)
        pa, pb = rec.parents
        a, b = ctx.vslot(pa), ctx.vslot(pb)
        specs = []
        if pa.requires_grad:
            specs.append((pa, "owned",
                          (lambda shape=pa.shape:
                           _unbroadcast(gv[gs] / vals[b], shape)),
                          None))
        if pb.requires_grad:
            specs.append((pb, "owned",
                          (lambda shape=pb.shape: _unbroadcast(
                              -gv[gs] * vals[a] / (vals[b] ** 2), shape)),
                          None))
        return None, specs
    return fwd, bwd


@_op("pow")
def _():
    def fwd(rec, ctx):
        vals, x, o = ctx.vals, ctx.vslot(rec.parents[0]), ctx.vslot(rec.out)
        e = rec.attrs["e"]

        def run():
            vals[o] = vals[x] ** e
        return run

    def bwd(rec, ctx):
        gv, vals, gs = ctx.gv, ctx.vals, ctx.g(rec.out)
        x, e = ctx.vslot(rec.parents[0]), rec.attrs["e"]
        return None, [(rec.parents[0], "owned",
                       lambda: gv[gs] * e * vals[x] ** (e - 1.0), None)]
    return fwd, bwd


def _leased_matmul(ctx, parent, a_of, b_of):
    """``(value_fn, set_into)`` computing ``a @ b`` without allocating.

    ``set_into`` serves the leaf-arena first write; ``value_fn`` (non-leaf
    assigns and ``+=`` accumulations) writes into a step lease, which is
    safe to hand to ``gv`` because every lease is distinct within a plan
    and nothing pooled outlives its step.
    """
    out_buf = ctx.buf(parent.data.shape, parent.data.dtype)

    def value():
        xp.matmul(a_of(), b_of(), out=out_buf)
        return out_buf
    return value, lambda buf: xp.matmul(a_of(), b_of(), out=buf)


@_op("matmul")
def _():
    def fwd(rec, ctx):
        vals = ctx.vals
        a, b = ctx.vslot(rec.parents[0]), ctx.vslot(rec.parents[1])
        o, buf = ctx.vslot(rec.out), ctx.obuf(rec)

        def run():
            xp.matmul(vals[a], vals[b], out=buf)
            vals[o] = buf
        return run

    def bwd(rec, ctx):
        gv, vals, gs = ctx.gv, ctx.vals, ctx.g(rec.out)
        pa, pb = rec.parents
        a, b = ctx.vslot(pa), ctx.vslot(pb)
        specs = []
        if pa.requires_grad:
            specs.append((pa, "owned") + _leased_matmul(
                ctx, pa, lambda: gv[gs], lambda: vals[b].T))
        if pb.requires_grad:
            specs.append((pb, "owned") + _leased_matmul(
                ctx, pb, lambda: vals[a].T, lambda: gv[gs]))
        return None, specs
    return fwd, bwd


@_op("linear")
def _():
    def fwd(rec, ctx):
        vals = ctx.vals
        x, w = ctx.vslot(rec.parents[0]), ctx.vslot(rec.parents[1])
        bi = ctx.vslot(rec.parents[2]) if len(rec.parents) == 3 else None
        o, buf = ctx.vslot(rec.out), ctx.obuf(rec)

        if bi is None:
            def run():
                xp.matmul(vals[x], vals[w], out=buf)
                vals[o] = buf
        else:
            def run():
                xp.matmul(vals[x], vals[w], out=buf)
                xp.add(buf, vals[bi], out=buf)  # == eager's in-place `+=`
                vals[o] = buf
        return run

    def bwd(rec, ctx):
        gv, vals, gs = ctx.gv, ctx.vals, ctx.g(rec.out)
        px, pw = rec.parents[0], rec.parents[1]
        x, w = ctx.vslot(px), ctx.vslot(pw)
        specs = []
        if px.requires_grad:
            specs.append((px, "owned") + _leased_matmul(
                ctx, px, lambda: gv[gs], lambda: vals[w].T))
        if pw.requires_grad:
            specs.append((pw, "owned") + _leased_matmul(
                ctx, pw, lambda: vals[x].T, lambda: gv[gs]))
        if len(rec.parents) == 3 and rec.parents[2].requires_grad:
            pb = rec.parents[2]
            db_buf = ctx.buf(pb.data.shape, pb.data.dtype)

            def db_value():
                xp.sum(gv[gs], axis=0, out=db_buf)
                return db_buf
            specs.append((pb, "owned", db_value,
                          lambda buf: xp.sum(gv[gs], axis=0, out=buf)))
        return None, specs
    return fwd, bwd


@_op("sum")
def _():
    def fwd(rec, ctx):
        vals, x, o = ctx.vals, ctx.vslot(rec.parents[0]), ctx.vslot(rec.out)
        axis, keepdims = rec.attrs["axis"], rec.attrs["keepdims"]

        def run():
            vals[o] = vals[x].sum(axis=axis, keepdims=keepdims)
        return run

    def bwd(rec, ctx):
        gv, gs = ctx.gv, ctx.g(rec.out)
        p = rec.parents[0]
        axis, keepdims = rec.attrs["axis"], rec.attrs["keepdims"]
        shape, dtype = p.shape, p.data.dtype
        # the broadcast-up gradient goes into a pooled step buffer either
        # way (fill == np.full's fill; copyto broadcasts == broadcast_to +
        # copy), so steady-state replay allocates nothing here
        buf = ctx.buf(shape, dtype)
        if axis is None:
            def value():
                buf.fill(float(gv[gs]))
                return buf
            return None, [(p, "owned", value,
                           lambda target: target.fill(float(gv[gs])))]

        def expanded():
            g = gv[gs]
            if not keepdims:
                g = xp.expand_dims(g, axis)
            return g

        def value():
            xp.copyto(buf, expanded())
            return buf
        return None, [(p, "owned", value,
                       lambda target: xp.copyto(target, expanded()))]
    return fwd, bwd


@_op("reshape")
def _():
    def fwd(rec, ctx):
        vals, x, o = ctx.vals, ctx.vslot(rec.parents[0]), ctx.vslot(rec.out)
        shape = rec.attrs["shape"]

        def run():
            vals[o] = vals[x].reshape(*shape)
        return run

    def bwd(rec, ctx):
        gv, gs, old = ctx.gv, ctx.g(rec.out), rec.attrs["old"]
        return None, [(rec.parents[0], "view",
                       lambda: gv[gs].reshape(old), None)]
    return fwd, bwd


@_op("transpose")
def _():
    def fwd(rec, ctx):
        vals, x, o = ctx.vals, ctx.vslot(rec.parents[0]), ctx.vslot(rec.out)

        def run():
            vals[o] = vals[x].T
        return run

    def bwd(rec, ctx):
        gv, gs = ctx.gv, ctx.g(rec.out)
        return None, [(rec.parents[0], "view", lambda: gv[gs].T, None)]
    return fwd, bwd


@_op("slice_cols")
def _():
    def fwd(rec, ctx):
        vals, x, o = ctx.vals, ctx.vslot(rec.parents[0]), ctx.vslot(rec.out)
        start, stop = rec.attrs["start"], rec.attrs["stop"]

        def run():
            vals[o] = vals[x][:, start:stop]
        return run

    def bwd(rec, ctx):
        gv, gs = ctx.gv, ctx.g(rec.out)
        p = rec.parents[0]
        start, stop = rec.attrs["start"], rec.attrs["stop"]
        shape, dtype = p.shape, p.data.dtype

        def value():
            g = xp.zeros(shape, dtype=dtype)
            g[:, start:stop] = gv[gs]
            return g

        def set_into(buf):
            buf.fill(0.0)
            buf[:, start:stop] = gv[gs]
        return None, [(p, "owned", value, set_into)]
    return fwd, bwd


@_op("relu")
def _():
    def fwd(rec, ctx):
        vals, x, o = ctx.vals, ctx.vslot(rec.parents[0]), ctx.vslot(rec.out)
        buf, cell = ctx.obuf(rec), ctx.cell(rec)

        def run():
            mask = (vals[x] > 0).astype(buf.dtype)
            cell["mask"] = mask
            xp.multiply(vals[x], mask, out=buf)
            vals[o] = buf
        return run

    def bwd(rec, ctx):
        gv, gs, cell = ctx.gv, ctx.g(rec.out), ctx.cell(rec)
        return None, [(rec.parents[0], "owned",
                       lambda: gv[gs] * cell["mask"],
                       lambda buf: xp.multiply(gv[gs], cell["mask"],
                                               out=buf))]
    return fwd, bwd


@_op("leaky_relu")
def _():
    def fwd(rec, ctx):
        vals, x, o = ctx.vals, ctx.vslot(rec.parents[0]), ctx.vslot(rec.out)
        slope, buf, cell = rec.attrs["slope"], ctx.obuf(rec), ctx.cell(rec)

        def run():
            mask = xp.where(vals[x] > 0, 1.0, slope).astype(buf.dtype)
            cell["mask"] = mask
            xp.multiply(vals[x], mask, out=buf)
            vals[o] = buf
        return run

    def bwd(rec, ctx):
        gv, gs, cell = ctx.gv, ctx.g(rec.out), ctx.cell(rec)
        return None, [(rec.parents[0], "owned",
                       lambda: gv[gs] * cell["mask"],
                       lambda buf: xp.multiply(gv[gs], cell["mask"],
                                               out=buf))]
    return fwd, bwd


@_op("sigmoid")
def _():
    def fwd(rec, ctx):
        vals, x, o = ctx.vals, ctx.vslot(rec.parents[0]), ctx.vslot(rec.out)

        def run():
            vals[o] = 1.0 / (1.0 + xp.exp(-xp.clip(vals[x], -60.0, 60.0)))
        return run

    def bwd(rec, ctx):
        gv, vals, gs = ctx.gv, ctx.vals, ctx.g(rec.out)
        o = ctx.vslot(rec.out)
        return None, [(rec.parents[0], "owned",
                       lambda: gv[gs] * vals[o] * (1.0 - vals[o]), None)]
    return fwd, bwd


@_op("tanh")
def _():
    def fwd(rec, ctx):
        vals, x, o = ctx.vals, ctx.vslot(rec.parents[0]), ctx.vslot(rec.out)
        buf = ctx.obuf(rec)

        def run():
            xp.tanh(vals[x], out=buf)
            vals[o] = buf
        return run

    def bwd(rec, ctx):
        gv, vals, gs = ctx.gv, ctx.vals, ctx.g(rec.out)
        o = ctx.vslot(rec.out)
        return None, [(rec.parents[0], "owned",
                       lambda: gv[gs] * (1.0 - vals[o] ** 2), None)]
    return fwd, bwd


@_op("exp")
def _():
    def fwd(rec, ctx):
        vals, x, o = ctx.vals, ctx.vslot(rec.parents[0]), ctx.vslot(rec.out)

        def run():
            vals[o] = xp.exp(xp.clip(vals[x], -60.0, 60.0))
        return run

    def bwd(rec, ctx):
        gv, vals, gs = ctx.gv, ctx.vals, ctx.g(rec.out)
        o = ctx.vslot(rec.out)
        return None, [(rec.parents[0], "owned",
                       lambda: gv[gs] * vals[o],
                       lambda buf: xp.multiply(gv[gs], vals[o], out=buf))]
    return fwd, bwd


@_op("log")
def _():
    def fwd(rec, ctx):
        vals, x, o = ctx.vals, ctx.vslot(rec.parents[0]), ctx.vslot(rec.out)

        def run():
            vals[o] = xp.log(xp.maximum(vals[x], 1e-12))
        return run

    def bwd(rec, ctx):
        gv, vals, gs = ctx.gv, ctx.vals, ctx.g(rec.out)
        x = ctx.vslot(rec.parents[0])
        return None, [(rec.parents[0], "owned",
                       lambda: gv[gs] / xp.maximum(vals[x], 1e-12), None)]
    return fwd, bwd


@_op("sub_max")
def _():
    def fwd(rec, ctx):
        vals, x, o = ctx.vals, ctx.vslot(rec.parents[0]), ctx.vslot(rec.out)
        axis, keepdims = rec.attrs["axis"], rec.attrs["keepdims"]
        buf = ctx.obuf(rec)

        def run():
            m = vals[x].max(axis=axis, keepdims=keepdims)
            xp.subtract(vals[x], m, out=buf)
            vals[o] = buf
        return run

    def bwd(rec, ctx):
        return None, [(rec.parents[0], "id", None, None)]
    return fwd, bwd


@_op("dropout")
def _():
    def fwd(rec, ctx):
        vals, x, o = ctx.vals, ctx.vslot(rec.parents[0]), ctx.vslot(rec.out)
        rate, rng = rec.attrs["rate"], rec.attrs["rng"]
        shape, buf, cell = rec.parents[0].shape, ctx.obuf(rec), ctx.cell(rec)

        def run():
            mask = (rng.random(shape) >= rate).astype(buf.dtype) / (1.0 - rate)
            cell["mask"] = mask
            xp.multiply(vals[x], mask, out=buf)
            vals[o] = buf
        return run

    def bwd(rec, ctx):
        gv, gs, cell = ctx.gv, ctx.g(rec.out), ctx.cell(rec)
        return None, [(rec.parents[0], "owned",
                       lambda: gv[gs] * cell["mask"],
                       lambda buf: xp.multiply(gv[gs], cell["mask"],
                                               out=buf))]
    return fwd, bwd


@_op("index_select")
def _():
    def fwd(rec, ctx):
        vals, x, o = ctx.vals, ctx.vslot(rec.parents[0]), ctx.vslot(rec.out)
        index = rec.attrs["index"]

        def run():
            vals[o] = vals[x][index]
        return run

    def bwd(rec, ctx):
        gv, gs = ctx.gv, ctx.g(rec.out)
        index = rec.attrs["index"]
        layout: Optional[SegmentLayout] = rec.attrs["layout"]
        num_rows = rec.attrs["num_rows"]

        def value():
            return _segment_sum_data(gv[gs], index, num_rows, layout)

        def set_into(buf):
            buf.fill(0.0)
            if index.size == 0:
                return
            if autograd._FAST_SEGMENT_OPS:
                lay = layout if layout is not None \
                    else SegmentLayout(index, num_rows)
                if lay.starts.size:
                    buf[lay.segments] = xp.add_reduceat(
                        gv[gs][lay.order], lay.starts, axis=0)
                return
            xp.add_at(buf, index, gv[gs])
        return None, [(rec.parents[0], "owned", value, set_into)]
    return fwd, bwd


@_op("scatter_add")
def _():
    def fwd(rec, ctx):
        vals, x, o = ctx.vals, ctx.vslot(rec.parents[0]), ctx.vslot(rec.out)
        index = rec.attrs["index"]
        layout, num_rows = rec.attrs["layout"], rec.attrs["num_rows"]

        def run():
            vals[o] = _segment_sum_data(vals[x], index, num_rows, layout)
        return run

    def bwd(rec, ctx):
        gv, gs = ctx.gv, ctx.g(rec.out)
        index = rec.attrs["index"]
        return None, [(rec.parents[0], "owned", lambda: gv[gs][index], None)]
    return fwd, bwd


@_op("concat")
def _():
    def fwd(rec, ctx):
        vals = ctx.vals
        slots = [ctx.vslot(p) for p in rec.parents]
        o, axis = ctx.vslot(rec.out), rec.attrs["axis"]

        def run():
            vals[o] = xp.concatenate([vals[s] for s in slots], axis=axis)
        return run

    def bwd(rec, ctx):
        gv, gs = ctx.gv, ctx.g(rec.out)
        axis, offsets = rec.attrs["axis"], rec.attrs["offsets"]
        ndim = rec.out.ndim
        specs = []
        for p, start, stop in zip(rec.parents, offsets[:-1], offsets[1:]):
            if not p.requires_grad:
                continue
            slicer = [slice(None)] * ndim
            slicer[axis] = slice(start, stop)
            slicer = tuple(slicer)
            specs.append((p, "view",
                          (lambda slicer=slicer: gv[gs][slicer]), None))
        return None, specs
    return fwd, bwd


@_op("stack_rows")
def _():
    def fwd(rec, ctx):
        vals = ctx.vals
        slots = [ctx.vslot(p) for p in rec.parents]
        o = ctx.vslot(rec.out)

        def run():
            vals[o] = xp.stack([vals[s] for s in slots], axis=0)
        return run

    def bwd(rec, ctx):
        gv, gs = ctx.gv, ctx.g(rec.out)
        specs = []
        for i, p in enumerate(rec.parents):
            if not p.requires_grad:
                continue
            specs.append((p, "view", (lambda i=i: gv[gs][i]), None))
        return None, specs
    return fwd, bwd


# ----------------------------------------------------------------------
# compilation
# ----------------------------------------------------------------------
def _eager_topo(loss: Tensor) -> List[Tensor]:
    """Exactly the post-order DFS :meth:`Tensor.backward` uses."""
    topo: List[Tensor] = []
    visited = {id(loss)}
    stack: List[Tuple[Tensor, int]] = [(loss, 0)]
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


def graph_leaves(loss: Tensor) -> List[Tensor]:
    """``requires_grad`` leaves (no backward closure) reachable from ``loss``."""
    return [t for t in _eager_topo(loss) if t._backward is None]


class TapePlan:
    """A compiled forward + backward schedule for one step shape."""

    __slots__ = ("vals", "fwd", "bwd", "loss_slot", "leaf_assigns",
                 "leaf_guards", "leaf_ids", "absent", "config_epoch",
                 "fingerprint", "num_nodes", "num_bwd_thunks")

    def replay(self) -> float:
        """Run one step from the precompiled thunk lists; returns the loss."""
        for p in self.absent:
            p.grad = None
        for f in self.fwd:
            f()
        loss = float(self.vals[self.loss_slot])
        for b in self.bwd:
            b()
        for t, buf in self.leaf_assigns:
            t.grad = buf
            t.grad_arena = True
        return loss

    def guards_ok(self) -> bool:
        if self.config_epoch != autograd.config_epoch():
            return False
        vals = self.vals
        for t, slot in self.leaf_guards:
            if t.data is not vals[slot]:
                return False
        return True


def compile_plan(tape: Tape, loss: Tensor, arena: Dict[int, xp.ndarray],
                 arena_refs: Dict[int, Tensor],
                 wrt: Sequence[Tensor] = (),
                 fingerprint=None, pool: Optional[Dict] = None) -> TapePlan:
    """Compile a recorded step into a :class:`TapePlan`.

    ``arena``/``arena_refs`` are the runner's persistent per-leaf gradient
    buffers (keyed by ``id``); compiling against a shared arena is what
    keeps ``id(p.grad)`` stable across every plan of a runner.  ``pool``
    is the runner's shared step-scratch buffer pool (see :meth:`_Ctx.buf`).
    """
    if loss.data.size != 1:
        raise TapeUnsupported("tape loss must be scalar")
    by_id = tape.by_id
    topo = _eager_topo(loss)
    if id(loss) not in by_id:
        raise TapeUnsupported("loss tensor was not produced under recording")

    ctx = _Ctx(pool)
    recs: List[Optional[_Rec]] = []
    for node in topo:
        if node._backward is None:
            recs.append(None)  # leaf
            continue
        rec = by_id.get(id(node))
        if rec is None:
            raise TapeUnsupported("untraced op in graph (requires_grad "
                                  "tensor with an unknown backward closure)")
        if rec.op not in _BWD:
            raise TapeUnsupported(f"no tape emitter for op {rec.op!r}")
        recs.append(rec)

    # value slots for every node and every recorded parent (constants)
    for node, rec in zip(topo, recs):
        ctx.vslot(node)
        if rec is not None:
            for p in rec.parents:
                ctx.vslot(p)

    # ---- contribution counting + identity-alias fusion -----------------
    counts: Dict[int, int] = {}
    ident_from: Dict[int, _Rec] = {}
    for node, rec in zip(reversed(topo), reversed(recs)):
        if rec is None:
            continue
        op, out_shape = rec.op, rec.out.shape
        for p in rec.parents:
            if not p.requires_grad:
                continue
            counts[id(p)] = counts.get(id(p), 0) + 1
            if op in ("add_s", "sub_max") or \
                    (op == "add_t" and p.shape == out_shape):
                ident_from[id(p)] = rec
    aliased: Dict[int, Tensor] = {}
    for node, rec in zip(topo, recs):
        if rec is not None and counts.get(id(node)) == 1 \
                and id(node) in ident_from:
            aliased[id(node)] = ident_from[id(node)].out

    # resolved grad slot per topo node (leaves get their slot too; their
    # gv entry is the arena buffer)
    def resolve(t: Tensor) -> int:
        while id(t) in aliased:
            t = aliased[id(t)]
        return ctx.vslot(t)

    for node in topo:
        ctx._gslot[id(node)] = resolve(node)

    ctx.gv = [None] * len(ctx.vals)

    # ---- leaves: arena buffers ----------------------------------------
    leaf_assigns: List[Tuple[Tensor, xp.ndarray]] = []
    leaf_guards: List[Tuple[Tensor, int]] = []
    leaf_slots: Dict[int, xp.ndarray] = {}
    for node, rec in zip(topo, recs):
        if rec is not None:
            continue
        buf = arena.get(id(node))
        if buf is None or buf.shape != node.data.shape \
                or buf.dtype != node.data.dtype:
            buf = xp.empty_like(node.data)
            arena[id(node)] = buf
            arena_refs[id(node)] = node
        slot = ctx.vslot(node)
        ctx.gv[slot] = buf
        leaf_slots[slot] = buf
        leaf_assigns.append((node, buf))
        leaf_guards.append((node, slot))

    # ---- forward schedule (recorded execution order, needed nodes only)
    needed = {id(n) for n, r in zip(topo, recs) if r is not None}
    fwd: List[Callable[[], None]] = []
    for rec in tape.records:
        if id(rec.out) in needed:
            fwd.append(_FWD[rec.op](rec, ctx))

    # ---- backward schedule --------------------------------------------
    gv = ctx.gv
    loss_slot = ctx.vslot(loss)
    seed = xp.ones_like(loss.data)
    bwd: List[Callable[[], None]] = []
    bwd.append(lambda: gv.__setitem__(loss_slot, seed))
    written = {loss_slot}
    for node, rec in zip(reversed(topo), reversed(recs)):
        if rec is None:
            continue
        pre, specs = _BWD[rec.op](rec, ctx)
        if pre is not None:
            bwd.append(pre)
        gs = ctx._gslot[id(node)]
        for parent, kind, value_fn, set_into in specs:
            if id(parent) in aliased:
                continue  # fused away: parent grad slot aliases this one
            slot = ctx._gslot[id(parent)]
            first = slot not in written
            written.add(slot)
            buf = leaf_slots.get(slot)
            if kind == "id":
                value_fn = (lambda gs=gs: gv[gs])
            if buf is not None:  # leaf: arena buffer target
                if first:
                    if set_into is not None:
                        bwd.append(lambda set_into=set_into, buf=buf:
                                   set_into(buf))
                    else:
                        bwd.append(lambda buf=buf, value_fn=value_fn:
                                   xp.copyto(buf, value_fn()))
                else:
                    bwd.append(lambda buf=buf, value_fn=value_fn:
                               buf.__iadd__(value_fn()))
            elif first:
                if kind in ("id", "view"):
                    # eager _accumulate copies shared arrays on first write
                    bwd.append(lambda slot=slot, value_fn=value_fn:
                               gv.__setitem__(slot, value_fn().copy()))
                else:
                    bwd.append(lambda slot=slot, value_fn=value_fn:
                               gv.__setitem__(slot, value_fn()))
            else:
                bwd.append(lambda slot=slot, value_fn=value_fn:
                           gv[slot].__iadd__(value_fn()))

    plan = TapePlan()
    plan.vals = ctx.vals
    plan.fwd = fwd
    plan.bwd = bwd
    plan.loss_slot = loss_slot
    plan.leaf_assigns = leaf_assigns
    plan.leaf_guards = leaf_guards
    plan.leaf_ids = frozenset(id(t) for t, _ in leaf_assigns)
    plan.absent = [p for p in wrt if id(p) not in plan.leaf_ids]
    plan.config_epoch = autograd.config_epoch()
    plan.fingerprint = fingerprint
    plan.num_nodes = len(needed)
    plan.num_bwd_thunks = len(bwd)
    return plan


# ----------------------------------------------------------------------
# runner
# ----------------------------------------------------------------------
class TapeRunner:
    """Record-once / replay-forever driver for a training loop.

    One runner owns the gradient arena and a plan cache keyed by the
    caller's step key (e.g. the minibatch index).  ``step`` runs the
    forward closure under recording the first time a key is seen — that
    step is a *normal eager step* — compiles a plan, and replays it on
    every subsequent call whose guards and fingerprint still match.
    Unsupported graphs permanently pin their key to the eager path.
    """

    def __init__(self, wrt: Optional[Sequence[Tensor]] = None,
                 max_plans: int = 256):
        self.wrt: List[Tensor] = list(wrt) if wrt is not None else []
        self.max_plans = int(max_plans)
        self.plans: Dict[object, TapePlan] = {}
        self.unsupported: set = set()
        self.arena: Dict[int, xp.ndarray] = {}
        self._arena_refs: Dict[int, Tensor] = {}
        #: step-scratch buffers shared by every plan of this runner
        self.pool: Dict = {}
        self.replays = 0
        self.records = 0
        self.eager_steps = 0
        self.guard_failures = 0

    # ------------------------------------------------------------------
    def step(self, key, forward_fn: Callable[[], Tensor],
             fingerprint=None) -> float:
        """One training step: forward + backward; returns ``float(loss)``.

        Gradients land on the leaf tensors (``p.grad``); the caller runs
        the optimiser.  Parameters in ``wrt`` that do not participate in
        this step's graph get ``grad = None``, exactly as an eager
        ``optimizer.zero_grad()`` would leave them.
        """
        plan = self.plans.get(key)
        if plan is not None:
            if plan.fingerprint == fingerprint and plan.guards_ok():
                self.replays += 1
                return plan.replay()
            del self.plans[key]
            self.guard_failures += 1
        if key in self.unsupported:
            self.eager_steps += 1
            return self._eager_step(forward_fn)
        return self._record_step(key, forward_fn, fingerprint)

    # ------------------------------------------------------------------
    def _backward_eagerly(self, loss: Tensor) -> float:
        for p in self.wrt:
            p.grad = None
        for t in graph_leaves(loss):
            t.grad = None
        loss.backward()
        return float(loss.data)

    def _eager_step(self, forward_fn: Callable[[], Tensor]) -> float:
        return self._backward_eagerly(forward_fn())

    def _record_step(self, key, forward_fn, fingerprint) -> float:
        tape = Tape()
        with tape.recording():
            loss = forward_fn()
        try:
            plan = compile_plan(tape, loss, self.arena, self._arena_refs,
                                wrt=self.wrt, fingerprint=fingerprint,
                                pool=self.pool)
        except TapeUnsupported:
            self.unsupported.add(key)
            self.eager_steps += 1
            return self._backward_eagerly(loss)
        if len(self.plans) >= self.max_plans:
            self.plans.pop(next(iter(self.plans)))
        self.plans[key] = plan
        self.records += 1
        # the recording step is itself a normal eager step
        return self._backward_eagerly(loss)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        return {"replays": self.replays, "records": self.records,
                "eager_steps": self.eager_steps,
                "guard_failures": self.guard_failures,
                "plans": len(self.plans)}
