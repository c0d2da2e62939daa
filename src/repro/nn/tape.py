"""Autograd tape capture + replay for fixed-shape training steps.

The define-by-run engine in :mod:`repro.nn.autograd` rebuilds the backward
graph — one :class:`~repro.nn.autograd.Tensor` and one DFS visit per op —
on *every* training step, even though the MGA training loop runs the
identical (shape, dtype) graph thousands of times once batch partitions
are frozen.  This module records that graph once and compiles it into a
:class:`TapePlan`: a flat list of forward thunks plus a flat list of VJP
thunks in the exact reverse-topological order eager execution uses,
dispatched with zero per-node Python graph construction.

Replay does not re-implement any operation.  A thunk calls the very
forward or VJP function of the recorded
:class:`~repro.nn.autograd.Primitive`, passing a lease bound to pooled
buffers instead of the eager lease that allocates fresh arrays; numpy's
``out=`` variants compute the same values as the allocating forms, so
replay is bit-identical to eager by construction.  The rest of the
equivalence is scheduling:

* the recording step *is* a normal eager step — recording only notes which
  tensors were produced, in order;
* the backward thunk order is the eager post-order DFS
  (:func:`~repro.nn.autograd.topo_sort`) and each thunk hands its
  contributions to the parents in parent order, so gradient accumulation —
  float addition is commutative but not associative — happens in the same
  order as :meth:`Tensor.backward`;
* data-dependent values inside a step (dropout masks, softmax max-shifts)
  are recomputed by the forward functions from fresh activations (and the
  *captured rng object*, keeping the random stream aligned).

Gradients for graph leaves (parameters and any ``requires_grad`` inputs)
land in preallocated arena buffers owned by the :class:`TapeRunner` and
shared by every plan, so ``id(p.grad)`` is stable across replayed steps and
no per-step ``xp.zeros`` is paid: the first contribution to a buffer is
copied in, later ones are added in place.  Identity-VJP edges (scalar
adds, max-shifts) are fused away entirely: when such a node's parent
receives no other contribution, the parent's gradient slot aliases the
child's and nothing is copied.

Plans carry guards — the global config epoch (bumped by every actual
change made through ``repro.nn.runtime.configure``), leaf array identity, and
an optional caller fingerprint — and fall back to eager re-recording when
any of them fails.  A graph containing a node built with a hand-written
backward closure (:meth:`Tensor._make`) raises :class:`TapeUnsupported`,
permanently pinning that step key to the eager path.
"""

from __future__ import annotations

import contextlib
import functools
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.nn import autograd
from repro.nn.autograd import Tensor, topo_sort
from repro.nn.backend import xp


class TapeUnsupported(RuntimeError):
    """The recorded graph contains a node the tape cannot replay."""


class Tape:
    """Recorder attached to the autograd trace hook: the primitive outputs
    of one step, in execution order."""

    def __init__(self) -> None:
        self.records: List[Tensor] = []
        self.ids: set = set()

    def record(self, out: Tensor) -> None:
        self.records.append(out)
        self.ids.add(id(out))

    @contextlib.contextmanager
    def recording(self) -> Iterator["Tape"]:
        if autograd._TRACE is not None:
            raise RuntimeError("tape recording cannot be nested")
        autograd._TRACE = self
        try:
            yield self
        finally:
            autograd._TRACE = None


class _Ctx:
    """Compile-time state: value/gradient slots and the buffer pool."""

    __slots__ = ("vals", "gv", "_slots", "_gslot", "_pool", "_cursor")

    def __init__(self, pool: Optional[Dict] = None) -> None:
        self.vals: List[Optional[xp.ndarray]] = []
        self.gv: List[Optional[xp.ndarray]] = []
        self._slots: Dict[int, int] = {}
        self._gslot: Dict[int, int] = {}
        self._pool: Dict = pool if pool is not None else {}
        self._cursor: Dict = {}

    def vslot(self, t: Tensor) -> int:
        s = self._slots.get(id(t))
        if s is None:
            s = len(self.vals)
            self._slots[id(t)] = s
            self.vals.append(t.data)
        return s

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

    def scratch(self, shape, dtype, i: int = 0) -> xp.ndarray:
        """Call-local scratch: freely aliased ACROSS thunks and plans.

        Unlike :meth:`buf` there is no occurrence cursor — every request
        for the same (shape, dtype, i) gets the *same* array, so the hot
        footprint stays one call's worth of temporaries no matter how many
        nodes or plans exist (mimicking malloc's recycling of freshly freed
        blocks, without the allocator round-trips).  Only valid for values
        whose lifetime ends with the forward or VJP call that leased them;
        distinguish concurrent uses within one call via ``i``.
        """
        key = (tuple(shape), xp.dtype(dtype).str, i)
        buf = self._pool.get(key)
        if buf is None:
            buf = self._pool[key] = xp.empty(key[0], dtype=xp.dtype(dtype))
        return buf


class _Lease:
    """The lease one replay thunk passes to its forward or VJP function.

    Requests are served from :meth:`_Ctx.buf` / :meth:`_Ctx.scratch` the
    first time and bound by call order, so every later replay of the thunk
    hands out the same arrays without touching the pool.
    """

    __slots__ = ("ctx", "bound", "i")

    def __init__(self, ctx: _Ctx) -> None:
        self.ctx = ctx
        self.bound: List[xp.ndarray] = []
        self.i = 0

    def __call__(self, shape, dtype) -> xp.ndarray:
        i = self.i
        self.i = i + 1
        if i == len(self.bound):
            self.bound.append(self.ctx.buf(shape, dtype))
        return self.bound[i]

    def scratch(self, shape, dtype, i: int = 0) -> xp.ndarray:
        k = self.i
        self.i = k + 1
        if k == len(self.bound):
            self.bound.append(self.ctx.scratch(shape, dtype, i))
        return self.bound[k]

    def array(self, shape, dtype, i: Optional[int] = None) -> xp.ndarray:
        if i is None:
            return self(shape, dtype)
        return self.scratch(shape, dtype, i)


def _is_leaf(t: Tensor) -> bool:
    return t._prim is None and t._backward is None


def graph_leaves(loss: Tensor) -> List[Tensor]:
    """``requires_grad`` leaves (no producing op) reachable from ``loss``."""
    return [t for t in topo_sort(loss) if _is_leaf(t)]


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


def _forward_thunk(node: Tensor, ctx: _Ctx, saved: List) -> Callable[[], None]:
    """Rerun ``node``'s forward function into the plan's leased buffers."""
    fwd, attrs, vals, lease = node._prim.fwd, node._attrs, ctx.vals, _Lease(ctx)
    ins = [ctx.vslot(p) for p in node._parents]
    o = ctx.vslot(node)

    def run():
        lease.i = 0
        vals[o], saved[o] = fwd(lease, *[vals[s] for s in ins], **attrs)
    return run


def _backward_thunk(node: Tensor, ctx: _Ctx, saved: List,
                    sinks: List[Optional[Callable]]) -> Callable[[], None]:
    """Rerun ``node``'s VJP and hand each contribution to its sink."""
    vjp, attrs, vals, gv = node._prim.vjp, node._attrs, ctx.vals, ctx.gv
    lease = _Lease(ctx)
    need = tuple(p.requires_grad for p in node._parents)
    ins = [ctx.vslot(p) for p in node._parents]
    o, gs = ctx.vslot(node), ctx._gslot[id(node)]

    def run():
        lease.i = 0
        grads = vjp(lease, gv[gs], need, vals[o], saved[o],
                    *[vals[s] for s in ins], **attrs)
        for sink, g in zip(sinks, grads):
            if sink is not None:
                sink(g)
    return run


def _copy_to_slot(gv: List, slot: int, buf: xp.ndarray) -> Callable:
    """First write of a contribution that aliases another array: eager
    ``_accumulate`` copies it, replay copies it into a leased buffer."""
    def sink(g):
        xp.copyto(buf, g)
        gv[slot] = buf
    return sink


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
    topo = topo_sort(loss)
    if id(loss) not in tape.ids:
        raise TapeUnsupported("loss tensor was not produced under recording")
    for node in topo:
        if node._prim is None:
            if node._backward is not None:
                raise TapeUnsupported("untraced op in graph (requires_grad "
                                      "tensor with a backward closure)")
        elif id(node) not in tape.ids:
            raise TapeUnsupported("graph node computed outside the "
                                  "recording")
    ops = [node for node in topo if node._prim is not None]

    # value slots for every node and every parent (constants included)
    ctx = _Ctx(pool)
    for node in topo:
        ctx.vslot(node)
    for node in ops:
        for p in node._parents:
            ctx.vslot(p)

    # ---- contribution counting + identity-alias fusion -----------------
    counts: Dict[int, int] = {}
    ident_from: Dict[int, Tensor] = {}
    for node in reversed(ops):
        for p in node._parents:
            if not p.requires_grad:
                continue
            counts[id(p)] = counts.get(id(p), 0) + 1
            if node._prim.identity and p.shape == node.shape:
                ident_from[id(p)] = node
    aliased: Dict[int, Tensor] = {}
    for node in ops:
        if counts.get(id(node)) == 1 and id(node) in ident_from:
            aliased[id(node)] = ident_from[id(node)]

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
    for node in topo:
        if node._prim is not None:
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
    saved: List = [None] * len(ctx.vals)
    needed = {id(n) for n in ops}
    fwd = [_forward_thunk(out, ctx, saved) for out in tape.records
           if id(out) in needed]

    # ---- backward schedule --------------------------------------------
    gv = ctx.gv
    loss_slot = ctx.vslot(loss)
    seed = xp.ones_like(loss.data)
    bwd: List[Callable[[], None]] = [lambda: gv.__setitem__(loss_slot, seed)]
    written = {loss_slot}
    for node in reversed(ops):
        prim = node._prim
        sinks: List[Optional[Callable]] = []
        for p in node._parents:
            if not p.requires_grad or id(p) in aliased:
                sinks.append(None)  # no grad, or fused into this node's slot
                continue
            slot = ctx._gslot[id(p)]
            first = slot not in written
            written.add(slot)
            buf = leaf_slots.get(slot)
            if buf is not None:  # leaf: arena buffer target
                sinks.append(functools.partial(xp.copyto, buf) if first
                             else buf.__iadd__)
            elif not first:
                sinks.append(lambda g, slot=slot: gv[slot].__iadd__(g))
            elif prim.views or (prim.identity and p.shape == node.shape):
                sinks.append(_copy_to_slot(gv, slot, ctx.buf(p.data.shape,
                                                             p.data.dtype)))
            else:
                sinks.append(functools.partial(gv.__setitem__, slot))
        bwd.append(_backward_thunk(node, ctx, saved, sinks))

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
    plan.num_nodes = len(ops)
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
