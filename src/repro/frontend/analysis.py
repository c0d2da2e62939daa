"""Static workload analysis of kernel specs.

:func:`analyze_spec` counts the statement/expression tree of a
:class:`~repro.frontend.spec.KernelSpec` at a concrete input scale and
produces a :class:`WorkloadSummary`: operation counts, memory traffic,
access-pattern mix, branch behaviour and load-imbalance descriptors.
Only the loops' trip counts depend on the scale, so the work is split in
two: a :class:`WorkloadPlan` does the size-free part once per kernel
(expression and access counting, access-pattern classification) and
:meth:`WorkloadPlan.summary` evaluates the trip counts at one scale.  A
caller that analyses one kernel at many scales keeps the plan.  The
performance simulator (:mod:`repro.simulator`) is a pure function of this
summary plus the machine model and runtime configuration — exactly the role
real execution plays in the paper.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.frontend.expr import (
    AccessPattern,
    ArrayRef,
    BinExpr,
    CallExpr,
    CompareExpr,
    ConstExpr,
    Expr,
    LoopVar,
    ScalarRef,
    resolve_extent,
)
from repro.frontend.spec import KernelSpec
from repro.frontend.stmt import Assign, For, If, Reduce, Statement
from repro.ir.types import sizeof


@dataclasses.dataclass
class WorkloadSummary:
    """Aggregate execution counts of one kernel at one input size."""

    kernel: str
    scale: float
    parallel_trip: int
    total_iterations: float
    flops: float
    int_ops: float
    loads: float
    stores: float
    mem_bytes: float
    working_set_bytes: float
    branches: float
    expected_mispredicts: float
    calls: float
    unit_stride_frac: float
    strided_frac: float
    random_frac: float
    invariant_frac: float
    has_reduction: bool
    has_atomic: bool
    imbalance: float
    serial_fraction: float
    loop_depth: int
    serial_advantage: float
    bytes_per_parallel_iter: float

    @property
    def arithmetic_intensity(self) -> float:
        """FLOPs per byte of memory traffic (roofline x-axis)."""
        return self.flops / max(1.0, self.mem_bytes)

    @property
    def work_per_parallel_iter(self) -> float:
        """Abstract work units per iteration of the parallel loop."""
        total_ops = self.flops + self.int_ops + self.loads + self.stores
        return total_ops / max(1, self.parallel_trip)


#: positions of the counted quantities in a plan's count vector; the four
#: access patterns follow, in :class:`AccessPattern` order
_FIELDS = ("flops", "int_ops", "loads", "stores", "branches", "mispredicts",
           "calls", "iters", "mem_bytes")
(_FLOPS, _INT_OPS, _LOADS, _STORES, _BRANCHES, _MISPREDICTS, _CALLS, _ITERS,
 _MEM_BYTES) = range(len(_FIELDS))
_PATTERN = {p: len(_FIELDS) + i for i, p in enumerate(AccessPattern)}
_WIDTH = len(_FIELDS) + len(_PATTERN)


class _Counts:
    """Execution counts of a statement list at one input size."""

    __slots__ = _FIELDS + ("pattern_ops",)

    def __init__(self, vector: Sequence[float]) -> None:
        for name, value in zip(_FIELDS, vector):
            setattr(self, name, value)
        self.pattern_ops: Dict[AccessPattern, float] = {
            p: vector[k] for p, k in _PATTERN.items()}


# math intrinsics cost several FP operations each; this matches the relative
# weights used by classical roofline analyses
_CALL_FLOP_COST = {"sqrt": 4.0, "exp": 8.0, "log": 8.0, "sin": 8.0, "cos": 8.0,
                   "pow": 12.0, "fabs": 1.0, "min": 1.0, "max": 1.0}


# ----------------------------------------------------------------------
# compilation: everything that does not depend on the input size
# ----------------------------------------------------------------------
def _count_expr(expr: Expr, out: List[Tuple[int, float]],
                innermost: Optional[LoopVar]) -> None:
    """Append the increments one evaluation of ``expr`` adds, in order."""
    if isinstance(expr, ConstExpr) or isinstance(expr, ScalarRef):
        return
    if isinstance(expr, LoopVar):
        out.append((_INT_OPS, 0.25))  # induction arithmetic mostly strength-reduced
        return
    if isinstance(expr, ArrayRef):
        _count_array_access(expr, out, innermost, is_store=False)
        return
    if isinstance(expr, BinExpr):
        _count_expr(expr.lhs, out, innermost)
        _count_expr(expr.rhs, out, innermost)
        if expr.dtype.value in ("double", "float"):
            out.append((_FLOPS, 1.0))
        else:
            out.append((_INT_OPS, 1.0))
        return
    if isinstance(expr, CompareExpr):
        _count_expr(expr.lhs, out, innermost)
        _count_expr(expr.rhs, out, innermost)
        out.append((_INT_OPS, 1.0))
        return
    if isinstance(expr, CallExpr):
        # math intrinsics are inlined vector sequences, not dynamic calls;
        # they contribute FLOPs only (the calls count tracks real call flow)
        for arg in expr.args:
            _count_expr(arg, out, innermost)
        out.append((_FLOPS, _CALL_FLOP_COST.get(expr.func, 4.0)))
        return
    raise TypeError(f"unknown expression node {expr!r}")


def _count_array_access(ref: ArrayRef, out: List[Tuple[int, float]],
                        innermost: Optional[LoopVar], is_store: bool) -> None:
    out.append((_PATTERN[ref.access_pattern(innermost)], 1.0))
    out.append((_MEM_BYTES, sizeof(ref.array.dtype)))
    out.append((_STORES if is_store else _LOADS, 1.0))
    # indirect accesses load the index array too
    for idx in ref.indices:
        if hasattr(idx, "array"):  # IndirectIndex
            out.append((_LOADS, 1.0))
            out.append((_MEM_BYTES, sizeof(idx.array.dtype)))
            out.append((_PATTERN[AccessPattern.UNIT_STRIDE], 1.0))
    # address arithmetic
    out.append((_INT_OPS, max(0, ref.array.rank - 1)))


#: the kinds of a compiled block's steps (see :class:`_Block`)
_ADD, _LOOP, _WEIGHTED = "add", "loop", "weighted"


class _Block:
    """A compiled statement list: its counts from zero, then its steps.

    ``start`` holds the counts of the leading statements that contain no
    ``For``: they do not depend on the input size, so they are summed once.
    Each step replays, in the walk's order, the float operations the
    counting walk performs for the statements after them:

    * ``(_ADD, increments)``: ``(field, value)`` additions, in order;
    * ``(_LOOP, for_stmt, body)``: the loop's trip count times the body's
      counts, then its back-edge branches and induction increments;
    * ``(_WEIGHTED, block, weight)``: one ``If`` branch that contains a
      loop, weighted by its probability.

    Evaluating the steps performs the walk's additions and products in the
    walk's order, so the counts are the walk's, bit for bit.  Adding a
    zero is skipped: every count is non-negative, so it changes nothing.
    """

    __slots__ = ("start", "steps")

    def __init__(self) -> None:
        self.start: List[float] = [0.0] * _WIDTH
        self.steps: List[tuple] = []

    def add(self, increments: List[Tuple[int, float]]) -> None:
        increments = [(k, v) for k, v in increments if v]
        if not self.steps:
            for k, v in increments:
                self.start[k] += v
        elif self.steps[-1][0] is _ADD:
            self.steps[-1][1].extend(increments)
        elif increments:
            self.steps.append((_ADD, increments))

    def evaluate(self, sizes: Dict[str, int], parallel: Optional[For],
                 found: List[Tuple[List[float], float]]) -> List[float]:
        """The counts at ``sizes``; appends to ``found`` the body counts
        and trip count of every evaluation of the loop ``parallel``."""
        counts = list(self.start)
        for step in self.steps:
            kind = step[0]
            if kind is _ADD:
                for k, v in step[1]:
                    counts[k] += v
            elif kind is _LOOP:
                loop = step[1]
                trip = float(resolve_extent(loop.extent, sizes))
                body = step[2].evaluate(sizes, parallel, found)
                if loop is parallel:
                    found.append((body, trip))
                _add_loop(counts, body, trip)
            else:
                weight = step[2]
                branch = step[1].evaluate(sizes, parallel, found)
                for k in range(_WIDTH):
                    counts[k] += branch[k] * weight
        return counts


def _add_loop(counts: List[float], body: List[float], trip: float) -> None:
    """Add ``trip`` iterations of a loop whose body counts are ``body``."""
    for k in range(_WIDTH):
        counts[k] += body[k] * trip
    counts[_BRANCHES] += trip           # loop back-edge compare+branch
    counts[_INT_OPS] += trip            # induction increment
    iters = body[_ITERS]
    counts[_ITERS] += trip * max(1.0, iters or 1.0) if iters else trip


def _compile(statements: Sequence[Statement],
             innermost: Optional[LoopVar]) -> _Block:
    block = _Block()
    for stmt in statements:
        increments: List[Tuple[int, float]] = []
        if isinstance(stmt, (Assign, Reduce)):
            _count_expr(stmt.expr, increments, innermost)
            if isinstance(stmt, Reduce):
                increments.append((_FLOPS, 1.0))  # the accumulate itself
                if isinstance(stmt.target, ArrayRef):
                    _count_array_access(stmt.target, increments, innermost,
                                        is_store=False)
            if isinstance(stmt.target, ArrayRef):
                _count_array_access(stmt.target, increments, innermost,
                                    is_store=True)
            block.add(increments)
        elif isinstance(stmt, If):
            _count_expr(stmt.cond, increments, innermost)
            increments.append((_BRANCHES, 1.0))
            p = stmt.taken_probability
            increments.append((_MISPREDICTS, 2.0 * p * (1.0 - p)))  # entropy-like proxy
            then = _compile(stmt.then, innermost)
            orelse = _compile(stmt.orelse, innermost)
            if then.steps or orelse.steps:
                block.add(increments)
                block.steps.append((_WEIGHTED, then, p))
                block.steps.append((_WEIGHTED, orelse, 1.0 - p))
            else:
                weight = 1.0 - p
                increments.extend((k, v * p) for k, v in enumerate(then.start))
                increments.extend((k, v * weight)
                                  for k, v in enumerate(orelse.start))
                block.add(increments)
        elif isinstance(stmt, For):
            block.steps.append(
                (_LOOP, stmt, _compile(stmt.body, _innermost_var(stmt))))
        else:
            raise TypeError(f"unknown statement {stmt!r}")
    return block


def _innermost_var(loop: For) -> LoopVar:
    inner = loop.inner_loops()
    if inner:
        return _innermost_var(inner[-1])
    return loop.var


def _count_statements(statements: Sequence[Statement], sizes: Dict[str, int],
                      innermost: Optional[LoopVar]) -> _Counts:
    """The execution counts of ``statements`` at ``sizes``."""
    return _Counts(_compile(statements, innermost).evaluate(sizes, None, []))


def _work(counts: List[float]) -> float:
    return (counts[_FLOPS] + counts[_INT_OPS] + counts[_LOADS]
            + counts[_STORES] + 1e-9)


class WorkloadPlan:
    """One kernel's workload analysis, compiled once for every input size.

    The input size enters the analysis only through the loops' trip counts.
    Expression and access counting, access-pattern classification and the
    size-free descriptors are done once, here; :meth:`summary` evaluates
    the trip counts at one scale and replays the counting walk's float
    operations in its order, so it returns the same
    :class:`WorkloadSummary` the walk would, bit for bit.  A plan holds no
    per-scale state and can be shared between threads.
    """

    def __init__(self, spec: KernelSpec):
        self.spec = spec
        self._body = _compile(spec.body, None)
        self.parallel = spec.parallel_loop
        self.imbalance = (self.parallel.imbalance if self.parallel is not None
                          else 0.0)
        self.has_reduction = any(isinstance(s, Reduce)
                                 for s in _walk_all(spec.body))
        self.has_atomic = any(
            isinstance(s, Reduce) and isinstance(s.target, ArrayRef)
            and s.target.is_indirect for s in _walk_all(spec.body))
        self.loop_depth = spec.loop_depth

    def summary(self, scale: float = 1.0) -> WorkloadSummary:
        """The workload summary of the kernel at input scale ``scale``."""
        spec = self.spec
        sizes = spec.dim_sizes(scale)
        found: List[Tuple[List[float], float]] = []
        counts = self._body.evaluate(sizes, self.parallel, found)
        patterns = [counts[k] for k in _PATTERN.values()]
        pattern_total = sum(patterns) or 1.0
        if self.parallel is None:
            parallel_trip, serial_fraction = 1, 1.0
        else:
            parallel_trip = resolve_extent(self.parallel.extent, sizes)
            # the parallel loop's own counts, as a walk of [parallel] sums
            # them: its body counts, taken from the walk above
            par = [0.0] * _WIDTH
            _add_loop(par, *found[0])
            serial_fraction = max(0.0, min(1.0, 1.0 - _work(par)
                                           / _work(counts)))
        mem_bytes = counts[_MEM_BYTES]
        unit, strided, random, invariant = patterns
        return WorkloadSummary(
            kernel=spec.uid,
            scale=scale,
            parallel_trip=parallel_trip,
            total_iterations=max(counts[_ITERS], 1.0),
            flops=counts[_FLOPS],
            int_ops=counts[_INT_OPS],
            loads=counts[_LOADS],
            stores=counts[_STORES],
            mem_bytes=mem_bytes,
            working_set_bytes=float(sum(a.size_bytes(sizes)
                                        for a in spec.arrays)),
            branches=counts[_BRANCHES],
            expected_mispredicts=counts[_MISPREDICTS],
            calls=counts[_CALLS],
            unit_stride_frac=unit / pattern_total,
            strided_frac=strided / pattern_total,
            random_frac=random / pattern_total,
            invariant_frac=invariant / pattern_total,
            has_reduction=self.has_reduction,
            has_atomic=self.has_atomic,
            imbalance=self.imbalance,
            serial_fraction=serial_fraction,
            loop_depth=self.loop_depth,
            serial_advantage=spec.serial_advantage,
            bytes_per_parallel_iter=mem_bytes / max(1, parallel_trip),
        )


def analyze_spec(spec: KernelSpec, scale: float = 1.0) -> WorkloadSummary:
    """Compute the workload summary of ``spec`` at input scale ``scale``."""
    return WorkloadPlan(spec).summary(scale)


def _walk_all(statements: Sequence[Statement]):
    for stmt in statements:
        yield from stmt.walk()
