"""Static workload analysis of kernel specs.

:func:`analyze_spec` walks the statement/expression tree of a
:class:`~repro.frontend.spec.KernelSpec` at a concrete input scale and
produces a :class:`WorkloadSummary`: operation counts, memory traffic,
access-pattern mix, branch behaviour and load-imbalance descriptors.  The
performance simulator (:mod:`repro.simulator`) is a pure function of this
summary plus the machine model and runtime configuration — exactly the role
real execution plays in the paper.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence

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


class _Counts:
    """Mutable accumulator used during the walk."""

    __slots__ = ("flops", "int_ops", "loads", "stores", "branches",
                 "mispredicts", "calls", "iters", "pattern_ops", "mem_bytes")

    def __init__(self) -> None:
        self.flops = 0.0
        self.int_ops = 0.0
        self.loads = 0.0
        self.stores = 0.0
        self.branches = 0.0
        self.mispredicts = 0.0
        self.calls = 0.0
        self.iters = 0.0
        self.mem_bytes = 0.0
        self.pattern_ops: Dict[AccessPattern, float] = {p: 0.0 for p in AccessPattern}

    def add(self, other: "_Counts", weight: float = 1.0) -> None:
        self.flops += other.flops * weight
        self.int_ops += other.int_ops * weight
        self.loads += other.loads * weight
        self.stores += other.stores * weight
        self.branches += other.branches * weight
        self.mispredicts += other.mispredicts * weight
        self.calls += other.calls * weight
        self.iters += other.iters * weight
        self.mem_bytes += other.mem_bytes * weight
        for p, v in other.pattern_ops.items():
            self.pattern_ops[p] += v * weight


# math intrinsics cost several FP operations each; this matches the relative
# weights used by classical roofline analyses
_CALL_FLOP_COST = {"sqrt": 4.0, "exp": 8.0, "log": 8.0, "sin": 8.0, "cos": 8.0,
                   "pow": 12.0, "fabs": 1.0, "min": 1.0, "max": 1.0}


def _count_expr(expr: Expr, counts: _Counts, innermost: Optional[LoopVar]) -> None:
    if isinstance(expr, ConstExpr) or isinstance(expr, ScalarRef):
        return
    if isinstance(expr, LoopVar):
        counts.int_ops += 0.25  # induction arithmetic mostly strength-reduced
        return
    if isinstance(expr, ArrayRef):
        _count_array_access(expr, counts, innermost, is_store=False)
        return
    if isinstance(expr, BinExpr):
        _count_expr(expr.lhs, counts, innermost)
        _count_expr(expr.rhs, counts, innermost)
        if expr.dtype.value in ("double", "float"):
            counts.flops += 1.0
        else:
            counts.int_ops += 1.0
        return
    if isinstance(expr, CompareExpr):
        _count_expr(expr.lhs, counts, innermost)
        _count_expr(expr.rhs, counts, innermost)
        counts.int_ops += 1.0
        return
    if isinstance(expr, CallExpr):
        # math intrinsics are inlined vector sequences, not dynamic calls;
        # they contribute FLOPs only (counts.calls tracks real call flow)
        for arg in expr.args:
            _count_expr(arg, counts, innermost)
        counts.flops += _CALL_FLOP_COST.get(expr.func, 4.0)
        return
    raise TypeError(f"unknown expression node {expr!r}")


def _count_array_access(ref: ArrayRef, counts: _Counts,
                        innermost: Optional[LoopVar], is_store: bool) -> None:
    elem = sizeof(ref.array.dtype)
    pattern = ref.access_pattern(innermost)
    counts.pattern_ops[pattern] += 1.0
    counts.mem_bytes += elem
    if is_store:
        counts.stores += 1.0
    else:
        counts.loads += 1.0
    # indirect accesses load the index array too
    for idx in ref.indices:
        if hasattr(idx, "array"):  # IndirectIndex
            counts.loads += 1.0
            counts.mem_bytes += sizeof(idx.array.dtype)
            counts.pattern_ops[AccessPattern.UNIT_STRIDE] += 1.0
    # address arithmetic
    counts.int_ops += max(0, ref.array.rank - 1)


def _count_statements(statements: Sequence[Statement], sizes: Dict[str, int],
                      innermost: Optional[LoopVar]) -> _Counts:
    counts = _Counts()
    for stmt in statements:
        if isinstance(stmt, (Assign, Reduce)):
            _count_expr(stmt.expr, counts, innermost)
            if isinstance(stmt, Reduce):
                counts.flops += 1.0  # the accumulate itself
                if isinstance(stmt.target, ArrayRef):
                    _count_array_access(stmt.target, counts, innermost,
                                        is_store=False)
            if isinstance(stmt.target, ArrayRef):
                _count_array_access(stmt.target, counts, innermost, is_store=True)
        elif isinstance(stmt, If):
            _count_expr(stmt.cond, counts, innermost)
            counts.branches += 1.0
            p = stmt.taken_probability
            counts.mispredicts += 2.0 * p * (1.0 - p)  # entropy-like proxy
            then_counts = _count_statements(stmt.then, sizes, innermost)
            else_counts = _count_statements(stmt.orelse, sizes, innermost)
            counts.add(then_counts, p)
            counts.add(else_counts, 1.0 - p)
        elif isinstance(stmt, For):
            trip = resolve_extent(stmt.extent, sizes)
            inner_var = _innermost_var(stmt)
            body_counts = _count_statements(stmt.body, sizes, inner_var)
            counts.add(body_counts, float(trip))
            counts.branches += float(trip)          # loop back-edge compare+branch
            counts.int_ops += float(trip)           # induction increment
            counts.iters += float(trip) * max(1.0, body_counts.iters or 1.0) \
                if body_counts.iters else float(trip)
        else:
            raise TypeError(f"unknown statement {stmt!r}")
    return counts


def _innermost_var(loop: For) -> LoopVar:
    inner = loop.inner_loops()
    if inner:
        return _innermost_var(inner[-1])
    return loop.var


def _serial_fraction(spec: KernelSpec, sizes: Dict[str, int],
                     total: _Counts) -> float:
    """Fraction of ``total`` (the counts of ``spec.body``) that is outside
    the parallel loop."""
    parallel = spec.parallel_loop
    if parallel is None:
        return 1.0
    par = _count_statements([parallel], sizes, None)

    def work(c: _Counts) -> float:
        return c.flops + c.int_ops + c.loads + c.stores + 1e-9

    return max(0.0, min(1.0, 1.0 - work(par) / work(total)))


def analyze_spec(spec: KernelSpec, scale: float = 1.0) -> WorkloadSummary:
    """Compute the workload summary of ``spec`` at input scale ``scale``."""
    sizes = spec.dim_sizes(scale)
    counts = _count_statements(spec.body, sizes, None)
    pattern_total = sum(counts.pattern_ops.values()) or 1.0
    parallel = spec.parallel_loop
    parallel_trip = spec.parallel_trip_count(scale)
    imbalance = parallel.imbalance if parallel is not None else 0.0
    has_reduction = any(isinstance(s, Reduce) for s in _walk_all(spec.body))
    has_atomic = any(
        isinstance(s, Reduce) and isinstance(s.target, ArrayRef) and s.target.is_indirect
        for s in _walk_all(spec.body)
    )
    mem_bytes = counts.mem_bytes
    return WorkloadSummary(
        kernel=spec.uid,
        scale=scale,
        parallel_trip=parallel_trip,
        total_iterations=max(counts.iters, 1.0),
        flops=counts.flops,
        int_ops=counts.int_ops,
        loads=counts.loads,
        stores=counts.stores,
        mem_bytes=mem_bytes,
        working_set_bytes=float(spec.working_set_bytes(scale)),
        branches=counts.branches,
        expected_mispredicts=counts.mispredicts,
        calls=counts.calls,
        unit_stride_frac=counts.pattern_ops[AccessPattern.UNIT_STRIDE] / pattern_total,
        strided_frac=counts.pattern_ops[AccessPattern.STRIDED] / pattern_total,
        random_frac=counts.pattern_ops[AccessPattern.RANDOM] / pattern_total,
        invariant_frac=counts.pattern_ops[AccessPattern.INVARIANT] / pattern_total,
        has_reduction=has_reduction,
        has_atomic=has_atomic,
        imbalance=imbalance,
        serial_fraction=_serial_fraction(spec, sizes, counts),
        loop_depth=spec.loop_depth,
        serial_advantage=spec.serial_advantage,
        bytes_per_parallel_iter=mem_bytes / max(1, parallel_trip),
    )


def _walk_all(statements: Sequence[Statement]):
    for stmt in statements:
        yield from stmt.walk()
