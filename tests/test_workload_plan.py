"""The compiled workload plan against the counting walk it replaced, and
the serving path's shared profiler and kernel table against fresh ones.

The oracle below is the statement walk ``repro.frontend.analysis`` ran
before it compiled kernels into plans, copied verbatim apart from its entry
point's name.  A plan must give a byte-equal :class:`WorkloadSummary`: the
counters it feeds reach the model, so a last-bit difference could change an
answer.
"""

import random
from typing import Dict, Optional, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend.analysis import (
    WorkloadPlan,
    WorkloadSummary,
    analyze_spec,
)
from repro.frontend.expr import (
    AccessPattern,
    Array,
    ArrayRef,
    BinExpr,
    CallExpr,
    CompareExpr,
    ConstExpr,
    Dim,
    Expr,
    IndirectIndex,
    LoopVar,
    Scalar,
    ScalarRef,
    resolve_extent,
)
from repro.frontend.openmp import default_omp_config
from repro.frontend.spec import KernelSpec, ParallelModel
from repro.frontend.stmt import Assign, For, If, Reduce, Statement
from repro.ir.types import DataType, sizeof
from repro.kernels import registry
from repro.profiling import PAPIProfiler
from repro.serve import service as service_module
from repro.serve.service import resolve_kernel
from repro.simulator.microarch import COMET_LAKE_8C
from repro.simulator.openmp import OpenMPSimulator


# ----------------------------------------------------------------------
# oracle: the counting walk, verbatim
# ----------------------------------------------------------------------
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


def walk_spec(spec: KernelSpec, scale: float = 1.0) -> WorkloadSummary:
    """The summary as the three-walk analysis computed it."""
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


# ----------------------------------------------------------------------
# generated kernels: every statement and expression kind, ``If`` branches
# with and without loops, statements after loops, any parallel placement
# ----------------------------------------------------------------------
N, M = Dim("N"), Dim("M")
EXTENTS = [N, M, N - 1, N // 2, M + 3, N.scaled(0.37), 7, 1, 0]
ARRAYS = [Array("A", [N, M]), Array("B", [M], DataType.F32),
          Array("C", [N, N, M]), Array("K", [N], DataType.I32)]
INDEX = Array("idx", [N], DataType.I32)
SCALARS = [Scalar("alpha"), Scalar("count", 3, DataType.I64)]
PROBABILITIES = st.sampled_from([0.0, 1.0, 0.5]) | st.floats(0.0, 1.0)


@st.composite
def _index(draw, loop_vars):
    kinds = ["const"] + (["var", "shifted", "scaled", "indirect"]
                         if loop_vars else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "const":
        return draw(st.integers(0, 3))
    var = draw(st.sampled_from(loop_vars))
    if kind == "var":
        return var
    if kind == "shifted":
        return var + draw(st.integers(-2, 2))
    if kind == "scaled":
        return draw(st.integers(2, 3)) * var
    return IndirectIndex(INDEX, var)


@st.composite
def _array_ref(draw, loop_vars):
    array = draw(st.sampled_from(ARRAYS))
    return ArrayRef(array, [draw(_index(loop_vars))
                            for _ in range(array.rank)])


@st.composite
def _expr(draw, loop_vars, depth=0):
    kinds = ["const_int", "const_float", "scalar", "array"]
    if loop_vars:
        kinds.append("var")
    if depth < 3:
        kinds += ["bin", "bin", "call"]
    kind = draw(st.sampled_from(kinds))
    if kind == "const_int":
        return ConstExpr(draw(st.integers(0, 9)))
    if kind == "const_float":
        return ConstExpr(draw(st.floats(-4.0, 4.0)))
    if kind == "scalar":
        return ScalarRef(draw(st.sampled_from(SCALARS)))
    if kind == "array":
        return draw(_array_ref(loop_vars))
    if kind == "var":
        return draw(st.sampled_from(loop_vars))
    if kind == "bin":
        return BinExpr(draw(st.sampled_from(BinExpr.OPS)),
                       draw(_expr(loop_vars, depth + 1)),
                       draw(_expr(loop_vars, depth + 1)))
    func = draw(st.sampled_from(CallExpr.FUNCTIONS))
    arity = 2 if func in ("pow", "min", "max") else 1
    return CallExpr(func, *[draw(_expr(loop_vars, depth + 1))
                            for _ in range(arity)])


@st.composite
def _statements(draw, loop_vars, depth, names):
    body = []
    for _ in range(draw(st.integers(1 if depth else 0, 3))):
        kinds = ["assign", "reduce"]
        if depth < 3:
            kinds += ["for", "for", "if"]
        kind = draw(st.sampled_from(kinds))
        if kind in ("assign", "reduce"):
            target = (draw(_array_ref(loop_vars)) if draw(st.booleans())
                      else draw(st.sampled_from(SCALARS)))
            expr = draw(_expr(loop_vars))
            body.append(Assign(target, expr) if kind == "assign" else
                        Reduce(target, expr,
                               draw(st.sampled_from(Reduce.OPS))))
        elif kind == "for":
            var = LoopVar(f"v{next(names)}")
            body.append(For(var, draw(st.sampled_from(EXTENTS)),
                            draw(_statements(loop_vars + [var], depth + 1,
                                             names)),
                            parallel=draw(st.booleans()),
                            imbalance=draw(st.floats(0.0, 1.0))))
        else:
            cond = CompareExpr(draw(st.sampled_from(CompareExpr.OPS)),
                               draw(_expr(loop_vars, 2)),
                               draw(_expr(loop_vars, 2)))
            body.append(If(cond,
                           draw(_statements(loop_vars, depth + 1, names)),
                           draw(_statements(loop_vars, depth + 1, names))
                           if draw(st.booleans()) else (),
                           taken_probability=draw(PROBABILITIES)))
    return body


@st.composite
def generated_specs(draw):
    names = iter(range(10 ** 6))
    body = draw(_statements([], 0, names))
    probe = KernelSpec("probe", "gen", ARRAYS, body, {"N": 2, "M": 2},
                       model=ParallelModel.SERIAL)
    model = (ParallelModel.SERIAL if probe.parallel_loop is None
             else draw(st.sampled_from([ParallelModel.OPENMP,
                                        ParallelModel.OPENCL])))
    return KernelSpec("k", "gen", ARRAYS + [INDEX], body,
                      {"N": draw(st.integers(2, 3000)),
                       "M": draw(st.integers(2, 3000))},
                      scalars=SCALARS, model=model,
                      serial_advantage=draw(st.sampled_from([1.0, 1.7])))


SCALES = st.sampled_from([0.01, 0.5, 1.0, 3.0, 300.0]) \
    | st.floats(1e-3, 500.0)
KERNELS = registry.openmp_kernels() + registry.opencl_kernels()
BRANCHY = [spec for spec in KERNELS
           if any(isinstance(s, If) for s in _walk_all(spec.body))]


def _same(summary: WorkloadSummary, oracle: WorkloadSummary) -> bool:
    return repr(summary) == repr(oracle)


class TestWorkloadPlan:
    def test_branchy_registry_kernels_exist(self):
        """The registry exercises ``If``, including loops inside one."""
        assert any(spec.suite == "rodinia" for spec in BRANCHY)
        assert any(isinstance(s, For) for spec in BRANCHY
                   for top in _walk_all(spec.body) if isinstance(top, If)
                   for s in top.walk())

    @given(st.sampled_from(KERNELS), SCALES)
    @settings(max_examples=150, deadline=None)
    def test_registry_kernels_match_the_walk(self, spec, scale):
        assert _same(analyze_spec(spec, scale), walk_spec(spec, scale))

    @given(st.sampled_from(BRANCHY), SCALES)
    @settings(max_examples=60, deadline=None)
    def test_branchy_kernels_match_the_walk(self, spec, scale):
        assert _same(analyze_spec(spec, scale), walk_spec(spec, scale))

    @given(generated_specs(), st.lists(SCALES, min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_generated_kernels_match_the_walk(self, spec, scales):
        plan = WorkloadPlan(spec)
        for scale in scales:
            assert _same(plan.summary(scale), walk_spec(spec, scale))

    @given(generated_specs(), SCALES)
    @settings(max_examples=60, deadline=None)
    def test_count_statements_matches_the_walk(self, spec, scale):
        from repro.frontend.analysis import _count_statements as counted
        sizes = spec.dim_sizes(scale)
        new = counted(spec.body, sizes, None)
        old = _count_statements(spec.body, sizes, None)
        for name in _Counts.__slots__:
            assert repr(getattr(new, name)) == repr(getattr(old, name))

    def test_one_plan_serves_every_scale(self):
        """A plan holds no per-scale state: any order, same summaries."""
        spec = registry.get_kernel("rodinia/kmeans")
        plan = WorkloadPlan(spec)
        scales = [0.1 * i for i in range(1, 30)]
        forward = [repr(plan.summary(s)) for s in scales]
        backward = [repr(plan.summary(s)) for s in reversed(scales)]
        assert forward == backward[::-1]
        assert forward == [repr(walk_spec(spec, s)) for s in scales]


# ----------------------------------------------------------------------
# one profiler per engine, one spec per worker
# ----------------------------------------------------------------------
class TestSharedProfiler:
    def test_shuffled_requests_match_a_fresh_stream_per_call(self):
        """One profiler, plans and any request order give the counters a
        fresh seed-0 simulator gives each request, as a fresh profiler
        per request used to."""
        specs = registry.openmp_kernels()[::5]
        requests = [(spec, scale) for spec in specs
                    for scale in (0.3, 1.0, 2.5)]
        random.Random(11).shuffle(requests)
        config = default_omp_config(COMET_LAKE_8C.cores)
        shared = PAPIProfiler(COMET_LAKE_8C)
        plans = {spec.uid: WorkloadPlan(spec) for spec in specs}
        for spec, scale in requests:
            fresh = OpenMPSimulator(COMET_LAKE_8C, noise=0.015,
                                    seed=0).run(walk_spec(spec, scale),
                                                config)
            reused = shared.profile(plans[spec.uid].summary(scale),
                                    scale=scale, config=config)
            assert repr(reused.time_seconds) == repr(fresh.time_seconds)
            assert repr(reused.counters) == repr(fresh.counters)
            assert reused.kernel == spec.uid

    def test_profile_many_applies_one_draw_to_the_whole_grid(self,
                                                             gemm_spec):
        """A seeded grid takes the same noise at every point: each record is
        a fresh seed-0 run, and the time factor over the noiseless run is
        the same for every (scale, config)."""
        scales = (0.5, 1.0, 2.0)
        configs = [default_omp_config(COMET_LAKE_8C.cores),
                   default_omp_config(2)]
        records = PAPIProfiler(COMET_LAKE_8C).profile_many(
            gemm_spec, scales, configs)
        quiet = OpenMPSimulator(COMET_LAKE_8C, noise=0.0)
        factors = set()
        for record, (scale, config) in zip(
                records, [(s, c) for s in scales for c in configs]):
            fresh = OpenMPSimulator(COMET_LAKE_8C, noise=0.015,
                                    seed=0).run(gemm_spec, config, scale)
            assert repr(record.time_seconds) == repr(fresh.time_seconds)
            assert repr(record.counters) == repr(fresh.counters)
            factors.add(record.time_seconds
                        / quiet.run(gemm_spec, config, scale).time_seconds)
        assert len(records) == 6
        assert max(factors) - min(factors) < 1e-12
        assert abs(min(factors) - 1.0) > 1e-6

    def test_unseeded_profiler_draws_fresh_noise(self, gemm_spec):
        profiler = PAPIProfiler(COMET_LAKE_8C, seed=None)
        first = profiler.profile(gemm_spec)
        assert first.counters != profiler.profile(gemm_spec).counters


class TestResolveKernel:
    def test_one_spec_per_uid(self):
        assert resolve_kernel("polybench/gemm") is \
            resolve_kernel("polybench/gemm")

    def test_unknown_uid_raises_and_stores_nothing(self):
        before = dict(service_module._KERNELS)
        for uid in ("polybench/no-such-kernel", "nosuite/gemm", "gemm", ""):
            with pytest.raises(KeyError):
                resolve_kernel(uid)
        assert service_module._KERNELS == before
