"""Workload analysis and IR lowering tests."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend import analyze_spec, lower_to_ir
from repro.frontend.analysis import _count_statements
from repro.frontend.openmp import OMPConfig, OMPSchedule, default_omp_config
from repro.frontend.opencl import NDRange, OpenCLKernelInstance
from repro.frontend.spec import ParallelModel
from repro.ir import Opcode
from repro.kernels import registry


class TestWorkloadAnalysis:
    def test_gemm_counts_scale_cubically(self, gemm_spec):
        w1 = analyze_spec(gemm_spec, 0.5)
        w2 = analyze_spec(gemm_spec, 1.0)
        ratio = w2.flops / max(w1.flops, 1.0)
        assert 6.0 < ratio < 10.0      # ~2^3

    def test_access_pattern_fractions_sum_to_one(self, small_specs):
        for spec in small_specs:
            w = analyze_spec(spec, 1.0)
            total = (w.unit_stride_frac + w.strided_frac + w.random_frac
                     + w.invariant_frac)
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_irregular_kernel_has_random_accesses(self, bfs_spec, gemm_spec):
        assert analyze_spec(bfs_spec, 1.0).random_frac > 0.0
        assert analyze_spec(gemm_spec, 1.0).random_frac == pytest.approx(0.0)

    def test_reduction_and_atomic_flags(self):
        hist = registry.get_kernel("dataracebench/DRB093")
        red = registry.get_kernel("dataracebench/DRB061")
        w_hist = analyze_spec(hist, 1.0)
        w_red = analyze_spec(red, 1.0)
        assert w_hist.has_atomic and w_hist.has_reduction
        assert w_red.has_reduction and not w_red.has_atomic

    def test_serial_fraction_bounds(self, small_specs):
        for spec in small_specs:
            w = analyze_spec(spec, 1.0)
            assert 0.0 <= w.serial_fraction < 1.0

    def test_trisolv_keeps_serial_advantage(self):
        w = analyze_spec(registry.get_kernel("polybench/trisolv"), 1.0)
        assert w.serial_advantage > 1.0

    def test_summary_matches_the_two_walk_serial_fraction(self):
        """``analyze_spec`` reuses its body counts for the serial fraction;
        the oracle walks the body a second time, as it used to."""
        def serial_fraction(spec, scale):
            sizes = spec.dim_sizes(scale)
            if spec.parallel_loop is None:
                return 1.0

            def work(statements):
                counts = _count_statements(statements, sizes, None)
                return (counts.flops + counts.int_ops + counts.loads
                        + counts.stores + 1e-9)

            return max(0.0, min(1.0, 1.0 - work([spec.parallel_loop])
                                / work(spec.body)))

        scales = (0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 10.0, 50.0,
                  300.0)
        specs = registry.openmp_kernels() + registry.opencl_kernels()
        for spec in specs:
            for scale in scales:
                summary = analyze_spec(spec, scale)
                oracle = dataclasses.replace(
                    summary, serial_fraction=serial_fraction(spec, scale))
                assert repr(dataclasses.astuple(summary)) == \
                    repr(dataclasses.astuple(oracle)), (spec.uid, scale)

    @given(st.floats(0.05, 4.0))
    @settings(max_examples=20, deadline=None)
    def test_working_set_monotone_in_scale(self, scale):
        spec = registry.get_kernel("stream/triad")
        w_small = analyze_spec(spec, scale)
        w_big = analyze_spec(spec, scale * 2)
        assert w_big.working_set_bytes >= w_small.working_set_bytes
        assert w_big.flops >= w_small.flops


class TestLowering:
    def test_all_registry_kernels_lower_and_verify(self):
        for spec in registry.all_kernels():
            module = lower_to_ir(spec)          # verify=True raises on errors
            assert module.num_instructions() > 5

    def test_openmp_structure(self, gemm_spec):
        module = lower_to_ir(gemm_spec)
        names = {f.name for f in module.functions}
        assert "gemm.omp_outlined" in names and "gemm_main" in names
        opcodes = {i.opcode for i in module.instructions()}
        assert Opcode.OMP_FORK in opcodes
        assert Opcode.PHI in opcodes and Opcode.GEP in opcodes

    def test_opencl_structure(self):
        spec = registry.get_kernel("polybench/gemm", model=ParallelModel.OPENCL)
        module = lower_to_ir(spec)
        opcodes = {i.opcode for i in module.instructions()}
        assert Opcode.GET_GLOBAL_ID in opcodes
        assert Opcode.OMP_FORK not in opcodes

    def test_atomic_lowering(self):
        spec = registry.get_kernel("dataracebench/DRB093")
        module = lower_to_ir(spec)
        opcodes = [i.opcode for i in module.instructions()]
        assert Opcode.ATOMIC_ADD in opcodes

    def test_branchy_kernel_has_conditionals(self):
        spec = registry.get_kernel("rodinia/particlefilter")
        module = lower_to_ir(spec)
        opcodes = [i.opcode for i in module.instructions()]
        assert Opcode.CONDBR in opcodes and Opcode.FCMP in opcodes


class TestRuntimeConfigs:
    def test_omp_config_validation(self):
        with pytest.raises(ValueError):
            OMPConfig(0)
        with pytest.raises(ValueError):
            OMPConfig(4, chunk_size=0)

    def test_effective_chunk(self):
        static = OMPConfig(4, OMPSchedule.STATIC, None)
        assert static.effective_chunk(100) == 25
        dynamic = OMPConfig(4, OMPSchedule.DYNAMIC, None)
        assert dynamic.effective_chunk(100) == 1
        explicit = OMPConfig(4, OMPSchedule.DYNAMIC, 512)
        assert explicit.effective_chunk(100) == 100

    def test_default_config(self):
        cfg = default_omp_config(8)
        assert cfg.num_threads == 8 and cfg.schedule == OMPSchedule.STATIC

    def test_ndrange(self):
        nd = NDRange(1000, 64)
        assert nd.num_workgroups == 16
        with pytest.raises(ValueError):
            NDRange(0, 1)

    def test_opencl_instance_features(self, gemm_spec):
        from repro.kernels.registry import as_opencl
        inst = OpenCLKernelInstance(as_opencl(gemm_spec), 1e6, 128)
        feats = inst.feature_dict()
        assert feats["transfer_bytes"] == 1e6 and feats["wgsize"] == 128.0
