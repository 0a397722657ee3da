"""Correctness and shape tests for the eight paper kernels + dot product.

Every kernel's MMX-only and MMX+SPU variants must match the NumPy
fixed-point mirror bit-exactly; the comparisons must reproduce the paper's
qualitative claims (who gains, who doesn't).
"""

import numpy as np
import pytest

from repro.errors import KernelError
from repro.kernels import (
    ALL_KERNELS,
    TABLE2_KERNELS,
    DCTKernel,
    DotProductKernel,
    FFT128Kernel,
    FIR12Kernel,
    FIR22Kernel,
    FIRKernel,
    IIRKernel,
    MatMulKernel,
    TransposeKernel,
    dct_matrix_q12,
    make_kernel,
    mismatching_elements,
)

#: Fast kernel set for per-test verification (FFT1024 is bench-only here).
FAST_KERNELS = [
    DotProductKernel,
    TransposeKernel,
    FIR12Kernel,
    FIR22Kernel,
    MatMulKernel,
    DCTKernel,
    IIRKernel,
    FFT128Kernel,
]


@pytest.fixture(scope="module")
def comparisons():
    """Verify and compare each fast kernel once (cached per module)."""
    results = {}
    for cls in FAST_KERNELS:
        comparison = cls().verify()
        results[comparison.name] = comparison
    return results


class TestCorrectness:
    @pytest.mark.parametrize("cls", FAST_KERNELS)
    def test_both_variants_match_reference(self, cls):
        cls().verify()  # raises KernelError on any mismatch

    @pytest.mark.parametrize("cls", FAST_KERNELS)
    def test_seed_changes_data(self, cls):
        a, b = cls(seed=1), cls(seed=2)
        assert not np.array_equal(a.reference(), b.reference())

    @pytest.mark.parametrize("cls", FAST_KERNELS)
    def test_deterministic(self, cls):
        assert np.array_equal(cls(seed=9).reference(), cls(seed=9).reference())


class TestCheckedComparison:
    """compare() checks each variant's output; verify() raises on it."""

    def test_mismatching_elements(self):
        reference = np.arange(6).reshape(2, 3)
        assert mismatching_elements(reference.copy(), reference) == 0
        assert mismatching_elements(reference + (reference > 3), reference) == 2
        assert mismatching_elements(reference.ravel(), reference) == -1

    def test_exact_comparison_is_verified(self, comparisons):
        for name, comparison in comparisons.items():
            assert comparison.verified, name
            assert comparison.mmx_mismatches == comparison.spu_mismatches == 0

    def test_corrupted_output_is_counted_and_raises(self, monkeypatch):
        extract = DotProductKernel.extract
        monkeypatch.setattr(DotProductKernel, "extract",
                            lambda self, machine: extract(self, machine) + 1)
        kernel = DotProductKernel()
        comparison = kernel.compare()
        assert not comparison.verified
        size = kernel.reference().size
        assert comparison.mmx_mismatches == comparison.spu_mismatches == size
        with pytest.raises(KernelError,
                           match=rf"MMX output diverges .*\({size} mismatching"):
            kernel.verify()

    def test_shape_mismatch_counts_minus_one(self, monkeypatch):
        extract = DotProductKernel.extract
        monkeypatch.setattr(DotProductKernel, "extract",
                            lambda self, machine: extract(self, machine)[:-1])
        comparison = DotProductKernel().compare()
        assert comparison.mmx_mismatches == comparison.spu_mismatches == -1


class TestSpeedupShape:
    """Figure 9's qualitative content (§5.2.2-§5.2.4)."""

    def test_spu_never_slower(self, comparisons):
        for name, comparison in comparisons.items():
            assert comparison.speedup >= 0.999, name

    def test_inter_word_kernels_gain_most(self, comparisons):
        """DCT / matrix kernels benefit most (inter-word restrictions)."""
        inter_word = min(
            comparisons[name].speedup
            for name in ("DCT", "MatrixMultiply", "MatrixTranspose")
        )
        low_utilization = max(
            comparisons[name].speedup for name in ("IIR", "FFT128")
        )
        assert inter_word > low_utilization

    def test_fir_gains_modestly(self, comparisons):
        """Coefficient replication leaves FIR only a small SPU win (§5.2.2)."""
        assert 1.0 < comparisons["FIR12"].speedup < 1.15

    def test_iir_and_fft_barely_move(self, comparisons):
        """'The SPU obviously does not impact the performance' (§5.2.2)."""
        for name in ("IIR", "FFT128"):
            assert comparisons[name].speedup < 1.05, name

    def test_iir_fft_low_mmx_utilization(self, comparisons):
        for name in ("IIR", "FFT128"):
            assert comparisons[name].mmx.mmx_busy_fraction < 0.2, name

    def test_compute_kernels_high_mmx_utilization(self, comparisons):
        for name in ("FIR12", "DCT", "MatrixMultiply", "MatrixTranspose"):
            assert comparisons[name].mmx.mmx_busy_fraction > 0.5, name

    def test_permutes_offloaded(self, comparisons):
        for name in ("DotProduct", "MatrixTranspose", "DCT", "MatrixMultiply", "FIR12"):
            assert comparisons[name].removed_permutes > 0, name

    def test_spu_executes_fewer_instructions(self, comparisons):
        for name, comparison in comparisons.items():
            if comparison.removed_permutes:
                assert comparison.instructions_saved > 0, name

    def test_transpose_is_permute_heaviest(self, comparisons):
        """Inter-word restrictions dominate the transpose (§2.2)."""
        mmx = comparisons["MatrixTranspose"].mmx
        fir = comparisons["FIR12"].mmx
        assert (
            mmx.alignment_candidates / mmx.mmx_instructions
            > fir.alignment_candidates / fir.mmx_instructions
        )

    def test_iir_mmx_is_mostly_permutes(self, comparisons):
        """Table 3: IIR's MMX usage is dominated by pack/unpack conversion."""
        mmx = comparisons["IIR"].mmx
        assert mmx.alignment_candidates / mmx.mmx_instructions > 0.3


class TestBranchBehaviour:
    def test_media_kernels_mispredict_only_loop_exits(self, comparisons):
        """Table 2's ~0% mispredict rates: counted loops miss only at exit.

        (The paper's rates are tiny because its runs iterate millions of
        times; at our workload sizes the invariant is the absolute count —
        roughly one mispredict per loop in the kernel.)
        """
        for name, comparison in comparisons.items():
            assert comparison.mmx.mispredicts <= 5, name

    def test_mispredict_rate_vanishes_with_iterations(self):
        small = DotProductKernel(blocks=8)
        large = DotProductKernel(blocks=512)
        rate_small = small.run_mmx()[0].mispredict_rate
        rate_large = large.run_mmx()[0].mispredict_rate
        assert rate_large < rate_small
        assert rate_large < 0.005  # Table 2 territory

    def test_branches_track_loop_structure(self):
        kernel = DotProductKernel(blocks=10)
        stats, _ = kernel.run_mmx()
        assert stats.branches == 10


class TestWorkloadParameters:
    def test_table2_registry_complete(self):
        assert list(TABLE2_KERNELS) == [
            "FIR12", "FIR22", "IIR", "FFT1024", "FFT128",
            "DCT", "MatrixMultiply", "MatrixTranspose",
        ]

    def test_make_kernel(self):
        assert make_kernel("FIR12").taps == 12
        assert make_kernel("FFT128").n == 128
        with pytest.raises(KernelError):
            make_kernel("Sobel")

    def test_fir_defaults_match_table2(self):
        assert FIR12Kernel().taps == 12
        assert FIR22Kernel().taps == 22
        assert FIR12Kernel().samples >= 150

    def test_iir_defaults(self):
        kernel = IIRKernel()
        assert kernel.taps == 10 and kernel.samples >= 150

    def test_matrix_defaults(self):
        assert MatMulKernel().n == 16
        assert TransposeKernel().n == 16

    def test_invalid_parameters_rejected(self):
        with pytest.raises(KernelError):
            TransposeKernel(n=6)
        with pytest.raises(KernelError):
            FIRKernel(taps=1)
        with pytest.raises(KernelError):
            FIRKernel(taps=8, samples=7)
        with pytest.raises(KernelError):
            IIRKernel(samples=5)
        from repro.kernels import FFTKernel
        with pytest.raises(KernelError):
            FFTKernel(n=96)


class TestReferenceModels:
    def test_dct_matrix_is_orthogonalish(self):
        c = dct_matrix_q12().astype(np.float64) / (1 << 12)
        identity = c @ c.T
        assert np.allclose(identity, np.eye(8), atol=0.01)

    def test_dct_against_float_dct(self):
        """The fixed-point DCT tracks the real DCT within quantization."""
        kernel = DCTKernel(blocks=2)
        from scipy.fft import dctn
        for index in range(kernel.blocks):
            expected = dctn(kernel.block[index].astype(np.float64), norm="ortho")
            got = kernel.reference()[index].astype(np.float64)
            assert np.max(np.abs(got - expected)) < 8.0

    def test_dct_block_capacity_guard(self):
        with pytest.raises(KernelError):
            DCTKernel(blocks=9)
        with pytest.raises(KernelError):
            DCTKernel(blocks=0)

    def test_fir_matches_float_convolution(self):
        kernel = FIR12Kernel()
        x = kernel.x.astype(np.float64)
        taps = kernel.coeffs.astype(np.float64)
        full = np.convolve(x, taps)[: kernel.samples]
        expected = np.clip(full / (1 << 12), -32768, 32767)  # packssdw saturates
        got = kernel.reference().astype(np.float64)
        assert np.max(np.abs(got - expected)) <= 1.0  # truncation only

    def test_fft_tracks_float_fft(self):
        kernel = FFT128Kernel()
        ref = kernel.reference()
        got = ref[0::2].astype(np.float64) + 1j * ref[1::2].astype(np.float64)
        # hardware scales by 1/2 per stage → overall 1/N
        expected = np.fft.fft(kernel.x.astype(np.float64)) / kernel.n
        error = np.abs(got - expected)
        # Floor-truncation bias accumulates ~1 LSB per stage of the chain.
        assert np.max(error) < 64.0

    def test_matmul_small_case(self):
        kernel = MatMulKernel(n=4, seed=5)
        kernel.verify()

    def test_transpose_reference_is_transpose(self):
        kernel = TransposeKernel(n=8)
        assert np.array_equal(kernel.reference(), kernel.matrix.T)

    def test_iir_impulse_response_decays(self):
        """Stability bound: the feedback design keeps outputs bounded."""
        kernel = IIRKernel()
        out = kernel.reference().astype(np.float64)
        assert np.all(np.abs(out) <= 32767)


class TestVariantSizes:
    def test_transpose_variants(self):
        for n in (4, 8, 12):
            TransposeKernel(n=n).verify()

    def test_fir_variant_taps(self):
        for taps in (4, 8, 16):
            FIRKernel(taps=taps, samples=16).verify()

    def test_fft_small(self):
        from repro.kernels import FFTKernel
        for n in (4, 8, 16):
            FFTKernel(n=n).verify()

    def test_dotprod_blocks(self):
        DotProductKernel(blocks=3).verify()


class TestCompilePath:
    """Kernels write plain MMX; the SPU variant is the whole-program compile."""

    @pytest.mark.parametrize("name", sorted(ALL_KERNELS))
    def test_mmx_program_has_no_spu_plumbing(self, name):
        from repro.core import DEFAULT_MMIO_BASE
        from repro.isa.operands import Imm

        program = make_kernel(name).mmx_program()
        assert not any(
            isinstance(operand, Imm) and operand.value == DEFAULT_MMIO_BASE
            for instr in program
            for operand in instr.operands
        )

    @pytest.mark.parametrize("name", sorted(ALL_KERNELS))
    def test_spu_build_is_the_compile_result(self, name):
        kernel = make_kernel(name)
        result = kernel.compile_result()
        program, controller_programs = kernel.spu_programs()
        assert program is result.program
        assert controller_programs == result.controller_programs
        assert kernel.offload_reports() == result.reports
        assert kernel.removed_permutes == result.removed
        assert [context for context, _ in result.reports] == list(
            range(len(result.reports))
        )

    def test_dct_offloads_all_four_phases(self):
        result = DCTKernel().compile_result()
        assert result.accelerated == ["rows1", "trans1", "rows2", "trans2"]
        assert result.removed == 44

    @pytest.mark.parametrize("config", ["A", "B", "C", "D"])
    def test_fft_stage1_removes_four_permutes(self, config):
        # pshufw writes mm1 without reading it, so stage1's shifted mm1 does
        # not reach the next iteration and its psrlq goes too.
        from repro.core import CONFIGS

        result = make_kernel("FFT128", config=CONFIGS[config]).compile_result()
        assert result.accelerated == ["stage1"] and result.removed == 4

    def test_inferred_live_out_matches_epilogue_reads(self):
        from repro.core import CONFIG_A
        from repro.kernels import SADKernel, ViterbiKernel

        for kernel, live in ((SADKernel(config=CONFIG_A), (2,)),
                             (ViterbiKernel(), (0,))):
            (_, report), = kernel.offload_reports()
            assert report.certificate.live_out == live, kernel.name

    def test_loop_without_removals_runs_plain_program(self):
        from repro.kernels import SADKernel

        kernel = SADKernel()  # config D: the byte unpacks cannot route
        program, controller_programs = kernel.spu_programs()
        assert program is kernel.mmx_program() and controller_programs == []
        (reason,) = kernel.compile_result().skipped.values()
        assert reason.startswith("no removable permutes (kept: ")
        assert "route illegal for config D" in reason
        spu, _ = kernel.run_spu()
        mmx, _ = kernel.run_mmx()
        assert spu.instructions == mmx.instructions
        assert spu.cycles > mmx.cycles  # the extra pipeline stage alone
