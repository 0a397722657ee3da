"""Media kernel library: the paper's eight benchmarks plus the §4 example."""

from repro.kernels.base import (
    COEFF_BASE,
    INPUT_BASE,
    MEMORY_SIZE,
    OUTPUT_BASE,
    SCRATCH_BASE,
    TABLE_BASE,
    Kernel,
    KernelComparison,
    mismatching_elements,
)
from repro.kernels.dct import DCTKernel, dct_matrix_q12
from repro.kernels.dotprod import DotProductKernel
from repro.kernels.fft import FFT128Kernel, FFT1024Kernel, FFTKernel
from repro.kernels.fir import FIR12Kernel, FIR22Kernel, FIRKernel
from repro.kernels.iir import IIRKernel
from repro.kernels.matmul import MatMulKernel
from repro.kernels.transpose import TransposeKernel
from repro.kernels.sad import SADKernel
from repro.kernels.colorspace import ColorSpaceKernel
from repro.kernels.matvec import MatVecKernel
from repro.kernels.idct import IDCTKernel, roundtrip_error
from repro.kernels.viterbi import ViterbiKernel, convolutional_encode
from repro.kernels.registry import (
    ALL_KERNELS,
    EXTENSION_KERNELS,
    TABLE2_KERNELS,
    make_kernel,
    make_sized_kernel,
)

__all__ = [
    "COEFF_BASE",
    "INPUT_BASE",
    "MEMORY_SIZE",
    "OUTPUT_BASE",
    "SCRATCH_BASE",
    "TABLE_BASE",
    "Kernel",
    "KernelComparison",
    "mismatching_elements",
    "DCTKernel",
    "dct_matrix_q12",
    "DotProductKernel",
    "FFT128Kernel",
    "FFT1024Kernel",
    "FFTKernel",
    "FIR12Kernel",
    "FIR22Kernel",
    "FIRKernel",
    "IIRKernel",
    "MatMulKernel",
    "TransposeKernel",
    "ALL_KERNELS",
    "EXTENSION_KERNELS",
    "SADKernel",
    "ColorSpaceKernel",
    "MatVecKernel",
    "IDCTKernel",
    "roundtrip_error",
    "ViterbiKernel",
    "convolutional_encode",
    "TABLE2_KERNELS",
    "make_kernel",
    "make_sized_kernel",
]
