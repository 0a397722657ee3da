"""Registry of the paper's benchmark kernels (Table 2 rows + the §4 example)."""

from __future__ import annotations

from repro.errors import KernelError
from repro.kernels.base import Kernel
from repro.kernels.dct import DCTKernel
from repro.kernels.dotprod import DotProductKernel
from repro.kernels.fft import FFT128Kernel, FFT1024Kernel, FFTKernel
from repro.kernels.fir import FIR12Kernel, FIR22Kernel
from repro.kernels.iir import IIRKernel
from repro.kernels.matmul import MatMulKernel
from repro.kernels.transpose import TransposeKernel
from repro.kernels.sad import SADKernel
from repro.kernels.colorspace import ColorSpaceKernel
from repro.kernels.matvec import MatVecKernel
from repro.kernels.idct import IDCTKernel
from repro.kernels.viterbi import ViterbiKernel

#: Table 2 order: the eight media algorithms of the evaluation.
TABLE2_KERNELS: dict[str, type[Kernel]] = {
    "FIR12": FIR12Kernel,
    "FIR22": FIR22Kernel,
    "IIR": IIRKernel,
    "FFT1024": FFT1024Kernel,
    "FFT128": FFT128Kernel,
    "DCT": DCTKernel,
    "MatrixMultiply": MatMulKernel,
    "MatrixTranspose": TransposeKernel,
}

#: Extension workloads beyond the paper's Table 2 (byte-granularity media
#: kernels from the intro's motivation — they need configurations A/B).
EXTENSION_KERNELS: dict[str, type[Kernel]] = {
    "SAD": SADKernel,
    "ColorSpace": ColorSpaceKernel,
    "MatrixVector": MatVecKernel,
    "IDCT": IDCTKernel,
    "Viterbi": ViterbiKernel,
}

ALL_KERNELS: dict[str, type[Kernel]] = {
    **TABLE2_KERNELS,
    "DotProduct": DotProductKernel,
    **EXTENSION_KERNELS,
}


def make_kernel(name: str, **kwargs) -> Kernel:
    """Instantiate a kernel by its Table 2 name."""
    try:
        cls = ALL_KERNELS[name]
    except KeyError as exc:
        raise KernelError(
            f"unknown kernel {name!r}; choose from {sorted(ALL_KERNELS)}"
        ) from exc
    return cls(**kwargs)


def make_sized_kernel(name: str, fast: bool) -> Kernel:
    """:func:`make_kernel`, except that *fast* shrinks FFT1024 to 256 points.

    The shrunk kernel keeps the FFT1024 name, so its table row stays
    present at a test-friendly size (``--fast``).
    """
    if fast and name == "FFT1024":
        kernel = FFTKernel(n=256)
        kernel.name = "FFT1024"
        return kernel
    return make_kernel(name)
