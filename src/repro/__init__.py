"""repro — reproduction of "Efficient Orchestration of Sub-Word Parallelism
in Media Processors" (Oliver, Akella, Chong; SPAA 2004).

The package implements the paper's Sub-word Permutation Unit (SPU) — a
unified 512-bit sub-word register, a crossbar interconnect between the
register file and the MMX functional units, and a decoupled zero-overhead
controller — on top of a cycle-level Pentium-MMX-class simulator, together
with the eight IPP-style media kernels and the harness regenerating every
table and figure of the evaluation.

Quick start::

    from repro import DotProductKernel
    kernel = DotProductKernel()
    comparison = kernel.verify()         # MMX and MMX+SPU match the reference
    print(comparison.speedup)            # the Figure 9 quantity

Sub-packages: :mod:`repro.simd` (packed arithmetic), :mod:`repro.isa`
(assembler/IR), :mod:`repro.cpu` (dual-pipe cycle model), :mod:`repro.core`
(the SPU), :mod:`repro.hw` (area/delay models), :mod:`repro.kernels`,
:mod:`repro.analysis`, :mod:`repro.obs` (run recorder, cycle attribution,
exporters), :mod:`repro.experiments`.
"""

from repro.errors import (
    AssemblerError,
    ConfigurationError,
    EncodingError,
    KernelError,
    LaneError,
    MemoryFault,
    PairingViolation,
    ReproError,
    RouteError,
    SimulationError,
    SPUProgramError,
)
from repro.resilience import ResilienceMode
from repro.isa import MM, R, Program, ProgramBuilder, assemble, disassemble
from repro.cpu import Machine, Memory, PipelineConfig, RunStats
from repro.core import (
    CONFIG_A,
    CONFIGS,
    CONFIG_B,
    CONFIG_C,
    CONFIG_D,
    CrossbarConfig,
    SPUController,
    SPUProgram,
    SPUProgramBuilder,
    attach_spu,
    offload_loop,
)
from repro.hw import SPUCost, spu_cost, table1_rows
from repro.kernels import (
    ALL_KERNELS,
    TABLE2_KERNELS,
    DCTKernel,
    DotProductKernel,
    FFT128Kernel,
    FFT1024Kernel,
    FIR12Kernel,
    FIR22Kernel,
    IIRKernel,
    Kernel,
    KernelComparison,
    MatMulKernel,
    TransposeKernel,
    make_kernel,
)
from repro.analysis import profile
from repro.obs import (
    ControllerTrace,
    CycleAttribution,
    MetricsRegistry,
    kernel_profile_report,
)
from repro.experiments import ExperimentSuite, fig9, table1, table2, table3

__version__ = "1.0.0"

__all__ = [
    "AssemblerError",
    "ConfigurationError",
    "EncodingError",
    "KernelError",
    "LaneError",
    "MemoryFault",
    "PairingViolation",
    "ReproError",
    "RouteError",
    "SimulationError",
    "SPUProgramError",
    "ResilienceMode",
    "MM",
    "R",
    "Program",
    "ProgramBuilder",
    "assemble",
    "disassemble",
    "Machine",
    "Memory",
    "PipelineConfig",
    "RunStats",
    "CONFIG_A",
    "CONFIGS",
    "CONFIG_B",
    "CONFIG_C",
    "CONFIG_D",
    "CrossbarConfig",
    "SPUController",
    "SPUProgram",
    "SPUProgramBuilder",
    "attach_spu",
    "offload_loop",
    "SPUCost",
    "spu_cost",
    "table1_rows",
    "ALL_KERNELS",
    "TABLE2_KERNELS",
    "DCTKernel",
    "DotProductKernel",
    "FFT128Kernel",
    "FFT1024Kernel",
    "FIR12Kernel",
    "FIR22Kernel",
    "IIRKernel",
    "Kernel",
    "KernelComparison",
    "MatMulKernel",
    "TransposeKernel",
    "make_kernel",
    "profile",
    "ControllerTrace",
    "CycleAttribution",
    "MetricsRegistry",
    "kernel_profile_report",
    "ExperimentSuite",
    "fig9",
    "table1",
    "table2",
    "table3",
    "__version__",
]
