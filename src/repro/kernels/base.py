"""Kernel framework: build, verify and compare MMX vs MMX+SPU variants.

Each kernel mirrors one Intel IPP routine from the paper's evaluation
(§5.2.1): it provides hand-written MMX assembly following the documented IPP
coding strategy, a NumPy *fixed-point mirror* as the golden reference (same
arithmetic, same rounding — equality is exact, not approximate), and the
workload parameters of Table 2.

The MMX+SPU variant follows the paper's methodology — "each of the
algorithms is re-coded to avoid utilizing the permutation instructions that
can be addressed by the SPU" — by running the automatic off-load pass on
every marked loop.  Loops get one SPU controller context each; the program
activates each phase's context by storing GO to the memory-mapped
configuration register just before entering the loop (§4).  In the MMX-only
baseline those stores hit plain memory and everything else is identical, so
the comparison isolates the SPU's contribution.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from repro.errors import KernelError
from repro.core import (
    CONFIG_D,
    DEFAULT_MMIO_BASE,
    CrossbarConfig,
    OffloadReport,
    SPUController,
    SPUProgram,
    attach_spu,
    offload_loop,
)
from repro.cpu import Machine, PipelineConfig, RunStats
from repro.isa import Program, ProgramBuilder, Register
from repro.isa.registers import R

#: Registers reserved by the framework for SPU control stores.
SPU_BASE_REG = R[14]  # holds DEFAULT_MMIO_BASE
SPU_GO_REG = R[15]  # holds the GO word for the next phase

#: Conventional memory layout used by all kernels.
INPUT_BASE = 0x1000
COEFF_BASE = 0x4000
TABLE_BASE = 0x6000
OUTPUT_BASE = 0x8000
SCRATCH_BASE = 0xC000
MEMORY_SIZE = 1 << 20


@dataclass
class LoopSpec:
    """One SPU-accelerated loop: label plus dynamic trip count."""

    label: str
    iterations: int
    live_out: tuple[Register, ...] = ()
    #: Registers zeroed before the loop and untouched inside it: routable
    #: zero sources for the off-load pass.
    known_zero: tuple[Register, ...] = ()


@dataclass
class KernelComparison:
    """Measured MMX-only vs MMX+SPU results for one kernel."""

    name: str
    mmx: RunStats
    spu: RunStats
    removed_permutes: int
    #: Dynamic permute instructions executed by the MMX-only variant.
    mmx_dynamic_permutes: int

    @property
    def speedup(self) -> float:
        return self.mmx.cycles / self.spu.cycles if self.spu.cycles else 0.0

    @property
    def cycles_saved(self) -> int:
        return self.mmx.cycles - self.spu.cycles

    @property
    def instructions_saved(self) -> int:
        return self.mmx.instructions - self.spu.instructions


class Kernel(abc.ABC):
    """One benchmark kernel with MMX-only and MMX+SPU variants."""

    #: Table 2 benchmark name (e.g. ``"FIR12"``).
    name: str = "kernel"
    description: str = ""

    def __init__(self, config: CrossbarConfig = CONFIG_D) -> None:
        self.config = config
        self._mmx_program: Program | None = None
        self._spu_build: tuple[Program, list[tuple[int, SPUProgram]]] | None = None
        self._offload_reports: list[tuple[int, OffloadReport]] | None = None

    # ---- to implement per kernel -------------------------------------------

    @abc.abstractmethod
    def build_mmx(self) -> Program:
        """The MMX-only program (IPP-style, permutes in software)."""

    @abc.abstractmethod
    def loops(self) -> list[LoopSpec]:
        """The loops the SPU accelerates, in program order (≤4: contexts)."""

    @abc.abstractmethod
    def prepare(self, machine: Machine) -> None:
        """Write workload inputs into the machine's memory/registers."""

    @abc.abstractmethod
    def extract(self, machine: Machine) -> np.ndarray:
        """Read the kernel's output from the machine."""

    @abc.abstractmethod
    def reference(self) -> np.ndarray:
        """Golden output from the NumPy fixed-point mirror."""

    # ---- construction helpers -------------------------------------------------

    @staticmethod
    def go_store(b: ProgramBuilder, context: int = 0) -> None:
        """Emit the GO store activating SPU *context* (call just before a loop)."""
        b.mov(SPU_GO_REG, 1 | (context << 1))
        b.stw(f"[{SPU_BASE_REG.name}]", SPU_GO_REG)

    @staticmethod
    def preamble(b: ProgramBuilder) -> None:
        """Load the SPU MMIO base register (once, at program start)."""
        b.mov(SPU_BASE_REG, DEFAULT_MMIO_BASE)

    # ---- cached builds -----------------------------------------------------------

    def mmx_program(self) -> Program:
        if self._mmx_program is None:
            self._mmx_program = self.build_mmx()
        return self._mmx_program

    def spu_programs(self) -> tuple[Program, list[tuple[int, SPUProgram]]]:
        """Transformed program plus ``(context, controller program)`` pairs."""
        if self._spu_build is None:
            loops = self.loops()
            if not 1 <= len(loops) <= 4:
                raise KernelError(
                    f"{self.name}: {len(loops)} loops; the MMIO context field "
                    "supports 1-4"
                )
            program = self.mmx_program()
            controller_programs: list[tuple[int, SPUProgram]] = []
            reports: list[tuple[int, OffloadReport]] = []
            removed_total = 0
            for context, spec in enumerate(loops):
                report = offload_loop(
                    program,
                    spec.label,
                    spec.iterations,
                    self.config,
                    live_out=spec.live_out,
                    known_zero=spec.known_zero,
                )
                program = report.program
                removed_total += report.removed_count
                controller_programs.append((context, report.spu_program))
                reports.append((context, report))
            self._removed_permutes = removed_total
            self._offload_reports = reports
            self._spu_build = (program, controller_programs)
        return self._spu_build

    def offload_reports(self) -> list[tuple[int, OffloadReport]]:
        """Per-loop ``(context, OffloadReport)`` pairs, including certificates.

        The static analyzer (``repro lint``) re-verifies each report's
        :class:`~repro.core.dataflow.OffloadCertificate` without re-running
        the off-load pass.
        """
        self.spu_programs()
        assert self._offload_reports is not None
        return self._offload_reports

    @property
    def removed_permutes(self) -> int:
        self.spu_programs()
        return self._removed_permutes

    # ---- optional hand-tuned variant (§5.2.2's "lower estimate" remark) ------

    def build_spu_tuned(self) -> tuple[Program, list[tuple[int, SPUProgram]]] | None:
        """SPU-aware recoding of the kernel, if one exists.

        The paper notes its measurements are "a lower estimate of the true
        performance advantages" because the IPP code was written without
        knowledge of the SPU.  Kernels may override this with a hand-written
        variant exploiting routing more aggressively than the automatic
        off-load of MMX-shaped code can.
        """
        return None

    # ---- running -----------------------------------------------------------------

    def _machine(
        self,
        program: Program,
        controller_programs: list[tuple[int, SPUProgram]] | None,
        pipeline: PipelineConfig | None = None,
        resilience=None,
    ) -> Machine:
        config = pipeline
        if config is None:
            config = PipelineConfig(extra_stage=controller_programs is not None)
        machine = Machine(program, config=config, resilience=resilience)
        if controller_programs is not None:
            controller = SPUController(
                config=self.config, contexts=max(4, len(controller_programs))
            )
            for context, spu_program in controller_programs:
                controller.load_program(spu_program, context=context)
            attach_spu(machine, controller)
        self.prepare(machine)
        return machine

    def machine(self, variant: str = "mmx",
                pipeline: PipelineConfig | None = None,
                resilience=None) -> Machine:
        """A prepared, unrun :class:`Machine` for one variant.

        The public entry point for observers: build the machine, attach
        recorder readers or subscribe to ``machine.bus``, then drive it
        yourself (used by ``repro profile`` / ``repro trace``,
        :mod:`repro.obs.export` and the :mod:`repro.faults` campaigns).  *resilience* selects the failure
        posture (:mod:`repro.resilience`); the attached controller inherits
        it.
        """
        if variant == "mmx":
            return self._machine(self.mmx_program(), None, pipeline, resilience)
        if variant == "spu":
            program, controller_programs = self.spu_programs()
            return self._machine(program, controller_programs, pipeline, resilience)
        raise KernelError(f"unknown variant {variant!r}; use 'mmx' or 'spu'")

    def run_mmx(self, pipeline: PipelineConfig | None = None) -> tuple[RunStats, np.ndarray]:
        """Run the MMX-only variant; returns (stats, output)."""
        machine = self._machine(self.mmx_program(), None, pipeline)
        stats = machine.run()
        return stats, self.extract(machine)

    def run_spu(self, pipeline: PipelineConfig | None = None) -> tuple[RunStats, np.ndarray]:
        """Run the MMX+SPU variant (includes the extra pipeline stage cost)."""
        program, controller_programs = self.spu_programs()
        machine = self._machine(program, controller_programs, pipeline)
        stats = machine.run()
        return stats, self.extract(machine)

    def run_spu_tuned(self, pipeline: PipelineConfig | None = None) -> tuple[RunStats, np.ndarray]:
        """Run the hand-tuned SPU variant (raises if the kernel has none)."""
        build = self.build_spu_tuned()
        if build is None:
            raise KernelError(f"{self.name} has no hand-tuned SPU variant")
        program, controller_programs = build
        machine = self._machine(program, controller_programs, pipeline)
        stats = machine.run()
        return stats, self.extract(machine)

    # ---- verification and comparison ------------------------------------------------

    def verify(self) -> None:
        """Check both variants against the fixed-point reference (exact)."""
        reference = np.asarray(self.reference())
        for label, runner in (("MMX", self.run_mmx), ("MMX+SPU", self.run_spu)):
            _, output = runner()
            output = np.asarray(output)
            if output.shape != reference.shape or not np.array_equal(output, reference):
                mismatch = (
                    int(np.sum(output != reference))
                    if output.shape == reference.shape
                    else -1
                )
                raise KernelError(
                    f"{self.name}: {label} output diverges from the reference "
                    f"({mismatch} mismatching elements)"
                )

    def compare(self, pipeline_mmx: PipelineConfig | None = None,
                pipeline_spu: PipelineConfig | None = None) -> KernelComparison:
        """Run both variants and package the Figure 9 / Table 3 numbers."""
        mmx_stats, _ = self.run_mmx(pipeline_mmx)
        spu_stats, _ = self.run_spu(pipeline_spu)
        return KernelComparison(
            name=self.name,
            mmx=mmx_stats,
            spu=spu_stats,
            removed_permutes=self.removed_permutes,
            mmx_dynamic_permutes=mmx_stats.permutes,
        )
