"""Kernel framework: build, verify and compare MMX vs MMX+SPU variants.

Each kernel mirrors one Intel IPP routine from the paper's evaluation
(§5.2.1): it provides hand-written MMX assembly following the documented IPP
coding strategy, a NumPy *fixed-point mirror* as the golden reference (same
arithmetic, same rounding — equality is exact, not approximate), and the
workload parameters of Table 2.

A kernel writes plain MMX only.  The MMX+SPU variant follows the paper's
methodology — "each of the algorithms is re-coded to avoid utilizing the
permutation instructions that can be addressed by the SPU" — by compiling
that program with :func:`repro.core.autopilot.offload_program`: every
counted loop is off-loaded, each loop that loses a permute gets one SPU
controller context, and the compiler injects the GO store that activates it
just before the loop (§4).  The MMX-only baseline carries no SPU plumbing at
all; a kernel whose loops remove nothing runs its unchanged program on the
extra-stage pipeline.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.errors import KernelError
from repro.core import (
    CONFIG_D,
    CompileResult,
    CrossbarConfig,
    OffloadReport,
    SPUController,
    SPUProgram,
    attach_spu,
    offload_program,
)
from repro.cpu import Machine, PipelineConfig, RunStats
from repro.isa import Program

#: Conventional memory layout used by all kernels.
INPUT_BASE = 0x1000
COEFF_BASE = 0x4000
TABLE_BASE = 0x6000
OUTPUT_BASE = 0x8000
SCRATCH_BASE = 0xC000
MEMORY_SIZE = 1 << 20


def mismatching_elements(output: np.ndarray, reference: np.ndarray) -> int:
    """Elements of *output* that differ from *reference*.

    0 means an exact match; -1 means the shapes differ.
    """
    output = np.asarray(output)
    reference = np.asarray(reference)
    if output.shape != reference.shape:
        return -1
    return int(np.count_nonzero(output != reference))


@dataclass
class KernelComparison:
    """Measured MMX-only vs MMX+SPU results for one kernel."""

    name: str
    mmx: RunStats
    spu: RunStats
    removed_permutes: int
    #: Dynamic permute instructions executed by the MMX-only variant.
    mmx_dynamic_permutes: int
    #: :func:`mismatching_elements` of each variant's output.
    mmx_mismatches: int
    spu_mismatches: int

    @property
    def verified(self) -> bool:
        """Both variants matched the fixed-point reference exactly."""
        return self.mmx_mismatches == 0 and self.spu_mismatches == 0

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
        self._compiled: CompileResult | None = None

    # ---- to implement per kernel -------------------------------------------

    @abc.abstractmethod
    def build_mmx(self) -> Program:
        """The MMX-only program (IPP-style, permutes in software)."""

    @abc.abstractmethod
    def prepare(self, machine: Machine) -> None:
        """Write workload inputs into the machine's memory/registers."""

    @abc.abstractmethod
    def extract(self, machine: Machine) -> np.ndarray:
        """Read the kernel's output from the machine."""

    @abc.abstractmethod
    def reference(self) -> np.ndarray:
        """Golden output from the NumPy fixed-point mirror."""

    # ---- cached builds -----------------------------------------------------------

    def mmx_program(self) -> Program:
        if self._mmx_program is None:
            self._mmx_program = self.build_mmx()
        return self._mmx_program

    def spu_programs(self) -> tuple[Program, list[tuple[int, SPUProgram]]]:
        """Transformed program plus ``(context, controller program)`` pairs."""
        if self._spu_build is None:
            self._compiled = offload_program(self.mmx_program(), self.config)
            self._spu_build = (
                self._compiled.program, self._compiled.controller_programs
            )
        return self._spu_build

    def compile_result(self) -> CompileResult:
        """The whole-program compile behind :meth:`spu_programs`."""
        self.spu_programs()
        assert self._compiled is not None
        return self._compiled

    def offload_reports(self) -> list[tuple[int, OffloadReport]]:
        """Per-loop ``(context, OffloadReport)`` pairs, including certificates.

        The static analyzer (``repro lint``) re-verifies each report's
        :class:`~repro.core.dataflow.OffloadCertificate` without re-running
        the off-load pass.
        """
        return self.compile_result().reports

    @property
    def removed_permutes(self) -> int:
        return self.compile_result().removed

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
        recorder readers, then drive it yourself (used by ``repro profile``
        / ``repro trace``, :mod:`repro.obs.export` and the
        :mod:`repro.faults` campaigns).  *resilience* selects the failure
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

    def check(self, label: str, mismatches: int) -> None:
        """Raise :class:`KernelError` unless *label*'s run matched exactly."""
        if mismatches:
            raise KernelError(
                f"{self.name}: {label} output diverges from the reference "
                f"({mismatches} mismatching elements)"
            )

    def compare(self, pipeline_mmx: PipelineConfig | None = None,
                pipeline_spu: PipelineConfig | None = None) -> KernelComparison:
        """Run each variant once and check it against the reference (exact).

        The result carries the Figure 9 / Table 3 numbers and each
        variant's mismatch count; :meth:`verify` raises on a mismatch.
        """
        reference = self.reference()
        mmx_stats, mmx_output = self.run_mmx(pipeline_mmx)
        spu_stats, spu_output = self.run_spu(pipeline_spu)
        return KernelComparison(
            name=self.name,
            mmx=mmx_stats,
            spu=spu_stats,
            removed_permutes=self.removed_permutes,
            mmx_dynamic_permutes=mmx_stats.permutes,
            mmx_mismatches=mismatching_elements(mmx_output, reference),
            spu_mismatches=mismatching_elements(spu_output, reference),
        )

    def verify(self, pipeline_mmx: PipelineConfig | None = None,
               pipeline_spu: PipelineConfig | None = None) -> KernelComparison:
        """:meth:`compare`, raising :class:`KernelError` on any mismatch."""
        comparison = self.compare(pipeline_mmx, pipeline_spu)
        self.check("MMX", comparison.mmx_mismatches)
        self.check("MMX+SPU", comparison.spu_mismatches)
        return comparison
