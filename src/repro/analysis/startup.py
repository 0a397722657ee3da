"""SPU start-up cost accounting (paper §4).

"The startup cost of programming the SPU needs to also be considered
carefully by either the programmer or a compiler.  However, for the media
applications where the workloads are well defined at compilation time, the
startup cost should be easily scheduled."

We *measure* that cost: generate the actual MMIO staging sequence for a
kernel's controller programs, run it on the simulator, and divide by the
per-invocation cycle savings to get the break-even invocation count.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import DEFAULT_MMIO_BASE, SPUController, attach_spu
from repro.core.mmio import emit_upload
from repro.cpu import Machine
from repro.isa import ProgramBuilder
from repro.kernels.base import Kernel, KernelComparison


@dataclass(frozen=True)
class StartupCost:
    """Upload cost vs steady-state benefit for one kernel."""

    name: str
    state_words: int
    upload_instructions: int
    upload_cycles: int
    cycles_saved_per_invocation: int

    @property
    def break_even_invocations(self) -> float:
        """Invocations after which the upload has paid for itself."""
        if self.cycles_saved_per_invocation <= 0:
            return float("inf")
        return self.upload_cycles / self.cycles_saved_per_invocation


def measure_startup_cost(kernel: Kernel,
                         comparison: KernelComparison) -> StartupCost:
    """Generate, run and price the MMIO upload for *kernel*'s SPU programs.

    *comparison* is *kernel*'s MMX vs MMX+SPU run (:meth:`Kernel.compare`);
    its cycle saving is the per-invocation benefit.
    """
    _, controller_programs = kernel.spu_programs()
    builder = ProgramBuilder(f"{kernel.name.lower()}-upload")
    builder.mov("r14", DEFAULT_MMIO_BASE)
    instructions = 1
    state_words = 0
    for context, spu_program in controller_programs:
        state_words += spu_program.state_count()
        # Stage without GO: pricing the upload alone; activation is the
        # 2-instruction GO store the compiled program already pays per loop.
        instructions += emit_upload(
            builder, spu_program, kernel.config, context=context, go=False
        )
    builder.halt()
    machine = Machine(builder.build())
    controller = SPUController(
        config=kernel.config, contexts=max(4, len(controller_programs))
    )
    attach_spu(machine, controller)
    stats = machine.run()
    return StartupCost(
        name=kernel.name,
        state_words=state_words,
        upload_instructions=instructions,
        upload_cycles=stats.cycles,
        cycles_saved_per_invocation=comparison.cycles_saved,
    )
