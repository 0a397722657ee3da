"""Energy accounting: instruction overhead vs SPU routing energy.

The paper motivates the SPU partly on energy ("Performance is key, but
energy efficiency ... will also become important", §1) and argues that
software data orchestration "wastes expensive resources on the processor
like the instruction fetch and decode mechanism" (§7).  This model prices
that claim: every executed instruction pays a fetch/decode/retire overhead
plus a functional-unit energy, while each SPU-routed operand pays crossbar
traversal energy and each controller step pays a control-memory read.

Per-event energies are ballpark 0.25µm-class CMOS estimates (documented
below, in picojoules) — the *comparison* between variants is the point, not
the absolute joules; all knobs live in :class:`EnergyModel`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.interconnect import CrossbarConfig
from repro.cpu.stats import RunStats
from repro.hw.control_memory import state_bits
from repro.hw.crossbar import bit_crosspoints
from repro.isa.opcodes import InstrClass


@dataclass(frozen=True)
class EnergyModel:
    """Per-event energies in pJ (0.25µm-class estimates)."""

    #: Fetch + decode + retire overhead per instruction — the §7 "expensive
    #: resources" an off-loaded permute stops paying.
    fetch_decode_pj: float = 400.0
    #: Functional-unit energy per instruction class.
    alu_pj: float = 150.0
    multiply_pj: float = 600.0
    shift_pack_pj: float = 180.0
    move_pj: float = 120.0
    scalar_pj: float = 100.0
    memory_pj: float = 500.0  # L1 access
    branch_pj: float = 120.0
    #: Crossbar traversal per routed 64-bit operand, per 1k bit-crosspoints
    #: (bigger crossbars burn more wire capacitance).
    crossbar_pj_per_kxp: float = 12.0
    #: Controller step: one control-memory read, per 100 state-word bits.
    control_read_pj_per_100b: float = 6.0

    def unit_energy(self, iclass: InstrClass) -> float:
        return {
            InstrClass.MMX_ALU: self.alu_pj,
            InstrClass.MMX_MUL: self.multiply_pj,
            InstrClass.MMX_SHIFT: self.shift_pack_pj,
            InstrClass.MMX_MOV: self.move_pj,
            InstrClass.SCALAR: self.scalar_pj,
            InstrClass.LOAD: self.memory_pj,
            InstrClass.STORE: self.memory_pj,
            InstrClass.BRANCH: self.branch_pj,
            InstrClass.SYS: self.scalar_pj,
        }[iclass]


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy of one run, in picojoules."""

    instruction_overhead_pj: float
    functional_pj: float
    crossbar_pj: float
    controller_pj: float

    @property
    def total_pj(self) -> float:
        return (
            self.instruction_overhead_pj
            + self.functional_pj
            + self.crossbar_pj
            + self.controller_pj
        )


def run_energy(
    stats: RunStats,
    config: CrossbarConfig | None = None,
    spu_steps: int = 0,
    model: EnergyModel = EnergyModel(),
) -> EnergyBreakdown:
    """Price a run: instruction overheads + units + SPU activity.

    ``spu_steps`` is the decoupled controller's dynamic step count
    (0 for MMX-only runs); ``stats.spu_routed`` supplies the routed-operand
    count for the crossbar term.
    """
    overhead = stats.instructions * model.fetch_decode_pj
    functional = sum(
        count * model.unit_energy(iclass) for iclass, count in stats.by_class.items()
    )
    crossbar = 0.0
    controller = 0.0
    if config is not None:
        crossbar = (
            stats.spu_routed * model.crossbar_pj_per_kxp
            * bit_crosspoints(config) / 1000.0
        )
        controller = (
            spu_steps * model.control_read_pj_per_100b
            * state_bits(config) / 100.0
        )
    return EnergyBreakdown(
        instruction_overhead_pj=overhead,
        functional_pj=functional,
        crossbar_pj=crossbar,
        controller_pj=controller,
    )


@dataclass(frozen=True)
class EnergyComparison:
    """MMX-only vs MMX+SPU energy for one kernel."""

    name: str
    mmx: EnergyBreakdown
    spu: EnergyBreakdown

    @property
    def savings_fraction(self) -> float:
        if not self.mmx.total_pj:
            return 0.0
        return 1.0 - self.spu.total_pj / self.mmx.total_pj


def kernel_energy(kernel, model: EnergyModel = EnergyModel()) -> EnergyComparison:
    """Energy comparison for a :class:`repro.kernels.Kernel`."""
    comparison = kernel.compare()
    # Controller steps = dynamic instructions seen while active; approximate
    # with the counter totals the kernel's loops program (exact for loops
    # that run to completion, which all kernels' do).
    _, controller_programs = kernel.spu_programs()
    steps = sum(program.counter_init[0] + program.counter_init[1]
                for _, program in controller_programs)
    return EnergyComparison(
        name=kernel.name,
        mmx=run_energy(comparison.mmx),
        spu=run_energy(comparison.spu, kernel.config, spu_steps=steps,
                       model=model),
    )
