"""Explicit-permute baseline (paper §6: Altivec / TigerSHARC comparison).

The prevalent alternative to the SPU is "to perform data orchestration in
software with additional instructions" (§7): a powerful two-source permute
instruction executed by a dedicated unit.  We model it with ``vperm dst,
src, imm32`` — each destination byte picked from the 16-byte pool
``(dst, src)`` by a control nibble — and rebuild the dot-product and
transpose kernels with it, so the three alternatives can be compared on the
same simulator:

* **MMX** — fixed pack/unpack repertoire (many instructions per shuffle),
* **vperm** — one explicit instruction per shuffle, 4-byte control
  immediates, only two registers reachable per instruction (the inter-word
  restriction §6 holds against Altivec),
* **SPU** — no instructions at all; routing happens in the decoupled
  controller.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import KernelError
from repro.cpu import Machine, PipelineConfig, RunStats
from repro.isa import Program, ProgramBuilder, program_size
from repro.kernels import DotProductKernel, TransposeKernel, mismatching_elements
from repro.kernels.base import INPUT_BASE, OUTPUT_BASE, TABLE_BASE


def vperm_control(byte_sources: list[int]) -> int:
    """Build the 32-bit control immediate from 8 byte selectors (0-15).

    Selector 0-7 picks a byte of the destination's old value, 8-15 picks a
    byte of the source operand.
    """
    if len(byte_sources) != 8:
        raise KernelError(f"vperm control needs 8 selectors, got {len(byte_sources)}")
    control = 0
    for i, sel in enumerate(byte_sources):
        if not 0 <= sel < 16:
            raise KernelError(f"vperm selector {sel} out of range 0-15")
        control |= sel << (4 * i)
    return control


def halfwords(*pairs: tuple[str, int]) -> list[int]:
    """Byte selectors from ('a'|'b', halfword) pairs (a = dst, b = src)."""
    out: list[int] = []
    for which, hw in pairs:
        base = 0 if which == "a" else 8
        out.extend([base + 2 * hw, base + 2 * hw + 1])
    return out


# --- kernel variants ----------------------------------------------------------


def dotprod_vperm_program(blocks: int) -> Program:
    """§4's dot product with explicit vperm realignment."""
    b = ProgramBuilder("dotprod-vperm")
    b.mov("r0", blocks)
    b.mov("r1", INPUT_BASE)
    b.mov("r2", OUTPUT_BASE)
    ctl_cgdh = vperm_control(halfwords(("a", 2), ("b", 2), ("a", 3), ("b", 3)))
    ctl_aebf = vperm_control(halfwords(("a", 0), ("b", 0), ("a", 1), ("b", 1)))
    b.label("loop")
    b.movq("mm0", "[r1]")  # a b c d
    b.movq("mm1", "[r1+8]")  # e f g h
    b.movq("mm2", "mm0")
    b.vperm("mm2", "mm1", ctl_cgdh)  # c g d h  (one instr, no unpack pair)
    b.vperm("mm0", "mm1", ctl_aebf)  # a e b f
    b.movq("mm3", "mm0")
    b.pmulhw("mm3", "mm2")
    b.pmullw("mm0", "mm2")
    b.movq("[r2]", "mm3")
    b.movq("[r2+8]", "mm0")
    b.add("r1", 16)
    b.add("r2", 16)
    b.loop("r0", "loop")
    b.halt()
    return b.build()


def transpose_vperm_program(n: int) -> Program:
    """Tile transpose with vperm.

    Even with an arbitrary two-source permute, a 4×4 transpose still needs
    two levels (each column gathers from four registers while vperm reaches
    two) — the §6 inter-word criticism of Altivec, measured.
    """
    if n % 4 != 0 or n <= 0:
        raise KernelError(f"size must be a positive multiple of 4, got {n}")
    row = 2 * n
    interleave_lo = vperm_control(halfwords(("a", 0), ("b", 0), ("a", 1), ("b", 1)))
    interleave_hi = vperm_control(halfwords(("a", 2), ("b", 2), ("a", 3), ("b", 3)))
    pair_lo = vperm_control(halfwords(("a", 0), ("a", 1), ("b", 0), ("b", 1)))
    pair_hi = vperm_control(halfwords(("a", 2), ("a", 3), ("b", 2), ("b", 3)))
    b = ProgramBuilder("transpose-vperm")
    b.mov("r0", (n // 4) ** 2)
    b.mov("r10", TABLE_BASE)
    b.label("loop")
    b.ldw("r1", "[r10]")
    b.ldw("r2", "[r10+4]")
    b.add("r10", 8)
    b.movq("mm0", "[r1]")
    b.movq("mm1", f"[r1+{row}]")
    b.movq("mm2", f"[r1+{2 * row}]")
    b.movq("mm3", f"[r1+{3 * row}]")
    # Level 1: interleave row pairs (vperm folds the copy+unpack pair).
    b.movq("mm4", "mm0")
    b.vperm("mm0", "mm1", interleave_lo)  # a0 b0 a1 b1
    b.vperm("mm4", "mm1", interleave_hi)  # a2 b2 a3 b3
    b.movq("mm5", "mm2")
    b.vperm("mm2", "mm3", interleave_lo)  # c0 d0 c1 d1
    b.vperm("mm5", "mm3", interleave_hi)  # c2 d2 c3 d3
    # Level 2: pair the halves into columns.
    b.movq("mm6", "mm0")
    b.vperm("mm0", "mm2", pair_lo)  # a0 b0 c0 d0
    b.vperm("mm6", "mm2", pair_hi)  # a1 b1 c1 d1
    b.movq("mm7", "mm4")
    b.vperm("mm4", "mm5", pair_lo)
    b.vperm("mm7", "mm5", pair_hi)
    b.movq("[r2]", "mm0")
    b.movq(f"[r2+{row}]", "mm6")
    b.movq(f"[r2+{2 * row}]", "mm4")
    b.movq(f"[r2+{3 * row}]", "mm7")
    b.loop("r0", "loop")
    b.halt()
    return b.build()


# --- comparison runner ------------------------------------------------------------


@dataclass(frozen=True)
class BaselineResult:
    """Cycles/instructions/code-size for MMX vs vperm vs SPU on one kernel."""

    name: str
    mmx: RunStats
    vperm: RunStats
    spu: RunStats
    mmx_bytes: int
    vperm_bytes: int
    spu_bytes: int


def _run_vperm(kernel, program: Program) -> RunStats:
    machine = Machine(program, config=PipelineConfig())
    kernel.prepare(machine)
    stats = machine.run()
    if mismatching_elements(kernel.extract(machine), kernel.reference()):
        raise KernelError(f"vperm variant of {kernel.name} diverges from reference")
    return stats


def compare_baselines(kernel_name: str) -> BaselineResult:
    """Run all three alternatives for ``DotProduct`` or ``MatrixTranspose``."""
    if kernel_name == "DotProduct":
        kernel = DotProductKernel()
        vperm_program = dotprod_vperm_program(kernel.blocks)
    elif kernel_name == "MatrixTranspose":
        kernel = TransposeKernel()
        vperm_program = transpose_vperm_program(kernel.n)
    else:
        raise KernelError(
            f"no vperm baseline for {kernel_name!r} (have DotProduct, MatrixTranspose)"
        )
    comparison = kernel.verify()
    vperm_stats = _run_vperm(kernel, vperm_program)
    spu_program, _ = kernel.spu_programs()
    return BaselineResult(
        name=kernel.name,
        mmx=comparison.mmx,
        vperm=vperm_stats,
        spu=comparison.spu,
        mmx_bytes=program_size(kernel.mmx_program()),
        vperm_bytes=program_size(vperm_program),
        spu_bytes=program_size(spu_program),
    )
