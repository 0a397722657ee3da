"""8×8 two-dimensional DCT (Table 2's "DCT", the 8x8 kernel).

Row-column decomposition: a 1-D 8-point DCT over every row (a small
matrix-vector product via ``pmaddwd`` against the Q12 cosine matrix), a
transpose, a second row pass, and a final transpose.  The two transposes are
pure inter-word data movement — the reason DCT is among the kernels the
paper's unified SPU register helps most (§5.2.3).

Four flat loops → four SPU controller contexts, which the compiler activates
in turn with GO stores (§3's multi-context support).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import KernelError
from repro.cpu import Machine
from repro.isa import Program, ProgramBuilder
from repro.kernels.base import (
    COEFF_BASE,
    INPUT_BASE,
    OUTPUT_BASE,
    SCRATCH_BASE,
    TABLE_BASE,
    Kernel,
)

#: Q-format of the cosine coefficients and the matching output scale.
Q = 12

STAGE1_OUT = SCRATCH_BASE  # rows DCT'd
STAGE2_OUT = SCRATCH_BASE + 0x400  # transposed
STAGE3_OUT = SCRATCH_BASE + 0x800  # rows DCT'd again
TILE_TABLE_1 = TABLE_BASE
TILE_TABLE_2 = TABLE_BASE + 0x200


def dct_matrix_q12() -> np.ndarray:
    """8×8 DCT-II coefficient matrix in Q12 fixed point."""
    c = np.empty((8, 8), dtype=np.int16)
    for u in range(8):
        scale = math.sqrt(1 / 8) if u == 0 else math.sqrt(2 / 8)
        for k in range(8):
            value = scale * math.cos((2 * k + 1) * u * math.pi / 16)
            c[u, k] = int(round(value * (1 << Q)))
    return c


class DCTKernel(Kernel):
    """8×8 DCT via row-column passes with unpack-tile transposes."""

    name = "DCT"
    description = "8x8 Kernel (Table 2 row 6)"

    def __init__(self, blocks: int = 8, seed: int = 2004, **kwargs) -> None:
        super().__init__(**kwargs)
        if not 1 <= blocks <= 8:
            raise KernelError(
                f"blocks must be 1..8 (stage scratch buffers hold 8), got {blocks}"
            )
        self.blocks = blocks
        rng = np.random.default_rng(seed)
        # Pixel-difference-like inputs (DCT blocks in codecs are residuals);
        # IPP's timing harness streams many blocks back to back.
        self.block = rng.integers(-256, 256, size=(blocks, 8, 8), dtype=np.int16)
        self.cos = dct_matrix_q12()

    # ---- address tables ---------------------------------------------------------

    def _tile_table(self, src_base: int, dst_base: int) -> np.ndarray:
        row_bytes = 16
        entries = []
        for block in range(self.blocks):
            offset = 128 * block  # 8x8 int16 block stride
            for i in range(2):
                for j in range(2):
                    src = src_base + offset + (4 * i) * row_bytes + 8 * j
                    dst = dst_base + offset + (4 * j) * row_bytes + 8 * i
                    entries.append((src, dst))
        return np.array(entries, dtype=np.uint32).reshape(-1)

    # ---- program ---------------------------------------------------------------------

    def _emit_row_pass(self, b: ProgramBuilder, label: str, src: int, dst: int) -> None:
        """One 1-D DCT pass over 8 rows: out_row = C × row."""
        b.mov("r0", 8 * self.blocks)
        b.mov("r1", src)
        b.mov("r2", dst)
        b.label(label)
        for u in range(8):
            b.pxor("mm2", "mm2")
            for g in range(2):
                b.movq("mm3", f"[r1+{8 * g}]")
                b.pmaddwd("mm3", f"[{'r3'}+{16 * u + 8 * g}]")
                b.paddd("mm2", "mm3")
            b.movq("mm3", "mm2")
            b.psrlq("mm3", 32)
            b.paddd("mm2", "mm3")
            # Collectors mm0/mm1 keep everything inside config D's window.
            if u % 4 == 0:
                b.movq("mm0", "mm2")
            elif u % 4 == 1:
                b.punpckldq("mm0", "mm2")
            elif u % 4 == 2:
                b.movq("mm1", "mm2")
            else:
                b.punpckldq("mm1", "mm2")
                b.psrad("mm0", Q)
                b.psrad("mm1", Q)
                b.packssdw("mm0", "mm1")
                b.movq(f"[r2+{0 if u < 4 else 8}]", "mm0")
        b.add("r1", 16)
        b.add("r2", 16)
        b.loop("r0", label)

    def _emit_transpose(self, b: ProgramBuilder, label: str, table: int) -> None:
        row = 16
        b.mov("r0", 4 * self.blocks)
        b.mov("r10", table)
        b.label(label)
        b.ldw("r1", "[r10]")
        b.ldw("r2", "[r10+4]")
        b.add("r10", 8)
        b.movq("mm0", "[r1]")
        b.movq("mm1", f"[r1+{row}]")
        b.movq("mm2", f"[r1+{2 * row}]")
        b.movq("mm3", f"[r1+{3 * row}]")
        b.movq("mm4", "mm0")
        b.punpcklwd("mm0", "mm1")
        b.punpckhwd("mm4", "mm1")
        b.movq("mm5", "mm2")
        b.punpcklwd("mm2", "mm3")
        b.punpckhwd("mm5", "mm3")
        b.movq("mm6", "mm0")
        b.punpckldq("mm0", "mm2")
        b.punpckhdq("mm6", "mm2")
        b.movq("mm7", "mm4")
        b.punpckldq("mm4", "mm5")
        b.punpckhdq("mm7", "mm5")
        b.movq("[r2]", "mm0")
        b.movq(f"[r2+{row}]", "mm6")
        b.movq(f"[r2+{2 * row}]", "mm4")
        b.movq(f"[r2+{3 * row}]", "mm7")
        b.loop("r0", label)

    def build_mmx(self) -> Program:
        b = ProgramBuilder(f"{self.name.lower()}-mmx")
        b.mov("r3", COEFF_BASE)
        self._emit_row_pass(b, "rows1", INPUT_BASE, STAGE1_OUT)
        self._emit_transpose(b, "trans1", TILE_TABLE_1)
        self._emit_row_pass(b, "rows2", STAGE2_OUT, STAGE3_OUT)
        self._emit_transpose(b, "trans2", TILE_TABLE_2)
        b.halt()
        return b.build()


    def prepare(self, machine: Machine) -> None:
        machine.memory.write_array(INPUT_BASE, self.block.reshape(-1), np.int16)
        machine.memory.write_array(COEFF_BASE, self.cos.reshape(-1), np.int16)
        machine.memory.write_array(
            TILE_TABLE_1, self._tile_table(STAGE1_OUT, STAGE2_OUT), np.uint32
        )
        machine.memory.write_array(
            TILE_TABLE_2, self._tile_table(STAGE3_OUT, OUTPUT_BASE), np.uint32
        )

    def extract(self, machine: Machine) -> np.ndarray:
        flat = machine.memory.read_array(OUTPUT_BASE, 64 * self.blocks, np.int16)
        return flat.reshape(self.blocks, 8, 8)

    # ---- reference mirror -----------------------------------------------------------

    def _row_pass_fixed(self, rows: np.ndarray) -> np.ndarray:
        """Mirror of one hardware row pass (wrap, >>Q, saturate)."""
        acc = rows.astype(np.int64) @ self.cos.T.astype(np.int64)
        wrapped = ((acc + 2**31) % 2**32 - 2**31).astype(np.int64)
        scaled = wrapped >> Q
        return np.clip(scaled, -32768, 32767).astype(np.int16)

    def reference(self) -> np.ndarray:
        out = np.empty_like(self.block)
        for index in range(self.blocks):
            stage1 = self._row_pass_fixed(self.block[index])
            stage3 = self._row_pass_fixed(stage1.T.copy())
            out[index] = stage3.T
        return out
