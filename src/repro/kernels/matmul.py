"""16×16 16-bit matrix multiply (Table 2's "Matrix Multiply").

Two phases, each a flat SPU-acceleratable loop:

1. **Transpose B** with the Figure 3 unpack-tile scheme (inter-word
   restrictions at work, §2.2) so the inner products read contiguous rows.
2. **Row × row dot products** via ``pmaddwd`` chains: each output element is
   a 16-element dot product — four ``pmaddwd`` against the transposed B row,
   accumulated in 32 bits, horizontally reduced, scaled and saturating-packed
   four at a time.

The addresses of both loops come from precomputed tables, keeping the bodies
branch-free.  Fixed point: entries are bounded so the 32-bit accumulators
cannot wrap (|a|,|b| < 4096 → |acc| < 2²⁸); results are scaled by ``>> 12``
and saturating-packed.
"""

from __future__ import annotations

import numpy as np

from repro.errors import KernelError
from repro.cpu import Machine
from repro.isa import Program, ProgramBuilder
from repro.kernels.base import (
    INPUT_BASE,
    OUTPUT_BASE,
    SCRATCH_BASE,
    TABLE_BASE,
    Kernel,
)

SHIFT = 12

#: Memory layout offsets within the kernel's regions.
A_BASE = INPUT_BASE
B_BASE = INPUT_BASE + 0x800
BT_BASE = SCRATCH_BASE  # transposed B
TILE_TABLE = TABLE_BASE
DOT_TABLE = TABLE_BASE + 0x800


class MatMulKernel(Kernel):
    """C = A × B for N×N int16 matrices (N multiple of 4)."""

    name = "MatrixMultiply"
    description = "16x16 16b Matrix Multiply (Table 2 row 7)"

    def __init__(self, n: int = 16, seed: int = 2004, **kwargs) -> None:
        super().__init__(**kwargs)
        if n % 4 != 0 or n <= 0:
            raise KernelError(f"matrix size must be a positive multiple of 4, got {n}")
        self.n = n
        rng = np.random.default_rng(seed)
        self.a = rng.integers(-4096, 4096, size=(n, n), dtype=np.int16)
        self.b = rng.integers(-4096, 4096, size=(n, n), dtype=np.int16)

    # ---- geometry -----------------------------------------------------------

    @property
    def tiles(self) -> int:
        return (self.n // 4) ** 2

    @property
    def dot_groups(self) -> int:
        """Output groups of four elements."""
        return self.n * self.n // 4

    @property
    def row_groups(self) -> int:
        """Qwords per matrix row."""
        return self.n // 4

    def _tile_table(self) -> np.ndarray:
        row_bytes = 2 * self.n
        entries = []
        for i in range(self.n // 4):
            for j in range(self.n // 4):
                src = B_BASE + (4 * i) * row_bytes + 8 * j
                dst = BT_BASE + (4 * j) * row_bytes + 8 * i
                entries.append((src, dst))
        return np.array(entries, dtype=np.uint32).reshape(-1)

    def _dot_table(self) -> np.ndarray:
        """(A row, BT rows base, C destination) per output group of four."""
        row_bytes = 2 * self.n
        entries = []
        for i in range(self.n):
            for jg in range(self.n // 4):
                a_row = A_BASE + i * row_bytes
                bt_rows = BT_BASE + (4 * jg) * row_bytes
                c_dst = OUTPUT_BASE + i * row_bytes + 8 * jg
                entries.append((a_row, bt_rows, c_dst))
        return np.array(entries, dtype=np.uint32).reshape(-1)

    # ---- program ----------------------------------------------------------------

    def _emit_tile_transpose(self, b: ProgramBuilder, row_bytes: int) -> None:
        """Figure 3 tile body: rows at [r1], columns to [r2]."""
        b.movq("mm0", "[r1]")
        b.movq("mm1", f"[r1+{row_bytes}]")
        b.movq("mm2", f"[r1+{2 * row_bytes}]")
        b.movq("mm3", f"[r1+{3 * row_bytes}]")
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
        b.movq(f"[r2+{row_bytes}]", "mm6")
        b.movq(f"[r2+{2 * row_bytes}]", "mm4")
        b.movq(f"[r2+{3 * row_bytes}]", "mm7")

    def _build(self, tuned: bool):
        """The program, plus (when *tuned*) the dloop microcode specs.

        The tuned variant replaces each horizontal reduction's copy/shift
        pair with one ``paddd`` whose second operand routes the accumulator's
        swapped 32-bit halves — both lanes end up holding the full sum.
        """
        from repro.core import StateSpec, halfword_route

        row = 2 * self.n
        G = self.row_groups
        suffix = "spu-tuned" if tuned else "mmx"
        b = ProgramBuilder(f"{self.name.lower()}-{suffix}")

        # Phase 1: transpose B.
        b.mov("r0", self.tiles)
        b.mov("r10", TILE_TABLE)
        b.label("tloop")
        b.ldw("r1", "[r10]")
        b.ldw("r2", "[r10+4]")
        b.add("r10", 8)
        self._emit_tile_transpose(b, row)
        b.loop("r0", "tloop")

        # Phase 2: dot products.
        swap_halves = halfword_route([(2, 2), (2, 3), (2, 0), (2, 1)])
        specs: list[StateSpec] = []
        b.mov("r0", self.dot_groups)
        b.mov("r10", DOT_TABLE)
        b.label("dloop")
        b.ldw("r1", "[r10]")  # A row
        b.ldw("r2", "[r10+4]")  # four BT rows
        b.ldw("r3", "[r10+8]")  # C destination
        b.add("r10", 12)
        specs.extend([StateSpec()] * 4)
        for j in range(4):  # four output elements of this group
            b.pxor("mm2", "mm2")
            specs.append(StateSpec())
            for g in range(G):
                b.movq("mm3", f"[r1+{8 * g}]")
                b.pmaddwd("mm3", f"[r2+{j * row + 8 * g}]")
                b.paddd("mm2", "mm3")
                specs.extend([StateSpec()] * 3)
            if tuned:
                b.paddd("mm2", "mm3")  # value overridden by the route
                specs.append(StateSpec(routes={1: swap_halves}))
            else:
                b.movq("mm3", "mm2")
                b.psrlq("mm3", 32)
                b.paddd("mm2", "mm3")
                specs.extend([StateSpec()] * 3)
            if j % 2 == 0:
                b.movq("mm0" if j == 0 else "mm1", "mm2")
            else:
                b.punpckldq("mm0" if j == 1 else "mm1", "mm2")
            specs.append(StateSpec())
        b.psrad("mm0", SHIFT)
        b.psrad("mm1", SHIFT)
        b.packssdw("mm0", "mm1")
        b.movq("[r3]", "mm0")
        b.loop("r0", "dloop")
        specs.extend([StateSpec()] * 5)
        b.halt()
        return b.build(), specs

    def build_mmx(self) -> Program:
        program, _ = self._build(tuned=False)
        return program

    def build_spu_tuned(self):
        """SPU-aware recoding (§5.2.2): tile loop auto-off-loaded, dot loop
        hand-routed with the swap-halves horizontal reduction."""
        from repro.core import SPUProgramBuilder, inject_plumbing, offload_loop

        program, specs = self._build(tuned=True)
        tile_report = offload_loop(program, "tloop", self.tiles, self.config)
        builder = SPUProgramBuilder(config=self.config, name=f"{self.name}-tuned-ctl")
        builder.loop(specs, self.dot_groups)
        return inject_plumbing(tile_report.program, ["tloop", "dloop"]), [
            (0, tile_report.spu_program),
            (1, builder.build()),
        ]


    def prepare(self, machine: Machine) -> None:
        machine.memory.write_array(A_BASE, self.a.reshape(-1), np.int16)
        machine.memory.write_array(B_BASE, self.b.reshape(-1), np.int16)
        machine.memory.write_array(TILE_TABLE, self._tile_table(), np.uint32)
        machine.memory.write_array(DOT_TABLE, self._dot_table(), np.uint32)

    def extract(self, machine: Machine) -> np.ndarray:
        flat = machine.memory.read_array(OUTPUT_BASE, self.n * self.n, np.int16)
        return flat.reshape(self.n, self.n)

    def reference(self) -> np.ndarray:
        acc = self.a.astype(np.int64) @ self.b.astype(np.int64)
        wrapped = ((acc + 2**31) % 2**32 - 2**31).astype(np.int64)
        scaled = wrapped >> SHIFT
        return np.clip(scaled, -32768, 32767).astype(np.int16)
