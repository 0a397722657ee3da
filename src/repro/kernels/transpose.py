"""16×16 16-bit matrix transpose (Table 2's "Matrix Transpose").

The MMX version is the paper's Figure 3 scheme: each 4×4 tile is transposed
with eight merge instructions (two ``punpckl/hwd`` levels into ``punpckl/
hdq``), plus the ``movq`` copies the destructive two-operand forms require.
Inter-word restrictions make this the permute-heaviest kernel of the suite —
with full sub-word addressing a column could be gathered in one instruction
per row (§2.2), which is what the SPU-routed stores achieve.

Tile addresses come from a precomputed table so the body stays branch-free
(one flat loop over the 16 tiles).
"""

from __future__ import annotations

import numpy as np

from repro.errors import KernelError
from repro.cpu import Machine
from repro.isa import Program, ProgramBuilder
from repro.kernels.base import INPUT_BASE, OUTPUT_BASE, TABLE_BASE, Kernel


class TransposeKernel(Kernel):
    """N×N 16-bit transpose via 4×4 unpack tiles (N multiple of 4)."""

    name = "MatrixTranspose"
    description = "16x16 Matrix Transpose, 16-bits (Table 2 row 8)"

    def __init__(self, n: int = 16, seed: int = 2004, **kwargs) -> None:
        super().__init__(**kwargs)
        if n % 4 != 0 or n <= 0:
            raise KernelError(f"transpose size must be a positive multiple of 4, got {n}")
        self.n = n
        rng = np.random.default_rng(seed)
        self.matrix = rng.integers(-30000, 30000, size=(n, n), dtype=np.int16)

    @property
    def tiles(self) -> int:
        return (self.n // 4) ** 2

    def _address_table(self) -> np.ndarray:
        """(src, dst) byte addresses per 4×4 tile."""
        row_bytes = 2 * self.n
        entries = []
        for i in range(self.n // 4):
            for j in range(self.n // 4):
                src = INPUT_BASE + (4 * i) * row_bytes + 8 * j
                dst = OUTPUT_BASE + (4 * j) * row_bytes + 8 * i
                entries.append((src, dst))
        return np.array(entries, dtype=np.uint32).reshape(-1)

    def build_mmx(self) -> Program:
        row = 2 * self.n
        b = ProgramBuilder(f"{self.name.lower()}-mmx")
        b.mov("r0", self.tiles)
        b.mov("r10", TABLE_BASE)
        b.label("loop")
        b.ldw("r1", "[r10]")  # tile source
        b.ldw("r2", "[r10+4]")  # tile destination
        b.add("r10", 8)
        b.movq("mm0", "[r1]")  # row a
        b.movq("mm1", f"[r1+{row}]")  # row b
        b.movq("mm2", f"[r1+{2 * row}]")  # row c
        b.movq("mm3", f"[r1+{3 * row}]")  # row d
        # Figure 3: two unpack levels produce the four columns.
        b.movq("mm4", "mm0")
        b.punpcklwd("mm0", "mm1")  # a0 b0 a1 b1
        b.punpckhwd("mm4", "mm1")  # a2 b2 a3 b3
        b.movq("mm5", "mm2")
        b.punpcklwd("mm2", "mm3")  # c0 d0 c1 d1
        b.punpckhwd("mm5", "mm3")  # c2 d2 c3 d3
        b.movq("mm6", "mm0")
        b.punpckldq("mm0", "mm2")  # a0 b0 c0 d0 = column 0
        b.punpckhdq("mm6", "mm2")  # column 1
        b.movq("mm7", "mm4")
        b.punpckldq("mm4", "mm5")  # column 2
        b.punpckhdq("mm7", "mm5")  # column 3
        b.movq("[r2]", "mm0")
        b.movq(f"[r2+{row}]", "mm6")
        b.movq(f"[r2+{2 * row}]", "mm4")
        b.movq(f"[r2+{3 * row}]", "mm7")
        b.loop("r0", "loop")
        b.halt()
        return b.build()


    def prepare(self, machine: Machine) -> None:
        machine.memory.write_array(INPUT_BASE, self.matrix.reshape(-1), np.int16)
        machine.memory.write_array(TABLE_BASE, self._address_table(), np.uint32)

    def extract(self, machine: Machine) -> np.ndarray:
        flat = machine.memory.read_array(OUTPUT_BASE, self.n * self.n, np.int16)
        return flat.reshape(self.n, self.n)

    def reference(self) -> np.ndarray:
        return self.matrix.T.copy()
