"""Matrix-vector multiply (extension kernel; named in §2.2).

"Typically, inter-word restrictions occur in multi-dimensional signal
processing that involves matrix manipulations like transposing a matrix or
multiplying a matrix with a vector."  Smart-antenna style beamforming
(§5.2.3's "next generation of communications applications") is y = A·x on
short fixed-point vectors; the MMX code is ``pmaddwd`` row dot products
with the same horizontal-reduction permutes the SPU absorbs.
"""

from __future__ import annotations

import numpy as np

from repro.errors import KernelError
from repro.cpu import Machine
from repro.isa import Program, ProgramBuilder
from repro.kernels.base import COEFF_BASE, INPUT_BASE, OUTPUT_BASE, Kernel

SHIFT = 12

A_BASE = INPUT_BASE
X_BASE = COEFF_BASE


class MatVecKernel(Kernel):
    """y = A·x for an N×N int16 matrix and int16 vector (N multiple of 4)."""

    name = "MatrixVector"
    description = "NxN 16b matrix-vector multiply (extension kernel, §2.2)"

    def __init__(self, n: int = 16, seed: int = 2004, **kwargs) -> None:
        super().__init__(**kwargs)
        if n % 4 != 0 or n <= 0:
            raise KernelError(f"size must be a positive multiple of 4, got {n}")
        self.n = n
        rng = np.random.default_rng(seed)
        self.a = rng.integers(-4096, 4096, size=(n, n), dtype=np.int16)
        self.x = rng.integers(-4096, 4096, size=n, dtype=np.int16)

    @property
    def row_groups(self) -> int:
        return self.n // 4

    @property
    def output_groups(self) -> int:
        return self.n // 4

    def build_mmx(self) -> Program:
        G = self.row_groups
        row_bytes = 2 * self.n
        b = ProgramBuilder(f"{self.name.lower()}-mmx")
        b.mov("r0", self.output_groups)
        b.mov("r1", A_BASE)  # current row
        b.mov("r2", OUTPUT_BASE)
        b.mov("r3", X_BASE)
        b.label("loop")
        for j in range(4):  # four outputs per iteration
            b.pxor("mm2", "mm2")
            for g in range(G):
                b.movq("mm3", f"[r1+{j * row_bytes + 8 * g}]")
                b.pmaddwd("mm3", f"[r3+{8 * g}]")
                b.paddd("mm2", "mm3")
            b.movq("mm3", "mm2")
            b.psrlq("mm3", 32)
            b.paddd("mm2", "mm3")
            if j % 2 == 0:
                b.movq("mm0" if j == 0 else "mm1", "mm2")
            else:
                b.punpckldq("mm0" if j == 1 else "mm1", "mm2")
        b.psrad("mm0", SHIFT)
        b.psrad("mm1", SHIFT)
        b.packssdw("mm0", "mm1")
        b.movq("[r2]", "mm0")
        b.add("r1", 4 * row_bytes)
        b.add("r2", 8)
        b.loop("r0", "loop")
        b.halt()
        return b.build()


    def prepare(self, machine: Machine) -> None:
        machine.memory.write_array(A_BASE, self.a.reshape(-1), np.int16)
        machine.memory.write_array(X_BASE, self.x, np.int16)

    def extract(self, machine: Machine) -> np.ndarray:
        return machine.memory.read_array(OUTPUT_BASE, self.n, np.int16)

    def reference(self) -> np.ndarray:
        acc = self.a.astype(np.int64) @ self.x.astype(np.int64)
        wrapped = ((acc + 2**31) % 2**32 - 2**31).astype(np.int64)
        return np.clip(wrapped >> SHIFT, -32768, 32767).astype(np.int16)
