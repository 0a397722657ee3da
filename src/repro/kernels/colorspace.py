"""RGBA → luma (Y) conversion (extension kernel: color-space conversion).

Pixel deinterleaving is the textbook permute-bound media workload: each
RGBA32 pixel's bytes must be widened and dotted with the BT.601-style luma
weights.  Two pixels per iteration: zero-register byte unpacks feed
``pmaddwd`` against the packed weights, horizontal adds fold the partial
sums, and a saturating pack emits two 16-bit Y values.

Like :mod:`repro.kernels.sad`, the widening unpacks are *byte*-granularity:
configuration A/B routes them away, configuration D cannot.
"""

from __future__ import annotations

import numpy as np

from repro.errors import KernelError
from repro.cpu import Machine
from repro.isa import Program, ProgramBuilder
from repro.kernels.base import COEFF_BASE, INPUT_BASE, OUTPUT_BASE, Kernel

#: Q8 luma weights for (R, G, B, A): Y = (66R + 129G + 25B) >> 8.
WEIGHTS = (66, 129, 25, 0)


class ColorSpaceKernel(Kernel):
    """Interleaved RGBA8888 → planar 16-bit luma."""

    name = "ColorSpace"
    description = "RGBA to luma conversion (extension kernel)"

    def __init__(self, pixels: int = 128, seed: int = 2004, **kwargs) -> None:
        super().__init__(**kwargs)
        if pixels % 2 != 0 or pixels <= 0:
            raise KernelError(f"pixel count must be a positive even number, got {pixels}")
        self.pixels = pixels
        rng = np.random.default_rng(seed)
        self.rgba = rng.integers(0, 256, size=(pixels, 4), dtype=np.uint8)

    @property
    def iterations(self) -> int:
        return self.pixels // 2

    def build_mmx(self) -> Program:
        b = ProgramBuilder(f"{self.name.lower()}-mmx")
        b.mov("r0", self.iterations)
        b.mov("r1", INPUT_BASE)
        b.mov("r2", OUTPUT_BASE)
        b.mov("r3", COEFF_BASE)
        b.pxor("mm3", "mm3")  # zero register
        b.label("loop")
        b.movq("mm0", "[r1]")  # R0 G0 B0 A0 R1 G1 B1 A1
        b.movq("mm1", "mm0")
        b.punpcklbw("mm0", "mm3")  # pixel 0 as words
        b.punpckhbw("mm1", "mm3")  # pixel 1 as words
        b.pmaddwd("mm0", "[r3]")  # (66R+129G, 25B+0A)
        b.pmaddwd("mm1", "[r3]")
        # Horizontal add each pair of dwords.
        b.movq("mm2", "mm0")
        b.psrlq("mm2", 32)
        b.paddd("mm0", "mm2")
        b.movq("mm2", "mm1")
        b.psrlq("mm2", 32)
        b.paddd("mm1", "mm2")
        b.punpckldq("mm0", "mm1")  # (y0<<8, y1<<8)
        b.psrad("mm0", 8)
        b.packssdw("mm0", "mm0")  # y0 y1 y0 y1
        b.movd("[r2]", "mm0")  # store two 16-bit lumas
        b.add("r1", 8)
        b.add("r2", 4)
        b.loop("r0", "loop")
        b.halt()
        return b.build()


    def prepare(self, machine: Machine) -> None:
        machine.memory.write_array(INPUT_BASE, self.rgba.reshape(-1), np.uint8)
        machine.memory.write_array(
            COEFF_BASE, np.array(WEIGHTS, dtype=np.int16), np.int16
        )

    def extract(self, machine: Machine) -> np.ndarray:
        return machine.memory.read_array(OUTPUT_BASE, self.pixels, np.int16)

    def reference(self) -> np.ndarray:
        rgba = self.rgba.astype(np.int64)
        weighted = rgba @ np.array(WEIGHTS, dtype=np.int64)
        return (weighted >> 8).astype(np.int16)
