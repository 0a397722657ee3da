#!/usr/bin/env python3
"""Scenario: bringing your own kernel to the SPU framework.

Implements an alpha-blend (``out = (a*α + b*(256-α)) >> 8``) as a new
:class:`repro.kernels.Kernel` subclass: write the loop in plain MMX with the
program builder and provide a NumPy fixed-point mirror — and the framework
gives you bit-exact verification, the automatic SPU off-load of every counted
loop (GO stores included), the cycle comparison and the microcode dump for
free.

Run:  python examples/custom_kernel.py
"""

import numpy as np

from repro.core import render_program
from repro.isa import Program, ProgramBuilder
from repro.kernels import Kernel
from repro.kernels.base import COEFF_BASE, INPUT_BASE, OUTPUT_BASE

A_BASE = INPUT_BASE
B_BASE = INPUT_BASE + 0x400


class AlphaBlendKernel(Kernel):
    """Blend two 16-bit sample streams with a constant alpha (Q8)."""

    name = "AlphaBlend"
    description = "out = (a*alpha + b*(256-alpha)) >> 8, four samples/iteration"

    def __init__(self, samples: int = 64, alpha: int = 96, seed: int = 11, **kwargs):
        super().__init__(**kwargs)
        assert samples % 4 == 0 and 0 <= alpha <= 256
        self.samples = samples
        self.alpha = alpha
        rng = np.random.default_rng(seed)
        self.a = rng.integers(-8000, 8000, size=samples, dtype=np.int16)
        self.b = rng.integers(-8000, 8000, size=samples, dtype=np.int16)

    def build_mmx(self) -> Program:
        b = ProgramBuilder("alphablend-mmx")
        b.mov("r0", self.samples // 4)
        b.mov("r1", A_BASE)
        b.mov("r2", B_BASE)
        b.mov("r3", OUTPUT_BASE)
        b.label("loop")
        # Interleave (a_i, b_i) pairs so one pmaddwd per pair computes
        # a*alpha + b*(256-alpha) — the intra-word realignment the SPU eats.
        b.movq("mm0", "[r1]")  # a0 a1 a2 a3
        b.movq("mm1", "[r2]")  # b0 b1 b2 b3
        b.movq("mm2", "mm0")
        b.punpcklwd("mm0", "mm1")  # a0 b0 a1 b1
        b.punpckhwd("mm2", "mm1")  # a2 b2 a3 b3
        b.pmaddwd("mm0", "[r4]")  # (a0*w + b0*w', a1*w + b1*w')  [r4 = weights]
        b.pmaddwd("mm2", "[r4]")
        b.psrad("mm0", 8)
        b.psrad("mm2", 8)
        b.packssdw("mm0", "mm2")  # four blended samples
        b.movq("[r3]", "mm0")
        b.add("r1", 8)
        b.add("r2", 8)
        b.add("r3", 8)
        b.loop("r0", "loop")
        b.halt()
        return b.build()

    def prepare(self, machine) -> None:
        machine.memory.write_array(A_BASE, self.a, np.int16)
        machine.memory.write_array(B_BASE, self.b, np.int16)
        weights = np.array([self.alpha, 256 - self.alpha], dtype=np.int16)
        machine.memory.write_array(COEFF_BASE, np.tile(weights, 2), np.int16)
        from repro.isa import R
        machine.state.write(R[4], COEFF_BASE)

    def extract(self, machine) -> np.ndarray:
        return machine.memory.read_array(OUTPUT_BASE, self.samples, np.int16)

    def reference(self) -> np.ndarray:
        blended = (
            self.a.astype(np.int64) * self.alpha
            + self.b.astype(np.int64) * (256 - self.alpha)
        ) >> 8
        return np.clip(blended, -32768, 32767).astype(np.int16)


def main() -> None:
    kernel = AlphaBlendKernel()
    comparison = kernel.verify()
    print("AlphaBlend: MMX and MMX+SPU match the NumPy mirror bit-exactly.")

    print(f"cycles: MMX {comparison.mmx.cycles} -> SPU {comparison.spu.cycles} "
          f"(speedup {comparison.speedup:.3f}x, "
          f"{comparison.removed_permutes} permutes off-loaded automatically)")

    _, controller_programs = kernel.spu_programs()
    print("\nGenerated controller microcode:")
    print(render_program(controller_programs[0][1]))


if __name__ == "__main__":
    main()
