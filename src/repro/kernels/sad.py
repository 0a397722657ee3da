"""Sum of absolute differences (extension kernel: motion estimation).

Video encoders compare candidate blocks with SAD — a canonical MMX byte
kernel built from the ``psubusb``/``por`` absolute-difference idiom and
zero-register ``punpckl/hbw`` widening.  Not part of the paper's Table 2,
but exactly the media workload class its introduction motivates, and the
cleanest demonstration of *byte-granularity* interconnect value: the
widening unpacks route only under configurations A/B (8-bit ports), not
under the cheaper 16-bit configuration D.
"""

from __future__ import annotations

import numpy as np

from repro.errors import KernelError
from repro.cpu import Machine
from repro.isa import Program, ProgramBuilder
from repro.kernels.base import COEFF_BASE, INPUT_BASE, OUTPUT_BASE, Kernel

A_BASE = INPUT_BASE
B_BASE = INPUT_BASE + 0x800


class SADKernel(Kernel):
    """SAD of two pixel blocks (uint8), 8 pixels per iteration."""

    name = "SAD"
    description = "16x16 block sum of absolute differences (extension kernel)"

    def __init__(self, pixels: int = 256, seed: int = 2004, **kwargs) -> None:
        super().__init__(**kwargs)
        if pixels % 8 != 0 or pixels <= 0:
            raise KernelError(f"pixel count must be a positive multiple of 8, got {pixels}")
        if pixels > 2048:
            raise KernelError("word accumulators overflow beyond 2048 pixels")
        self.pixels = pixels
        rng = np.random.default_rng(seed)
        self.block_a = rng.integers(0, 256, size=pixels, dtype=np.uint8)
        self.block_b = rng.integers(0, 256, size=pixels, dtype=np.uint8)

    @property
    def groups(self) -> int:
        return self.pixels // 8

    def build_mmx(self) -> Program:
        b = ProgramBuilder(f"{self.name.lower()}-mmx")
        b.mov("r0", self.groups)
        b.mov("r1", A_BASE)
        b.mov("r2", B_BASE)
        b.pxor("mm2", "mm2")  # word accumulator
        b.pxor("mm3", "mm3")  # zero register for the widening unpacks
        b.label("loop")
        b.movq("mm0", "[r1]")
        b.movq("mm1", "[r2]")
        b.psubusb("mm0", "[r2]")  # max(a-b, 0)
        b.psubusb("mm1", "[r1]")  # max(b-a, 0)
        b.por("mm0", "mm1")  # |a-b| per byte
        b.movq("mm1", "mm0")
        b.punpcklbw("mm0", "mm3")  # widen low 4 bytes to words
        b.punpckhbw("mm1", "mm3")  # widen high 4 bytes
        b.paddw("mm0", "mm1")
        b.paddw("mm2", "mm0")
        b.add("r1", 8)
        b.add("r2", 8)
        b.loop("r0", "loop")
        # Epilogue: reduce the four word lanes to one scalar.
        b.pmaddwd("mm2", "[r3]")  # dot with (1,1,1,1)
        b.movq("mm1", "mm2")
        b.psrlq("mm1", 32)
        b.paddd("mm2", "mm1")
        b.movd("r5", "mm2")
        b.mov("r6", OUTPUT_BASE)
        b.stw("[r6]", "r5")
        b.halt()
        return b.build()


    def prepare(self, machine: Machine) -> None:
        machine.memory.write_array(A_BASE, self.block_a, np.uint8)
        machine.memory.write_array(B_BASE, self.block_b, np.uint8)
        machine.memory.write_array(COEFF_BASE, np.ones(4, dtype=np.int16), np.int16)
        machine.state.write(__import__("repro.isa", fromlist=["R"]).R[3], COEFF_BASE)

    def extract(self, machine: Machine) -> np.ndarray:
        return np.array([machine.memory.load(OUTPUT_BASE, 4)], dtype=np.uint32)

    def reference(self) -> np.ndarray:
        diff = np.abs(self.block_a.astype(np.int64) - self.block_b.astype(np.int64))
        return np.array([diff.sum()], dtype=np.uint32)
