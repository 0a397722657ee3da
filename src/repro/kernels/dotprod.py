"""The paper's §4 running example: sub-word dot-product products.

Memory holds pairs of 4-element 16-bit vectors ``(a,b,c,d)`` / ``(e,f,g,h)``;
each iteration computes the products ``a*c, e*g, b*d, f*h`` (both high and
low 16-bit halves, via ``pmulhw``/``pmullw``).  The MMX version realigns the
sub-words with ``punpckhwd``/``punpcklwd`` each iteration — exactly the two
instructions the paper's example off-loads onto the SPU.
"""

from __future__ import annotations

import numpy as np

from repro.cpu import Machine
from repro.isa import Program, ProgramBuilder
from repro.kernels.base import INPUT_BASE, OUTPUT_BASE, Kernel


class DotProductKernel(Kernel):
    """§4's dot-product loop (not part of Table 2; used for the quickstart)."""

    name = "DotProduct"
    description = "Paper §4 example: packed products with sub-word realignment"

    def __init__(self, blocks: int = 16, seed: int = 2004, **kwargs) -> None:
        super().__init__(**kwargs)
        self.blocks = blocks
        rng = np.random.default_rng(seed)
        self.data = rng.integers(-2000, 2000, size=8 * blocks, dtype=np.int16)

    def build_mmx(self) -> Program:
        b = ProgramBuilder(f"{self.name.lower()}-mmx")
        b.mov("r0", self.blocks)
        b.mov("r1", INPUT_BASE)
        b.mov("r2", OUTPUT_BASE)
        b.label("loop")
        b.movq("mm0", "[r1]")  # a b c d
        b.movq("mm1", "[r1+8]")  # e f g h
        b.movq("mm2", "mm0")
        b.punpckhwd("mm2", "mm1")  # c g d h
        b.punpcklwd("mm0", "mm1")  # a e b f
        b.movq("mm3", "mm0")
        b.pmulhw("mm3", "mm2")  # high halves of a*c, e*g, b*d, f*h
        b.pmullw("mm0", "mm2")  # low halves
        b.movq("[r2]", "mm3")
        b.movq("[r2+8]", "mm0")
        b.add("r1", 16)
        b.add("r2", 16)
        b.loop("r0", "loop")
        b.halt()
        return b.build()


    def prepare(self, machine: Machine) -> None:
        machine.memory.write_array(INPUT_BASE, self.data, np.int16)

    def extract(self, machine: Machine) -> np.ndarray:
        return machine.memory.read_array(OUTPUT_BASE, 8 * self.blocks, np.int16)

    def reference(self) -> np.ndarray:
        data = self.data.astype(np.int64).reshape(self.blocks, 8)
        x, y = data[:, :4], data[:, 4:]
        # operand order after the unpacks: (a,e,b,f) * (c,g,d,h)
        lhs = np.stack([x[:, 0], y[:, 0], x[:, 1], y[:, 1]], axis=1)
        rhs = np.stack([x[:, 2], y[:, 2], x[:, 3], y[:, 3]], axis=1)
        products = lhs * rhs
        high = (products >> 16).astype(np.int16)
        low = (products & 0xFFFF).astype(np.uint16).astype(np.int16)
        return np.concatenate([high, low], axis=1).reshape(-1)
