"""Block FIR filters (Table 2's FIR12 / FIR22: 12/22 taps, 150-sample blocks).

The MMX code follows the IPP strategy the paper describes (§5.2.2): "The FIR
filters for the MMX try to avoid many sub-word permutes ... by having
multiple copies of the filter coefficients ... where each copy of
coefficients are offset by one sub word" — at the cost of register-file
pressure and extra memory.  Four *coefficient banks*, each the reversed tap
vector shifted by one more sub-word of zero padding, let one aligned sample
window serve all four output phases of a block, so the only remaining
permutes are the horizontal-sum reductions.  Consequently the SPU helps FIR
only modestly — the paper measures ≈8%.

Fixed point: Q15-style — 32-bit wrapping accumulation (``paddd``), arithmetic
scale (``psrad``) and a saturating pack (``packssdw``).
"""

from __future__ import annotations

import numpy as np

from repro.errors import KernelError
from repro.cpu import Machine
from repro.isa import Program, ProgramBuilder
from repro.kernels.base import COEFF_BASE, INPUT_BASE, OUTPUT_BASE, Kernel

#: Output scale shift (coefficients are Q-scaled by the workload generator).
SHIFT = 12


def _wrap32(values: np.ndarray) -> np.ndarray:
    """Wrap int64 sums to int32 two's complement (the paddd semantics)."""
    return ((values + 2**31) % 2**32 - 2**31).astype(np.int64)


class FIRKernel(Kernel):
    """T-tap block FIR over N samples, four outputs per iteration."""

    description = "Block FIR with sub-word-offset coefficient banks"

    def __init__(self, taps: int, samples: int = 152, seed: int = 2004, **kwargs) -> None:
        super().__init__(**kwargs)
        if taps < 2:
            raise KernelError(f"need at least 2 taps, got {taps}")
        if samples % 4 != 0 or samples <= 0:
            raise KernelError(f"sample count must be a positive multiple of 4, got {samples}")
        self.taps = taps
        self.samples = samples
        self.name = f"FIR{taps}"
        rng = np.random.default_rng(seed)
        self.x = rng.integers(-20000, 20000, size=samples, dtype=np.int16)
        self.coeffs = rng.integers(-2000, 2000, size=taps, dtype=np.int16)

    # ---- geometry ---------------------------------------------------------

    @property
    def bank_len(self) -> int:
        """Bank length L: reversed taps + up to 3 phase-offset zeros, padded."""
        return 4 * ((self.taps + 3 + 3) // 4)

    @property
    def groups(self) -> int:
        """Sample groups (qwords) per block window."""
        return self.bank_len // 4

    @property
    def blocks(self) -> int:
        return self.samples // 4

    def _banks(self) -> np.ndarray:
        """Four phase banks: bank_a[m] = c_reversed[m - a], zero elsewhere."""
        reversed_taps = self.coeffs[::-1].astype(np.int16)
        banks = np.zeros((4, self.bank_len), dtype=np.int16)
        for phase in range(4):
            banks[phase, phase : phase + self.taps] = reversed_taps
        return banks.reshape(-1)

    def _xbuf(self) -> np.ndarray:
        """Input with T-1 zeros of history prepended (plus tail padding)."""
        pad_tail = self.bank_len  # safe margin for the last window
        buf = np.zeros(self.taps - 1 + self.samples + pad_tail, dtype=np.int16)
        buf[self.taps - 1 : self.taps - 1 + self.samples] = self.x
        return buf

    # ---- program ----------------------------------------------------------

    def build_mmx(self) -> Program:
        G = self.groups
        b = ProgramBuilder(f"{self.name.lower()}-mmx")
        b.mov("r0", self.blocks)
        b.mov("r1", INPUT_BASE)  # &xbuf[n]
        b.mov("r2", OUTPUT_BASE)
        b.mov("r3", COEFF_BASE)
        b.label("loop")
        # Registers stay within MM0..MM3 — config D's input window (§5.1.1:
        # every paper kernel fits configuration D).
        for phase in range(4):
            b.pxor("mm2", "mm2")
            for group in range(G):
                b.movq("mm3", f"[r1+{8 * group}]")
                b.pmaddwd("mm3", f"[r3+{8 * (phase * G + group)}]")
                b.paddd("mm2", "mm3")
            # Horizontal sum: lane0 += lane1 (mm3 is free after the last group).
            b.movq("mm3", "mm2")
            b.psrlq("mm3", 32)
            b.paddd("mm2", "mm3")
            if phase % 2 == 0:
                b.movq("mm0" if phase == 0 else "mm1", "mm2")
            else:
                b.punpckldq("mm0" if phase == 1 else "mm1", "mm2")
        b.psrad("mm0", SHIFT)
        b.psrad("mm1", SHIFT)
        b.packssdw("mm0", "mm1")
        b.movq("[r2]", "mm0")
        b.add("r1", 8)
        b.add("r2", 8)
        b.loop("r0", "loop")
        b.halt()
        return b.build()


    def build_spu_tuned(self):
        """SPU-aware recoding (§5.2.2's 'if the code was reworked' remark).

        The automatic pass keeps the ``psrlq`` of each horizontal reduction
        because removing it would make the following ``paddd`` consume
        shifted-in zeros.  A programmer who *knows* the SPU routes both
        operands writes the reduction as a single ``paddd`` whose second
        operand is the accumulator with its 32-bit halves swapped — both
        result lanes then hold the full sum and the copy/shift pair
        disappears, two instructions per phase instead of one.
        """
        from repro.core import (
            SPUProgramBuilder,
            StateSpec,
            halfword_route,
            inject_plumbing,
        )

        G = self.groups
        b = ProgramBuilder(f"{self.name.lower()}-spu-tuned")
        b.mov("r0", self.blocks)
        b.mov("r1", INPUT_BASE)
        b.mov("r2", OUTPUT_BASE)
        b.mov("r3", COEFF_BASE)
        specs: list[StateSpec] = []
        # acc(mm2) + swapped-halves(mm2): lane0 = l0+l1, lane1 = l1+l0.
        swap_halves = halfword_route([(2, 2), (2, 3), (2, 0), (2, 1)])
        b.label("loop")
        for phase in range(4):
            b.pxor("mm2", "mm2")
            specs.append(StateSpec())
            for group in range(G):
                b.movq("mm3", f"[r1+{8 * group}]")
                b.pmaddwd("mm3", f"[r3+{8 * (phase * G + group)}]")
                b.paddd("mm2", "mm3")
                specs.extend([StateSpec(), StateSpec(), StateSpec()])
            b.paddd("mm2", "mm3")  # mm3's value is overridden by the route
            specs.append(StateSpec(routes={1: swap_halves}))
            if phase % 2 == 0:
                b.movq("mm0" if phase == 0 else "mm1", "mm2")
            else:
                b.punpckldq("mm0" if phase == 1 else "mm1", "mm2")
            specs.append(StateSpec())
        b.psrad("mm0", SHIFT)
        b.psrad("mm1", SHIFT)
        b.packssdw("mm0", "mm1")
        b.movq("[r2]", "mm0")
        b.add("r1", 8)
        b.add("r2", 8)
        b.loop("r0", "loop")
        b.halt()
        specs.extend([StateSpec()] * 7)

        builder = SPUProgramBuilder(config=self.config, name=f"{self.name}-tuned-ctl")
        builder.loop(specs, self.blocks)
        return inject_plumbing(b.build(), ["loop"]), [(0, builder.build())]

    def prepare(self, machine: Machine) -> None:
        machine.memory.write_array(INPUT_BASE, self._xbuf(), np.int16)
        machine.memory.write_array(COEFF_BASE, self._banks(), np.int16)

    def extract(self, machine: Machine) -> np.ndarray:
        return machine.memory.read_array(OUTPUT_BASE, self.samples, np.int16)

    def reference(self) -> np.ndarray:
        """Fixed-point mirror: wrapping 32-bit sums, psrad, saturating pack."""
        xbuf = self._xbuf().astype(np.int64)
        reversed_taps = self.coeffs[::-1].astype(np.int64)
        out = np.empty(self.samples, dtype=np.int16)
        for n in range(self.samples):
            window = xbuf[n : n + self.taps]
            acc = _wrap32(np.array([np.sum(window * reversed_taps)]))[0]
            scaled = int(acc) >> SHIFT
            out[n] = np.int16(max(-32768, min(32767, scaled)))
        return out


class FIR12Kernel(FIRKernel):
    """Table 2 row 1: 12 taps, 150-sample blocks (rounded to 152 for packing)."""

    def __init__(self, samples: int = 152, **kwargs) -> None:
        super().__init__(taps=12, samples=samples, **kwargs)


class FIR22Kernel(FIRKernel):
    """Table 2 row 2: 22 taps, 150-sample blocks (rounded to 152 for packing)."""

    def __init__(self, samples: int = 152, **kwargs) -> None:
        super().__init__(taps=22, samples=samples, **kwargs)
