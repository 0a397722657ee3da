"""Order-10 IIR filter (Table 2's "IIR": 10 taps, 150-sample blocks).

IIR filters have a serial feedback dependence, so — like the IPP routine the
paper measures — the core runs on the *scalar* pipeline (``imul``-based
multiply-accumulate), and the MMX unit only performs data-format conversion:
a widening pass (16→32 bit, via self-unpack + arithmetic shift) before the
recursion and a saturating narrowing pass (``packssdw``) after it.  That
reproduces the paper's observation that the IPP IIR "does not utilize the
MMX efficiently": almost all of its MMX instructions are permutations
(93.63% in Table 3), and the SPU barely moves the total (§5.2.2).

Stability: feedback coefficients satisfy Σ|a| < 2^SHIFT, so the recursion is
bounded; the 32-bit intermediate never wraps and only the final pack
saturates.
"""

from __future__ import annotations

import numpy as np

from repro.errors import KernelError
from repro.cpu import Machine
from repro.isa import Program, ProgramBuilder
from repro.kernels.base import (
    COEFF_BASE,
    INPUT_BASE,
    OUTPUT_BASE,
    SCRATCH_BASE,
    Kernel,
)

#: Feedback scale: y[n] = (Σ b·x − Σ a·y) >> SHIFT.
SHIFT = 14

X32_BASE = SCRATCH_BASE  # widened input, after `taps` zeros of history
Y32_BASE = SCRATCH_BASE + 0x2000  # 32-bit outputs, after `taps` zeros


class IIRKernel(Kernel):
    """Order-T direct-form-I IIR over N samples (N multiple of 4)."""

    name = "IIR"
    description = "10 TAP, 150 Sample blocks (Table 2 row 3)"

    def __init__(self, taps: int = 10, samples: int = 152, seed: int = 2004, **kwargs) -> None:
        super().__init__(**kwargs)
        if samples % 4 != 0 or samples <= 0:
            raise KernelError(f"sample count must be a positive multiple of 4, got {samples}")
        if taps < 1:
            raise KernelError(f"need at least 1 tap, got {taps}")
        self.taps = taps
        self.samples = samples
        rng = np.random.default_rng(seed)
        self.x = rng.integers(-20000, 20000, size=samples, dtype=np.int16)
        self.b_coeffs = rng.integers(-2000, 2000, size=taps + 1, dtype=np.int32)
        # Σ|a| < 2^SHIFT keeps the recursion stable and the int32 core exact.
        bound = (1 << SHIFT) // (2 * taps)
        self.a_coeffs = rng.integers(-bound, bound, size=taps, dtype=np.int32)

    @property
    def groups(self) -> int:
        return self.samples // 4

    # ---- program -------------------------------------------------------------

    def build_mmx(self) -> Program:
        T = self.taps
        hist_bytes = 4 * T
        b = ProgramBuilder(f"{self.name.lower()}-mmx")

        # Phase 1 (MMX, context 0): widen int16 samples to int32.
        b.mov("r0", self.groups)
        b.mov("r1", INPUT_BASE)
        b.mov("r2", X32_BASE + hist_bytes)
        b.label("widen")
        b.movq("mm0", "[r1]")
        b.movq("mm1", "mm0")
        b.punpcklwd("mm0", "mm0")  # duplicate pairs...
        b.psrad("mm0", 16)  # ...then sign-extend
        b.punpckhwd("mm1", "mm1")
        b.psrad("mm1", 16)
        b.movq("[r2]", "mm0")
        b.movq("[r2+8]", "mm1")
        b.add("r1", 8)
        b.add("r2", 16)
        b.loop("r0", "widen")

        # Phase 2 (scalar): the serial recursion.
        b.mov("r0", self.samples)
        b.mov("r1", X32_BASE + hist_bytes)  # &x32[n]
        b.mov("r2", Y32_BASE + hist_bytes)  # &y32[n]
        b.mov("r3", COEFF_BASE)
        b.label("recur")
        b.mov("r5", 0)
        for k in range(T + 1):  # feedforward Σ b_k x[n-k]
            b.ldw("r6", f"[r1-{4 * k}]" if k else "[r1]")
            b.ldw("r7", f"[r3+{4 * k}]")
            b.imul("r6", "r7")
            b.add("r5", "r6")
        for k in range(1, T + 1):  # feedback Σ a_k y[n-k]
            b.ldw("r6", f"[r2-{4 * k}]")
            b.ldw("r7", f"[r3+{4 * (T + k)}]")
            b.imul("r6", "r7")
            b.sub("r5", "r6")
        b.sar("r5", SHIFT)
        b.stw("[r2]", "r5")
        b.add("r1", 4)
        b.add("r2", 4)
        b.loop("r0", "recur")

        # Phase 3 (MMX): saturating narrow back to int16 (no permutes to off-load).
        b.mov("r0", self.groups)
        b.mov("r1", Y32_BASE + hist_bytes)
        b.mov("r2", OUTPUT_BASE)
        b.label("narrow")
        b.movq("mm0", "[r1]")
        b.packssdw("mm0", "[r1+8]")
        b.movq("[r2]", "mm0")
        b.add("r1", 16)
        b.add("r2", 8)
        b.loop("r0", "narrow")
        b.halt()
        return b.build()


    def prepare(self, machine: Machine) -> None:
        machine.memory.write_array(INPUT_BASE, self.x, np.int16)
        coeffs = np.concatenate([self.b_coeffs, self.a_coeffs]).astype(np.int32)
        machine.memory.write_array(COEFF_BASE, coeffs, np.int32)
        # Zero history for x32/y32 is the power-on memory state already.

    def extract(self, machine: Machine) -> np.ndarray:
        return machine.memory.read_array(OUTPUT_BASE, self.samples, np.int16)

    def reference(self) -> np.ndarray:
        x = self.x.astype(np.int64)
        y32 = np.zeros(self.samples, dtype=np.int64)
        for n in range(self.samples):
            acc = 0
            for k in range(self.taps + 1):
                if n - k >= 0:
                    acc += int(self.b_coeffs[k]) * int(x[n - k])
            for k in range(1, self.taps + 1):
                if n - k >= 0:
                    acc -= int(self.a_coeffs[k - 1]) * int(y32[n - k])
            y32[n] = acc >> SHIFT
        return np.clip(y32, -32768, 32767).astype(np.int16)
