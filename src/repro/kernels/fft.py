"""Radix-2 fixed-point FFT (Table 2's FFT128 / FFT1024).

Decimation-in-time on interleaved 16-bit complex data.  Mirroring the
character the paper measures for IPP's FFT — "neither the FFT or IIR filter
routines from the IPP package utilize the MMX efficiently" (§5.2.2), with
permutations making up ~50% of its (few) MMX instructions (Table 3) — the
kernel vectorizes only the parts that map naturally onto sub-words:

1. a scalar bit-reversal pass (table-driven swaps; one complex value is one
   32-bit word),
2. the size-2 stage in MMX (SPU context 0): both butterfly halves share a
   register, so the *intra-word* restriction forces a shuffle/shift/merge
   dance — the permute-heavy MMX code the SPU absorbs,
3. the remaining stages through a scalar ``imul``-based butterfly loop over
   a precomputed schedule table (twiddles in Q15).

Each stage scales by ½ so magnitudes stay within int16 without saturation in
the scalar core; the size-2 MMX stage uses saturate-then-shift, mirrored
bit-exactly by the NumPy reference.

The paper's benchmark is a *real* FFT; we drive the identical butterfly
datapath with a complex FFT on real-valued input (same sub-word code path).
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
    TABLE_BASE,
    Kernel,
)

#: Twiddle fixed-point format (Q15).
TW_SHIFT = 15

SWAP_TABLE = TABLE_BASE
SCHED_TABLE = TABLE_BASE + 0x4000


def _sat16(value: int) -> int:
    return max(-32768, min(32767, value))


class FFTKernel(Kernel):
    """N-point radix-2 DIT FFT on Q15 complex data (N power of two ≥ 4)."""

    description = "Radix 2 FFT, 16-bit fixed point"

    def __init__(self, n: int = 128, seed: int = 2004, **kwargs) -> None:
        super().__init__(**kwargs)
        if n < 4 or n & (n - 1):
            raise KernelError(f"FFT size must be a power of two >= 4, got {n}")
        self.n = n
        self.name = f"FFT{n}"
        rng = np.random.default_rng(seed)
        # Real-valued input (the paper's benchmark is a real FFT).
        self.x = rng.integers(-20000, 20000, size=n, dtype=np.int16)

    # ---- host-side tables -----------------------------------------------------

    def _bitrev_pairs(self) -> list[tuple[int, int]]:
        bits = self.n.bit_length() - 1
        pairs = []
        for i in range(self.n):
            j = int(f"{i:0{bits}b}"[::-1], 2)
            if i < j:
                pairs.append((i, j))
        return pairs

    def _swap_table(self) -> np.ndarray:
        entries = []
        for i, j in self._bitrev_pairs():
            entries.append((INPUT_BASE + 4 * i, INPUT_BASE + 4 * j))
        return np.array(entries, dtype=np.uint32).reshape(-1)

    def _twiddle(self, k: int, size: int) -> tuple[int, int]:
        angle = 2 * math.pi * k / size
        w_re = int(round(math.cos(angle) * 32767))
        w_im = int(round(-math.sin(angle) * 32767))
        return w_re, w_im

    def _schedule(self) -> tuple[np.ndarray, np.ndarray]:
        """(per-butterfly schedule, twiddle memory) for the scalar stages."""
        sched = []
        twiddles: list[int] = []
        tw_cache: dict[tuple[int, int], int] = {}
        size = 4
        while size <= self.n:
            half = size // 2
            for start in range(0, self.n, size):
                for j in range(half):
                    key = (size, j)
                    if key not in tw_cache:
                        tw_cache[key] = COEFF_BASE + 4 * len(twiddles)
                        twiddles.extend(self._twiddle(j, size))
                    a_addr = INPUT_BASE + 4 * (start + j)
                    b_addr = INPUT_BASE + 4 * (start + j + half)
                    sched.append((a_addr, b_addr, tw_cache[key]))
            size *= 2
        return (
            np.array(sched, dtype=np.uint32).reshape(-1),
            np.array(twiddles, dtype=np.int32),
        )

    @property
    def swap_count(self) -> int:
        return len(self._bitrev_pairs())

    @property
    def butterfly_count(self) -> int:
        """Butterflies in the scalar (size ≥ 4) stages."""
        return (self.n.bit_length() - 2) * self.n // 2

    # ---- program ------------------------------------------------------------------

    def build_mmx(self) -> Program:
        b = ProgramBuilder(f"{self.name.lower()}-mmx")

        # Phase 0 (scalar): bit-reversal permutation.
        b.mov("r0", self.swap_count)
        b.mov("r10", SWAP_TABLE)
        b.label("bitrev")
        b.ldw("r1", "[r10]")
        b.ldw("r2", "[r10+4]")
        b.ldw("r4", "[r1]")
        b.ldw("r5", "[r2]")
        b.stw("[r1]", "r5")
        b.stw("[r2]", "r4")
        b.add("r10", 8)
        b.loop("r0", "bitrev")

        # Phase 1 (MMX, context 0): size-2 stage, two complex per register.
        b.mov("r0", self.n // 2)
        b.mov("r1", INPUT_BASE)
        b.label("stage1")
        b.movq("mm0", "[r1]")  # [ar ai br bi]
        b.pshufw("mm1", "mm0", 0x4E)  # [br bi ar ai]
        b.movq("mm2", "mm0")
        b.paddsw("mm2", "mm1")  # lanes 0,1 = a+b (saturating)
        b.psubsw("mm1", "mm0")  # lanes 2,3 = a-b
        b.psraw("mm2", 1)  # per-stage ½ scaling
        b.psraw("mm1", 1)
        b.psrlq("mm1", 32)  # a-b down to lanes 0,1
        b.punpckldq("mm2", "mm1")  # [a+b, a-b]
        b.movq("[r1]", "mm2")
        b.add("r1", 8)
        b.loop("r0", "stage1")

        # Phase 2 (scalar): remaining stages, IPP-like scalar butterflies.
        b.mov("r0", self.butterfly_count)
        b.mov("r10", SCHED_TABLE)
        b.label("gloop")
        b.ldw("r1", "[r10]")  # a address
        b.ldw("r2", "[r10+4]")  # b address
        b.ldw("r3", "[r10+8]")  # twiddle address: wr, wi (int32)
        b.add("r10", 12)
        b.ldhs("r4", "[r2]")  # br
        b.ldhs("r5", "[r2+2]")  # bi
        b.ldw("r6", "[r3]")  # wr
        b.ldw("r7", "[r3+4]")  # wi
        # t = w*b in Q15
        b.mov("r8", "r4")
        b.imul("r8", "r6")  # br*wr
        b.mov("r9", "r5")
        b.imul("r9", "r7")  # bi*wi
        b.sub("r8", "r9")
        b.sar("r8", TW_SHIFT)  # t_re
        b.mov("r9", "r4")
        b.imul("r9", "r7")  # br*wi
        b.imul("r5", "r6")  # bi*wr
        b.add("r9", "r5")
        b.sar("r9", TW_SHIFT)  # t_im
        # butterflies with ½ scaling (results provably fit int16)
        b.ldhs("r4", "[r1]")  # ar
        b.ldhs("r5", "[r1+2]")  # ai
        b.mov("r6", "r4")
        b.add("r6", "r8")
        b.sar("r6", 1)
        b.sth("[r1]", "r6")
        b.mov("r7", "r5")
        b.add("r7", "r9")
        b.sar("r7", 1)
        b.sth("[r1+2]", "r7")
        b.sub("r4", "r8")
        b.sar("r4", 1)
        b.sth("[r2]", "r4")
        b.sub("r5", "r9")
        b.sar("r5", 1)
        b.sth("[r2+2]", "r5")
        b.loop("r0", "gloop")
        b.halt()
        return b.build()


    def prepare(self, machine: Machine) -> None:
        interleaved = np.zeros(2 * self.n, dtype=np.int16)
        interleaved[0::2] = self.x
        machine.memory.write_array(INPUT_BASE, interleaved, np.int16)
        machine.memory.write_array(SWAP_TABLE, self._swap_table(), np.uint32)
        sched, twiddles = self._schedule()
        machine.memory.write_array(SCHED_TABLE, sched, np.uint32)
        machine.memory.write_array(COEFF_BASE, twiddles, np.int32)

    def extract(self, machine: Machine) -> np.ndarray:
        return machine.memory.read_array(INPUT_BASE, 2 * self.n, np.int16)

    # ---- bit-exact mirror --------------------------------------------------------

    def reference(self) -> np.ndarray:
        re = [0] * self.n
        im = [0] * self.n
        for i, value in enumerate(self.x):
            re[i] = int(value)
        for i, j in self._bitrev_pairs():
            re[i], re[j] = re[j], re[i]
            im[i], im[j] = im[j], im[i]
        # Stage 1: saturate-then-shift (the paddsw/psraw semantics).
        for t in range(0, self.n, 2):
            ar, ai, br, bi = re[t], im[t], re[t + 1], im[t + 1]
            re[t], im[t] = _sat16(ar + br) >> 1, _sat16(ai + bi) >> 1
            re[t + 1], im[t + 1] = _sat16(ar - br) >> 1, _sat16(ai - bi) >> 1
        # Scalar stages: plain wrap-free int32 arithmetic, floor shifts.
        size = 4
        while size <= self.n:
            half = size // 2
            for start in range(0, self.n, size):
                for j in range(half):
                    w_re, w_im = self._twiddle(j, size)
                    a, bidx = start + j, start + j + half
                    br, bi = re[bidx], im[bidx]
                    t_re = (br * w_re - bi * w_im) >> TW_SHIFT
                    t_im = (br * w_im + bi * w_re) >> TW_SHIFT
                    ar, ai = re[a], im[a]
                    re[a], im[a] = (ar + t_re) >> 1, (ai + t_im) >> 1
                    re[bidx], im[bidx] = (ar - t_re) >> 1, (ai - t_im) >> 1
            size *= 2
        out = np.empty(2 * self.n, dtype=np.int16)
        out[0::2] = np.array(re, dtype=np.int64).astype(np.int16)
        out[1::2] = np.array(im, dtype=np.int64).astype(np.int16)
        return out


class FFT128Kernel(FFTKernel):
    """Table 2 row 5: 128-sample radix-2 FFT."""

    def __init__(self, **kwargs) -> None:
        super().__init__(n=128, **kwargs)


class FFT1024Kernel(FFTKernel):
    """Table 2 row 4: 1024-sample radix-2 FFT."""

    def __init__(self, **kwargs) -> None:
        super().__init__(n=1024, **kwargs)
