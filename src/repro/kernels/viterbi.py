"""Viterbi decoder ACS kernel (extension; named in the paper's intro, §1).

"These applications operate on smaller data types ... common in Viterbi
decoding, FIR filters, FFT, LDPC decoders."  A rate-1/2, constraint-length-3
convolutional decoder has four trellis states whose path metrics fit one MMX
register as 16-bit lanes — and the add-compare-select butterfly needs the
old metrics *rearranged twice per symbol* (predecessor gathers), the classic
intra-word restriction:

    A = metrics[0,0,1,1]   (predecessor n>>1 of next-state n)
    B = metrics[2,2,3,3]   (predecessor (n>>1)|2)
    new[n] = min(A[n]+bmA[n], B[n]+bmB[n]);  survivor[n] = which side won

The two ``pshufw`` gathers and the copies around the compare are exactly
what the SPU absorbs.  A scalar traceback loop (branchless, mask-indexed)
recovers the decoded bits, diluting MMX utilization realistically.

Fixed point: metrics are saturating int16 (``paddsw``/``pminsw``); branch
metrics are scaled Hamming distances, small enough that no saturation occurs
at the default workload size — and the NumPy mirror reproduces the lane
semantics exactly regardless.
"""

from __future__ import annotations

import numpy as np

from repro.errors import KernelError
from repro.cpu import Machine
from repro.isa import Program, ProgramBuilder
from repro.kernels.base import COEFF_BASE, INPUT_BASE, OUTPUT_BASE, Kernel

#: Branch-metric scale (Hamming distance 0..2 per symbol × 64).
BM_SCALE = 64

#: Initial path metrics: state 0 known, others penalized.
INITIAL_METRICS = (0, 8000, 8000, 8000)

SURVIVOR_BASE = OUTPUT_BASE  # one qword of lane masks per symbol
# decoded bits (one 16-bit word per bit) follow the survivors
METRICS_OUT = COEFF_BASE + 0x800  # final metrics, for verification

#: pshufw orders for the predecessor gathers.
ORDER_A = 0x50  # lanes [0,0,1,1]
ORDER_B = 0xFA  # lanes [2,2,3,3]


def convolutional_encode(bits: np.ndarray) -> np.ndarray:
    """Rate-1/2, K=3 encoder with generators (7, 5) octal; returns symbols 0-3."""
    state = 0
    symbols = []
    for bit in bits:
        bit = int(bit)
        reg = (bit << 2) | state  # [newest, s1, s0]
        out0 = ((reg >> 2) ^ (reg >> 1) ^ reg) & 1  # 111
        out1 = ((reg >> 2) ^ reg) & 1  # 101
        symbols.append((out0 << 1) | out1)
        state = ((state << 1) | bit) & 3
    return np.array(symbols, dtype=np.uint8)


def _expected_symbol(prev_state: int, bit: int) -> int:
    reg = (bit << 2) | prev_state
    out0 = ((reg >> 2) ^ (reg >> 1) ^ reg) & 1
    out1 = ((reg >> 2) ^ reg) & 1
    return (out0 << 1) | out1


def _hamming2(a: int, b: int) -> int:
    return bin((a ^ b) & 3).count("1")


class ViterbiKernel(Kernel):
    """K=3 rate-1/2 Viterbi: vectorized ACS + scalar traceback."""

    name = "Viterbi"
    description = "K=3 rate-1/2 Viterbi decode (extension kernel, §1)"

    def __init__(self, nbits: int = 64, seed: int = 2004, flips: int = 3, **kwargs) -> None:
        super().__init__(**kwargs)
        if nbits < 4:
            raise KernelError(f"need at least 4 bits, got {nbits}")
        if nbits * 2 * BM_SCALE + max(INITIAL_METRICS) > 32000:
            raise KernelError("workload long enough to saturate the metrics")
        self.nbits = nbits
        rng = np.random.default_rng(seed)
        self.tx_bits = rng.integers(0, 2, size=nbits, dtype=np.uint8)
        symbols = convolutional_encode(self.tx_bits)
        # Channel: flip some symbol bits (errors the decoder must correct).
        noisy = symbols.copy()
        for index in rng.choice(nbits, size=min(flips, nbits), replace=False):
            noisy[index] ^= 1 << int(rng.integers(0, 2))
        self.rx_symbols = noisy

    # ---- branch-metric tables -----------------------------------------------
    #
    # Transition structure: the state update is s' = ((s<<1)|bit)&3, so a
    # next-state n encodes its input bit in its low bit, and its two
    # predecessors are p0 = n>>1 and p1 = (n>>1)|2 — the butterfly the two
    # pshufw gathers implement.

    def _branch_metrics(self) -> np.ndarray:
        """Per received symbol: bmA[4] then bmB[4] (int16, Hamming × scale)."""
        rows = []
        for symbol in self.rx_symbols:
            bm_a = []
            bm_b = []
            for next_state in range(4):
                bit = next_state & 1
                p0 = next_state >> 1
                p1 = (next_state >> 1) | 2
                bm_a.append(_hamming2(_expected_symbol(p0, bit), int(symbol)) * BM_SCALE)
                bm_b.append(_hamming2(_expected_symbol(p1, bit), int(symbol)) * BM_SCALE)
            rows.append(bm_a + bm_b)
        return np.array(rows, dtype=np.int16).reshape(-1)

    # ---- program -----------------------------------------------------------------

    def build_mmx(self) -> Program:
        n = self.nbits
        decoded_base = SURVIVOR_BASE + 8 * n
        b = ProgramBuilder(f"{self.name.lower()}-mmx")
        # mm0 = path metrics, preloaded by prepare().
        b.mov("r0", n)
        b.mov("r1", COEFF_BASE)  # branch-metric table
        b.mov("r3", SURVIVOR_BASE)
        b.label("acs")
        # Predecessor gathers: the intra-word shuffles the SPU removes.
        b.pshufw("mm1", "mm0", ORDER_A)  # A = metrics[0,0,1,1]
        b.pshufw("mm0", "mm0", ORDER_B)  # B = metrics[2,2,3,3]
        b.paddsw("mm1", "[r1]")  # A + bmA
        b.paddsw("mm0", "[r1+8]")  # B + bmB
        b.movq("mm2", "mm1")
        b.pcmpgtw("mm2", "mm0")  # mask: B path strictly better
        b.movq("[r3]", "mm2")  # survivors for the traceback
        b.pminsw("mm1", "mm0")  # selected metrics
        b.movq("mm0", "mm1")  # metrics live into the next iteration
        b.add("r1", 16)
        b.add("r3", 8)
        b.loop("r0", "acs")
        b.mov("r4", METRICS_OUT)
        b.movq("[r4]", "mm0")  # final metrics, for verification

        # Scalar traceback (branchless): start from state 0 (the encoder is
        # flushed conceptually; with distinct metrics the test uses argmin in
        # the mirror identically).
        b.mov("r5", 0)  # current state
        b.mov("r0", n)
        b.mov("r3", SURVIVOR_BASE + 8 * (n - 1))  # last survivor qword
        b.mov("r2", decoded_base + 2 * (n - 1))  # last decoded-bit slot
        b.label("trace")
        b.mov("r6", "r5")
        b.and_("r6", 1)  # decoded bit = state low bit
        b.sth("[r2]", "r6")
        b.mov("r7", "r5")
        b.shl("r7", 1)  # state*2 = lane byte offset
        b.add("r7", "r3")
        b.ldh("r8", "[r7]")  # survivor mask lane for this state
        b.and_("r8", 2)  # 0xFFFF -> 2, 0 -> 0
        b.mov("r6", "r5")
        b.shr("r6", 1)
        b.or_("r6", "r8")  # predecessor = (state>>1) | (mask & 2)
        b.mov("r5", "r6")
        b.sub("r3", 8)
        b.sub("r2", 2)
        b.loop("r0", "trace")
        b.halt()
        return b.build()


    def prepare(self, machine: Machine) -> None:
        from repro import simd
        from repro.isa import MM

        machine.memory.write_array(COEFF_BASE, self._branch_metrics(), np.int16)
        machine.state.write(MM[0], simd.join(list(INITIAL_METRICS), 16))

    def extract(self, machine: Machine) -> np.ndarray:
        decoded_base = SURVIVOR_BASE + 8 * self.nbits
        survivors = machine.memory.read_array(SURVIVOR_BASE, 4 * self.nbits, np.uint16)
        bits = machine.memory.read_array(decoded_base, self.nbits, np.uint16)
        metrics = machine.memory.read_array(METRICS_OUT, 4, np.int16)
        return np.concatenate([
            survivors.astype(np.int64), bits.astype(np.int64),
            metrics.astype(np.int64),
        ])

    # ---- mirror ----------------------------------------------------------------------

    def reference(self) -> np.ndarray:
        metrics = np.array(INITIAL_METRICS, dtype=np.int64)
        table = self._branch_metrics().reshape(self.nbits, 8).astype(np.int64)
        survivors = np.zeros((self.nbits, 4), dtype=np.uint16)
        sat = lambda v: np.clip(v, -32768, 32767)
        for t in range(self.nbits):
            a = sat(metrics[[0, 0, 1, 1]] + table[t, :4])
            b = sat(metrics[[2, 2, 3, 3]] + table[t, 4:])
            survivors[t] = np.where(a > b, 0xFFFF, 0)
            metrics = np.minimum(a, b)
        # Traceback from state 0 (mirrors the hardware loop exactly).
        bits = np.zeros(self.nbits, dtype=np.uint16)
        state = 0
        for t in range(self.nbits - 1, -1, -1):
            bits[t] = state & 1
            mask_bit = 2 if survivors[t, state] else 0
            state = (state >> 1) | mask_bit
        return np.concatenate([
            survivors.reshape(-1).astype(np.int64), bits.astype(np.int64),
            metrics.astype(np.int64),
        ])

    def decoded_bits(self) -> np.ndarray:
        """The mirror's decoded bit sequence (for BER-style checks)."""
        out = self.reference()
        return out[4 * self.nbits : 5 * self.nbits].astype(np.uint8)
