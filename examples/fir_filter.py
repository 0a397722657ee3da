#!/usr/bin/env python3
"""Scenario: low-pass filtering an audio-like signal on the simulated MMX.

A 12-tap windowed-sinc low-pass FIR runs over a noisy sine, exactly the kind
of signal-processing workload the paper's intro motivates.  The kernel uses
the IPP coding strategy (sub-word-offset coefficient banks) and the SPU
off-loads the remaining horizontal-sum permutes — the paper's "small eight
percent" FIR case.

Run:  python examples/fir_filter.py
"""

import math

import numpy as np

from repro.analysis import format_table
from repro.kernels import FIRKernel


def design_lowpass(taps: int, cutoff: float) -> np.ndarray:
    """Windowed-sinc low-pass, Q12-scaled to int16."""
    mid = (taps - 1) / 2
    coeffs = []
    for i in range(taps):
        x = i - mid
        ideal = 2 * cutoff * (1.0 if x == 0 else math.sin(2 * math.pi * cutoff * x) / (2 * math.pi * cutoff * x))
        window = 0.54 - 0.46 * math.cos(2 * math.pi * i / (taps - 1))  # Hamming
        coeffs.append(ideal * window)
    scaled = np.array(coeffs) * (1 << 12)
    return np.round(scaled).astype(np.int16)


def main() -> None:
    samples = 152
    time_axis = np.arange(samples)
    rng = np.random.default_rng(7)
    clean = 8000 * np.sin(2 * np.pi * time_axis / 32)  # slow sine
    noise = rng.normal(0, 3000, samples)  # wideband noise
    signal = np.clip(clean + noise, -32768, 32767).astype(np.int16)

    kernel = FIRKernel(taps=12, samples=samples)
    kernel.x = signal
    kernel.coeffs = design_lowpass(12, cutoff=0.06)

    comparison = kernel.verify()

    # Noise attenuation: compare against the same filter applied to the
    # clean signal, so only the noise path differs.
    _, output = kernel.run_mmx()
    region = slice(24, samples)
    taps_f = kernel.coeffs.astype(float) / (1 << 12)
    clean_q = np.clip(clean, -32768, 32767)
    clean_filtered = np.convolve(clean_q, taps_f)[:samples]
    residual_in = signal[region].astype(float) - clean[region]
    residual_out = output[region].astype(float) - clean_filtered[region]
    print("Low-pass FIR on noisy sine (12 taps, Hamming windowed sinc)")
    print(f"  input noise RMS : {np.sqrt(np.mean(residual_in ** 2)):8.1f}")
    print(f"  output noise RMS: {np.sqrt(np.mean(residual_out ** 2)):8.1f}")

    rows = [[
        kernel.name,
        comparison.mmx.cycles,
        comparison.spu.cycles,
        f"{comparison.speedup:.3f}",
        comparison.removed_permutes,
    ]]
    print()
    print(format_table(
        ["kernel", "MMX cycles", "MMX+SPU cycles", "speedup", "permutes off-loaded"],
        rows,
    ))
    print("\nPer the paper (§5.2.2): coefficient replication already avoids most "
          "sample permutes,\nso the SPU's FIR gain is modest — the horizontal "
          "reductions are what it absorbs.")


if __name__ == "__main__":
    main()
