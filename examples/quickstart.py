#!/usr/bin/env python3
"""Quickstart: the paper's §4 dot-product example, end to end.

Builds the MMX loop that needs two unpack instructions per iteration to
realign its sub-words, lets the automatic off-load pass move that data
movement onto the SPU's decoupled controller, and compares the two runs
cycle for cycle.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    CONFIG_D,
    DotProductKernel,
    Machine,
    SPUController,
    attach_spu,
    offload_loop,
)
from repro.analysis import format_table


def main() -> None:
    kernel = DotProductKernel(blocks=16)

    print("=== MMX-only program (permutes in software) ===")
    mmx_program = kernel.mmx_program()
    print(mmx_program)

    report = offload_loop(mmx_program, "loop", kernel.blocks, CONFIG_D)
    print("\n=== After SPU off-load (permutes removed) ===")
    print(report.program)
    removed = [str(mmx_program[index]) for index in report.removed]
    print(f"\nOff-loaded instructions: {removed}")
    print(f"SPU controller: {report.spu_program.state_count()} states, "
          f"CNTR0 = {report.spu_program.counter_init[0]} dynamic instructions")

    # Verify both variants against the NumPy fixed-point reference.
    comparison = kernel.verify()
    print("\nBit-exact: MMX and MMX+SPU outputs match the NumPy reference.")

    rows = [
        ["cycles", comparison.mmx.cycles, comparison.spu.cycles],
        ["instructions", comparison.mmx.instructions, comparison.spu.instructions],
        ["permute instructions", comparison.mmx.permutes, comparison.spu.permutes],
        ["MMX busy cycles", comparison.mmx.mmx_busy_cycles, comparison.spu.mmx_busy_cycles],
    ]
    print()
    print(format_table(["metric", "MMX only", "MMX + SPU"], rows))
    print(f"\nSpeedup: {comparison.speedup:.3f}x "
          f"({comparison.cycles_saved} cycles overlapped by the decoupled controller)")


if __name__ == "__main__":
    main()
