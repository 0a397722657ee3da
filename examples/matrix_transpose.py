#!/usr/bin/env python3
"""Scenario: inter-word restrictions in the matrix transpose (paper §2.2).

Walks through Figure 3's 4×4 unpack-tile transpose, shows the SPU routing
columns straight out of the register file, and sweeps the interconnect
configurations A-D for the area/coverage trade-off of Table 1.

Run:  python examples/matrix_transpose.py
"""

from repro import CONFIGS, spu_cost
from repro.analysis import format_table
from repro.kernels import TransposeKernel


def main() -> None:
    kernel = TransposeKernel(n=16)
    comparison = kernel.verify()

    print("Figure 3's tile transpose: eight merge instructions per 4x4 tile")
    print("(plus the movq copies the destructive two-operand forms force):\n")
    body = str(kernel.mmx_program()).splitlines()
    loop_at = next(i for i, line in enumerate(body) if line.startswith("loop:"))
    print("\n".join(body[loop_at : loop_at + 24]))

    print(f"\nWith the SPU, routed stores gather each column directly from the "
          f"unified register\n(inter-word restriction gone, §2.2): "
          f"{comparison.removed_permutes} permutes off-loaded per program.")
    print(f"MMX: {comparison.mmx.cycles} cycles; MMX+SPU: {comparison.spu.cycles} "
          f"cycles; speedup {comparison.speedup:.3f}x")

    print("\nInterconnect configuration sweep (Table 1 economics):")
    rows = []
    for name, config in CONFIGS.items():
        swept = TransposeKernel(n=16, config=config)
        result = swept.compare()
        cost = spu_cost(config)
        rows.append([
            name,
            config.description,
            result.removed_permutes,
            f"{result.speedup:.3f}",
            f"{cost.total_area_mm2:.2f}",
            f"{cost.interconnect_delay_ns:.2f}",
        ])
    print(format_table(
        ["config", "crossbar", "permutes removed", "speedup", "SPU mm2", "delay ns"],
        rows,
    ))
    print("\nConfiguration D (the paper's pick) removes everything A does on this "
          "16-bit kernel\nat 29% of the area — 'all the applications used in this "
          "paper can be realized with\nconfiguration D' (§5.1.1).")


if __name__ == "__main__":
    main()
