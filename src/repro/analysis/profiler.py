"""VTune-like dynamic instruction profiler (the paper's §5.2.1 methodology).

The paper extracted run-time statistics with Intel's VTune: "we can see what
percentage of each algorithm's operations are MMX instructions, and what
percentage ... were packing or permutation instructions that are required
for sub-word realignment."  :func:`profile` collects exactly that from a
simulated run: per-mnemonic dynamic counts, class mix, MMX fraction and the
permutation/alignment fractions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.cpu import Machine, RunStats
from repro.obs.recorder import Recorder


@dataclass
class InstructionProfile:
    """Dynamic instruction mix of one run."""

    stats: RunStats
    by_opcode: Counter = field(default_factory=Counter)

    @property
    def total(self) -> int:
        return self.stats.instructions

    @property
    def mmx_fraction(self) -> float:
        """MMX instructions as a fraction of all dynamic instructions."""
        return self.stats.mmx_instructions / self.total if self.total else 0.0

    @property
    def permute_fraction_of_mmx(self) -> float:
        """Pack/merge/realignment instructions as a fraction of MMX work.

        Uses the alignment-candidate count (pack/unpack/shuffle plus
        ``movq mm,mm`` copies and whole-byte shifts) — the instruction set
        the paper's SPU targets.
        """
        mmx = self.stats.mmx_instructions
        return self.stats.alignment_candidates / mmx if mmx else 0.0

    @property
    def permute_fraction_of_total(self) -> float:
        return self.stats.alignment_candidates / self.total if self.total else 0.0

    def top_opcodes(self, count: int = 10) -> list[tuple[str, int]]:
        """The most frequent mnemonics (dynamic)."""
        return self.by_opcode.most_common(count)

    def class_mix(self) -> dict[str, float]:
        """Dynamic fraction per functional class."""
        if not self.total:
            return {}
        return {
            iclass.value: count / self.total
            for iclass, count in sorted(
                self.stats.by_class.items(), key=lambda kv: -kv[1]
            )
        }

    def as_dict(self) -> dict:
        """JSON-friendly instruction-mix summary (for repro.obs.export)."""
        return {
            "total": self.total,
            "mmx_fraction": self.mmx_fraction,
            "permute_fraction_of_mmx": self.permute_fraction_of_mmx,
            "permute_fraction_of_total": self.permute_fraction_of_total,
            "by_opcode": dict(self.by_opcode.most_common()),
            "class_mix": self.class_mix(),
        }


class _PcCounts:
    """Recorder reader: dynamic issues per pc, in first-issue order."""

    def __init__(self) -> None:
        self.counts: dict[int, int] = {}

    def on_start(self, recorder: Any) -> None:
        self.counts.clear()

    def on_chunk(self, chunk: Any) -> None:
        pcs, first, counts = np.unique(chunk.pc, return_index=True, return_counts=True)
        order = np.argsort(first)
        totals = self.counts
        for pc, count in zip(pcs[order].tolist(), counts[order].tolist()):
            totals[pc] = totals.get(pc, 0) + count

    def on_end(self, recorder: Any) -> None:
        """The counts are complete with the last chunk."""


def run_pc_counts(machine: Machine,
                  max_cycles: int | None = None) -> tuple[RunStats, dict[int, int]]:
    """Run *machine* to completion; its stats and dynamic issues per pc.

    Reads the machine's columnar recorder, so the run still enters
    translated blocks, and it composes with any other observer on the same
    run (tracer, timeline, more profilers).  The counts are in first-issue
    order.
    """
    reader = _PcCounts()
    recorder = Recorder.add(machine, reader)
    try:
        stats = machine.run(max_cycles=max_cycles)
    finally:
        recorder.remove(reader)
    return stats, reader.counts


def profile(machine: Machine, max_cycles: int | None = None) -> InstructionProfile:
    """Run *machine* to completion while collecting the instruction mix.

    ``by_opcode`` comes from the per-pc issue counts of
    :func:`run_pc_counts`.
    """
    stats, counts = run_pc_counts(machine, max_cycles)
    instructions = machine.program.instructions
    by_opcode: Counter = Counter()
    for pc, count in counts.items():
        by_opcode[instructions[pc].name] += count
    return InstructionProfile(stats=stats, by_opcode=by_opcode)
