"""Per-loop attribution of dynamic work (a VTune-style hotspot view).

Attributes each issued instruction to the innermost labeled loop region
containing its program counter, yielding the per-loop instruction counts and
permute fractions that explain *where* a kernel's Table 3 numbers come from
(e.g. the DCT's transpose loops vs its row-pass loops).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.profiler import run_pc_counts
from repro.cpu import Machine
from repro.isa import Program


@dataclass
class LoopRegion:
    """One labeled loop: ``[start, end]`` instruction indexes inclusive."""

    label: str
    start: int
    end: int
    instructions: int = 0
    mmx_instructions: int = 0
    alignment_instructions: int = 0

    @property
    def permute_fraction(self) -> float:
        if not self.mmx_instructions:
            return 0.0
        return self.alignment_instructions / self.mmx_instructions


@dataclass
class LoopProfile:
    """Dynamic work per loop region plus the residual outside any loop."""

    regions: list[LoopRegion] = field(default_factory=list)
    outside: int = 0
    total: int = 0

    def region(self, label: str) -> LoopRegion:
        for region in self.regions:
            if region.label == label:
                return region
        raise KeyError(label)

    def hottest(self) -> LoopRegion | None:
        return max(self.regions, key=lambda r: r.instructions, default=None)

    def render(self) -> str:
        lines = [f"{'loop':<12} {'span':>9} {'dyn instr':>10} {'share':>7} "
                 f"{'MMX':>7} {'perm/MMX':>9}"]
        for region in sorted(self.regions, key=lambda r: -r.instructions):
            share = region.instructions / self.total if self.total else 0.0
            lines.append(
                f"{region.label:<12} {region.start:>4}-{region.end:<4} "
                f"{region.instructions:>10} {share:>6.1%} "
                f"{region.mmx_instructions:>7} {region.permute_fraction:>8.1%}"
            )
        if self.total:
            lines.append(f"{'(outside)':<12} {'':>9} {self.outside:>10} "
                         f"{self.outside / self.total:>6.1%}")
        return "\n".join(lines)


def find_loop_regions(program: Program) -> list[LoopRegion]:
    """All ``label ... branch-back-to-label`` regions of *program*."""
    regions: list[LoopRegion] = []
    for label, start in program.labels.items():
        end = None
        for index in range(start, len(program)):
            instr = program[index]
            if instr.is_branch and any(
                getattr(op, "name", None) == label for op in instr.operands
            ):
                end = index
        if end is not None and end >= start:
            regions.append(LoopRegion(label=label, start=start, end=end))
    regions.sort(key=lambda r: r.start)
    return regions


def profile_loops(machine: Machine, max_cycles: int | None = None) -> LoopProfile:
    """Run *machine* and attribute issued instructions to loop regions.

    Nested regions attribute to the innermost (smallest) enclosing one.
    The per-pc issue counts come from the machine's recorder
    (:func:`repro.analysis.profiler.run_pc_counts`), so the run still
    enters translated blocks.
    """
    regions = find_loop_regions(machine.program)
    profile = LoopProfile(regions=regions)

    def innermost(pc: int) -> LoopRegion | None:
        best: LoopRegion | None = None
        for region in regions:
            if region.start <= pc <= region.end:
                if best is None or (region.end - region.start) < (best.end - best.start):
                    best = region
        return best

    _, counts = run_pc_counts(machine, max_cycles)
    instructions = machine.program.instructions
    for pc, count in counts.items():
        profile.total += count
        region = innermost(pc)
        if region is None:
            profile.outside += count
        else:
            region.instructions += count
            instr = instructions[pc]
            if instr.is_mmx:
                region.mmx_instructions += count
            if instr.is_alignment_candidate:
                region.alignment_instructions += count
    return profile
