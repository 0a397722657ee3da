"""Execution tracing: a human-readable issue-by-issue pipeline log.

Reads the machine's columnar recorder (:mod:`repro.obs.recorder`) and
materializes, per issued instruction: the dynamic index, issue cycle, pipe,
program counter, rendered instruction, and whether the SPU routed its
operands.  Intended for debugging kernels and the off-load pass — the
textual rendering reads like a pipeline listing, and
:func:`repro.obs.export.trace_records` turns a trace into JSONL.

Routed-ness comes straight from the pipeline (it knows whether the SPU
returned routes for the instruction), not from the fragile counter-delta
inference the pre-bus tracer used.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cpu.pipeline import Machine
from repro.cpu.stats import RunStats
from repro.obs.recorder import ROUTED, V_PIPE, Reader, Recorder


@dataclass(frozen=True)
class TraceEntry:
    """One issued instruction."""

    seq: int
    pc: int
    text: str
    is_mmx: bool
    routed: bool
    cycle: int = -1
    pipe: str = "U"

    def render(self) -> str:
        flag = "R" if self.routed else ("M" if self.is_mmx else " ")
        return f"{self.seq:6d}  pc={self.pc:4d} [{flag}] {self.text}"


@dataclass
class Trace:
    """A recorded run: entries plus the final statistics."""

    entries: list[TraceEntry] = field(default_factory=list)
    stats: RunStats | None = None

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def routed_entries(self) -> list[TraceEntry]:
        return [entry for entry in self.entries if entry.routed]

    def render(self, limit: int | None = None) -> str:
        """The trace as text (``limit`` caps the line count)."""
        lines = ["   seq      pc      instruction"]
        entries = self.entries if limit is None else self.entries[:limit]
        lines += [entry.render() for entry in entries]
        if limit is not None and len(self.entries) > limit:
            lines.append(f"... {len(self.entries) - limit} more")
        return "\n".join(lines)


class _TraceReader(Reader):
    """Recorder reader materializing the first *max_entries* issues."""

    def __init__(self, trace: Trace, instructions, max_entries: int) -> None:
        self.trace = trace
        self.instructions = instructions
        self.max_entries = max_entries
        self._texts: dict[int, str] = {}

    def on_start(self, recorder) -> None:
        self.trace.entries.clear()

    def on_chunk(self, chunk) -> None:
        entries = self.trace.entries
        room = self.max_entries - len(entries)
        if room <= 0:
            return
        texts = self._texts
        for seq, pc, cycle, flags in zip(range(chunk.base, chunk.base + room),
                                         chunk.pc[:room].tolist(),
                                         chunk.cycle[:room].tolist(),
                                         chunk.flags[:room].tolist()):
            instr = self.instructions[pc]
            text = texts.get(pc)
            if text is None:
                text = texts[pc] = str(instr).split(": ")[-1]
            entries.append(TraceEntry(
                seq=seq, pc=pc, text=text, is_mmx=instr.is_mmx,
                routed=bool(flags & ROUTED), cycle=cycle,
                pipe="V" if flags & V_PIPE else "U",
            ))


def trace_run(machine: Machine, max_cycles: int | None = None,
              max_entries: int = 100_000) -> Trace:
    """Run *machine* to completion while recording a :class:`Trace`.

    Reads the machine's :class:`~repro.obs.recorder.Recorder`, so the run
    still enters translated blocks; any number of other observers can
    watch the same run, and they all detach independently.  Entries are
    materialized for the first *max_entries* issues only.
    """
    trace = Trace()
    reader = _TraceReader(trace, machine.program.instructions, max_entries)
    recorder = Recorder.add(machine, reader)
    try:
        trace.stats = machine.run(max_cycles=max_cycles)
    finally:
        recorder.remove(reader)
    return trace
