"""Columnar run recorder: observe a run without leaving translated blocks.

A :class:`Recorder` is a sink attached to a machine (``machine.recorder``),
not a bus topic.  :meth:`repro.cpu.pipeline.Machine.run` and the recorded
variants of its translated blocks (:mod:`repro.cpu.blocks`) append the
run's ``run_start``/``issue``/``stall``/``branch``/``run_end`` facts to
columns, so a recorded STRICT run keeps entering blocks.  The two dense
ones are ``array('q')``; the sparse ones are lists, whose ``extend`` by a
tuple is several times cheaper than an array's:

``pc``
    one entry per issue;
``stamp``
    one entry per issue: ``cycle << 3 | flags``, the flags being
    :data:`V_PIPE`, :data:`ROUTED` and :data:`MMX`;
``stalls``
    sparse, four entries per stall: the index of the issue it delays, the
    stalled pc, the cycle the wait began and its length;
``branches``
    sparse, three entries per resolved branch: the index of the branch's
    own issue, ``taken | mispredict << 1`` and the penalty.

The columns are bounded: once :attr:`Recorder.chunk_size` issues have
accumulated they are handed to the recorder's *readers* as a
:class:`Chunk` of numpy arrays and cleared, so memory does not grow with
the run.  Readers (:class:`Reader`) get ``on_start(recorder)``,
``on_chunk(chunk)`` and ``on_end(recorder)``; they aggregate columns
(:class:`~repro.obs.traceprof.TraceProfiler`,
:class:`~repro.obs.attribution.CycleAttribution`) and carry whatever is
open across a chunk boundary.  Event objects are built only on request,
by :meth:`Chunk.events`.

A hand-driven stream is recorded by calling :meth:`Recorder.start`,
:meth:`~Recorder.issue`, :meth:`~Recorder.stall`, :meth:`~Recorder.branch`
and :meth:`~Recorder.end` directly; any target with a ``recorder``
attribute can carry the recorder.
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.obs.events import BranchEvent, IssueEvent, StallEvent

#: Issues per chunk.  A chunk's columns are 64 KiB and a reader's numpy
#: temporaries some 0.5 MiB; a reader's fixed cost per chunk (some 0.1 ms)
#: stays near 25 ns per issue.
CHUNK_SIZE = 1 << 12

#: Flag bits in the low three bits of a ``stamp``.
V_PIPE = 1
ROUTED = 2
MMX = 4
FLAG_BITS = 3

def issue_flags(follower: bool, routed: bool, mmx: bool) -> int:
    """The flag bits of one issue's stamp."""
    return (V_PIPE if follower else 0) | (ROUTED if routed else 0) | (MMX if mmx else 0)


def _column(values: array) -> np.ndarray:
    """A numpy copy of a dense column (the column itself is cleared next)."""
    return np.frombuffer(values, dtype=np.int64).copy()


class Chunk:
    """A flushed slice of a recorded run, as numpy columns.

    ``pc``, ``cycle`` and ``flags`` have one entry per issue; ``base`` is
    the run-wide index (the ``seq``) of the first.  ``stalls`` rows are
    ``(issue index, pc, cycle, cycles)`` and ``branches`` rows ``(issue
    index, taken | mispredict << 1, penalty)``, with chunk-relative issue
    indices.  Only the run's last chunk can hold a stall whose index is
    ``len(pc)``: a stall before an issue that faulted and ended the run.
    """

    __slots__ = ("base", "pc", "cycle", "flags", "stalls", "branches")

    def __init__(self, base: int, pc: array, stamp: array, stalls: list[int],
                 branches: list[int]) -> None:
        self.base = base
        self.pc = _column(pc)
        stamps = _column(stamp)
        self.cycle = stamps >> FLAG_BITS
        self.flags = stamps & ((1 << FLAG_BITS) - 1)
        self.stalls = np.array(stalls, dtype=np.int64).reshape(-1, 4)
        self.branches = np.array(branches, dtype=np.int64).reshape(-1, 3)

    def __len__(self) -> int:
        return len(self.pc)

    def events(self, instructions):
        """The chunk's ``stall``/``issue``/``branch`` events, in bus order.

        *instructions* is the program's instruction list (an issue event
        carries its instruction).
        """
        pcs = self.pc.tolist()
        cycles = self.cycle.tolist()
        stalls = self.stalls.tolist()
        branches = self.branches.tolist()
        s = b = 0
        for i, (pc, cycle, flags) in enumerate(zip(pcs, cycles, self.flags.tolist())):
            while s < len(stalls) and stalls[s][0] == i:
                _, stall_pc, stall_cycle, length = stalls[s]
                yield StallEvent(cycle=stall_cycle, pc=stall_pc, cycles=length)
                s += 1
            yield IssueEvent(seq=self.base + i, cycle=cycle, pc=pc,
                             instr=instructions[pc],
                             pipe="V" if flags & V_PIPE else "U",
                             routed=bool(flags & ROUTED))
            while b < len(branches) and branches[b][0] == i:
                _, code, penalty = branches[b]
                taken, mispredict = bool(code & 1), bool(code & 2)
                yield BranchEvent(cycle=cycle, pc=pc, taken=taken,
                                  predicted_taken=taken != mispredict,
                                  mispredict=mispredict, penalty=penalty)
                b += 1
        for _, stall_pc, stall_cycle, length in stalls[s:]:
            yield StallEvent(cycle=stall_cycle, pc=stall_pc, cycles=length)


class Reader:
    """What a recorder calls on each of its readers (the defaults do nothing)."""

    def on_start(self, recorder: "Recorder") -> None:
        """A run began (``recorder.program``, ``recorder.fill_cycles``)."""

    def on_chunk(self, chunk: Chunk) -> None:
        """The next slice of the run's columns."""

    def on_end(self, recorder: "Recorder") -> None:
        """The run ended (``recorder.cycles``, ``.instructions``, ``.finished``)."""


class Recorder:
    """Bounded columns of one run at a time, fanned out to readers.

    Readers attach through :meth:`add`, which shares one recorder per
    target; the recorder detaches itself when its last reader leaves, so a
    machine whose observers all detached runs exactly as an unobserved one.
    """

    def __init__(self) -> None:
        self.chunk_size = CHUNK_SIZE
        self.pc = array("q")
        self.stamp = array("q")
        self.stalls: list[int] = []
        self.branches: list[int] = []
        self.readers: list = []
        #: Run-wide index of the first issue in the columns.
        self.base = 0
        self.program = ""
        self.fill_cycles = 0
        #: Set by :meth:`end`: the run's totals and whether it halted.
        self.cycles = 0
        self.instructions = 0
        self.finished = False
        self._target = None

    # ---- wiring -------------------------------------------------------------

    @classmethod
    def add(cls, target, reader) -> "Recorder":
        """Attach *reader* to *target*'s recorder, creating it on first use."""
        recorder = getattr(target, "recorder", None)
        if recorder is None:
            recorder = cls()
            recorder._target = target
            target.recorder = recorder
        recorder.readers.append(reader)
        return recorder

    def remove(self, reader) -> None:
        """Detach *reader*; the last one to leave detaches the recorder."""
        if reader in self.readers:
            self.readers.remove(reader)
        if not self.readers and self._target is not None:
            self._target.recorder = None
            self._target = None

    # ---- the write side -----------------------------------------------------

    def start(self, program: str, fill_cycles: int) -> None:
        """A run began: drop any unflushed remains and tell the readers."""
        for column in (self.pc, self.stamp, self.stalls, self.branches):
            del column[:]
        self.base = 0
        self.program = program
        self.fill_cycles = fill_cycles
        for reader in list(self.readers):
            reader.on_start(self)

    def issue(self, pc: int, cycle: int, flags: int) -> None:
        """One issue (the per-uop path; translated blocks append inline).

        A full chunk is flushed before a U-pipe issue only, so an issue
        group never straddles two chunks.
        """
        if not flags & V_PIPE and len(self.pc) >= self.chunk_size:
            self.flush()
        self.pc.append(pc)
        self.stamp.append(cycle << FLAG_BITS | flags)

    def stall(self, pc: int, cycle: int, cycles: int) -> None:
        """The next issue waits *cycles* from *cycle* (before that issue)."""
        self.stalls.extend((len(self.stamp), pc, cycle, cycles))

    def branch(self, taken: bool, mispredict: bool, penalty: int) -> None:
        """The latest issue resolved as a branch."""
        self.branches.extend((len(self.stamp) - 1, taken | mispredict << 1, penalty))

    def flush(self, final: bool = False) -> None:
        """Hand the columns to the readers as a :class:`Chunk`, then clear.

        A stall recorded for the issue that has not happened yet moves to
        the next chunk unless *final*.
        """
        count = len(self.pc)
        carried: list[int] = []
        if not final:
            stalls = self.stalls
            while stalls and stalls[-4] >= count:
                carried[:0] = stalls[-4:]
                del stalls[-4:]
            for i in range(0, len(carried), 4):
                carried[i] -= count
        chunk = Chunk(self.base, self.pc, self.stamp, self.stalls, self.branches)
        for column in (self.pc, self.stamp, self.stalls, self.branches):
            del column[:]
        self.stalls.extend(carried)
        self.base += count
        for reader in list(self.readers):
            reader.on_chunk(chunk)

    def end(self, cycles: int, instructions: int, finished: bool) -> None:
        """The run ended (halted, failed-stop or aborted): final flush."""
        self.cycles = cycles
        self.instructions = instructions
        self.finished = finished
        self.flush(final=True)
        for reader in list(self.readers):
            reader.on_end(self)
