"""Back-edge-detecting hot-trace profiler (the ``repro top`` engine).

A *trace* is the dynamic instruction path between two backward control
transfers — the unit trace-level superop compilation would fuse (ROADMAP
item 1).  The profiler reads a run's :class:`~repro.obs.recorder.Recorder`
columns, like :class:`repro.obs.attribution.CycleAttribution`, so an
observed run still enters translated blocks, and a machine whose profiler
detached runs exactly as one that never had it.

Detection: the pipeline issues in dynamic program order, so any issue whose
pc is not past the previous one means control moved backward — the taken
back edge closed a trace and its target (the new pc) is a loop head.  The
steady-state body of a loop therefore aggregates as one trace keyed by its
exact pc path, executed once per iteration after the first; the entry path
(prologue + first iteration) and the exit path (last iteration + epilogue)
key separately, which is precisely the stability signal a superop compiler
needs.

Cycle attribution is exact by construction: each trace's cycles are the
delta between the cycle at which it started and the cycle at which the next
trace started (``run_end`` closes the final trace at the run's total), so
the per-trace cycles of one run always sum to ``RunStats.cycles`` —
including stalls, mispredict bubbles and pipeline fill, each of which is
also broken out per trace.  A stall precedes the issue it delays and is
attributed to that issue's trace; a mispredict bubble follows its branch
and is attributed to the branch's trace, the one open during the bubble.

This module must stay import-light (no ``repro.cpu``/``repro.kernels``
imports): the trace-profile *export* with loop labels and fusibility
verdicts lives in :mod:`repro.obs.export` / :mod:`repro.analysis.fusion`.
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.obs.recorder import MMX, ROUTED, V_PIPE, Reader, Recorder


class TraceStats:
    """Aggregate counters for one distinct trace body."""

    __slots__ = (
        "head", "body", "executions", "instructions", "cycles",
        "pair_issues", "stall_cycles", "mispredict_cycles",
        "mmx_instructions", "routed", "cold_decodes", "truncated",
    )

    def __init__(self, head: int, body: tuple[int, ...], truncated: bool) -> None:
        self.head = head
        self.body = body
        self.truncated = truncated
        self.executions = 0
        self.instructions = 0
        self.cycles = 0
        self.pair_issues = 0
        self.stall_cycles = 0
        self.mispredict_cycles = 0
        self.mmx_instructions = 0
        self.routed = 0
        #: Issues whose pc had not been executed before in this run — the
        #: per-run cold-start model of the decoded-uop cache (every static
        #: instruction decodes exactly once; see ``uop_cache_stats``).
        self.cold_decodes = 0

    @property
    def length(self) -> int:
        return len(self.body)

    def as_dict(self) -> dict:
        """JSON-friendly summary (derived rates included, rounded)."""
        instructions = self.instructions
        return {
            "head": self.head,
            "length": self.length,
            "executions": self.executions,
            "instructions": instructions,
            "cycles": self.cycles,
            "cpi": round(self.cycles / instructions, 4) if instructions else 0.0,
            "pair_issues": self.pair_issues,
            "pair_fraction": (
                round(self.pair_issues / instructions, 4) if instructions else 0.0
            ),
            "stall_cycles": self.stall_cycles,
            "mispredict_cycles": self.mispredict_cycles,
            "mmx_instructions": self.mmx_instructions,
            "routed": self.routed,
            "route_utilization": (
                round(self.routed / self.mmx_instructions, 4)
                if self.mmx_instructions else 0.0
            ),
            "uop_cold_decodes": self.cold_decodes,
            "uop_hit_rate": (
                round((instructions - self.cold_decodes) / instructions, 4)
                if instructions else 0.0
            ),
            "truncated": self.truncated,
        }


class TraceProfiler(Reader):
    """Recorder reader aggregating one run into dynamic traces.

    Usage::

        profiler = TraceProfiler().attach(machine)
        stats = machine.run()
        profiler.detach()
        assert sum(t.cycles for t in profiler.traces.values()) == stats.cycles

    Each recorded chunk is cut at its back edges with numpy: a trace starts
    wherever ``pc[i] <= pc[i - 1]``, its counters are ``np.add.reduceat``
    sums over the slice, and its key is the slice's pc bytes.  Only the
    trace still open at the end of a chunk is carried to the next one, as
    its first *max_body* pcs and running counters.
    """

    def __init__(self, max_body: int = 4096) -> None:
        #: ``(head, body) -> TraceStats``, every distinct trace of the run.
        self.traces: dict[tuple[int, tuple[int, ...]], TraceStats] = {}
        #: Bodies longer than this stop recording pcs (the trace still
        #: accumulates counters, keyed by its first *max_body* pcs, and is
        #: marked truncated — never a fusion candidate).
        self.max_body = max_body
        self.total_cycles = 0
        self.total_instructions = 0
        self.finished = False
        self._recorder = None
        self.on_start(None)

    # -- wiring ---------------------------------------------------------------

    def attach(self, machine) -> "TraceProfiler":
        """Read *machine*'s recorder; returns ``self`` for chaining."""
        self._recorder = Recorder.add(machine, self)
        return self

    def detach(self) -> None:
        if self._recorder is not None:
            self._recorder.remove(self)
            self._recorder = None

    # -- recorder callbacks ---------------------------------------------------

    def on_start(self, recorder) -> None:
        self.traces.clear()
        self.total_cycles = 0
        self.total_instructions = 0
        self.finished = False
        #: Body bytes (int64 pcs) -> trace, the same objects as ``traces``.
        self._by_body: dict[bytes, TraceStats] = {}
        self._seen = np.zeros(0, dtype=bool)
        # The open trace: recorded pcs, truncation, counters (instructions,
        # pairs, stalls, mispredicts, mmx, routed, cold decodes) and the
        # cycle its window opened.  Pipeline-fill cycles belong to the
        # entry trace, so the first window opens at cycle 0 and the
        # per-trace cycles sum to the run's total exactly.
        self._open = False
        self._prev_pc = -1
        self._body = b""
        self._truncated = False
        self._counters = [0] * 7
        self._start_cycle = 0

    def on_chunk(self, chunk) -> None:
        pc = chunk.pc
        count = len(pc)
        if not count:
            return
        self.total_instructions += count
        flags = chunk.flags
        columns = np.zeros((7, count), dtype=np.int64)
        columns[0] = 1
        columns[1] = flags & V_PIPE
        stalls = chunk.stalls
        stalls = stalls[stalls[:, 0] < count]
        np.add.at(columns[2], stalls[:, 0], stalls[:, 3])
        np.add.at(columns[3], chunk.branches[:, 0], chunk.branches[:, 2])
        columns[4] = (flags & MMX) != 0
        columns[5] = (flags & ROUTED) != 0
        columns[6] = self._cold(pc)
        starts = np.concatenate(([0], np.flatnonzero(pc[1:] <= pc[:-1]) + 1))
        opens = chunk.cycle[starts]
        runs = self._runs(pc, starts)
        # Counters of the first slice, of each run of repeats, of the last.
        points = np.concatenate(([0], starts[runs], starts[1:][-1:]))
        sums = np.add.reduceat(columns, points, axis=1).T.tolist()

        # The first slice continues the open trace unless control moved back.
        if self._open and int(pc[0]) <= self._prev_pc:
            self._close(int(opens[0]))
        self._extend(pc, 0, int(starts[1]) if len(starts) > 1 else count, sums[0])
        if len(starts) > 1:
            self._close(int(opens[1]))
            if len(runs):
                self._close_runs(pc, starts, opens, runs, sums[1:-1])
            self._start_cycle = int(opens[-1])
            self._extend(pc, int(starts[-1]), count, sums[-1])
        self._open = True
        self._prev_pc = int(pc[-1])

    def on_end(self, recorder) -> None:
        if self._open:
            self._close(recorder.cycles)
        self.total_cycles = recorder.cycles
        self.finished = recorder.finished

    # -- trace bookkeeping ----------------------------------------------------

    def _cold(self, pc: np.ndarray) -> np.ndarray:
        """1 at each issue whose pc had not issued before in this run."""
        cold = np.zeros(len(pc), dtype=np.int64)
        top = int(pc.max()) + 1
        if top > len(self._seen):
            self._seen = np.concatenate((self._seen, np.zeros(top - len(self._seen), bool)))
        elif self._seen[pc].all():
            return cold
        pcs, first = np.unique(pc, return_index=True)
        cold[first[~self._seen[pcs]]] = 1
        self._seen[pcs] = True
        return cold

    def _extend(self, pc: np.ndarray, start: int, end: int, counters: list[int]) -> None:
        """Add the slice ``pc[start:end]`` to the open trace."""
        room = self.max_body - len(self._body) // 8
        if end - start > room:
            self._truncated = True
        if room > 0:
            self._body += pc[start:min(end, start + room)].tobytes()
        self._counters = [a + b for a, b in zip(self._counters, counters)]

    def _trace(self, body: bytes, truncated: bool) -> TraceStats:
        trace = self._by_body.get(body)
        if trace is None:
            pcs = tuple(array("q", body))
            trace = TraceStats(pcs[0], pcs, truncated)
            self._by_body[body] = trace
            self.traces[(pcs[0], pcs)] = trace
        elif truncated:
            trace.truncated = True
        return trace

    def _add(self, trace: TraceStats, executions: int, cycles: int,
             counters: list[int]) -> None:
        trace.executions += executions
        trace.cycles += cycles
        trace.instructions += counters[0]
        trace.pair_issues += counters[1]
        trace.stall_cycles += counters[2]
        trace.mispredict_cycles += counters[3]
        trace.mmx_instructions += counters[4]
        trace.routed += counters[5]
        trace.cold_decodes += counters[6]

    def _close(self, at_cycle: int) -> None:
        """Close the open trace at *at_cycle*; the next one opens there."""
        trace = self._trace(self._body, self._truncated)
        self._add(trace, 1, at_cycle - self._start_cycle, self._counters)
        self._open = False
        self._body = b""
        self._truncated = False
        self._counters = [0] * 7
        self._start_cycle = at_cycle

    @staticmethod
    def _runs(pc: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """First slice of each run of repeats among a chunk's inner slices.

        The inner slices are all but the first and the last, which belong
        to traces open across the chunk's ends.  A loop's iterations repeat
        the slice before them pc for pc: each slice is compared with its
        predecessor, shifted by that one's length.
        """
        if len(starts) < 3:
            return starts[:0]
        lengths = np.diff(np.append(starts, len(pc)))
        lo, hi = starts[1], starts[-1]
        shifted = np.arange(lo, hi) - np.repeat(lengths[:-2], lengths[1:-1])
        differs = np.logical_or.reduceat(pc[lo:hi] != pc[shifted], starts[1:-1] - lo)
        repeat = (lengths[1:-1] == lengths[:-2]) & ~differs
        repeat[0] = False
        return np.flatnonzero(~repeat) + 1

    def _close_runs(self, pc: np.ndarray, starts: np.ndarray, opens: np.ndarray,
                    runs: np.ndarray, sums: list[list[int]]) -> None:
        """Close the inner slices, one body lookup per run of repeats."""
        ends = np.append(runs[1:], len(starts) - 1)
        windows = (opens[ends] - opens[runs]).tolist()
        heads = starts[runs].tolist()
        lengths = (starts[runs + 1] - starts[runs]).tolist()
        max_body = self.max_body
        for first, end, window, start, length, counters in zip(
                runs.tolist(), ends.tolist(), windows, heads, lengths, sums):
            body = pc[start:start + min(length, max_body)].tobytes()
            self._add(self._trace(body, length > max_body), end - first, window, counters)

    # -- views ----------------------------------------------------------------

    def sorted_traces(self) -> list[TraceStats]:
        """Traces by descending cycles (head, then length break ties)."""
        return sorted(
            self.traces.values(),
            key=lambda t: (-t.cycles, t.head, t.length, t.body),
        )

    def stable_heads(self) -> set[int]:
        """Heads whose *repeating* trace body is unique.

        A head is schedule-stable when at most one of its bodies executed
        more than once — the entry/exit paths of a well-behaved loop run
        exactly once each, so only a data-dependent branch inside the body
        (two distinct repeating paths) breaks stability.
        """
        repeating: dict[int, int] = {}
        for trace in self.traces.values():
            if trace.executions > 1:
                repeating[trace.head] = repeating.get(trace.head, 0) + 1
        heads = {trace.head for trace in self.traces.values()}
        return {head for head in heads if repeating.get(head, 0) <= 1}

    def attributed_cycles(self) -> int:
        """Sum of per-trace cycles; equals the run's total for a full run."""
        return sum(trace.cycles for trace in self.traces.values())
