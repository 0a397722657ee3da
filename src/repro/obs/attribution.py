"""Per-stage cycle attribution: a timeline built from recorded columns.

Every simulated cycle belongs to exactly one category:

``pair_issue``
    An issue cycle in which both the U and the V pipe executed.
``solo_issue``
    An issue cycle with a single instruction (pairing failed, a branch, the
    final ``halt``, or ``issue_width=1``).
``data_stall``
    Cycles spent waiting on a not-yet-ready source register.
``mispredict_bubble``
    Pipeline-refill cycles after a mispredicted branch.
``drain``
    Pipeline-fill cycles charged before the first issue (the SPU's extra
    interconnect stage).

The per-category sums live in :class:`repro.cpu.stats.RunStats`
(``pair_cycles``, ``solo_cycles``, ``stall_cycles``, ``mispredict_cycles``,
``drain_cycles``; see :meth:`RunStats.attribution`) and always satisfy the
invariant ``sum(categories) == RunStats.cycles`` for a completed run.  This
module adds the *timeline* view: an ordered, run-length-encoded list of
:class:`CycleSegment` reconstructed from the run's
:class:`~repro.obs.recorder.Recorder` columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs.recorder import V_PIPE, Reader, Recorder

#: Attribution categories, in timeline-priority order.
CATEGORIES = (
    "pair_issue",
    "solo_issue",
    "data_stall",
    "mispredict_bubble",
    "drain",
)
_PAIR, _SOLO, _STALL, _BUBBLE = range(4)


@dataclass(slots=True)
class CycleSegment:
    """A run of consecutive cycles with one attribution category."""

    start: int
    length: int
    category: str

    @property
    def end(self) -> int:
        """One past the last cycle of the segment."""
        return self.start + self.length

    def as_dict(self) -> dict:
        return {"start": self.start, "length": self.length, "category": self.category}


class CycleAttribution(Reader):
    """Recorder reader reconstructing the cycle timeline of one run.

    Usage::

        timeline = CycleAttribution().attach(machine)
        stats = machine.run()
        assert timeline.total_cycles() == stats.cycles
        timeline.detach()

    Each recorded chunk becomes cycle runs in event order: a stall's wait,
    one cycle per issue group (``pair_issue`` when a V-pipe issue shares
    it, else ``solo_issue``) and a mispredicted branch's bubble after its
    issue cycle.  Adjacent same-category runs merge, so tight loops
    compress to a handful of segments.
    """

    def __init__(self, max_segments: int = 1_000_000) -> None:
        self.segments: list[CycleSegment] = []
        self.max_segments = max_segments
        #: Segments dropped after :attr:`max_segments` was reached (their
        #: cycles are still counted in :attr:`overflow_totals`).
        self.truncated = False
        self.overflow_totals: dict[str, int] = {}
        self._recorder = None

    # -- wiring ---------------------------------------------------------------

    def attach(self, machine) -> "CycleAttribution":
        """Read *machine*'s recorder; returns ``self`` for chaining."""
        self._recorder = Recorder.add(machine, self)
        return self

    def detach(self) -> None:
        if self._recorder is not None:
            self._recorder.remove(self)
            self._recorder = None

    # -- recorder callbacks ---------------------------------------------------

    def on_start(self, recorder) -> None:
        self.segments.clear()
        self.overflow_totals.clear()
        self.truncated = False
        if recorder.fill_cycles:
            self._append(0, recorder.fill_cycles, "drain")

    def on_chunk(self, chunk) -> None:
        cycle = chunk.cycle
        follower = (chunk.flags & V_PIPE) != 0
        # Issue-group heads, ordered 3i+1 between the stalls before issue i
        # (3i) and the branch resolved by it (3i+2).  A chunk never splits
        # an issue group, so a head's follower is in the same chunk.
        heads = np.flatnonzero(~follower)
        paired = np.append(follower[1:], False)[heads]
        stalls = chunk.stalls
        branches = chunk.branches[chunk.branches[:, 2] > 0]
        order = np.concatenate((3 * heads + 1, 3 * stalls[:, 0], 3 * branches[:, 0] + 2))
        start = np.concatenate((cycle[heads], stalls[:, 2],
                                cycle[branches[:, 0]] + 1))
        length = np.concatenate((np.ones(len(heads), np.int64), stalls[:, 3], branches[:, 2]))
        category = np.concatenate((np.where(paired, _PAIR, _SOLO),
                                   np.full(len(stalls), _STALL),
                                   np.full(len(branches), _BUBBLE)))
        if not len(order):
            return
        rank = np.argsort(order, kind="stable")
        start, length, category = start[rank], length[rank], category[rank]
        runs = np.flatnonzero((category[1:] != category[:-1])
                              | (start[1:] != start[:-1] + length[:-1])) + 1
        runs = np.concatenate(([0], runs))
        for at, cycles, kind in zip(start[runs].tolist(),
                                    np.add.reduceat(length, runs).tolist(),
                                    category[runs].tolist()):
            self._append(at, cycles, CATEGORIES[kind])

    # -- segment bookkeeping --------------------------------------------------

    def _append(self, start: int, length: int, category: str) -> None:
        segments = self.segments
        if segments:
            last = segments[-1]
            if last.category == category and last.end == start:
                last.length += length
                return
        if len(segments) >= self.max_segments:
            self.truncated = True
            totals = self.overflow_totals
            totals[category] = totals.get(category, 0) + length
            return
        segments.append(CycleSegment(start, length, category))

    # -- views ----------------------------------------------------------------

    def totals(self) -> dict[str, int]:
        """Cycles per category (timeline + any overflowed remainder)."""
        totals = {category: 0 for category in CATEGORIES}
        for segment in self.segments:
            totals[segment.category] += segment.length
        for category, length in self.overflow_totals.items():
            totals[category] += length
        return totals

    def total_cycles(self) -> int:
        return sum(self.totals().values())

    def as_dict(self) -> dict:
        """JSON-friendly timeline summary."""
        return {
            "totals": self.totals(),
            "total_cycles": self.total_cycles(),
            "segments": [segment.as_dict() for segment in self.segments],
            "truncated": self.truncated,
        }
