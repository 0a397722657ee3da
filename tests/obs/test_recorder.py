"""Differential oracle: recorded runs against the per-uop recording.

A :class:`~repro.obs.recorder.Recorder` lets an observed STRICT run keep
entering translated blocks, so everything read from its columns must equal
what the per-uop issue loop records (``Machine._translate = False``: its
``rec.issue``/``rec.stall``/``rec.branch`` calls):

* the run's start, issue, stall, branch and end records, read into
  test-local tuples (:func:`chunk_events`), record for record;
* the columnar :class:`TraceProfiler` against the event-at-a-time trace
  aggregation it replaced (:func:`reference_traces`), compared through
  ``sorted_traces()``, ``stable_heads()`` and ``attributed_cycles()``;
* the columnar :class:`CycleAttribution` against the event-at-a-time
  timeline it replaced (:func:`reference_timeline`).

The reference side records with one reader and the default chunk size on
the per-uop path; the recorded side adds the profiler and the timeline and
enters blocks.  (The ``..._bus_subscribers`` and ``..._issue_events`` test
names date from when the reference side was a set of event-bus callbacks,
and ``test_degrade_run_records_on_the_per_uop_path`` from when DEGRADE runs
never entered blocks.)
"""

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

import pytest

from repro.analysis import profile
from repro.cpu import Machine, Memory, blocks, trace_run
from repro.errors import SimulationError
from repro.faults import FaultInjector, FaultSpec
from repro.isa import assemble
from repro.kernels import ALL_KERNELS, make_kernel
from repro.kernels.fft import FFTKernel
from repro.obs import CycleAttribution, CycleSegment, TraceProfiler, TraceStats
from repro.obs.recorder import ROUTED, V_PIPE, Reader, Recorder
from repro.simd import use_backend


def build_kernel(name):
    if name == "FFT1024":  # the --fast size, as ExperimentSuite(fast=True)
        kernel = FFTKernel(n=256)
        kernel.name = name
        return kernel
    return make_kernel(name)


# ---- one record per fact of a run -------------------------------------------


@dataclass(frozen=True)
class RunStart:
    program: str
    fill_cycles: int


@dataclass(frozen=True)
class Issue:
    seq: int
    cycle: int
    pc: int
    instr: Any
    pipe: str
    routed: bool


@dataclass(frozen=True)
class Stall:
    cycle: int
    pc: int
    cycles: int


@dataclass(frozen=True)
class Branch:
    cycle: int
    pc: int
    taken: bool
    predicted_taken: bool
    mispredict: bool
    penalty: int


@dataclass(frozen=True)
class RunEnd:
    program: str
    cycles: int
    instructions: int
    finished: bool


def chunk_events(chunk, instructions):
    """*chunk*'s stalls, issues and branches as records, in issue order.

    A stall comes before the issue it delays and a branch after its own
    issue; the last chunk may end with a stall before an issue that
    faulted.
    """
    stalls = chunk.stalls.tolist()
    branches = chunk.branches.tolist()
    s = b = 0
    for i, (pc, cycle, flags) in enumerate(zip(chunk.pc.tolist(), chunk.cycle.tolist(),
                                               chunk.flags.tolist())):
        while s < len(stalls) and stalls[s][0] == i:
            _, stall_pc, stall_cycle, length = stalls[s]
            yield Stall(stall_cycle, stall_pc, length)
            s += 1
        yield Issue(chunk.base + i, cycle, pc, instructions[pc],
                    "V" if flags & V_PIPE else "U", bool(flags & ROUTED))
        while b < len(branches) and branches[b][0] == i:
            _, code, penalty = branches[b]
            taken, mispredict = bool(code & 1), bool(code & 2)
            yield Branch(cycle, pc, taken, taken != mispredict, mispredict, penalty)
            b += 1
    for _, stall_pc, stall_cycle, length in stalls[s:]:
        yield Stall(stall_cycle, stall_pc, length)


class EventLog(Reader):
    """Recorder reader materializing every record of the run."""

    def __init__(self, machine) -> None:
        self.instructions = machine.program.instructions
        self.events = []

    def on_start(self, recorder) -> None:
        self.events.append(RunStart(recorder.program, recorder.fill_cycles))

    def on_chunk(self, chunk) -> None:
        self.events.extend(chunk_events(chunk, self.instructions))

    def on_end(self, recorder) -> None:
        self.events.append(RunEnd(recorder.program, recorder.cycles,
                                  recorder.instructions, recorder.finished))


# ---- the event-at-a-time references ------------------------------------------


def reference_traces(events, max_body=4096) -> TraceProfiler:
    """Aggregate *events* one at a time into a profiler's ``traces``."""
    profiler = TraceProfiler(max_body)
    traces = profiler.traces
    pcs, counters = [], [0] * 7
    state = {"open": False, "truncated": False, "start": 0, "prev": -1, "stall": 0}
    seen = set()

    def close(at):
        body = tuple(pcs)
        trace = traces.setdefault((body[0], body), TraceStats(body[0], body, False))
        trace.executions += 1
        trace.cycles += at - state["start"]
        for name, value in zip(("instructions", "pair_issues", "stall_cycles",
                                "mispredict_cycles", "mmx_instructions", "routed",
                                "cold_decodes"), counters):
            setattr(trace, name, getattr(trace, name) + value)
        trace.truncated = trace.truncated or state["truncated"]
        pcs.clear()
        counters[:] = [0] * 7
        state.update(open=False, truncated=False, start=at)

    for event in events:
        if isinstance(event, Issue):
            if state["open"] and event.pc <= state["prev"]:
                close(event.cycle)
            state.update(open=True, prev=event.pc)
            counters[0] += 1
            counters[1] += event.pipe == "V"
            counters[2] += state["stall"]
            state["stall"] = 0
            counters[4] += event.instr.is_mmx
            counters[5] += event.routed
            counters[6] += event.pc not in seen
            seen.add(event.pc)
            if len(pcs) < max_body:
                pcs.append(event.pc)
            else:
                state["truncated"] = True
        elif isinstance(event, Stall):
            state["stall"] += event.cycles
        elif isinstance(event, RunEnd):
            if state["open"]:
                close(event.cycles)
        elif not isinstance(event, RunStart):  # a branch
            counters[3] += event.penalty
    return profiler


def reference_timeline(events) -> list:
    """The cycle timeline of *events*, one event at a time (no cap)."""
    segments = []
    last_issue = -1

    def append(start, length, category):
        if segments and segments[-1].category == category and segments[-1].end == start:
            segments[-1].length += length
        else:
            segments.append(CycleSegment(start, length, category))

    for event in events:
        if isinstance(event, RunStart):
            if event.fill_cycles:
                append(0, event.fill_cycles, "drain")
        elif isinstance(event, Issue):
            if event.cycle != last_issue:
                last_issue = event.cycle
                append(event.cycle, 1, "solo_issue")
                continue
            last = segments[-1]  # the V partner upgrades its U cycle
            if last.length > 1:
                last.length -= 1
                segments.append(CycleSegment(event.cycle, 1, "pair_issue"))
            else:
                last.category = "pair_issue"
                if len(segments) > 1 and segments[-2].category == "pair_issue" \
                        and segments[-2].end == last.start:
                    segments[-2].length += 1
                    segments.pop()
        elif isinstance(event, Stall):
            append(event.cycle, event.cycles, "data_stall")
        elif not isinstance(event, RunEnd) and event.penalty:
            append(event.cycle + 1, event.penalty, "mispredict_bubble")
    return [segment.as_dict() for segment in segments]


# ---- running both sides --------------------------------------------------------


def observe(machine, recorded, max_body=4096, chunk_size=None, max_cycles=None):
    """Run *machine* observed; ``(stats or error, events, profiler, timeline)``.

    *recorded* attaches the profiler and the timeline beside the record log
    and lets the run enter translated blocks; otherwise the record log
    alone reads the per-uop path's recording (the reference).
    """
    log = EventLog(machine)
    Recorder.add(machine, log)
    profiler = timeline = None
    if recorded:
        if chunk_size is not None:
            machine.recorder.chunk_size = chunk_size
        profiler = TraceProfiler(max_body).attach(machine)
        timeline = CycleAttribution().attach(machine)
    else:
        machine._translate = False
    try:
        outcome = machine.run(max_cycles=max_cycles)
    except SimulationError as error:
        outcome = error
    if recorded:
        profiler.detach()
        timeline.detach()
    machine.recorder.remove(log)
    assert machine.recorder is None
    return outcome, log.events, profiler, timeline


def assert_same(recorded, reference, max_body=4096):
    outcome, events, profiler, timeline = recorded
    ref_outcome, ref_events = reference[:2]
    assert type(outcome) is type(ref_outcome)
    if not isinstance(outcome, Exception):
        assert outcome.as_dict() == ref_outcome.as_dict()
        stalls = [e for e in events if isinstance(e, Stall)]
        branches = [e for e in events if isinstance(e, Branch)]
        assert sum(e.cycles for e in stalls) == outcome.stall_cycles
        assert len(branches) == outcome.branches
        assert sum(e.mispredict for e in branches) == outcome.mispredicts
        assert sum(e.penalty for e in branches) == outcome.mispredict_cycles
    assert events == ref_events
    expected = reference_traces(ref_events, max_body)
    assert [t.as_dict() for t in profiler.sorted_traces()] == \
        [t.as_dict() for t in expected.sorted_traces()]
    assert [t.body for t in profiler.sorted_traces()] == \
        [t.body for t in expected.sorted_traces()]
    assert profiler.stable_heads() == expected.stable_heads()
    assert profiler.attributed_cycles() == expected.attributed_cycles()
    assert profiler.total_instructions == sum(isinstance(e, Issue) for e in ref_events)
    assert timeline.as_dict()["segments"] == reference_timeline(ref_events)
    assert not timeline.truncated


def translate_at(monkeypatch, entries: int) -> None:
    """Translate a leader on its *entries*-th entry, from fresh shared
    tables (a text an earlier test translated would be entered at once)."""
    monkeypatch.setattr(blocks, "_shared", OrderedDict())
    monkeypatch.setattr(blocks, "HOT_ENTRIES", entries)


def translated_exits(monkeypatch) -> list:
    """Count the translated-block exits runs take for the first time."""
    taken = []
    first_issue = blocks.first_issue

    def spy(exit, issue_counts, reasons):
        taken.append(exit)
        first_issue(exit, issue_counts, reasons)

    monkeypatch.setattr(blocks, "first_issue", spy)
    return taken


@pytest.mark.parametrize("backend", ("swar", "reference"))
@pytest.mark.parametrize("variant", ("mmx", "spu"))
@pytest.mark.parametrize("name", sorted(ALL_KERNELS))
def test_recorded_run_matches_bus_subscribers(name, variant, backend):
    kernel = build_kernel(name)
    with use_backend(backend):
        reference = observe(kernel.machine(variant), recorded=False)
        recorded = observe(kernel.machine(variant), recorded=True)
        # The program's block heads are warm now: this run enters blocks
        # wherever its loops ran HOT_ENTRIES times before.
        warm = observe(kernel.machine(variant), recorded=True)
    assert_same(recorded, reference)
    assert_same(warm, reference)


@pytest.mark.parametrize("name", ("FIR12", "IIR", "Viterbi", "MatrixTranspose"))
def test_chunk_boundaries_and_truncation(name, monkeypatch):
    """Tiny chunks and bodies: traces and timelines carry across chunks."""
    translate_at(monkeypatch, 1)
    kernel = build_kernel(name)
    for variant in ("mmx", "spu"):
        reference = observe(kernel.machine(variant), recorded=False)
        for chunk_size in (1, 5, 64):
            for max_body in (3, 4096):
                recorded = observe(kernel.machine(variant), recorded=True,
                                   max_body=max_body, chunk_size=chunk_size)
                assert_same(recorded, reference, max_body)


def test_every_block_translated(monkeypatch):
    """HOT_ENTRIES=1: every leader is translated on first sight."""
    translate_at(monkeypatch, 1)
    taken = translated_exits(monkeypatch)
    for name in sorted(ALL_KERNELS):
        kernel = build_kernel(name)
        for variant in ("mmx", "spu"):
            reference = observe(kernel.machine(variant), recorded=False)
            before = len(taken)
            recorded = observe(kernel.machine(variant), recorded=True)
            assert len(taken) > before, (name, variant)
            assert_same(recorded, reference)


def test_watchdog_abort_closes_the_recording(monkeypatch):
    translate_at(monkeypatch, 1)
    kernel = build_kernel("FFT128")
    full = kernel.run_spu()[0].cycles
    reference = observe(kernel.machine("spu"), recorded=False, max_cycles=full // 2)
    recorded = observe(kernel.machine("spu"), recorded=True, max_cycles=full // 2)
    assert isinstance(recorded[0], SimulationError)
    assert recorded[1][-1].finished is False
    assert recorded[2].attributed_cycles() == recorded[0].stats.cycles
    assert_same(recorded, reference)


def test_degrade_run_records_on_the_per_uop_path():
    spec = FaultSpec("register_bit", trigger=5, byte=1, bit=0)
    kernel = make_kernel("DotProduct")
    sides = []
    for recorded in (False, True):
        machine = kernel.machine("spu", resilience="degrade")
        injector = FaultInjector(machine, spec)
        sides.append(observe(machine, recorded=recorded))
        injector.detach()
        assert injector.fired
    assert_same(sides[1], sides[0])


@pytest.mark.parametrize("resilience", ("degrade", "halt"))
def test_stall_before_a_faulting_issue(resilience):
    """The load waits on ``imul`` and then faults: its stall is recorded
    though the issue is not (dropped, or the run stops right there)."""
    source = "mov r4, 1000000\nmov r5, 4096\nimul r4, r5\nldw r6, [r4]\nadd r7, 1\nhalt"
    sides = [observe(Machine(assemble(source), resilience=resilience), recorded=recorded)
             for recorded in (False, True)]
    assert any(isinstance(event, Stall) for event in sides[1][1])
    assert sides[1][0].faults == 1
    assert_same(sides[1], sides[0])


@pytest.mark.parametrize("resilience", ("degrade", "halt"))
def test_fault_exits_record_their_issues(resilience, monkeypatch):
    """Loads walk off a 2 KiB memory inside a hot loop: each faulting load
    leaves its recorded block by a fault exit, which records the issues
    before it (and the load's stall), as the per-uop loop records them."""
    translate_at(monkeypatch, 2)
    taken = translated_exits(monkeypatch)
    source = """
            mov r1, 0
            mov r6, 1
            mov r0, 700
    top:    mov r5, r1
            imul r5, r6
            ldw r3, [r5]
            add r2, 1
            paddw mm0, mm1
            add r1, 4
            loop r0, top
            halt
    """
    program = assemble(source)
    sides = [observe(Machine(program, memory=Memory(2048), resilience=resilience),
                     recorded=recorded, max_body=8)
             for recorded in (False, True)]
    assert taken and sides[1][0].faults >= 1
    assert_same(sides[1], sides[0], max_body=8)


def test_recorded_fft1024_takes_translated_exits(monkeypatch):
    taken = translated_exits(monkeypatch)
    kernel = make_kernel("FFT1024")
    machine = kernel.machine("mmx")
    profiler = TraceProfiler().attach(machine)
    stats = machine.run()
    profiler.detach()
    assert taken
    assert profiler.attributed_cycles() == stats.cycles
    recorded_heads = machine.program._block_cache[(False, 2, 1, True)]
    assert any(head.fn is not None for head in recorded_heads.values())


@pytest.mark.parametrize("name", sorted(ALL_KERNELS))
def test_profile_and_trace_match_issue_events(name):
    """``repro profile``'s opcode mix and ``repro trace``'s entries, read
    from the recorder in blocks, equal the per-uop recording's issues."""
    kernel = build_kernel(name)
    for variant in ("mmx", "spu"):
        events = observe(kernel.machine(variant), recorded=False)[1]
        issues = [event for event in events if isinstance(event, Issue)]
        expected = {}
        for event in issues:
            expected[event.instr.name] = expected.get(event.instr.name, 0) + 1
        mix = profile(kernel.machine(variant)).by_opcode
        assert list(mix.items()) == list(expected.items())
        assert dict(mix.most_common()) == dict(sorted(
            expected.items(), key=lambda item: -item[1]))
        trace = trace_run(kernel.machine(variant), max_entries=1000)
        assert [(e.seq, e.cycle, e.pc, e.pipe, e.is_mmx, e.routed) for e in trace] == [
            (e.seq, e.cycle, e.pc, e.pipe, e.instr.is_mmx, e.routed) for e in issues[:1000]]
        assert [e.text for e in trace] == [
            str(e.instr).split(": ")[-1] for e in issues[:1000]]


def test_hand_driven_recorder_detaches_cleanly():
    """A hand-driven recorder feeds its reader and leaves with it."""
    from types import SimpleNamespace

    target = SimpleNamespace(recorder=None)
    profiler = TraceProfiler().attach(target)
    recorder = target.recorder
    assert recorder is not None and recorder.readers == [profiler]
    recorder.start("p", 0)
    recorder.issue(0, 1, 0)
    recorder.end(1, 1, True)
    assert profiler.attributed_cycles() == 1
    profiler.detach()
    assert target.recorder is None
