"""Guard: the event bus costs nothing when nobody is listening.

The pipeline's emission sites are all guarded by a subscriber-list emptiness
test (``if bus.issue: ...``), so an unobserved run should match pre-bus
throughput.  :class:`PreBusMachine` reproduces the pre-bus hot loop exactly
— the current per-uop ``run``/``_issue_uop``/``_branch_cost`` with every bus
statement, resilience handler and translated-block entry deleted — and this
bench asserts the instrumented, zero-subscriber machine stays within 5% of
it on the same per-uop path (block translation forced off, as in
``tests/cpu/test_blocks.py``).

Unobserved runs normally enter translated blocks (``repro.cpu.blocks``),
which runs with a callback subscriber never do, so the price of subscribing
is also recorded against the translated path: that is what a user pays to
look at a run.  A columnar recorder (``repro.obs.recorder``) keeps an
observed run in blocks: the "recorder vs translated" row prices a run with
the hot-trace profiler reading the recorder, and is gated at +100%.

Measurement shape, each part earned by a failure mode it removes:

* within a process, each measured pipeline is timed in an *adjacent pair*
  with its baseline (``PAIRS``), alternating which of the two runs first,
  and the statistic is the **ratio** of the pair — load and frequency
  drift on a shared host move both halves of a pair together, where
  comparing per-pipeline minima taken seconds apart let one noisy stretch
  land on one side only (the 5% gate once read 13% on identical code);
* the process reports the **median** of its ``PAIR_ROUNDS`` pair ratios,
  so a pair split by a scheduler hiccup is outvoted rather than averaged;
* every pipeline gets one untimed warm-up run first, so CPython's adaptive
  specialization has settled before the clock starts;
* the whole measurement is repeated in ``PROCESSES`` fresh interpreters and
  the **median** per-process ratio is asserted — a single process can be
  ±5-9% off purely from code-layout luck (how the allocator and JIT-less
  specializer happen to land), and that bias is fixed for the process's
  lifetime, so no amount of in-process repetition averages it away.

A fully-subscribed run is measured too, for the record.
"""

import json
import os
import statistics
import subprocess
import sys
import time

if __name__ == "__main__":  # re-entered as a measurement subprocess
    emit = None
else:
    from conftest import emit

from repro.analysis import format_table, ratio
from repro.cpu import Machine
from repro.cpu.executor import SCOREBOARD_KEYS, decode, uop_table
from repro.cpu.pairing import can_pair
from repro.cpu.stats import RunStats
from repro.errors import SimulationError
from repro.isa import assemble
from repro.obs import TraceProfiler

#: ~70 ms per pre-bus run on a shared 2-vCPU VM: long enough to time stably.
ITERATIONS = 8_000
SOURCE = (
    f"mov r0, {ITERATIONS}\n"
    "top: paddw mm0, mm1\n"
    "psubw mm2, mm3\n"
    "pxor mm4, mm5\n"
    "loop r0, top\n"
    "halt"
)
#: ``(measured, baseline)`` pipelines timed back to back.
PAIRS = (
    ("idle", "prebus"),
    ("tracer_off", "prebus"),
    ("translated", "prebus"),
    ("observed", "translated"),
    ("recorded", "translated"),
)
PAIR_ROUNDS = 7
PROCESSES = 9


class PreBusMachine(Machine):
    """The pre-telemetry pipeline: identical cycle model, no emission sites."""

    def _issue_uop(self, uop, cycle, reg_ready, stats, pipe="U"):
        instr = uop.instr
        spu = self.spu
        routes = spu.routes_for(instr, self.state) if spu is not None else None
        if routes is not None:
            stats.spu_routed += 1
        outcome = uop.run(self.state, self.memory, routes)
        stats.instructions += 1
        latency = uop.latency
        if uop.reads_memory and latency < self.config.memory_latency:
            latency = self.config.memory_latency
        for key in uop.written_keys:
            reg_ready[key] = cycle + latency
        return outcome

    def _branch_cost(self, instr, pc, outcome, stats, cycle=0):
        stats.branches += 1
        if instr.opcode.sem == "jmp":
            predicted = True
        else:
            target = outcome.target if outcome.target is not None else pc
            predicted = self.predictor.predict(pc, target)
            self.predictor.update(pc, target, outcome.taken)
        penalty = 0
        if predicted != outcome.taken:
            stats.mispredicts += 1
            penalty = self.config.mispredict_penalty + (
                1 if self.config.extra_stage else 0
            )
            stats.mispredict_cycles += penalty
        return penalty

    def run(self, max_cycles=None):
        limit = max_cycles if max_cycles is not None else self.config.max_cycles
        stats = RunStats()
        state = self.state
        program = self.program
        instructions = program.instructions
        size = len(instructions)
        uops = uop_table(program)
        uops_get = uops.get
        reg_ready = [0] * SCOREBOARD_KEYS
        issue_counts = {}
        issue_counts_get = issue_counts.get
        pair_cache = self._pair_cache
        dual_issue = self.config.issue_width >= 2
        fill = 1 if self.config.extra_stage else 0
        stats.drain_cycles = fill
        cycle = fill
        pc = state.pc

        while not state.halted:
            if cycle > limit:
                stats.cycles = cycle
                raise SimulationError(f"cycle budget exceeded ({limit})")
            if not 0 <= pc < size:
                raise SimulationError(f"fell off program (pc={pc})")
            instr = instructions[pc]
            uop = uops_get(pc)
            if uop is None or uop.instr is not instr:
                uop = decode(instr, program, pc)
                uops[pc] = uop

            ready = 0
            for key in uop.read_keys:
                when = reg_ready[key]
                if when > ready:
                    ready = when
            if ready > cycle:
                stats.stall_cycles += ready - cycle
                cycle = ready

            state.pc = pc
            outcome = self._issue_uop(uop, cycle, reg_ready, stats)
            issue_counts[pc] = issue_counts_get(pc, 0) + 1
            mmx_busy = uop.is_mmx

            if state.halted:
                cycle += 1
                stats.solo_cycles += 1
                break

            if outcome is not None:
                cycle += 1 + self._branch_cost(instr, pc, outcome, stats, cycle)
                stats.solo_cycles += 1
                if mmx_busy:
                    stats.mmx_busy_cycles += 1
                pc = outcome.next_pc
                continue

            pc += 1
            paired = False
            if dual_issue and pc < size:
                follower = instructions[pc]
                fuop = uops_get(pc)
                if fuop is None or fuop.instr is not follower:
                    fuop = decode(follower, program, pc)
                    uops[pc] = fuop
                key = (state.pc, pc)
                cached = pair_cache.get(key)
                if cached is None:
                    cached = can_pair(instr, follower)
                    pair_cache[key] = cached
                ok, reason = cached
                if ok:
                    ready = 0
                    for key in fuop.read_keys:
                        when = reg_ready[key]
                        if when > ready:
                            ready = when
                    if ready <= cycle:
                        state.pc = pc
                        outcome2 = self._issue_uop(fuop, cycle, reg_ready, stats, "V")
                        issue_counts[pc] = issue_counts_get(pc, 0) + 1
                        paired = True
                        mmx_busy = mmx_busy or fuop.is_mmx
                        extra = 0
                        if outcome2 is not None:
                            if outcome2.is_branch:
                                extra = self._branch_cost(follower, pc, outcome2, stats, cycle)
                            pc = outcome2.next_pc
                        else:
                            pc += 1
                        cycle += 1 + extra
                    else:
                        stats.pair_fail_reasons["operands not ready"] += 1
                        cycle += 1
                else:
                    stats.pair_fail_reasons[reason] += 1
                    cycle += 1
            else:
                cycle += 1

            if paired:
                stats.pair_cycles += 1
            else:
                stats.solo_cycles += 1
            if mmx_busy:
                stats.mmx_busy_cycles += 1

        self._fold_issue_counts(stats, uops, issue_counts, {})
        stats.cycles = cycle
        stats.finished = state.halted
        return stats


def _per_uop(program):
    """A machine that never enters translated blocks."""
    machine = Machine(program)
    machine._translate = False
    return machine


def _cases(program):
    counter = []
    return [
        ("prebus", lambda: PreBusMachine(program), None),
        ("idle", lambda: _per_uop(program), None),
        # A trace profiler that was attached and then detached must leave the
        # machine indistinguishable from one that never saw it: detach drops
        # the subscriber lists back to empty, so the hot loop's emptiness
        # guards skip every emission site again.
        ("tracer_off", lambda: _per_uop(program),
         lambda machine: TraceProfiler().attach(machine).detach()),
        # What an unobserved run really does: enter translated blocks (the
        # warm-up run has translated the loop body).
        ("translated", lambda: Machine(program), None),
        ("observed", lambda: Machine(program),
         lambda machine: machine.bus.subscribe("issue", counter.append)),
        # The hot-trace profiler reads the recorder, which translated blocks
        # append to (the warm-up run has translated the recorded variant).
        ("recorded", lambda: Machine(program),
         lambda machine: TraceProfiler().attach(machine)),
    ]


def _measure():
    """One process's estimate: warm-up, then median ratios of adjacent pairs."""
    program = assemble(SOURCE)
    cases = {name: (factory, subscribe) for name, factory, subscribe in _cases(program)}

    def timed(name):
        factory, subscribe = cases[name]
        machine = factory()
        if subscribe is not None:
            subscribe(machine)
        start = time.perf_counter()
        machine.run()
        return time.perf_counter() - start

    for name in cases:  # settle adaptive specialization
        timed(name)
    times = {name: [] for name in cases}
    ratios = {f"{measured}/{baseline}": [] for measured, baseline in PAIRS}
    for round_ in range(PAIR_ROUNDS):
        for measured, baseline in PAIRS:
            order = (measured, baseline) if round_ % 2 == 0 else (baseline, measured)
            pair = {name: timed(name) for name in order}
            times[measured].append(pair[measured])
            times[baseline].append(pair[baseline])
            ratios[f"{measured}/{baseline}"].append(pair[measured] / pair[baseline])
    return {
        "times": {name: statistics.median(values) for name, values in times.items()},
        "ratios": {key: statistics.median(values) for key, values in ratios.items()},
    }


def _sample_processes():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    samples = []
    for _ in range(PROCESSES):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            check=True, capture_output=True, text=True, env=env,
        )
        samples.append(json.loads(out.stdout))
    return samples


def test_zero_subscriber_overhead(benchmark):
    program = assemble(SOURCE)

    # The replica must be cycle-identical before its timing means anything.
    instrumented_stats = Machine(program).run()
    prebus_stats = PreBusMachine(program).run()
    assert instrumented_stats.as_dict() == prebus_stats.as_dict()

    started = time.perf_counter()
    samples = benchmark.pedantic(_sample_processes, rounds=1, iterations=1)
    elapsed = time.perf_counter() - started
    (prebus_time, idle_time, tracer_off_time, translated_time, observed_time,
     recorded_time) = (
        statistics.median(s["times"][name] for s in samples)
        for name in ("prebus", "idle", "tracer_off", "translated", "observed",
                     "recorded")
    )

    def overhead(pair):
        return statistics.median(s["ratios"][pair] for s in samples) - 1

    idle_overhead = overhead("idle/prebus")
    tracer_off_overhead = overhead("tracer_off/prebus")
    observed_overhead = observed_time / prebus_time - 1  # for the record
    translated_overhead = overhead("translated/prebus")
    observed_vs_translated = overhead("observed/translated")
    recorded_vs_translated = overhead("recorded/translated")
    rows = [
        ["pre-bus baseline", f"{prebus_time * 1e3:.1f}", "-"],
        ["event bus, no subscribers", f"{idle_time * 1e3:.1f}",
         ratio(idle_overhead * 100, 2) + "%"],
        ["trace profiler attached+detached", f"{tracer_off_time * 1e3:.1f}",
         ratio(tracer_off_overhead * 100, 2) + "%"],
        ["translated blocks, no subscribers", f"{translated_time * 1e3:.1f}",
         ratio(translated_overhead * 100, 2) + "%"],
        ["event bus, issue subscriber", f"{observed_time * 1e3:.1f}",
         ratio(observed_overhead * 100, 2) + "%"],
        ["issue subscriber vs translated", "-",
         ratio(observed_vs_translated * 100, 2) + "%"],
        ["recorder + trace profiler", f"{recorded_time * 1e3:.1f}",
         ratio((recorded_time / prebus_time - 1) * 100, 2) + "%"],
        ["recorder vs translated", "-",
         ratio(recorded_vs_translated * 100, 2) + "%"],
    ]
    headers = ["pipeline", "median ms/run", "overhead"]
    text = format_table(
        headers, rows,
        title=(
            f"Observability overhead ({instrumented_stats.instructions} dynamic"
            f" instructions, median pair ratio of {PROCESSES} processes,"
            f" {elapsed:.0f} s)"
        ),
    )
    emit("obs_overhead", text, headers=headers, rows=rows,
         data={"prebus_s": prebus_time, "idle_s": idle_time,
               "tracer_off_s": tracer_off_time,
               "translated_s": translated_time,
               "observed_s": observed_time, "recorded_s": recorded_time,
               "idle_overhead": idle_overhead,
               "tracer_off_overhead": tracer_off_overhead,
               "translated_overhead": translated_overhead,
               "observed_overhead": observed_overhead,
               "observed_vs_translated_overhead": observed_vs_translated,
               "recorded_vs_translated_overhead": recorded_vs_translated,
               "processes": PROCESSES, "pair_rounds": PAIR_ROUNDS,
               "elapsed_s": elapsed})

    # The guard: an unobserved instrumented run is within 5% of pre-bus.
    assert idle_overhead < 0.05, (
        f"zero-subscriber bus overhead {idle_overhead:.1%} exceeds the 5% budget"
    )
    # A detached trace profiler gets the same budget: detach must return the
    # bus to the zero-subscriber fast path, not leave residual dispatch work.
    assert tracer_off_overhead < 0.05, (
        f"detached-tracer overhead {tracer_off_overhead:.1%} exceeds the"
        " 5% budget"
    )
    # Looking at a run through the recorder keeps it in translated blocks:
    # at most twice the unobserved translated run.
    assert recorded_vs_translated <= 1.0, (
        f"recorder overhead {recorded_vs_translated:.1%} over translated"
        " exceeds the +100% budget"
    )


if __name__ == "__main__":
    print(json.dumps(_measure()))
