"""In-order dual-issue cycle model and the top-level :class:`Machine`.

The timing model implements the machine the paper evaluates against (§2,
§5.2.1): an in-order processor whose MMX unit issues up to two instructions
per cycle into the U and V pipes under the published pairing rules, with
three-cycle multiplies, single-cycle everything else, and L1-resident code
and data.  Out-of-order execution is deliberately absent — "most vector
architectures are in-order machines, as out-of-order execution would not
improve ILP beyond vectorization" (§5.2.1).

An SPU can be attached (:mod:`repro.core.integration`); when active it
reroutes the source operands of each dynamic MMX instruction through the
crossbar and advances its decoupled controller — the pipeline only asks for
the routed values, keeping this module independent of the SPU internals.

A run is observed through an attached :attr:`Machine.recorder`
(:mod:`repro.obs.recorder`): the issue loop and the translated blocks
append each issue, stall, branch and the run's start and end to its
columns.  Faults and degradations are counted in :class:`RunStats`
(``faults``, ``degraded_issues``).  A fault injector arms
:attr:`Machine.trigger`, a one-shot callback after one exact issue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

from repro.errors import ReproError, RunnerInterrupted, SimulationError
from repro.resilience import ResilienceMode
from repro.cpu import blocks
from repro.cpu.branch import BranchPredictor, make_predictor
from repro.cpu.executor import (
    SCOREBOARD_KEYS,
    DecodedOp,
    ExecOutcome,
    cold_decode,
    uop_table,
)
from repro.cpu.memory import Memory
from repro.cpu.pairing import can_pair
from repro.cpu.state import MachineState
from repro.cpu.stats import RunStats
from repro.isa.instructions import Instruction, Program
from repro.obs.recorder import issue_flags


class SPUAttachment(Protocol):
    """What the pipeline needs from an attached SPU."""

    @property
    def active(self) -> bool:
        """True while the controller is running (GO set, not in idle state)."""
        ...

    def routes_for(self, instr: Instruction, state: MachineState) -> dict[int, int] | None:
        """Routed source-operand values for one dynamic instruction.

        Called exactly once per issued instruction in program order (the
        controller's counters count *all* dynamic loop instructions, §4);
        advances the decoupled controller.  Returns ``None`` when inactive,
        for non-MMX instructions, or when the state routes straight through.
        While :attr:`active` is false the call must do nothing, so translated
        blocks (:mod:`repro.cpu.blocks`) skip it then.
        """
        ...

    def block_env(self) -> tuple:
        """The callables and live state translated blocks step the SPU with.

        See :meth:`repro.core.integration.AttachedSPU.block_env`: blocks
        take the controller step inline and call :meth:`routes_for` only
        where the inline step does not apply.
        """
        ...


@dataclass
class PipelineConfig:
    """Timing-model parameters."""

    #: Cycles lost on a mispredicted branch (Pentium-class resolve depth).
    mispredict_penalty: int = 4
    #: Model the extra pipeline stage added for the SPU interconnect
    #: (§5.1.1): one extra fill cycle and +1 mispredict penalty.
    extra_stage: bool = False
    #: 2 = U+V pairing (default); 1 = single issue (pairing ablation).
    issue_width: int = 2
    #: Load-to-use latency in cycles.  1 models the paper's "code is assumed
    #: to reside in L1 cache" setting (§5.2.1); larger values model L1
    #: misses for the memory-sensitivity ablation.
    memory_latency: int = 1
    #: Upper bound on simulated cycles before aborting as a runaway.
    max_cycles: int = 200_000_000


class Machine:
    """A simulated Pentium-MMX-class processor running one program."""

    def __init__(
        self,
        program: Program,
        memory: Memory | None = None,
        predictor: BranchPredictor | str = "bimodal",
        config: PipelineConfig | None = None,
        spu: SPUAttachment | None = None,
        resilience: ResilienceMode | str | None = None,
    ) -> None:
        self.program = program
        #: Failure posture (see :mod:`repro.resilience`): STRICT raises on
        #: any fault, DEGRADE absorbs recoverable ones (counting them in
        #: :class:`RunStats`), HALT fail-stops the run cleanly.
        self.resilience = ResilienceMode.parse(resilience)
        self.memory = memory if memory is not None else Memory()
        self.predictor = (
            make_predictor(predictor) if isinstance(predictor, str) else predictor
        )
        self.config = config if config is not None else PipelineConfig()
        self.spu = spu
        self.state = MachineState()
        #: The columnar sink observers read (:class:`repro.obs.recorder.Recorder`);
        #: attached by ``Recorder.add`` and cleared when its last reader leaves.
        self.recorder = None
        #: One-shot issue trigger ``(index, fn)``: ``fn()`` runs once, right
        #: after the issue with run-wide index *index* is counted and before
        #: the recorder and the scoreboard see it; the slot is cleared before
        #: the call.  While it is armed, a run enters only translated blocks
        #: that end before that issue, so the issue is on the per-uop path.
        #: Arm it before a run (or again from its own callback): an armed
        #: run folds each block exit as it is taken, so its issue count is
        #: live.
        self.trigger: tuple[int, Callable[[], None]] | None = None
        # Pairing decisions depend only on the two static instructions; the
        # program never changes under a machine, so memoize per pc pair.
        self._pair_cache: dict[tuple[int, int], tuple[bool, str]] = {}

    #: Enter translated blocks (:mod:`repro.cpu.blocks`) where allowed.
    #: Tests clear it on an instance to force the per-uop path.
    _translate = True

    # ---- helpers ---------------------------------------------------------

    def reset(self) -> None:
        """Clear architectural state and predictor history (memory persists)."""
        self.state = MachineState()
        self.predictor.reset()

    def _spu_routes(self, instr: Instruction) -> dict[int, int] | None:
        if self.spu is None:
            return None
        return self.spu.routes_for(instr, self.state)

    def _uop_at(self, pc: int) -> DecodedOp:
        """Fetch (decoding on first sight) the micro-op for *pc*.

        Entries are validated by instruction identity, so a program whose
        instruction list was edited in place is re-decoded transparently.
        """
        program = self.program
        instr = program.instructions[pc]
        uops = uop_table(program)
        uop = uops.get(pc)
        if uop is None or uop.instr is not instr:
            uop = cold_decode(uops, program, pc, instr, uop)
        return uop

    def _issue_uop(
        self,
        uop: DecodedOp,
        cycle: int,
        reg_ready: list[int],
        stats: RunStats,
        pipe: str = "U",
    ) -> ExecOutcome | None:
        """Issue one decoded micro-op; returns ``None`` for a fall-through.

        Order of effects: SPU routing, execution, dynamic count, the armed
        :attr:`trigger`, the recorder, then the scoreboard update.
        Per-class/permute counts are *not* bumped here — the run loop
        accumulates them per pc and folds them into :class:`RunStats` at
        run exit (see :meth:`_fold_issue_counts`); only the live
        ``instructions`` counter (the issue's run-wide index plus one)
        advances per issue.
        """
        instr = uop.instr
        spu = self.spu
        routes = spu.routes_for(instr, self.state) if spu is not None else None
        if routes is not None:
            stats.spu_routed += 1
        outcome = uop.run(self.state, self.memory, routes)
        stats.instructions += 1
        trigger = self.trigger
        if trigger is not None and stats.instructions > trigger[0]:
            self.trigger = None
            trigger[1]()
        rec = self.recorder
        if rec is not None:
            rec.issue(self.state.pc, cycle,
                      issue_flags(pipe == "V", routes is not None, uop.is_mmx))
        latency = uop.latency
        if uop.reads_memory and latency < self.config.memory_latency:
            latency = self.config.memory_latency
        for key in uop.written_keys:
            reg_ready[key] = cycle + latency
        return outcome

    def _fold_issue_counts(
        self,
        stats: RunStats,
        issue_counts: dict[int, int],
        tally: dict[blocks.Exit, int],
    ) -> None:
        """Fold deferred per-pc issue counts into the class/permute stats.

        Equivalent to having called ``RunStats.record_issue`` per dynamic
        issue (minus the live ``instructions`` counter, which the issue path
        maintains), but pays the Counter/enum hashing once per *static*
        instruction instead of once per dynamic instance.  Translated-block
        exits in *tally* are folded in first (their instructions count too).
        A pc that issued only in blocks another program translated is
        decoded here, as its first issue would have decoded it.
        """
        blocks.fold_exits(stats, tally, issue_counts)
        program = self.program
        instructions = program.instructions
        uops = uop_table(program)
        by_class = stats.by_class
        for pc, count in issue_counts.items():
            uop = uops.get(pc)
            if uop is None or uop.instr is not instructions[pc]:
                uop = cold_decode(uops, program, pc, instructions[pc], uop)
            by_class[uop.iclass] += count
            if uop.is_permute:
                stats.permutes += count
            if uop.is_alignment_candidate:
                stats.alignment_candidates += count

    def _issue_fault_action(self, error: ReproError, stats: RunStats) -> str:
        """Policy for a fault raised while issuing an instruction.

        STRICT re-raises *error*.  Otherwise the fault is counted and the
        returned action is ``"halt"`` (fail-stop the run cleanly) or
        ``"drop"`` (degrade: the faulting issue executes as a no-op).
        """
        if self.resilience is ResilienceMode.STRICT:
            raise error
        stats.faults += 1
        if self.resilience is ResilienceMode.HALT:
            return "halt"
        stats.degraded_issues += 1
        return "drop"

    def _abort(self, stats: RunStats, cycle: int, message: str) -> None:
        """Watchdog/runaway exit: a clean :class:`SimulationError`.

        The partial :class:`RunStats` are finalized, the recording is closed,
        and the raised error carries the stats as ``.stats`` so harnesses can
        report how far the run got.
        """
        stats.cycles = cycle
        stats.finished = False
        rec = self.recorder
        if rec is not None:
            rec.end(cycle, stats.instructions, False)
        error = SimulationError(message)
        error.stats = stats
        raise error

    def _branch_cost(self, instr: Instruction, pc: int, outcome: ExecOutcome,
                     stats: RunStats) -> int:
        """Predictor bookkeeping; returns extra cycles for a mispredict."""
        stats.branches += 1
        if instr.opcode.sem == "jmp":
            predicted = True  # static target, BTB hit assumed
        else:
            target = outcome.target if outcome.target is not None else pc
            predicted = self.predictor.predict(pc, target)
            self.predictor.update(pc, target, outcome.taken)
        penalty = 0
        if predicted != outcome.taken:
            stats.mispredicts += 1
            penalty = self.config.mispredict_penalty + (1 if self.config.extra_stage else 0)
            stats.mispredict_cycles += penalty
        rec = self.recorder
        if rec is not None:
            rec.branch(outcome.taken, predicted != outcome.taken, penalty)
        return penalty

    # ---- main loop ---------------------------------------------------------

    def run(self, max_cycles: int | None = None) -> RunStats:
        """Execute until ``halt``; returns the run's :class:`RunStats`.

        Raises :class:`SimulationError` on runaway execution (cycle budget
        exhausted) or on falling off the end of the program.

        Runs enter translated blocks at hot block heads; see
        :mod:`repro.cpu.blocks`.  Every count and cycle is the same either
        way.  While :attr:`trigger` is armed, only blocks that end before
        its issue are entered.  An issue that raises inside a block gets
        :meth:`_issue_fault_action` as in the per-uop loop, after the issues
        before it are counted, so DEGRADE and HALT runs use blocks as well.
        An attached :attr:`recorder` does not keep a run out of blocks: the
        per-uop path and the recorded variants of the blocks both append to
        its columns (translations are keyed on whether the run is recorded).
        """
        limit = max_cycles if max_cycles is not None else self.config.max_cycles
        stats = RunStats()
        state = self.state
        program = self.program
        config = self.config
        instructions = program.instructions
        size = len(instructions)
        uops = uop_table(program)
        uops_get = uops.get
        reg_ready = [0] * SCOREBOARD_KEYS
        #: pc -> dynamic issues; folded into by_class/permute stats at exit.
        issue_counts: dict[int, int] = {}
        issue_counts_get = issue_counts.get
        #: Translated-block exit -> times taken; folded at exit as well.
        tally: dict[blocks.Exit, int] = {}
        tally_get = tally.get
        pair_cache = self._pair_cache
        dual_issue = config.issue_width >= 2
        # Pipeline fill for the added SPU interconnect stage (§5.1.1) — the
        # timeline's initial "drain" cycles.
        fill = 1 if config.extra_stage else 0
        stats.drain_cycles = fill
        cycle = fill
        pc = state.pc
        rec = self.recorder
        if rec is not None:
            rec.start(program.name, fill)

        heads = None
        if self._translate:
            with_spu = self.spu is not None
            recorded = rec is not None
            heads = blocks.block_heads(program, with_spu, config.issue_width,
                                       config.memory_latency, recorded)
            heads.setdefault(pc, blocks.Head())  # the run's entry is a leader
            heads_get = heads.get
            stops: list[tuple[int, int]] = []
            env = blocks.run_env(self, reg_ready, stats, stops, rec)
            hot = blocks.HOT_ENTRIES
            fail_reasons = stats.pair_fail_reasons

        while not state.halted:
            if cycle > limit:
                self._fold_issue_counts(stats, issue_counts, tally)
                self._abort(
                    stats, cycle,
                    f"cycle budget exceeded ({limit}) in {program.name!r} at pc={pc}",
                )
            if not 0 <= pc < size:
                self._fold_issue_counts(stats, issue_counts, tally)
                self._abort(
                    stats, cycle,
                    f"fell off program {program.name!r} (pc={pc}); missing halt?",
                )
            if heads is not None:
                head = heads_get(pc)
                if head is not None:
                    block = head.fn
                    if block is None:
                        head.count += 1
                        if head.count >= hot:
                            block = blocks.translate(
                                heads, program, pc, reg_ready, cycle, with_spu,
                                dual_issue, config.memory_latency, recorded,
                            )
                    # Enter only if neither the watchdog nor the armed trigger
                    # can fire inside the block, so each fires in the issue
                    # loop, at the same cycle and issue as unblocked.
                    trigger = self.trigger
                    if block is not None and cycle + head.span <= limit and (
                            trigger is None
                            or stats.instructions + head.issues <= trigger[0]):
                        try:
                            cycle, index = block(env, cycle)
                        except RunnerInterrupted:
                            raise
                        except ReproError as error:
                            if not stops:
                                raise  # not raised by an issue
                            cycle, index = stops.pop()
                            action = self._issue_fault_action(error, stats)
                            exit = head.exits[index]
                            blocks.first_issue(exit, issue_counts, fail_reasons)
                            blocks.fold_exit(stats, exit, 1, issue_counts)
                            cycle += 1
                            if action == "halt":
                                break
                            pc = exit.next_pc
                            continue
                        if index >= 0:
                            exit = head.exits[index]
                            taken = tally_get(exit, 0)
                            if not taken and exit not in tally:
                                blocks.first_issue(exit, issue_counts, fail_reasons)
                            if trigger is None:
                                tally[exit] = taken + 1
                            else:
                                # Armed: fold at once, so stats.instructions
                                # stays the live count the trigger tests; the
                                # tally keeps 0 as the first-take mark.
                                blocks.fold_exit(stats, exit, 1, issue_counts)
                                tally[exit] = taken
                            pc = exit.next_pc
                            continue
                        # Edited in place: the program leaves the shared table.
                        program._block_cache = {}
                        heads = blocks.block_heads(program, with_spu, config.issue_width,
                                                   config.memory_latency, recorded)
                        heads_get = heads.get
            instr = instructions[pc]
            uop = uops_get(pc)
            if uop is None or uop.instr is not instr:
                uop = cold_decode(uops, program, pc, instr, uop)

            ready = 0
            for key in uop.read_keys:
                when = reg_ready[key]
                if when > ready:
                    ready = when
            if ready > cycle:
                if rec is not None:
                    rec.stall(pc, cycle, ready - cycle)
                stats.stall_cycles += ready - cycle
                cycle = ready

            state.pc = pc
            try:
                outcome = self._issue_uop(uop, cycle, reg_ready, stats)
            except RunnerInterrupted:
                raise  # campaign-level stop, not a simulated fault
            except ReproError as error:
                action = self._issue_fault_action(error, stats)
                cycle += 1
                stats.solo_cycles += 1
                if action == "halt":
                    break
                pc += 1
                continue
            issue_counts[pc] = issue_counts_get(pc, 0) + 1
            mmx_busy = uop.is_mmx

            if state.halted:
                cycle += 1
                stats.solo_cycles += 1
                break

            if outcome is not None:  # only control flow returns an outcome
                cycle += 1 + self._branch_cost(instr, pc, outcome, stats)
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
                    fuop = cold_decode(uops, program, pc, follower, fuop)
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
                        try:
                            outcome2 = self._issue_uop(fuop, cycle, reg_ready, stats, "V")
                        except RunnerInterrupted:
                            raise  # campaign-level stop, not a simulated fault
                        except ReproError as error:
                            action = self._issue_fault_action(error, stats)
                            cycle += 1
                            stats.solo_cycles += 1
                            if mmx_busy:
                                stats.mmx_busy_cycles += 1
                            if action == "halt":
                                break
                            pc += 1
                            continue
                        issue_counts[pc] = issue_counts_get(pc, 0) + 1
                        paired = True
                        mmx_busy = mmx_busy or fuop.is_mmx
                        extra = 0
                        if outcome2 is not None:
                            if outcome2.is_branch:
                                extra = self._branch_cost(follower, pc, outcome2, stats)
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

        self._fold_issue_counts(stats, issue_counts, tally)
        stats.cycles = cycle
        stats.finished = state.halted
        if rec is not None:
            rec.end(cycle, stats.instructions, stats.finished)
        return stats

    def step_functional(self) -> Instruction | None:
        """Execute exactly one instruction (no timing); None when halted.

        Useful for debuggers and breakpoint-style tests; the SPU still routes
        operands and advances, so stepping through an SPU loop is faithful.
        """
        state = self.state
        if state.halted:
            return None
        if not 0 <= state.pc < len(self.program):
            raise SimulationError(
                f"fell off program {self.program.name!r} (pc={state.pc}); missing halt?"
            )
        uop = self._uop_at(state.pc)
        instr = uop.instr
        routes = self._spu_routes(instr)
        outcome = uop.run(state, self.memory, routes)
        state.pc = outcome.next_pc if outcome is not None else state.pc + 1
        return instr

    def run_functional(self, max_instructions: int = 100_000_000) -> int:
        """Execute with no timing model (fast path for correctness checks).

        Returns the dynamic instruction count.  The SPU still routes operands
        so SPU-variant kernels stay functionally correct.
        """
        state = self.state
        program = self.program
        executed = 0
        while not state.halted:
            if executed > max_instructions:
                raise SimulationError(
                    f"instruction budget exceeded in {program.name!r} at pc={state.pc}"
                )
            if not 0 <= state.pc < len(program):
                raise SimulationError(
                    f"fell off program {program.name!r} (pc={state.pc}); missing halt?"
                )
            uop = self._uop_at(state.pc)
            routes = self._spu_routes(uop.instr)
            outcome = uop.run(state, self.memory, routes)
            executed += 1
            state.pc = outcome.next_pc if outcome is not None else state.pc + 1
        return executed
