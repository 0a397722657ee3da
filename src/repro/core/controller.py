"""The decoupled SPU controller (Figure 8).

A K-state state machine (K = 128 in the paper) advanced once per dynamic MMX
instruction while active.  Each step emits the current state's operand routes,
decrements the state's selected counter, and follows ``next0`` (counter hit
zero — the counter auto-reloads to its programmed value, giving zero-overhead
nested loops) or ``next1`` otherwise.  Reaching the idle state (127) disables
the SPU and resets both counters (§4).

Multiple contexts hold independent program/counter banks for fast switching
(§3: "The SPU can support several copies of the SPU control registers").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import RouteError, SPUProgramError
from repro.resilience import ResilienceMode
from repro.core.interconnect import CONFIG_D, CrossbarConfig, route_plan
from repro.core.program import DEFAULT_NUM_STATES, SPUProgram, SPUState
from repro.obs.recorder import route_bits


@dataclass
class ControllerStats:
    """Counters describing controller activity for Table 3 accounting."""

    #: Completed steps; a step that faults on its state or its next
    #: pointer is not counted (here or in :attr:`routed_steps`).
    steps: int = 0
    activations: int = 0
    routed_steps: int = 0
    context_switches: int = 0
    #: Normal completions: the state machine followed an edge into idle-127.
    idle_entries: int = 0
    #: Faults absorbed by degrade mode (invalid state parked at idle).
    #: Disjoint from :attr:`idle_entries`, so degrade-mode runs are
    #: distinguishable from clean completions in ``repro profile`` output.
    fault_parks: int = 0
    #: GO re-arms of a fault-parked context (degrade-mode recoveries).
    park_recoveries: int = 0
    #: Faults raised instead of parked (STRICT and HALT postures).
    fault_raises: int = 0


def compile_steps(program: SPUProgram, config: CrossbarConfig,
                  num_states: int) -> dict[int, tuple]:
    """The static schedule of *program*, for steps taken without checks.

    Maps a state index to ``(cntr, reload, next0, next1, slot-0 gather,
    slot-1 gather, route bits)``: ``reload`` is the selected counter's
    initial value, a gather is the :class:`~repro.core.interconnect.WordPlan`
    function of the slot's route (``None`` when the slot passes straight
    through) and the route bits those of a step row that routes every slot
    the state routes (:func:`~repro.obs.recorder.route_bits`).  A state
    whose ``next0`` or ``next1`` lies outside the K states, or with a route
    that is illegal under *config*, has no entry: it takes the checked
    :meth:`SPUController.step`, which faults on it as it always has.
    """
    table = {}
    for index, state in program.states.items():
        if not (0 <= state.next0 < num_states and 0 <= state.next1 < num_states):
            continue
        try:
            gathers = {slot: route_plan(config, route).gather
                       for slot, route in state.routes.items()}
        except RouteError:
            continue
        table[index] = (
            state.cntr, program.counter_init[state.cntr], state.next0, state.next1,
            gathers.get(0), gathers.get(1), route_bits(bool(gathers), gathers),
        )
    return table


class SPUController:
    """Decoupled controller: contexts, zero-overhead counters, idle state."""

    def __init__(
        self,
        config: CrossbarConfig = CONFIG_D,
        num_states: int = DEFAULT_NUM_STATES,
        contexts: int = 1,
        resilience: ResilienceMode | str | None = None,
    ) -> None:
        if num_states < 2:
            raise SPUProgramError("controller needs at least 2 states (one + idle)")
        if contexts < 1:
            raise SPUProgramError("controller needs at least one context")
        self.config = config
        #: Failure posture (see :mod:`repro.resilience`).  ``None`` means
        #: "inherit from the machine at attach time", falling back to STRICT
        #: for standalone controllers.
        self.resilience = None if resilience is None else ResilienceMode.parse(resilience)
        #: True after degrade mode parked the unit at idle because of a
        #: fault; cleared (counting a park recovery) by the next go().
        self.fault_parked = False
        self.num_states = num_states
        self._programs: list[SPUProgram | None] = [None] * contexts
        self.context = 0
        self._active = False
        # Per-context control-register copies (§3): current state + counters
        # survive a context switch, so an exception handler can suspend one
        # loop, run another context, and resume where it left off (§4).
        self._current_by_ctx: list[int] = [num_states - 1] * contexts
        self._counters_by_ctx: list[list[int]] = [[0, 0] for _ in range(contexts)]
        # Per-context compile_steps() table of the installed program; None
        # until first use for a program installed by inject_program().
        self._tables: list[dict[int, tuple] | None] = [None] * contexts
        self.stats = ControllerStats()

    # ---- structural properties ------------------------------------------------

    @property
    def idle_state(self) -> int:
        return self.num_states - 1

    @property
    def contexts(self) -> int:
        return len(self._programs)

    @property
    def active(self) -> bool:
        """True while the state machine is running (not idle)."""
        return self._active

    @property
    def _current(self) -> int:
        return self._current_by_ctx[self.context]

    @_current.setter
    def _current(self, value: int) -> None:
        self._current_by_ctx[self.context] = value

    @property
    def _counters(self) -> list[int]:
        return self._counters_by_ctx[self.context]

    @_counters.setter
    def _counters(self, value: list[int]) -> None:
        self._counters_by_ctx[self.context] = list(value)

    @property
    def current_state(self) -> int:
        return self._current

    @property
    def counters(self) -> tuple[int, int]:
        """Live counter values of the selected context."""
        return (self._counters[0], self._counters[1])

    def program(self, context: int | None = None) -> SPUProgram | None:
        return self._programs[self.context if context is None else context]

    # ---- programming ------------------------------------------------------------

    def load_program(self, program: SPUProgram, context: int = 0) -> None:
        """Install *program* into a context bank (validates against the config)."""
        if not 0 <= context < self.contexts:
            raise SPUProgramError(f"context {context} out of range (have {self.contexts})")
        if program.num_states != self.num_states:
            raise SPUProgramError(
                f"program sized for K={program.num_states}, controller has "
                f"K={self.num_states}"
            )
        program.validate(self.config)
        self._programs[context] = program
        self._tables[context] = compile_steps(program, self.config, self.num_states)

    def step_table(self, context: int) -> dict[int, tuple]:
        """The :func:`compile_steps` table of the program in *context*.

        Built when the program is installed (lazily for injected ones).
        Programs are not edited once installed: install a new one instead.
        """
        table = self._tables[context]
        if table is None:
            program = self._programs[context]
            table = {} if program is None else compile_steps(
                program, self.config, self.num_states)
            self._tables[context] = table
        return table

    def switch_context(self, context: int) -> None:
        """Select another control-register bank (fast context switch, §3)."""
        if not 0 <= context < self.contexts:
            raise SPUProgramError(f"context {context} out of range (have {self.contexts})")
        if self._active:
            raise SPUProgramError("cannot switch contexts while the SPU is active")
        if context != self.context:
            self.context = context
            self.stats.context_switches += 1

    # ---- activation (the GO bit) ----------------------------------------------------

    def go(self, context: int | None = None) -> None:
        """Activate: load counters, jump to the entry state (§4's GO bit)."""
        if context is not None:
            self.switch_context(context)
        program = self._programs[self.context]
        if program is None:
            raise SPUProgramError(f"context {self.context} has no program loaded")
        self._counters = list(program.counter_init)
        self._current = program.entry
        self._active = True
        self.stats.activations += 1
        if self.fault_parked:
            # Degrade mode parked the unit on a fault; GO re-arms it (§4's
            # posture: idle-127 disables, the GO bit brings it back).
            self.fault_parked = False
            self.stats.park_recoveries += 1

    def stop(self) -> None:
        """Force-disable and reset the selected context to its initial state."""
        self._active = False
        self._current = self.idle_state
        program = self._programs[self.context]
        if program is not None:
            self._counters = list(program.counter_init)

    def suspend(self) -> None:
        """Disable while *preserving* the context's state and counters (§4).

        The exception-handler pattern: suspend, optionally switch to a free
        context and run it, then :meth:`resume` the interrupted loop.
        """
        self._active = False

    def resume(self, context: int | None = None) -> None:
        """Continue a suspended context exactly where :meth:`suspend` left it."""
        if context is not None:
            self.switch_context(context)
        program = self._programs[self.context]
        if program is None:
            raise SPUProgramError(f"context {self.context} has no program loaded")
        if self._current == self.idle_state:
            raise SPUProgramError(
                f"context {self.context} is idle (completed or never started);"
                " use go() to restart it"
            )
        self._active = True

    # ---- the per-instruction step -----------------------------------------------------

    def peek(self) -> SPUState | None:
        """Current state's word without advancing (None when idle)."""
        if not self._active:
            return None
        return self._programs[self.context].states[self._current]

    def step(self) -> SPUState | None:
        """Advance one dynamic MMX instruction; returns the emitted state.

        Sequencing per §4: emit the current state's routes, decrement the
        selected counter; zero selects ``next0`` and reloads the counter,
        otherwise ``next1``; landing on the idle state disables the SPU.
        """
        if not self._active:
            return None
        context = self.context
        program = self._programs[context]
        emitted_index = self._current_by_ctx[context]
        state = program.states.get(emitted_index)
        if state is None:
            # A corrupted next pointer (or control word) landed on an
            # undefined state — the paper's hardware has no defined routes
            # to emit here.  Degrade mode parks the unit at idle-127.
            return self._fault_park(
                f"controller reached undefined state {emitted_index} "
                f"in {program.name!r} (context {context})"
            )

        counters = self._counters_by_ctx[context]
        cntr = state.cntr
        left = counters[cntr] - 1
        if left <= 0:
            # Zero-overhead loop exit: auto-restore the counter (§4).
            counters[cntr] = program.counter_init[cntr]
            next_index = state.next0
        else:
            counters[cntr] = left
            next_index = state.next1

        if not 0 <= next_index < self.num_states:
            return self._fault_park(
                f"state {emitted_index} selected next state {next_index}, "
                f"outside K={self.num_states} (context {context})"
            )
        stats = self.stats
        stats.steps += 1
        if state.routes:
            stats.routed_steps += 1
        if next_index == self.num_states - 1:
            self.enter_idle()
        else:
            self._current_by_ctx[context] = next_index
        return state

    def enter_idle(self) -> bool:
        """Follow an edge into the idle state: disable, reload the counters.

        Part of :meth:`step`, shared with the inlined step of translated
        blocks (:mod:`repro.cpu.blocks`); returns the new (false) activity.
        The counters are reloaded in place, so a block's live counter list
        reads the reloaded values.
        """
        context = self.context
        self._active = False
        self._current_by_ctx[context] = self.num_states - 1
        self._counters_by_ctx[context][:] = self._programs[context].counter_init
        self.stats.idle_entries += 1
        return False

    # ---- failure posture -------------------------------------------------------

    def _fault_park(self, detail: str) -> None:
        """Handle an invalid controller condition per the resilience mode.

        STRICT (and HALT — the machine layer turns the raise into a clean
        stop) counts a fault raise and raises :class:`SPUProgramError`;
        DEGRADE parks the unit at the idle state with reset counters,
        counting a fault park, and leaves re-arming to the next GO.  A
        faulting step is not counted as a step.
        """
        mode = self.resilience if self.resilience is not None else ResilienceMode.STRICT
        if mode is not ResilienceMode.DEGRADE:
            self.stats.fault_raises += 1
            raise SPUProgramError(detail)
        self._active = False
        self._current = self.idle_state
        program = self._programs[self.context]
        if program is not None:
            self._counters = list(program.counter_init)
        self.stats.fault_parks += 1
        self.fault_parked = True
        return None

    # ---- fault-injection hooks (repro.faults) ---------------------------------

    def inject_program(self, program: SPUProgram, context: int | None = None) -> None:
        """Install *program* WITHOUT validation, as corrupted control memory.

        Real control memory holds whatever bits an upset left in it; this is
        the :mod:`repro.faults` path for modeling that.  Normal code must use
        :meth:`load_program`, which validates.
        """
        context = self.context if context is None else context
        self._programs[context] = program
        self._tables[context] = None

    def skew_counter(self, counter: int, delta: int) -> None:
        """Perturb a live loop counter of the selected context by *delta*.

        Fault-injection hook (:mod:`repro.faults`): models an upset in the
        counter flip-flops.  The skewed value takes effect on the next step.
        """
        if counter not in (0, 1):
            raise SPUProgramError(f"counter {counter} out of range (0 or 1)")
        self._counters[counter] += delta
