"""Arming :class:`FaultSpec`\\ s on a live machine.

The injector arms the machine's one-shot issue trigger
(:attr:`repro.cpu.pipeline.Machine.trigger`): its fault fires right after
the issue whose run-wide index is the spec's trigger, so a fault can land
between the U and V issues of a pair.  All mutations go through documented
fault-injection hooks (``SPURegister.inject_bit_flip``,
``SPUController.inject_program`` / ``skew_counter``) or public controller
operations (``suspend``/``resume``/``go`` for the GO race), and corrupted
controller programs are installed on a *clone* so a kernel's cached build is
never poisoned across runs.
"""

from __future__ import annotations

from repro.core.program import SPUProgram, SPUState, decode_state, encode_state
from repro.errors import RunnerInterrupted
from repro.faults.spec import FaultSpec


def clone_spu_program(program: SPUProgram) -> SPUProgram:
    """Shallow-clone a controller program so corruption stays run-local."""
    return SPUProgram(
        states=dict(program.states),
        counter_init=tuple(program.counter_init),
        entry=program.entry,
        num_states=program.num_states,
        name=program.name,
    )


# -- pure corruption models ----------------------------------------------------
#
# The clone-and-corrupt logic is shared with the static-analysis verdict
# layer (repro.analysis.verdict), which rebuilds the exact artifact an
# injection would install and lints it — so the corruption model cannot
# drift between the dynamic campaign and its static cross-check.


def corrupt_control_word(
    program: SPUProgram, state_index: int, word_bit: int, config
) -> SPUProgram | None:
    """The program a ``control_word`` injection installs (None if no target)."""
    if state_index not in program.states:
        return None
    clone = clone_spu_program(program)
    word = encode_state(clone.states[state_index], config)
    word ^= 1 << word_bit
    clone.states[state_index] = decode_state(word, config)
    return clone


def corrupt_route(
    program: SPUProgram, state_index: int, slot: int, granule: int, selector: int
) -> SPUProgram | None:
    """The program a ``route`` injection installs (None if no target)."""
    if state_index not in program.states:
        return None
    clone = clone_spu_program(program)
    state = clone.states[state_index]
    routes = dict(state.routes)
    route = list(routes[slot])
    route[granule] = selector
    routes[slot] = tuple(route)
    clone.states[state_index] = SPUState(
        cntr=state.cntr, routes=routes, next0=state.next0, next1=state.next1
    )
    return clone


def _apply_register_bit(machine, spec: FaultSpec) -> str:
    machine.spu.register.inject_bit_flip(spec.byte, spec.bit)
    return f"armed flip of SPU register byte {spec.byte} bit {spec.bit}"


def _apply_control_word(machine, spec: FaultSpec) -> str:
    controller = machine.spu.controller
    program = controller.program(spec.context)
    if program is None:
        return "target state no longer loaded; no corruption applied"
    clone = corrupt_control_word(
        program, spec.state_index, spec.word_bit, controller.config
    )
    if clone is None:
        return "target state no longer loaded; no corruption applied"
    controller.inject_program(clone, spec.context)
    return (
        f"flipped bit {spec.word_bit} of state {spec.state_index} "
        f"(context {spec.context})"
    )


def _apply_route(machine, spec: FaultSpec) -> str:
    controller = machine.spu.controller
    program = controller.program(spec.context)
    if program is None:
        return "target state no longer loaded; no corruption applied"
    clone = corrupt_route(
        program, spec.state_index, spec.slot, spec.granule, spec.selector
    )
    if clone is None:
        return "target state no longer loaded; no corruption applied"
    controller.inject_program(clone, spec.context)
    return (
        f"rewrote state {spec.state_index} slot {spec.slot} granule "
        f"{spec.granule} selector to {spec.selector} (context {spec.context})"
    )


def _apply_go_race(machine, spec: FaultSpec) -> str:
    controller = machine.spu.controller
    if controller.active:
        controller.suspend()
        return "spurious suspend while active"
    if controller.program() is None:
        return "no program loaded; race had no target"
    if controller.current_state != controller.idle_state:
        controller.resume()
        return "spurious resume of a suspended context"
    controller.go()
    return "spurious GO from idle"


def _apply_counter_skew(machine, spec: FaultSpec) -> str:
    controller = machine.spu.controller
    if not controller.active:
        return "controller idle; counter upset had no effect"
    controller.skew_counter(spec.counter, spec.delta)
    return f"skewed counter {spec.counter} by {spec.delta:+d}"


_APPLY = {
    "register_bit": _apply_register_bit,
    "control_word": _apply_control_word,
    "route": _apply_route,
    "go_race": _apply_go_race,
    "counter_skew": _apply_counter_skew,
}


class FaultInjector:
    """Arms one spec on a machine; fires at the spec's dynamic-issue trigger.

    Attributes after the run: ``fired`` (the trigger was reached),
    ``applied`` (human-readable description of what the fault did, or None),
    ``apply_error`` (exception raised *while injecting*, distinct from
    faults the injection later provokes in the simulated hardware).
    """

    def __init__(self, machine, spec: FaultSpec) -> None:
        if machine.spu is None:
            raise ValueError("fault injection targets the SPU; attach one first")
        self.machine = machine
        self.spec = spec
        self.fired = False
        self.applied: str | None = None
        self.apply_error: BaseException | None = None
        if machine.trigger is not None:
            raise ValueError("the machine's issue trigger is already armed")
        machine.trigger = (spec.trigger, self._fire)

    def _fire(self) -> None:
        self.fired = True
        try:
            self.applied = _APPLY[self.spec.kind](self.machine, self.spec)
        except RunnerInterrupted:
            # Campaign-level stop (signal/cancel) — not an apply failure;
            # recording it would make the report depend on signal timing.
            self.fired = False
            raise
        except Exception as exc:  # noqa: BLE001 - recorded for the report
            self.apply_error = exc

    def detach(self) -> None:
        """Disarm without firing (idempotent)."""
        trigger = self.machine.trigger
        if trigger is not None and trigger[1] == self._fire:
            self.machine.trigger = None
