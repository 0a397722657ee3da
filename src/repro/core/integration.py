"""Attaching the SPU to the simulated machine.

:class:`AttachedSPU` implements the pipeline's ``SPUAttachment`` protocol: on
every issued dynamic instruction (while the controller is active) it advances
the decoupled state machine and, for MMX instructions with routed operand
slots, gathers the routed operand values through the crossbar.  The gather
runs each route's compiled word plan (:func:`~repro.core.interconnect.
route_plan`) on the architectural MMX file.  Only while a register upset is
armed is the file mirrored into the unified SPU register and gathered byte by
byte (:meth:`~repro.core.interconnect.CrossbarConfig.apply`), so the flip
lands between the mirror and the gather; that byte path is also the oracle
the plans are tested against.

Routing reaches the two operand buses of the instruction's pipe — including a
store's data operand: the U pipe reads store data through the same
register-to-functional-unit path the crossbar intercepts (Figure 4).  The
destination write-back stays architectural.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import RouteError
from repro.resilience import ResilienceMode
from repro.core.controller import SPUController
from repro.core.program import SPUState
from repro.core.interconnect import route_plan
from repro.core.mmio import DEFAULT_MMIO_BASE, MMIO_WINDOW_BYTES, SPUMMIO
from repro.core.spu_register import SPURegister
from repro.cpu.pipeline import Machine
from repro.cpu.state import MachineState
from repro.isa.instructions import Instruction
from repro.isa.registers import Register
from repro.obs.events import DegradeEvent, FaultEvent
from repro.obs.recorder import route_bits


@dataclass
class AttachmentStats:
    """Routing activity counters."""

    instructions_seen: int = 0
    routed_operands: int = 0
    routed_instructions: int = 0
    #: Operands whose route was illegal and fell back to the architectural
    #: straight-through value (degrade mode only).
    serialized_operands: int = 0


class AttachedSPU:
    """SPU controller + interconnect + unified register bound to a pipeline."""

    def __init__(self, controller: SPUController, machine: Machine) -> None:
        self.controller = controller
        #: The machine stepping the controller; its recorder gets the steps.
        self.machine = machine
        self.register = SPURegister()
        self.stats = AttachmentStats()
        #: Fault and degrade telemetry: the machine's EventBus.
        self.bus = machine.bus

    #: Gather through the unified register (``load_from_mmx`` +
    #: ``CrossbarConfig.apply``) instead of word plans.  Tests set it on an
    #: instance to run the reference oracle; nothing public switches it.
    _byte_path = False

    @property
    def active(self) -> bool:
        return self.controller._active

    def _resilience(self) -> ResilienceMode:
        """The controller's effective failure posture (STRICT standalone)."""
        mode = self.controller.resilience
        return mode if mode is not None else ResilienceMode.STRICT

    # ---- translated blocks (repro.cpu.blocks) ------------------------------

    def block_env(self) -> tuple:
        """What a translated block steps the controller with.

        ``(current state per context, block_view, enter_idle, block_step,
        block_gather, add_block_steps)``; all live as long as the attachment.
        """
        controller = self.controller
        return (controller._current_by_ctx, self.block_view, controller.enter_idle,
                self.block_step, self.block_gather, self.add_block_steps)

    def block_view(self) -> tuple:
        """The controller locals of a translated block.

        ``(active, context, counters, step table, idle index)``: the live
        counter list of the selected context and its
        :meth:`~repro.core.controller.SPUController.step_table`, with which a
        block steps the controller inline.  The table is empty -- every step
        then goes through :meth:`block_step` -- while a register upset is
        armed and on the byte path.
        """
        controller = self.controller
        context = controller.context
        if self._byte_path or self.register._pending_flips:
            table = {}
        else:
            table = controller.step_table(context)
        return (controller._active, context, controller._counters_by_ctx[context],
                table, controller.num_states - 1)

    def block_step(self, instr: Instruction, pc: int, state: MachineState,
                   x0: int | None, x1: int | None) -> tuple:
        """A step a block cannot take inline: :meth:`routes_for` at *pc*.

        *x0*/*x1* are the straight values of operand slots 0 and 1.
        Returns them, routed where routed, a 1/0 routed flag, and the
        re-read :meth:`block_view`.
        """
        state.pc = pc
        values = self.routes_for(instr, state)
        if values is None:
            return (x0, x1, 0) + self.block_view()
        return (values.get(0, x0), values.get(1, x1), 1) + self.block_view()

    def block_gather(self, entry: tuple, mmx: list[int],
                     x0: int | None, x1: int | None) -> tuple[int | None, int | None, int]:
        """Route the operands of an inline step whose state routes anything.

        *entry* is the state's schedule entry; *x0*/*x1* are the straight
        values of slots 0 and 1, ``None`` where the operand is not an MMX
        register.  Counts what :meth:`routes_for` counts and returns the
        values, routed where routed, with a 1/0 routed flag.
        """
        self.controller.stats.routed_steps += 1
        routed = 0
        if x0 is not None and entry[4] is not None:
            x0 = entry[4](mmx, x0)
            routed += 1
        if x1 is not None and entry[5] is not None:
            x1 = entry[5](mmx, x1)
            routed += 1
        if not routed:
            return x0, x1, 0
        self.stats.routed_operands += routed
        self.stats.routed_instructions += 1
        return x0, x1, 1

    def add_block_steps(self, steps: int) -> None:
        """Count the steps a translated block took inline."""
        self.controller.stats.steps += steps
        self.stats.instructions_seen += steps

    def routes_for(self, instr: Instruction, state: MachineState) -> dict[int, int] | None:
        """Advance the controller for one dynamic instruction; route operands.

        A completed step appends its row to the machine's recorder, if one
        is attached (see :mod:`repro.obs.recorder`); a step that ends in a
        fault park records none.
        """
        controller = self.controller
        if not controller._active:
            return None
        context = controller.context
        emitted = controller._current_by_ctx[context]
        spu_state = controller.step()
        self.stats.instructions_seen += 1
        if spu_state is None:
            return None
        values = None
        if spu_state.routes and instr.is_mmx:
            values = self._gather(spu_state, instr, state)
        rec = self.machine.recorder
        if rec is not None:
            counters = controller._counters_by_ctx[context]
            rec.steps.extend((context, emitted, controller._current_by_ctx[context],
                              counters[0], counters[1],
                              route_bits(bool(spu_state.routes), values or ())))
        return values

    def _gather(self, spu_state: SPUState, instr: Instruction,
                state: MachineState) -> dict[int, int] | None:
        """The routed values of *instr*'s MMX register slots, or None."""
        config = self.controller.config
        register = self.register
        byte_path = self._byte_path or bool(register._pending_flips)
        if byte_path:
            # Mirror the architectural file into the unified register (§3)
            # just before the operand read, so routes see up-to-date
            # sub-words and an armed upset lands before the gather.
            register.load_from_mmx(state.mmx)
        mmx = state.mmx
        operands = instr.operands
        values: dict[int, int] = {}
        for slot, route in spu_state.routes.items():
            if slot >= len(operands):
                continue
            operand = operands[slot]
            if not (isinstance(operand, Register) and operand.is_mmx):
                continue  # only MMX register sources pass through the crossbar
            straight = mmx[operand.index]
            try:
                if byte_path:
                    values[slot] = config.apply(route, register, straight)
                else:
                    values[slot] = route_plan(config, route).gather(mmx, straight)
            except RouteError as error:
                if self._resilience() is not ResilienceMode.DEGRADE:
                    raise
                # Serialize: the crossbar cannot realize this route, so the
                # operand takes the architectural straight-through path.
                values[slot] = straight
                self.stats.serialized_operands += 1
                bus = self.bus
                if bus.fault:
                    bus.dispatch("fault", FaultEvent(
                        component="crossbar", kind="route_error", detail=str(error),
                        pc=state.pc, error=error))
                if bus.degrade:
                    bus.dispatch("degrade", DegradeEvent(
                        component="crossbar", action="serialize_operand",
                        detail=f"slot {slot} of {instr.name} at pc={state.pc}", pc=state.pc))
        if not values:
            return None
        self.stats.routed_operands += len(values)
        self.stats.routed_instructions += 1
        return values


def attach_spu(
    machine: Machine,
    controller: SPUController,
    mmio_base: int | None = DEFAULT_MMIO_BASE,
) -> AttachedSPU:
    """Bind *controller* to *machine*; optionally map its MMIO window.

    Returns the :class:`AttachedSPU`; with ``mmio_base`` set (default
    ``0xF0000``) the program under simulation can program the controller
    through stores, as the paper's memory-mapped interface specifies (§3).
    Pass ``mmio_base=None`` for host-side-only control.
    """
    spu = AttachedSPU(controller, machine)
    controller.bus = machine.bus
    if controller.resilience is None:
        # Inherit the machine's failure posture unless the controller was
        # constructed with an explicit mode of its own.
        controller.resilience = machine.resilience
    machine.spu = spu
    if mmio_base is not None:
        machine.memory.map_device(mmio_base, MMIO_WINDOW_BYTES, SPUMMIO(controller))
    return spu
