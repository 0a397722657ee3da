"""Schedule-agreement analyzer: kernel loops versus controller programs.

The decoupled controller has no program counter visibility — it simply steps
once per issued dynamic instruction while active (§4).  Correctness therefore
rests on a *convention* the hardware never checks: the GO store must be the
last instruction before the loop label, the controller loop must have exactly
one state per body instruction, and the counter must be programmed to
``iterations x body length``.  A kernel that violates the convention still
runs — the crossbar just routes the wrong operands on the wrong instructions,
which is precisely the silent-corruption mode the fault taxonomy's
``go_race``/``counter_skew`` injections exercise dynamically.

This module proves the convention statically: it walks each accelerated
loop's transformed body against its controller program (``sa-*`` rules),
flagging length drift, counter totals, GO placement hazards and per-state
route/slot disagreements — the static analogue of the differential
self-check.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis.findings import Finding, FindingCollector
from repro.analysis.microprogram import simulate
from repro.core.mmio import DEFAULT_MMIO_BASE
from repro.core.offload import OffloadError, find_loop
from repro.core.mmxbytes import mmx_source_slots
from repro.core.program import SPUProgram
from repro.isa.instructions import Program
from repro.isa.operands import Imm, Mem

if TYPE_CHECKING:
    from repro.kernels.base import Kernel


def chain_states(program: SPUProgram) -> list[int]:
    """The ``next1`` chain from the entry: the per-iteration state schedule.

    While the counter is running the controller follows ``next1`` every
    step, so this chain *is* the schedule one loop pass executes.  The walk
    stops at the first revisit (the loop closing) or at an undefined state.
    """
    chain: list[int] = []
    seen: set[int] = set()
    current = program.entry
    while current in program.states and current not in seen:
        seen.add(current)
        chain.append(current)
        current = program.states[current].next1
    return chain


def _activations(program: Program) -> list[tuple[int, int]]:
    """All SPU GO stores: ``(stw_index, context)`` pairs, program order.

    The plumbing idiom is ``mov base, DEFAULT_MMIO_BASE`` once, then
    ``mov go, 1|(context<<1); stw [base], go`` per loop
    (:func:`repro.core.autopilot.inject_plumbing`).  A store counts when its
    base register is one the program ever loads with the MMIO base; the scan
    resolves the GO word through the most recent immediate move into the
    store's data register.  Stores whose word cannot be resolved statically,
    and RESUME stores (bit 3), are skipped.
    """
    base_regs = {
        instr.operands[0]
        for instr in program.instructions
        if instr.opcode.sem == "mov" and instr.operands[1] == Imm(DEFAULT_MMIO_BASE)
    }
    stores: list[tuple[int, int]] = []
    last_imm: dict[int, int | None] = {}
    for index, instr in enumerate(program.instructions):
        if instr.opcode.sem == "mov" and not instr.operands[0].is_mmx:
            value = instr.operands[1]
            last_imm[instr.operands[0].index] = (
                value.value if isinstance(value, Imm) else None
            )
            continue
        if instr.opcode.sem != "stw":
            continue
        target = instr.operands[0]
        if not (isinstance(target, Mem) and target.base in base_regs and target.disp == 0):
            continue
        word = last_imm.get(instr.operands[1].index)
        if word is None or not word & 1 or word & 0b1000:
            continue
        stores.append((index, (word >> 1) & 0b11))
    return stores


def analyze_schedule(kernel: Kernel) -> list[Finding]:
    """All schedule-agreement findings for one kernel (``sa-*`` rules)."""
    out = FindingCollector()
    program, controller_programs = kernel.spu_programs()
    loaded = dict(controller_programs)
    activations = _activations(program)

    for index, context in activations:
        if context not in loaded:
            out.add(
                "sa-go-before-load",
                "error",
                f"{kernel.name}: instruction {index}",
                f"GO store activates context {context}, but the kernel "
                f"loads programs only for contexts {sorted(loaded)}",
                fix_hint="load a controller program for every context a GO "
                "store names",
            )

    for context, report in kernel.offload_reports():
        certificate = report.certificate
        if certificate is None:
            continue
        label = certificate.loop_label
        iterations = certificate.iterations
        subject = f"{kernel.name}/{label}"
        spu_program = loaded.get(context)
        if spu_program is None:
            continue  # sa-go-before-load covers the orphan GO, if any
        try:
            start, end = find_loop(program, label)
        except OffloadError:
            continue  # transformed program lost the loop; offload tests own this
        body = program.instructions[start : end + 1]
        chain = chain_states(spu_program)

        # -- per-iteration length ------------------------------------------
        if len(chain) != len(body):
            out.add(
                "sa-loop-length",
                "error",
                f"{subject} (context {context})",
                f"controller loop has {len(chain)} states per pass but the "
                f"loop body issues {len(body)} dynamic instructions per "
                "iteration: schedules cannot line up",
                fix_hint="emit exactly one controller state per kept body "
                "instruction (including scalar ops and the branch)",
                loop=label,
            )
        else:
            # -- counter total ---------------------------------------------
            entry_state = spu_program.states.get(spu_program.entry)
            if entry_state is not None:
                cntr = entry_state.cntr
                expected = iterations * len(body)
                actual = spu_program.counter_init[cntr]
                if actual != expected:
                    out.add(
                        "sa-counter-total",
                        "error",
                        f"{subject} (context {context})",
                        f"CNTR{cntr}={actual} but the loop runs "
                        f"{iterations} iterations x {len(body)} "
                        f"instructions = {expected} controller steps",
                        fix_hint="program the counter to iterations x body "
                        "length so the SPU retires with the loop",
                        loop=label,
                    )
                else:
                    # -- full symbolic walk: the static go_race analogue ---
                    expected_steps = [
                        chain[step % len(chain)] for step in range(expected)
                    ]
                    emitted, outcome = simulate(
                        spu_program, max_steps=expected + len(chain) + 1
                    )
                    if emitted != expected_steps or outcome != "idle":
                        drift = next(
                            (
                                step
                                for step, (got, want) in enumerate(
                                    zip(emitted, expected_steps)
                                )
                                if got != want
                            ),
                            min(len(emitted), len(expected_steps)),
                        )
                        out.add(
                            "sa-schedule-drift",
                            "error",
                            f"{subject} (context {context})",
                            f"controller walk diverges from the required "
                            f"schedule at dynamic step {drift} "
                            f"(iteration {drift // len(body)}, body position "
                            f"{drift % len(body)}; walk ended "
                            f"{outcome!r} after {len(emitted)} steps, "
                            f"schedule needs {expected})",
                            fix_hint="the state emitted at step t must be "
                            "the one paired with body position t mod length",
                            loop=label,
                        )

            # -- per-position route/instruction agreement ------------------
            for position, (state_index, instr) in enumerate(zip(chain, body)):
                state = spu_program.states[state_index]
                if not state.routes:
                    continue
                if not instr.is_mmx:
                    out.add(
                        "sa-route-on-straight",
                        "warn",
                        f"{subject}+{position} (state {state_index})",
                        f"state {state_index} routes operands but pairs with "
                        f"non-MMX instruction {instr}: routes_for silently "
                        "drops the routes (likely an off-by-one in the "
                        "schedule)",
                        fix_hint="routed states must line up with MMX "
                        "instructions",
                        loop=label,
                    )
                    continue
                routable = set(mmx_source_slots(instr))
                for slot in sorted(set(state.routes) - routable):
                    out.add(
                        "sa-route-slot-mismatch",
                        "warn",
                        f"{subject}+{position} (state {state_index})",
                        f"state {state_index} routes operand slot {slot} but "
                        f"{instr} does not source slot {slot} from an MMX "
                        "register: the route can never take effect",
                        fix_hint="route only the slots the paired "
                        "instruction reads through the crossbar",
                        loop=label,
                    )

        # -- GO placement --------------------------------------------------
        own_stores = [index for index, ctx in activations if ctx == context]
        before = [index for index in own_stores if index < start]
        if not before:
            out.add(
                "sa-missing-go",
                "warn",
                f"{subject} (context {context})",
                f"no GO store for context {context} precedes the loop "
                f"label: the SPU never activates for this loop",
                fix_hint="store GO for this context immediately before "
                "the loop label (repro.core.inject_plumbing)",
                loop=label,
            )
        else:
            go_index = max(before)
            lead_in = start - go_index - 1
            if lead_in > 0:
                out.add(
                    "sa-go-lead-in",
                    "error",
                    f"{subject} (context {context})",
                    f"{lead_in} instruction(s) sit between the GO store "
                    f"(index {go_index}) and the loop label (index {start}): "
                    "the active controller steps them, skewing every "
                    "subsequent route pairing",
                    fix_hint="the GO store must be the last instruction "
                    "before the loop label",
                    loop=label,
                )
        for index in own_stores:
            if start < index <= end:
                out.add(
                    "sa-go-inside-loop",
                    "error",
                    f"{subject} (context {context})",
                    f"GO store at index {index} sits inside the loop body "
                    f"[{start}, {end}]: every iteration re-activates the "
                    "controller and resets its counters mid-flight",
                    fix_hint="hoist the GO store above the loop label",
                    loop=label,
                )
    return out.findings
