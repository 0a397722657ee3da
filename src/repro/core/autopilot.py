"""Whole-program SPU compilation: the fully automated path of §4.

"The generation of the code for the SPU is systematic and can be automated.
Additionally, a separate instruction set extension could be mapped to the
SPU controller freeing the programmer from having to micro-code this
engine."  :func:`offload_program` realizes that end to end: given a plain
MMX program with **no SPU plumbing at all**, it

1. finds every innermost counted loop (``label: ... loop rX, label``),
2. statically infers each trip count from the dominating ``mov rX, imm``,
3. runs the per-loop off-load pass (:func:`repro.core.offload.offload_loop`),
4. assigns controller contexts (up to four) to the profitable loops, and
5. injects the MMIO plumbing — one base-register load at program entry and
   a GO store immediately before each accelerated loop — using scalar
   registers the program does not touch.

The result is a transformed :class:`Program` plus the per-context
controller programs, ready for :func:`repro.core.integration.attach_spu`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.builder import SPUProgramBuilder  # noqa: F401 (re-export site)
from repro.core.interconnect import CONFIG_D, CrossbarConfig
from repro.core.mmio import DEFAULT_MMIO_BASE
from repro.core.mmxbytes import byte_facts
from repro.core.offload import OffloadError, OffloadReport, offload_loop
from repro.core.program import SPUProgram
from repro.isa.instructions import Instruction, Program
from repro.isa.opcodes import lookup
from repro.isa.operands import Imm, Label, Mem
from repro.isa.registers import MM, NUM_SCALAR_REGS, R, Register


@dataclass
class DetectedLoop:
    """One counted loop with a statically known trip count."""

    label: str
    start: int
    end: int
    counter: Register
    iterations: int


@dataclass
class CompileResult:
    """Output of :func:`offload_program`."""

    program: Program
    #: (context, controller program) for each accelerated loop, in order.
    controller_programs: list[tuple[int, SPUProgram]]
    #: Loops accelerated, by label.
    accelerated: list[str] = field(default_factory=list)
    #: Loops considered but skipped, with reasons.
    skipped: dict[str, str] = field(default_factory=dict)
    #: Static permutes removed in total.
    removed: int = 0


def detect_counted_loops(program: Program) -> tuple[list[DetectedLoop], dict[str, str]]:
    """Find innermost ``loop rX, label`` loops with inferable trip counts."""
    detected: list[DetectedLoop] = []
    skipped: dict[str, str] = {}
    for label, start in sorted(program.labels.items(), key=lambda kv: kv[1]):
        end = None
        counter: Register | None = None
        for index in range(start, len(program)):
            instr = program[index]
            if (
                instr.opcode.sem == "loop"
                and isinstance(instr.operands[1], Label)
                and instr.operands[1].name == label
            ):
                end = index
                counter = instr.operands[0]
        if end is None:
            continue
        if any(program[i].is_branch for i in range(start, end)):
            skipped[label] = "inner control flow"
            continue
        # Trip count: the closest write to the counter before the loop must
        # be `mov counter, imm`, with no branch between it and the loop head
        # and no other write to the counter inside the body.
        iterations = None
        for index in range(start - 1, -1, -1):
            instr = program[index]
            if instr.is_branch:
                skipped[label] = "branch between counter setup and loop head"
                break
            if counter in instr.regs_written():
                if instr.opcode.sem == "mov" and isinstance(instr.operands[1], Imm):
                    iterations = instr.operands[1].value
                else:
                    skipped[label] = "counter not initialized by mov-immediate"
                break
        else:
            skipped[label] = "no counter initialization found"
        if iterations is None:
            continue
        if iterations <= 0:
            skipped[label] = f"non-positive trip count {iterations}"
            continue
        body_writes_counter = any(
            counter in program[i].regs_written() for i in range(start, end)
        )
        if body_writes_counter:
            skipped[label] = "loop body modifies its own counter"
            continue
        detected.append(
            DetectedLoop(label=label, start=start, end=end, counter=counter,
                         iterations=iterations)
        )
    return detected, skipped


def _known_zero_at(program: Program, loop: DetectedLoop) -> tuple[Register, ...]:
    """MMX registers provably zero at the loop and untouched in its body.

    A pre-loop clear idiom (``pxor x,x``) establishes zero; any other write
    clears the fact; control flow resets the analysis conservatively.
    """
    zero_state: dict[int, bool] = {}
    for index in range(loop.start):
        instr = program[index]
        if instr.is_branch:
            zero_state.clear()
            continue
        fact = byte_facts(instr)
        if fact.mmx_dest is not None:
            zero_state[fact.mmx_dest] = fact.zero_idiom
    result = []
    for reg_index, is_zero in zero_state.items():
        if not is_zero:
            continue
        written_in_body = any(
            MM[reg_index] in program[i].mmx_regs_written()
            for i in range(loop.start, loop.end + 1)
        )
        if not written_in_body:
            result.append(MM[reg_index])
    return tuple(result)


def _free_scalar_registers(program: Program, count: int) -> list[Register]:
    """Scalar registers the program never reads or writes."""
    used: set[Register] = set()
    for instr in program.instructions:
        for reg in (*instr.regs_read(), *instr.regs_written()):
            if isinstance(reg, Register) and not reg.is_mmx:
                used.add(reg)
    free = [R[i] for i in range(NUM_SCALAR_REGS - 1, -1, -1) if R[i] not in used]
    if len(free) < count:
        raise OffloadError(
            f"need {count} free scalar registers for the MMIO plumbing, "
            f"found {len(free)}"
        )
    return free[:count]


def _inject(program: Program, insertions: dict[int, list[Instruction]]) -> Program:
    """Insert instruction lists *before* the given indexes, fixing labels."""
    new_instructions: list[Instruction] = []
    index_map: dict[int, int] = {}
    for index, instr in enumerate(program.instructions):
        for injected in insertions.get(index, ()):  # plumbing goes first
            new_instructions.append(injected)
        index_map[index] = len(new_instructions)
        new_instructions.append(instr)
    new_labels = {
        label: index_map[index] for label, index in program.labels.items()
    }
    result = Program(
        instructions=new_instructions, labels=new_labels, name=f"{program.name}+auto"
    )
    result.validate()
    return result


def offload_program(
    program: Program,
    config: CrossbarConfig = CONFIG_D,
    mmio_base: int = DEFAULT_MMIO_BASE,
    min_removed: int = 1,
) -> CompileResult:
    """Compile a plain MMX program into its SPU-accelerated form.

    Loops whose off-load removes fewer than *min_removed* instructions are
    left untouched (no GO overhead for nothing); at most four loops are
    accelerated (the MMIO context field width).
    """
    detected, skipped = detect_counted_loops(program)

    candidates: list[tuple[DetectedLoop, OffloadReport]] = []
    working = program
    for loop in detected:
        if len(candidates) == 4:
            skipped[loop.label] = "context limit (4) reached"
            continue
        report = offload_loop(
            working, loop.label, loop.iterations, config,
            known_zero=_known_zero_at(working, loop),
        )
        if report.removed_count < min_removed:
            skipped[loop.label] = "no removable permutes"
            continue
        working = report.program
        candidates.append((loop, report))

    if not candidates:
        return CompileResult(program=program, controller_programs=[],
                             skipped=skipped)

    base_reg, go_reg = _free_scalar_registers(program, 2)
    mov = lookup("mov")
    stw = lookup("stw")
    insertions: dict[int, list[Instruction]] = {
        0: [Instruction(opcode=mov, operands=(base_reg, Imm(mmio_base)))]
    }
    controller_programs: list[tuple[int, SPUProgram]] = []
    accelerated: list[str] = []
    removed_total = 0
    for context, (loop, report) in enumerate(candidates):
        head = working.target(loop.label)
        insertions.setdefault(head, []).extend([
            Instruction(opcode=mov, operands=(go_reg, Imm(1 | (context << 1)))),
            Instruction(opcode=stw, operands=(Mem(base=base_reg), go_reg)),
        ])
        controller_programs.append((context, report.spu_program))
        accelerated.append(loop.label)
        removed_total += report.removed_count

    final = _inject(working, insertions)
    return CompileResult(
        program=final,
        controller_programs=controller_programs,
        accelerated=accelerated,
        skipped=skipped,
        removed=removed_total,
    )
