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
5. injects the MMIO plumbing (:func:`inject_plumbing`) — one base-register
   load at program entry and a GO store immediately before each accelerated
   loop — using scalar registers the program does not touch.

Each loop's ``live_out`` and ``known_zero`` facts are inferred from the
surrounding straight-line code.  The result is a transformed
:class:`Program` plus the per-context off-load reports and controller
programs, ready for :func:`repro.core.integration.attach_spu`.  Every
kernel's MMX+SPU variant is built this way.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.core.interconnect import CONFIG_D, CrossbarConfig
from repro.core.mmio import DEFAULT_MMIO_BASE
from repro.core.mmxbytes import is_pure_permute, is_zero_idiom
from repro.core.offload import OffloadError, OffloadReport, find_loop, offload_loop
from repro.core.program import SPUProgram
from repro.isa.instructions import Instruction, Program
from repro.isa.opcodes import lookup
from repro.isa.operands import Imm, Label, Mem
from repro.isa.registers import MM, NUM_MMX_REGS, NUM_SCALAR_REGS, R, Register


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
    #: (context, off-load report) for each accelerated loop, in order.
    reports: list[tuple[int, OffloadReport]] = field(default_factory=list)
    #: Loops accelerated, by label, in context order.
    accelerated: list[str] = field(default_factory=list)
    #: Loops considered but skipped, with reasons.
    skipped: dict[str, str] = field(default_factory=dict)

    @property
    def controller_programs(self) -> list[tuple[int, SPUProgram]]:
        """(context, controller program) for each accelerated loop."""
        return [(context, report.spu_program) for context, report in self.reports]

    @property
    def removed(self) -> int:
        """Static permutes removed in total."""
        return sum(report.removed_count for _, report in self.reports)


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


def _known_zero_at(program: Program, start: int, end: int) -> tuple[Register, ...]:
    """MMX registers provably zero at the loop ``[start, end]`` and untouched in it.

    A pre-loop clear idiom (``pxor x,x``) establishes zero; any other write
    clears the fact; control flow resets the analysis conservatively.
    """
    zero_state: dict[int, bool] = {}
    for index in range(start):
        instr = program[index]
        if instr.is_branch:
            zero_state.clear()
            continue
        dest = instr.dest
        if dest is not None and dest.is_mmx:
            zero_state[dest.index] = is_zero_idiom(instr)
    result = []
    for reg_index, is_zero in zero_state.items():
        if not is_zero:
            continue
        written_in_body = any(
            MM[reg_index] in program[i].mmx_regs_written()
            for i in range(start, end + 1)
        )
        if not written_in_body:
            result.append(MM[reg_index])
    return tuple(result)


def _live_after(program: Program, end: int) -> tuple[Register, ...]:
    """MMX registers the code after the loop ending at *end* may read.

    A straight-line scan: a read before any write makes a register live, a
    write first makes it dead.  A branch back into the scanned code (a later
    loop's back edge) revisits instructions already walked; any other branch
    ends the scan with every undecided register live, and ``halt`` ends it
    with none.
    """
    live: set[int] = set()
    decided: set[int] = set()
    for index in range(end + 1, len(program)):
        instr = program[index]
        if instr.opcode.sem == "halt":
            break
        if not is_zero_idiom(instr):
            reads = {reg.index for reg in instr.mmx_regs_read()}
            live.update(reads - decided)
            decided.update(reads)
        dest = instr.dest
        if dest is not None and dest.is_mmx:
            decided.add(dest.index)
        if instr.is_branch:
            target = instr.operands[-1]
            if not (
                isinstance(target, Label)
                and end < program.target(target.name) <= index
            ):
                live.update(set(range(NUM_MMX_REGS)) - decided)
                break
    return tuple(MM[index] for index in sorted(live))


def _free_scalar_registers(program: Program, count: int) -> list[Register]:
    """Scalar registers the program never reads or writes, highest first."""
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


def inject_plumbing(program: Program, loop_labels: Sequence[str]) -> Program:
    """Add the SPU MMIO plumbing for controller contexts ``0..len(loop_labels)-1``.

    One ``mov base, DEFAULT_MMIO_BASE`` at program entry and, for context
    *i*, the GO store ``mov go, 1|(i<<1); stw [base], go`` immediately
    before the head of ``loop_labels[i]``.  *base* and *go* are the two
    highest scalar registers the program leaves untouched (``r14`` and
    ``r15`` when both are free).
    """
    go_reg, base_reg = _free_scalar_registers(program, 2)
    mov = lookup("mov")
    stw = lookup("stw")
    insertions: dict[int, list[Instruction]] = {
        0: [Instruction(opcode=mov, operands=(base_reg, Imm(DEFAULT_MMIO_BASE)))]
    }
    for context, label in enumerate(loop_labels):
        insertions.setdefault(program.target(label), []).extend([
            Instruction(opcode=mov, operands=(go_reg, Imm(1 | (context << 1)))),
            Instruction(opcode=stw, operands=(Mem(base=base_reg), go_reg)),
        ])
    return _inject(program, insertions)


def offload_program(program: Program, config: CrossbarConfig = CONFIG_D) -> CompileResult:
    """Compile a plain MMX program into its SPU-accelerated form.

    Loops whose off-load removes nothing are left untouched (no GO overhead
    for nothing); at most four loops are accelerated (the MMIO context field
    width).  Each loop is found again by label in the program as transformed
    so far, since earlier off-loads shift its indexes.
    """
    detected, skipped = detect_counted_loops(program)

    reports: list[tuple[int, OffloadReport]] = []
    accelerated: list[str] = []
    working = program
    for loop in detected:
        if len(reports) == 4:
            skipped[loop.label] = "context limit (4) reached"
            continue
        start, end = find_loop(working, loop.label)
        if not any(map(is_pure_permute, working.instructions[start : end + 1])):
            skipped[loop.label] = "no removable permutes"
            continue
        report = offload_loop(
            working, loop.label, loop.iterations, config,
            live_out=_live_after(working, end),
            known_zero=_known_zero_at(working, start, end),
        )
        if not report.removed_count:
            reasons = "; ".join(sorted(set(report.kept.values())))
            skipped[loop.label] = f"no removable permutes (kept: {reasons})"
            continue
        working = report.program
        reports.append((len(reports), report))
        accelerated.append(loop.label)

    if not reports:
        return CompileResult(program=program, skipped=skipped)
    return CompileResult(
        program=inject_plumbing(working, accelerated),
        reports=reports,
        accelerated=accelerated,
        skipped=skipped,
    )
