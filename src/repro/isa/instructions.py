"""Instruction IR and the :class:`Program` container.

An :class:`Instruction` is an opcode plus validated operands, annotated with
everything the pairing engine and the SPU off-load pass need: read/written
register sets, memory behaviour, and whether it is (or may be treated as) a
sub-word permutation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import AssemblerError
from repro.isa.opcodes import InstrClass, Opcode, slot_allows
from repro.isa.operands import Imm, Label, Mem, Operand
from repro.isa.registers import Register

#: Pseudo-register representing the scalar condition flags for hazard checks.
FLAGS = "flags"


def _operand_kind(operand: Operand) -> str:
    if isinstance(operand, Register):
        return "mm" if operand.is_mmx else "r"
    if isinstance(operand, Imm):
        return "imm"
    if isinstance(operand, Mem):
        return "mem"
    if isinstance(operand, Label):
        return "label"
    raise AssemblerError(f"unsupported operand {operand!r}")


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction.

    Instances are immutable; transformation passes (e.g. the SPU off-load
    pass) build new instructions with :func:`dataclasses.replace`.
    """

    opcode: Opcode
    operands: tuple[Operand, ...] = ()
    #: Source label attached to this instruction (branch target name).
    label: str | None = None
    #: Free-form annotation set by kernels/passes (e.g. ``"align"`` marks a
    #: shift used purely for data alignment).
    tag: str | None = None
    #: Source line for diagnostics.
    line: int | None = None

    def __post_init__(self) -> None:
        sig = self.opcode.signature
        if len(self.operands) != len(sig):
            raise AssemblerError(
                f"{self.opcode.name} expects {len(sig)} operand(s), got {len(self.operands)}",
                self.line,
            )
        mem_count = 0
        for slot, operand in zip(sig, self.operands):
            kind = _operand_kind(operand)
            if not slot_allows(slot, kind):
                raise AssemblerError(
                    f"{self.opcode.name}: operand {operand} ({kind}) not allowed in slot {slot!r}",
                    self.line,
                )
            if kind == "mem":
                mem_count += 1
        if mem_count > 1:
            raise AssemblerError(
                f"{self.opcode.name}: at most one memory operand allowed", self.line
            )
        if self.opcode.sem in ("movq", "movd"):
            kinds = tuple(_operand_kind(op) for op in self.operands)
            if "mm" not in kinds:
                raise AssemblerError(
                    f"{self.opcode.name} requires an MMX register operand", self.line
                )
            if kinds == ("mem", "mem"):
                raise AssemblerError(f"{self.opcode.name}: memory-to-memory move", self.line)

    # ---- structural queries -------------------------------------------------

    @property
    def name(self) -> str:
        return self.opcode.name

    @property
    def iclass(self) -> InstrClass:
        return self.opcode.iclass

    @property
    def is_mmx(self) -> bool:
        return self.opcode.is_mmx

    @property
    def is_branch(self) -> bool:
        return self.opcode.is_branch

    @property
    def mem_operand(self) -> Mem | None:
        for operand in self.operands:
            if isinstance(operand, Mem):
                return operand
        return None

    @property
    def reads_memory(self) -> bool:
        if self.iclass is InstrClass.LOAD:
            return True
        if self.iclass is InstrClass.STORE or self.opcode.sem == "lea":
            return False
        # movq/movd with a memory *source*; packed ops with mem second operand.
        mem = self.mem_operand
        if mem is None:
            return False
        return self.operands and not isinstance(self.operands[0], Mem)

    @property
    def writes_memory(self) -> bool:
        if self.iclass is InstrClass.STORE:
            return True
        return bool(self.operands) and isinstance(self.operands[0], Mem)

    @property
    def accesses_memory(self) -> bool:
        return self.mem_operand is not None

    @property
    def is_permute(self) -> bool:
        """Unconditionally a data-permutation instruction (pack/unpack/shuffle)."""
        return self.opcode.is_permute

    @property
    def is_alignment_candidate(self) -> bool:
        """Permutation, or data movement the off-load pass may subsume.

        ``movq mm,mm`` copies and byte-granular ``psllq/psrlq`` shifts move
        whole sub-words, so the SPU crossbar can express them (§3); other
        ``maybe_permute`` uses (memory moves, odd-bit shifts) cannot.
        """
        if self.opcode.is_permute:
            return True
        if not self.opcode.maybe_permute:
            return False
        if self.opcode.sem == "movq":
            return all(isinstance(op, Register) and op.is_mmx for op in self.operands)
        if self.opcode.sem in ("psll", "psrl") and self.opcode.width == 64:
            count = self.operands[1]
            return isinstance(count, Imm) and count.value % 8 == 0
        return False

    # ---- hazard sets ---------------------------------------------------------

    def _address_regs(self) -> set:
        mem = self.mem_operand
        if mem is None:
            return set()
        regs = {mem.base}
        if mem.index is not None:
            regs.add(mem.index)
        return regs

    @property
    def dest(self) -> Register | None:
        """The destination *register*, if any (None for stores/branches)."""
        if self.iclass in (InstrClass.BRANCH, InstrClass.STORE, InstrClass.SYS):
            if self.opcode.sem == "loop":
                return self.operands[0]  # the decremented counter
            return None
        if self.opcode.sem == "cmp":
            return None
        if not self.operands:
            return None
        first = self.operands[0]
        return first if isinstance(first, Register) else None

    def regs_written(self) -> frozenset:
        """Registers (plus the flags pseudo-register) this instruction writes.

        Memoized: instructions are immutable and the pipeline asks on every
        dynamic issue.
        """
        cached = self.__dict__.get("_regs_written")
        if cached is not None:
            return cached
        written: set = set()
        dest = self.dest
        if dest is not None:
            written.add(dest)
        if self.opcode.sem in ("cmp", "add", "sub", "and", "or", "xor", "imul", "shl",
                               "shr", "sar", "inc", "dec", "neg", "loop"):
            written.add(FLAGS)
        result = frozenset(written)
        object.__setattr__(self, "_regs_written", result)
        return result

    def regs_read(self) -> frozenset:
        """Registers (plus flags) this instruction reads (memoized)."""
        cached = self.__dict__.get("_regs_read")
        if cached is not None:
            return cached
        read: set = set(self._address_regs())
        sem = self.opcode.sem
        if sem in ("jz", "jnz", "js", "jns", "jl", "jge", "jle", "jg"):
            read.add(FLAGS)
            return self._memo_read(read)
        if sem == "jmp":
            return self._memo_read(read)
        operands = self.operands
        if sem in ("movq", "movd", "mov", "lea", "pshufw") or self.iclass is InstrClass.LOAD:
            # Pure moves/loads (and pshufw, which overwrites its destination
            # with a shuffle of its source) read only their source operands.
            for operand in operands[1:]:
                if isinstance(operand, Register):
                    read.add(operand)
        elif self.iclass is InstrClass.STORE:
            for operand in operands[1:]:
                if isinstance(operand, Register):
                    read.add(operand)
        else:
            # Read-modify-write style: destination register is also a source.
            for operand in operands:
                if isinstance(operand, Register):
                    read.add(operand)
        if sem == "cmp" and isinstance(operands[0], Register):
            read.add(operands[0])
        return self._memo_read(read)

    def _memo_read(self, read: set) -> frozenset:
        result = frozenset(read)
        object.__setattr__(self, "_regs_read", result)
        return result

    def mmx_regs_read(self) -> frozenset:
        return frozenset(r for r in self.regs_read() if isinstance(r, Register) and r.is_mmx)

    def mmx_regs_written(self) -> frozenset:
        return frozenset(r for r in self.regs_written() if isinstance(r, Register) and r.is_mmx)

    def with_tag(self, tag: str) -> "Instruction":
        """A copy of this instruction carrying annotation *tag*."""
        return replace(self, tag=tag)

    def __str__(self) -> str:
        text = self.opcode.name
        if self.operands:
            text += " " + ", ".join(str(op) for op in self.operands)
        if self.label:
            text = f"{self.label}: {text}"
        return text


@dataclass
class Program:
    """An assembled program: instructions plus the label → index map."""

    instructions: list[Instruction] = field(default_factory=list)
    labels: dict[str, int] = field(default_factory=dict)
    name: str = "program"

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self):
        return iter(self.instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self.instructions[index]

    def target(self, label: str) -> int:
        """Instruction index of *label*."""
        try:
            return self.labels[label]
        except KeyError as exc:
            raise AssemblerError(f"undefined label {label!r}") from exc

    def validate(self) -> None:
        """Check that every referenced label resolves."""
        for instr in self.instructions:
            for operand in instr.operands:
                if isinstance(operand, Label):
                    self.target(operand.name)

    def permute_indices(self) -> list[int]:
        """Indices of unconditional permutation instructions."""
        return [i for i, instr in enumerate(self.instructions) if instr.is_permute]

    def mmx_count(self) -> int:
        """Number of MMX-class static instructions."""
        return sum(1 for instr in self.instructions if instr.is_mmx)

    def __str__(self) -> str:
        lines = []
        targets: dict[int, list[str]] = {}
        for label, index in self.labels.items():
            targets.setdefault(index, []).append(label)
        for i, instr in enumerate(self.instructions):
            for label in targets.get(i, ()):  # emit label lines before the instr
                lines.append(f"{label}:")
            text = str(instr) if instr.label is None else str(instr).split(": ", 1)[-1]
            lines.append(f"    {text}")
        return "\n".join(lines)
