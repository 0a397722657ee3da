"""MMX byte semantics: one per-opcode byte table and one register-file walk.

Both static engines ask where MMX bytes go: the off-load pass
(:mod:`repro.core.dataflow`) tracks symbolic byte provenance, the fusion
certifier (:mod:`repro.analysis.absint`) tracks byte intervals, and the
replay checkers (:mod:`repro.core.replay`) re-derive what both certify.
This module is the one place that answers it:

- :func:`byte_facts` is the table.  Per instruction it gives the MMX
  destination, the MMX registers read, whether the instruction is a zero
  idiom, the output-byte gather of a relocating op (:func:`byte_sources`),
  the routable MMX source slots (:func:`mmx_source_slots`) and the memory
  access kind and size.
- :class:`ByteWalk` steps the MMX register file across a body.  It tracks
  live-in and written registers and applies zero idioms and relocations
  from the table; a client supplies only :meth:`ByteWalk.compute`, the
  bytes a computing op writes.  :class:`SymbolWalk` is the provenance
  client (fresh symbols); the interval client lives with the certifier.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

from repro.isa.instructions import Instruction
from repro.isa.operands import Imm, Mem
from repro.isa.registers import MMX_BYTES, Register

#: Symbol meaning "architectural zero shifted in" — never routable.
ZERO = -1

#: Packed semantics whose ``op r, r`` form is zero whatever ``r`` holds.
ZERO_IDIOM_SEMS = frozenset({"pxor", "psub", "psubs", "psubus", "pandn"})

#: One output byte's source: ``("a", i)`` is byte *i* of the destination
#: read as a source, ``("b", i)`` byte *i* of the second operand, and None
#: a zero shifted in.
Source = tuple[str, int] | None


# --- the per-opcode byte table -------------------------------------------------


def _unpack(instr: Instruction, base_lane_byte: int) -> list[Source]:
    k = instr.opcode.width // 8  # bytes per lane
    out: list[Source] = []
    for lane in range(MMX_BYTES // k // 2):
        first = base_lane_byte + lane * k
        out.extend(("a", first + t) for t in range(k))
        out.extend(("b", first + t) for t in range(k))
    return out


def _pshufw(instr: Instruction) -> list[Source]:
    order = instr.operands[2].value & 0xFF
    out: list[Source] = []
    for lane in range(4):
        src_lane = (order >> (2 * lane)) & 3
        out.extend([("b", 2 * src_lane), ("b", 2 * src_lane + 1)])
    return out


def _vperm(instr: Instruction) -> list[Source]:
    # Control nibble i picks byte i from the 16-byte pool (dst ++ src).
    control = instr.operands[2].value
    out: list[Source] = []
    for byte in range(MMX_BYTES):
        pick = (control >> (4 * byte)) & 0xF
        out.append(("a", pick) if pick < MMX_BYTES else ("b", pick - MMX_BYTES))
    return out


def _shift(instr: Instruction) -> list[Source] | None:
    count = instr.operands[1]
    if instr.opcode.width != 64 or not isinstance(count, Imm) or count.value % 8:
        return None  # lane shifts and bit shifts compute
    k = count.value // 8
    if instr.opcode.sem == "psll":
        return [("a", i - k) if i >= k else None for i in range(MMX_BYTES)]
    return [("a", i + k) if i + k < MMX_BYTES else None for i in range(MMX_BYTES)]


#: Relocating semantics -> their output-byte gather.
_GATHERS: dict[str, Callable[[Instruction], list[Source] | None]] = {
    "movq": lambda instr: [("b", i) for i in range(MMX_BYTES)],
    "movd": lambda instr: [("b", i) for i in range(4)] + [None] * 4,
    "punpckl": lambda instr: _unpack(instr, 0),
    "punpckh": lambda instr: _unpack(instr, MMX_BYTES // 2),
    "pshufw": _pshufw,
    "vperm": _vperm,
    "psll": _shift,
    "psrl": _shift,
}


def byte_sources(instr: Instruction) -> list[Source] | None:
    """Output-byte gather of a relocating op; None when *instr* computes."""
    gather = _GATHERS.get(instr.opcode.sem)
    return None if gather is None else gather(instr)


def relocate(
    sources: Sequence[Source], a: Sequence[Any], b: Sequence[Any], zero: Any
) -> list[Any]:
    """Apply a gather to the bytes *a* (destination) and *b* (second operand)."""
    return [
        zero if src is None else (a if src[0] == "a" else b)[src[1]]
        for src in sources
    ]


def is_zero_idiom(instr: Instruction) -> bool:
    """True for ``pxor r, r`` and the other forms in :data:`ZERO_IDIOM_SEMS`.

    The result is zero regardless of the register's content, so the idiom
    reads nothing: its register is not live-in, its operands need no
    routing, and its bytes are a known-zero source.
    """
    operands = instr.operands
    return bool(
        instr.opcode.sem in ZERO_IDIOM_SEMS
        and len(operands) == 2
        and isinstance(operands[0], Register)
        and operands[0] == operands[1]
    )


def mmx_source_slots(instr: Instruction) -> list[int]:
    """Operand slots read as routable MMX sources for *instr*."""
    if not instr.is_mmx:
        return []
    operands = instr.operands
    if instr.opcode.sem in ("movq", "movd", "pshufw"):
        candidates: tuple[int, ...] = (1,)
    elif instr.opcode.sem in ("psll", "psrl", "psra"):
        # Route only the data operand; a register shift count stays literal.
        candidates = (0,)
    else:
        # Packed read-modify-write forms: destination is also a source.
        candidates = tuple(range(min(len(operands), 2)))
    return [
        slot for slot in candidates
        if isinstance(operands[slot], Register) and operands[slot].is_mmx
    ]


def is_pure_permute(instr: Instruction) -> bool:
    """True for instructions the off-load pass may delete (pure relocation).

    The ISA's alignment candidates, less the value-transforming packs, the
    explicit ``vperm`` baseline and any whose gather reads a non-MMX
    operand (``punpcklbw mm1, [r1+8]``): loaded bytes are in no register
    a route could select.
    """
    return bool(
        instr.is_alignment_candidate
        and instr.opcode.sem not in ("packss", "packus", "vperm")
        and byte_facts(instr).sources is not None
    )


@dataclass(frozen=True, slots=True)
class ByteFacts:
    """One instruction's row of the byte table."""

    sem: str
    #: Register written (any class), as :attr:`Instruction.dest`.
    dest: Register | None
    #: Index of the MMX register written, if any.
    mmx_dest: int | None
    #: MMX register indexes read (none for a zero idiom).
    reads: tuple[int, ...]
    zero_idiom: bool
    #: The gather, when every operand it reads is an MMX register;
    #: otherwise None and the op computes.
    sources: tuple[Source, ...] | None
    #: Routable MMX source slots (:func:`mmx_source_slots`).
    slots: tuple[int, ...]
    #: ``"load"``, ``"store"`` or None.
    access: str | None
    #: Bytes the memory operand moves.
    size: int
    mem: Mem | None


def byte_facts(instr: Instruction) -> ByteFacts:
    """The byte-table row of *instr*."""
    opcode = instr.opcode
    dest = instr.dest
    zero_idiom = is_zero_idiom(instr)
    gather = byte_sources(instr)
    if gather is not None:
        used = {src[0] for src in gather if src is not None}
        slot_of = {"a": 0, "b": 1}
        if not all(
            isinstance(instr.operands[slot_of[which]], Register)
            and instr.operands[slot_of[which]].is_mmx
            for which in used
        ):
            gather = None  # a load or a scalar source: the bytes are computed
    if instr.writes_memory:
        access: str | None = "store"
    elif instr.reads_memory:
        access = "load"
    else:
        access = None
    return ByteFacts(
        sem=opcode.sem,
        dest=dest,
        mmx_dest=dest.index if dest is not None and dest.is_mmx else None,
        reads=() if zero_idiom else tuple(sorted(
            reg.index for reg in instr.mmx_regs_read()
        )),
        zero_idiom=zero_idiom,
        sources=None if gather is None else tuple(gather),
        slots=tuple(mmx_source_slots(instr)),
        access=access,
        size=opcode.width // 8 if opcode.width is not None and opcode.sem != "movq" else 8,
        mem=instr.mem_operand,
    )


# --- the register-file walk ----------------------------------------------------


class ByteWalk:
    """The MMX register file as eight lists of eight client byte values.

    :meth:`step` applies the byte table: registers read before any write
    join :attr:`live_in`, a zero idiom writes :attr:`zero` bytes and a
    relocation gathers existing bytes.  The bytes a computing op writes
    come from :meth:`compute`, the one part a client supplies.  Register
    lists are replaced on write, never mutated, so callers may keep them.
    """

    zero: Any

    def __init__(self, regs: list[list[Any]]) -> None:
        self.regs = regs
        self.live_in: set[int] = set()
        self.written: set[int] = set()

    def compute(self, instr: Instruction, facts: ByteFacts) -> list[Any]:
        raise NotImplementedError

    def step(self, instr: Instruction, facts: ByteFacts) -> None:
        """Advance the register file across *instr* (``facts`` is its row)."""
        for index in facts.reads:
            if index not in self.written:
                self.live_in.add(index)
        dest = facts.mmx_dest
        if dest is None:
            return
        if facts.zero_idiom:
            out = [self.zero] * MMX_BYTES
        elif facts.sources is not None:
            second = instr.operands[1]
            b = self.regs[second.index] if isinstance(second, Register) and second.is_mmx else []
            out = relocate(facts.sources, self.regs[dest], b, self.zero)
        else:
            out = self.compute(instr, facts)
        self.regs[dest] = out
        self.written.add(dest)


class SymbolWalk(ByteWalk):
    """Symbolic byte provenance, the off-load pass's client of the walk.

    Every register byte at entry and every byte a computing op writes gets
    a fresh symbol; registers in *known_zero* start as :data:`ZERO`.  Two
    walks seeded alike number their symbols alike.
    """

    zero = ZERO

    def __init__(self, known_zero: tuple[Register, ...]) -> None:
        self._next = 1
        zero_indexes = {reg.index for reg in known_zero}
        super().__init__([
            [ZERO] * MMX_BYTES if reg in zero_indexes else self._fresh()
            for reg in range(8)
        ])

    def _fresh(self) -> list[int]:
        first = self._next
        self._next += MMX_BYTES
        return list(range(first, first + MMX_BYTES))

    def compute(self, instr: Instruction, facts: ByteFacts) -> list[Any]:
        return self._fresh()

    def locate(self, sym: int) -> tuple[int, int] | None:
        """The first register byte holding *sym*, in register order."""
        for reg, word in enumerate(self.regs):
            if sym in word:
                return reg, word.index(sym)
        return None

    def locate_zero(self, byte: int) -> tuple[int, int] | None:
        """Find a zero byte, preferring offset *byte* within its register.

        Any ZERO byte is interchangeable at runtime; picking the same offset
        keeps the route granule-aligned for half-word-port configurations.
        """
        for reg, word in enumerate(self.regs):
            if word[byte] == ZERO:
                return reg, byte
        return self.locate(ZERO)
