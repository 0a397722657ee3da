"""Functional execution of instructions (architectural state changes only).

The executor is timing-free: the pipeline model decides *when* an instruction
issues, then applies its architectural effect.  Since PR 5 the hot path is a
**decoded micro-op cache**: every static instruction is resolved exactly once
by :func:`decode` — opcode semantics to a bound handler, operand kinds to
direct register-file index reads / baked immediates / precomputed
effective-address closures, branch targets to instruction indices — into a
:class:`DecodedOp` whose ``run`` closure the pipeline calls on every dynamic
instance.  The per-issue cost is one dict probe plus one closure call; the
old per-issue dict lookups and ``isinstance`` chains happen only at decode.

``run(state, memory, operand_values)`` returns ``None`` for a fall-through
(so the common case allocates nothing) and a preallocated
:class:`ExecOutcome` for branches and ``halt``.  The decode table lives on
the :class:`~repro.isa.instructions.Program` (``uop_table``), keyed by pc and
validated by instruction *identity*, so transformation passes that rebuild a
program (or reuse :class:`Instruction` objects under different label maps)
can never be served a stale micro-op.

SPU transparent permutation is supported through ``operand_values`` — a
mapping from operand-slot index to a pre-routed 64-bit value that replaces
the register-file read for that slot (the crossbar sits between the register
file and the functional units, §3, so only *source* values are rerouted; the
destination write is architectural as usual).

Packed-op handlers are resolved through :func:`repro.simd.active_backend` at
decode time, so the SWAR fast path and the NumPy reference oracle are
swappable per-program (see ``benchmarks/bench_simspeed.py``).

Scalar comparisons set zero/sign flags from the 32-bit result; there is no
overflow flag, so signed conditional branches are exact for operand distances
below 2³¹ (always true for the media kernels' loop counters).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro import simd
from repro.errors import SimulationError
from repro.cpu.memory import Memory
from repro.cpu.state import MachineState
from repro.isa.instructions import Instruction, Program
from repro.isa.operands import Imm, Mem
from repro.isa.registers import NUM_MMX_REGS, SCALAR_MASK, Register
from repro.simd.lanes import WORD_MASK


@dataclass(frozen=True, slots=True)
class ExecOutcome:
    """Result of executing one instruction."""

    next_pc: int
    is_branch: bool = False
    taken: bool = False
    target: int | None = None


#: Sentinel distinguishing "slot not routed" from a routed value of 0.
_MISS = object()


def effective_address(mem: Mem, state: MachineState) -> int:
    """Compute ``base + index*scale + disp`` from scalar registers."""
    address = state.read(mem.base) + mem.disp
    if mem.index is not None:
        address += state.read(mem.index) * mem.scale
    return address & SCALAR_MASK


# --- decode-time operand access ----------------------------------------------
#
# Each builder inspects an operand once and returns a closure specialised to
# its kind.  ``Mem`` operands may only use scalar base/index registers
# (enforced by ``Mem.__post_init__``), and scalar registers are kept masked
# by ``MachineState.write``, so the no-disp/no-index fast path needs no mask.


def _make_address(mem: Mem) -> Callable[[MachineState], int]:
    base = mem.base.index
    disp = mem.disp
    if mem.index is None:
        if disp == 0:
            def address(state: MachineState, _b: int = base) -> int:
                return state.scalar[_b]
            return address

        def address(state: MachineState, _b: int = base, _d: int = disp) -> int:
            return (state.scalar[_b] + _d) & SCALAR_MASK
        return address

    index = mem.index.index
    scale = mem.scale

    def address(
        state: MachineState, _b: int = base, _d: int = disp,
        _i: int = index, _s: int = scale,
    ) -> int:
        return (state.scalar[_b] + _d + state.scalar[_i] * _s) & SCALAR_MASK
    return address


def _make_reader(operand: object, size: int = 8) -> Callable[[MachineState, Memory], int]:
    """Source-value closure for one operand (register, immediate or memory)."""
    if isinstance(operand, Register):
        idx = operand.index
        if operand.is_mmx:
            def read(state: MachineState, memory: Memory, _i: int = idx) -> int:
                return state.mmx[_i]
            return read

        def read(state: MachineState, memory: Memory, _i: int = idx) -> int:
            return state.scalar[_i]
        return read
    if isinstance(operand, Imm):
        value = operand.value

        def read(state: MachineState, memory: Memory, _v: int = value) -> int:
            return _v
        return read
    if isinstance(operand, Mem):
        address = _make_address(operand)

        def read(
            state: MachineState, memory: Memory,
            _a: Callable[[MachineState], int] = address, _s: int = size,
        ) -> int:
            return memory.load(_a(state), _s)
        return read
    raise SimulationError(f"operand {operand} cannot be read as a source")


def _make_writer(operand: object, size: int = 8) -> Callable[[MachineState, Memory, int], None]:
    """Destination-write closure (register or memory operand)."""
    if isinstance(operand, Register):
        idx = operand.index
        if operand.is_mmx:
            def write(state: MachineState, memory: Memory, value: int, _i: int = idx) -> None:
                state.mmx[_i] = int(value) & WORD_MASK
            return write

        def write(state: MachineState, memory: Memory, value: int, _i: int = idx) -> None:
            state.scalar[_i] = int(value) & SCALAR_MASK
        return write
    if isinstance(operand, Mem):
        address = _make_address(operand)

        def write(
            state: MachineState, memory: Memory, value: int,
            _a: Callable[[MachineState], int] = address, _s: int = size,
        ) -> None:
            memory.store(_a(state), _s, value)
        return write
    raise SimulationError(f"operand {operand} cannot be written")


# --- packed dispatch tables --------------------------------------------------
#
# Handler *names*, resolved against the active simd backend at decode time.

_PACKED_BINARY = (
    "padd", "psub", "padds", "psubs", "paddus", "psubus", "pavg",
    "pcmpeq", "pcmpgt", "packss", "packus", "punpckl", "punpckh",
)

_PACKED_BINARY_NOWIDTH = (
    "pand", "pandn", "por", "pxor",
    "pmullw", "pmulhw", "pmulhuw", "pmaddwd", "pmuludq",
)

_MINMAX = {
    "pmins": ("pmin", True),
    "pmaxs": ("pmax", True),
    "pminu": ("pmin", False),
    "pmaxu": ("pmax", False),
}

_SHIFTS = ("psll", "psrl", "psra")

_SCALAR_BINOPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    # imul keeps the low 32 bits; signedness is irrelevant modulo 2^32.
    "imul": lambda a, b: a * b,
}

_CONDITIONS = {
    "jz": lambda f: f.zero,
    "jnz": lambda f: not f.zero,
    "js": lambda f: f.sign,
    "jns": lambda f: not f.sign,
    "jl": lambda f: f.sign,
    "jge": lambda f: not f.sign,
    "jle": lambda f: f.zero or f.sign,
    "jg": lambda f: not (f.zero or f.sign),
}

_LOAD_SIZES = {"ldw": (4, False), "ldh": (2, False), "ldhs": (2, True), "ldb": (1, False)}
_STORE_SIZES = {"stw": 4, "sth": 2, "stb": 1}


# --- run-closure builders ----------------------------------------------------
#
# ``operand_values`` (the SPU's routed sources) may override any *source*
# slot of an MMX instruction, so MMX closures probe it with the ``_MISS``
# sentinel (a routed value of 0 is legitimate).  Scalar/control closures
# never received overrides (the crossbar feeds only the MMX units) and
# ignore the argument, exactly as the pre-decode executor did.


def _packed2_w(fn, width, read0, read1, write):
    def run(state, memory, ov, _f=fn, _wd=width, _r0=read0, _r1=read1, _w=write):
        if ov is None:
            a = _r0(state, memory)
            b = _r1(state, memory)
        else:
            a = ov.get(0, _MISS)
            if a is _MISS:
                a = _r0(state, memory)
            b = ov.get(1, _MISS)
            if b is _MISS:
                b = _r1(state, memory)
        _w(state, memory, _f(a, b, _wd))
        return None
    return run


def _packed2(fn, read0, read1, write):
    def run(state, memory, ov, _f=fn, _r0=read0, _r1=read1, _w=write):
        if ov is None:
            a = _r0(state, memory)
            b = _r1(state, memory)
        else:
            a = ov.get(0, _MISS)
            if a is _MISS:
                a = _r0(state, memory)
            b = ov.get(1, _MISS)
            if b is _MISS:
                b = _r1(state, memory)
        _w(state, memory, _f(a, b))
        return None
    return run


def _packed2_minmax(fn, width, signed, read0, read1, write):
    def run(state, memory, ov, _f=fn, _wd=width, _s=signed,
            _r0=read0, _r1=read1, _w=write):
        if ov is None:
            a = _r0(state, memory)
            b = _r1(state, memory)
        else:
            a = ov.get(0, _MISS)
            if a is _MISS:
                a = _r0(state, memory)
            b = ov.get(1, _MISS)
            if b is _MISS:
                b = _r1(state, memory)
        _w(state, memory, _f(a, b, _wd, signed=_s))
        return None
    return run


def _vperm(read0, read1, read2, write):
    # 16-byte pool = dst (low 8) ++ src (high 8); each control nibble selects
    # a pool byte for the corresponding destination byte.
    def run(state, memory, ov, _r0=read0, _r1=read1, _r2=read2, _w=write):
        if ov is None:
            dst_val = _r0(state, memory)
            src_val = _r1(state, memory)
            control = _r2(state, memory)
        else:
            dst_val = ov.get(0, _MISS)
            if dst_val is _MISS:
                dst_val = _r0(state, memory)
            src_val = ov.get(1, _MISS)
            if src_val is _MISS:
                src_val = _r1(state, memory)
            control = ov.get(2, _MISS)
            if control is _MISS:
                control = _r2(state, memory)
        control &= 0xFFFFFFFF
        pool = dst_val | (src_val << 64)
        out = 0
        for i in range(0, 64, 8):
            out |= ((pool >> (((control & 0xF) << 3))) & 0xFF) << i
            control >>= 4
        _w(state, memory, out)
        return None
    return run


def _pshufw(fn, read1, read2, static_selector, write):
    def run(state, memory, ov, _f=fn, _r1=read1, _r2=read2,
            _sel=static_selector, _w=write):
        if ov is None:
            src = _r1(state, memory)
            if _sel is not None:
                _w(state, memory, _f(src, _sel, 16))
                return None
            order = _r2(state, memory) & 0xFF
        else:
            src = ov.get(1, _MISS)
            if src is _MISS:
                src = _r1(state, memory)
            order = ov.get(2, _MISS)
            if order is _MISS:
                order = _r2(state, memory)
            order &= 0xFF
        selector = [order & 3, (order >> 2) & 3, (order >> 4) & 3, (order >> 6) & 3]
        _w(state, memory, _f(src, selector, 16))
        return None
    return run


def _movq(read1, write):
    def run(state, memory, ov, _r1=read1, _w=write):
        if ov is None:
            value = _r1(state, memory)
        else:
            value = ov.get(1, _MISS)
            if value is _MISS:
                value = _r1(state, memory)
        _w(state, memory, value)
        return None
    return run


def _movd(read1, dest):
    if isinstance(dest, Register) and dest.is_mmx:
        idx = dest.index

        def run(state, memory, ov, _r1=read1, _i=idx):
            if ov is None:
                value = _r1(state, memory)
            else:
                value = ov.get(1, _MISS)
                if value is _MISS:
                    value = _r1(state, memory)
            state.mmx[_i] = value & 0xFFFFFFFF  # zero-extends to 64 bits
            return None
        return run

    write = _make_writer(dest, size=4)

    def run(state, memory, ov, _r1=read1, _w=write):
        if ov is None:
            value = _r1(state, memory)
        else:
            value = ov.get(1, _MISS)
            if value is _MISS:
                value = _r1(state, memory)
        _w(state, memory, value & 0xFFFFFFFF)
        return None
    return run


def _mov(dest, read1):
    write = _make_writer(dest)

    def run(state, memory, ov, _r1=read1, _w=write):
        _w(state, memory, _r1(state, memory))
        return None
    return run


def _scalar_binop(fn, dest, read1):
    idx = dest.index

    def run(state, memory, ov, _f=fn, _i=idx, _r1=read1):
        result = _f(state.scalar[_i], _r1(state, memory)) & SCALAR_MASK
        state.scalar[_i] = result
        state.flags.set_from(result)
        return None
    return run


def _scalar_shift(sem, dest, read1):
    idx = dest.index
    if sem == "shl":
        def run(state, memory, ov, _i=idx, _r1=read1):
            result = (state.scalar[_i] << (_r1(state, memory) & 31)) & SCALAR_MASK
            state.scalar[_i] = result
            state.flags.set_from(result)
            return None
    elif sem == "shr":
        def run(state, memory, ov, _i=idx, _r1=read1):
            result = state.scalar[_i] >> (_r1(state, memory) & 31)
            state.scalar[_i] = result
            state.flags.set_from(result)
            return None
    else:  # sar: arithmetic shift of the signed 32-bit value
        def run(state, memory, ov, _i=idx, _r1=read1):
            a = state.scalar[_i]
            signed = a - (1 << 32) if a >> 31 else a
            result = (signed >> (_r1(state, memory) & 31)) & SCALAR_MASK
            state.scalar[_i] = result
            state.flags.set_from(result)
            return None
    return run


def _cmp(read0, read1):
    def run(state, memory, ov, _r0=read0, _r1=read1):
        state.flags.set_from(_r0(state, memory) - (_r1(state, memory) & SCALAR_MASK))
        return None
    return run


def _inc_dec_neg(sem, dest):
    idx = dest.index
    if sem == "inc":
        def run(state, memory, ov, _i=idx):
            result = (state.scalar[_i] + 1) & SCALAR_MASK
            state.scalar[_i] = result
            state.flags.set_from(result)
            return None
    elif sem == "dec":
        def run(state, memory, ov, _i=idx):
            result = (state.scalar[_i] - 1) & SCALAR_MASK
            state.scalar[_i] = result
            state.flags.set_from(result)
            return None
    else:  # neg
        def run(state, memory, ov, _i=idx):
            result = -state.scalar[_i] & SCALAR_MASK
            state.scalar[_i] = result
            state.flags.set_from(result)
            return None
    return run


def _lea(dest, mem):
    idx = dest.index
    address = _make_address(mem)

    def run(state, memory, ov, _i=idx, _a=address):
        state.scalar[_i] = _a(state)
        return None
    return run


def _load(dest, mem, size, signed):
    idx = dest.index
    address = _make_address(mem)
    if signed:
        def run(state, memory, ov, _i=idx, _a=address, _s=size):
            state.scalar[_i] = memory.load_signed(_a(state), _s) & SCALAR_MASK
            return None
        return run

    def run(state, memory, ov, _i=idx, _a=address, _s=size):
        state.scalar[_i] = memory.load(_a(state), _s)
        return None
    return run


def _store(mem, src, size):
    address = _make_address(mem)
    read1 = _make_reader(src)

    def run(state, memory, ov, _a=address, _r1=read1, _s=size):
        memory.store(_a(state), _s, _r1(state, memory))
        return None
    return run


def _jmp(outcome):
    def run(state, memory, ov, _o=outcome):
        return _o
    return run


def _cond(cond_fn, taken_outcome, fall_outcome):
    def run(state, memory, ov, _c=cond_fn, _t=taken_outcome, _n=fall_outcome):
        return _t if _c(state.flags) else _n
    return run


def _loop(counter, taken_outcome, fall_outcome):
    idx = counter.index

    def run(state, memory, ov, _i=idx, _t=taken_outcome, _n=fall_outcome):
        value = (state.scalar[_i] - 1) & SCALAR_MASK
        state.scalar[_i] = value
        state.flags.set_from(value)
        return _t if value else _n
    return run


def _run_nop(state, memory, ov):
    return None


def _halt(outcome):
    def run(state, memory, ov, _o=outcome):
        state.halted = True
        return _o
    return run


# --- the decoded micro-op ----------------------------------------------------

#: Size of the pipeline's flat scoreboard: scalar registers use their index,
#: MMX registers ``16 + index`` (see ``DecodedOp.read_keys``).
SCOREBOARD_KEYS = 16 + NUM_MMX_REGS


class DecodedOp:
    """One static instruction, resolved to a flat executable form.

    ``run(state, memory, operand_values)`` applies the architectural effect
    and returns ``None`` for fall-through or a preallocated
    :class:`ExecOutcome` for control flow (and ``halt``).  Everything the
    issue loop consults per dynamic instance — class, latency, permute and
    hazard sets — is baked into slots so the hot loop never touches the
    :class:`Instruction` property layer.
    """

    __slots__ = (
        "instr", "run", "fall", "fn", "is_mmx", "is_branch", "iclass", "is_permute",
        "is_alignment_candidate", "latency", "reads_memory",
        "read_regs", "written_regs", "read_keys", "written_keys",
    )

    def __init__(self, instr: Instruction, run, fall: ExecOutcome, fn=None) -> None:
        self.instr = instr
        self.run = run
        self.fall = fall
        #: The simd handler ``run`` is bound to (packed ops only), so the
        #: block translator (:mod:`repro.cpu.blocks`) calls the same one.
        self.fn = fn
        self.is_mmx = instr.is_mmx
        self.is_branch = instr.is_branch
        self.iclass = instr.iclass
        self.is_permute = instr.is_permute
        self.is_alignment_candidate = instr.is_alignment_candidate
        self.latency = instr.opcode.latency
        self.reads_memory = instr.reads_memory
        # Hazard sets as tuples of architectural registers only: the flags
        # pseudo-register never entered the scoreboard (the pipeline filtered
        # it on every lookup; now it is filtered once, here).
        self.read_regs = tuple(
            r for r in instr.regs_read() if isinstance(r, Register)
        )
        self.written_regs = tuple(
            r for r in instr.regs_written() if isinstance(r, Register)
        )
        # Same registers as small-int scoreboard keys (scalar: index, MMX:
        # 16+index) so the hot loop's dict probes hash in C.
        self.read_keys = tuple(
            16 + r.index if r.is_mmx else r.index for r in self.read_regs
        )
        self.written_keys = tuple(
            16 + r.index if r.is_mmx else r.index for r in self.written_regs
        )


def decode(instr: Instruction, program: Program, pc: int) -> DecodedOp:
    """Resolve one static instruction at index *pc* into a :class:`DecodedOp`.

    Branch targets are looked up in *program*'s label map here, once, so an
    undefined label surfaces at first execution (``Program.validate`` catches
    it earlier still).  Packed-op handlers bind to the simd backend active
    at decode time.
    """
    sem = instr.opcode.sem
    width = instr.opcode.width
    operands = instr.operands
    fall = ExecOutcome(next_pc=pc + 1)
    fn = None

    if sem in _PACKED_BINARY or sem in _SHIFTS:
        fn = getattr(simd.active_backend(), sem)
        run = _packed2_w(
            fn, width,
            _make_reader(operands[0]), _make_reader(operands[1]),
            _make_writer(operands[0]),
        )
    elif sem in _PACKED_BINARY_NOWIDTH:
        fn = getattr(simd.active_backend(), sem)
        run = _packed2(
            fn,
            _make_reader(operands[0]), _make_reader(operands[1]),
            _make_writer(operands[0]),
        )
    elif sem in _MINMAX:
        name, signed = _MINMAX[sem]
        fn = getattr(simd.active_backend(), name)
        run = _packed2_minmax(
            fn, width, signed,
            _make_reader(operands[0]), _make_reader(operands[1]),
            _make_writer(operands[0]),
        )
    elif sem == "vperm":
        run = _vperm(
            _make_reader(operands[0]), _make_reader(operands[1]),
            _make_reader(operands[2]), _make_writer(operands[0]),
        )
    elif sem == "pshufw":
        selector = None
        if isinstance(operands[2], Imm):
            order = operands[2].value & 0xFF
            selector = [(order >> (2 * i)) & 3 for i in range(4)]
        fn = getattr(simd.active_backend(), "permute_word")
        run = _pshufw(
            fn,
            _make_reader(operands[1]), _make_reader(operands[2]),
            selector, _make_writer(operands[0]),
        )
    elif sem == "movq":
        run = _movq(_make_reader(operands[1]), _make_writer(operands[0]))
    elif sem == "movd":
        run = _movd(_make_reader(operands[1], size=4), operands[0])
    elif sem == "mov":
        run = _mov(operands[0], _make_reader(operands[1], size=4))
    elif sem in _SCALAR_BINOPS:
        run = _scalar_binop(
            _SCALAR_BINOPS[sem], operands[0], _make_reader(operands[1], size=4)
        )
    elif sem in ("shl", "shr", "sar"):
        run = _scalar_shift(sem, operands[0], _make_reader(operands[1]))
    elif sem == "cmp":
        run = _cmp(_make_reader(operands[0]), _make_reader(operands[1], size=4))
    elif sem in ("inc", "dec", "neg"):
        run = _inc_dec_neg(sem, operands[0])
    elif sem == "lea":
        run = _lea(operands[0], operands[1])
    elif sem in _LOAD_SIZES:
        size, signed = _LOAD_SIZES[sem]
        run = _load(operands[0], operands[1], size, signed)
    elif sem in _STORE_SIZES:
        run = _store(operands[0], operands[1], _STORE_SIZES[sem])
    elif sem == "jmp":
        target = program.target(operands[0].name)
        run = _jmp(ExecOutcome(next_pc=target, is_branch=True, taken=True, target=target))
    elif sem in _CONDITIONS:
        target = program.target(operands[0].name)
        run = _cond(
            _CONDITIONS[sem],
            ExecOutcome(next_pc=target, is_branch=True, taken=True, target=target),
            ExecOutcome(next_pc=pc + 1, is_branch=True, taken=False, target=target),
        )
    elif sem == "loop":
        target = program.target(operands[1].name)
        run = _loop(
            operands[0],
            ExecOutcome(next_pc=target, is_branch=True, taken=True, target=target),
            ExecOutcome(next_pc=pc + 1, is_branch=True, taken=False, target=target),
        )
    elif sem in ("nop", "emms"):
        run = _run_nop
    elif sem == "halt":
        run = _halt(ExecOutcome(next_pc=pc))
    else:
        raise SimulationError(f"no executor for opcode {instr.name!r}")

    return DecodedOp(instr, run, fall, fn)


def uop_table(program: Program) -> dict[int, DecodedOp]:
    """The per-program decode cache (created on first use).

    Lives on the :class:`Program` so every :class:`Machine` running the same
    program shares one decode, and a rebuilt program starts empty.  Entries
    are validated by instruction identity before use.
    """
    cache = program.__dict__.get("_uop_cache")
    if cache is None:
        cache = {}
        program._uop_cache = cache
    return cache


def cold_decode(
    uops: dict[int, DecodedOp], program: Program, pc: int,
    instr: Instruction, stale: DecodedOp | None,
) -> DecodedOp:
    """Decode-and-fill for a cache miss; maintains the program's uop stats.

    Every consumer of :func:`uop_table` routes its miss path through here,
    so ``decodes`` (first sight of a pc) and ``rebuilds`` (a cached entry
    failed identity revalidation — the instruction list was edited in
    place) stay accurate without touching the hot hit path.
    """
    uop = decode(instr, program, pc)
    uops[pc] = uop
    stats = program.__dict__.get("_uop_stats")
    if stats is None:
        stats = {"decodes": 0, "rebuilds": 0}
        program._uop_stats = stats
    if stale is None:
        stats["decodes"] += 1
    else:
        stats["rebuilds"] += 1
    return uop


def uop_cache_stats(program: Program) -> dict:
    """Lifetime decode-cache counters for *program* (all zero before use).

    ``decodes`` counts first-sight misses, ``rebuilds`` counts
    identity-revalidation misses, ``cached_entries`` is the table's current
    size.  Dynamic hits are derived by the observers that know the issue
    count (``hits = issues - misses``); see ``repro profile``.
    """
    stats = program.__dict__.get("_uop_stats")
    cache = program.__dict__.get("_uop_cache")
    return {
        "decodes": stats["decodes"] if stats else 0,
        "rebuilds": stats["rebuilds"] if stats else 0,
        "cached_entries": len(cache) if cache else 0,
    }


def execute(
    instr: Instruction,
    state: MachineState,
    memory: Memory,
    program: Program,
    operand_values: dict[int, int] | None = None,
) -> ExecOutcome:
    """Apply *instr* at ``state.pc`` to *state*/*memory*; return control flow.

    Thin compatibility wrapper over the micro-op cache: decodes (or fetches)
    the :class:`DecodedOp` for ``state.pc``, runs it, and materialises the
    fall-through outcome the closure elides.
    """
    pc = state.pc
    cache = uop_table(program)
    uop = cache.get(pc)
    if uop is None or uop.instr is not instr:
        uop = cold_decode(cache, program, pc, instr, uop)
    result = uop.run(state, memory, operand_values)
    return result if result is not None else uop.fall
