"""Exact hot-block translation for :meth:`repro.cpu.pipeline.Machine.run`.

A *block* starts at a leader pc (a branch target, or the pc a run starts
at) and runs straight through the next control op (branch or ``halt``).
Once a leader has been reached :data:`HOT_ENTRIES` times as an issue-group
head, the block is translated: Python source is emitted once, built with
``compile()`` and cached on the :class:`~repro.isa.instructions.Program`.
The translated function does the uop loop's work inline, instruction by
instruction, so every cycle is still charged as the uop loop charges it:

* the scoreboard is the run's flat ``reg_ready`` list over the decoded
  ops' small-int keys, and stall/ready arithmetic is emitted per
  instruction;
* the U/V grouping is the one recorded at translation time (a timing-only
  replay of the block from the scoreboard the run had then).  Each
  recorded "follower operands ready" decision is a runtime guard; on a
  mismatch the code finishes that issue group the other way and returns
  to the uop loop at the next group head;
* register reads and writes index ``state.mmx``/``state.scalar``; scalar
  ALU ops, loads/stores below every MMIO window and condition flags are
  inline (flags are kept in a local and stored on every way out, including
  exceptions); packed ops call the very simd handler the decoded op is
  bound to, so the backend choice and ``full_validation()`` behave as in
  the uop loop;
* an attached SPU's controller is stepped inline from its static schedule
  (:meth:`~repro.core.integration.AttachedSPU.block_view`): the counter
  decrement and reload, the ``next0``/``next1`` select, the idle entry and
  the routed operands, gathered by the routes' word plans and passed to
  the inline semantics in place of the register reads (ops without inline
  semantics run the decoded op with them).  The step's stats are kept in
  locals and folded in on every way out.  A step with no schedule entry
  (an undefined state, a next field out of range, an illegal route) or
  taken while a register upset is armed calls ``routes_for`` instead.  The
  controller's locals are re-read on entry, after such a call and after
  each access that may reach MMIO;
* per-class, pairing and issue counts are static per way out of the block
  ("exit"), so the run tallies exits and folds them into
  :class:`~repro.cpu.stats.RunStats` at run end, in first-issue order
  (while a trigger is armed, each exit as it is taken);
* a recorded block (the run has a :class:`~repro.obs.recorder.Recorder`)
  appends only what is dynamic to its columns: each issue's cycle and
  routed flag (the pipe and MMX bits are constants), each stall's start
  and length at an issue-group head, each inline controller step's row
  (``routes_for`` records the others), and on the way out the exit's
  static pcs.  Branches are recorded by ``Machine._branch_cost``, which
  the block calls as the uop loop does.  A full chunk is flushed on
  entry, an issue-group head.

An issue that raises inside a block leaves the state as the uop loop would
and hands ``Machine.run`` the cycle and the issue's *fault exit* (the
static counts of the issues before it on its path, plus the cycle a
dropped issue costs), where the resilience policy applies as in the uop
loop.

Translations are keyed by the program's text (instructions and labels,
under the active simd backend), so every
:class:`~repro.isa.instructions.Program` with that text shares them, and
by what changes the generated code: whether an SPU is attached,
``issue_width``, ``memory_latency`` and whether the run is recorded (the
unrecorded source has no recorder code at all).  Everything else that
varies per machine (memory, predictor, mispredict penalty, the SPU itself)
is passed in per run.  The block checks the identity of each of its
instructions on entry: a program joining a shared table takes the table's
instruction objects, and one edited in place moves to a private table.
"""

from __future__ import annotations

import struct
from array import array
from collections import OrderedDict

from repro import simd
from repro.cpu.executor import (
    _LOAD_SIZES,
    _MINMAX,
    _PACKED_BINARY,
    _PACKED_BINARY_NOWIDTH,
    _SHIFTS,
    _STORE_SIZES,
    DecodedOp,
    ExecOutcome,
    cold_decode,
    uop_table,
)
from repro.cpu.pairing import can_pair
from repro.isa.instructions import Program
from repro.isa.opcodes import all_opcodes
from repro.isa.operands import Imm, Mem
from repro.isa.registers import SCALAR_MASK, Register
from repro.obs.recorder import FLAG_BITS, ROUTED, issue_flags, route_bits
from repro.simd.lanes import WORD_MASK

#: Entries of a leader before its block is translated.  Translating costs
#: about 185 us per instruction (half of it compile()), and each translated
#: issue saves about 2.2 us, so a block repays its translation after some
#: 85 entries.  Translating every block on sight made cold runs slower: at
#: 64 entries only loops that have already run 64 times are translated, and
#: they repay it within the run from about 150 iterations.  Entry counts
#: belong to the program's text, so a kernel rebuilt per campaign task or
#: service job runs the blocks earlier runs of its text translated.
HOT_ENTRIES = 64

#: Program texts whose translation tables are kept, least recently used
#: first out: room for all 14 kernels' MMX and SPU texts at both sizes.
SHARED_TEXTS = 64

#: A block is cut after the issue group that reaches this many
#: instructions; the rest of the straight line is a block of its own, which
#: the first one enters.  compile() needs about 5 KB of transient memory
#: per generated line (some ten per instruction), so this bounds the memory
#: a translation takes, as well as its latency.
MAX_BLOCK = 24

#: Largest latency of any opcode; with ``memory_latency``, the most cycles
#: one instruction can wait on the scoreboard.
_MAX_LATENCY = max(op.latency for op in all_opcodes())

#: The executor's scalar binary ops, as Python operators.
_SCALAR_OPS = {"add": "+", "sub": "-", "and": "&", "or": "|", "xor": "^", "imul": "*"}
#: Branch conditions over the pending flag value ``fv`` (the masked 32-bit
#: result of the last flag-setting op) and over the stored flags.
_COND_FV = {
    "jz": "fv == 0", "jnz": "fv != 0",
    "js": "fv > 2147483647", "jl": "fv > 2147483647",
    "jns": "fv <= 2147483647", "jge": "fv <= 2147483647",
    "jle": "fv == 0 or fv > 2147483647", "jg": "0 < fv <= 2147483647",
}
_COND_FLAGS = {
    "jz": "fl.zero", "jnz": "not fl.zero",
    "js": "fl.sign", "jl": "fl.sign",
    "jns": "not fl.sign", "jge": "not fl.sign",
    "jle": "fl.zero or fl.sign", "jg": "not (fl.zero or fl.sign)",
}

#: The default (SWAR) backend's handlers, which return Python ints.
_SWAR_HANDLERS = frozenset(v for v in vars(simd).values() if callable(v))

_CODECS = {
    "U2": struct.Struct("<H").unpack_from,
    "S2": struct.Struct("<h").unpack_from,
    "U4": struct.Struct("<I").unpack_from,
    "U8": struct.Struct("<Q").unpack_from,
    "P2": struct.Struct("<H").pack_into,
    "P4": struct.Struct("<I").pack_into,
    "P8": struct.Struct("<Q").pack_into,
}

#: Names the generated function unpacks from the per-run environment tuple
#: built by :func:`run_env`.
_ENV = ("state, m, s, fl, I, size, memory, data, l1, l2, l4, l8, "
        "rr, stats, bc, FX, cb, view, idle, slow, gather, put")
#: What a recorded block unpacks after ``_ENV``: the recorder's stamp
#: column, its append, the pc column's extend, its stall record, the chunk
#: size, the flush and the step column's extend.
_REC_ENV = "QS, QA, PX, RS, CH, FL, SX"


#: A line outside every issue: an exception there has no fault exit.
_NO_FAULT = 255

#: The SPU controller's locals in a block, and their re-read
#: (``AttachedSPU.block_view``).
_VIEW_NAMES = "act, cx, cn, T, ID"
_VIEW = f"{_VIEW_NAMES} = view()"


class Exit:
    """One way out of a translated block, with its static issue counts."""

    __slots__ = ("pcs", "pair", "solo", "busy", "reasons", "next_pc")

    def __init__(self, pcs, pair, solo, busy, reasons, next_pc) -> None:
        #: Issued pcs, in issue order.
        self.pcs = pcs
        self.pair = pair
        self.solo = solo
        #: Issue cycles with an MMX instruction executing.
        self.busy = busy
        #: One ``pair_fail_reasons`` key per unpaired group, in order.
        self.reasons = reasons
        self.next_pc = next_pc


class Head:
    """A leader pc: its entry count, then its translated block."""

    __slots__ = ("count", "fn", "span", "issues", "exits")

    def __init__(self) -> None:
        self.count = 0
        #: ``fn(env, cycle) -> (cycle, exit index)``; exit index -1 means an
        #: instruction of the block changed since translation.
        self.fn = None
        #: Upper bound on the cycles from entry to the block's last issue
        #: group, for the watchdog test on entry (see ``Machine.run``).
        self.span = 0
        #: Most issues on any path through the block, for the trigger test.
        self.issues = 0
        #: The ways out, then the fault exits (see :func:`translate`).
        self.exits: list[Exit] = []


#: Program text -> (its canonical instruction tuple, its translation
#: tables); see :func:`_text_tables`.
_shared: OrderedDict = OrderedDict()


def _text_tables(program: Program) -> dict:
    """The translation tables of *program*'s text, shared on first use.

    A program joining a text's tables takes the text's instruction objects
    (equal, frozen), which its blocks check by identity.  One that has
    already decoded an instruction keeps tables of its own, since its
    micro-op cache checks the same identities.
    """
    instructions = tuple(program.instructions)
    text = (simd.backend_name(), instructions, tuple(program.labels.items()))
    entry = _shared.get(text)
    if entry is None:
        entry = _shared[text] = (instructions, {})
        if len(_shared) > SHARED_TEXTS:
            _shared.popitem(last=False)
    elif program.__dict__.get("_uop_cache"):
        return {}
    else:
        _shared.move_to_end(text)
        program.instructions[:] = entry[0]
    return entry[1]


def block_heads(program: Program, spu: bool, issue_width: int,
                memory_latency: int, recorded: bool = False) -> dict[int, Head]:
    """The leader table for one translation key, created on first use.

    Shared by every program with the same text (see :func:`_text_tables`)
    until ``Machine.run`` finds an instruction edited in place and gives
    the program a private table.  Leaders are the program's branch targets;
    ``Machine.run`` adds the pc each run starts at.
    """
    cache = program.__dict__.get("_block_cache")
    if cache is None:
        cache = _text_tables(program)
        program._block_cache = cache
    key = (spu, issue_width, memory_latency, recorded)
    heads = cache.get(key)
    if heads is None:
        heads = {}
        labels = program.labels
        for instr in program.instructions:
            if instr.is_branch:
                target = labels.get(instr.operands[-1].name)
                if target is not None:
                    heads.setdefault(target, Head())
        cache[key] = heads
    return heads


def run_env(machine, reg_ready: list[int], stats, stops: list,
            recorder=None) -> tuple:
    """The per-run values a translated block unpacks (see ``_ENV``).

    A block whose issue raises appends ``(cycle, fault exit index)`` to
    *stops*.  A recorded run's blocks also unpack *recorder*'s columns
    (``_REC_ENV``).
    """
    state = machine.state
    memory = machine.memory
    limit = memory.direct_limit()
    spu = machine.spu
    env = (
        state, state.mmx, state.scalar, state.flags,
        machine.program.instructions, len(machine.program.instructions),
        memory, memory.data, limit - 1, limit - 2, limit - 4, limit - 8,
        reg_ready, stats, machine._branch_cost, stops,
    ) + (spu.block_env() if spu is not None else (None,) * 6)
    if recorder is not None:
        env += (recorder.stamp, recorder.stamp.append, recorder.pc.extend,
                recorder.stall, recorder.chunk_size, recorder.flush,
                recorder.steps.extend)
    return env


def first_issue(exit: Exit, issue_counts: dict[int, int], reasons) -> None:
    """Record *exit*'s pcs and pairing reasons where the uop loop would.

    Called the first time a run takes *exit*, so the insertion order of
    the per-pc issue counts (which becomes ``RunStats.by_class`` order) and
    of ``pair_fail_reasons`` matches a run without translation.
    """
    for pc in exit.pcs:
        issue_counts.setdefault(pc, 0)
    for reason in exit.reasons:
        reasons.setdefault(reason, 0)


def fold_exit(stats, exit: Exit, n: int, issue_counts: dict[int, int]) -> None:
    """Add the static counts of *exit*, taken *n* times, to the run."""
    reasons = stats.pair_fail_reasons
    for pc in exit.pcs:
        issue_counts[pc] += n
    for reason in exit.reasons:
        reasons[reason] += n
    stats.instructions += n * len(exit.pcs)
    stats.pair_cycles += n * exit.pair
    stats.solo_cycles += n * exit.solo
    stats.mmx_busy_cycles += n * exit.busy


def fold_exits(stats, tally: dict[Exit, int], issue_counts: dict[int, int]) -> None:
    """Fold every exit of *tally* (exit -> times taken) into the run."""
    for exit, n in tally.items():
        fold_exit(stats, exit, n, issue_counts)
    tally.clear()


# --- translation ---------------------------------------------------------------


def _address(mem: Mem) -> str:
    """Effective-address expression, exactly as ``executor._make_address``."""
    base = f"s[{mem.base.index}]"
    if mem.index is None:
        if mem.disp == 0:
            return base
        return f"({base} + {mem.disp}) & {SCALAR_MASK}"
    return f"({base} + {mem.disp} + s[{mem.index.index}] * {mem.scale}) & {SCALAR_MASK}"


class _Emitter:
    """Source text of one block function plus the globals it refers to."""

    def __init__(self, spu: bool, pc: int, recorded: bool = False) -> None:
        self.lines: list[str] = []
        #: The instruction each line belongs to (see ``translate``'s handler).
        self.line_pcs: list[int] = []
        self.pc = pc
        #: The fault exit of the issue being emitted (:data:`_NO_FAULT`
        #: between issues), and each line's.
        self.fault = _NO_FAULT
        self.line_faults: list[int] = []
        self.depth = 2
        self.spu = spu
        #: Append each issue's stamp to the recorder (see ``_REC_ENV``).
        self.recorded = recorded
        self.names: dict[str, object] = dict(_CODECS)
        #: Whether ``fv`` holds flags not yet stored in ``state.flags``.
        self.pending_flags = False

    def line(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)
        self.line_pcs.append(self.pc)
        self.line_faults.append(self.fault)

    def const(self, name: str, value: object) -> str:
        self.names[name] = value
        return name

    # ---- memory ----------------------------------------------------------

    def access(self, mem: Mem, size: int, fast: str, slow: str) -> None:
        """Statement *fast* if the access is plain RAM, else *slow*.

        The slow path goes through :class:`~repro.cpu.memory.Memory`, which
        may reach an MMIO device, so an attached SPU's locals are re-read.
        """
        self.line(f"a = {_address(mem)}")
        self.line(f"if 0 <= a <= l{size}: {fast}")
        self.line(f"else: {slow}; {_VIEW}" if self.spu else f"else: {slow}")

    def load(self, target: str, mem: Mem, size: int, fast: str,
             slow: str = "memory.load") -> None:
        """``target = <size-byte load>``."""
        if self.spu:
            self.access(mem, size, f"{target} = {fast}", f"{target} = {slow}(a, {size})")
        else:
            self.line(f"a = {_address(mem)}")
            self.line(f"{target} = {fast} if 0 <= a <= l{size} else {slow}(a, {size})")

    def store(self, mem: Mem, size: int, value: str) -> None:
        """Store the low *size* bytes of *value* (an int expression)."""
        if size == 1:
            fast = f"data[a] = {value} & 255"
        else:
            fast = f"P{size}(data, a, {value} & {(1 << (8 * size)) - 1})"
        self.access(mem, size, fast, f"memory.store(a, {size}, {value})")

    def source(self, operand: object, size: int = 8) -> str:
        """Expression for a source operand (memory is loaded into ``v``)."""
        if isinstance(operand, Register):
            return f"{'m' if operand.is_mmx else 's'}[{operand.index}]"
        if isinstance(operand, Imm):
            return f"({operand.value})"
        self.load("v", operand, size, f"U{size}(data, a)[0]")
        return "v"

    # ---- flags -----------------------------------------------------------

    def set_flags(self, expr: str) -> None:
        """``fv = expr`` for a flag-setting op (*expr* masked to 32 bits)."""
        self.line(f"fv = {expr}")
        self.pending_flags = True

    def store_flags(self) -> None:
        if self.pending_flags:
            self.line("fl.zero = fv == 0")
            self.line("fl.sign = fv > 2147483647")

    # ---- instructions ----------------------------------------------------

    def issue(self, uop: DecodedOp, pc: int, memory_latency: int,
              follower: bool = False) -> None:
        """One issue: SPU step, architectural effect, scoreboard write.

        A recorded block appends the issue's stamp after its effect, as
        the uop loop records an issue only once it has executed.  The
        routed bit is the step's flag for an op with routable slots.
        """
        self.pc = pc
        routed = None
        if self.spu:
            routed = self.spu_issue(uop, pc)
        else:
            self.semantics(uop, pc)
        if self.recorded:
            flags = issue_flags(follower, False, uop.is_mmx)
            routed = f" + {ROUTED} * {routed}" if routed else ""
            self.line(f"QA(cyc * {1 << FLAG_BITS} + {flags}{routed})")
        latency = _latency(uop, memory_latency)
        keys = uop.written_keys
        if len(keys) == 1:
            self.line(f"rr[{keys[0]}] = cyc + {latency}")
        elif keys:
            self.line(f"t = cyc + {latency}")
            for key in keys:
                self.line(f"rr[{key}] = t")

    def spu_issue(self, uop: DecodedOp, pc: int) -> str | None:
        """Controller step and architectural effect of an issue with an SPU.

        While the SPU is active, the step is taken inline from the current
        state's schedule entry ``e`` (see ``compile_steps``); a state that
        routes anything hands the routable slots to ``gather``.  Without an
        entry the step is ``slow`` (``routes_for``), which re-reads the
        controller locals.  Routable slots the op reads are loaded into
        ``x<slot>`` first, as ``routes_for`` reads the straight value, and
        the semantics read them.  An op without inline semantics runs its
        decoded op with them when the issue is routed (``rd``).  Returns
        the local holding the routed flag, or None for an op no route feeds.
        """
        slots = _routable(uop)
        reads = _inline_reads(uop) if slots else ()
        generic = reads is None
        loaded = [slot for slot in slots if generic or slot in reads]
        for slot in loaded:
            self.line(f"x{slot} = m[{slots[slot]}]")
        # Slot values for the helpers: None where no route can feed the
        # slot, 0 where one can but the op ignores the value.
        args = ", ".join(f"x{slot}" if slot in loaded else "0" if slot in slots else "None"
                         for slot in (0, 1))
        targets = ", ".join(f"x{slot}" if slot in loaded else "_" for slot in (0, 1))
        flag = "rd" if generic else "n"
        if generic:
            self.line("rd = 0")
        elif slots and self.recorded:
            self.line("n = 0")
        self.line("if act:")
        self.depth += 1
        if self.recorded:
            self.line("q = cb[cx]")
            self.line("e = T.get(q)")
        else:
            self.line("e = T.get(cb[cx])")
        self.line("if e is None:")
        instr = self.const(f"i{pc}", uop.instr)
        self.line(f"    {targets}, {flag}, {_VIEW_NAMES} = slow({instr}, {pc}, state, {args})")
        if slots:
            self.line(f"    rt += {flag}")
        self.line("else:")
        for text in ("sp += 1", "c = e[0]", "k = cn[c] - 1",
                     "if k > 0: cn[c] = k; k = e[3]", "else: cn[c] = e[1]; k = e[2]",
                     "if k == ID: act = idle()", "else: cb[cx] = k", "if e[6]:"):
            self.line(f"    {text}")
        self.line(f"        {targets}, {flag} = gather(e, m, {args})")
        if slots:
            self.line(f"        rt += {flag}")
        if self.recorded:
            # The step's row: the route bits of the slots this op can route.
            self.line(f"    SX((cx, q, k, cn[0], cn[1], e[6] & {route_bits(True, slots)}))")
        self.depth -= 1
        if generic:
            routed = ", ".join(f"{slot}: x{slot}" for slot in slots)
            self.line("if rd:")
            self.line(f"    {self.const(f'R{pc}', uop.run)}(state, memory, {{{routed}}})")
            self.line("else:")
            self.depth += 1
            self.semantics(uop, pc)
            self.depth -= 1
        else:
            self.semantics(uop, pc, {slot: f"x{slot}" for slot in loaded})
        return flag if slots else None

    def semantics(self, uop: DecodedOp, pc: int, x: dict[int, str] | None = None) -> None:
        """Inline architectural effect of *uop*.

        *x* names the locals that hold routable MMX source slots (see
        :meth:`spu_issue` and :func:`_inline_reads`).
        """
        instr = uop.instr
        sem = instr.opcode.sem
        ops = instr.operands
        dest = ops[0] if ops else None
        mask = SCALAR_MASK
        x = x or {}
        if uop.is_branch or sem == "halt":
            self.control(uop, pc)
        elif sem in _PACKED_BINARY or sem in _SHIFTS or sem in _PACKED_BINARY_NOWIDTH \
                or sem in _MINMAX:
            # The argument shapes of executor._packed2_w/_packed2/_packed2_minmax.
            args = f"{x.get(0) or f'm[{dest.index}]'}, {x.get(1) or self.source(ops[1])}"
            if sem in _MINMAX:
                args += f", {instr.opcode.width}, signed={_MINMAX[sem][1]}"
            elif sem not in _PACKED_BINARY_NOWIDTH:
                args += f", {instr.opcode.width}"
            self.packed(uop, pc, dest, args)
        elif sem == "pshufw" and isinstance(ops[2], Imm):
            order = ops[2].value & 0xFF
            selector = self.const(f"SEL{pc}", [(order >> (2 * i)) & 3 for i in range(4)])
            self.packed(uop, pc, dest, f"{x.get(1) or self.source(ops[1])}, {selector}, 16")
        elif sem == "movq":
            value = x.get(1) or self.source(ops[1])
            if isinstance(dest, Mem):
                self.store(dest, 8, value)
            elif isinstance(ops[1], Mem):
                self.line(f"m[{dest.index}] = {value}")
            else:
                self.line(f"m[{dest.index}] = {value} & {WORD_MASK}")
        elif sem == "movd":
            value = x.get(1) or self.source(ops[1], size=4)
            if isinstance(dest, Mem):
                self.store(dest, 4, f"({value} & 4294967295)")
            else:
                file = "m" if dest.is_mmx else "s"
                self.line(f"{file}[{dest.index}] = {value} & 4294967295")
        elif sem == "mov" and isinstance(ops[1], (Register, Imm)):
            if isinstance(ops[1], Imm):
                self.line(f"s[{dest.index}] = {ops[1].value & mask}")
            else:
                self.line(f"s[{dest.index}] = s[{ops[1].index}] & {mask}")
        elif sem in _SCALAR_OPS and isinstance(ops[1], (Register, Imm)):
            value = self.source(ops[1])
            self.set_flags(f"(s[{dest.index}] {_SCALAR_OPS[sem]} {value}) & {mask}")
            self.line(f"s[{dest.index}] = fv")
        elif sem in ("shl", "shr", "sar") and isinstance(ops[1], Imm):
            count = ops[1].value & 31
            reg = f"s[{dest.index}]"
            if sem == "shl":
                self.set_flags(f"({reg} << {count}) & {mask}")
                self.line(f"{reg} = fv")
            elif sem == "shr":
                self.line(f"t = {reg} >> {count}")
                self.line(f"{reg} = t")
                self.set_flags(f"t & {mask}")
            else:
                self.line(f"t = {reg}")
                self.set_flags(f"((t - 4294967296 if t >> 31 else t) >> {count}) & {mask}")
                self.line(f"{reg} = fv")
        elif sem == "cmp" and isinstance(ops[1], (Register, Imm)):
            if isinstance(ops[1], Imm):
                other = f"{ops[1].value & mask}"
            else:
                other = f"(s[{ops[1].index}] & {mask})"
            self.set_flags(f"({self.source(dest)} - {other}) & {mask}")
        elif sem in ("inc", "dec", "neg"):
            reg = f"s[{dest.index}]"
            expr = {"inc": f"({reg} + 1)", "dec": f"({reg} - 1)", "neg": f"-{reg}"}[sem]
            self.set_flags(f"{expr} & {mask}")
            self.line(f"{reg} = fv")
        elif sem == "lea":
            self.line(f"s[{dest.index}] = {_address(ops[1])}")
        elif sem in _LOAD_SIZES:
            size, signed = _LOAD_SIZES[sem]
            if signed:  # only ldhs
                self.load("t", ops[1], size, f"S{size}(data, a)[0]", slow="memory.load_signed")
                self.line(f"s[{dest.index}] = t & {mask}")
            else:
                fast = "data[a]" if size == 1 else f"U{size}(data, a)[0]"
                self.load(f"s[{dest.index}]", ops[1], size, fast)
        elif sem in _STORE_SIZES:
            self.store(dest, _STORE_SIZES[sem], self.source(ops[1]))
        elif sem in ("nop", "emms"):
            pass
        else:
            # Anything else runs through its decoded op; it may read or set
            # the flags itself, so they are stored first and dropped after.
            self.store_flags()
            if self.pending_flags:
                self.line("fv = -1")
                self.pending_flags = False
            self.line(f"{self.const(f'R{pc}', uop.run)}(state, memory, None)")

    def packed(self, uop: DecodedOp, pc: int, dest: Register, args: str) -> None:
        """``mm[dest] = handler(args)``, masked as the decoded op's writer does."""
        call = f"{self.const(f'F{pc}', uop.fn)}({args})"
        if uop.fn not in _SWAR_HANDLERS:
            # The SWAR handlers return Python ints; the NumPy reference may
            # not, and the decoded op's writer applies int() first.
            call = f"int({call})"
        self.line(f"m[{dest.index}] = {call} & {WORD_MASK}")

    def control(self, uop: DecodedOp, pc: int) -> None:
        """Effect of a control op: ``tk`` (branch taken) or the halt flag."""
        instr = uop.instr
        sem = instr.opcode.sem
        if sem == "halt":
            self.line("state.halted = True")
        elif sem == "loop":
            reg = f"s[{instr.operands[0].index}]"
            self.set_flags(f"({reg} - 1) & {SCALAR_MASK}")
            self.line(f"{reg} = fv")
            self.line("tk = fv != 0")
        elif sem in _COND_FV:
            self.line(f"tk = {_COND_FV[sem] if self.pending_flags else _COND_FLAGS[sem]}")


class _Counts:
    """Static issue counts along one path through a block."""

    def __init__(self) -> None:
        self.pcs: list[int] = []
        self.pair = 0
        self.solo = 0
        self.busy = 0
        self.reasons: list[str] = []

    def copy(self) -> "_Counts":
        other = _Counts()
        other.pcs = list(self.pcs)
        other.pair, other.solo, other.busy = self.pair, self.solo, self.busy
        other.reasons = list(self.reasons)
        return other

    def group(self, paired: bool, mmx: bool, reason: str = "") -> None:
        if paired:
            self.pair += 1
        else:
            self.solo += 1
        if mmx:
            self.busy += 1
        if reason:
            self.reasons.append(reason)


def _record(uops: list[DecodedOp], head: int, reg_ready: list[int], cycle: int,
            dual_issue: bool, memory_latency: int
            ) -> tuple[list[tuple[int, bool | None]], int | None]:
    """Replay the block's timing from the run's scoreboard; the groups.

    Returns ``(u_pc, paired)`` per issue group -- ``paired`` is ``None``
    when no follower could pair statically (or the U op ends the block),
    else whether the follower's operands were ready -- and the next group
    head if the block stops at :data:`MAX_BLOCK` instructions instead of at
    its control op.  Timing depends only on the scoreboard, never on data,
    so this is the grouping the uop loop would choose from this entry.
    """
    ready = list(reg_ready)
    groups: list[tuple[int, bool | None]] = []
    pc = head
    while pc - head < MAX_BLOCK:
        uop = uops[pc - head]
        stall = max([ready[k] for k in uop.read_keys], default=0)
        if stall > cycle:
            cycle = stall
        _write_ready(ready, uop, cycle, memory_latency)
        if _ends(uop):
            groups.append((pc, None))
            return groups, None
        follower = uops[pc + 1 - head]
        if not dual_issue or not can_pair(uop.instr, follower.instr)[0]:
            groups.append((pc, None))
            pc += 1
        else:
            paired = max([ready[k] for k in follower.read_keys], default=0) <= cycle
            groups.append((pc, paired))
            if paired:
                _write_ready(ready, follower, cycle, memory_latency)
                if _ends(follower):
                    return groups, None
                pc += 2
            else:
                pc += 1
        cycle += 1
    return groups, pc


def _ends(uop: DecodedOp) -> bool:
    """A control op: the last instruction of a block."""
    return uop.is_branch or uop.instr.opcode.sem == "halt"


def _latency(uop: DecodedOp, memory_latency: int) -> int:
    """Cycles until *uop*'s results are ready, as the uop loop charges."""
    if uop.reads_memory and uop.latency < memory_latency:
        return memory_latency
    return uop.latency


def _write_ready(ready: list[int], uop: DecodedOp, cycle: int, memory_latency: int) -> None:
    latency = _latency(uop, memory_latency)
    for key in uop.written_keys:
        ready[key] = cycle + latency


def _routable(uop: DecodedOp) -> dict[int, int]:
    """Operand slot -> MMX register index, for the slots a route can feed.

    As ``routes_for``: only an MMX instruction's slots 0 and 1, and only
    where the operand is an MMX register.
    """
    if not uop.is_mmx:
        return {}
    operands = uop.instr.operands
    return {slot: operands[slot].index for slot in range(min(2, len(operands)))
            if isinstance(operands[slot], Register) and operands[slot].is_mmx}


def _inline_reads(uop: DecodedOp) -> tuple[int, ...] | None:
    """The operand slots :meth:`_Emitter.semantics` reads for an MMX op.

    ``None`` for an op without inline semantics, which runs its decoded op.
    """
    instr = uop.instr
    sem = instr.opcode.sem
    if sem in _PACKED_BINARY or sem in _SHIFTS or sem in _PACKED_BINARY_NOWIDTH \
            or sem in _MINMAX:
        return (0, 1)
    if sem in ("movq", "movd") or (sem == "pshufw" and isinstance(instr.operands[2], Imm)):
        return (1,)
    return None


def translate(heads: dict[int, Head], program: Program, pc: int,
              reg_ready: list[int], cycle: int, spu: bool, dual_issue: bool,
              memory_latency: int, recorded: bool = False):
    """Translate the block at leader *pc*; its function, or None.

    *reg_ready* and *cycle* are the running machine's scoreboard and clock
    at this entry; they fix the recorded grouping (see :func:`_record`).
    Instructions are decoded through the program's micro-op cache exactly
    as the uop loop decodes them on first sight.  A block with no control
    op before the end of the program is never translated: its head is
    dropped.  A block cut at :data:`MAX_BLOCK` instructions continues at a
    new head, translated on its first entry.  A *recorded* block also
    appends its issues, stalls and exit pcs to the run's recorder.
    """
    head = heads[pc]
    instructions = program.instructions
    uops_table = uop_table(program)
    uops: list[DecodedOp] = []
    at = pc
    while len(uops) <= MAX_BLOCK:
        if at >= len(instructions):
            del heads[pc]
            return None
        instr = instructions[at]
        uop = uops_table.get(at)
        if uop is None or uop.instr is not instr:
            uop = cold_decode(uops_table, program, at, instr, uop)
        uops.append(uop)
        if _ends(uop):
            break
        at += 1

    groups, resume = _record(uops, pc, reg_ready, cycle, dual_issue, memory_latency)
    em = _Emitter(spu, pc, recorded)
    exits: list[Exit] = []
    faults: list[Exit] = []

    def leave(counts: _Counts, last_pc: int, next_pc: int) -> None:
        if recorded:
            em.line(f"PX({em.const(f'EP{len(exits)}', array('q', counts.pcs))})")
        em.line(f"state.pc = {last_pc}")
        em.store_flags()
        em.line("if st:")
        em.line("    stats.stall_cycles += st")
        if spu:
            em.line("if rt:")
            em.line("    stats.spu_routed += rt")
            em.line("if sp:")
            em.line("    put(sp)")
        em.line(f"return cyc, {len(exits)}")
        exits.append(Exit(tuple(counts.pcs), counts.pair, counts.solo, counts.busy,
                          tuple(counts.reasons), next_pc))

    def issue(at: int, counts: _Counts, follower: bool = False) -> None:
        # The fault exit: the issues before this one on its path, plus the
        # solo cycle (MMX-busy if a V issue's U op is MMX) the uop loop
        # charges a dropped issue.
        busy = follower and uops[at - 1 - pc].is_mmx
        em.fault = len(faults)
        faults.append(Exit(tuple(counts.pcs), counts.pair, counts.solo + 1,
                           counts.busy + busy, tuple(counts.reasons), at + 1))
        em.issue(uops[at - pc], at, memory_latency, follower)
        em.fault = _NO_FAULT
        counts.pcs.append(at)

    def finish(at: int, counts: _Counts, partner: DecodedOp | None) -> None:
        """The block's control op at *at* ends the group (paired or not)."""
        uop = uops[at - pc]
        counts.group(partner is not None, uop.is_mmx or (partner is not None and partner.is_mmx))
        if not uop.is_branch:  # halt
            em.line("cyc += 1")
            leave(counts, at, at)
            return
        instr = uop.instr
        target = program.target(instr.operands[-1].name)
        taken = em.const(f"OT{at}", ExecOutcome(next_pc=target, is_branch=True,
                                                taken=True, target=target))
        em.const(f"i{at}", instr)
        if instr.opcode.sem == "jmp":
            em.line(f"cyc += 1 + bc(i{at}, {at}, {taken}, stats)")
            leave(counts, at, target)
            return
        fall = em.const(f"OF{at}", ExecOutcome(next_pc=at + 1, is_branch=True,
                                               taken=False, target=target))
        em.line("if tk:")
        em.depth += 1
        em.line(f"cyc += 1 + bc(i{at}, {at}, {taken}, stats)")
        leave(counts, at, target)
        em.depth -= 1
        em.line(f"cyc += 1 + bc(i{at}, {at}, {fall}, stats)")
        leave(counts, at, at + 1)

    # Every issue group takes at least one cycle, so a register written in
    # group w with latency L is ready by group w + L: no scoreboard test is
    # emitted for it there.  key -> (group, latency) of its last write.
    written: dict[int, tuple[int, int]] = {}

    def unsure(keys: tuple[int, ...], group: int) -> list[int]:
        return [key for key in keys
                if key not in written or sum(written[key]) > group]

    def wrote(uop: DecodedOp, group: int) -> None:
        for key in uop.written_keys:
            written[key] = (group, _latency(uop, memory_latency))

    counts = _Counts()
    last = pc  # highest pc the block's code depends on
    for group, (u_pc, paired) in enumerate(groups):
        u = uops[u_pc - pc]
        keys = unsure(u.read_keys, group)
        wrote(u, group)
        if keys:
            em.line(f"r = rr[{keys[0]}]")
            for key in keys[1:]:
                em.line(f"t = rr[{key}]")
                em.line("if t > r:")
                em.line("    r = t")
            em.line("if r > cyc:")
            em.line("    st += r - cyc")
            if recorded:
                em.line(f"    RS({u_pc}, cyc, r - cyc)")
            em.line("    cyc = r")
        issue(u_pc, counts)
        if _ends(u):
            last = u_pc
            finish(u_pc, counts, None)
            break
        f_pc = u_pc + 1
        f = uops[f_pc - pc]
        last = f_pc  # the pairing verdict depends on the follower
        if paired is None:
            reason = can_pair(u.instr, f.instr)[1] if dual_issue else ""
            em.line("cyc += 1")
            counts.group(False, u.is_mmx, reason)
            continue
        not_ready = " or ".join(f"rr[{key}] > cyc" for key in unsure(f.read_keys, group))
        if paired:
            wrote(f, group)
            if not_ready:  # guard: the follower may not be ready this time
                em.line(f"if {not_ready}:")
                em.depth += 1
                em.line("cyc += 1")
                alt = counts.copy()
                alt.group(False, u.is_mmx, "operands not ready")
                leave(alt, u_pc, f_pc)
                em.depth -= 1
            issue(f_pc, counts, True)
            if _ends(f):
                finish(f_pc, counts, u)
                break
            em.line("cyc += 1")
            counts.group(True, u.is_mmx or f.is_mmx)
        else:
            # guard: the follower may be ready this time, and then pairs
            em.line(f"if not ({not_ready}):")
            em.depth += 1
            flags_pending = em.pending_flags
            alt = counts.copy()
            issue(f_pc, alt, True)
            if _ends(f):
                finish(f_pc, alt, u)
            else:
                em.line("cyc += 1")
                alt.group(True, u.is_mmx or f.is_mmx)
                leave(alt, f_pc, f_pc + 1)
            em.pending_flags = flags_pending
            em.depth -= 1
            em.line("cyc += 1")
            counts.group(False, u.is_mmx, "operands not ready")
    if resume is not None:
        leave(counts, counts.pcs[-1], resume)
        follow = heads.setdefault(resume, Head())
        follow.count = max(follow.count, HOT_ENTRIES - 1)

    checks = " or ".join(
        f"I[{at}] is not {em.const(f'i{at}', uops[at - pc].instr)}"
        for at in range(pc, last + 1)
    )
    prologue = [
        "def block(env, cyc):",
        f"    {_ENV}, {_REC_ENV} = env" if recorded else f"    {_ENV} = env",
        f"    if size <= {last} or {checks}:",
        "        return cyc, -1",
    ]
    if recorded:
        # An entry is an issue-group head: the columns may be flushed here.
        prologue += ["    if len(QS) >= CH:", "        FL()"]
    prologue += ["    st = 0", "    fv = -1"]
    if spu:
        prologue += ["    rt = sp = 0", f"    {_VIEW}"]
    prologue.append("    try:")
    # On an exception the uop loop leaves state.pc at the faulting issue:
    # the handler maps the line that raised back to its instruction and
    # hands Machine.run the cycle and that issue's fault exit (exits index
    # len(exits) + x), whose issues it records and whose stalls and routed
    # issues it counts.
    epilogue = [
        "    except BaseException as error:",
        "        n = error.__traceback__.tb_lineno",
        f"        state.pc = {pc} + LINE_OFFSETS[n]",
        "        if fv >= 0:",
        "            fl.zero = fv == 0",
        "            fl.sign = fv > 2147483647",
    ]
    if spu:
        epilogue += ["        if sp:", "            put(sp)"]
    epilogue += [
        "        x = FAULTS[n]",
        f"        if x != {_NO_FAULT}:",
        f"            FX.append((cyc, {len(exits)} + x))",
        "            stats.stall_cycles += st",
    ]
    if spu:
        epilogue.append("            stats.spu_routed += rt")
    if recorded:
        em.const("FP", tuple(array("q", fault.pcs) for fault in faults))
        epilogue.append("            PX(FP[x])")
    epilogue.append("        raise")
    offset = bytes(len(prologue) + 1)
    em.const("LINE_OFFSETS", offset + bytes(at - pc for at in em.line_pcs))
    em.const("FAULTS", offset + bytes(em.line_faults))
    source = "\n".join(prologue + em.lines + epilogue) + "\n"
    namespace = em.names
    exec(compile(source, f"<block {program.name}@{pc}>", "exec"), namespace)
    head.fn = namespace["block"]
    head.span = (len(counts.pcs) + 1) * (1 + max(_MAX_LATENCY, memory_latency))
    head.issues = max(len(exit.pcs) for exit in exits)
    head.exits = exits + faults
    return head.fn
