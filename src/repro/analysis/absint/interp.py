"""The byte-granular abstract interpreter over decoded loop bodies.

Two passes per candidate loop region:

1. **Prefix walk** — concrete constant propagation from program entry to the
   loop label, mirroring the executor's 32-bit scalar semantics.  Crossing
   an earlier loop region kills everything that region writes (its final
   values iterated away), except a closing ``loop`` counter, which provably
   exhausts to zero.  The walk also tracks which MMX registers are zeroed
   (a zero idiom such as ``pxor r, r``) and still zero at the label.

2. **Body walk** — one symbolic pass over the body with every scalar
   register an :class:`~repro.analysis.absint.domain.Affine` value over its
   *loop-entry symbol*, and every MMX register a byte-interval word (the
   interval client of :class:`~repro.core.mmxbytes.ByteWalk`).  The
   exit state classifies loop-carried dependences, every memory operand
   yields a ``first + k * stride`` closed form, and every packed op gets a
   SWAR status from the width/mask algebra.

The result is a list of ``fx-*`` findings and — when nothing blocks — a
:class:`~repro.analysis.absint.certificate.FusionCertificate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.analysis.absint.certificate import FusionCertificate
from repro.analysis.absint.domain import (
    Affine,
    ByteWord,
    Scalar,
    TOP_WORD,
    ZERO_WORD,
    lane_view,
    swar_status,
    word_bound,
    word_from_lanes,
)
from repro.analysis.findings import Finding, FindingCollector, sort_findings
from repro.analysis.loops import LoopRegion, find_loop_regions
from repro.core.mmio import DEFAULT_MMIO_BASE, MMIO_WINDOW_BYTES
from repro.core.mmxbytes import (
    ByteFacts,
    ByteWalk,
    byte_facts,
    byte_sources,
    is_zero_idiom,
    relocate,
)
from repro.core.replay import ISSUE_RULES, CertIssue, check_fusion_certificate
from repro.isa.instructions import Instruction, Program
from repro.isa.opcodes import InstrClass
from repro.isa.operands import Imm, Label, Mem
from repro.isa.registers import MM, Register
from repro.simd.swar import MASKS

SCALAR_MASK = 0xFFFFFFFF

#: ``fx-*`` rules that withhold a certificate; the rest are recorded facts.
#: The ``fx-cert-*`` replay rules are here too: a certificate that fails its
#: own issuance-time replay self-check is dropped, not shipped.
BLOCKING_RULES = frozenset({
    "fx-internal-branch", "fx-side-exit", "fx-nested-region",
    "fx-trip-count", "fx-induction-step", "fx-mem-footprint",
    "fx-mmio-store", "fx-carried-blocking", "fx-swar-width",
    "fx-swar-shift", "fx-cert-schema", "fx-cert-stale", "fx-cert-mismatch",
})

#: Packed semantics that keep a read-modify-write destination a *reduction*
#: (accumulate/fold) rather than an opaque carried value.
REDUCTION_SEMS = frozenset({
    "padd", "psub", "padds", "psubs", "paddus", "psubus",
    "pmins", "pmaxs", "pminu", "pmaxu", "pavg",
    "pand", "por", "pxor",
})


# ---- pass 1: concrete prefix walk ---------------------------------------------


def _concrete_mem(mem: Mem, scalars: dict[str, int]) -> int | None:
    base = scalars.get(mem.base.name)
    if base is None:
        return None
    address = base + mem.disp
    if mem.index is not None:
        index = scalars.get(mem.index.name)
        if index is None:
            return None
        address += index * mem.scale
    return address & SCALAR_MASK


def _concrete_step(
    instr: Instruction, scalars: dict[str, int], zeroed: set[str]
) -> None:
    """One instruction of the prefix under concrete constant propagation."""
    sem = instr.opcode.sem
    dest = instr.dest
    if dest is not None and dest.is_mmx:
        if is_zero_idiom(instr):
            zeroed.add(dest.name)
        else:
            zeroed.discard(dest.name)
        return
    if dest is None:
        return
    name = dest.name

    def src_value() -> int | None:
        src = instr.operands[1]
        if isinstance(src, Imm):
            return src.value & SCALAR_MASK
        if isinstance(src, Register) and not src.is_mmx:
            return scalars.get(src.name)
        return None

    if sem == "mov":
        value = src_value()
    elif sem in ("add", "sub", "and", "or", "xor", "imul"):
        left, right = scalars.get(name), src_value()
        if left is None or right is None:
            value = None
        elif sem == "add":
            value = left + right
        elif sem == "sub":
            value = left - right
        elif sem == "and":
            value = left & right
        elif sem == "or":
            value = left | right
        elif sem == "xor":
            value = left ^ right
        else:
            value = left * right
    elif sem in ("shl", "shr", "sar"):
        left = scalars.get(name)
        count = instr.operands[1]
        if left is None or not isinstance(count, Imm):
            value = None
        elif sem == "shl":
            value = left << (count.value & 31)
        elif sem == "shr":
            value = left >> (count.value & 31)
        else:
            signed = left - (1 << 32) if left >> 31 else left
            value = signed >> (count.value & 31)
    elif sem == "inc":
        left = scalars.get(name)
        value = None if left is None else left + 1
    elif sem == "dec" or sem == "loop":
        left = scalars.get(name)
        value = None if left is None else left - 1
    elif sem == "neg":
        left = scalars.get(name)
        value = None if left is None else -left
    elif sem == "lea":
        mem = instr.mem_operand
        value = _concrete_mem(mem, scalars) if mem is not None else None
    else:  # loads, movd from MMX, anything else: unknown
        value = None
    if value is None:
        scalars.pop(name, None)
    else:
        scalars[name] = value & SCALAR_MASK


def loop_entry_state(
    program: Program, stop: int, regions: list[LoopRegion]
) -> tuple[dict[str, int], set[str]]:
    """Concrete scalar constants and known-zero MMX registers at index *stop*.

    Linear walk; passing an earlier region's back edge invalidates every
    register that region writes (it iterated an unknown number of times from
    this walk's point of view), then pins a closing ``loop`` counter to its
    exhaustion value of zero.
    """
    scalars: dict[str, int] = {}
    zeroed: set[str] = set()
    ends: dict[int, list[LoopRegion]] = {}
    for region in regions:
        if region.end < stop:
            ends.setdefault(region.end, []).append(region)
    for index in range(stop):
        instr = program.instructions[index]
        if instr.is_branch and index not in ends:
            # A prefix branch that is not a known region back edge makes the
            # linear walk unsound — drop everything rather than guess.
            scalars.clear()
            zeroed.clear()
            continue
        _concrete_step(instr, scalars, zeroed)
        for region in ends.get(index, ()):
            for i in range(region.start, region.end + 1):
                for reg in program.instructions[i].regs_written():
                    if not isinstance(reg, Register):
                        continue
                    if reg.is_mmx:
                        zeroed.discard(reg.name)
                    else:
                        scalars.pop(reg.name, None)
            closing = program.instructions[region.end]
            if closing.opcode.sem == "loop":
                counter = closing.operands[0]
                if isinstance(counter, Register):
                    scalars[counter.name] = 0
    return scalars, zeroed


# ---- pass 2a: affine scalar body walk ------------------------------------------


@dataclass
class MemAccess:
    """One body memory operand with its (attempted) affine address."""

    position: int
    access: str  # "load" | "store"
    size: int
    address: Affine | None
    mem: Mem
    #: Filled in by footprint resolution.
    first: int | None = None
    stride: int | None = None


class _ScalarWalk:
    """Affine abstract state over one loop-body pass."""

    def __init__(self) -> None:
        self.env: dict[str, Scalar] = {}
        self.written: set[str] = set()
        self.live_in: set[str] = set()

    def value(self, name: str) -> Scalar:
        if name not in self.env:
            if name not in self.written:
                self.live_in.add(name)
            self.env[name] = Affine.symbol(name)
        return self.env[name]

    def read_reg(self, reg: Register) -> Scalar:
        if reg.name not in self.written and reg.name not in self.env:
            self.live_in.add(reg.name)
        return self.value(reg.name)

    def operand(self, operand: object) -> Scalar:
        if isinstance(operand, Imm):
            return Affine.constant(operand.value)
        if isinstance(operand, Register) and not operand.is_mmx:
            return self.read_reg(operand)
        return None

    def address(self, mem: Mem) -> Scalar:
        base = self.read_reg(mem.base)
        if base is None:
            return None
        addr = base.offset(mem.disp)
        if mem.index is not None:
            index = self.read_reg(mem.index)
            if index is None:
                return None
            addr = addr.add(index.scale(mem.scale))
        return addr

    def write(self, name: str, value: Scalar) -> None:
        self.written.add(name)
        self.env[name] = value

    def step(self, instr: Instruction) -> None:
        sem = instr.opcode.sem
        dest = instr.dest
        if dest is None or dest.is_mmx:
            # Stores, compares, movd-to-MMX: no scalar destination, but the
            # scalar sources are still live-in (mirrors regs_read, which the
            # replay checker recomputes footprints from).
            for operand in instr.operands:
                if isinstance(operand, Register) and not operand.is_mmx:
                    self.read_reg(operand)
            return
        name = dest.name
        if sem == "mov":
            self.write(name, self.operand(instr.operands[1]))
        elif sem in ("add", "sub"):
            left, right = self.read_reg(dest), self.operand(instr.operands[1])
            if left is None or right is None:
                self.write(name, None)
            else:
                self.write(name, left.add(right) if sem == "add" else left.sub(right))
        elif sem == "inc" or sem == "dec":
            left = self.read_reg(dest)
            self.write(
                name, None if left is None else left.offset(1 if sem == "inc" else -1)
            )
        elif sem == "neg":
            left = self.read_reg(dest)
            self.write(name, None if left is None else left.negate())
        elif sem == "shl":
            left = self.read_reg(dest)
            count = instr.operands[1]
            if left is None or not isinstance(count, Imm):
                self.write(name, None)
            else:
                self.write(name, left.scale(1 << (count.value & 31)))
        elif sem == "imul":
            left, right = self.read_reg(dest), self.operand(instr.operands[1])
            if right is not None and right.is_constant and left is not None:
                self.write(name, left.scale(right.const))
            elif left is not None and left.is_constant and right is not None:
                self.write(name, right.scale(left.const))
            else:
                self.write(name, None)
        elif sem == "lea":
            mem = instr.mem_operand
            self.write(name, self.address(mem) if mem is not None else None)
        elif sem in ("and", "or", "xor", "shr", "sar"):
            left, right = self.read_reg(dest), self.operand(instr.operands[1])
            if (
                left is not None and left.is_constant
                and right is not None and right.is_constant
            ):
                a, b = left.const & SCALAR_MASK, right.const & SCALAR_MASK
                if sem == "and":
                    out = a & b
                elif sem == "or":
                    out = a | b
                elif sem == "xor":
                    out = a ^ b
                elif sem == "shr":
                    out = a >> (b & 31)
                else:
                    signed = a - (1 << 32) if a >> 31 else a
                    out = signed >> (b & 31)
                self.write(name, Affine.constant(out & SCALAR_MASK))
            else:
                self.write(name, None)
        elif sem == "loop":
            left = self.read_reg(dest)
            self.write(name, None if left is None else left.offset(-1))
        else:  # loads, movd from MMX: value unknown
            self.write(name, None)


# ---- pass 2b: byte-interval MMX body walk --------------------------------------


def _or_hi(h1: int, h2: int) -> int:
    bits = max(h1.bit_length(), h2.bit_length())
    return (1 << bits) - 1


class _Intervals(ByteWalk):
    """Byte intervals: the certifier's client of the MMX byte walk."""

    zero = (0, 0)

    def __init__(self, entry_zero: set[int]) -> None:
        super().__init__([
            list(ZERO_WORD if reg in entry_zero else TOP_WORD) for reg in range(8)
        ])

    def word(self, operand: object) -> ByteWord:
        if isinstance(operand, Register) and operand.is_mmx:
            return tuple(self.regs[operand.index])
        return TOP_WORD  # memory, a scalar register or an immediate

    def compute(self, instr: Instruction, facts: ByteFacts) -> list:
        ops = instr.operands
        a = self.word(ops[0])
        sources = byte_sources(instr)
        if sources is not None:
            # A relocation from memory or a scalar register: unknown bytes.
            return relocate(sources, a, TOP_WORD, self.zero)
        b = self.word(ops[1]) if len(ops) > 1 and not isinstance(ops[1], Imm) else None
        return list(_transfer(facts.sem, instr.opcode.width, a, b, instr))


def _transfer(
    sem: str,
    width: int | None,
    a: ByteWord,
    b: ByteWord | None,
    instr: Instruction,
) -> ByteWord:
    """Interval arithmetic of a computing packed op."""
    if sem in ("pand", "pandn", "por", "pxor"):
        assert b is not None
        out = []
        for (l1, h1), (l2, h2) in zip(a, b):
            if sem == "pand":
                out.append((0, min(h1, h2)))
            elif sem == "pandn":
                out.append((0, h2))
            elif sem == "por":
                out.append((max(l1, l2), _or_hi(h1, h2)))
            else:
                out.append((0, _or_hi(h1, h2)))
        return tuple(out)
    if width is None:
        return TOP_WORD
    lane_max = (1 << width) - 1
    lanes_a = lane_view(a, width)
    lanes_b = lane_view(b, width) if b is not None else None
    out_lanes: list[tuple[int, int]] = []
    if sem in ("psll", "psrl", "psra"):
        count = instr.operands[1]
        if not isinstance(count, Imm):
            return TOP_WORD
        n = count.value
        for lo, hi in lanes_a:
            if sem == "psrl":
                out_lanes.append((lo >> n, hi >> n))
            elif sem == "psll":
                shifted = hi << n
                out_lanes.append(
                    (lo << n, shifted) if shifted <= lane_max else (0, lane_max)
                )
            else:
                out_lanes.append((0, lane_max))
        return word_from_lanes(out_lanes, width)
    if lanes_b is None:
        return TOP_WORD
    for (l1, h1), (l2, h2) in zip(lanes_a, lanes_b):
        if sem == "padd":
            total = h1 + h2
            out_lanes.append((l1 + l2, total) if total <= lane_max else (0, lane_max))
        elif sem == "psub":
            out_lanes.append((l1 - h2, h1 - l2) if l1 >= h2 else (0, lane_max))
        elif sem == "paddus":
            out_lanes.append((min(l1 + l2, lane_max), min(h1 + h2, lane_max)))
        elif sem == "psubus":
            out_lanes.append((max(l1 - h2, 0), max(h1 - l2, 0)))
        elif sem == "pavg":
            out_lanes.append(((l1 + l2 + 1) >> 1, (h1 + h2 + 1) >> 1))
        elif sem == "pminu":
            out_lanes.append((min(l1, l2), min(h1, h2)))
        elif sem == "pmaxu":
            out_lanes.append((max(l1, l2), max(h1, h2)))
        elif sem == "pmullw":
            product = h1 * h2
            out_lanes.append(
                (l1 * l2, product) if product <= lane_max else (0, lane_max)
            )
        elif sem in ("pmulhuw", "pmuludq"):
            shift = width if sem == "pmulhuw" else 0
            hi_bound = (h1 * h2) >> shift
            out_lanes.append(
                ((l1 * l2) >> shift, min(hi_bound, lane_max))
                if sem == "pmulhuw"
                else (0, lane_max)
            )
        else:  # signed saturation, compares, signed multiplies: top lane
            out_lanes.append((0, lane_max))
    return word_from_lanes(out_lanes, width)


# ---- per-region certification --------------------------------------------------


@dataclass
class RegionCertification:
    """One loop region's findings and (when everything held) its certificate."""

    label: str
    start: int
    end: int
    findings: list[Finding] = field(default_factory=list)
    certificate: FusionCertificate | None = None

    def blocking_rules(self) -> list[str]:
        return sorted({
            finding.rule
            for finding in self.findings
            if finding.rule in BLOCKING_RULES
        })


@dataclass
class ProgramCertification:
    """All loop regions of one program, certified or diagnosed."""

    subject: str
    regions: list[RegionCertification] = field(default_factory=list)

    def findings(self) -> list[Finding]:
        merged: list[Finding] = []
        for region in self.regions:
            merged.extend(region.findings)
        return sort_findings(merged)

    def certificates(self) -> list[FusionCertificate]:
        return [
            region.certificate
            for region in self.regions
            if region.certificate is not None
        ]

    def certified_map(self) -> dict[str, list[str]]:
        """Loop label -> ``[]`` (certified) or the sorted blocking rules."""
        out: dict[str, list[str]] = {}
        for region in self.regions:
            if region.certificate is not None:
                out[region.label] = []
            else:
                out[region.label] = region.blocking_rules()
        return out


def add_replay_findings(
    out: FindingCollector, issues: list[CertIssue], subject: str
) -> None:
    """Add one ``fx-cert-*`` error per fusion replay issue to *out*."""
    for issue in issues:
        out.add(
            ISSUE_RULES[issue.code], "error", f"{subject}: loop {issue.location}",
            issue.message,
            fix_hint="re-run the certifier against the current program",
            loop=issue.location,
        )


def _branch_target(instr: Instruction, program: Program) -> int | None:
    for operand in instr.operands:
        if isinstance(operand, Label):
            return program.target(operand.name)
    return None


def _contains(outer: LoopRegion, inner: LoopRegion) -> bool:
    return outer.start <= inner.start and inner.end <= outer.end


def _derive_trip(
    program: Program,
    region: LoopRegion,
    scalars: dict[str, int],
    out: FindingCollector,
    location: str,
) -> tuple[str | None, str | None, int | None]:
    """``(kind, counter, count)`` from the closing branch, or Nones."""
    closing = program.instructions[region.end]
    sem = closing.opcode.sem
    if sem == "loop":
        counter_reg = closing.operands[0]
        assert isinstance(counter_reg, Register)
        counter = counter_reg.name
        count = scalars.get(counter)
        if count is None or count < 1:
            out.add(
                "fx-trip-count", "warn", location,
                f"closing `loop {counter}` has no positive concrete entry "
                f"value for {counter} at the loop label",
                fix_hint="initialize the counter with a constant reachable "
                "by straight-line constant propagation",
                loop=region.label,
            )
            return "loop", counter, None
        return "loop", counter, count
    if sem == "jnz":
        # Find the flags producer the branch tests: the last flag-writing
        # body instruction must be a plain counter decrement.
        from repro.isa.instructions import FLAGS

        producer = None
        for index in range(region.end - 1, region.start - 1, -1):
            if FLAGS in program.instructions[index].regs_written():
                producer = program.instructions[index]
                break
        if producer is not None:
            psem = producer.opcode.sem
            dest = producer.dest
            decrements = psem == "dec" or (
                psem == "sub"
                and isinstance(producer.operands[1], Imm)
                and producer.operands[1].value == 1
            )
            if decrements and dest is not None:
                counter = dest.name
                count = scalars.get(counter)
                if count is None or count < 1:
                    out.add(
                        "fx-trip-count", "warn", location,
                        f"dec/jnz counter {counter} has no positive concrete "
                        "entry value at the loop label",
                        fix_hint="initialize the counter with a constant "
                        "reachable by straight-line constant propagation",
                        loop=region.label,
                    )
                    return "dec-jnz", counter, None
                return "dec-jnz", counter, count
        out.add(
            "fx-trip-count", "warn", location,
            "closing jnz does not test a plain counter decrement "
            "(dec/sub-1), so the trip count is not derivable",
            fix_hint="close the loop with `loop rC, label` or a dec+jnz pair",
            loop=region.label,
        )
        return None, None, None
    out.add(
        "fx-trip-count", "warn", location,
        f"closing branch `{closing.opcode.name}` is not a counted form "
        "(loop or dec+jnz): the trip count is not derivable",
        fix_hint="close the loop with `loop rC, label` or a dec+jnz pair",
        loop=region.label,
    )
    return None, None, None


def _certify_region(
    program: Program,
    region: LoopRegion,
    regions: list[LoopRegion],
    subject: str,
) -> RegionCertification:
    out = FindingCollector()
    label = region.label
    loc = f"{subject}: loop {label}"

    def iloc(position: int) -> str:
        return f"{subject}: loop {label}, instruction {position}"

    # ---- structure: single innermost straight-line body ----------------------
    for other in regions:
        if other is region:
            continue
        if other.start > region.end or other.end < region.start:
            continue
        inner = _contains(region, other)
        outer = _contains(other, region)
        if inner and not (outer and other.label < label):
            out.add(
                "fx-nested-region", "warn", loc,
                f"region contains inner loop region {other.label!r} "
                f"[{other.start}-{other.end}]: not an innermost body",
                fix_hint="certify the innermost loop; the outer level "
                "cannot fuse per-iteration",
                loop=label,
            )
        elif not inner and not outer:
            out.add(
                "fx-nested-region", "warn", loc,
                f"region partially overlaps region {other.label!r} "
                f"[{other.start}-{other.end}]",
                loop=label,
            )
    for position in range(region.start, region.end):
        instr = program.instructions[position]
        if not instr.is_branch:
            continue
        target = _branch_target(instr, program)
        if target is not None and region.start <= target <= region.end:
            out.add(
                "fx-internal-branch", "warn", iloc(position),
                f"`{instr.opcode.name}` branches within the loop body: "
                "alternate internal paths break the straight-line fused body",
                loop=label,
            )
        else:
            out.add(
                "fx-side-exit", "warn", iloc(position),
                f"`{instr.opcode.name}` exits the loop mid-body: a fused "
                "closure could not take the early exit",
                loop=label,
            )

    # ---- prefix constants and trip count -------------------------------------
    scalars, zeroed = loop_entry_state(program, region.start, regions)
    kind, counter, trip = _derive_trip(program, region, scalars, out, loc)

    # ---- scalar body walk ----------------------------------------------------
    body = [
        (position, program.instructions[position],
         byte_facts(program.instructions[position]))
        for position in range(region.start, region.end)
    ]
    walk = _ScalarWalk()
    accesses: list[MemAccess] = []
    for position, instr, fact in body:
        if fact.access is not None:
            assert fact.mem is not None
            accesses.append(
                MemAccess(
                    position=position,
                    access=fact.access,
                    size=fact.size,
                    address=walk.address(fact.mem),
                    mem=fact.mem,
                )
            )
        walk.step(instr)

    # ---- loop-carried scalar classification ----------------------------------
    inductions: dict[str, int] = {}
    opaque: list[str] = []
    for name in sorted(walk.live_in & walk.written):
        exit_value = walk.env.get(name)
        if (
            isinstance(exit_value, Affine)
            and exit_value.coeffs == ((name, 1),)
        ):
            inductions[name] = exit_value.const
        else:
            opaque.append(name)
    if kind == "loop" and counter is not None:
        if counter in walk.written:
            out.add(
                "fx-trip-count", "warn", loc,
                f"`loop` counter {counter} is also written inside the body: "
                "the closing decrement no longer sizes the loop",
                loop=label,
            )
            trip = None
        else:
            inductions.setdefault(counter, -1)
    elif kind == "dec-jnz" and counter is not None:
        if inductions.get(counter) != -1:
            out.add(
                "fx-trip-count", "warn", loc,
                f"dec/jnz counter {counter} does not step by exactly -1 "
                "per iteration",
                loop=label,
            )
            trip = None

    # ---- memory footprints ---------------------------------------------------
    address_symbols: set[str] = set()
    for access in accesses:
        if access.address is None:
            out.add(
                "fx-induction-step", "warn", iloc(access.position),
                f"{access.access} address through {access.mem.base.name} is "
                "not affine in the loop-entry values (register updated "
                "non-affinely before the access)",
                fix_hint="advance pointers by constant strides only",
                loop=label,
            )
            continue
        address_symbols.update(access.address.symbols())
        stride = 0
        resolvable = True
        for symbol, coeff in access.address.coeffs:
            if symbol in inductions:
                stride += coeff * inductions[symbol]
            elif symbol in walk.written:
                out.add(
                    "fx-induction-step", "warn", iloc(access.position),
                    f"{access.access} address depends on {symbol}, which is "
                    "rewritten non-affinely inside the body: per-iteration "
                    "stride unknown",
                    fix_hint="advance pointers by constant strides only",
                    loop=label,
                )
                resolvable = False
                break
        if not resolvable:
            continue
        first = access.address.evaluate(scalars)
        if first is None:
            missing = sorted(
                symbol
                for symbol in access.address.symbols()
                if symbol not in scalars
            )
            out.add(
                "fx-mem-footprint", "warn", iloc(access.position),
                f"{access.access} address base value of "
                f"{', '.join(missing)} is unknown at the loop label: the "
                "byte footprint cannot be bounded",
                fix_hint="materialize base pointers with constants the "
                "prefix walk can track",
                loop=label,
            )
            continue
        access.first = first & SCALAR_MASK
        access.stride = stride
    for name in opaque:
        if name in address_symbols or name == counter:
            role = "the trip counter" if name == counter else "addressing"
            out.add(
                "fx-carried-blocking", "warn", loc,
                f"loop-carried scalar {name} is not an affine induction "
                f"and feeds {role}",
                loop=label,
            )

    # ---- MMIO store overlap --------------------------------------------------
    mmio_lo = DEFAULT_MMIO_BASE
    mmio_hi = DEFAULT_MMIO_BASE + MMIO_WINDOW_BYTES
    for access in accesses:
        if access.access != "store" or access.first is None:
            continue
        stride = access.stride or 0
        span = (trip - 1 if trip else 0) * stride
        lo = access.first + min(0, span)
        hi = access.first + max(0, span) + access.size
        if lo < mmio_hi and hi > mmio_lo:
            out.add(
                "fx-mmio-store", "warn", iloc(access.position),
                f"store range [{lo:#x}, {hi:#x}) overlaps the SPU MMIO "
                f"window [{mmio_lo:#x}, {mmio_hi:#x})",
                fix_hint="keep device stores outside certified loop bodies",
                loop=label,
            )

    # ---- MMX byte-interval walk ----------------------------------------------
    body_mmx_written = {fact.mmx_dest for _, _, fact in body}
    mmx = _Intervals({reg.index for reg in MM if reg.name in zeroed} - body_mmx_written)
    accumulate_bounds: dict[int, int | None] = {}
    write_sems: dict[int, list[str]] = {}
    for position, instr, fact in body:
        if fact.mmx_dest is not None:
            write_sems.setdefault(fact.mmx_dest, []).append(fact.sem)
            if swar_status(fact.sem) == "modular" and len(instr.operands) > 1:
                accumulate_bounds[position] = word_bound(
                    mmx.word(instr.operands[1]), instr.opcode.width
                )
        mmx.step(instr, fact)
    carried_mmx = mmx.live_in & mmx.written

    # ---- packed-op SWAR records ----------------------------------------------
    swar_records: list[dict[str, Any]] = []
    for position in range(region.start, region.end):
        instr = program.instructions[position]
        if instr.iclass not in (
            InstrClass.MMX_ALU, InstrClass.MMX_MUL, InstrClass.MMX_SHIFT
        ):
            continue
        width = instr.opcode.width
        swar_records.append({
            "position": position,
            "op": instr.opcode.name,
            "width": width,
            "status": swar_status(instr.opcode.sem),
        })
        if width is not None and width not in MASKS:
            out.add(
                "fx-swar-width", "error", iloc(position),
                f"`{instr.opcode.name}` lane width {width} is outside the "
                f"certified SWAR mask algebra (widths {sorted(MASKS)})",
                loop=label,
            )
        if instr.opcode.sem in ("psll", "psrl", "psra") and len(instr.operands) > 1:
            count = instr.operands[1]
            if isinstance(count, Register):
                out.add(
                    "fx-swar-shift", "warn", iloc(position),
                    f"`{instr.opcode.name}` takes its count from "
                    f"{count.name}: carry-break masks exist per immediate "
                    "count only",
                    fix_hint="hoist the count into an immediate",
                    loop=label,
                )

    # ---- modular carried accumulators ----------------------------------------
    overflow_records: list[dict[str, Any]] = []
    per_register: dict[str, list[int]] = {}
    for position in sorted(accumulate_bounds):
        dest = program.instructions[position].dest
        assert dest is not None
        if dest.index in carried_mmx:
            overflow_records.append(
                {"position": position, "register": dest.name}
            )
            per_register.setdefault(dest.name, []).append(position)
    for name in sorted(per_register):
        positions = per_register[name]
        growth = 0
        provable = name in zeroed and trip is not None
        lane_max = None
        for position in positions:
            instr = program.instructions[position]
            if instr.opcode.sem != "padd" or instr.opcode.width is None:
                provable = False
                break
            bound = accumulate_bounds[position]
            if bound is None:
                provable = False
                break
            growth += bound
            width_max = (1 << instr.opcode.width) - 1
            lane_max = width_max if lane_max is None else min(lane_max, width_max)
        if provable and lane_max is not None and trip is not None:
            provable = trip * growth <= lane_max
        if not provable:
            out.add(
                "fx-lane-overflow", "info", loc,
                f"modular packed accumulator {name} may wrap within the "
                "derived trip count: batched execution must renormalize "
                "lanes per iteration",
                loop=label,
            )

    # ---- loop-carried memory dependences -------------------------------------
    mem_carried_records: list[dict[str, Any]] = []
    resolved = [a for a in accesses if a.first is not None and a.stride is not None]
    if trip is not None:
        for store in (a for a in resolved if a.access == "store"):
            s_span = (trip - 1) * store.stride  # type: ignore[operator]
            s_lo = store.first + min(0, s_span)  # type: ignore[operator]
            s_hi = store.first + max(0, s_span) + store.size  # type: ignore[operator]
            for load in (a for a in resolved if a.access == "load"):
                l_span = (trip - 1) * load.stride  # type: ignore[operator]
                l_lo = load.first + min(0, l_span)  # type: ignore[operator]
                l_hi = load.first + max(0, l_span) + load.size  # type: ignore[operator]
                if s_hi <= l_lo or l_hi <= s_lo:
                    continue
                distance: int | None
                if (
                    store.stride == load.stride
                    and store.stride != 0
                    and (store.first - load.first) % store.stride == 0  # type: ignore[operator]
                ):
                    distance = (store.first - load.first) // store.stride  # type: ignore[operator]
                    if distance <= 0 or distance >= trip:
                        continue
                elif store.stride == load.stride == 0:
                    distance = 1
                else:
                    distance = None
                mem_carried_records.append({
                    "store": store.position,
                    "load": load.position,
                    "distance": distance,
                })
                via = (
                    f"iteration distance {distance}"
                    if distance is not None
                    else "an unresolved iteration distance"
                )
                out.add(
                    "fx-mem-carried", "info", iloc(load.position),
                    f"load may read bytes stored at instruction "
                    f"{store.position} at {via}: per-iteration fusion "
                    "preserves the dependence, cross-iteration batching "
                    "must not reorder it",
                    loop=label,
                )

    # ---- certificate issuance ------------------------------------------------
    findings = sort_findings(out.findings)
    certification = RegionCertification(
        label=label, start=region.start, end=region.end, findings=findings
    )
    if certification.blocking_rules() or kind is None or trip is None:
        return certification

    carried_records: list[dict[str, Any]] = []
    for name in sorted(inductions):
        carried_records.append(
            {"register": name, "class": "induction", "step": inductions[name]}
        )
    for name in opaque:
        carried_records.append({"register": name, "class": "opaque"})
    for index in sorted(carried_mmx):
        sems = write_sems[index]
        cls = "reduction" if all(sem in REDUCTION_SEMS for sem in sems) else "carried"
        carried_records.append({"register": MM[index].name, "class": cls})
    carried_records.sort(key=lambda rec: str(rec["register"]))

    needed = address_symbols | set(inductions)
    if counter is not None:
        needed.add(counter)
    entry = {
        name: scalars[name] for name in sorted(needed) if name in scalars
    }

    scalar_reads: set[str] = set()
    mmx_reads: set[str] = set()
    scalar_writes: set[str] = set()
    mmx_writes: set[str] = set()
    for position in range(region.start, region.end + 1):
        instr = program.instructions[position]
        for reg in instr.regs_read():
            if isinstance(reg, Register):
                (mmx_reads if reg.is_mmx else scalar_reads).add(reg.name)
        for reg in instr.regs_written():
            if isinstance(reg, Register):
                (mmx_writes if reg.is_mmx else scalar_writes).add(reg.name)

    memory_records = [
        {
            "position": access.position,
            "access": access.access,
            "size": access.size,
            "first": access.first,
            "stride": access.stride,
        }
        for access in resolved
    ]

    certificate = FusionCertificate(
        program=subject,
        loop=label,
        start=region.start,
        end=region.end,
        body=tuple(
            str(program.instructions[position])
            for position in range(region.start, region.end + 1)
        ),
        trip={"kind": kind, "counter": counter, "count": trip},
        entry=entry,
        reads={"scalar": sorted(scalar_reads), "mmx": sorted(mmx_reads)},
        writes={"scalar": sorted(scalar_writes), "mmx": sorted(mmx_writes)},
        carried=tuple(carried_records),
        memory=tuple(memory_records),
        swar=tuple(swar_records),
        overflow=tuple(overflow_records),
        mem_carried=tuple(mem_carried_records),
    )

    # Issuance-time self-check: the independent replay checker must accept
    # every certificate we ship; a failure is a certifier bug surfaced as
    # fx-cert-* findings rather than a bogus proof.
    issues = check_fusion_certificate(certificate, program)
    if issues:
        add_replay_findings(out, issues, subject)
        certification.findings = sort_findings(out.findings)
        return certification
    certification.certificate = certificate
    return certification


def certify_program(program: Program, subject: str = "program") -> ProgramCertification:
    """Certify every loop region of *program* for superop fusion."""
    regions = sorted(
        find_loop_regions(program),
        key=lambda region: (region.start, region.end, region.label),
    )
    return ProgramCertification(
        subject=subject,
        regions=[
            _certify_region(program, region, regions, subject)
            for region in regions
        ],
    )
