"""Independent replay checking of off-load and fusion certificates.

The two certifiers prove; this module *re-derives*.  Each checker works
from a certificate's data plus the code it names and never trusts the
machinery that issued it: neither searches for routes, and neither calls
the interval or affine transfer functions.  They share only the byte table
and the provenance walk of :mod:`repro.core.mmxbytes`.

- :func:`check_certificate` replays an
  :class:`~repro.core.dataflow.OffloadCertificate`: it walks the original
  body and the body as shipped (permutes deleted, recorded routes applied)
  side by side and checks that every recorded selector holds the byte the
  original instruction read, so a lint run cannot inherit a synthesis bug.
- :func:`check_fusion_certificate` replays a
  :class:`~repro.analysis.absint.certificate.FusionCertificate`: the body
  text must match the shipped instructions (else *stale*), register
  footprints are recomputed from operand decoding, and the loop is *run*
  for the certified trip count with scalars seeded from the entry
  constants.  Every memory access must land on its recorded
  ``first + k * stride`` closed form, every induction register must hit
  ``entry + (k + 1) * step`` after each iteration, the counter must exhaust
  exactly at the recorded trip, and no store may touch the MMIO window.
  Packed-op SWAR records, carried classes, overflow and carried-memory
  records are recomputed structurally and compared both directions.

Every disagreement is a :class:`CertIssue`; its finding carries the rule
:data:`ISSUE_RULES` names, with the location text and fix hint of the
analyzer that reports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.core.mmio import DEFAULT_MMIO_BASE, MMIO_WINDOW_BYTES
from repro.core.mmxbytes import (
    ZERO,
    ByteFacts,
    SymbolWalk,
    byte_facts,
    is_pure_permute,
)
from repro.errors import RouteError
from repro.isa.instructions import Instruction, Program
from repro.isa.opcodes import InstrClass
from repro.isa.operands import Imm, Mem
from repro.isa.registers import MM, MMX_BYTES, Register
from repro.simd.swar import MASKS

if TYPE_CHECKING:
    from repro.analysis.absint.certificate import FusionCertificate
    from repro.core.dataflow import OffloadCertificate
    from repro.core.interconnect import CrossbarConfig

_MASK = 0xFFFFFFFF

#: Schema tag embedded in every fusion certificate; the checker rejects
#: anything else (``fx-cert-schema``).
FUSION_CERT_SCHEMA = "repro.fusion-cert/1"

#: Replay refuses to run implausibly long loops; anything above this bound
#: cannot be certified (the issuance self-check runs this same code).
REPLAY_TRIP_LIMIT = 65536

#: Issue code -> rule id of the finding it becomes.
ISSUE_RULES = {
    # check_certificate
    "cert-stale": "oc-cert-stale",
    "not-permute": "oc-not-permute",
    "live-out": "oc-live-out-removed",
    "route-illegal": "oc-route-illegal",
    "byte-mismatch": "oc-byte-mismatch",
    "backedge": "oc-backedge-mismatch",
    # check_fusion_certificate
    "schema": "fx-cert-schema",
    "stale": "fx-cert-stale",
    "mismatch": "fx-cert-mismatch",
}


@dataclass(frozen=True)
class CertIssue:
    """One replay disagreement; ``code`` selects the rule.

    ``location`` is ``label+position`` for an off-load certificate and the
    loop label for a fusion certificate.
    """

    code: str
    location: str
    message: str


# ---- off-load certificates ------------------------------------------------------


def _symbol(sym: int) -> str:
    return "zero" if sym == ZERO else f"symbol {sym}"


def check_certificate(
    certificate: OffloadCertificate, config: CrossbarConfig
) -> list[CertIssue]:
    """Verify *certificate* by replaying the walk against its recorded routes.

    Where the off-load pass *searches* for a source byte, this walk only
    *checks* that the recorded selector holds the required symbol.
    """
    issues: list[CertIssue] = []
    body = list(certificate.body)
    removed = set(certificate.removed)
    label = certificate.loop_label

    def issue(code: str, position: int, message: str) -> None:
        issues.append(CertIssue(code, f"{label}+{position}", message))

    for position in sorted(removed):
        if position >= len(body):
            issue(
                "cert-stale", position,
                f"removed position {position} beyond the {len(body)}-instruction body",
            )
            return issues
        if not is_pure_permute(body[position]):
            issue(
                "not-permute", position,
                f"removed instruction {body[position]} is not a pure permute",
            )

    # Live-out rule: no removed position may be the last writer of a
    # live-out register.
    facts = [byte_facts(instr) for instr in body]
    last_writer = {
        fact.mmx_dest: position
        for position, fact in enumerate(facts)
        if fact.mmx_dest is not None
    }
    for reg_index in certificate.live_out:
        position = last_writer.get(reg_index)
        if position is not None and position in removed:
            issue(
                "live-out", position,
                f"removed permute {body[position]} is the last writer of "
                f"live-out register mm{reg_index}",
            )
    if issues:
        return issues

    known_zero = tuple(MM[index] for index in certificate.known_zero)
    original = SymbolWalk(known_zero)  # the body as written
    shipped = SymbolWalk(known_zero)  # permutes deleted, routes applied
    for position, (instr, fact) in enumerate(zip(body, facts)):
        needed = {
            slot: original.regs[instr.operands[slot].index]
            for slot in (() if fact.zero_idiom else fact.slots)
        }
        original.step(instr, fact)
        if position in removed:
            continue
        slot_routes = certificate.routes.get(position, {})
        for slot, required in needed.items():
            reg = instr.operands[slot]
            route = slot_routes.get(slot)
            if route is not None and len(route) != MMX_BYTES:
                issue(
                    "route-illegal", position,
                    f"slot {slot} route has {len(route)} entries, need {MMX_BYTES}",
                )
                continue
            for byte, sym in enumerate(required):
                selector = None if route is None else route[byte]
                if selector is None:
                    held = shipped.regs[reg.index][byte]
                    source = f"architectural {reg}[{byte}]"
                else:
                    held = shipped.regs[selector // MMX_BYTES][selector % MMX_BYTES]
                    source = f"routed mm{selector // MMX_BYTES}[{selector % MMX_BYTES}]"
                if held != sym:
                    issue(
                        "byte-mismatch", position,
                        f"{instr}: slot {slot} byte {byte} needs {_symbol(sym)} "
                        f"but {source} holds {_symbol(held)}",
                    )
                    break
            if route is not None and any(sel is not None for sel in route):
                try:
                    config.check_byte_route(tuple(route))
                except RouteError as exc:
                    issue(
                        "route-illegal", position,
                        f"slot {slot} route illegal for config {config.name}: {exc}",
                    )
        if fact.mmx_dest is not None:
            # Kept instructions produce their original values.
            shipped.regs[fact.mmx_dest] = original.regs[fact.mmx_dest]

    for reg_index in sorted(original.live_in):
        mismatch = [
            byte for byte in range(MMX_BYTES)
            if shipped.regs[reg_index][byte] != original.regs[reg_index][byte]
        ]
        if mismatch:
            issue(
                "backedge", len(body),
                f"live-in register mm{reg_index} diverges from the original "
                f"at the back edge (bytes {mismatch})",
            )
    return issues


# ---- fusion certificates --------------------------------------------------------

#: Same taxonomy the certifier records — duplicated as literal data on
#: purpose so a certifier-side edit cannot silently rewrite the checker.
_SATURATING = frozenset({
    "padds", "paddus", "psubs", "psubus", "packss", "packus",
    "pavg", "pmins", "pmaxs", "pminu", "pmaxu",
})
_MODULAR = frozenset({"padd", "psub", "pmullw", "pmaddwd", "psll"})
_EXACT = frozenset({
    "pand", "pandn", "por", "pxor", "pcmpeq", "pcmpgt",
    "pmulhw", "pmulhuw", "pmuludq", "punpckl", "punpckh",
    "pshufw", "vperm", "psrl", "psra",
})

_REDUCTION = frozenset({
    "padd", "psub", "padds", "psubs", "paddus", "psubus",
    "pmins", "pmaxs", "pminu", "pmaxu", "pavg",
    "pand", "por", "pxor",
})


def _status(sem: str) -> str | None:
    if sem in _SATURATING:
        return "saturating"
    if sem in _MODULAR:
        return "modular"
    if sem in _EXACT:
        return "exact"
    return None


def _region_footprints(
    region: list[Instruction], facts: list[ByteFacts]
) -> tuple[dict[str, list[str]], dict[str, list[str]], set[str]]:
    """(reads, writes, carried-names) recomputed from operand decoding."""
    scalar_reads: set[str] = set()
    mmx_reads: set[str] = set()
    scalar_writes: set[str] = set()
    mmx_writes: set[str] = set()
    written_so_far: set[str] = set()
    live_in: set[str] = set()
    for instr, fact in zip(region, facts):
        for reg in instr.regs_read():
            if not isinstance(reg, Register):
                continue
            (mmx_reads if reg.is_mmx else scalar_reads).add(reg.name)
            # A zero idiom reads nothing architecturally.
            if not fact.zero_idiom and reg.name not in written_so_far:
                live_in.add(reg.name)
        for reg in instr.regs_written():
            if not isinstance(reg, Register):
                continue
            (mmx_writes if reg.is_mmx else scalar_writes).add(reg.name)
            written_so_far.add(reg.name)
    reads = {"scalar": sorted(scalar_reads), "mmx": sorted(mmx_reads)}
    writes = {"scalar": sorted(scalar_writes), "mmx": sorted(mmx_writes)}
    return reads, writes, live_in & written_so_far


class _Replay:
    """Minimal concrete scalar machine: 32-bit masked, flags as a last result.

    Deliberately written against the ISA reference semantics rather than
    shared with the certifier, so the two cannot fail identically.
    """

    def __init__(self, entry: dict[str, int]) -> None:
        self.env: dict[str, int] = {
            name: value & _MASK for name, value in entry.items()
        }
        self.last_result: int | None = None

    def get(self, name: str) -> int | None:
        return self.env.get(name)

    def address(self, mem: Mem) -> int | None:
        base = self.env.get(mem.base.name)
        if base is None:
            return None
        address = base + mem.disp
        if mem.index is not None:
            index = self.env.get(mem.index.name)
            if index is None:
                return None
            address += index * mem.scale
        return address & _MASK

    def _operand(self, operand: object) -> int | None:
        if isinstance(operand, Imm):
            return operand.value & _MASK
        if isinstance(operand, Register) and not operand.is_mmx:
            return self.env.get(operand.name)
        return None

    def _set(self, name: str, value: int | None, flags: bool) -> None:
        if value is None:
            self.env.pop(name, None)
            if flags:
                self.last_result = None
            return
        value &= _MASK
        self.env[name] = value
        if flags:
            self.last_result = value

    def step(self, instr: Instruction, fact: ByteFacts) -> None:
        sem = fact.sem
        dest = fact.dest
        if sem == "cmp":
            left = self._operand(instr.operands[0])
            right = self._operand(instr.operands[1])
            self.last_result = (
                None if left is None or right is None else (left - right) & _MASK
            )
            return
        if dest is None or dest.is_mmx:
            return
        name = dest.name
        if sem == "mov":
            self._set(name, self._operand(instr.operands[1]), flags=False)
            return
        if sem == "lea":
            mem = fact.mem
            self._set(
                name, self.address(mem) if mem is not None else None, flags=False
            )
            return
        if sem in ("add", "sub", "and", "or", "xor", "imul"):
            left = self.env.get(name)
            right = self._operand(instr.operands[1])
            if left is None or right is None:
                self._set(name, None, flags=True)
                return
            value = {
                "add": left + right,
                "sub": left - right,
                "and": left & right,
                "or": left | right,
                "xor": left ^ right,
                "imul": left * right,
            }[sem]
            self._set(name, value, flags=True)
            return
        if sem in ("shl", "shr", "sar"):
            left = self.env.get(name)
            count = instr.operands[1]
            if left is None or not isinstance(count, Imm):
                self._set(name, None, flags=True)
                return
            n = count.value & 31
            if sem == "shl":
                value = left << n
            elif sem == "shr":
                value = left >> n
            else:
                signed = left - (1 << 32) if left >> 31 else left
                value = signed >> n
            self._set(name, value, flags=True)
            return
        if sem in ("inc", "dec", "neg", "loop"):
            left = self.env.get(name)
            if left is None:
                self._set(name, None, flags=True)
                return
            if sem == "inc":
                value = left + 1
            elif sem == "neg":
                value = -left
            else:  # dec, and the closing `loop` decrement
                value = left - 1
            self._set(name, value, flags=True)
            return
        # Loads, movd-from-MMX and anything else: destination unknown.
        self._set(name, None, flags=False)


def check_fusion_certificate(
    cert: FusionCertificate, program: Program
) -> list[CertIssue]:
    """Every disagreement between *cert* and *program*; empty means verified."""
    issues: list[CertIssue] = []
    loop = cert.loop

    def issue(code: str, message: str) -> None:
        issues.append(CertIssue(code, loop, message))

    if cert.schema != FUSION_CERT_SCHEMA:
        issue(
            "schema",
            f"unknown certificate schema {cert.schema!r} "
            f"(checker speaks {FUSION_CERT_SCHEMA!r})",
        )
        return issues

    # ---- staleness: the certified text must be the code that ships -----------
    size = len(program.instructions)
    if not (0 <= cert.start <= cert.end < size):
        issue("stale", f"region [{cert.start}-{cert.end}] is out of bounds")
        return issues
    if program.labels.get(loop) != cert.start:
        issue(
            "stale",
            f"label {loop!r} no longer marks instruction {cert.start}",
        )
        return issues
    span = cert.end - cert.start + 1
    if len(cert.body) != span:
        issue(
            "stale",
            f"certificate records {len(cert.body)} body lines for a "
            f"{span}-instruction region",
        )
        return issues
    for offset, line in enumerate(cert.body):
        actual = str(program.instructions[cert.start + offset])
        if actual != line:
            issue(
                "stale",
                f"body line {cert.start + offset} is {actual!r}, "
                f"certificate says {line!r}",
            )
            return issues

    # Per-position facts, built once: the replay below runs trip x body.
    region = program.instructions[cert.start : cert.end + 1]
    facts = [byte_facts(instr) for instr in region]

    # ---- register footprints -------------------------------------------------
    reads, writes, carried_names = _region_footprints(region, facts)
    if cert.reads != reads:
        issue("mismatch", f"read footprint is {reads}, certificate says {cert.reads}")
    if cert.writes != writes:
        issue(
            "mismatch", f"write footprint is {writes}, certificate says {cert.writes}"
        )

    # ---- carried classification, both directions -----------------------------
    recorded_carried = {str(rec.get("register")): rec for rec in cert.carried}
    for name in sorted(carried_names):
        if name not in recorded_carried:
            issue("mismatch", f"loop-carried register {name} has no carried record")
    for name, rec in recorded_carried.items():
        if name not in carried_names:
            issue(
                "mismatch",
                f"carried record names {name}, which is not live-in and "
                "written in the region",
            )
        cls = rec.get("class")
        if cls not in ("induction", "opaque", "reduction", "carried"):
            issue("mismatch", f"carried record for {name} has unknown class {cls!r}")
        elif cls == "induction" and not isinstance(rec.get("step"), int):
            issue("mismatch", f"induction record for {name} has no integer step")
        elif cls == "reduction":
            sems = [
                fact.sem
                for instr, fact in zip(region, facts)
                for reg in instr.regs_written()
                if isinstance(reg, Register) and reg.name == name
            ]
            if not sems or not all(sem in _REDUCTION for sem in sems):
                issue(
                    "mismatch",
                    f"reduction record for {name} but its writes are not all "
                    "accumulating packed ops",
                )

    # ---- trip plausibility ---------------------------------------------------
    kind = cert.trip.get("kind")
    counter = cert.trip.get("counter")
    trip = cert.trip.get("count")
    if kind not in ("loop", "dec-jnz") or not isinstance(counter, str):
        issue("mismatch", f"trip record {cert.trip!r} has no known form")
        return issues
    if not isinstance(trip, int) or trip < 1:
        issue("mismatch", f"trip count {trip!r} is not a positive integer")
        return issues
    if trip > REPLAY_TRIP_LIMIT:
        issue(
            "mismatch",
            f"trip count {trip} exceeds the replay budget "
            f"({REPLAY_TRIP_LIMIT}); the loop cannot be re-verified",
        )
        return issues
    closing, closing_fact = region[-1], facts[-1]
    if kind == "loop" and closing_fact.sem != "loop":
        issue("mismatch", "trip kind is 'loop' but the closing branch is not")
        return issues
    if kind == "dec-jnz" and closing_fact.sem != "jnz":
        issue("mismatch", "trip kind is 'dec-jnz' but the closing branch is not jnz")
        return issues

    # The body proper (the closing branch is stepped separately).
    body = [
        (cert.start + offset, instr, fact)
        for offset, (instr, fact) in enumerate(zip(region[:-1], facts[:-1]))
    ]

    # ---- SWAR records, both directions ---------------------------------------
    expected_swar: list[dict[str, Any]] = []
    for position, instr, fact in body:
        if instr.iclass not in (
            InstrClass.MMX_ALU, InstrClass.MMX_MUL, InstrClass.MMX_SHIFT
        ):
            continue
        width = instr.opcode.width
        expected_swar.append({
            "position": position,
            "op": instr.opcode.name,
            "width": width,
            "status": _status(fact.sem),
        })
        if width is not None and width not in MASKS:
            issue(
                "mismatch",
                f"packed op at {position} has lane width {width}, outside "
                "the certified SWAR mask algebra",
            )
        if fact.sem in ("psll", "psrl", "psra") and len(instr.operands) > 1:
            if isinstance(instr.operands[1], Register):
                issue(
                    "mismatch",
                    f"packed shift at {position} takes a register count: "
                    "not coverable by immediate-count masks",
                )
    if list(cert.swar) != expected_swar:
        issue(
            "mismatch",
            f"SWAR records disagree: recomputed {len(expected_swar)} "
            f"records, certificate has {len(cert.swar)} (or contents differ)",
        )

    # ---- overflow records, both directions -----------------------------------
    expected_overflow = [
        {"position": position, "register": MM[fact.mmx_dest].name}
        for position, _, fact in body
        if fact.mmx_dest is not None
        and _status(fact.sem) == "modular"
        and MM[fact.mmx_dest].name in carried_names
    ]
    if list(cert.overflow) != expected_overflow:
        issue(
            "mismatch",
            "overflow records disagree with the modular carried "
            "accumulators found in the body",
        )

    # ---- memory record indices -----------------------------------------------
    memory_by_position: dict[int, dict[str, Any]] = {}
    for rec in cert.memory:
        position = rec.get("position")
        if not isinstance(position, int) or not (
            cert.start <= position < cert.end
        ):
            issue("mismatch", f"memory record position {position!r} is not in the body")
            continue
        memory_by_position[position] = rec
    for position, _, fact in body:
        rec = memory_by_position.get(position)
        if fact.access is None:
            if rec is not None:
                issue(
                    "mismatch",
                    f"memory record at {position} but the instruction does "
                    "not access memory",
                )
            continue
        if rec is None:
            issue("mismatch", f"{fact.access} at {position} has no memory record")
            continue
        if rec.get("access") != fact.access:
            issue(
                "mismatch",
                f"access at {position} is a {fact.access}, certificate says "
                f"{rec.get('access')!r}",
            )
        if rec.get("size") != fact.size:
            issue(
                "mismatch",
                f"access at {position} moves {fact.size} bytes, "
                f"certificate says {rec.get('size')!r}",
            )
    if issues:
        return issues

    # ---- carried-memory record arithmetic ------------------------------------
    for rec in cert.mem_carried:
        store = memory_by_position.get(rec.get("store", -1))
        load = memory_by_position.get(rec.get("load", -1))
        if store is None or load is None or store.get("access") != "store":
            issue("mismatch", f"carried-memory record {rec!r} names unknown accesses")
            continue
        distance = rec.get("distance")
        if distance is None:
            continue
        if not isinstance(distance, int) or distance < 1:
            issue(
                "mismatch",
                f"carried-memory distance {distance!r} is not a positive "
                "iteration count",
            )
            continue
        stride = store.get("stride")
        if (
            store.get("stride") != load.get("stride")
            or not isinstance(stride, int)
            or store.get("first", 0) - load.get("first", 0) != distance * stride
        ):
            issue(
                "mismatch",
                f"carried-memory record {rec!r} is inconsistent with the "
                "recorded closed forms",
            )
    if issues:
        return issues

    # ---- concrete replay of every certified iteration ------------------------
    machine = _Replay(cert.entry)
    for rec in cert.carried:
        name = str(rec.get("register"))
        if rec.get("class") == "induction" and name not in machine.env:
            machine.env[name] = 0
    induction_seed = {
        str(rec["register"]): machine.env[str(rec["register"])]
        for rec in cert.carried
        if rec.get("class") == "induction"
    }
    mmio_lo = DEFAULT_MMIO_BASE
    mmio_hi = DEFAULT_MMIO_BASE + MMIO_WINDOW_BYTES
    for k in range(trip):
        for position, instr, fact in body:
            if fact.access is not None:
                assert fact.mem is not None
                address = machine.address(fact.mem)
                rec = memory_by_position[position]
                expected = (
                    int(rec["first"]) + k * int(rec["stride"])
                ) & _MASK
                if address is None:
                    issue(
                        "mismatch",
                        f"iteration {k}: address at {position} is not "
                        "concretely computable from the entry constants",
                    )
                    return issues
                if address != expected:
                    issue(
                        "mismatch",
                        f"iteration {k}: {rec['access']} at {position} hits "
                        f"{address:#x}, closed form says {expected:#x}",
                    )
                    return issues
                if rec["access"] == "store" and not (
                    address + int(rec["size"]) <= mmio_lo or address >= mmio_hi
                ):
                    issue(
                        "mismatch",
                        f"iteration {k}: store at {position} touches the "
                        "MMIO window",
                    )
                    return issues
            machine.step(instr, fact)
        # The closing branch: decrement-and-test or test-last-result.
        if kind == "loop":
            machine.step(closing, closing_fact)
            value = machine.get(counter)
            taken = value is not None and value != 0
        else:
            taken = machine.last_result is not None and machine.last_result != 0
            if machine.last_result is None:
                issue(
                    "mismatch",
                    f"iteration {k}: closing jnz tests an unknown flag value",
                )
                return issues
        should_continue = k < trip - 1
        if taken != should_continue:
            issue(
                "mismatch",
                f"iteration {k}: closing branch is "
                f"{'taken' if taken else 'not taken'}, trip count {trip} "
                f"says it should {'be' if should_continue else 'not be'}",
            )
            return issues
        for rec in cert.carried:
            if rec.get("class") != "induction":
                continue
            name = str(rec["register"])
            step = int(rec["step"])
            actual = machine.get(name)
            expected_value = (induction_seed[name] + (k + 1) * step) & _MASK
            if actual != expected_value:
                issue(
                    "mismatch",
                    f"iteration {k}: induction {name} is {actual!r}, "
                    f"step {step} says {expected_value}",
                )
                return issues
    return issues
