"""Route derivation for the off-load pass, and its certificates.

The off-load pass (:mod:`repro.core.offload`) and the static certifier
(:mod:`repro.analysis.certificate`) share one question: *given a loop body
with some pure permutes deleted, do the recorded crossbar routes reproduce
exactly the byte movement the deleted instructions performed?*  Both answer
it with symbolic byte provenance — the :class:`~repro.core.mmxbytes.SymbolWalk`
gives every MMX register byte at loop entry a unique symbol, relocations
move symbols, computes mint fresh ones — and divide the labor:

- :func:`derive_routes` *searches* for routes (the off-load pass's inner
  validation walk), and
- :func:`~repro.core.replay.check_certificate` *verifies* recorded routes
  without re-deriving them, so a lint run never has to trust the synthesis
  machinery it is auditing.

The :class:`OffloadCertificate` a pass emits is the machine-checkable
artifact connecting the two: per deleted permute it names the consumer
routes that reproduce its byte movement, and the checker replays the walk
against those exact routes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.interconnect import CrossbarConfig
from repro.core.mmxbytes import ZERO, SymbolWalk, byte_facts
from repro.core.replay import check_certificate  # noqa: F401  (public path)
from repro.errors import RouteError
from repro.isa.instructions import Instruction
from repro.isa.registers import MMX_BYTES, Register

#: A byte-granularity route: per operand byte, the source register-file
#: byte (``register * 8 + byte``), or None for the architectural byte.
Route = tuple[int | None, ...]

# --- whole-body analysis ------------------------------------------------------


@dataclass
class OriginalAnalysis:
    """Everything the route search needs to know about the *original* body.

    Computed once by :func:`analyze_original` and replayed by every
    :func:`derive_routes` walk of the off-load pass's fixed point.
    """

    #: Per instruction: required symbols per routable operand slot.
    needed: list[dict[int, list[int]]]
    #: Per instruction and slot: body position of the last prior write to the
    #: slot's register (blame assignment), or None.
    def_of_slot: list[dict[int, int | None]]
    #: Per instruction: the MMX register it writes and that register's
    #: symbol vector *after* it runs (None without an MMX destination).
    writes: list[tuple[int, list[int]] | None]
    #: Register indexes live-in to the body (read before any write).
    live_in: frozenset[int]
    #: End-of-body symbol vector of each register.
    final_syms: list[list[int]]


def analyze_original(
    body: list[Instruction], known_zero: tuple[Register, ...] = ()
) -> OriginalAnalysis:
    """Walk the original body once, collecting the facts the search replays."""
    walk = SymbolWalk(known_zero)
    needed: list[dict[int, list[int]]] = []
    last_def: dict[int, int] = {}  # reg index -> body position of last write
    def_of_slot: list[dict[int, int | None]] = []
    writes: list[tuple[int, list[int]] | None] = []
    for position, instr in enumerate(body):
        fact = byte_facts(instr)
        # Zero idioms produce 0 regardless of their inputs: no routing needed.
        regs = {
            slot: instr.operands[slot].index
            for slot in (() if fact.zero_idiom else fact.slots)
        }
        needed.append({slot: walk.regs[reg] for slot, reg in regs.items()})
        def_of_slot.append({slot: last_def.get(reg) for slot, reg in regs.items()})
        walk.step(instr, fact)
        dst = fact.mmx_dest
        writes.append(None if dst is None else (dst, walk.regs[dst]))
        if dst is not None:
            last_def[dst] = position
    return OriginalAnalysis(
        needed=needed,
        def_of_slot=def_of_slot,
        writes=writes,
        live_in=frozenset(walk.live_in),
        final_syms=walk.regs,
    )


@dataclass
class WalkFailure:
    """Why a transformed walk is invalid, with blame for the fixed point."""

    #: Body position of the candidate to keep (may misattribute; see the
    #: off-load pass's fallback), or None.
    blame: int | None
    #: Body position where the failure surfaced (len(body) for back-edge).
    near: int
    reason: str
    #: Failing instruction (None for back-edge failures).
    instr: Instruction | None = None
    #: Failing operand slot, or the diverging register index (back edge).
    detail: int = -1


def derive_routes(
    body: list[Instruction],
    removed: set[int],
    analysis: OriginalAnalysis,
    known_zero: tuple[Register, ...],
    config: CrossbarConfig,
) -> tuple[dict[int, dict[int, Route]], WalkFailure | None]:
    """Walk the transformed body under *removed*, deriving crossbar routes.

    Returns ``(routes, failure)``: per-body-position slot routes (byte
    granularity) when the transformation is valid (``failure is None``), or
    the :class:`WalkFailure` naming the candidate to keep.
    """
    walk = SymbolWalk(known_zero)
    regs = walk.regs
    routes: dict[int, dict[int, Route]] = {}
    for position, instr in enumerate(body):
        if position in removed:
            continue  # removed instructions change nothing
        for slot, required in analysis.needed[position].items():
            held = regs[instr.operands[slot].index]
            byte_route: list[int | None] = []
            failed: str | None = None
            for byte, sym in enumerate(required):
                if held[byte] == sym:
                    byte_route.append(None)  # already architectural
                    continue
                location = walk.locate_zero(byte) if sym == ZERO else walk.locate(sym)
                if location is None:
                    failed = (
                        "consumes shifted-in zero bytes with no zero source"
                        if sym == ZERO
                        else "source sub-word no longer present in the register file"
                    )
                    break
                byte_route.append(location[0] * MMX_BYTES + location[1])
            if failed is None and any(sel is not None for sel in byte_route):
                try:
                    config.check_byte_route(tuple(byte_route))
                except RouteError as exc:
                    failed = f"route illegal for config {config.name}: {exc}"
            if failed is not None:
                blame = analysis.def_of_slot[position].get(slot)
                return routes, WalkFailure(
                    blame=blame, near=position, reason=failed,
                    instr=instr, detail=slot,
                )
            if any(sel is not None for sel in byte_route):
                routes.setdefault(position, {})[slot] = tuple(byte_route)
        # Kept instructions produce their original values (routes make
        # their operands the original ones), so replay original symbols.
        write = analysis.writes[position]
        if write is not None:
            regs[write[0]] = write[1]
    # Back-edge check: live-in registers must reach the loop end holding
    # exactly what the original body left there.
    last_removed_writer: dict[int, int] = {}
    for position in removed:
        write = analysis.writes[position]
        if write is not None:
            dst = write[0]
            last_removed_writer[dst] = max(last_removed_writer.get(dst, -1), position)
    for reg_index in sorted(analysis.live_in):
        if regs[reg_index] != analysis.final_syms[reg_index]:
            return routes, WalkFailure(
                blame=last_removed_writer.get(reg_index),
                near=len(body),
                reason="feeds the next iteration through the back edge",
                instr=None,
                detail=reg_index,
            )
    return routes, None
# --- certificates -------------------------------------------------------------


@dataclass
class PermuteWitness:
    """Per deleted permute: the consumer routes reproducing its byte movement."""

    #: Body position of the deleted permute.
    position: int
    #: Rendered instruction text (for reports and staleness checks).
    instr: str
    #: ``(consumer_position, slot)`` pairs whose routes carry this permute's
    #: output bytes to their consumers.
    consumers: tuple[tuple[int, int], ...]

    def as_dict(self) -> dict[str, Any]:
        return {
            "position": self.position,
            "instr": self.instr,
            "consumers": [list(pair) for pair in self.consumers],
        }


@dataclass
class OffloadCertificate:
    """Machine-checkable evidence that an off-load is sound.

    Everything :func:`check_certificate` needs to re-verify the
    transformation without re-running the pass: the original loop body, the
    removal set, and the exact byte routes the synthesized controller
    program applies.  ``body`` keeps the live :class:`Instruction` objects
    for in-process verification; :meth:`as_dict` exports the text form.
    """

    loop_label: str
    config_name: str
    iterations: int
    #: The original loop body, permutes still present.
    body: tuple[Instruction, ...] = field(repr=False)
    #: Body positions the pass deleted.
    removed: tuple[int, ...] = ()
    #: Kept body position → slot → byte-granularity route.
    routes: dict[int, dict[int, Route]] = field(default_factory=dict)
    #: Register indexes pinned by the live-out rule.
    live_out: tuple[int, ...] = ()
    #: Register indexes seeded as known zero.
    known_zero: tuple[int, ...] = ()
    #: Per deleted permute, the consumers that route around it.
    witnesses: tuple[PermuteWitness, ...] = ()

    @property
    def body_text(self) -> tuple[str, ...]:
        return tuple(str(instr) for instr in self.body)

    @property
    def kept_positions(self) -> tuple[int, ...]:
        removed = set(self.removed)
        return tuple(
            position for position in range(len(self.body)) if position not in removed
        )

    def as_dict(self) -> dict[str, Any]:
        """JSON-friendly certificate (body as text, routes as lists)."""
        return {
            "loop_label": self.loop_label,
            "config": self.config_name,
            "iterations": self.iterations,
            "body": list(self.body_text),
            "removed": list(self.removed),
            "routes": {
                str(position): {
                    str(slot): [sel for sel in route]
                    for slot, route in sorted(slots.items())
                }
                for position, slots in sorted(self.routes.items())
            },
            "live_out": list(self.live_out),
            "known_zero": list(self.known_zero),
            "witnesses": [witness.as_dict() for witness in self.witnesses],
        }

