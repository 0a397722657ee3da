"""Automatic permute off-load: the compiler pass the paper sketches in §4.

Given an MMX loop, the pass deletes pure data-movement instructions
(``punpck*``, ``movq mm,mm``, ``pshufw``, whole-byte ``psllq``/``psrlq``)
from the body and synthesizes the SPU controller program that reroutes the
consumers' operands through the crossbar instead — "the generation of the
code for the SPU is systematic and can be automated".

Method: symbolic byte provenance (:mod:`repro.core.dataflow` over the byte
walk of :mod:`repro.core.mmxbytes`).  Every MMX register byte at loop entry
gets a unique symbol; walking the body, relocations move symbols while
computes/loads mint fresh ones.  An instruction's operand can be rerouted
iff each byte's *original* symbol still lives somewhere in the register
file of the transformed (permute-less) body at that point, at a location
the interconnect configuration can address.  Candidates whose consumers
cannot be rerouted are kept; the analysis iterates to a fixed point.

Every successful run emits an :class:`~repro.core.dataflow.OffloadCertificate`
— the removal set, the exact byte routes, and per deleted permute the
consumer routes that reproduce its byte movement — which
:func:`repro.core.replay.check_certificate` (and ``repro lint``) can
re-verify without re-running the pass.

Saturating packs (``packss*``/``packus*``) are value-transforming, not pure
routing, so they are never removed — matching the paper's SPU, which only
moves sub-words (§6 lists sign-extension/negation as future modes).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.core.builder import SPUProgramBuilder, StateSpec
from repro.core.dataflow import (
    OffloadCertificate,
    PermuteWitness,
    Route,
    analyze_original,
    derive_routes,
)
from repro.core.mmxbytes import (
    ZERO,
    byte_sources,
    is_pure_permute,
    is_zero_idiom,
    mmx_source_slots,
)
from repro.core.interconnect import CONFIG_D, CrossbarConfig
from repro.core.program import SPUProgram
from repro.isa.instructions import Instruction, Program
from repro.isa.registers import Register

__all__ = [
    "OffloadError",
    "OffloadReport",
    "ZERO",
    "byte_sources",
    "find_loop",
    "is_pure_permute",
    "is_zero_idiom",
    "mmx_source_slots",
    "offload_loop",
]


class OffloadError(ReproError):
    """The loop cannot be analyzed (malformed region, inner control flow)."""


@dataclass
class OffloadReport:
    """Result of one off-load run."""

    program: Program
    spu_program: SPUProgram
    #: Program-order indices (in the original program) of removed instructions.
    removed: list[int]
    #: Loop bounds in the original program: [start, end] inclusive of the branch.
    loop_start: int = 0
    loop_end: int = 0
    #: Routed operand slots per transformed-body position.
    routes_by_position: dict[int, dict[int, Route]] = field(default_factory=dict)
    #: Candidates considered but kept, with reasons (diagnostics).
    kept: dict[int, str] = field(default_factory=dict)
    #: Machine-checkable soundness evidence (see repro.core.dataflow).
    certificate: OffloadCertificate | None = None

    @property
    def removed_count(self) -> int:
        return len(self.removed)


# --- loop discovery -----------------------------------------------------------


def find_loop(program: Program, label: str) -> tuple[int, int]:
    """Locate the ``label: ... branch label`` region; returns (start, end)."""
    start = program.target(label)
    end = None
    for index in range(start, len(program)):
        instr = program[index]
        if instr.is_branch:
            targets_label = any(
                getattr(op, "name", None) == label for op in instr.operands
            )
            if targets_label:
                end = index
    if end is None:
        raise OffloadError(f"no branch back to label {label!r}")
    for index in range(start, end):
        if program[index].is_branch:
            raise OffloadError(
                f"loop body contains inner control flow at index {index}"
            )
    return start, end


# --- the pass -----------------------------------------------------------------


def offload_loop(
    program: Program,
    loop_label: str,
    iterations: int,
    config: CrossbarConfig = CONFIG_D,
    live_out: tuple[Register, ...] = (),
    known_zero: tuple[Register, ...] = (),
) -> OffloadReport:
    """Off-load the permutes of the ``loop_label`` loop onto the SPU.

    Parameters
    ----------
    program:
        The MMX-only program (must contain ``loop_label``).
    loop_label:
        Label of the loop head; the body extends to the last branch back.
    iterations:
        Dynamic trip count, used to program the zero-overhead counter
        (CNTR0 = iterations × body length, §4).
    config:
        Target interconnect configuration; routes illegal under it force the
        producing permute to stay in software.
    live_out:
        MMX registers read after the loop; a removed permute may not be the
        last writer of a live-out register.
    known_zero:
        MMX registers holding zero at loop entry (established by a pre-loop
        clear idiom and never written in the body): their bytes become
        routable zero sources, so zero-filling shifts can be off-loaded.
    """
    if iterations <= 0:
        raise OffloadError(f"iterations must be positive, got {iterations}")
    start, end = find_loop(program, loop_label)
    body = program.instructions[start : end + 1]
    for reg in known_zero:
        if any(reg in instr.mmx_regs_written() for instr in body):
            raise OffloadError(
                f"known_zero register {reg} is written inside the loop body"
            )
    analysis = analyze_original(body, known_zero)

    removed_set = {
        position for position, instr in enumerate(body) if is_pure_permute(instr)
    }
    kept_reasons: dict[int, str] = {}

    def _keep(position: int | None, reason: str) -> bool:
        """Move a candidate out of the removal set; True if the set changed."""
        if position is not None and position in removed_set:
            removed_set.discard(position)
            kept_reasons[position] = reason
            return True
        return False

    def _keep_fallback(blame: int | None, near: int, reason: str) -> bool:
        """Keep *blame*, or — when blame misattributes (the symbol was lost
        through a different candidate's removal) — conservatively keep the
        nearest still-removed candidate before *near*, else any.  Monotone,
        so the fixed point always terminates with a correct (possibly
        identity) transformation.
        """
        if _keep(blame, reason):
            return True
        earlier = [position for position in removed_set if position <= near]
        pool = earlier if earlier else sorted(removed_set)
        if not pool:
            return False
        return _keep(max(pool) if earlier else pool[-1], f"(fallback) {reason}")

    # Live-out rule: the last writer of a live-out register must be kept.
    # These keeps are pinned: re-expansion below must never undo them.
    last_writer = {
        write[0]: position
        for position, write in enumerate(analysis.writes)
        if write is not None
    }
    pinned: set[int] = set()
    for reg in live_out:
        position = last_writer.get(reg.index)
        if position is not None and _keep(position, "last writer of a live-out register"):
            pinned.add(position)

    # Fixed point: verify every kept instruction's operands are reachable,
    # keeping one more candidate per failing walk.
    while True:
        routes, failure = derive_routes(body, removed_set, analysis, known_zero, config)
        if failure is None:
            break
        if not _keep_fallback(failure.blame, failure.near, failure.reason):
            if failure.instr is not None:
                raise OffloadError(
                    f"cannot reroute {failure.instr.name} (body position "
                    f"{failure.near}, slot {failure.detail}): {failure.reason};"
                    " nothing left to keep"
                )
            raise OffloadError(
                f"live-in register mm{failure.detail} diverges at the back edge"
                " with nothing left to keep"
            )

    # Re-expansion: the fixed point only ever grows the keep set (that is
    # what makes it terminate), but blame ordering is path-dependent — a
    # candidate kept early may become removable once the *real* culprit is
    # kept later (e.g. once the permute producing a zero byte stays, its
    # consumers route from it again).  Without this pass a more flexible
    # interconnect could paradoxically off-load less than a stricter one.
    # Greedily try returning each unpinned kept candidate to the removal
    # set; accept whenever the whole walk (including the back edge) still
    # validates.  Removals only grow here, so the loop terminates.
    while True:
        reexpanded = False
        for position in sorted(kept_reasons, reverse=True):
            if position in pinned:
                continue
            trial = removed_set | {position}
            trial_routes, failure = derive_routes(
                body, trial, analysis, known_zero, config
            )
            if failure is None:
                removed_set.add(position)
                del kept_reasons[position]
                routes = trial_routes
                reexpanded = True
        if not reexpanded:
            break

    # --- emit the transformed program -------------------------------------------
    removed_original_indices = sorted(start + position for position in removed_set)
    new_instructions: list[Instruction] = []
    index_map: dict[int, int] = {}
    for old_index, instr in enumerate(program.instructions):
        if old_index in set(removed_original_indices):
            continue
        index_map[old_index] = len(new_instructions)
        new_instructions.append(instr)
    new_labels: dict[str, int] = {}
    for label, old_index in program.labels.items():
        adjusted = old_index
        while adjusted not in index_map and adjusted < len(program.instructions):
            adjusted += 1  # label pointed at a removed instruction
        new_labels[label] = index_map.get(adjusted, len(new_instructions))
    transformed = Program(
        instructions=new_instructions, labels=new_labels, name=f"{program.name}+spu"
    )
    transformed.validate()

    # --- emit the SPU controller program -----------------------------------------
    builder = SPUProgramBuilder(config=config, name=f"{program.name}-spu-ctl")
    specs: list[StateSpec] = []
    routes_by_position: dict[int, dict[int, Route]] = {}
    new_position = 0
    for position in range(len(body)):
        if position in removed_set:
            continue
        slot_routes = routes.get(position)
        specs.append(StateSpec(routes=slot_routes) if slot_routes else StateSpec())
        if slot_routes:
            routes_by_position[new_position] = slot_routes
        new_position += 1
    builder.loop(specs, iterations)
    spu_program = builder.build()

    # --- emit the soundness certificate ------------------------------------------
    witnesses: list[PermuteWitness] = []
    for position in sorted(removed_set):
        consumers = tuple(
            (consumer, slot)
            for consumer in sorted(routes)
            for slot in sorted(routes[consumer])
            if analysis.def_of_slot[consumer].get(slot) == position
        )
        witnesses.append(
            PermuteWitness(
                position=position,
                instr=str(body[position]),
                consumers=consumers,
            )
        )
    certificate = OffloadCertificate(
        loop_label=loop_label,
        config_name=config.name,
        iterations=iterations,
        body=tuple(body),
        removed=tuple(sorted(removed_set)),
        routes={position: dict(slots) for position, slots in sorted(routes.items())},
        live_out=tuple(sorted({reg.index for reg in live_out})),
        known_zero=tuple(sorted({reg.index for reg in known_zero})),
        witnesses=tuple(witnesses),
    )

    return OffloadReport(
        program=transformed,
        spu_program=spu_program,
        removed=removed_original_indices,
        loop_start=start,
        loop_end=end,
        routes_by_position=routes_by_position,
        kept=kept_reasons,
        certificate=certificate,
    )
