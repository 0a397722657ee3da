"""The lint rule catalog: every diagnostic ``repro lint`` can emit.

Three families, keyed by prefix:

``mp-*``
    Microprogram structure (:mod:`repro.analysis.microprogram`): control-flow
    and counter properties of one :class:`~repro.core.program.SPUProgram`
    plus encoding/route legality under a crossbar configuration.
``sa-*``
    Schedule agreement (:mod:`repro.analysis.schedule`): the kernel loop
    body versus its controller program — the static analogue of the fault
    taxonomy's ``go_race``/``counter_skew`` hazards.
``oc-*``
    Offload certificates (:mod:`repro.analysis.certificate`): re-verification
    of the permute off-load pass's machine-checkable evidence.
``fx-*``
    Fusion legality (:mod:`repro.analysis.absint`): the byte-granular
    abstract interpreter's superop diagnoses — why a loop body cannot be
    certified for bulk fused execution — plus the replay checks guarding
    every issued :class:`~repro.analysis.absint.FusionCertificate`.

Severities are fixed per rule (see :class:`~repro.analysis.findings.Severity`
for what each level means); the catalog is the single source of truth the
docs table in ``docs/static-analysis.md`` mirrors.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.findings import Severity


@dataclass(frozen=True)
class Rule:
    """Catalog entry: id, fixed severity, one-line summary."""

    id: str
    severity: Severity
    summary: str


_CATALOG: tuple[Rule, ...] = (
    # ---- microprogram structure (mp-*) -------------------------------------
    Rule("mp-entry-invalid", Severity.ERROR,
         "Entry state is undefined or is the reserved idle state."),
    Rule("mp-next-undefined", Severity.ERROR,
         "A next0/next1 pointer targets an undefined (never-programmed) state."),
    Rule("mp-unreachable-state", Severity.WARN,
         "A programmed state is unreachable from the entry state."),
    Rule("mp-no-path-to-idle", Severity.ERROR,
         "No path from a reachable state to idle-127: the SPU can never retire."),
    Rule("mp-nontermination", Severity.ERROR,
         "Concrete walk from GO revisits a (state, counters) configuration "
         "without reaching idle: the program provably never terminates."),
    Rule("mp-counter-underflow", Severity.ERROR,
         "A used loop counter is initialized non-positive, so the first "
         "decrement underflows (the §4 semantics need a positive reload)."),
    Rule("mp-counter-misaligned", Severity.WARN,
         "Counter initial value is not a multiple of its loop's cycle "
         "length: the final pass exits mid-body (skipped-decrement drift)."),
    Rule("mp-counter-unused", Severity.INFO,
         "A counter has a positive initial value but no state selects it."),
    Rule("mp-counter-nesting", Severity.WARN,
         "A next1-cycle mixes both counters: illegal nesting — the paper's "
         "zero-overhead scheme dedicates one CNTRx per loop level."),
    Rule("mp-encode-roundtrip", Severity.ERROR,
         "encode_state/decode_state round trip does not reproduce the state "
         "under the target configuration."),
    Rule("mp-route-illegal", Severity.ERROR,
         "A route selector or mode is illegal under the target crossbar "
         "configuration (out-of-window byte, halfword tearing, bad mode)."),
    Rule("mp-route-fanout", Severity.WARN,
         "One input granule drives more output granules than one operand "
         "holds: exceeds the modeled crossbar driver fanout budget."),
    Rule("mp-port-budget", Severity.ERROR,
         "A state's routes reference more distinct input ports than the "
         "crossbar configuration physically provides."),
    Rule("mp-validate-skipped", Severity.INFO,
         "SPUProgram.validate ran without a crossbar configuration; the "
         "named checks were skipped, not passed."),
    # ---- schedule agreement (sa-*) -----------------------------------------
    Rule("sa-loop-length", Severity.ERROR,
         "Controller loop has a different state count than the kernel loop "
         "body has instructions: per-iteration schedules cannot line up."),
    Rule("sa-counter-total", Severity.ERROR,
         "Counter initial value differs from iterations x body length: the "
         "controller retires early or runs past the loop."),
    Rule("sa-schedule-drift", Severity.ERROR,
         "Symbolic walk diverges: the state emitted at some dynamic "
         "instruction is not the state the schedule requires (the static "
         "analogue of a counter_skew injection)."),
    Rule("sa-go-before-load", Severity.ERROR,
         "The GO store activates a controller context with no program "
         "loaded for it."),
    Rule("sa-missing-go", Severity.WARN,
         "An accelerated loop (one with an off-load report) has no GO "
         "store before its label: the SPU never activates for it."),
    Rule("sa-go-lead-in", Severity.ERROR,
         "Instructions between the GO store and the loop label would be "
         "stepped by the already-active controller, skewing the schedule."),
    Rule("sa-go-inside-loop", Severity.ERROR,
         "A GO store inside a loop body re-activates the controller every "
         "iteration, resetting counters mid-flight."),
    Rule("sa-route-slot-mismatch", Severity.WARN,
         "A state routes an operand slot its paired instruction does not "
         "source from MMX registers: the route can never take effect."),
    Rule("sa-route-on-straight", Severity.WARN,
         "A routed state pairs with a non-MMX instruction; routes_for "
         "silently drops the routes (likely an off-by-one in the schedule)."),
    Rule("sa-go-race", Severity.ERROR,
         "GO bit raced ahead of the controller program upload: the SPU "
         "steps stale control memory (dynamic hazard; flagged per "
         "injection by the fault-campaign verdict)."),
    # ---- offload certificates (oc-*) ---------------------------------------
    Rule("oc-cert-stale", Severity.ERROR,
         "Certificate does not match the kernel's current loop body: the "
         "evidence re-verified is not the code that ships."),
    Rule("oc-not-permute", Severity.ERROR,
         "A certificate claims removal of an instruction that is not a "
         "pure permute (value-transforming work cannot be off-loaded)."),
    Rule("oc-live-out-removed", Severity.ERROR,
         "A removed permute was the last writer of a live-out register: "
         "post-loop readers see a stale architectural value."),
    Rule("oc-route-illegal", Severity.ERROR,
         "A certificate route is illegal under the crossbar configuration "
         "it names."),
    Rule("oc-byte-mismatch", Severity.ERROR,
         "Replaying the transformed body, a recorded route does not hold "
         "the byte symbol the original computation requires."),
    Rule("oc-backedge-mismatch", Severity.ERROR,
         "A live-in register's bytes diverge at the loop back edge in the "
         "transformed body: iteration 2 reads wrong data."),
    Rule("oc-program-mismatch", Severity.ERROR,
         "The controller program's per-state routes disagree with the "
         "certificate's routes for the corresponding body position."),
    # ---- fusion legality (fx-*) --------------------------------------------
    Rule("fx-internal-branch", Severity.WARN,
         "The loop body contains a branch besides the closing back edge: "
         "alternate internal paths break the straight-line fused body."),
    Rule("fx-side-exit", Severity.WARN,
         "A body branch targets outside the loop region: a fused closure "
         "could not take the early exit mid-iteration."),
    Rule("fx-nested-region", Severity.WARN,
         "The loop region overlaps another labeled region: per-iteration "
         "fusion needs a single innermost body."),
    Rule("fx-trip-count", Severity.WARN,
         "No concrete trip count is derivable from the closing branch and "
         "the loop-entry constants: bulk execution cannot be sized."),
    Rule("fx-induction-step", Severity.WARN,
         "An address-forming register is updated non-affinely inside the "
         "body, so its per-iteration stride is unknown."),
    Rule("fx-mem-footprint", Severity.WARN,
         "A memory access address is not statically resolvable as "
         "entry-constant + iteration x stride: the byte footprint is "
         "unbounded."),
    Rule("fx-mmio-store", Severity.WARN,
         "A body store may hit the SPU MMIO window: device side effects "
         "cannot be replayed in bulk."),
    Rule("fx-carried-blocking", Severity.WARN,
         "A non-affine loop-carried scalar feeds addressing or the loop "
         "branch: the dependence blocks any static footprint."),
    Rule("fx-mem-carried", Severity.INFO,
         "A store's byte range reaches a later iteration's load: "
         "loop-carried memory dependence (recorded; per-iteration fusion "
         "preserves it, cross-iteration batching must not reorder it)."),
    Rule("fx-lane-overflow", Severity.INFO,
         "A modular packed accumulator may wrap within the derived trip "
         "count: batched execution must renormalize lanes per iteration."),
    Rule("fx-swar-width", Severity.ERROR,
         "A packed op's lane width is outside the certified SWAR mask "
         "algebra (repro.simd.swar MASKS): no carry-break proof exists."),
    Rule("fx-swar-shift", Severity.WARN,
         "A packed shift takes its count from a register: the SWAR "
         "carry-break masks are precomputed per immediate count only."),
    Rule("fx-cert-schema", Severity.ERROR,
         "A fusion certificate carries an unknown schema version: the "
         "replay checker cannot interpret its claims."),
    Rule("fx-cert-stale", Severity.ERROR,
         "A fusion certificate does not match the shipped loop body: the "
         "evidence replay-checked is not the code that runs."),
    Rule("fx-cert-mismatch", Severity.ERROR,
         "Concretely replaying the loop body contradicts a recorded "
         "certificate fact (footprint, stride, trip count, carried class "
         "or SWAR status)."),
)

#: id -> Rule, the importable catalog.
RULES: dict[str, Rule] = {rule.id: rule for rule in _CATALOG}


def rule_severity(rule_id: str) -> Severity:
    return RULES[rule_id].severity
