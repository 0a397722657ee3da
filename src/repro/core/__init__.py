"""The SPU: the paper's primary contribution.

Unified sub-word register, crossbar interconnect (configurations A-D),
decoupled controller with zero-overhead loop counters, memory-mapped
programming interface, high-level program builder, pipeline attachment and
the automatic permute off-load compiler pass.
"""

from repro.core.spu_register import (
    SPU_REGISTER_BITS,
    SPU_REGISTER_BYTES,
    SPURegister,
    byte_address,
    halfword_address,
)
from repro.core.interconnect import (
    CONFIG_A,
    CONFIG_B,
    CONFIG_C,
    CONFIG_D,
    CONFIG_D_MODED,
    CONFIGS,
    MODES,
    split_entry,
    OPERAND_BUSES,
    CrossbarConfig,
    OperandRoute,
    WordPlan,
    get_config,
    route_plan,
)
from repro.core.program import (
    DEFAULT_NUM_STATES,
    ROUTED_SLOTS,
    SPUProgram,
    SPUState,
    decode_program,
    decode_state,
    encode_program,
    encode_state,
    state_word_bits,
)
from repro.core.controller import ControllerStats, SPUController
from repro.core.builder import (
    STRAIGHT,
    ByteSpec,
    SPUProgramBuilder,
    StateSpec,
    byte_route,
    halfword_route,
    identity_route,
)
from repro.core.mmio import (
    DEFAULT_MMIO_BASE,
    MMIO_WINDOW_BYTES,
    REG_CNTR0,
    REG_CNTR1,
    REG_CONFIG,
    REG_ENTRY,
    REG_STATUS,
    STATE_BASE,
    STATE_STRIDE,
    SPUMMIO,
    emit_upload,
)
from repro.core.integration import AttachedSPU, AttachmentStats, attach_spu

__all__ = [
    "SPU_REGISTER_BITS",
    "SPU_REGISTER_BYTES",
    "SPURegister",
    "byte_address",
    "halfword_address",
    "CONFIG_A",
    "CONFIG_B",
    "CONFIG_C",
    "CONFIG_D",
    "CONFIG_D_MODED",
    "CONFIGS",
    "MODES",
    "split_entry",
    "OPERAND_BUSES",
    "CrossbarConfig",
    "OperandRoute",
    "WordPlan",
    "get_config",
    "route_plan",
    "DEFAULT_NUM_STATES",
    "ROUTED_SLOTS",
    "SPUProgram",
    "SPUState",
    "decode_program",
    "decode_state",
    "encode_program",
    "encode_state",
    "state_word_bits",
    "ControllerStats",
    "SPUController",
    "STRAIGHT",
    "ByteSpec",
    "SPUProgramBuilder",
    "StateSpec",
    "byte_route",
    "halfword_route",
    "identity_route",
    "DEFAULT_MMIO_BASE",
    "MMIO_WINDOW_BYTES",
    "REG_CNTR0",
    "REG_CNTR1",
    "REG_CONFIG",
    "REG_ENTRY",
    "REG_STATUS",
    "STATE_BASE",
    "STATE_STRIDE",
    "SPUMMIO",
    "emit_upload",
    "AttachedSPU",
    "AttachmentStats",
    "attach_spu",
]

from repro.core.offload import (
    OffloadError,
    OffloadReport,
    byte_sources,
    find_loop,
    is_pure_permute,
    mmx_source_slots,
    offload_loop,
)

__all__ += [
    "OffloadError",
    "OffloadReport",
    "byte_sources",
    "find_loop",
    "is_pure_permute",
    "mmx_source_slots",
    "offload_loop",
]

from repro.core.dataflow import (
    OffloadCertificate,
    OriginalAnalysis,
    PermuteWitness,
    analyze_original,
    derive_routes,
)
from repro.core.mmxbytes import ByteFacts, ByteWalk, SymbolWalk, byte_facts
from repro.core.replay import CertIssue, check_certificate

__all__ += [
    "ByteFacts",
    "ByteWalk",
    "CertIssue",
    "OffloadCertificate",
    "OriginalAnalysis",
    "PermuteWitness",
    "SymbolWalk",
    "analyze_original",
    "byte_facts",
    "check_certificate",
    "derive_routes",
]

from repro.core.debug import render_program, render_state

__all__ += ["render_program", "render_state"]

from repro.core.autopilot import (
    CompileResult,
    DetectedLoop,
    detect_counted_loops,
    inject_plumbing,
    offload_program,
)

__all__ += [
    "CompileResult",
    "DetectedLoop",
    "detect_counted_loops",
    "inject_plumbing",
    "offload_program",
]
