"""Superop legality engine: byte-granular abstract interpretation.

The tentpole of the static-analysis layer's second generation: per candidate
loop region of a decoded program, prove (or diagnose why not) that the body
is legal to fuse into a bulk superop — straight-line, counted, with a
statically bounded byte footprint, affine induction strides, and every
packed op inside the certified SWAR mask algebra.  Proofs are shipped as
schema-versioned :class:`FusionCertificate` records with an *independent*
replay checker (:mod:`repro.core.replay`); diagnoses are ``fx-*``
findings in the shared rule catalog.

See ``docs/static-analysis.md`` for the rule-by-rule catalog and the
certificate format.
"""

from repro.analysis.absint.audit import (
    FUSION_AUDIT_SCHEMA,
    fusion_audit,
    fusion_audit_report,
)
from repro.analysis.absint.certificate import FusionCertificate
from repro.analysis.absint.domain import (
    Affine,
    ByteWord,
    EXACT_SEMS,
    MODULAR_SEMS,
    SATURATING_SEMS,
    swar_status,
)
from repro.analysis.absint.interp import (
    BLOCKING_RULES,
    ProgramCertification,
    RegionCertification,
    certify_program,
    loop_entry_state,
)
from repro.core.replay import (
    FUSION_CERT_SCHEMA,
    REPLAY_TRIP_LIMIT,
    check_fusion_certificate,
)

__all__ = [
    "Affine",
    "BLOCKING_RULES",
    "ByteWord",
    "EXACT_SEMS",
    "FUSION_AUDIT_SCHEMA",
    "FUSION_CERT_SCHEMA",
    "FusionCertificate",
    "MODULAR_SEMS",
    "ProgramCertification",
    "REPLAY_TRIP_LIMIT",
    "RegionCertification",
    "SATURATING_SEMS",
    "certify_program",
    "check_fusion_certificate",
    "fusion_audit",
    "fusion_audit_report",
    "loop_entry_state",
    "swar_status",
]
