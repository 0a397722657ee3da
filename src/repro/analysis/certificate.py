"""Offload-soundness certifier: re-verify the permute off-load's evidence.

The off-load pass emits an :class:`~repro.core.dataflow.OffloadCertificate`
per accelerated loop — the removal set, the exact byte routes, and per
deleted permute the consumer routes reproducing its byte movement.  This
module reports :func:`repro.core.replay.check_certificate`'s issues as
``oc-*`` findings and adds the one check the replay cannot do alone:
``oc-program-mismatch``, comparing the certificate's routes against the
*controller program that actually ships* — the synthesized
:class:`~repro.core.program.SPUProgram` — state by state.  That closing of
the loop is what catches a silent route-selector flip in control memory: the
certificate still proves the intended routes sound, but the program no
longer implements them.
"""

from __future__ import annotations

from repro.errors import RouteError
from repro.analysis.findings import Finding, FindingCollector
from repro.analysis.schedule import chain_states
from repro.core.dataflow import OffloadCertificate
from repro.core.interconnect import (
    CONFIG_D_MODED,
    CONFIGS,
    CrossbarConfig,
)
from repro.core.program import SPUProgram
from repro.core.replay import ISSUE_RULES, check_certificate


def resolve_config(name: str) -> CrossbarConfig:
    """Config lookup that also covers the §6 moded extension (``D+``)."""
    if name == CONFIG_D_MODED.name:
        return CONFIG_D_MODED
    return CONFIGS[name.upper()]


def certificate_findings(
    certificate: OffloadCertificate,
    spu_program: SPUProgram | None = None,
    subject: str | None = None,
) -> list[Finding]:
    """All ``oc-*`` findings for one certificate.

    With *spu_program* supplied, additionally cross-checks the certificate's
    routes against the controller program's per-state routes
    (``oc-program-mismatch``).
    """
    out = FindingCollector()
    label = subject if subject is not None else certificate.loop_label
    config = resolve_config(certificate.config_name)

    for issue in check_certificate(certificate, config):
        out.add(
            ISSUE_RULES[issue.code], "error", f"{label} ({issue.location})",
            issue.message,
            fix_hint="re-run the off-load pass; a certificate must describe "
            "exactly the transformation that ships",
        )
    if spu_program is not None:
        out.extend(
            _program_agreement(certificate, spu_program, label, config)
        )
    return out.findings


def _program_agreement(
    certificate: OffloadCertificate,
    spu_program: SPUProgram,
    label: str,
    config: CrossbarConfig,
) -> list[Finding]:
    """``oc-program-mismatch``: certificate routes vs shipped control words."""
    out = FindingCollector()
    chain = chain_states(spu_program)
    kept = certificate.kept_positions
    if len(chain) != len(kept):
        out.add(
            "oc-program-mismatch",
            "error",
            f"{label} (context program {spu_program.name!r})",
            f"controller loop has {len(chain)} states but the certificate "
            f"keeps {len(kept)} body instructions: the program cannot "
            "implement the certified schedule",
            fix_hint="one controller state per kept body instruction",
        )
        return out.findings
    for index, (state_index, position) in enumerate(zip(chain, kept)):
        state = spu_program.states[state_index]
        expected: dict[int, tuple] = {}
        for slot, byte_route in certificate.routes.get(position, {}).items():
            try:
                expected[slot] = config.check_byte_route(tuple(byte_route))
            except RouteError:
                continue  # oc-route-illegal already reported by the checker
        for slot in sorted(set(expected) | set(state.routes)):
            want = expected.get(slot)
            have = state.routes.get(slot)
            if want != have:
                out.add(
                    "oc-program-mismatch",
                    "error",
                    f"{label}+{position} (state {state_index} slot {slot})",
                    "certificate route "
                    + (f"{want}" if want is not None else "(straight)")
                    + " disagrees with the shipped control word's "
                    + (f"{have}" if have is not None else "(straight)")
                    + ": control memory does not implement the certified "
                    "byte movement",
                    fix_hint="regenerate the controller program from the "
                    "certified routes (or re-upload uncorrupted control "
                    "memory)",
                )
    return out.findings
