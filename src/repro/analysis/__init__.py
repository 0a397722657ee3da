"""Analysis tools: profiler, branch statistics, overlap accounting, reports."""

from repro.analysis.branch_stats import BranchRow, branch_row, scale_to_paper
from repro.analysis.overlap import OverlapRow, overlap_row
from repro.analysis.profiler import InstructionProfile, profile
from repro.analysis.report import format_table, pct, ratio, sci

__all__ = [
    "BranchRow",
    "branch_row",
    "scale_to_paper",
    "OverlapRow",
    "overlap_row",
    "InstructionProfile",
    "profile",
    "format_table",
    "pct",
    "ratio",
    "sci",
]

from repro.analysis.loops import LoopProfile, LoopRegion, find_loop_regions, profile_loops
from repro.analysis.chart import fig9_chart

__all__ += [
    "LoopProfile",
    "LoopRegion",
    "find_loop_regions",
    "profile_loops",
    "fig9_chart",
]

from repro.analysis.startup import StartupCost, measure_startup_cost

__all__ += ["StartupCost", "measure_startup_cost"]

from repro.analysis.findings import Finding, FindingCollector, Severity, sort_findings
from repro.analysis.rules import RULES, Rule, rule_severity
from repro.analysis.microprogram import analyze_program, simulate
from repro.analysis.schedule import analyze_schedule, chain_states
from repro.analysis.certificate import certificate_findings, resolve_config
from repro.analysis.suppressions import KNOWN_SILENT, Suppression
from repro.analysis.lint import (
    LintResult,
    exit_code,
    lint_all,
    lint_kernel,
    lint_program,
    lint_report,
    render_lint,
)
from repro.analysis.verdict import injection_verdict
from repro.analysis.fusion import FusionVerdict, fusion_verdict, schedule_blockers
from repro.analysis.absint import (
    FUSION_CERT_SCHEMA,
    FusionCertificate,
    ProgramCertification,
    certify_program,
    check_fusion_certificate,
    fusion_audit,
    fusion_audit_report,
)

__all__ += [
    "FusionVerdict",
    "fusion_verdict",
    "schedule_blockers",
    "Finding",
    "FindingCollector",
    "Severity",
    "sort_findings",
    "RULES",
    "Rule",
    "rule_severity",
    "analyze_program",
    "simulate",
    "analyze_schedule",
    "chain_states",
    "certificate_findings",
    "resolve_config",
    "KNOWN_SILENT",
    "Suppression",
    "LintResult",
    "exit_code",
    "lint_all",
    "lint_kernel",
    "lint_program",
    "lint_report",
    "render_lint",
    "injection_verdict",
    "FUSION_CERT_SCHEMA",
    "FusionCertificate",
    "ProgramCertification",
    "certify_program",
    "check_fusion_certificate",
    "fusion_audit",
    "fusion_audit_report",
]
