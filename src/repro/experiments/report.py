"""One-shot evaluation report: every experiment in a single markdown file.

``python -m repro report`` runs every experiment in :data:`SECTIONS` — Tables
1–3, Figure 9 with the ASCII chart, the §3–§7 claims (die area, start-up
cost, energy, code size), then the ablations and extensions — and writes a
self-contained REPORT.md.  This is the artifact a reviewer diffs against
EXPERIMENTS.md.  ``repro table1|table2|table3|fig9`` print one entry of the
same list.  The report is a pure function of the simulator (no wall-clock),
so a fresh run is byte-identical to the committed copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.experiments import ablations, tables
from repro.experiments.suite import ExperimentSuite
from repro.experiments.tables import Experiment


@dataclass(frozen=True)
class Section:
    """One REPORT.md heading and the experiment rendered under it.

    A section without *run* is a bare group heading; *fenced* puts the
    experiment's text in a code block (prose sections set it False).
    """

    heading: str
    run: Callable[[ExperimentSuite], Experiment] | None = None
    fenced: bool = True


#: Every experiment, in report order.
SECTIONS: tuple[Section, ...] = (
    Section("## Table 1 — SPU configurations", tables.table1),
    Section("## Table 2 — branch statistics", tables.table2),
    Section("## Table 3 — decoupled-control overlap", tables.table3),
    Section("## Figure 9 — MMX vs MMX+SPU", tables.fig9),
    Section("## §5.1.1 die-area claim", tables.die_claim, fenced=False),
    Section("## §4 start-up cost", tables.startup_cost),
    Section("## Energy extension (§7 fetch/decode argument)", tables.energy),
    Section("## Code size (§3 ISA-change argument)", tables.code_size),
    Section("## Ablations and extensions"),
    Section("### Interconnect configuration sweep", ablations.ablation_configs),
    Section("### Controller state usage (§3)", ablations.ablation_controller),
    Section("### Controller depth sweep (§3)", ablations.controller_depth),
    Section("### Load-to-use latency (§5.2.1)", ablations.ablation_memory),
    Section("### U/V pairing", ablations.ablation_pairing),
    Section("### Extra SPU pipeline stage (§5.1.1)", ablations.ablation_pipe_stage),
    Section("### Branch predictors", ablations.ablation_predictor),
    Section("### SPU-aware recoding (§5.2.2)", ablations.ablation_tuned),
    Section("### Explicit-permute baseline (§6/§7)", ablations.baseline_vperm),
    Section("### Byte-granularity extension kernels", ablations.extension_kernels),
    Section("### Large register files (§6)", ablations.scaling),
)

#: Experiment runners by name (``table1``, ``fig9``, ``ablation_memory``, ...).
EXPERIMENTS: dict[str, Callable[[ExperimentSuite], Experiment]] = {
    section.run.__name__: section.run for section in SECTIONS if section.run
}


def generate_report(fast: bool = False, suite: ExperimentSuite | None = None) -> str:
    """Run every experiment in :data:`SECTIONS`; returns the report markdown.

    *suite* supplies (and caches) the kernel runs; by default a fresh
    :class:`ExperimentSuite` at *fast*.
    """
    suite = suite if suite is not None else ExperimentSuite(fast=fast)
    lines = [
        "# Evaluation report",
        "",
        "Generated by `repro report`"
        + (" (fast mode: FFT1024 shrunk to 256 points)" if suite.fast else "")
        + ".  Compare against EXPERIMENTS.md for the paper-vs-measured"
        " discussion.",
        "",
    ]
    for section in SECTIONS:
        lines.append(section.heading)
        if section.run is not None:
            text = section.run(suite).text
            lines.append(f"```\n{text}\n```" if section.fenced else text)
        lines.append("")
    return "\n".join(lines)


def write_report(path: str | Path = "REPORT.md", fast: bool = False) -> Path:
    """Generate and write the report; returns the path."""
    path = Path(path)
    path.write_text(generate_report(fast=fast))
    return path
