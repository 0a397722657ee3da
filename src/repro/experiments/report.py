"""One-shot evaluation report: every experiment in a single markdown file.

``python -m repro report`` runs the full evaluation — Tables 1–3, Figure 9
with the ASCII chart, and the quantitative extensions (start-up cost,
energy, code size) — and writes a self-contained REPORT.md.  This is the
artifact a reviewer diffs against EXPERIMENTS.md.
The report is a pure function of the simulator (no wall-clock), so a fresh
run is byte-identical to the committed copy.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import (
    fig9_chart,
    format_table,
    measure_startup_cost,
    pct,
    ratio,
)
from repro.experiments.suite import ExperimentSuite
from repro.experiments.tables import fig9, table1, table2, table3
from repro.hw import kernel_energy, spu_cost
from repro.core import CONFIG_D
from repro.isa import encode_subword_addressing, program_size


def _code_block(text: str) -> str:
    return f"```\n{text}\n```"


def generate_report(fast: bool = False) -> str:
    """Run the full evaluation; returns the report markdown."""
    suite = ExperimentSuite(fast=fast)
    sections: list[str] = [
        "# Evaluation report",
        "",
        "Generated by `repro report`"
        + (" (fast mode: FFT1024 shrunk to 256 points)" if fast else "")
        + ".  Compare against EXPERIMENTS.md for the paper-vs-measured"
        " discussion.",
        "",
        "## Table 1 — SPU configurations",
        _code_block(table1().text),
        "",
        "## Table 2 — branch statistics",
        _code_block(table2(suite).text),
        "",
        "## Table 3 — decoupled-control overlap",
        _code_block(table3(suite).text),
        "",
        "## Figure 9 — MMX vs MMX+SPU",
        _code_block(fig9(suite).text + "\n\n" + fig9_chart(suite.comparisons())),
    ]

    # Die-area claim.
    cost = spu_cost(CONFIG_D)
    sections += [
        "",
        "## §5.1.1 die-area claim",
        f"Configuration D: {cost.total_area_mm2:.2f} mm² at 0.25µm/2LM → "
        f"{cost.scaled_area_mm2:.3f} mm² at 0.18µm/6LM = "
        f"**{cost.die_fraction:.2%}** of the 106 mm² Pentium III die "
        "(paper: <1%).",
    ]

    # Start-up cost and energy for the kernels already in the suite.
    startup_rows = []
    energy_rows = []
    size_rows = []
    for name in suite.kernel_names:
        kernel = suite.kernel(name)
        startup = measure_startup_cost(kernel)
        startup_rows.append([
            name, startup.state_words, startup.upload_cycles,
            startup.cycles_saved_per_invocation,
            ratio(startup.break_even_invocations, 2),
        ])
        energy = kernel_energy(kernel)
        energy_rows.append([
            name,
            ratio(energy.mmx.total_pj / 1e3, 1),
            ratio(energy.spu.total_pj / 1e3, 1),
            pct(energy.savings_fraction, 1),
        ])
        mmx_program = kernel.mmx_program()
        spu_program, _ = kernel.spu_programs()
        size_rows.append([
            name,
            program_size(mmx_program),
            program_size(spu_program),
            encode_subword_addressing(mmx_program),
        ])
    sections += [
        "",
        "## §4 start-up cost",
        _code_block(format_table(
            ["Kernel", "State words", "Upload cycles", "Saved/invocation",
             "Break-even"],
            startup_rows,
        )),
        "",
        "## Energy extension (§7 fetch/decode argument)",
        _code_block(format_table(
            ["Kernel", "MMX nJ", "MMX+SPU nJ", "Savings"], energy_rows,
        )),
        "",
        "## Code size (§3 ISA-change argument)",
        _code_block(format_table(
            ["Kernel", "MMX bytes", "MMX+SPU bytes", "Sub-word-addr bytes"],
            size_rows,
        )),
        "",
    ]
    return "\n".join(sections)


def write_report(path: str | Path = "REPORT.md", fast: bool = False) -> Path:
    """Generate and write the report; returns the path."""
    path = Path(path)
    path.write_text(generate_report(fast=fast))
    return path
