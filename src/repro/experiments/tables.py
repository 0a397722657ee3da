"""Experiment runners: regenerate every table and figure of the evaluation.

Each function takes the shared :class:`ExperimentSuite` and returns
structured rows (model/measured vs published) and a rendered text table.
:mod:`repro.experiments.report` lists them in REPORT.md order; ``repro
report`` renders them all and ``repro table1|table2|table3|fig9`` prints one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis import (
    branch_row,
    fig9_chart,
    format_table,
    measure_startup_cost,
    overlap_row,
    pct,
    ratio,
    scale_to_paper,
    sci,
)
from repro.core import CONFIG_D, CONFIGS
from repro.experiments import paper_data
from repro.experiments.suite import ExperimentSuite
from repro.hw import kernel_energy, spu_cost
from repro.isa import encode_subword_addressing, program_size


@dataclass
class Experiment:
    """A regenerated table/figure: rows plus its rendered comparison.

    *data* keeps the unrounded measurements behind the rows (run stats,
    energy and start-up records) for checks that need exact values.
    """

    name: str
    headers: list[str]
    rows: list[list[object]]
    text: str
    data: dict = field(default_factory=dict)


# --- Table 1 -------------------------------------------------------------------


def table1(suite: ExperimentSuite | None = None) -> Experiment:
    """Area/delay for SPU configurations A-D (model vs published; no runs)."""
    headers = [
        "Config", "Area mm2 (model)", "(paper)", "Delay ns (model)", "(paper)",
        "CtlMem mm2 (model)", "(paper)", "CtlMem bits", "Die % @0.18um",
    ]
    rows = []
    for name, config in CONFIGS.items():
        published = paper_data.TABLE1[name]
        model = spu_cost(config, calibrated=False)
        rows.append([
            name,
            ratio(model.interconnect_area_mm2, 2),
            published["interconnect_area_mm2"],
            ratio(model.interconnect_delay_ns, 2),
            published["interconnect_delay_ns"],
            ratio(model.control_memory_mm2, 2),
            published["control_memory_mm2"],
            model.control_memory_bits,
            pct(model.die_fraction),
        ])
    text = format_table(headers, rows, title="Table 1: SPU configuration area/delay")
    return Experiment("table1", headers, rows, text)


# --- Table 2 ----------------------------------------------------------------------


def table2(suite: ExperimentSuite) -> Experiment:
    """Branch statistics per kernel, scaled to the paper's run lengths."""
    headers = [
        "Algorithm", "Clocks (scaled)", "(paper)", "Branches (scaled)", "(paper)",
        "Missed (scaled)", "(paper)", "Missed% (measured)", "(paper)",
    ]
    rows = []
    for name in suite.kernel_names:
        comparison = suite.comparison(name)
        published = paper_data.TABLE2[name]
        measured = branch_row(name, comparison.mmx, published["description"])
        scaled = scale_to_paper(measured, published["clocks"])
        rows.append([
            name,
            sci(scaled.clocks),
            sci(published["clocks"]),
            sci(scaled.branches),
            sci(published["branches"]),
            sci(scaled.missed),
            sci(published["missed"]),
            pct(measured.missed_pct, 3),
            pct(published["missed_pct"], 3),
        ])
    text = format_table(headers, rows, title="Table 2: branch statistics on the MMX")
    return Experiment("table2", headers, rows, text)


# --- Table 3 --------------------------------------------------------------------------


def table3(suite: ExperimentSuite) -> Experiment:
    """Decoupled-control overlap per kernel."""
    headers = [
        "Algorithm", "CyclesOverlapped", "(paper)", "%MMX instr", "(paper)",
        "%Total instr", "(paper)", "Offload rate",
    ]
    rows = []
    for name in suite.kernel_names:
        comparison = suite.comparison(name)
        published = paper_data.TABLE3[name]
        row = overlap_row(comparison)
        scale = published["cycles_overlapped"] and (
            paper_data.TABLE2[name]["clocks"] / comparison.mmx.cycles
        )
        rows.append([
            name,
            sci(row.cycles_overlapped * scale),
            sci(published["cycles_overlapped"]),
            pct(row.pct_mmx_instr),
            pct(published["pct_mmx_instr"]),
            pct(row.pct_total_instr),
            pct(published["pct_total_instr"]),
            pct(row.offload_rate),
        ])
    text = format_table(headers, rows, title="Table 3: cycles overlapped through decoupled control")
    return Experiment("table3", headers, rows, text)


# --- Figure 9 -----------------------------------------------------------------------------


def fig9(suite: ExperimentSuite) -> Experiment:
    """Cycles executed, MMX vs MMX+SPU, per kernel (the headline result)."""
    headers = [
        "Algorithm", "MMX cycles", "MMX+SPU cycles", "Speedup",
        "MMX busy% (MMX)", "MMX busy% (SPU)", "Instr saved",
    ]
    rows = []
    for name in suite.kernel_names:
        comparison = suite.comparison(name)
        rows.append([
            name,
            comparison.mmx.cycles,
            comparison.spu.cycles,
            ratio(comparison.speedup),
            pct(comparison.mmx.mmx_busy_fraction, 1),
            pct(comparison.spu.mmx_busy_fraction, 1),
            comparison.instructions_saved,
        ])
    text = format_table(
        headers,
        rows,
        title=(
            "Figure 9: cycles on MMX vs MMX+SPU "
            f"(paper: speedups {paper_data.FIG9_SPEEDUP_RANGE[0]:.2f}-"
            f"{paper_data.FIG9_SPEEDUP_RANGE[1]:.2f}, FIR ~{paper_data.FIG9_FIR_SPEEDUP:.2f}, "
            "FFT/IIR flat, DCT/MatMul/Transpose highest)"
        ),
    )
    return Experiment("fig9", headers, rows,
                      text + "\n\n" + fig9_chart(suite.comparisons()))


# --- §5.1.1, §4, §7 and §3 claims ---------------------------------------------------


def die_claim(suite: ExperimentSuite | None = None) -> Experiment:
    """Configuration D's share of the Pentium III die (paper: <1%; no runs)."""
    cost = spu_cost(CONFIG_D)
    headers = ["Area mm2 @0.25um", "Area mm2 @0.18um", "Die fraction"]
    rows = [[ratio(cost.total_area_mm2, 2), ratio(cost.scaled_area_mm2, 3),
             pct(cost.die_fraction)]]
    text = (
        f"Configuration D: {cost.total_area_mm2:.2f} mm² at 0.25µm/2LM → "
        f"{cost.scaled_area_mm2:.3f} mm² at 0.18µm/6LM = "
        f"**{cost.die_fraction:.2%}** of the 106 mm² Pentium III die "
        "(paper: <1%)."
    )
    return Experiment("die_claim", headers, rows, text, {"cost": cost})


def startup_cost(suite: ExperimentSuite) -> Experiment:
    """MMIO upload cost of each kernel's SPU programs vs its per-run saving."""
    headers = ["Kernel", "State words", "Upload cycles", "Saved/invocation",
               "Break-even"]
    costs = {name: measure_startup_cost(suite.kernel(name), suite.comparison(name))
             for name in suite.kernel_names}
    rows = [
        [name, cost.state_words, cost.upload_cycles,
         cost.cycles_saved_per_invocation, ratio(cost.break_even_invocations, 2)]
        for name, cost in costs.items()
    ]
    return Experiment("startup_cost", headers, rows,
                      format_table(headers, rows), costs)


def energy(suite: ExperimentSuite) -> Experiment:
    """Fetch/decode energy saved by off-loading vs the SPU's routing energy."""
    headers = ["Kernel", "MMX nJ", "MMX+SPU nJ", "Savings"]
    energies = {name: kernel_energy(suite.kernel(name), suite.comparison(name))
                for name in suite.kernel_names}
    rows = [
        [name, ratio(result.mmx.total_pj / 1e3, 1),
         ratio(result.spu.total_pj / 1e3, 1), pct(result.savings_fraction, 1)]
        for name, result in energies.items()
    ]
    return Experiment("energy", headers, rows, format_table(headers, rows),
                      energies)


def code_size(suite: ExperimentSuite) -> Experiment:
    """Static code bytes: MMX, MMX+SPU and sub-word operand addressing."""
    headers = ["Kernel", "MMX bytes", "MMX+SPU bytes", "Sub-word-addr bytes"]
    rows = []
    for name in suite.kernel_names:
        kernel = suite.kernel(name)
        mmx_program = kernel.mmx_program()
        spu_program, _ = kernel.spu_programs()
        rows.append([name, program_size(mmx_program), program_size(spu_program),
                     encode_subword_addressing(mmx_program)])
    return Experiment("code_size", headers, rows, format_table(headers, rows))
