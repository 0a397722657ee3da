"""Ablations and extensions: design-point studies beyond the paper's tables.

Each runner takes the shared :class:`ExperimentSuite` and returns an
:class:`Experiment`; REPORT.md renders them under "Ablations and
extensions".  Kernels come from :meth:`ExperimentSuite.kernel`, and a run at
the paper's design point (configuration D, default pipeline) is the suite's
cached comparison, so the report pays for each such run once.  Every run's
output is checked exactly against the kernel's reference: a mismatch raises
:class:`~repro.errors.KernelError` instead of reaching a table.
"""

from __future__ import annotations

from repro.analysis import format_table, pct, ratio
from repro.core import CONFIG_A, CONFIG_B, CONFIG_D, CONFIGS, CrossbarConfig
from repro.cpu import PipelineConfig, RunStats, make_predictor
from repro.experiments.suite import ExperimentSuite
from repro.experiments.tables import Experiment
from repro.hw import control_memory_area_mm2, control_memory_bits, design_options, spu_cost
from repro.kernels import Kernel, KernelComparison, make_kernel, mismatching_elements

#: Half-word kernels the configuration, pairing and pipeline studies sweep.
HALF_WORD = ("DotProduct", "MatrixTranspose", "FIR12", "DCT")


def _compare(suite: ExperimentSuite, name: str, config: CrossbarConfig = CONFIG_D,
             **pipeline) -> KernelComparison:
    """*name* on *config* with *pipeline* overrides (SPU side adds the stage)."""
    mmx = PipelineConfig(**pipeline)
    if config == CONFIG_D and mmx == PipelineConfig():
        return suite.comparison(name)
    kernel = suite.kernel(name) if config == CONFIG_D else make_kernel(name, config=config)
    return kernel.verify(mmx, PipelineConfig(extra_stage=True, **pipeline))


def _checked(kernel: Kernel, label: str, run: tuple[RunStats, object]) -> RunStats:
    """The stats of a ``(stats, output)`` *run* whose output is exact."""
    stats, output = run
    kernel.check(label, mismatching_elements(output, kernel.reference()))
    return stats


def ablation_configs(suite: ExperimentSuite) -> Experiment:
    """Permutes off-loaded and speedup under each interconnect A-D (§5.1.1)."""
    headers = ["Config", "Kernel", "Permutes removed", "Speedup", "SPU mm2",
               "Delay ns"]
    rows = []
    for config_name, config in CONFIGS.items():
        cost = spu_cost(config)
        for name in HALF_WORD:
            comparison = _compare(suite, name, config)
            rows.append([
                config_name, name, comparison.removed_permutes,
                ratio(comparison.speedup), ratio(cost.total_area_mm2, 2),
                ratio(cost.interconnect_delay_ns, 2),
            ])
    text = format_table(headers, rows, title=(
        "Ablation: interconnect configuration vs off-load coverage"))
    return Experiment("ablation_configs", headers, rows, text)


#: Kernels whose controller programs the K-state study sizes (§3).
CONTROLLER_KERNELS = ("DotProduct", "MatrixTranspose", "FIR12", "MatrixMultiply",
                      "DCT", "IIR", "FFT128")


def ablation_controller(suite: ExperimentSuite) -> Experiment:
    """Controller states each kernel needs: its largest context plus idle."""
    headers = ["Kernel", "Controller states needed"]
    rows = []
    for name in CONTROLLER_KERNELS:
        _, controller_programs = suite.kernel(name).spu_programs()
        rows.append([name, max(program.state_count()
                               for _, program in controller_programs) + 1])
    text = format_table(headers, rows,
                        title="Ablation: controller state usage per kernel")
    return Experiment("ablation_controller", headers, rows, text)


def controller_depth(suite: ExperimentSuite) -> Experiment:
    """Kernels covered and control-memory cost as the depth K sweeps (§3)."""
    needed = [states for _, states in ablation_controller(suite).rows]
    headers = ["K", "Kernels covered", "Control bits", "Area mm2"]
    rows = [
        [num_states,
         f"{sum(1 for states in needed if states <= num_states)}/{len(needed)}",
         control_memory_bits(CONFIG_D, num_states=num_states),
         ratio(control_memory_area_mm2(CONFIG_D, num_states=num_states,
                                       calibrated=False), 3)]
        for num_states in (16, 32, 64, 128, 256)
    ]
    text = format_table(headers, rows, title="Controller depth sweep (config D)")
    return Experiment("controller_depth", headers, rows, text)


MEMORY_KERNELS = ("DotProduct", "MatrixTranspose", "DCT")
LATENCIES = (1, 2, 4, 8)


def ablation_memory(suite: ExperimentSuite) -> Experiment:
    """SPU benefit as load-to-use latency leaves the L1 assumption (§5.2.1)."""
    results = {(name, latency): _compare(suite, name, memory_latency=latency)
               for name in MEMORY_KERNELS for latency in LATENCIES}
    headers = ["Kernel", "Load latency", "MMX cycles", "SPU cycles", "Speedup"]
    rows = [
        [name, latency, comparison.mmx.cycles, comparison.spu.cycles,
         ratio(comparison.speedup)]
        for (name, latency), comparison in results.items()
    ]
    text = format_table(headers, rows, title=(
        "Ablation: SPU benefit vs load-to-use latency (L1 assumption)"))
    return Experiment("ablation_memory", headers, rows, text, results)


def ablation_pairing(suite: ExperimentSuite) -> Experiment:
    """How much permute cost U/V dual issue already hides."""
    results = {(name, width): _compare(suite, name, issue_width=width)
               for name in HALF_WORD for width in (2, 1)}
    headers = ["Kernel", "Dual cycles", "Single cycles", "Pairing gain",
               "SPU speedup (dual)", "SPU speedup (single)"]
    rows = []
    for name in HALF_WORD:
        dual, single = results[(name, 2)], results[(name, 1)]
        rows.append([
            name, dual.mmx.cycles, single.mmx.cycles,
            ratio(single.mmx.cycles / dual.mmx.cycles, 2),
            ratio(dual.speedup), ratio(single.speedup),
        ])
    text = format_table(headers, rows, title="Ablation: U/V pairing vs SPU benefit")
    return Experiment("ablation_pairing", headers, rows, text, results)


def ablation_pipe_stage(suite: ExperimentSuite) -> Experiment:
    """SPU cycles with and without the interconnect's extra stage (§5.1.1)."""
    results = {
        name: (suite.comparison(name).spu,
               _checked(suite.kernel(name), "MMX+SPU",
                        suite.kernel(name).run_spu(PipelineConfig(extra_stage=False))))
        for name in HALF_WORD
    }
    headers = ["Kernel", "SPU cycles (no stage)", "SPU cycles (+stage)",
               "Overhead", "Mispredicts"]
    rows = [
        [name, without.cycles, with_stage.cycles,
         pct(with_stage.cycles / without.cycles - 1), with_stage.mispredicts]
        for name, (with_stage, without) in results.items()
    ]
    text = format_table(headers, rows, title=(
        "Ablation: extra pipeline stage for the SPU interconnect"))
    return Experiment("ablation_pipe_stage", headers, rows, text, results)


PREDICTORS = ("always-taken", "static-btfn", "bimodal", "gshare")
PREDICTOR_KERNELS = ("FIR12", "FFT128", "DotProduct")


def ablation_predictor(suite: ExperimentSuite) -> Experiment:
    """Table 2's MMX runs under four branch predictors."""
    results = {}
    for name in PREDICTOR_KERNELS:
        kernel = suite.kernel(name)
        for predictor in PREDICTORS:
            machine = kernel.machine()
            machine.predictor = make_predictor(predictor)
            results[(name, predictor)] = _checked(
                kernel, "MMX", (machine.run(), kernel.extract(machine)))
    headers = ["Kernel", "Predictor", "Branches", "Missed", "Missed%"]
    rows = [
        [name, predictor, stats.branches, stats.mispredicts,
         pct(stats.mispredict_rate)]
        for (name, predictor), stats in results.items()
    ]
    text = format_table(headers, rows, title=(
        "Ablation: Table 2 under different branch predictors"))
    return Experiment("ablation_predictor", headers, rows, text, results)


def ablation_tuned(suite: ExperimentSuite) -> Experiment:
    """Automatic off-load vs SPU-aware hand recoding (§5.2.2).

    The hand-tuned FIR collapses each horizontal reduction into a single
    route-swapped ``paddd`` and lands on the paper's ~8% FIR number; the
    conservative automatic pass gets ~6%.
    """
    results = {name: (suite.comparison(name),
                      _checked(suite.kernel(name), "hand-tuned MMX+SPU",
                               suite.kernel(name).run_spu_tuned()))
               for name in ("FIR12", "FIR22", "MatrixMultiply")}
    headers = ["Kernel", "MMX", "SPU (auto off-load)", "SPU (hand-tuned)",
               "auto speedup", "tuned speedup"]
    rows = [
        [name, comparison.mmx.cycles, comparison.spu.cycles, tuned.cycles,
         ratio(comparison.speedup), ratio(comparison.mmx.cycles / tuned.cycles)]
        for name, (comparison, tuned) in results.items()
    ]
    text = format_table(headers, rows, title=(
        "Ablation: SPU-aware recoding (paper's 'lower estimate' remark)"))
    return Experiment("ablation_tuned", headers, rows, text, results)


def baseline_vperm(suite: ExperimentSuite) -> Experiment:
    """MMX pack/unpack vs an Altivec-style ``vperm`` vs the SPU (§6/§7)."""
    from repro.baselines import compare_baselines

    results = {name: compare_baselines(name)
               for name in ("DotProduct", "MatrixTranspose")}
    headers = ["Kernel", "cycles (MMX/vperm/SPU)", "dyn. instr (MMX/vperm/SPU)",
               "code bytes (MMX/vperm/SPU)"]
    rows = [
        [name,
         f"{result.mmx.cycles} / {result.vperm.cycles} / {result.spu.cycles}",
         f"{result.mmx.instructions} / {result.vperm.instructions} / "
         f"{result.spu.instructions}",
         f"{result.mmx_bytes} / {result.vperm_bytes} / {result.spu_bytes}"]
        for name, result in results.items()
    ]
    text = format_table(headers, rows, title=(
        "Baseline: explicit permutes vs the SPU (§6 comparison)"))
    return Experiment("baseline_vperm", headers, rows, text, results)


EXTENSION_KERNELS = ("SAD", "ColorSpace", "MatrixVector", "IDCT", "Viterbi")


def extension_kernels(suite: ExperimentSuite) -> Experiment:
    """Byte-granularity workloads vs interconnect granularity (D, B, A)."""
    headers = ["Kernel", "Config", "Granularity", "Permutes removed", "Speedup",
               "SPU mm2"]
    rows = []
    for name in EXTENSION_KERNELS:
        for config in (CONFIG_D, CONFIG_B, CONFIG_A):
            comparison = _compare(suite, name, config)
            rows.append([
                name, config.name, f"{config.port_bits}-bit",
                comparison.removed_permutes, ratio(comparison.speedup),
                ratio(spu_cost(config).total_area_mm2, 2),
            ])
    text = format_table(headers, rows, title=(
        "Extension kernels: byte-granularity workloads need configs A/B"))
    return Experiment("extension_kernels", headers, rows, text)


def scaling(suite: ExperimentSuite | None = None) -> Experiment:
    """§6's interconnect options for MMX- and Altivec-class files (no runs)."""
    headers = ["Register file", "Design", "Area mm2", "Delay ns", "Stages@2ns",
               "Ctl bits/state", "Reach"]
    rows = [
        [label, design.name, ratio(design.area_mm2, 2), ratio(design.delay_ns, 2),
         design.pipeline_stages(2.0), design.control_bits_per_state(),
         "full" if design.full_reach else f"{design.window_regs} regs"]
        for label, registers, bits in (("MMX-class", 8, 64), ("Altivec-class", 32, 128))
        for design in design_options(registers, bits)
    ]
    text = format_table(headers, rows, title=(
        "§6 scaling study: interconnect options for large register files"))
    return Experiment("scaling", headers, rows, text)
