"""Shape of every REPORT.md experiment at the paper's full sizes.

Each check is a claim the paper (or a design-point study of it) makes; the
bounds are the experiment's, over its rows or, where a row is rounded, over
the exact measurements in ``Experiment.data``.
"""

import pytest

from repro.analysis import measure_startup_cost
from repro.experiments import paper_data
from repro.experiments.ablations import (
    HALF_WORD,
    LATENCIES,
    MEMORY_KERNELS,
    PREDICTOR_KERNELS,
    PREDICTORS,
)
from repro.hw import kernel_energy
from repro.isa import encode_subword_addressing, program_size
from repro.kernels import DotProductKernel


class TestPaperTables:
    def test_table1_area_reproduced(self, experiment):
        for row in experiment("table1").rows:
            assert abs(float(row[1]) - float(row[2])) / float(row[2]) < 0.01

    def test_die_area_claim(self, experiment):
        assert experiment("die_claim").data["cost"].die_fraction < 0.01

    def test_table2_mispredicts_only_at_loop_exits(self, experiment):
        for row in experiment("table2").rows:
            assert float(row[7].rstrip("%")) < 20.0, row[0]

    def test_table3_shape(self, experiment):
        rows = experiment("table3").rows
        shares = {row[0]: float(row[3].rstrip("%")) / 100 for row in rows}
        totals = {row[0]: float(row[5].rstrip("%")) / 100 for row in rows}
        # FIR has the smallest permute share of its MMX work among the
        # compute-bound kernels; the matrix kernels dominate the total share.
        assert shares["FIR22"] <= shares["FIR12"] < shares["MatrixTranspose"]
        assert totals["MatrixTranspose"] > totals["FIR22"]
        assert totals["DCT"] > totals["FFT1024"]
        # IIR/FFT contribute little to total instructions (low MMX use).
        assert totals["IIR"] < 0.05 and totals["FFT1024"] < 0.05

    def test_fig9_shape(self, experiment):
        speedups = {row[0]: float(row[3]) for row in experiment("fig9").rows}
        assert all(value >= 0.999 for value in speedups.values())
        for name in paper_data.FIG9_LOW_IMPACT:
            assert speedups[name] < 1.05, name
        assert 1.0 < speedups["FIR12"] < 1.15
        # Inter-word-bound kernels win the most (§5.2.3).
        ranked = sorted(speedups, key=speedups.get, reverse=True)
        assert set(ranked[:3]) <= set(paper_data.FIG9_HIGH_IMPACT) | {"FIR12"}
        assert ranked[0] in paper_data.FIG9_HIGH_IMPACT


class TestClaims:
    def test_startup_amortized(self, experiment):
        for name, cost in experiment("startup_cost").data.items():
            assert cost.break_even_invocations < 3, name
            assert cost.state_words <= 128 * 4, name

    def test_energy(self, experiment):
        energies = experiment("energy").data
        assert energies["MatrixTranspose"].savings_fraction > 0.2
        assert abs(energies["IIR"].savings_fraction) < 0.05
        for name, result in energies.items():
            assert result.spu.total_pj <= result.mmx.total_pj * 1.01, name

    def test_code_size(self, experiment):
        rows = {row[0]: row for row in experiment("code_size").rows}
        for name, row in rows.items():
            assert row[3] > row[1], name
        for name in ("MatrixTranspose", "FIR12", "DCT"):
            assert rows[name][2] <= rows[name][1], name

    def test_dot_product(self):
        """DotProduct is no Table 2 kernel, so no report row carries it."""
        kernel = DotProductKernel()
        comparison = kernel.verify()
        startup = measure_startup_cost(kernel, comparison)
        assert startup.break_even_invocations < 3
        assert startup.state_words <= 128 * 4
        energy = kernel_energy(kernel, comparison)
        assert energy.savings_fraction > 0.1
        assert energy.spu.total_pj <= energy.mmx.total_pj * 1.01
        spu_program, _ = kernel.spu_programs()
        mmx_size = program_size(kernel.mmx_program())
        assert program_size(spu_program) <= mmx_size
        assert encode_subword_addressing(kernel.mmx_program()) > mmx_size


class TestAblations:
    def test_configs(self, experiment):
        by_key = {(row[0], row[1]): row for row in experiment("ablation_configs").rows}
        for name in HALF_WORD:
            # Every paper kernel works under configuration D (§5.1.1)...
            assert int(by_key[("D", name)][2]) > 0, name
            # ...with the same off-load as the full configuration A.
            assert by_key[("D", name)][2] == by_key[("A", name)][2], name
            # Config B's 4-register window never beats config A.
            assert int(by_key[("B", name)][2]) <= int(by_key[("A", name)][2]), name

    def test_controller_depth(self, experiment):
        usage = dict(experiment("ablation_controller").rows)
        # Every kernel fits the paper's K=128 design point, and K=128 is
        # not vacuous: some kernel needs more than 32 states.
        assert all(states <= 128 for states in usage.values())
        assert any(states > 32 for states in usage.values())

    def test_memory_latency(self, experiment):
        results = experiment("ablation_memory").data
        for name in MEMORY_KERNELS:
            fast, slow = results[(name, 1)], results[(name, LATENCIES[-1])]
            # Memory stalls dilute the SPU's relative benefit...
            assert slow.speedup <= fast.speedup + 1e-9, name
            # ...and always cost the baseline cycles.
            assert slow.mmx.cycles > fast.mmx.cycles, name

    def test_pairing(self, experiment):
        results = experiment("ablation_pairing").data
        for name in HALF_WORD:
            dual, single = results[(name, 2)], results[(name, 1)]
            # Pairing always helps the baseline, and the SPU wins in both
            # issue modes (its relative margin moves either way).
            assert single.mmx.cycles > dual.mmx.cycles, name
            assert single.speedup >= 1.0, name
            assert dual.speedup >= 1.0, name

    def test_pipe_stage(self, experiment):
        for name, (with_stage, without) in experiment("ablation_pipe_stage").data.items():
            # §5.1.1: "essentially the same" (under 2% here)...
            assert with_stage.cycles / without.cycles - 1 < 0.02, name
            # ...exactly 1 fill cycle + 1 cycle per mispredict.
            assert with_stage.cycles == without.cycles + 1 + with_stage.mispredicts, name

    def test_predictors(self, experiment):
        results = experiment("ablation_predictor").data
        for (name, predictor), stats in results.items():
            # Loop-dominated media code: dynamic predictors miss only exits.
            if predictor in ("bimodal", "gshare", "always-taken"):
                assert stats.mispredict_rate < 0.10, (name, predictor)
        for name in PREDICTOR_KERNELS:
            cycles = [results[(name, predictor)].cycles for predictor in PREDICTORS]
            assert max(cycles) / min(cycles) < 1.10, name

    def test_tuned(self, experiment):
        results = experiment("ablation_tuned").data
        for name, (comparison, tuned) in results.items():
            assert tuned.cycles < comparison.spu.cycles, name
        # FIR12 hand-tuned reaches the paper's ~8% figure.
        comparison, tuned = results["FIR12"]
        assert 1.06 < comparison.mmx.cycles / tuned.cycles < 1.12

    def test_vperm_baseline(self, experiment):
        results = experiment("baseline_vperm").data
        for name, result in results.items():
            # The SPU wins on every axis...
            assert result.spu.cycles < result.vperm.cycles, name
            assert result.spu.cycles < result.mmx.cycles, name
            assert result.spu.instructions < result.vperm.instructions, name
            assert result.spu_bytes < result.vperm_bytes, name
            # ...and vperm schedules as well as the MMX repertoire (§6)...
            assert result.vperm.cycles <= result.mmx.cycles, name
        # ...but its control immediates inflate permute-heavy code (§7).
        transpose = results["MatrixTranspose"]
        assert transpose.vperm_bytes > transpose.mmx_bytes

    def test_extension_kernels(self, experiment):
        by_key = {(row[0], row[1]): row for row in experiment("extension_kernels").rows}
        # Config D cannot route SAD's byte unpacks at all.
        assert int(by_key[("SAD", "D")][3]) == 0
        assert float(by_key[("SAD", "D")][4]) < 1.01
        # The byte-port configurations unlock the byte-granularity kernels.
        for name in ("SAD", "ColorSpace"):
            assert float(by_key[(name, "A")][4]) > float(by_key[(name, "D")][4]), name
            assert int(by_key[(name, "A")][3]) > 0, name
            assert int(by_key[(name, "B")][3]) > 0, name
        # Half-word workloads are served by config D.
        for name in ("Viterbi", "MatrixVector", "IDCT"):
            assert float(by_key[(name, "D")][4]) > 1.0, name

    def test_scaling(self, experiment):
        altivec = [row for row in experiment("scaling").rows if row[0] == "Altivec-class"]
        full = next(row for row in altivec if row[1].startswith("crossbar"))
        benes = next(row for row in altivec if row[1].startswith("benes"))
        windowed = [row for row in altivec if row[1].startswith("window")]
        # The full crossbar is impractical at Altivec scale, the multi-stage
        # network restores full reach for less, and windows are cheapest.
        assert float(full[2]) > 100
        assert float(benes[2]) < float(full[2])
        assert windowed and all(float(row[2]) < float(benes[2]) for row in windowed)


@pytest.mark.parametrize("name", ["ablation_memory", "ablation_pairing"])
def test_design_point_runs_are_the_suites(experiment, full_suite, name):
    """The default-pipeline cell is the suite's cached comparison, not a rerun."""
    key = ("DotProduct", 1) if name == "ablation_memory" else ("DotProduct", 2)
    assert experiment(name).data[key] is full_suite.comparison("DotProduct")
