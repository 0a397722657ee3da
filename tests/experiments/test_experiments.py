"""Tests for the experiment suite and the table/figure regeneration."""

import pytest

from repro.core import CONFIG_A
from repro.errors import KernelError
from repro.experiments import ExperimentSuite, fig9, paper_data, table1, table2, table3
from repro.kernels import TransposeKernel


@pytest.fixture(scope="module")
def suite():
    return ExperimentSuite(fast=True)


class TestPaperData:
    def test_table1_rows_complete(self):
        assert set(paper_data.TABLE1) == {"A", "B", "C", "D"}

    def test_table2_and_3_aligned(self):
        assert set(paper_data.TABLE2) == set(paper_data.TABLE3)
        assert len(paper_data.TABLE2) == 8

    def test_offload_ranges_match_table3(self):
        values = [row["pct_mmx_instr"] for row in paper_data.TABLE3.values()]
        assert min(values) == pytest.approx(paper_data.OFFLOAD_PCT_MMX_RANGE[0])
        assert max(values) == pytest.approx(paper_data.OFFLOAD_PCT_MMX_RANGE[1])


class TestTable1:
    def test_model_tracks_paper(self):
        experiment = table1()
        assert len(experiment.rows) == 4
        for row in experiment.rows:
            name = row[0]
            model_area, paper_area = float(row[1]), float(row[2])
            assert model_area == pytest.approx(paper_area, rel=0.01), name
            model_delay, paper_delay = float(row[3]), float(row[4])
            assert model_delay == pytest.approx(paper_delay, rel=0.25), name

    def test_config_d_die_fraction_under_one_percent(self):
        experiment = table1()
        row_d = experiment.rows[-1]
        assert float(row_d[-1].rstrip("%")) < 1.0

    def test_renders(self):
        assert "Table 1" in table1().text


class TestSuite:
    def test_all_eight_kernels(self, suite):
        comparisons = suite.comparisons()
        assert set(comparisons) == set(paper_data.TABLE2)

    def test_comparisons_cached(self, suite):
        assert suite.comparison("FIR12") is suite.comparison("FIR12")

    def test_fast_suite_shrinks_fft1024(self, suite):
        kernel = suite.kernel("FFT1024")
        assert kernel.name == "FFT1024" and kernel.n == 256

    def test_wrong_outputs_never_reach_a_table(self, monkeypatch):
        from repro.experiments.ablations import _compare

        extract = TransposeKernel.extract
        monkeypatch.setattr(TransposeKernel, "extract",
                            lambda self, machine: extract(self, machine) + 1)
        suite = ExperimentSuite(fast=True)
        with pytest.raises(KernelError, match="MatrixTranspose: MMX output"):
            suite.comparison("MatrixTranspose")
        with pytest.raises(KernelError, match="MatrixTranspose: MMX output"):
            _compare(suite, "MatrixTranspose", CONFIG_A)
        with pytest.raises(KernelError, match="MatrixTranspose: MMX output"):
            _compare(suite, "MatrixTranspose", memory_latency=2)


class TestTable2(object):
    def test_scaled_clocks_match_paper(self, suite):
        experiment = table2(suite)
        for row in experiment.rows:
            assert row[1] == row[2]  # scaling calibrates clocks exactly

    def test_branches_same_order_of_magnitude(self, suite):
        experiment = table2(suite)
        for row in experiment.rows:
            measured = float(row[3])
            published = float(row[4])
            assert measured / published < 50 and published / measured < 50, row[0]


class TestTable3:
    def test_permute_share_shape(self, suite):
        """FIR lowest, transpose/DCT high — the paper's §5.2.4 ordering."""
        experiment = table3(suite)
        shares = {row[0]: float(row[3].rstrip("%")) for row in experiment.rows}
        assert shares["FIR22"] <= shares["FIR12"]
        assert shares["MatrixTranspose"] > shares["FIR12"]
        assert shares["DCT"] > shares["FIR22"]

    def test_offload_rates_positive(self, suite):
        experiment = table3(suite)
        rates = {row[0]: float(row[7].rstrip("%")) for row in experiment.rows}
        for name in ("FIR12", "DCT", "MatrixMultiply", "MatrixTranspose"):
            assert rates[name] > 0, name


class TestFig9:
    def test_speedup_shape(self, suite):
        experiment = fig9(suite)
        speedups = {row[0]: float(row[3]) for row in experiment.rows}
        # SPU never loses
        assert all(value >= 0.999 for value in speedups.values())
        # the low-MMX-utilization kernels barely move (§5.2.2)
        for name in paper_data.FIG9_LOW_IMPACT:
            assert speedups[name] < 1.05, name
        # the inter-word-bound kernels gain the most
        top = max(speedups, key=speedups.get)
        assert top in paper_data.FIG9_HIGH_IMPACT
        # FIR sits in between
        assert speedups["FIR12"] > min(speedups[k] for k in paper_data.FIG9_LOW_IMPACT)

    def test_mmx_busy_fractions(self, suite):
        experiment = fig9(suite)
        busy = {row[0]: float(row[4].rstrip("%")) for row in experiment.rows}
        assert busy["IIR"] < 20 and busy["FFT128"] < 20
        assert busy["DCT"] > 50 and busy["MatrixTranspose"] > 50

    def test_instructions_saved_positive_where_offloaded(self, suite):
        experiment = fig9(suite)
        for row in experiment.rows:
            assert int(row[6]) >= 0


class TestReport:
    def test_report_names_every_claim(self, report):
        for heading in ("Table 1", "Table 2", "Table 3", "Figure 9",
                        "die-area claim", "start-up cost", "Energy", "Code size"):
            assert heading in report
        assert "0.91%" in report  # the <1% claim
        assert "MatrixTranspose" in report
