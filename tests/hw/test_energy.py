"""Tests for the energy-accounting extension."""

import pytest

from repro.core import CONFIG_A, CONFIG_D
from repro.cpu import Machine, RunStats
from repro.hw import EnergyModel, kernel_energy, run_energy
from repro.isa import assemble
from repro.kernels import DotProductKernel, IIRKernel, TransposeKernel


class TestRunEnergy:
    def run_stats(self, source):
        return Machine(assemble(source)).run()

    def test_every_instruction_pays_overhead(self):
        stats = self.run_stats("paddw mm0, mm1\nadd r0, 1\nhalt")
        energy = run_energy(stats)
        model = EnergyModel()
        assert energy.instruction_overhead_pj == 3 * model.fetch_decode_pj

    def test_functional_energy_by_class(self):
        stats = self.run_stats("pmullw mm0, mm1\nhalt")
        energy = run_energy(stats)
        model = EnergyModel()
        assert energy.functional_pj == model.multiply_pj + model.scalar_pj  # + halt

    def test_no_spu_terms_without_config(self):
        stats = self.run_stats("halt")
        energy = run_energy(stats)
        assert energy.crossbar_pj == 0 and energy.controller_pj == 0

    def test_crossbar_scales_with_config_size(self):
        stats = RunStats()
        stats.spu_routed = 10
        small = run_energy(stats, CONFIG_D, spu_steps=0)
        big = run_energy(stats, CONFIG_A, spu_steps=0)
        assert big.crossbar_pj > small.crossbar_pj

    def test_controller_cost_per_step(self):
        stats = RunStats()
        one = run_energy(stats, CONFIG_D, spu_steps=1)
        ten = run_energy(stats, CONFIG_D, spu_steps=10)
        assert ten.controller_pj == pytest.approx(10 * one.controller_pj)

    def test_total_is_sum(self):
        stats = self.run_stats("paddw mm0, mm1\nhalt")
        energy = run_energy(stats)
        assert energy.total_pj == pytest.approx(
            energy.instruction_overhead_pj + energy.functional_pj
        )


class TestKernelEnergy:
    def test_permute_heavy_kernels_save_energy(self):
        """Deleted instructions stop paying fetch/decode — §7's argument."""
        for kernel in (DotProductKernel(), TransposeKernel()):
            comparison = kernel_energy(kernel)
            assert comparison.savings_fraction > 0.1, comparison.name
            # The added SPU energy is small next to the instruction savings.
            assert comparison.spu.crossbar_pj + comparison.spu.controller_pj < (
                comparison.mmx.total_pj - comparison.spu.instruction_overhead_pj
            )

    def test_low_offload_kernels_near_neutral(self):
        comparison = kernel_energy(IIRKernel())
        assert abs(comparison.savings_fraction) < 0.05

    def test_custom_model(self):
        expensive_crossbar = EnergyModel(crossbar_pj_per_kxp=10_000.0)
        comparison = kernel_energy(DotProductKernel(), model=expensive_crossbar)
        # With an absurd crossbar cost the SPU stops paying off.
        assert comparison.savings_fraction < 0
