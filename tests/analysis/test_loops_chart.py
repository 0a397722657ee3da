"""Tests for the loop-region profiler and the Figure 9 chart."""

import pytest

from repro.analysis import fig9_chart, find_loop_regions, profile, profile_loops
from repro.analysis.profiler import run_pc_counts
from repro.cpu import Machine
from repro.isa import assemble
from repro.kernels import ALL_KERNELS, DCTKernel, DotProductKernel, make_kernel
from repro.kernels.fft import FFTKernel


def build_kernel(name):
    if name == "FFT1024":  # the --fast size, as ExperimentSuite(fast=True)
        return FFTKernel(n=256)
    return make_kernel(name)


class TestLoopRegions:
    def test_single_loop(self):
        program = assemble("mov r0, 3\ntop: nop\nnop\nloop r0, top\nhalt")
        regions = find_loop_regions(program)
        assert len(regions) == 1
        assert (regions[0].label, regions[0].start, regions[0].end) == ("top", 1, 3)

    def test_multiple_loops(self):
        program = assemble("""
            mov r0, 2
        a:  nop
            loop r0, a
            mov r0, 2
        b:  nop
            loop r0, b
            halt
        """)
        regions = find_loop_regions(program)
        assert [r.label for r in regions] == ["a", "b"]

    def test_non_loop_labels_ignored(self):
        program = assemble("jmp skip\nnop\nskip: halt")
        assert find_loop_regions(program) == []


class TestProfileLoops:
    def test_attribution(self):
        machine = Machine(assemble("""
            mov r0, 4
        top:
            paddw mm0, mm1
            punpcklwd mm2, mm3
            loop r0, top
            halt
        """))
        profile = profile_loops(machine)
        region = profile.region("top")
        assert region.instructions == 12  # 3 per iteration x 4
        assert region.mmx_instructions == 8
        assert region.alignment_instructions == 4
        assert region.permute_fraction == pytest.approx(0.5)
        assert profile.outside == 2  # mov + halt
        assert profile.total == 14

    def test_dct_transposes_are_permute_dense(self):
        kernel = DCTKernel(blocks=2)
        machine = kernel._machine(kernel.mmx_program(), None)
        profile = profile_loops(machine)
        assert profile.region("trans1").permute_fraction > profile.region(
            "rows1"
        ).permute_fraction

    def test_hottest(self):
        kernel = DCTKernel(blocks=2)
        machine = kernel._machine(kernel.mmx_program(), None)
        profile = profile_loops(machine)
        assert profile.hottest().label in ("rows1", "rows2")

    def test_render(self):
        machine = Machine(assemble("mov r0, 2\ntop: nop\nloop r0, top\nhalt"))
        text = profile_loops(machine).render()
        assert "top" in text and "(outside)" in text

    def test_unknown_region(self):
        machine = Machine(assemble("halt"))
        profile = profile_loops(machine)
        with pytest.raises(KeyError):
            profile.region("nope")

    def test_subscription_released(self):
        machine = Machine(assemble("halt"))
        profile_loops(machine)
        assert machine.recorder is None and machine.trigger is None


    @pytest.mark.parametrize("name", sorted(ALL_KERNELS))
    def test_regions_partition_the_recorded_issues(self, name):
        """Region sums plus ``outside`` are the run's per-pc issue counts,
        as ``profile()`` reads them, and its instruction count."""
        kernel = build_kernel(name)
        for variant in ("mmx", "spu"):
            loops = profile_loops(kernel.machine(variant))
            stats, counts = run_pc_counts(kernel.machine(variant))
            mix = profile(kernel.machine(variant))
            assert loops.total == sum(counts.values()) == stats.instructions
            assert loops.total == mix.total == sum(mix.by_opcode.values())
            assert sum(r.instructions for r in loops.regions) + loops.outside \
                == loops.total
            inside = {}
            for pc, count in counts.items():
                spans = [r for r in loops.regions if r.start <= pc <= r.end]
                if spans:
                    label = min(spans, key=lambda r: r.end - r.start).label
                    inside[label] = inside.get(label, 0) + count
            assert {r.label: r.instructions for r in loops.regions
                    if r.instructions} == inside
            assert loops.outside == loops.total - sum(inside.values())


class TestChart:
    def test_bars_scale_and_hash(self):
        comparisons = {"DotProduct": DotProductKernel(blocks=8).compare()}
        text = fig9_chart(comparisons)
        assert "MMX     |" in text and "MMX+SPU |" in text
        assert "#" in text
        assert "x)" in text

    def test_empty(self):
        assert fig9_chart({}) == "(no data)"

    def test_longest_bar_fits_width(self):
        comparisons = {"DotProduct": DotProductKernel(blocks=8).compare()}
        for line in fig9_chart(comparisons).splitlines():
            if "|" in line:
                bar = line.split("|", 1)[1].split()[0]
                assert len(bar) <= 49
