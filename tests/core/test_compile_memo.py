"""The per-process compile memo of :func:`repro.core.autopilot.offload_program`.

A hit must equal a cold compile of the same program text and crossbar
config, callers must get programs of their own, and nothing a campaign does
may leak into the shared results.
"""

from collections import OrderedDict

import pytest

from repro.core import CONFIGS, autopilot, offload_program
from repro.isa.assembler import assemble
from repro.isa.instructions import Program
from repro.kernels import ALL_KERNELS, make_kernel, make_sized_kernel


@pytest.fixture
def cold(monkeypatch):
    """An empty compile memo for one test (a compile another test made
    would be a hit)."""
    memo = OrderedDict()
    monkeypatch.setattr(autopilot, "_compiled", memo)
    return memo


def assert_same_compile(hit, fresh):
    program, expected = hit.program, fresh.program
    assert program.name == expected.name
    assert program.instructions == expected.instructions
    assert program.labels == expected.labels
    assert [(context, spu.states, spu.counter_init, spu.entry)
            for context, spu in hit.controller_programs] == [
        (context, spu.states, spu.counter_init, spu.entry)
        for context, spu in fresh.controller_programs]
    assert hit.removed == fresh.removed
    assert [report.kept for _, report in hit.reports] == [
        report.kept for _, report in fresh.reports]
    assert hit.skipped == fresh.skipped
    assert [report.certificate for _, report in hit.reports] == [
        report.certificate for _, report in fresh.reports]
    assert hit == fresh  # and every other field


def cold_compile(memo, program, config):
    """``offload_program`` on an emptied memo, which is left as it was."""
    saved = OrderedDict(memo)
    memo.clear()
    try:
        return offload_program(program, config)
    finally:
        memo.clear()
        memo.update(saved)


def sized_kernel(name, fast, config):
    """:func:`make_sized_kernel` under crossbar *config*."""
    kernel = make_sized_kernel(name, fast)
    kernel.config = CONFIGS[config]
    return kernel


KERNELS = [(name, False) for name in sorted(ALL_KERNELS)] + [("FFT1024", True)]


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("name, fast", KERNELS)
def test_hit_equals_a_cold_compile(name, fast, config, cold):
    first = sized_kernel(name, fast, config).compile_result()
    second = sized_kernel(name, fast, config)
    hit = second.compile_result()
    assert len(cold) == 1 and hit.reports is first.reports  # a hit
    assert_same_compile(hit, cold_compile(cold, second.mmx_program(), CONFIGS[config]))


def test_campaign_leaves_every_entry_as_compiled(cold):
    from repro.faults.campaign import run_check

    result = run_check(faults=42, seed=3, resilience="degrade")
    assert len(result.injections) == 42
    assert len(cold) == len(ALL_KERNELS)
    for (name, instructions, labels, config), shared in list(cold.items()):
        program = Program(instructions=list(instructions), labels=dict(labels),
                          name=name)
        assert_same_compile(shared, cold_compile(cold, program, config))


def test_callers_get_programs_of_their_own(cold):
    first, second = make_kernel("DotProduct"), make_kernel("DotProduct")
    program, controller_programs = first.spu_programs()
    first.run_spu()  # decodes its program
    other, other_controllers = second.spu_programs()
    # The compiled program is copied per caller, so its decode cache (bound
    # to the simd backend at decode time) and its counters stay per kernel;
    # the controller programs are shared and never edited in place.
    assert other is not program and other == program
    assert "_uop_cache" not in other.__dict__
    assert [spu for _, spu in other_controllers] == [
        spu for _, spu in controller_programs]
    assert all(a is b for (_, a), (_, b) in zip(other_controllers, controller_programs))


def test_nothing_accelerated_returns_the_callers_program(cold):
    from repro.kernels import SADKernel

    kernels = [SADKernel(), SADKernel()]  # config D: nothing routes
    for kernel in kernels:
        program, controller_programs = kernel.spu_programs()
        assert program is kernel.mmx_program() and controller_programs == []
    assert len(cold) == 1


def test_config_is_part_of_the_key(cold):
    program = make_kernel("SAD").mmx_program()
    results = {name: offload_program(program, config) for name, config in CONFIGS.items()}
    assert len(cold) == len(CONFIGS)
    assert results["A"].removed and not results["D"].removed


def test_lru_evicts_the_least_recently_used_text(cold):
    source = "mov r0, 4\ntop: paddw mm0, mm1\nloop r0, top\nhalt"

    def compile_named(index):
        program = assemble(source)
        program.name = f"p{index}"
        return offload_program(program)

    for index in range(autopilot.COMPILED_TEXTS):
        compile_named(index)
    compile_named(0)  # p0 is now the most recently used
    compile_named(autopilot.COMPILED_TEXTS)  # the 65th distinct key
    names = [key[0] for key in cold]
    assert len(names) == autopilot.COMPILED_TEXTS
    assert "p1" not in names and names[0] == "p2"
    assert names[-2:] == ["p0", f"p{autopilot.COMPILED_TEXTS}"]
