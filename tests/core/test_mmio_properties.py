"""Property tests for the MMIO staging path and config-C kernel sweep."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CONFIG_C,
    CONFIG_D,
    REG_CNTR0,
    REG_CONFIG,
    STATE_BASE,
    STATE_STRIDE,
    SPUController,
    SPUMMIO,
    SPUState,
    encode_state,
)


class TestPartialStoreEquivalence:
    """Any split of a state-word store into byte/halfword/word pieces must
    assemble the same staged image as one whole store."""

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 2**55 - 1),  # a state word (config D uses 55 bits)
        st.lists(st.sampled_from([1, 2, 4]), min_size=1, max_size=8),
    )
    def test_chunked_staging(self, word, chunk_sizes):
        whole = SPUMMIO(SPUController())
        whole.mmio_store(STATE_BASE, 8, word)

        pieces = SPUMMIO(SPUController())
        offset = 0
        for size in chunk_sizes:
            if offset + size > 8:
                break
            pieces.mmio_store(
                STATE_BASE + offset, size, (word >> (8 * offset)) & ((1 << (8 * size)) - 1)
            )
            offset += size
        while offset < 8:
            pieces.mmio_store(STATE_BASE + offset, 1, (word >> (8 * offset)) & 0xFF)
            offset += 1
        assert pieces.mmio_load(STATE_BASE, 8) == whole.mmio_load(STATE_BASE, 8)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 126), st.integers(1, 1000))
    def test_staged_program_roundtrip(self, next1, counter):
        """Stage an encoded state via MMIO, GO, and observe the decode."""
        controller = SPUController()
        device = SPUMMIO(controller)
        state = SPUState(cntr=0, next0=127, next1=127)
        device.mmio_store(STATE_BASE, 8, encode_state(state, CONFIG_D))
        device.mmio_store(REG_CNTR0, 8, counter)
        device.mmio_store(REG_CONFIG, 8, 1)
        assert controller.active
        program = controller.program()
        assert program.counter_init[0] == counter
        assert program.states[0] == state


class TestConfigCKernels:
    """Configuration C: half-word granularity with full 8-register reach."""

    @pytest.mark.parametrize(
        "cls_name", ["DotProduct", "MatrixTranspose", "FIR12", "DCT"]
    )
    def test_kernels_work_under_config_c(self, cls_name):
        from repro.kernels import make_kernel

        kernel = make_kernel(cls_name, config=CONFIG_C)
        comparison = kernel.verify()
        assert comparison.speedup >= 0.999

    def test_config_c_matches_config_d_on_window_kernels(self):
        """Paper kernels fit config D's window; C's extra reach buys nothing."""
        from repro.kernels import TransposeKernel

        removed_c = TransposeKernel(config=CONFIG_C).removed_permutes
        removed_d = TransposeKernel(config=CONFIG_D).removed_permutes
        assert removed_c == removed_d
