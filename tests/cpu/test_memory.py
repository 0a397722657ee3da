"""Tests for the flat memory model and MMIO windows."""

import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import MemoryFault
from repro.cpu import Memory


class TestTypedAccess:
    def test_roundtrip_sizes(self):
        mem = Memory(1024)
        for size, value in ((1, 0xAB), (2, 0xBEEF), (4, 0xDEADBEEF), (8, 0x0123456789ABCDEF)):
            mem.store(100, size, value)
            assert mem.load(100, size) == value

    def test_little_endian(self):
        mem = Memory(64)
        mem.store(0, 4, 0x04030201)
        assert [mem.load(i, 1) for i in range(4)] == [1, 2, 3, 4]

    def test_store_truncates(self):
        mem = Memory(64)
        mem.store(0, 2, 0x123456)
        assert mem.load(0, 2) == 0x3456

    def test_load_signed(self):
        mem = Memory(64)
        mem.store(0, 2, 0xFFFF)
        assert mem.load_signed(0, 2) == -1
        mem.store(0, 2, 0x7FFF)
        assert mem.load_signed(0, 2) == 0x7FFF

    def test_out_of_range_load(self):
        mem = Memory(16)
        with pytest.raises(MemoryFault):
            mem.load(16, 1)
        with pytest.raises(MemoryFault):
            mem.load(12, 8)
        with pytest.raises(MemoryFault):
            mem.load(-1, 1)

    def test_out_of_range_store(self):
        mem = Memory(16)
        with pytest.raises(MemoryFault):
            mem.store(15, 2, 0)

    def test_bad_size_rejected(self):
        with pytest.raises(MemoryFault):
            Memory(0)

    @given(st.integers(0, 2**64 - 1), st.integers(0, 56))
    def test_store_load_property(self, value, address):
        mem = Memory(64)
        mem.store(address, 8, value)
        assert mem.load(address, 8) == value


class TestBulkHelpers:
    def test_write_read_array(self):
        mem = Memory(1024)
        data = np.array([1, -2, 3, -4], dtype=np.int16)
        written = mem.write_array(32, data, np.int16)
        assert written == 8
        assert mem.read_array(32, 4, np.int16).tolist() == [1, -2, 3, -4]

    def test_read_array_is_copy(self):
        mem = Memory(64)
        mem.write_array(0, [5], np.int32)
        out = mem.read_array(0, 1, np.int32)
        out[0] = 9
        assert mem.load(0, 4) == 5

    def test_fill(self):
        mem = Memory(64)
        mem.fill(8, 4, 0xEE)
        assert mem.load(8, 4) == 0xEEEEEEEE
        assert mem.load(12, 1) == 0

    def test_array_bounds_checked(self):
        mem = Memory(16)
        with pytest.raises(MemoryFault):
            mem.write_array(12, [1, 2], np.int32)


class FakeDevice:
    def __init__(self):
        self.regs = {}

    def mmio_load(self, offset, size):
        return self.regs.get(offset, 0)

    def mmio_store(self, offset, size, value):
        self.regs[offset] = value


class TestMMIO:
    def test_window_dispatch(self):
        mem = Memory(256)
        dev = FakeDevice()
        mem.map_device(0x80, 32, dev)
        mem.store(0x84, 4, 1234)
        assert dev.regs[4] == 1234
        assert mem.load(0x84, 4) == 1234

    def test_window_may_exceed_physical_memory(self):
        mem = Memory(16)
        dev = FakeDevice()
        mem.map_device(0x100000, 64, dev)
        mem.store(0x100008, 8, 7)
        assert mem.load(0x100008, 8) == 7

    def test_overlapping_windows_rejected(self):
        mem = Memory(256)
        mem.map_device(0x80, 32, FakeDevice())
        with pytest.raises(MemoryFault):
            mem.map_device(0x9F, 8, FakeDevice())

    def test_adjacent_windows_allowed(self):
        mem = Memory(256)
        mem.map_device(0x80, 32, FakeDevice())
        mem.map_device(0xA0, 32, FakeDevice())  # no overlap

    def test_normal_memory_unaffected(self):
        mem = Memory(256)
        mem.map_device(0x80, 32, FakeDevice())
        mem.store(0x40, 4, 99)
        assert mem.load(0x40, 4) == 99


class TestBacking:
    def test_fork_gets_a_private_copy(self):
        mem = Memory(64)
        mem.store(0, 4, 7)
        pid = os.fork()
        if pid == 0:  # child: write, then leave without running cleanup
            mem.store(0, 4, 9)
            os._exit(0)
        os.waitpid(pid, 0)
        assert mem.load(0, 4) == 7
