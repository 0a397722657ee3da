"""Flat byte-addressable memory with typed accessors and MMIO hooks.

The evaluation assumes code and data resident in L1 (§5.2.1), so every access
costs one cycle; the memory model therefore concentrates on correctness:
bounds checking, little-endian typed loads/stores, and NumPy bulk transfer
helpers used by the kernel workload generators.  The backing store is an
anonymous memory map, a plain byte buffer: typed accesses go through
precompiled :mod:`struct` codecs, about half the cost of slicing a NumPy
array.  (A ``bytearray`` would be as fast, but it zeroes every page up
front; a map's pages cost nothing until they are written, and simulations
keep many mostly-untouched 1 MiB memories alive at once.)

A memory-mapped I/O window can be registered (the SPU control registers are
memory mapped, §3); loads/stores inside a window are delegated to the device.
"""

from __future__ import annotations

import mmap
import struct
from typing import Protocol

import numpy as np

from repro.errors import MemoryFault


class MMIODevice(Protocol):
    """Device interface for a memory-mapped window."""

    def mmio_load(self, offset: int, size: int) -> int: ...

    def mmio_store(self, offset: int, size: int, value: int) -> None: ...


#: Little-endian unsigned codecs for the natural access sizes.
_UNPACK = {n: struct.Struct(f"<{c}").unpack_from for n, c in ((1, "B"), (2, "H"), (4, "I"), (8, "Q"))}
_PACK = {n: struct.Struct(f"<{c}").pack_into for n, c in ((1, "B"), (2, "H"), (4, "I"), (8, "Q"))}


class Memory:
    """Byte-addressable little-endian memory of fixed size."""

    def __init__(self, size: int = 1 << 20, require_alignment: bool = False) -> None:
        if size <= 0:
            raise MemoryFault(0, size, "memory size must be positive")
        # Private: a forked process gets a copy, as with any Python object.
        self._data = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
        self._windows: list[tuple[int, int, MMIODevice]] = []
        #: Accesses ending at or below this address are plain RAM: in bounds
        #: and below every MMIO window (see :meth:`direct_limit`).
        self._ram_limit = size
        #: When True, multi-byte accesses must be naturally aligned — a
        #: misaligned packed load/store raises :class:`MemoryFault` (strict)
        #: or degrades to a no-op issue (see ResilienceMode.DEGRADE).  Off by
        #: default: MMX tolerates unaligned movq, and the paper's kernels
        #: assume it.
        self.require_alignment = require_alignment

    @property
    def size(self) -> int:
        return len(self._data)

    # ---- MMIO -----------------------------------------------------------

    def map_device(self, base: int, length: int, device: MMIODevice) -> None:
        """Register *device* over ``[base, base+length)``.

        The window may extend beyond physical memory (device-only addresses);
        overlapping windows are rejected.
        """
        if length <= 0 or base < 0:
            raise MemoryFault(base, length, "bad MMIO window")
        for other_base, other_len, _ in self._windows:
            if base < other_base + other_len and other_base < base + length:
                raise MemoryFault(base, length, "overlapping MMIO window")
        self._windows.append((base, length, device))
        self._ram_limit = min(self._ram_limit, base)

    def direct_limit(self) -> int:
        """Bound below which an access may bypass :meth:`load`/:meth:`store`.

        Any access of *n* bytes at an address ``a`` with ``0 <= a`` and
        ``a + n <= direct_limit()`` lies in physical memory, below every
        MMIO window, and needs no alignment check, so reading or writing
        :attr:`data` directly is exactly what the typed accessors would do.
        Zero when alignment is enforced (every access must be checked).
        """
        return 0 if self.require_alignment else self._ram_limit

    @property
    def data(self) -> mmap.mmap:
        """The backing bytes (little-endian; see :meth:`direct_limit`)."""
        return self._data

    def _window_at(self, address: int) -> tuple[int, MMIODevice] | None:
        for base, length, device in self._windows:
            if base <= address < base + length:
                return base, device
        return None

    # ---- typed access ---------------------------------------------------

    def _check(self, address: int, size: int) -> None:
        if address < 0 or address + size > len(self._data):
            raise MemoryFault(address, size)
        if self.require_alignment and size > 1 and address % size:
            raise MemoryFault(address, size, "misaligned access")

    def load(self, address: int, size: int) -> int:
        """Load *size* bytes (1/2/4/8) little-endian, unsigned."""
        if self._windows:
            window = self._window_at(address)
            if window is not None:
                base, device = window
                return device.mmio_load(address - base, size)
        self._check(address, size)
        unpack = _UNPACK.get(size)
        if unpack is None:
            return int.from_bytes(self._data[address : address + size], "little")
        return unpack(self._data, address)[0]

    def store(self, address: int, size: int, value: int) -> None:
        """Store the low *size* bytes of *value*, little-endian."""
        if self._windows:
            window = self._window_at(address)
            if window is not None:
                base, device = window
                device.mmio_store(address - base, size, value & ((1 << (8 * size)) - 1))
                return
        self._check(address, size)
        value = int(value) & ((1 << (8 * size)) - 1)
        pack = _PACK.get(size)
        if pack is None:
            self._data[address : address + size] = value.to_bytes(size, "little")
        else:
            pack(self._data, address, value)

    def load_signed(self, address: int, size: int) -> int:
        value = self.load(address, size)
        half = 1 << (8 * size - 1)
        return value - (1 << (8 * size)) if value >= half else value

    # ---- bulk helpers ---------------------------------------------------

    def write_array(self, address: int, values, dtype) -> int:
        """Write a NumPy-convertible array at *address*; returns bytes written."""
        arr = np.asarray(values, dtype=dtype)
        raw = arr.tobytes()
        self._check(address, len(raw))
        self._data[address : address + len(raw)] = raw
        return len(raw)

    def read_array(self, address: int, count: int, dtype) -> np.ndarray:
        """Read *count* elements of *dtype* starting at *address*."""
        itemsize = np.dtype(dtype).itemsize
        self._check(address, count * itemsize)
        raw = self._data[address : address + count * itemsize]
        return np.frombuffer(raw, dtype=dtype).copy()

    def fill(self, address: int, length: int, byte: int = 0) -> None:
        """Fill ``[address, address+length)`` with *byte*."""
        self._check(address, length)
        self._data[address : address + length] = bytes((byte & 0xFF,)) * length
