"""Host-speed probe: a fixed pure-Python loop timed all through a run.

On a shared 2-vCPU cloud VM (Xeon, 2.0 GHz) each virtual CPU switches,
independently and every 100 ms or so, between a fast and a slow state
that differ by about 1.7x in interpreter speed.  A raw timing therefore mixes the program's cost with
the host's state at that moment.  The probe measures the state: a short
fixed interpreter-bound loop (integer arithmetic, list and dict traffic,
the kind of work the simulator's issue loop does) that imports nothing
from ``repro``, so no change to the program can move it.  A sampler
thread runs it every ``SAMPLE_EVERY_S`` while the benchmark works, on
each CPU the benchmark may use in turn.  Each gated timing is scaled by
``NOMINAL_PROBE_MS / probe_ms``, where ``probe_ms`` is the mean probe
time over that timing's own interval.  A normalized timing reads as
"what this would have taken on a host where the probe takes
``NOMINAL_PROBE_MS``"; raw timings and ``host.probe_ms`` are reported
next to it so drift stays visible.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time

#: Probe time the normalized figures are scaled to (about the probe time
#: of a 2.0 GHz Xeon vCPU in its faster state, so normalized values read
#: close to raw ones there).
NOMINAL_PROBE_MS = 0.3

#: Interval between probe samples.  One sample takes about 1.5% of it.
SAMPLE_EVERY_S = 0.02

#: Samples a window needs; an interval with fewer grows to its nearest.
MIN_SAMPLES = 4

_ITERATIONS = 500
_MASK64 = (1 << 64) - 1
_EXPECTED = 129180916
# Reused on every call: the probe allocates no container, so a garbage
# collection (whose cost grows with the program's heap) never starts
# inside it.
_REGS = [0] * 16
_TABLE: dict[int, int] = {}


def _probe_body() -> int:
    regs = _REGS
    table = _TABLE
    for slot in range(16):
        regs[slot] = 0
    acc = 0x9E3779B97F4A7C15
    for i in range(_ITERATIONS):
        acc = (acc * 6364136223846793005 + 1442695040888963407) & _MASK64
        slot = acc >> 60
        regs[slot] = (regs[slot] + (acc & 0xFFFF)) & 0xFFFFFFFF
        table[i & 127] = regs[slot] ^ i
    total = 0
    for value in regs:
        total += value
    for key in range(128):
        total += table[key]
    return total


def probe_once() -> float:
    """One probe; its wall time in milliseconds."""
    started = time.perf_counter()
    result = _probe_body()
    elapsed = time.perf_counter() - started
    if result != _EXPECTED:
        raise RuntimeError(f"host probe computed {result}, expected {_EXPECTED}")
    return elapsed * 1e3


class HostClock:
    """Probe samples taken by a background thread; normalizes timings.

    Use as a context manager: the sampler runs inside the ``with`` block.
    With more than one CPU allowed, the sampler pins itself to each in
    turn (the CPUs switch state independently), so a window's mean is the
    mean slowness of the CPUs the work could have used.
    """

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.times: list[float] = []
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True,
                                        name="host-probe")

    def __enter__(self) -> "HostClock":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        turn = 0
        while not self._stop.wait(SAMPLE_EVERY_S):
            if len(self.cpus) > 1:
                os.sched_setaffinity(0, {self.cpus[turn % len(self.cpus)]})
                turn += 1
            at = time.perf_counter()
            sample = probe_once()
            self.times.append(at)
            self.samples.append(sample)

    def probe_ms(self, start: float, end: float) -> float:
        """Mean probe time over ``[start, end]``, widened to the nearest
        ``MIN_SAMPLES`` samples for intervals shorter than a few samples.

        A job's time is the time-average of the host's slowness over it,
        hence the mean, not the median.
        """
        times = self.times[:len(self.samples)]
        lo = bisect.bisect_left(times, start)
        hi = bisect.bisect_right(times, end)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(times)):
            lo = max(0, lo - 1)
            hi = min(len(times), hi + 1)
        if lo == hi:
            raise RuntimeError("no probe samples around the timed interval")
        return statistics.mean(self.samples[lo:hi])

    def factor(self, start: float, end: float) -> float:
        """Scale for a timing over ``[start, end]``: nominal / measured probe."""
        return NOMINAL_PROBE_MS / self.probe_ms(start, end)

    def median_ms(self) -> float:
        return statistics.median(self.samples)
