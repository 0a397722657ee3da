"""Retry and circuit-breaker policies of the campaign runner.

Retries use capped exponential backoff with *full jitter* (delay drawn
uniformly from ``[0, min(cap, base * 2^(attempt-1))]``): under correlated
failures — a machine-wide stall releasing many retries at once — full jitter
decorrelates the retry storm instead of synchronizing it.

The circuit breaker is keyed by *slice* (conventionally
``"<kernel>/<config>"``).  It counts **attempt-level infrastructure
failures** — crashes, hangs, wall-clock timeouts, escaped executor errors —
never task *outcomes*: an injection whose simulation trips the in-simulation
cycle watchdog completes successfully with outcome ``detected`` and resets
the slice, so a fault campaign full of watchdog detections cannot trip a
breaker.  After ``threshold`` consecutive failures the slice opens and stays
open for the rest of the run; pending tasks of the slice are recorded
``skipped`` instead of executed, bounding the damage of a persistently
broken slice to that slice.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Default wall-clock calibration: measured clean seconds * factor + slack.
#: Generous on purpose — precise bounds belong to the in-simulation cycle
#: watchdog; wall-clock budgets only catch work that stopped entirely.
CALIBRATION_FACTOR = 25.0
CALIBRATION_SLACK_S = 10.0


def calibrated_timeout_s(clean_s: float, factor: float = CALIBRATION_FACTOR,
                         slack_s: float = CALIBRATION_SLACK_S) -> float:
    """Wall-clock budget derived from a measured (or expected) clean duration.

    The orchestration analogue of the cycle watchdog's ``clean_cycles * 4 +
    10000``: one formula shared by the campaign runner's per-injection
    timeouts and the serve layer's per-job supervision budgets, so both
    layers stay calibrated the same way.
    """
    return max(0.0, clean_s) * factor + slack_s


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with capped exponential backoff + full jitter."""

    #: Total attempts per task (1 = no retries).
    max_attempts: int = 3
    #: Backoff cap base: attempt *n* draws from ``[0, base * 2^(n-1)]``.
    base_delay_s: float = 0.05
    #: Hard ceiling on any single backoff delay.
    max_delay_s: float = 2.0

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Backoff after failed attempt *attempt* (1-based), full jitter."""
        cap = min(self.max_delay_s, self.base_delay_s * (2 ** max(0, attempt - 1)))
        return rng.uniform(0.0, cap)

    def exhausted(self, attempt: int) -> bool:
        return attempt >= self.max_attempts


class CircuitBreaker:
    """Per-slice consecutive-failure breaker (open = skip, never half-open).

    A campaign run is finite, so there is no recovery probe: once open, a
    slice stays open until the next invocation (a ``--resume`` starts with
    fresh breakers, giving previously skipped tasks another chance).
    """

    def __init__(self, threshold: int = 3) -> None:
        self.threshold = max(1, threshold)
        self._consecutive: dict[str, int] = {}
        self._open: set[str] = set()
        #: Times each slice tripped (at most once per run by construction).
        self.trips: dict[str, int] = {}

    def allow(self, slice: str) -> bool:
        """May a task of *slice* run?  The empty slice is never broken."""
        return not slice or slice not in self._open

    def record_success(self, slice: str) -> None:
        if slice:
            self._consecutive[slice] = 0

    def record_failure(self, slice: str) -> bool:
        """Count one attempt-level failure; returns True when this trip
        opened the breaker (emit ``breaker_open`` exactly then)."""
        if not slice or slice in self._open:
            return False
        count = self._consecutive.get(slice, 0) + 1
        self._consecutive[slice] = count
        if count >= self.threshold:
            self._open.add(slice)
            self.trips[slice] = self.trips.get(slice, 0) + 1
            return True
        return False

    @property
    def open_slices(self) -> tuple[str, ...]:
        return tuple(sorted(self._open))
