"""Outside-in tracing: spans around calls into repro's public functions.

The program itself carries no instrumentation for this benchmark.  The
traced run instead replaces selected functions and methods with wrappers
that open a span, call the original and close the span.  A function is
replaced at every name it is bound to in a loaded ``repro`` module, so
``from x import f`` call sites are covered too; ``uninstall`` puts the
originals back.

A span's *self time* is its duration minus the durations of its direct
children.  Spans under a ``job`` root decompose that job exactly: the
layers' self times plus the root's own self time (the unattributed
remainder) sum to the job's wall time.
"""

from __future__ import annotations

import sys
import time
import types
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, start: float, parent: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs: dict[str, Any] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans kept in memory for one traced segment."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        span = Span(name, time.perf_counter(),
                    self._stack[-1] if self._stack else -1)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    # ---- wrapping ------------------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str | Callable[..., str],
             note: Callable[..., None] | None = None,
             before: Callable[..., dict] | None = None) -> None:
        """Trace every call of ``owner.attr`` as a span called *name*.

        *name* may be a function of the call's arguments.  *before*, called
        with the arguments, returns attributes taken before the call (such
        as whether a cache was cold); *note*, called as ``note(span, args,
        result)``, records counts from the result.
        """
        original = owner.__dict__[attr]

        def traced(*args, **kwargs):
            label = name(*args) if callable(name) else name
            with self.span(label) as span:
                if before is not None:
                    span.attrs.update(before(*args))
                result = original(*args, **kwargs)
                if note is not None:
                    note(span, args, result)
                return result

        traced.__wrapped__ = original
        self._rebind(owner, attr, original, traced)
        if isinstance(owner, types.ModuleType):
            for module in list(sys.modules.values()):
                if module is owner or not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, original, traced)

    def _rebind(self, owner: Any, attr: str, original: Any, new: Any) -> None:
        setattr(owner, attr, new)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ---- aggregation -----------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.duration
        return [span.duration - child[i] for i, span in enumerate(self.spans)]

    def job_breakdown(self) -> tuple[dict[str, float], float, float, int]:
        """``(layer self seconds, unattributed seconds, job wall seconds,
        jobs)`` summed over every ``job`` root span."""
        selfs = self.self_times()
        roots: list[int] = []
        layers: dict[str, float] = defaultdict(float)
        unattributed = wall = 0.0
        jobs = 0
        for i, span in enumerate(self.spans):
            root = i if span.parent < 0 else roots[span.parent]
            roots.append(root)
            if self.spans[root].name != "job":
                continue
            if i == root:
                unattributed += selfs[i]
                wall += span.duration
                jobs += 1
            else:
                layers[span.name] += selfs[i]
        return dict(layers), unattributed, wall, jobs

    def attr_sum(self, name: str, key: str) -> float:
        return sum(span.attrs.get(key, 0) for span in self.spans
                   if span.name == name)

    def self_sum(self, name: str,
                 where: Callable[[Span], Any] | None = None) -> tuple[float, int]:
        """Self seconds and count of the *name* spans that satisfy *where*."""
        total, count = 0.0, 0
        for span, own in zip(self.spans, self.self_times()):
            if span.name == name and (where is None or where(span)):
                total += own
                count += 1
        return total, count
