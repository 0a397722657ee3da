"""Host-side hierarchical span tracing (OTLP-flavored JSONL).

Level 2 of the profiling subsystem: where :mod:`repro.obs.traceprof`
answers "where did the *simulated* cycles go", spans answer "where did the
*wall-clock* go" across a campaign — ``campaign``, ``slice``, ``task``,
``run`` and ``phase`` spans nested through :mod:`repro.runner` and the
``repro check``/``repro run`` harnesses.

Design rules, mirroring ``CheckResult.injection_durations()``:

- wall-clock lives **only** here.  Byte-stable campaign exports never carry
  span data; spans go to their own JSONL file (``--spans PATH``).
- zero overhead when unobserved: every instrumentation site takes an
  optional tracer and does nothing when it is ``None`` (the
  :func:`maybe_span` helper); no tracer, no object construction.
- records are OTLP-flavored: ``traceId``/``spanId``/``parentSpanId``,
  nanosecond timestamps, ``attributes`` as key/typed-value pairs and a
  ``status`` code, one JSON object per line behind a ``span-header``
  record — close enough to OTLP/JSON that a collector adapter is a
  ``jq`` one-liner, without taking a protobuf dependency.

Span ids are sequential (deterministic given call order); only timestamps
carry entropy, and the clock is injectable so tests can pin them.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

__all__ = ["Span", "SpanTracer", "maybe_span"]

_STATUS_CODES = {
    "ok": "STATUS_CODE_OK",
    "error": "STATUS_CODE_ERROR",
    "aborted": "STATUS_CODE_ERROR",
    "unset": "STATUS_CODE_UNSET",
}


def _default_clock() -> int:
    """Monotonic durations on an epoch anchor: comparable *and* steady."""
    return time.time_ns()


class Span:
    """One timed operation; created by :meth:`SpanTracer.begin`."""

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id",
        "start_ns", "end_ns", "attributes", "status",
    )

    def __init__(self, name: str, trace_id: str, span_id: str,
                 parent_id: str | None, start_ns: int, attributes: dict) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_ns = start_ns
        self.end_ns: int | None = None
        self.attributes = attributes
        self.status = "unset"

    @property
    def open(self) -> bool:
        return self.end_ns is None

    @property
    def duration_s(self) -> float:
        if self.end_ns is None:
            return 0.0
        return (self.end_ns - self.start_ns) / 1e9


def _otlp_value(value) -> dict:
    if isinstance(value, bool):
        return {"boolValue": value}
    if isinstance(value, int):
        return {"intValue": str(value)}  # OTLP/JSON encodes int64 as string
    if isinstance(value, float):
        return {"doubleValue": value}
    return {"stringValue": str(value)}


class SpanTracer:
    """Collects spans; writes them as a JSONL stream with a header record.

    Roots (``parent=None``) start a fresh trace id; children inherit their
    parent's.  Spans may close out of order (the pooled runner completes
    tasks as workers finish), so parentage is explicit rather than a stack;
    :meth:`span` is the context-manager convenience for the serial paths.
    """

    def __init__(self, clock: Callable[[], int] = _default_clock,
                 id_base: int = 0,
                 remote_parent: tuple[str, str] | None = None) -> None:
        self._clock = clock
        self._next_id = id_base
        self._lock = threading.Lock()
        #: ``(trace_id, span_id)`` of a parent owned by *another* tracer —
        #: root spans attach under it instead of opening a fresh trace.
        #: ``repro serve`` uses this to keep span parentage intact across
        #: restarts: a resumed job's spans parent onto the span ids recorded
        #: by the pre-crash epoch, with ``id_base`` offset past that epoch's
        #: ids so the two JSONL files merge without collisions.
        self.remote_parent = remote_parent
        self.spans: list[Span] = []

    # -- span lifecycle -------------------------------------------------------

    def begin(self, name: str, parent: Span | None = None, **attributes) -> Span:
        with self._lock:
            self._next_id += 1
            next_id = self._next_id
        if parent is None and self.remote_parent is not None:
            trace_id, parent_id = self.remote_parent
        elif parent is None:
            trace_id = f"{next_id:032x}"
            parent_id = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        span = Span(
            name=name,
            trace_id=trace_id,
            span_id=f"{next_id:016x}",
            parent_id=parent_id,
            start_ns=self._clock(),
            attributes=attributes,
        )
        with self._lock:
            self.spans.append(span)
        return span

    def end(self, span: Span, status: str = "ok") -> None:
        if span.end_ns is None:
            span.end_ns = self._clock()
            span.status = status

    @contextmanager
    def span(self, name: str, parent: Span | None = None,
             **attributes) -> Iterator[Span]:
        current = self.begin(name, parent=parent, **attributes)
        try:
            yield current
        except BaseException:
            self.end(current, status="error")
            raise
        self.end(current)

    # -- export ---------------------------------------------------------------

    def records(self) -> list[dict]:
        """OTLP-flavored dicts; still-open spans export as ``aborted``.

        An interrupted campaign (``RunnerInterrupted``, a crash handler)
        writes whatever it has — open spans get an end timestamp of *now*
        and an error status instead of being dropped.
        """
        now = self._clock()
        out = []
        for span in self.spans:
            end_ns = span.end_ns
            status = span.status
            if end_ns is None:
                end_ns = now
                status = "aborted"
            out.append({
                "traceId": span.trace_id,
                "spanId": span.span_id,
                "parentSpanId": span.parent_id,
                "name": span.name,
                "kind": "SPAN_KIND_INTERNAL",
                "startTimeUnixNano": str(span.start_ns),
                "endTimeUnixNano": str(end_ns),
                "attributes": [
                    {"key": key, "value": _otlp_value(value)}
                    for key, value in span.attributes.items()
                ],
                "status": {"code": _STATUS_CODES.get(status, "STATUS_CODE_UNSET")},
            })
        return out

    def jsonl(self) -> list[dict]:
        """The ``span-header`` record followed by :meth:`records`."""
        from repro.obs.export import SCHEMA_VERSION_2

        header = {
            "schema": SCHEMA_VERSION_2,
            "kind": "span-header",
            "spans": len(self.spans),
        }
        return [header, *self.records()]

    def write(self, path: str | Path) -> Path | None:
        """:meth:`jsonl`, one JSON object per line (``"-"``: stdout)."""
        from repro.obs.export import write_jsonl

        return write_jsonl(path, self.jsonl())


@contextmanager
def maybe_span(tracer: SpanTracer | None, name: str,
               parent: Span | None = None, **attributes) -> Iterator[Span | None]:
    """``tracer.span(...)`` when a tracer exists; a no-op otherwise.

    The instrumentation sites in :mod:`repro.faults` and :mod:`repro.runner`
    all route through this, which is what keeps the untraced path free: no
    tracer means no span object, no clock read, nothing.
    """
    if tracer is None:
        yield None
        return
    with tracer.span(name, parent=parent, **attributes) as span:
        yield span
