"""repro.obs — the instrumentation subsystem.

A unified telemetry layer for the simulator: per-stage cycle attribution
(:mod:`repro.obs.attribution`) tags every simulated cycle as pair-issue /
solo-issue / data-stall / mispredict-bubble / drain; SPU controller tracing (:mod:`repro.obs.spu`) records the microprogram
state machine's transitions, loop counters and GO/idle occupancy; a metrics
registry plus JSON/JSONL exporters (:mod:`repro.obs.metrics`,
:mod:`repro.obs.export`) turn all of it into machine-readable reports; a
back-edge hot-trace profiler (:mod:`repro.obs.traceprof`) aggregates runs
into the per-trace cycle attribution behind ``repro top``; a columnar run
recorder (:mod:`repro.obs.recorder`) is how a machine run's issues,
stalls, branches and controller steps are observed, and feeds the
profiler, the timeline and the tracers without taking a run out of
translated blocks; and host-side span tracing (:mod:`repro.obs.spans`)
times campaigns as OTLP-flavored hierarchical spans.  :mod:`repro.obs.events`
holds the ``repro serve`` ``/v1/events`` record types.

The modules here deliberately avoid module-level imports from the simulator
packages (``repro.cpu``, ``repro.core``, ``repro.kernels``): the pipeline's
hot loop imports :mod:`repro.obs.recorder`, so everything else stays lazy to
keep the import graph acyclic.

See ``docs/observability.md`` for the telemetry and schema reference.
"""

from repro.obs.events import (
    JobDegradedEvent,
    JobDoneEvent,
    JobRejectedEvent,
    JobRequeuedEvent,
    JobStartedEvent,
    JobSubmittedEvent,
    ServeCompactEvent,
    ServeDrainEvent,
)
from repro.obs.attribution import CATEGORIES, CycleAttribution, CycleSegment
from repro.obs.spu import ControllerTrace
from repro.obs.metrics import Metric, MetricsRegistry
from repro.obs.export import (
    SCHEMA_VERSION,
    SCHEMA_VERSION_2,
    envelope,
    kernel_profile_report,
    resolve_kernel_name,
    trace_header,
    trace_profile_report,
    trace_records,
    write_json,
    write_jsonl,
)
from repro.obs.spans import Span, SpanTracer, maybe_span
from repro.obs.recorder import Chunk, Reader, Recorder
from repro.obs.traceprof import TraceProfiler, TraceStats

__all__ = [
    "JobDegradedEvent",
    "JobDoneEvent",
    "JobRejectedEvent",
    "JobRequeuedEvent",
    "JobStartedEvent",
    "JobSubmittedEvent",
    "ServeCompactEvent",
    "ServeDrainEvent",
    "CATEGORIES",
    "CycleAttribution",
    "CycleSegment",
    "ControllerTrace",
    "Metric",
    "MetricsRegistry",
    "SCHEMA_VERSION",
    "SCHEMA_VERSION_2",
    "envelope",
    "kernel_profile_report",
    "resolve_kernel_name",
    "trace_header",
    "trace_profile_report",
    "trace_records",
    "write_json",
    "write_jsonl",
    "Span",
    "SpanTracer",
    "maybe_span",
    "TraceProfiler",
    "Recorder",
    "Reader",
    "Chunk",
    "TraceStats",
]
