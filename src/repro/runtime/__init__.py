"""The parallel runtime library.

"For the purpose of standardization, we implemented a runtime library that
contains data types for parallel patterns and that is capable of handling
tuning parameters" (paper, section 2.1).  Generated code — and engineers
using Patty's *library-based parallel programming* mode — instantiate
these types directly:

>>> from repro.runtime import Item, MasterWorker, Pipeline
>>> p1 = Item(lambda x: x + 1, name="inc", replicable=True)
>>> p2 = Item(lambda x: x * 2, name="dbl")
>>> pipe = Pipeline(p1, p2)
>>> pipe.run([1, 2, 3])
[4, 6, 8]
"""

from repro.runtime.adaptive import SCHEDULES, plan_chunks, plan_guided
from repro.runtime.backend import (
    BACKENDS,
    BackendEvent,
    BackendFallbackWarning,
    PoolSession,
    RecoveryEvent,
    ShipError,
    TuningError,
    WorkerLostError,
    ship_blob,
    ship_callable,
    shutdown_sessions,
)
from repro.runtime.buffer import BoundedBuffer, EndOfStream
from repro.runtime.checkpoint import CheckpointError, ChunkJournal
from repro.runtime.shm import TRANSPORTS, normalize_transport
from repro.runtime.faults import (
    BufferTimeout,
    CancellationToken,
    CancelledError,
    ErrorRecord,
    FaultPolicy,
    ItemTimeoutError,
    Outcome,
    StageCounters,
)
from repro.runtime.chaos import ChaosError, ChaosInjector
from repro.runtime.item import Item
from repro.runtime.masterworker import MasterWorker
from repro.runtime.pipeline import Pipeline, PipelineError, PipelineStallError
from repro.runtime.parallel_for import (
    parallel_for,
    parallel_reduce,
    configured_parallel_for,
)
from repro.runtime.futures import AutoFuture, spawn, join_all
from repro.runtime.dashboard import LiveDashboard, render_line
from repro.runtime.flight import FlightRecorder, flight_path
from repro.runtime.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    active_registry,
    last_metrics,
    metrics_session,
    parse_openmetrics,
    resolve_registry,
    to_openmetrics,
)
from repro.runtime.profiler import (
    SamplingProfiler,
    active_profiler,
    decompose,
    last_profile,
    profile_session,
    resolve_profiler,
    write_folded,
    write_speedscope,
)
from repro.runtime.trace import (
    Span,
    TraceCollector,
    active_collector,
    bottleneck,
    chrome_trace,
    last_trace,
    trace_session,
    write_chrome_trace,
)
from repro.runtime.tunable import TuningConfig

__all__ = [
    "BACKENDS",
    "SCHEDULES",
    "plan_chunks",
    "plan_guided",
    "BackendEvent",
    "BackendFallbackWarning",
    "RecoveryEvent",
    "PoolSession",
    "ShipError",
    "TRANSPORTS",
    "TuningError",
    "WorkerLostError",
    "normalize_transport",
    "ship_blob",
    "ship_callable",
    "shutdown_sessions",
    "BoundedBuffer",
    "EndOfStream",
    "CheckpointError",
    "ChunkJournal",
    "Item",
    "MasterWorker",
    "Pipeline",
    "PipelineError",
    "PipelineStallError",
    "BufferTimeout",
    "CancellationToken",
    "CancelledError",
    "ErrorRecord",
    "FaultPolicy",
    "ItemTimeoutError",
    "Outcome",
    "StageCounters",
    "ChaosError",
    "ChaosInjector",
    "parallel_for",
    "parallel_reduce",
    "configured_parallel_for",
    "AutoFuture",
    "spawn",
    "join_all",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "active_registry",
    "last_metrics",
    "metrics_session",
    "parse_openmetrics",
    "resolve_registry",
    "to_openmetrics",
    "FlightRecorder",
    "flight_path",
    "SamplingProfiler",
    "active_profiler",
    "decompose",
    "last_profile",
    "profile_session",
    "resolve_profiler",
    "write_folded",
    "write_speedscope",
    "LiveDashboard",
    "render_line",
    "Span",
    "TraceCollector",
    "active_collector",
    "bottleneck",
    "chrome_trace",
    "last_trace",
    "trace_session",
    "write_chrome_trace",
    "TuningConfig",
]
