"""Every metric the benchmark reports: name, unit, direction, bound.

``BENCHMARK.json`` at the repository root mirrors these tables; the
tests hold the two in step.  ``bound`` is the share of the parent's
median by which an end-to-end metric may worsen before a change counts
as a regression.
"""

from __future__ import annotations

#: (name, unit, better, bound) — measured untraced, one value per run
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    # the median of several fresh-interpreter launches, each scaled to
    # the nominal host speed; still the noisiest metric, so the widest
    # bound
    ("setup_s", "s", "lower", 0.25),
    # the paper's claim, and drift-robust: every call is paired with the
    # bare loop timed just before it, on the same inputs
    ("speedup_vs_serial", "x", "higher", 0.20),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

#: (name, unit) — printed and kept in ``--out``, but not gated: absolute
#: call times follow the shared host's speed, which drifts far more
#: than any bound a regression gate could use (see README.md)
INFO: tuple[tuple[str, str], ...] = (
    ("call_p50_ms", "ms"),
    ("call_p95_ms", "ms"),
    ("bare_p50_ms", "ms"),
    # set-up in wall-clock seconds, before the scaling setup_s applies
    ("setup_wall_s", "s"),
)

#: (name, unit, better) — measured in the separate traced run
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    # runtime.parallel_for
    ("parallel_for.self_us_per_call", "us", "lower"),
    ("parallel_for.wrapper_ns_per_element", "ns", "lower"),
    # runtime.adaptive (every planner lives there)
    ("adaptive.plan_us_per_call", "us", "lower"),
    ("adaptive.chunks_per_call", "count", "lower"),
    ("adaptive.waves_per_call", "count", "lower"),
    ("adaptive.resizes_per_call", "count", "lower"),
    ("adaptive.chunk_elems_p50", "count", "higher"),
    # runtime.backend
    ("backend.payload_us_per_call", "us", "lower"),
    ("backend.payload_bytes_per_element", "bytes", "lower"),
    ("backend.collect_ms_per_call", "ms", "lower"),
    ("backend.chunk_latency_p50_us", "us", "lower"),
    ("backend.chunk_latency_p95_us", "us", "lower"),
    ("backend.worker_busy_share", "ratio", "higher"),
    ("backend.result_bytes_per_element", "bytes", "lower"),
    ("backend.recovery_events_per_call", "count", "lower"),
    ("backend.worker_pids", "count", "lower"),
    # runtime.shm
    ("shm.setup_us_per_call", "us", "lower"),
    ("shm.dispose_us_per_call", "us", "lower"),
    ("shm.downgrades_per_call", "count", "lower"),
    # runtime.faults, runtime.checkpoint
    ("faults.ledger_records_per_call", "count", "lower"),
    ("faults.attempts_per_call", "count", "lower"),
    ("checkpoint.record_us_p50", "us", "lower"),
    ("checkpoint.records_per_call", "count", "lower"),
    ("checkpoint.bytes_per_call", "bytes", "lower"),
    ("checkpoint.close_ms", "ms", "lower"),
    # runtime.trace, runtime.metrics, and the telemetry ladder
    ("trace.spans_per_element", "count", "lower"),
    ("trace.dropped_per_call", "count", "lower"),
    ("metrics.series", "count", "lower"),
    ("telemetry.trace_ns_per_element", "ns", "lower"),
    ("telemetry.metrics_ns_per_element", "ns", "lower"),
    ("telemetry.journal_ns_per_element", "ns", "lower"),
    ("telemetry.policy_ns_per_element", "ns", "lower"),
    # runtime.pipeline, runtime.buffer
    ("pipeline.parse_busy_ms", "ms", "lower"),
    ("pipeline.compute_busy_ms", "ms", "lower"),
    ("pipeline.emit_busy_ms", "ms", "lower"),
    ("pipeline.body_share", "ratio", "higher"),
    ("buffer.put_us_p50", "us", "lower"),
    ("buffer.get_us_p50", "us", "lower"),
    ("buffer.ops_per_item", "count", "lower"),
    ("buffer.max_occupancy", "count", "lower"),
    # the process and its threads
    ("threads.started_per_call", "count", "lower"),
    ("parent.cpu_ms_per_call", "ms", "lower"),
    ("workers.cpu_ms_per_call", "ms", "lower"),
    ("bare.p50_ms", "ms", "lower"),
    # the outside-in trace itself
    ("trace.overhead_pct", "%", "lower"),
    ("trace.self_sum_err_pct", "%", "lower"),
)

UNITS: dict[str, str] = {
    **{name: unit for name, unit, _b, _x in END_TO_END},
    **{name: unit for name, unit, _b in PER_LAYER},
    **dict(INFO),
}


def names(traced: bool) -> list[str]:
    """The metric names one run prints (end-to-end, or per-layer)."""
    if traced:
        return [name for name, _u, _b in PER_LAYER]
    return [name for name, _u, _b, _x in END_TO_END]
