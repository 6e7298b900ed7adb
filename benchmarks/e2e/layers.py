"""Per-layer metrics: span arithmetic per traced call, and the ladder.

:func:`call_facts` turns one traced call's spans (plus the call's own
evidence: ledger, journal, runtime collector and registry) into raw
numbers; :func:`summarize` folds the calls of a run into the
``PER_LAYER`` metrics of :mod:`e2e.catalog`.  :func:`ladder` measures
per-element costs as differences between the best times of runs of
``parallel_for`` on the serial road over the same inputs: one rung with
a single feature on against the rung with everything off (and that rung
against the bare loop).
"""

from __future__ import annotations

import pickle
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Sequence

from e2e.stats import median, nearest_rank
from e2e.tracing import LAYER, ROOT, Span, self_times
from e2e.workloads import WORKERS, Outcome, Workload

PLANNERS = frozenset(
    name for name, layer in LAYER.items()
    if layer == "runtime.adaptive"
)
PATTERNS = ("runtime.parallel_for", "runtime.parallel_reduce")
STAGES = ("parse", "compute", "emit")
COLLECT = "parallel_for.run_process_chunks"
PAYLOAD = "parallel_for.build_process_payload"
SHM_BUILD = ("shm.ShmInput.build", "shm.ShmOutput.build")
SHM_DISPOSE = ("shm.ShmInput.dispose", "shm.ShmOutput.dispose")

#: the ladder runs on at most this many of a workload's elements
LADDER_ELEMENTS = 5_000


def call_facts(
    spans: Sequence[Span], outcome: Outcome, stages: dict[str, float]
) -> dict[str, Any]:
    """Raw per-call numbers from one traced call (seconds, bytes, counts).

    ``stages`` is the benchmark-timed busy time of each pipeline stage
    body (empty for the loop workloads)."""
    root = next(s for s in spans if s.name == ROOT)
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    by_id = {s.id: s for s in spans}

    def dur(name: str) -> float:
        return sum(s.duration for s in by_name[name])

    self_by_name: dict[str, float] = defaultdict(float)
    off_thread: dict[str, float] = defaultdict(float)
    for s in spans:
        if s.thread == root.thread:
            self_by_name[s.name] += selfs[s.id]
        else:
            off_thread[s.name] += s.duration

    collects = by_name[COLLECT]
    if collects:
        descriptors = [
            hi - lo for s in collects for lo, hi in s.kept[0][1]
        ]
    else:
        # the thread road plans once; count only outermost planners
        # (plan_chunks delegates to plan_fixed/plan_guided)
        descriptors = [
            hi - lo
            for name in PLANNERS
            for s in by_name[name]
            if by_id.get(s.parent) is None
            or by_id[s.parent].name not in PLANNERS
            for lo, hi in s.kept[2]
        ]
    latencies = [
        lat for s in collects for lat in s.kept[2].latencies.values()
    ]
    payloads = [s.kept[2][0] for s in by_name[PAYLOAD]]
    shm_builds = by_name["shm.ShmInput.build"]
    buffers = {
        id(s.kept[0][0]): s.kept[0][0]
        for s in by_name["buffer.BoundedBuffer.put"]
    }
    return {
        "wall": root.duration,
        "self_sum": sum(self_by_name.values()),
        "self_by_name": dict(self_by_name),
        "off_thread": dict(off_thread),
        "stages": dict(stages),
        "pattern_self": sum(self_by_name.get(name, 0.0) for name in PATTERNS),
        "plan": sum(selfs[s.id] for name in PLANNERS for s in by_name[name]),
        "descriptors": descriptors,
        "waves": len(collects),
        "resizes": len(by_name["backend.PoolSession.resize"]),
        "payload": dur(PAYLOAD),
        "payload_bytes": sum(
            len(p.kernel_blob) + len(p.call_blob)
            for p in payloads if p is not None
        ),
        "collect": dur(COLLECT),
        "latencies": latencies,
        "busy_capacity": sum(
            s.duration * s.kept[1].get("workers", WORKERS) for s in collects
        ),
        "result_bytes": sum(
            len(pickle.dumps(chunk.values, protocol=pickle.HIGHEST_PROTOCOL))
            for s in collects for chunk in s.kept[2].chunks.values()
        ),
        "recovery": sum(len(s.kept[2].recovery) for s in collects),
        "shm_setup": sum(dur(name) for name in SHM_BUILD),
        "shm_dispose": sum(dur(name) for name in SHM_DISPOSE),
        "downgrades": sum(1 for s in shm_builds if s.kept[2][0] is None),
        "records": [s.duration for s in by_name["checkpoint.ChunkJournal.record"]],
        "close": dur("checkpoint.ChunkJournal.close"),
        "puts": [s.duration for s in by_name["buffer.BoundedBuffer.put"]],
        "gets": [s.duration for s in by_name["buffer.BoundedBuffer.get"]],
        "max_occupancy": max(
            (b.max_occupancy for b in buffers.values()), default=0
        ),
        "threads": len(by_name["threading.Thread.start"]),
        "ledger": len(outcome.ledger or ()),
        "attempts": sum(r.attempts for r in outcome.ledger or ()),
        "journal_bytes": (
            outcome.journal.stat().st_size
            if outcome.journal is not None and outcome.journal.exists()
            else 0
        ),
        "runtime_spans": (
            len(outcome.trace) + outcome.trace.dropped
            if outcome.trace is not None else 0
        ),
        "runtime_dropped": (
            outcome.trace.dropped if outcome.trace is not None else 0
        ),
        "series": len(outcome.metrics) if outcome.metrics is not None else 0,
    }


def _per_call(calls: Sequence[dict], key: str) -> float:
    return median([c[key] for c in calls])


def summarize(
    calls: Sequence[dict[str, Any]], n: int, extra: dict[str, float]
) -> dict[str, float]:
    """Fold per-call facts into the per-layer metric table.

    Per-call quantities are medians over the traced calls; latency-like
    distributions (chunk latency, journal record, buffer put/get) are
    pooled over every span of every traced call.  ``extra`` carries the
    numbers measured outside the spans (ladder, CPU, overhead).
    """
    latencies = [x for c in calls for x in c["latencies"]]
    capacity = sum(c["busy_capacity"] for c in calls)
    descriptors = [x for c in calls for x in c["descriptors"]]
    records = [x for c in calls for x in c["records"]]
    puts = [x for c in calls for x in c["puts"]]
    gets = [x for c in calls for x in c["gets"]]
    stage = {
        k: median([c["stages"].get(k, 0.0) for c in calls]) for k in STAGES
    }
    body_share = median([
        sum(c["stages"].values()) / c["wall"] for c in calls
    ])
    metrics = {
        "parallel_for.self_us_per_call": _per_call(calls, "pattern_self") * 1e6,
        "adaptive.plan_us_per_call": _per_call(calls, "plan") * 1e6,
        "adaptive.chunks_per_call": median([len(c["descriptors"]) for c in calls]),
        "adaptive.waves_per_call": _per_call(calls, "waves"),
        "adaptive.resizes_per_call": _per_call(calls, "resizes"),
        "adaptive.chunk_elems_p50": median(descriptors),
        "backend.payload_us_per_call": _per_call(calls, "payload") * 1e6,
        "backend.payload_bytes_per_element": _per_call(calls, "payload_bytes") / n,
        "backend.collect_ms_per_call": _per_call(calls, "collect") * 1e3,
        "backend.chunk_latency_p50_us": nearest_rank(latencies, 0.50) * 1e6,
        "backend.chunk_latency_p95_us": nearest_rank(latencies, 0.95) * 1e6,
        "backend.worker_busy_share": (
            sum(latencies) / capacity if capacity else 0.0
        ),
        "backend.result_bytes_per_element": _per_call(calls, "result_bytes") / n,
        "backend.recovery_events_per_call": _per_call(calls, "recovery"),
        "shm.setup_us_per_call": _per_call(calls, "shm_setup") * 1e6,
        "shm.dispose_us_per_call": _per_call(calls, "shm_dispose") * 1e6,
        "shm.downgrades_per_call": _per_call(calls, "downgrades"),
        "faults.ledger_records_per_call": _per_call(calls, "ledger"),
        "faults.attempts_per_call": _per_call(calls, "attempts"),
        "checkpoint.record_us_p50": median(records) * 1e6,
        "checkpoint.records_per_call": median([len(c["records"]) for c in calls]),
        "checkpoint.bytes_per_call": _per_call(calls, "journal_bytes"),
        "checkpoint.close_ms": _per_call(calls, "close") * 1e3,
        "trace.spans_per_element": _per_call(calls, "runtime_spans") / n,
        "trace.dropped_per_call": _per_call(calls, "runtime_dropped"),
        "metrics.series": _per_call(calls, "series"),
        "pipeline.parse_busy_ms": stage["parse"] * 1e3,
        "pipeline.compute_busy_ms": stage["compute"] * 1e3,
        "pipeline.emit_busy_ms": stage["emit"] * 1e3,
        "pipeline.body_share": body_share,
        "buffer.put_us_p50": median(puts) * 1e6,
        "buffer.get_us_p50": median(gets) * 1e6,
        "buffer.ops_per_item": median(
            [(len(c["puts"]) + len(c["gets"])) / n for c in calls]
        ),
        "buffer.max_occupancy": float(max(c["max_occupancy"] for c in calls)),
        "threads.started_per_call": _per_call(calls, "threads"),
        "trace.self_sum_err_pct": max(
            abs(c["self_sum"] - c["wall"]) / c["wall"] for c in calls
        ) * 100,
    }
    metrics.update(extra)
    return metrics


def layer_table(calls: Sequence[dict[str, Any]]) -> dict[str, Any]:
    """Self time per layer and per span name, µs per call (medians),
    plus busy time spent off the caller thread."""
    names = sorted({k for c in calls for k in c["self_by_name"]})
    off = sorted({k for c in calls for k in c["off_thread"]})
    spans = {
        name: median([c["self_by_name"].get(name, 0.0) for c in calls]) * 1e6
        for name in names
    }
    layers: dict[str, float] = defaultdict(float)
    for name, us in spans.items():
        layers[LAYER.get(name, "unknown")] += us
    return {
        "wall_us_per_call": median([c["wall"] for c in calls]) * 1e6,
        "self_us_per_call_by_layer": dict(layers),
        "self_us_per_call_by_span": spans,
        "off_thread_busy_us_per_call": {
            name: median([c["off_thread"].get(name, 0.0) for c in calls]) * 1e6
            for name in off
        },
    }


def ladder(case: Workload, workdir: Path, reps: int) -> dict[str, float]:
    """Per-element costs from interleaved rungs on the serial road."""
    import repro.runtime as rt

    values, body, chunk = case.ladder()
    values = values[:LADDER_ELEMENTS]
    n = len(values)
    journal_path = Path(workdir) / "ladder.rpj"

    def run(**features: Any) -> list[Any]:
        return rt.parallel_for(
            values, body, workers=WORKERS, chunk_size=chunk,
            backend="serial", **features,
        )

    def bare() -> list[Any]:
        out = []
        for v in values:
            out.append(body(v))
        return out

    def journal() -> list[Any]:
        with rt.ChunkJournal.create(journal_path, flush="batch") as j:
            out = run(checkpoint=j)
        journal_path.unlink()
        return out

    rungs = {
        "bare": bare,
        "off": run,
        "trace": lambda: run(trace=rt.TraceCollector()),
        "metrics": lambda: run(metrics=rt.MetricsRegistry()),
        "journal": journal,
        "policy": lambda: run(policy=rt.FaultPolicy(
            retries=1, backoff=0, on_error="fallback", fallback=-1
        )),
    }
    order = list(rungs)
    times: dict[str, list[float]] = {k: [] for k in order}
    for rep in range(reps):
        # rotate the order so no rung always runs first or last
        for k in order[rep % len(order):] + order[:rep % len(order)]:
            t0 = time.perf_counter()
            rungs[k]()
            times[k].append(time.perf_counter() - t0)
    # best of the repetitions: the host's noise only ever adds time, and
    # a difference of two minima is what the feature itself costs
    best = {k: min(v) for k, v in times.items()}

    def per_element(rung: str, base: str) -> float:
        return (best[rung] - best[base]) / n * 1e9

    return {
        "parallel_for.wrapper_ns_per_element": per_element("off", "bare"),
        "telemetry.trace_ns_per_element": per_element("trace", "off"),
        "telemetry.metrics_ns_per_element": per_element("metrics", "off"),
        "telemetry.journal_ns_per_element": per_element("journal", "off"),
        "telemetry.policy_ns_per_element": per_element("policy", "off"),
    }
