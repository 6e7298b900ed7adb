"""Structured span tracing for the supervised runtime.

The paper's tuning cycle is *initialize -> execute -> measure -> next
values*, but until now the runtime's only measurement artifacts were
end-of-run aggregates (``Pipeline.stats``, ``StageCounters``) and the
occupancy snapshot taken at the instant a stall was detected.  This
module makes the **measure phase** first-class: every element's journey
becomes a sequence of typed :class:`Span` records —

* ``queue_wait`` — time a stage spent blocked on its input buffer;
* ``execute``    — one stage/loop-body application (first attempt);
* ``retry``      — a re-execution attempt under a fault policy;
* ``backoff``    — the deterministic sleep between attempts;
* ``timeout``    — an attempt that exceeded its ``ItemTimeout`` deadline;
* ``chaos``      — a seeded fault/delay injection firing;
* ``cancel``     — a worker unwinding on cancellation;
* ``fallback``   — a backend downgrade decision (process -> thread);
* ``respawn``    — a dead pool worker replaced (crash recovery);
* ``redispatch`` — a lost chunk handed to a replacement worker;
* ``hedge``      — a speculative duplicate dispatch of a straggling chunk;
* ``checkpoint`` — a completed chunk journaled (or a journal resumed).

Spans are collected into a bounded, thread-safe :class:`TraceCollector`
ring buffer.  Overflow is *accounted*, never silent: the oldest span is
evicted and ``dropped`` increments.  The ring holds compact records —
flat tuples, no :class:`Span` and no detail dict — written without a
lock; :class:`Span` objects are built only when the ring is read.
Worker processes collect into their
own collector (rebuilt from :meth:`TraceCollector.spec`) and ship span
dictionaries back per chunk, mirroring the error-ledger parity path of
:mod:`repro.runtime.backend` — a traced run produces the same span
ledger under the thread and process backends.

Tracing is **off by default** and costs a ``None`` check when disabled.
Three ways to turn it on:

* pass a collector explicitly (``Pipeline(..., trace=collector)``,
  ``parallel_for(..., trace=collector)``);
* open a :func:`trace_session` — every supervised run started inside the
  ``with`` block records into the session collector (the ``repro trace``
  CLI path);
* set the ``Trace@...`` tuning parameter — re-tunable without
  recompilation like every other knob; the collector is retrievable from
  ``Pipeline.trace`` or :func:`last_trace`.

Consumers: ``report.trace_report`` renders per-stage latency histograms
and utilization; :func:`chrome_trace` emits Chrome trace-event JSON
loadable in Perfetto / ``chrome://tracing``; ``PipelineStallError``
carries the last-N spans per stage so a stall diagnosis shows *history*,
not just the final occupancy snapshot.

Kept stdlib-only, importing within the runtime package only the
stdlib-only :mod:`repro.runtime.observe`, so every runtime module can
use it without cycles.
"""

from __future__ import annotations

import collections
import json
import math
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, ContextManager, Iterable

from repro.runtime.observe import Channel

#: the span kinds, in rough pipeline order
KINDS = (
    "queue_wait",
    "execute",
    "retry",
    "backoff",
    "timeout",
    "chaos",
    "cancel",
    "fallback",
    "respawn",
    "redispatch",
    "hedge",
    "checkpoint",
)

(
    QUEUE_WAIT, EXECUTE, RETRY, BACKOFF, TIMEOUT, CHAOS, CANCEL, FALLBACK,
    RESPAWN, REDISPATCH, HEDGE, CHECKPOINT,
) = KINDS

#: default ring-buffer capacity (spans, not bytes)
DEFAULT_CAPACITY = 16384


@dataclass
class Span:
    """One typed interval in an element's journey through the runtime.

    ``stage`` names the stage (or ``"loop"`` / a master/worker group),
    ``seq`` the element sequence number (``-1`` when the span is not tied
    to one element).  ``start``/``end`` are ``time.monotonic`` stamps.
    ``detail`` carries kind-specific facts: the attempt number, the error
    repr (the :class:`~repro.runtime.faults.ErrorRecord` cross-reference),
    the backoff delay, the downgrade reason, ...
    """

    kind: str
    stage: str
    seq: int
    start: float
    end: float
    worker: str = ""
    detail: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    def as_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "stage": self.stage,
            "seq": self.seq,
            "start": self.start,
            "end": self.end,
            "worker": self.worker,
            "detail": dict(self.detail),
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "Span":
        return cls(
            kind=d["kind"],
            stage=d["stage"],
            seq=int(d["seq"]),
            start=float(d["start"]),
            end=float(d["end"]),
            worker=str(d.get("worker", "")),
            detail=dict(d.get("detail") or {}),
        )


def _span(record: tuple) -> Span:
    """The :class:`Span` a compact ring record stands for."""
    kind, stage, seq, start, end, worker, attempt, error, extra = record
    detail: dict[str, Any] = {}
    if attempt is not None:
        detail["attempt"] = attempt
    if error is not None:
        detail["error"] = error
    if extra:
        detail.update(extra)
    return Span(kind, stage, seq, start, end, worker, detail)


class TraceCollector:
    """A bounded, thread-safe span ring buffer for one run.

    The ring bound makes tracing safe on unbounded streams: memory is
    ``O(capacity)`` and overflow increments :attr:`dropped` instead of
    growing or silently forgetting that truncation happened.

    The ring holds compact records, ``(kind, stage, seq, start, end,
    worker, attempt, error, detail)`` tuples, appended without a lock
    (a deque append is atomic).  The thread name is looked up once per
    thread.  Eviction is deferred: the ring may run a quarter (at least
    16 records) past ``capacity`` before a writer trims it, and readers
    trim first, so eviction happens under the lock only and
    :attr:`dropped` stays exact however many threads write.
    :class:`Span` objects are built only when the ring is read.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        anchor: tuple[float, float] | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("trace capacity must be >= 1")
        self.capacity = capacity
        self._ring: collections.deque[tuple] = collections.deque()
        self._limit = capacity + max(16, capacity // 4)
        #: taken by trims and readers, never by a plain append
        self._lock = threading.Lock()
        self._dropped = 0
        self.worker_label = None  # the setter also starts the name cache
        #: clock anchor ``(monotonic, epoch)`` sampled once at creation:
        #: span stamps are monotonic, so this single pairing is what maps
        #: them to wall-clock time downstream (summaries, Perfetto export,
        #: metrics snapshots).  Worker-side rebuilds inherit the parent's
        #: anchor through :meth:`spec` so every process agrees on the map.
        self.anchor: tuple[float, float] = (
            (float(anchor[0]), float(anchor[1]))
            if anchor is not None
            else (time.monotonic(), time.time())
        )

    def to_epoch(self, monotonic_stamp: float) -> float:
        """Map a ``time.monotonic`` span stamp to epoch seconds."""
        mono0, epoch0 = self.anchor
        return epoch0 + (monotonic_stamp - mono0)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    @staticmethod
    def now() -> float:
        return time.monotonic()

    @property
    def worker_label(self) -> str | None:
        """Label stamped on spans when the recording thread name is not
        meaningful (process-pool workers are all "MainThread")."""
        return self._worker_label

    @worker_label.setter
    def worker_label(self, label: str | None) -> None:
        self._worker_label = label
        self._names = threading.local()  # every thread re-resolves

    def _worker(self) -> str:
        """This thread's worker label, looked up once per thread."""
        try:
            return self._names.worker
        except AttributeError:
            worker = self._names.worker = (
                self._worker_label or threading.current_thread().name
            )
            return worker

    def record(
        self,
        kind: str,
        stage: str,
        seq: int,
        start: float,
        end: float | None = None,
        attempt: int | None = None,
        error: str | None = None,
    ) -> None:
        """Record one span as a compact record; ``end`` defaults to now.

        The hot-path twin of :meth:`add`: the per-element callers (the
        chunk kernel, :meth:`FaultPolicy.execute
        <repro.runtime.faults.FaultPolicy.execute>`, a pipeline stage's
        ``queue_wait``) record through it.  ``attempt`` and ``error``
        become the span's ``detail`` keys when it is read.
        """
        try:  # _worker(), inlined on the hot path
            worker = self._names.worker
        except AttributeError:
            worker = self._worker()
        ring = self._ring
        ring.append((
            kind, stage, seq, start,
            time.monotonic() if end is None else end,
            worker, attempt, error, None,
        ))
        if len(ring) > self._limit:
            with self._lock:
                self._trim()

    def add(
        self,
        kind: str,
        stage: str,
        seq: int,
        start: float,
        end: float | None = None,
        worker: str | None = None,
        **detail: Any,
    ) -> Span:
        """Record one span; ``end`` defaults to now."""
        span = Span(
            kind=kind,
            stage=stage,
            seq=seq,
            start=start,
            end=time.monotonic() if end is None else end,
            worker=worker or self._worker(),
            detail=detail,
        )
        self._push([(
            kind, stage, seq, start, span.end, span.worker, None, None,
            detail,
        )])
        return span

    def instant(self, kind: str, stage: str, seq: int, **detail: Any) -> Span:
        """A zero-duration marker span (downgrades, cancellations)."""
        t = time.monotonic()
        return self.add(kind, stage, seq, t, t, **detail)

    def _push(self, records: Iterable[tuple]) -> None:
        ring = self._ring
        ring.extend(records)
        if len(ring) > self._limit:
            with self._lock:
                self._trim()

    def _trim(self) -> None:
        """Evict the oldest records past ``capacity`` (lock held).

        Only lock holders remove records, and always from the left, so
        every eviction is counted exactly once.
        """
        ring = self._ring
        while len(ring) > self.capacity:
            ring.popleft()
            self._dropped += 1

    def _take(self, remove: bool) -> list[tuple]:
        """The live records, oldest first, trimmed to capacity (lock
        held); ``remove`` also takes them out of the ring."""
        ring = self._ring
        while True:
            try:
                records = list(ring)
                break
            except RuntimeError:  # a lock-free append raced the copy
                continue
        excess = len(records) - self.capacity
        for _ in range(len(records) if remove else excess):
            ring.popleft()  # only lock holders pop: these are `records`
        if excess > 0:
            self._dropped += excess
            records = records[excess:]
        return records

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    @property
    def dropped(self) -> int:
        """Spans evicted from the ring (or dropped by a worker's ring)."""
        with self._lock:
            self._trim()
            return self._dropped

    def __len__(self) -> int:
        with self._lock:
            self._trim()
            return min(len(self._ring), self.capacity)

    def spans(self) -> list[Span]:
        with self._lock:
            records = self._take(remove=False)
        return [_span(r) for r in records]

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self._dropped = 0

    def per_stage(self) -> dict[str, list[Span]]:
        out: dict[str, list[Span]] = {}
        for s in self.spans():
            out.setdefault(s.stage, []).append(s)
        return out

    def last(self, n: int = 5) -> dict[str, list[dict[str, Any]]]:
        """The last ``n`` spans per stage, as dicts (stall diagnostics)."""
        out: dict[str, list[dict[str, Any]]] = {}
        for stage, spans in self.per_stage().items():
            out[stage] = [s.as_dict() for s in spans[-n:]]
        return out

    def last_progress(self, now: float | None = None) -> dict[str, float]:
        """Seconds since each stage's most recent span ended."""
        now = time.monotonic() if now is None else now
        out: dict[str, float] = {}
        for stage, spans in self.per_stage().items():
            out[stage] = max(0.0, now - max(s.end for s in spans))
        return out

    # ------------------------------------------------------------------
    # process parity: worker-side collection, chunked IPC merge
    # ------------------------------------------------------------------
    def spec(self) -> dict[str, Any]:
        """Picklable constructor arguments for a worker-side rebuild."""
        return {"capacity": self.capacity, "anchor": list(self.anchor)}

    @classmethod
    def from_spec(cls, spec: dict[str, Any]) -> "TraceCollector":
        return cls(**spec)

    def drain(self) -> tuple[list[dict[str, Any]], int]:
        """Pop every span (as dicts) plus the drop count; reset both.

        The worker-side half of the chunked IPC merge: called after each
        chunk so span payloads stay proportional to chunk size.
        """
        with self._lock:
            records = self._take(remove=True)
            dropped, self._dropped = self._dropped, 0
        return [_span(r).as_dict() for r in records], dropped

    def absorb(
        self, delta: tuple[Iterable[dict[str, Any]], int]
    ) -> None:
        """Fold a worker's drained ``(spans, dropped)`` into this
        (parent) collector: exactly what :meth:`drain` returned."""
        span_dicts, dropped = delta
        self._push(
            (
                d["kind"], d["stage"], int(d["seq"]), float(d["start"]),
                float(d["end"]), str(d.get("worker", "")), None, None,
                dict(d.get("detail") or {}),
            )
            for d in span_dicts
        )
        if dropped:
            with self._lock:
                self._dropped += dropped

    # ------------------------------------------------------------------
    # aggregation (the summary embedded in Pipeline.stats)
    # ------------------------------------------------------------------
    def summary(self) -> dict[str, Any]:
        """Self-contained per-stage aggregates for reports and the tuner."""
        spans = self.spans()
        mono0, epoch0 = self.anchor
        out: dict[str, Any] = {
            "spans": len(spans),
            "dropped": self.dropped,
            "capacity": self.capacity,
            "anchor": {"monotonic": mono0, "epoch": epoch0},
            "wall": 0.0,
            "stages": {},
        }
        if not spans:
            return out
        start = min(s.start for s in spans)
        out["wall"] = max(s.end for s in spans) - start
        # the run's first span as a real timestamp — orders summaries
        # from different runs (and processes) on one wall clock
        out["started_epoch"] = self.to_epoch(start)
        stages: dict[str, dict[str, Any]] = {}
        for s in spans:
            st = stages.setdefault(
                s.stage,
                {
                    "execute": [],
                    "queue_wait": 0.0,
                    "backoff": 0.0,
                    "retries": 0,
                    "timeouts": 0,
                    "chaos": 0,
                    "cancelled": 0,
                    "errors": 0,
                    "respawns": 0,
                    "redispatches": 0,
                    "hedges": 0,
                    "checkpoints": 0,
                },
            )
            if s.kind in (EXECUTE, RETRY):
                st["execute"].append(s.duration)
                if s.kind == RETRY:
                    st["retries"] += 1
                if "error" in s.detail:
                    st["errors"] += 1
            elif s.kind == QUEUE_WAIT:
                st["queue_wait"] += s.duration
            elif s.kind == BACKOFF:
                st["backoff"] += s.duration
            elif s.kind == TIMEOUT:
                st["timeouts"] += 1
                st["execute"].append(s.duration)
                st["errors"] += 1
            elif s.kind == CHAOS:
                st["chaos"] += 1
            elif s.kind == CANCEL:
                st["cancelled"] += 1
            elif s.kind == RESPAWN:
                st["respawns"] += 1
            elif s.kind == REDISPATCH:
                st["redispatches"] += 1
            elif s.kind == HEDGE:
                st["hedges"] += 1
            elif s.kind == CHECKPOINT:
                st["checkpoints"] += 1
        wall = out["wall"] or 1e-12
        for stage, st in stages.items():
            durs = sorted(st.pop("execute"))
            total = sum(durs)
            n = len(durs)
            out["stages"][stage] = {
                "count": n,
                "execute_total": total,
                "execute_mean": total / n if n else 0.0,
                "execute_p50": _percentile(durs, 0.50),
                "execute_p95": _percentile(durs, 0.95),
                "execute_max": durs[-1] if durs else 0.0,
                "execute_quantiles": _quantile_points(durs),
                "utilization": min(1.0, total / wall),
                "histogram": _histogram(durs),
                **st,
            }
        return out


def _percentile(sorted_durs: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sample.

    Nearest rank is ``ceil(p * n)`` (1-based), so the p50 of two samples
    is the first (the lower median) — naive ``int(p * n)`` indexing
    returned the *max* there.  The input must already be sorted; callers
    sort once and take many percentiles, so the contract is enforced
    rather than re-sorting per call.
    """
    if not sorted_durs:
        return 0.0
    if any(a > b for a, b in zip(sorted_durs, sorted_durs[1:])):
        raise ValueError("_percentile requires an ascending-sorted sample")
    n = len(sorted_durs)
    return sorted_durs[min(n - 1, max(0, math.ceil(p * n) - 1))]


#: cap on inverse-CDF points exported per stage by ``summary()``
MAX_QUANTILE_POINTS = 41


def _quantile_points(
    sorted_durs: list[float], max_points: int = MAX_QUANTILE_POINTS
) -> list[list[float]]:
    """The empirical inverse CDF as ``[[q, value], ...]`` (what a
    calibration fits).

    Order statistics at midpoint plotting positions ``(i + 0.5) / n``
    plus the min/max endpoints: unlike a fixed coarse percentile grid,
    this keeps tail outliers (a stalled sleep, a GC pause) at their true
    probability mass, so a fitted model reproduces the measured *total*,
    not just the median.  Samples beyond ``max_points`` are thinned to
    evenly spaced ranks.
    """
    n = len(sorted_durs)
    if n == 0:
        return []
    if n <= max_points:
        idxs: list[int] = list(range(n))
    else:
        idxs = sorted(
            {
                min(n - 1, int((j + 0.5) * n / max_points))
                for j in range(max_points)
            }
        )
    return (
        [[0.0, sorted_durs[0]]]
        + [[(i + 0.5) / n, sorted_durs[i]] for i in idxs]
        + [[1.0, sorted_durs[-1]]]
    )


#: fixed log-spaced latency buckets (seconds); the report's histogram rows
HIST_EDGES = (1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1.0)
HIST_LABELS = (
    "<0.1ms", "<0.5ms", "<1ms", "<5ms", "<10ms",
    "<50ms", "<100ms", "<500ms", "<1s", ">=1s",
)


def _histogram(durs: list[float]) -> list[list[Any]]:
    counts = [0] * (len(HIST_EDGES) + 1)
    for d in durs:
        for i, edge in enumerate(HIST_EDGES):
            if d < edge:
                counts[i] += 1
                break
        else:
            counts[-1] += 1
    return [
        [label, c] for label, c in zip(HIST_LABELS, counts) if c
    ]


def bottleneck(summary: dict[str, Any]) -> tuple[str, float] | None:
    """(stage, share-of-execute-time) for the busiest stage, or None.

    The tuner's explanation hook: "stage B is the bottleneck at
    Workers=2" falls out of a traced run's summary.
    """
    stages = (summary or {}).get("stages") or {}
    totals = {
        name: st.get("execute_total", 0.0) for name, st in stages.items()
    }
    grand = sum(totals.values())
    if not totals or grand <= 0:
        return None
    stage = max(totals, key=lambda k: totals[k])
    return stage, totals[stage] / grand


# ---------------------------------------------------------------------------
# the session channel (the --trace CLI path)
# ---------------------------------------------------------------------------

_CHANNEL = Channel(TraceCollector)
active_collector = _CHANNEL.active
set_last = _CHANNEL.set_last
last_trace = _CHANNEL.last


def trace_session(
    capacity: int = DEFAULT_CAPACITY,
    collector: TraceCollector | None = None,
) -> ContextManager[TraceCollector]:
    """Context manager: every supervised run inside records spans.

    >>> with trace_session() as collector:
    ...     pipe.run(values)
    >>> len(collector.spans()) > 0
    True

    Sessions nest (innermost wins) and are process-wide, not thread-local
    — stage workers spawned by a traced run must see the collector.
    """
    return _CHANNEL.session(collector, capacity)


def resolve_collector(
    explicit: "TraceCollector | None",
    enabled: bool = False,
    capacity: int = DEFAULT_CAPACITY,
) -> TraceCollector | None:
    """The collector a run should record into.

    Priority: an explicitly passed collector, then the active session,
    then — only when the component's ``Trace@...`` knob is on — a fresh
    collector (published via :func:`set_last`).  Returns ``None`` when
    tracing is off: the disabled path is one ``is None`` check.
    """
    return _CHANNEL.resolve(explicit, enabled, capacity)


# ---------------------------------------------------------------------------
# Chrome trace-event export (Perfetto / chrome://tracing)
# ---------------------------------------------------------------------------

def chrome_trace(
    spans: Iterable[Span | dict[str, Any]],
    label: str = "repro",
    anchor: tuple[float, float] | None = None,
    profile: Iterable[dict[str, Any]] | None = None,
) -> dict[str, Any]:
    """Chrome trace-event JSON for a span list.

    Complete ("X") events on one process row, one thread row per worker,
    timestamps rebased to the earliest span.  The output loads directly
    in Perfetto (ui.perfetto.dev) and ``chrome://tracing``.  With a
    collector's ``(monotonic, epoch)`` clock ``anchor``, ``otherData``
    records the run's start as a real epoch timestamp, so exported
    traces from different runs order on one wall clock.

    ``profile`` optionally takes
    :meth:`~repro.runtime.profiler.SamplingProfiler.sample_events` —
    per-chunk work windows from the sampling profiler.  Each distinct
    ``track`` (one per profiled stage) becomes an extra thread row below
    the worker rows, so sampled compute windows line up with the spans
    that dispatched them on the same Perfetto timeline.
    """
    normalized: list[Span] = [
        s if isinstance(s, Span) else Span.from_dict(s) for s in spans
    ]
    profile_events = list(profile) if profile is not None else []
    events: list[dict[str, Any]] = [
        {
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "name": "process_name",
            "args": {"name": label},
        }
    ]
    if not normalized and not profile_events:
        return {"traceEvents": events, "displayTimeUnit": "ms"}
    t0 = min(
        [s.start for s in normalized]
        + [float(e.get("start", 0.0)) for e in profile_events]
    )
    tids: dict[str, int] = {}
    for s in normalized:
        tid = tids.get(s.worker)
        if tid is None:
            tid = tids[s.worker] = len(tids) + 1
            events.append(
                {
                    "ph": "M",
                    "pid": 0,
                    "tid": tid,
                    "name": "thread_name",
                    "args": {"name": s.worker or "worker"},
                }
            )
        args: dict[str, Any] = {"seq": s.seq, "kind": s.kind}
        args.update(s.detail)
        events.append(
            {
                "ph": "X",
                "pid": 0,
                "tid": tid,
                "ts": round((s.start - t0) * 1e6, 3),
                "dur": round(s.duration * 1e6, 3),
                "name": f"{s.stage}" if s.kind in (EXECUTE, RETRY) else f"{s.kind}:{s.stage}",
                "cat": s.kind,
                "args": args,
            }
        )
    # Profiler work windows ride on their own per-stage thread rows so the
    # sampled compute time sits under the spans that dispatched it.
    for ev in profile_events:
        track = str(ev.get("track", "profile"))
        tid = tids.get(track)
        if tid is None:
            tid = tids[track] = len(tids) + 1
            events.append(
                {
                    "ph": "M",
                    "pid": 0,
                    "tid": tid,
                    "name": "thread_name",
                    "args": {"name": track},
                }
            )
        events.append(
            {
                "ph": "X",
                "pid": 0,
                "tid": tid,
                "ts": round((float(ev.get("start", t0)) - t0) * 1e6, 3),
                "dur": round(float(ev.get("dur", 0.0)) * 1e6, 3),
                "name": str(ev.get("name", "work")),
                "cat": str(ev.get("cat", "profile")),
                "args": dict(ev.get("args", {})),
            }
        )
    other: dict[str, Any] = {"tool": "repro", "spans": len(normalized)}
    if profile_events:
        other["profile_windows"] = len(profile_events)
    if anchor is not None:
        mono0, epoch0 = anchor
        other["started_epoch"] = epoch0 + (t0 - mono0)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def write_chrome_trace(
    path: str | Path,
    spans: Iterable[Span | dict[str, Any]],
    label: str = "repro",
    anchor: tuple[float, float] | None = None,
    profile: Iterable[dict[str, Any]] | None = None,
) -> Path:
    path = Path(path)
    path.write_text(
        json.dumps(
            chrome_trace(spans, label=label, anchor=anchor, profile=profile)
        )
        + "\n"
    )
    return path
