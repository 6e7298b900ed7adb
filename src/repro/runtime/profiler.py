"""Thread-based sampling profiler with per-chunk attribution.

Spans (``repro.runtime.trace``) say where time went *between* elements
and metrics (``repro.runtime.metrics``) say *how much* work happened —
neither says what the workers' CPUs were actually doing.  The
:class:`SamplingProfiler` closes that gap: a daemon thread walks
``sys._current_frames()`` at a configurable rate and folds each sampled
stack (flamegraph style, root first) under the stage/chunk the sampled
thread had registered via :meth:`SamplingProfiler.work`.  Each work
window also measures ``time.thread_time`` against the wall clock — CPU
seconds the thread actually ran vs seconds it merely existed — which is
the descheduled/GIL-pressure proxy the decomposition report and the
hint engine (:mod:`repro.tuning.hints`) consume.

Process parity rides the chunk-result road: a worker rebuilds the
profiler from :meth:`spec`, samples itself, and :meth:`drain`\\ s after
each chunk into the same :class:`~repro.runtime.backend.ChunkResult`
that carries the chunk's values, spans and metric deltas.  The parent
absorbs a chunk's profile under the identical first-result-wins
whole-chunk dedup, so sample accounting obeys the conservation
invariants under respawn/hedge/redispatch exactly as metrics do: one
work record per planned chunk, duplicates dropped whole, on every
backend.

Profiling is off by default (``Profile@...`` knob); the disabled path
is one ``is None`` check per *chunk* (never per element), held under 5%
by ``benchmarks/bench_overhead.py``.
"""

from __future__ import annotations

import json
import os.path
import sys
import threading
import time
from pathlib import Path
from typing import Any, ContextManager

from repro.runtime.observe import Channel

#: default sampling rate — a prime Hz so the sampler cannot phase-lock
#: onto millisecond-periodic workloads and oversample one line
DEFAULT_HZ = 97.0

#: default bound on accumulated samples (overflow is *accounted*)
DEFAULT_MAX_SAMPLES = 200_000

#: deepest stack recorded per sample; deeper frames are dropped rootward
MAX_STACK_DEPTH = 48

#: the sampler thread exits after this long with no registered work, so
#: a knob-created profiler never leaks a busy thread past its run
IDLE_EXIT_SECONDS = 0.5

_THIS_FILE = os.path.basename(__file__)


def _fold(frame, max_depth: int = MAX_STACK_DEPTH) -> str:
    """Semicolon-joined stack, root first (the flamegraph.pl contract).

    Frames belonging to this module (the work-marker bookkeeping) are
    trimmed so thread- and process-backend stacks stay comparable.
    """
    labels: list[str] = []
    while frame is not None and len(labels) < max_depth:
        code = frame.f_code
        if os.path.basename(code.co_filename) != _THIS_FILE:
            labels.append(f"{os.path.basename(code.co_filename)}:{code.co_name}")
        frame = frame.f_back
    labels.reverse()
    return ";".join(labels)


class _Work:
    """One registered work window: marker + thread_time/wall bookkeeping."""

    __slots__ = ("profiler", "stage", "chunk", "ident", "t0", "cpu0")

    def __init__(self, profiler: "SamplingProfiler", stage: str, chunk: int):
        self.profiler = profiler
        self.stage = stage
        self.chunk = chunk

    def __enter__(self) -> "_Work":
        self.ident = threading.get_ident()
        self.profiler._register(self.ident, self.stage, self.chunk)
        # thread_time is read on the owning thread (it cannot be read
        # across threads); the cpu-vs-wall delta is this window's
        # descheduled/GIL-pressure measurement
        self.t0 = time.monotonic()
        self.cpu0 = time.thread_time()
        return self

    def __exit__(self, *exc: Any) -> None:
        cpu = time.thread_time() - self.cpu0
        end = time.monotonic()
        self.profiler._finish(
            self.ident, self.stage, self.chunk, self.t0, end, cpu,
            sys._getframe(1),
        )


class SamplingProfiler:
    """A bounded, thread-safe sample accumulator for one run.

    Samples are folded stacks counted under ``(stage, chunk)`` keys —
    the aggregation is done at sample time, so memory stays proportional
    to stack diversity, not run length, and the ``max_samples`` bound
    increments :attr:`dropped` on overflow instead of silently
    forgetting.
    """

    def __init__(
        self,
        hz: float = DEFAULT_HZ,
        max_samples: int = DEFAULT_MAX_SAMPLES,
        anchor: tuple[float, float] | None = None,
    ) -> None:
        if hz <= 0:
            raise ValueError("profiler rate must be > 0 Hz")
        if max_samples < 1:
            raise ValueError("profiler sample bound must be >= 1")
        self.hz = float(hz)
        self.max_samples = int(max_samples)
        self._lock = threading.Lock()
        #: (stage, chunk, folded-stack) -> sample count
        self._stacks: dict[tuple[str, int, str], int] = {}
        #: one record per finished work window:
        #: (stage, chunk, start_mono, end_mono, cpu_seconds, samples)
        self._work: list[tuple[str, int, float, float, float, int]] = []
        #: live markers: thread ident -> (stage, chunk)
        self._marks: dict[int, tuple[str, int]] = {}
        #: timer-taken samples attributed to each live/last window
        self._window_samples: dict[int, int] = {}
        self.samples = 0
        self.dropped = 0
        self._thread: threading.Thread | None = None
        self._wake = threading.Event()
        #: label stamped on exports from process-pool workers
        self.worker_label: str | None = None
        #: clock anchor ``(monotonic, epoch)``, shared with worker-side
        #: rebuilds through :meth:`spec` like the trace collector's
        self.anchor: tuple[float, float] = (
            (float(anchor[0]), float(anchor[1]))
            if anchor is not None
            else (time.monotonic(), time.time())
        )

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def work(self, stage: str, chunk: int) -> _Work:
        """Context manager marking the calling thread's current work.

        Samples taken while the window is open are attributed to
        ``(stage, chunk)``; closing the window records the cpu-vs-wall
        measurement plus one guaranteed closing sample, so every chunk
        contributes at least one stack even when it outruns the sampling
        interval.
        """
        return _Work(self, stage, chunk)

    def _register(self, ident: int, stage: str, chunk: int) -> None:
        with self._lock:
            self._marks[ident] = (stage, chunk)
            self._window_samples[ident] = 0
        self._ensure_sampler()

    def _finish(
        self,
        ident: int,
        stage: str,
        chunk: int,
        start: float,
        end: float,
        cpu: float,
        frame,
    ) -> None:
        # the closing sample makes per-chunk stacks deterministic-ly
        # non-empty; it is taken before the marker clears so it counts
        # into this window
        self._count(stage, chunk, _fold(frame), ident=ident)
        with self._lock:
            self._marks.pop(ident, None)
            taken = self._window_samples.pop(ident, 0)
            self._work.append((stage, chunk, start, end, max(0.0, cpu), taken))

    def _count(
        self, stage: str, chunk: int, folded: str, ident: int | None = None
    ) -> None:
        with self._lock:
            if self.samples - self.dropped >= self.max_samples:
                self.samples += 1
                self.dropped += 1
                return
            self.samples += 1
            key = (stage, chunk, folded)
            self._stacks[key] = self._stacks.get(key, 0) + 1
            if ident is not None and ident in self._window_samples:
                self._window_samples[ident] += 1

    # ------------------------------------------------------------------
    # the sampler thread
    # ------------------------------------------------------------------
    def _ensure_sampler(self) -> None:
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return
            self._wake.clear()
            self._thread = threading.Thread(
                target=self._sample_loop, name="repro-profiler", daemon=True
            )
            self._thread.start()

    def _sample_loop(self) -> None:
        interval = 1.0 / self.hz
        idle_since: float | None = None
        while not self._wake.wait(interval):
            with self._lock:
                marks = dict(self._marks)
            if not marks:
                now = time.monotonic()
                if idle_since is None:
                    idle_since = now
                elif now - idle_since >= IDLE_EXIT_SECONDS:
                    break
                continue
            idle_since = None
            frames = sys._current_frames()
            for ident, (stage, chunk) in marks.items():
                frame = frames.get(ident)
                if frame is None:
                    continue
                self._count(stage, chunk, _fold(frame), ident=ident)
        with self._lock:
            if self._thread is threading.current_thread():
                self._thread = None

    def stop(self) -> None:
        """Stop the sampler thread (idle profilers stop themselves)."""
        with self._lock:
            thread = self._thread
            self._thread = None
        if thread is not None and thread.is_alive():
            self._wake.set()
            thread.join(1.0)
        self._wake.clear()

    # ------------------------------------------------------------------
    # process parity: worker-side collection, chunked IPC merge
    # ------------------------------------------------------------------
    def spec(self) -> dict[str, Any]:
        """Picklable constructor arguments for a worker-side rebuild."""
        return {
            "hz": self.hz,
            "max_samples": self.max_samples,
            "anchor": list(self.anchor),
        }

    @classmethod
    def from_spec(cls, spec: dict[str, Any]) -> "SamplingProfiler":
        return cls(**spec)

    def drain(self) -> tuple | None:
        """Pop everything recorded so far as a picklable delta; reset.

        The worker-side half of the chunked merge, called after each
        chunk: ``(stack rows, work rows, dropped)``.  Returns ``None``
        when nothing was recorded (the common case for sub-interval
        chunks keeps :class:`ChunkResult` payloads small... except the
        closing sample guarantees at least one row per work window).
        """
        with self._lock:
            if not self._stacks and not self._work and not self.dropped:
                return None
            stacks = [
                (stage, chunk, folded, count)
                for (stage, chunk, folded), count in self._stacks.items()
            ]
            work = list(self._work)
            dropped = self.dropped
            self._stacks.clear()
            self._work.clear()
            self.samples -= dropped
            self.samples -= sum(r[3] for r in stacks)
            self.dropped = 0
        return (stacks, work, dropped)

    def absorb(self, payload: tuple | None) -> None:
        """Fold a worker's drained delta into this (parent) profiler.

        Callers dedup at the chunk level *before* absorbing — this is
        the same contract as metric deltas, so a hedge loser or a
        redispatch duplicate never double-counts a chunk's samples.
        """
        if not payload:
            return
        stacks, work, dropped = payload
        with self._lock:
            for stage, chunk, folded, count in stacks:
                key = (str(stage), int(chunk), str(folded))
                self._stacks[key] = self._stacks.get(key, 0) + int(count)
                self.samples += int(count)
            for row in work:
                self._work.append(tuple(row))
            self.dropped += int(dropped)

    # ------------------------------------------------------------------
    # access / aggregation
    # ------------------------------------------------------------------
    def clear(self) -> None:
        with self._lock:
            self._stacks.clear()
            self._work.clear()
            self.samples = 0
            self.dropped = 0

    def stack_rows(self) -> list[tuple[str, int, str, int]]:
        """``(stage, chunk, folded, count)`` rows, unaggregated."""
        with self._lock:
            return [
                (stage, chunk, folded, count)
                for (stage, chunk, folded), count in self._stacks.items()
            ]

    def work_records(self) -> list[dict[str, Any]]:
        """One dict per finished work window (= per executed chunk)."""
        with self._lock:
            rows = list(self._work)
        return [
            {
                "stage": stage,
                "chunk": chunk,
                "start": start,
                "end": end,
                "wall": end - start,
                "cpu": cpu,
                "samples": taken,
            }
            for stage, chunk, start, end, cpu, taken in rows
        ]

    def folded(self, stage: str | None = None) -> dict[str, int]:
        """Aggregated ``{folded-stack: count}`` (optionally one stage)."""
        out: dict[str, int] = {}
        for st, _chunk, stack, count in self.stack_rows():
            if stage is not None and st != stage:
                continue
            out[stack] = out.get(stack, 0) + count
        return out

    def folded_lines(self, stage: str | None = None) -> list[str]:
        """``"stack count"`` lines — the collapsed-stack input format of
        flamegraph.pl, heaviest stack first."""
        agg = self.folded(stage)
        return [
            f"{stack} {count}"
            for stack, count in sorted(
                agg.items(), key=lambda kv: (-kv[1], kv[0])
            )
        ]

    def summary(self) -> dict[str, Any]:
        """Self-contained per-stage aggregates for reports and hints."""
        rows = self.stack_rows()
        mono0, epoch0 = self.anchor
        out: dict[str, Any] = {
            "samples": sum(c for *_ignored, c in rows),
            "dropped": self.dropped,
            "hz": self.hz,
            "max_samples": self.max_samples,
            "anchor": {"monotonic": mono0, "epoch": epoch0},
            "stages": {},
        }
        stages: dict[str, dict[str, Any]] = {}

        def stage_bucket(name: str) -> dict[str, Any]:
            return stages.setdefault(
                name,
                {
                    "samples": 0,
                    "chunks": 0,
                    "chunk_indices": [],
                    "cpu_total": 0.0,
                    "wall_total": 0.0,
                    "stacks": {},
                },
            )

        for stage, _chunk, stack, count in rows:
            st = stage_bucket(stage)
            st["samples"] += count
            st["stacks"][stack] = st["stacks"].get(stack, 0) + count
        for rec in self.work_records():
            st = stage_bucket(rec["stage"])
            st["chunks"] += 1
            st["chunk_indices"].append(rec["chunk"])
            st["cpu_total"] += rec["cpu"]
            st["wall_total"] += rec["wall"]
        for name, st in stages.items():
            stacks = st.pop("stacks")
            st["chunk_indices"] = sorted(st["chunk_indices"])
            wall = st["wall_total"]
            # the share of marked wall time the thread actually ran on a
            # CPU; the complement is the descheduled/GIL-pressure proxy
            st["cpu_ratio"] = (
                min(1.0, st["cpu_total"] / wall) if wall > 0 else 1.0
            )
            st["top"] = sorted(
                stacks.items(), key=lambda kv: (-kv[1], kv[0])
            )[:5]
            out["stages"][name] = st
        return out

    # ------------------------------------------------------------------
    # exports
    # ------------------------------------------------------------------
    def speedscope(self, name: str = "repro profile") -> dict[str, Any]:
        """A speedscope JSON document (https://speedscope.app), one
        sampled profile per stage over a shared frame table."""
        frames: list[dict[str, str]] = []
        index: dict[str, int] = {}

        def frame_id(label: str) -> int:
            i = index.get(label)
            if i is None:
                i = index[label] = len(frames)
                frames.append({"name": label})
            return i

        by_stage: dict[str, list[tuple[list[int], int]]] = {}
        for stage, _chunk, stack, count in sorted(self.stack_rows()):
            ids = [frame_id(label) for label in stack.split(";") if label]
            by_stage.setdefault(stage, []).append((ids, count))
        profiles = []
        for stage in sorted(by_stage):
            samples = [ids for ids, _c in by_stage[stage]]
            weights = [c for _ids, c in by_stage[stage]]
            profiles.append(
                {
                    "type": "sampled",
                    "name": stage,
                    "unit": "none",
                    "startValue": 0,
                    "endValue": sum(weights),
                    "samples": samples,
                    "weights": weights,
                }
            )
        return {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "name": name,
            "exporter": "repro",
            "activeProfileIndex": 0,
            "shared": {"frames": frames},
            "profiles": profiles,
        }

    def sample_events(self, pid: int = 0) -> list[dict[str, Any]]:
        """Chrome trace-event rows for the Perfetto merge.

        One ``X`` event per work window on a ``profile:<stage>`` thread
        row, carrying the window's sample count and cpu-vs-wall split —
        the sampling view lines up under the span view on one timeline
        (:func:`repro.runtime.trace.chrome_trace` consumes these when
        given a profiler).
        """
        events: list[dict[str, Any]] = []
        for rec in self.work_records():
            args = {
                "chunk": rec["chunk"],
                "samples": rec["samples"],
                "cpu_ms": round(rec["cpu"] * 1e3, 3),
                "descheduled_ms": round(
                    max(0.0, rec["wall"] - rec["cpu"]) * 1e3, 3
                ),
            }
            events.append(
                {
                    "ph": "X",
                    "pid": pid,
                    "track": f"profile:{rec['stage']}",
                    "start": rec["start"],
                    "dur": rec["wall"],
                    "name": f"chunk {rec['chunk']}",
                    "cat": "profile",
                    "args": args,
                }
            )
        return events


def write_folded(
    path: str | Path, profiler: SamplingProfiler, stage: str | None = None
) -> Path:
    """Write collapsed stacks (the flamegraph.pl input format)."""
    path = Path(path)
    path.write_text("\n".join(profiler.folded_lines(stage)) + "\n")
    return path


def write_speedscope(
    path: str | Path, profiler: SamplingProfiler, name: str = "repro profile"
) -> Path:
    path = Path(path)
    path.write_text(json.dumps(profiler.speedscope(name)) + "\n")
    return path


# ---------------------------------------------------------------------------
# wall-clock decomposition (samples ⋈ spans ⋈ metrics)
# ---------------------------------------------------------------------------

def decompose(
    profile_summary: dict[str, Any],
    trace_summary: dict[str, Any] | None = None,
    metrics_registry: Any = None,
) -> dict[str, Any]:
    """Join a profile with spans and metrics into per-stage wall shares.

    Components, each in seconds, per stage:

    * ``compute`` — CPU seconds the workers actually ran inside their
      work windows (``time.thread_time``);
    * ``descheduled`` — window wall minus CPU: time the marked thread
      existed but did not run (GIL contention, scheduler preemption);
    * ``queue_wait`` — span-measured time elements sat in buffers;
    * ``ipc`` — parent-observed chunk latency minus worker-side window
      wall: dispatch, serialization and queue transit (about 0 on the
      serial and thread backends, whose chunk latency is the window's
      own wall, and 0 when no chunk latencies were recorded);
    * ``recovery`` — duplicated work under respawn/hedge/redispatch,
      estimated as deduped-chunk arrivals times the mean chunk latency
      (a dedup loser's own profile was dropped whole with the chunk, so
      its cost is only visible parent-side).

    ``share_*`` fields divide by the stage's component sum, so shares
    always add up to 1.0; ``total`` is that denominator — the
    span-joined wall accounting of everything the run measured.
    """
    stages_out: dict[str, Any] = {}
    profile_stages = (profile_summary or {}).get("stages") or {}
    trace_stages = (trace_summary or {}).get("stages") or {}

    latency_sum = latency_count = deduped = 0.0
    if metrics_registry is not None:
        try:
            for (name, _lkey), metric in metrics_registry._series.items():
                if name == "chunk_latency_seconds":
                    latency_sum += getattr(metric, "sum", 0.0)
                    latency_count += getattr(metric, "count", 0)
            deduped = float(metrics_registry.total("chunks_deduped"))
        except AttributeError:
            pass

    for name in sorted(set(profile_stages) | set(trace_stages)):
        prof = profile_stages.get(name, {})
        tr = trace_stages.get(name, {})
        cpu = float(prof.get("cpu_total", 0.0))
        window_wall = float(prof.get("wall_total", 0.0))
        compute = min(cpu, window_wall) if window_wall else cpu
        descheduled = max(0.0, window_wall - cpu)
        queue_wait = float(tr.get("queue_wait", 0.0)) + float(
            tr.get("backoff", 0.0)
        )
        ipc = (
            max(0.0, latency_sum - window_wall) if latency_count else 0.0
        )
        recovery = (
            deduped * (latency_sum / latency_count) if latency_count else 0.0
        )
        total = compute + descheduled + queue_wait + ipc + recovery
        row: dict[str, Any] = {
            "compute": compute,
            "descheduled": descheduled,
            "queue_wait": queue_wait,
            "ipc": ipc,
            "recovery": recovery,
            "total": total,
            "samples": prof.get("samples", 0),
            "chunks": prof.get("chunks", 0),
            "cpu_ratio": prof.get("cpu_ratio", 1.0),
        }
        denom = total or 1.0
        for comp in ("compute", "descheduled", "queue_wait", "ipc", "recovery"):
            row[f"share_{comp}"] = row[comp] / denom
        stages_out[name] = row
    return {
        "stages": stages_out,
        "wall": float((trace_summary or {}).get("wall", 0.0)),
        "samples": (profile_summary or {}).get("samples", 0),
        "dropped": (profile_summary or {}).get("dropped", 0),
    }


# ---------------------------------------------------------------------------
# the session channel (the --profile CLI path)
# ---------------------------------------------------------------------------

#: a closing session stops its profiler's sampler
_CHANNEL = Channel(SamplingProfiler, finish=lambda profiler: profiler.stop())
active_profiler = _CHANNEL.active
set_last_profile = _CHANNEL.set_last
last_profile = _CHANNEL.last


def profile_session(
    hz: float = DEFAULT_HZ,
    profiler: SamplingProfiler | None = None,
) -> ContextManager[SamplingProfiler]:
    """Context manager: every supervised run inside is sampled.

    Sessions nest (innermost wins) and are process-wide, like
    :func:`repro.runtime.trace.trace_session`; a closing session stops
    its profiler.
    """
    return _CHANNEL.session(profiler, hz)


def resolve_profiler(
    explicit: "SamplingProfiler | None",
    enabled: bool = False,
    hz: float = DEFAULT_HZ,
) -> SamplingProfiler | None:
    """The profiler a run should sample into.

    Priority: an explicitly passed profiler, then the active session,
    then — only when the component's ``Profile@...`` knob is on — a
    fresh profiler (published via :func:`set_last_profile`).  ``None``
    means profiling is off: the disabled path is one ``is None`` check
    per chunk.
    """
    return _CHANNEL.resolve(explicit, enabled, hz)
