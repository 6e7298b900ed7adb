"""Outside-in tracing: wrap public runtime callables, record spans.

Nothing under ``src/`` changes.  :class:`Tracer` replaces each target
at the name its callers resolve at call time (a module global, or a
class attribute) with a wrapper that records a span, and puts the
original back afterwards.  Spans live in memory — ``(name, call id,
span id, parent id, start, end, thread)`` plus, for a few targets, the
arguments and result that layer metrics read once the call is over —
and :func:`chrome_trace` renders them.

A span's parent is the innermost open span *on the same thread*; a
span opened on a thread with nothing open (a pipeline stage, a thread
pool worker) is parented to the call's root, but it does not cover the
root's time: :func:`self_times` subtracts only same-thread children,
so the caller thread's self times sum to the call's wall time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

#: (module, attribute path, layer) for every wrapped callable.  Module
#: globals are wrapped in the module whose functions call them, so
#: ``parallel_for.plan_fixed`` (what ``parallel_for`` resolves) and
#: ``adaptive.plan_fixed`` (what the adaptive planners resolve) are two
#: targets.  The pattern entry points are wrapped where the benchmark
#: itself resolves them, on the package.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.runtime", "parallel_for", "runtime.parallel_for"),
    ("repro.runtime", "parallel_reduce", "runtime.parallel_for"),
    ("repro.runtime.parallel_for", "plan_fixed", "runtime.adaptive"),
    ("repro.runtime.parallel_for", "plan_chunks", "runtime.adaptive"),
    ("repro.runtime.parallel_for", "plan_guided", "runtime.adaptive"),
    ("repro.runtime.adaptive", "plan_fixed", "runtime.adaptive"),
    ("repro.runtime.adaptive", "plan_guided", "runtime.adaptive"),
    ("repro.runtime.parallel_for", "build_process_payload", "runtime.backend"),
    ("repro.runtime.parallel_for", "run_process_chunks", "runtime.backend"),
    ("repro.runtime.backend", "PoolSession.resize", "runtime.backend"),
    ("repro.runtime.shm", "ShmInput.build", "runtime.shm"),
    ("repro.runtime.shm", "ShmInput.dispose", "runtime.shm"),
    ("repro.runtime.shm", "ShmOutput.build", "runtime.shm"),
    ("repro.runtime.shm", "ShmOutput.dispose", "runtime.shm"),
    ("repro.runtime.checkpoint", "ChunkJournal.record", "runtime.checkpoint"),
    ("repro.runtime.checkpoint", "ChunkJournal.close", "runtime.checkpoint"),
    ("repro.runtime.buffer", "BoundedBuffer.put", "runtime.buffer"),
    ("repro.runtime.buffer", "BoundedBuffer.get", "runtime.buffer"),
    ("repro.runtime.pipeline", "Pipeline.run", "runtime.pipeline"),
    ("threading", "Thread.start", "threading"),
)

#: the benchmark's own root span around one workload call
ROOT = "call"

#: span names whose arguments and result are kept for layer metrics
KEEP = frozenset({
    "parallel_for.plan_fixed", "parallel_for.plan_chunks",
    "parallel_for.plan_guided", "adaptive.plan_fixed",
    "adaptive.plan_guided", "parallel_for.build_process_payload",
    "parallel_for.run_process_chunks", "shm.ShmInput.build",
    "buffer.BoundedBuffer.put",
})


def span_name(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attr}"


LAYER: dict[str, str] = {
    span_name(module, attr): layer for module, attr, layer in TARGETS
}
LAYER[ROOT] = "benchmark"


@dataclass
class Span:
    name: str
    call: int
    id: int
    parent: int | None
    start: float
    end: float
    thread: int
    #: ``(args, kwargs, result)`` for names in :data:`KEEP`
    kept: tuple | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def resolve(module: str, attr: str) -> tuple[Any, str]:
    """``(owner, name)``: the object whose attribute ``attr`` names."""
    owner: Any = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Records spans for calls made inside :meth:`call` while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._calls = itertools.count(1)
        self._local = threading.local()
        self._pid = os.getpid()
        self._call: int | None = None
        self._root: int | None = None

    # -- the wrappers -------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn: Callable, name: str) -> Callable:
        tracer = self
        keep = name in KEEP
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            call = tracer._call
            # forked pool workers inherit the wrapper; only the parent
            # process records
            if call is None or os.getpid() != tracer._pid:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._root
            sid = next(tracer._ids)
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                tracer.spans.append(Span(
                    name, call, sid, parent, start, end,
                    threading.get_ident(),
                    (args, kwargs, result) if keep else None,
                ))

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every target; put every original back on exit."""
        saved: list[tuple[Any, str, Any]] = []
        try:
            for module, attr, _layer in TARGETS:
                owner, name = resolve(module, attr)
                raw = vars(owner)[name]
                label = span_name(module, attr)
                if isinstance(raw, classmethod):
                    new: Any = classmethod(self._wrap(raw.__func__, label))
                else:
                    new = self._wrap(raw, label)
                saved.append((owner, name, raw))
                setattr(owner, name, new)
            yield self
        finally:
            for owner, name, raw in reversed(saved):
                setattr(owner, name, raw)

    # -- calls --------------------------------------------------------
    @contextlib.contextmanager
    def call(self) -> Iterator[int]:
        """Record one workload call as the root span of a new call id."""
        call = next(self._calls)
        sid = next(self._ids)
        stack = self._stack()
        stack.append(sid)
        self._call, self._root = call, sid
        start = time.perf_counter()
        try:
            yield call
        finally:
            end = time.perf_counter()
            self._call = self._root = None
            stack.pop()
            self.spans.append(Span(
                ROOT, call, sid, None, start, end, threading.get_ident()
            ))

    def take(self) -> list[Span]:
        """Hand over the recorded spans and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


# -- arithmetic over spans ---------------------------------------------
def covered(
    interval: tuple[float, float], parts: Sequence[tuple[float, float]]
) -> float:
    """How much of ``interval`` the union of ``parts`` covers."""
    lo, hi = interval
    total = 0.0
    reach = lo
    for a, b in sorted(parts):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Span id -> duration minus what its same-thread children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {s.id: s for s in spans}
    for s in spans:
        parent = by_id.get(s.parent) if s.parent is not None else None
        if parent is not None and parent.thread == s.thread:
            children.setdefault(parent.id, []).append((s.start, s.end))
    return {
        s.id: s.duration - covered((s.start, s.end), children.get(s.id, ()))
        for s in spans
    }


def chrome_trace(spans: Sequence[Span]) -> dict[str, Any]:
    """Chrome-trace JSON (``chrome://tracing``, Perfetto) for ``spans``."""
    if not spans:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    t0 = min(s.start for s in spans)
    tids: dict[int, int] = {}
    pid = os.getpid()
    events = []
    for s in sorted(spans, key=lambda s: s.start):
        tid = tids.setdefault(s.thread, len(tids) + 1)
        events.append({
            "name": s.name,
            "cat": LAYER.get(s.name, "unknown"),
            "ph": "X",
            "ts": (s.start - t0) * 1e6,
            "dur": s.duration * 1e6,
            "pid": pid,
            "tid": tid,
            "args": {"call": s.call, "span": s.id, "parent": s.parent},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
