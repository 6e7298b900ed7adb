"""Pluggable execution backends: ``serial``, ``thread``, ``process``.

The runtime's worker pools were thread-only, so CPU-bound DOALL loops and
master/worker groups saw no wall-clock speedup under the CPython GIL —
the paper's Fig. 6 speedup study assumes real cores.  This module makes
the execution substrate a first-class *tuning dimension* (``Backend``,
alongside ``NumWorkers``/``ChunkSize``/``Schedule``): the same pattern
instance can run in the calling thread (``serial``), on a thread pool
(``thread`` — I/O-bound bodies, zero setup cost), or on a
``multiprocessing`` worker pool (``process`` — real multicore parallelism
for CPU-bound bodies).

Design contract, mirroring the supervised thread pools:

* **spawn-safe** — everything that crosses the process boundary is data:
  the worker entry point is a module-level function and the work payload
  is pickled up front, so the backend works under any multiprocessing
  start method.  Closures and exec-defined functions (generated code!)
  are shipped by value via :class:`ShippedFunction` — code object through
  ``marshal``, referenced globals and closure cells recursively.
* **graceful degradation** — a body that cannot cross the boundary is
  detected *up front* (:func:`ship_kernel` returns the reason, before a
  pool session is taken or any input placed) and the caller falls back
  to the thread backend, recording a
  :class:`BackendEvent` and raising a :class:`BackendFallbackWarning` —
  never a mid-run crash.
* **supervision parity** — the :class:`~repro.runtime.faults.FaultPolicy`
  (retries / item timeout / on-error disposition) is applied worker-side;
  every element failure ships back in the chunk ledger as
  ``(seq, error, attempts, action)`` so the caller reconstructs the same
  :class:`~repro.runtime.faults.ErrorRecord` stream a thread run yields.
* **chunk batching** — work travels per chunk, not per element, which
  amortizes IPC; results come back per chunk and the caller's ordered
  collector reassembles them by index.
* **cancellation** — any :class:`~repro.runtime.faults.CancellationToken`
  is bridged parent-side: the collector polls it and sets the pool's
  lock-free stop flag (:class:`SharedFlag`) the moment it fires; workers
  read the flag before every element.
* **one pool lifetime** — every call runs on a warm, registered
  :class:`PoolSession` (taken with :func:`pool_session`); a session idle
  past :data:`IDLE_BOUND` is reaped, and with it its shared-memory
  input arena.

A wedged pool cannot hang the caller: the result collector polls worker
liveness and a worker that dies without its done-marker is detected,
reported, and the stragglers terminated.

**Resilience** (the crash-recovery layer): chunk dispatch is tracked in
an ownership ledger — every worker announces a ``claim`` message before
running a chunk, so the collector knows exactly which chunks die with a
worker.  A dead worker's in-flight chunks are *re-dispatched* to a
replacement process (bounded by ``max_restarts``, the ``PoolRestarts``
knob) with at-least-once semantics: the ordered collector reassembles by
chunk index and the first result wins, so duplicate completions are
idempotent.  When the restart budget is exhausted, lost chunks surface
as per-element :class:`WorkerLostError` records through the ordinary
``ErrorRecord`` road — every input element is accounted for, as a result
or an error, never silently dropped.  Chunks whose latency exceeds a
quantile of the observed distribution can be *hedged* (``hedge``, the
``Hedge`` knob): a speculative duplicate is dispatched and the loser's
result is discarded deterministically.  Every recovery decision is
recorded as a :class:`RecoveryEvent` (rendered by ``fault_report``) and
as ``respawn`` / ``redispatch`` / ``hedge`` trace spans.
"""

from __future__ import annotations

import atexit
import builtins
import contextlib
import dataclasses
import hashlib
import importlib
import marshal
import math
import multiprocessing
import os
import pickle
import queue as _queue
import signal
import threading
import time
import types
import warnings
import weakref
from dataclasses import dataclass, field
from multiprocessing import connection as _mpconn
from typing import Any, Callable, Iterator, NamedTuple, Sequence

from repro.runtime.chaos import ChaosInjector
from repro.runtime.faults import (
    ELEMENT_COUNTERS,
    NO_POLICY,
    CancellationToken,
    FaultPolicy,
)
from repro.runtime.metrics import MetricsRegistry, StageSeries
from repro.runtime.profiler import SamplingProfiler
from repro.runtime.shm import (
    InputArena,
    InputMapping,
    ShmOutput,
    ShmOutputWriter,
)
from repro.runtime.trace import TraceCollector

#: the three execution substrates, in increasing setup-cost order
BACKENDS = ("serial", "thread", "process")


class TuningError(ValueError):
    """A tuning parameter value is outside its legal domain.

    Raised eagerly (``ChunkSize <= 0``, ``NumWorkers <= 0``, an unknown
    ``Backend``) so a bad tuning file fails loudly instead of silently
    hanging a pool or emitting zero chunks.
    """


class BackendFallbackWarning(RuntimeWarning):
    """A requested backend was downgraded (e.g. ``process`` -> ``thread``)."""


class ShipError(RuntimeError):
    """A callable cannot be shipped across a process boundary."""


class WorkerLostError(RuntimeError):
    """A worker process died and its chunks could not be recovered.

    Raised (via the ordinary ``ErrorRecord`` road) for every element of a
    chunk that was in flight on a dead worker after the ``PoolRestarts``
    budget was exhausted — the bookkeeping guarantee that a SIGKILLed
    worker costs an *error you can see*, never silently missing results.
    """


@dataclass
class RecoveryEvent:
    """One recorded crash-recovery decision of the process pool.

    ``kind`` is one of:

    * ``worker_lost`` — the liveness poll found a dead worker; ``chunks``
      are the chunks that were in flight on it;
    * ``respawn``     — a replacement process was started;
    * ``redispatch``  — a lost chunk was handed to the replacement
      (at-least-once: a duplicate completion is discarded by the ordered
      collector);
    * ``hedge``       — a speculative duplicate of a straggling chunk was
      dispatched (first result wins);
    * ``lost``        — chunks abandoned after the restart budget ran
      out; they surface as :class:`WorkerLostError` records.
    """

    kind: str
    worker: str
    chunks: tuple[int, ...]
    detail: str = ""

    def as_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "worker": self.worker,
            "chunks": list(self.chunks),
            "detail": self.detail,
        }

    def describe(self) -> str:
        where = f" [{self.detail}]" if self.detail else ""
        chunks = ",".join(str(k) for k in self.chunks) or "-"
        return f"{self.kind}: worker={self.worker or '-'} chunks={chunks}{where}"


@dataclass
class BackendEvent:
    """One recorded backend decision — typically a downgrade."""

    requested: str
    actual: str
    reason: str

    def as_dict(self) -> dict[str, str]:
        return {
            "requested": self.requested,
            "actual": self.actual,
            "reason": self.reason,
        }

    def describe(self) -> str:
        return f"{self.requested} -> {self.actual}: {self.reason}"


def normalize_backend(name: Any) -> str:
    """Validate a ``Backend`` value; raises :class:`TuningError` on junk."""
    if isinstance(name, str) and name in BACKENDS:
        return name
    raise TuningError(
        f"Backend must be one of {BACKENDS}, got {name!r}"
    )


def downgrade(
    requested: str,
    actual: str,
    reason: str,
    events: list[BackendEvent] | None = None,
    trace: TraceCollector | None = None,
    stage: str = "loop",
    kind: str = "backend",
) -> str:
    """Record a ``kind`` downgrade (a ``backend``, process → thread, or
    the data plane's ``transport``, shm → pickle) as an event, a
    ``fallback`` trace instant and a warning; return ``actual``.  The run
    proceeds on ``actual``: a tuner or a fault report sees why."""
    event = BackendEvent(requested, actual, reason)
    if events is not None:
        events.append(event)
    if trace is not None:
        trace.instant(
            "fallback", stage, -1,
            requested=requested, actual=actual, reason=reason,
        )
    warnings.warn(
        f"{kind} downgrade: {event.describe()}",
        BackendFallbackWarning,
        stacklevel=3,
    )
    return actual


def start_method() -> str:
    """The multiprocessing start method the process backend uses.

    ``fork`` when the platform offers it (worker start is milliseconds,
    which a first call and every respawn pay); ``spawn`` otherwise.
    The payload protocol is pickle-only either way, so overriding via
    ``REPRO_MP_START=spawn`` is always safe.
    """
    override = os.environ.get("REPRO_MP_START")
    methods = multiprocessing.get_all_start_methods()
    if override:
        if override not in methods:
            raise TuningError(
                f"REPRO_MP_START={override!r} not in {methods}"
            )
        return override
    return "fork" if "fork" in methods else "spawn"


def mp_context():
    return multiprocessing.get_context(start_method())


class SharedFlag:
    """A cross-process "stop soon" flag: one shared byte, no lock.

    Pool workers read it before every element; :meth:`is_set` is a
    plain byte load (~0.1 µs, against ~1 µs for the semaphore round
    trip of ``multiprocessing.Event.is_set``).  The flag is advisory,
    so it needs no lock: the generation tags on the claim counter and
    on every message are the correctness barrier (DESIGN.md §5).  It
    reaches workers only as a ``Process`` argument.
    """

    __slots__ = ("_byte",)

    def __init__(self) -> None:
        self._byte = mp_context().RawValue("b", 0)

    def set(self) -> None:
        self._byte.value = 1

    def clear(self) -> None:
        self._byte.value = 0

    def is_set(self) -> bool:
        return self._byte.value != 0


# ---------------------------------------------------------------------------
# function shipping (closures / exec-defined functions by value)
# ---------------------------------------------------------------------------

class _EmptyCell:
    """Marker for an unfilled closure cell (recursive inner functions)."""


class _ModuleRef:
    """Pickle surrogate for a module global: re-imported worker-side."""

    def __init__(self, name: str) -> None:
        self.name = name


def _code_global_names(code: types.CodeType) -> set[str]:
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _code_global_names(const)
    return names


def _plain_picklable(obj: Any) -> bool:
    try:
        pickle.dumps(obj)
        return True
    except Exception:
        return False


#: pickled-bytes cache per callable identity.  Only *plain* pickles are
#: cached: they serialize as a ``module.qualname`` reference, so the
#: bytes can never go stale.  A :class:`ShippedFunction` captures live
#: globals and closure cells by value and is rebuilt per call.
_SHIP_CACHE: "weakref.WeakKeyDictionary[Any, bytes]" = (
    weakref.WeakKeyDictionary()
)


def ship_blob(fn: Callable) -> bytes:
    """Pickle a callable for worker shipment — once.

    The old road probed picklability with a throwaway ``pickle.dumps``
    and then pickled the callable *again* inside the payload; here the
    probe's bytes *are* the payload bytes, and plain picklable callables
    (the common case: module-level kernels) are cached per identity so
    repeated calls with the same function pay the pickler once ever.

    Raises :class:`ShipError` for callables that neither pickle nor ship
    by value.
    """
    try:
        cached = _SHIP_CACHE.get(fn)
    except TypeError:  # unhashable / non-weakrefable callable
        cached = None
    if cached is not None:
        return cached
    try:
        blob = pickle.dumps(fn, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        if isinstance(fn, types.FunctionType):
            return pickle.dumps(
                ShippedFunction(fn), protocol=pickle.HIGHEST_PROTOCOL
            )
        raise ShipError(f"cannot ship {fn!r} to a worker process") from None
    try:
        _SHIP_CACHE[fn] = blob
    except TypeError:
        pass
    return blob


def _ship_value(value: Any, memo: dict[int, Any]) -> Any:
    if isinstance(value, types.FunctionType):
        prev = memo.get(id(value))
        if prev is not None:
            return prev
        if _plain_picklable(value):
            return value
        return ShippedFunction(value, memo)
    if isinstance(value, types.ModuleType):
        return _ModuleRef(value.__name__)
    return value


def _resolve_value(value: Any) -> Any:
    if isinstance(value, ShippedFunction):
        return value.rebuild()
    if isinstance(value, _ModuleRef):
        return importlib.import_module(value.name)
    return value


class ShippedFunction:
    """A picklable surrogate for a function pickle rejects by reference.

    Pickle serializes plain functions as ``module.qualname`` lookups,
    which fails for closures, lambdas, and exec-defined functions — i.e.
    for exactly the loop bodies our code generator emits.  This surrogate
    carries the function *by value*: the code object through ``marshal``,
    the referenced globals and closure cells shipped recursively (helper
    functions defined in the same generated namespace travel along).
    Only the names the code object actually references are captured, so
    an unpicklable bystander in the defining namespace does not poison
    the ship.

    Cycles (a function whose globals reference itself) are handled with a
    memo on both ends.  Rebuilding is lazy and cached; the surrogate is
    itself callable so worker code need not special-case it.
    """

    def __init__(
        self, fn: types.FunctionType, memo: dict[int, Any] | None = None
    ) -> None:
        memo = {} if memo is None else memo
        memo[id(fn)] = self
        code = fn.__code__
        globs: dict[str, Any] = {}
        fn_globals = fn.__globals__
        for name in sorted(_code_global_names(code)):
            if name in fn_globals:
                globs[name] = _ship_value(fn_globals[name], memo)
        cells: list[Any] = []
        for cell in fn.__closure__ or ():
            try:
                cells.append(_ship_value(cell.cell_contents, memo))
            except ValueError:  # empty cell: not yet bound
                cells.append(_EmptyCell())
        self.spec: dict[str, Any] = {
            "code": marshal.dumps(code),
            "name": fn.__name__,
            "qualname": fn.__qualname__,
            "defaults": tuple(
                _ship_value(d, memo) for d in fn.__defaults__ or ()
            ),
            "kwdefaults": {
                k: _ship_value(d, memo)
                for k, d in (fn.__kwdefaults__ or {}).items()
            },
            "globals": globs,
            "closure": tuple(cells),
        }
        self._fn: Callable | None = None

    def __getstate__(self) -> dict[str, Any]:
        return {"spec": self.spec}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.spec = state["spec"]
        self._fn = None

    def rebuild(self) -> Callable:
        if self._fn is not None:
            return self._fn
        spec = self.spec
        code = marshal.loads(spec["code"])
        glob: dict[str, Any] = {"__builtins__": builtins}
        closure = (
            tuple(types.CellType() for _ in spec["closure"]) or None
        )
        fn = types.FunctionType(code, glob, spec["name"], None, closure)
        # register before resolving children so self-references terminate
        self._fn = fn
        for name, value in spec["globals"].items():
            glob[name] = _resolve_value(value)
        for cell, value in zip(closure or (), spec["closure"]):
            if not isinstance(value, _EmptyCell):
                cell.cell_contents = _resolve_value(value)
        if spec["defaults"]:
            fn.__defaults__ = tuple(
                _resolve_value(v) for v in spec["defaults"]
            )
        if spec["kwdefaults"]:
            fn.__kwdefaults__ = {
                k: _resolve_value(v) for k, v in spec["kwdefaults"].items()
            }
        fn.__qualname__ = spec["qualname"]
        return fn

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        return self.rebuild()(*args, **kwargs)


def ship_callable(fn: Callable) -> Callable:
    """``fn`` if pickle accepts it, else a :class:`ShippedFunction`.

    Raises :class:`ShipError` for callables that are neither (builtin
    methods bound to unpicklable objects, callable instances of
    exec-defined classes, ...) — the caller's cue to fall back to
    threads.
    """
    if _plain_picklable(fn):
        return fn
    if isinstance(fn, types.FunctionType):
        return ShippedFunction(fn)
    raise ShipError(f"cannot ship {fn!r} to a worker process")


# ---------------------------------------------------------------------------
# the process pool
# ---------------------------------------------------------------------------

@dataclass
class ChunkResult:
    """One chunk's outcome, from any executor (in-process or a worker)."""

    #: the chunk's position in the call's plan: its journal, chaos-stream
    #: and profiler identity
    index: int
    #: per-element results (map mode) or a single folded partial (reduce)
    values: list[Any]
    #: (seq, error, attempts, action) — the ErrorRecord ingredients
    records: list[tuple[int, BaseException, int, str]]
    counters: dict[str, int]
    failed: bool
    #: values live in the shared output region, not in ``values`` — the
    #: collector materializes them exactly once at absorb time
    shm: bool = False
    #: ``{kind: delta}`` a pool worker drained from its observers after
    #: the chunk (chaos counts, spans, metric deltas, samples).  It is
    #: absorbed with the chunk's first result and dropped whole with a
    #: duplicate, so every observer's accounting stays exactly-once
    #: under recovery.  In-process executors record straight into the
    #: caller's observers and leave it empty.
    sidecars: dict[str, Any] = field(default_factory=dict)


@dataclass
class ProcessRun:
    """What an executor saw: delivered chunks plus failure evidence.

    The process collector fills every field; the in-process executors
    report delivered chunks only.
    """

    chunks: dict[int, ChunkResult]
    fatal: list[str]
    #: crash-recovery history (worker_lost / respawn / redispatch / hedge)
    recovery: list[RecoveryEvent] = field(default_factory=list)
    #: chunk index -> claim-to-delivery seconds from the ownership
    #: ledger (first result only; dedup losers are not timed)
    latencies: dict[int, float] = field(default_factory=dict)
    #: the first exception a pool worker's chunk kernel let escape
    raised: BaseException | None = None


@dataclass
class ProcessPayload:
    """A prepared work payload, split along the ship-once seam.

    ``kernel_blob`` is everything constant across calls with the same
    loop body (:func:`ship_kernel`) — a :class:`PoolSession` ships it to
    each member once per distinct ``digest`` and refers to it by digest
    afterwards.  ``call_blob`` is the per-call delta: the input spec
    (inline values or a reference to the session's input arena), the
    output-region spec and the chunk bounds.
    """

    kernel_blob: bytes
    call_blob: bytes
    digest: str


def ship_kernel(
    kernel: Kernel, observers: dict[str, Any] | None = None
) -> tuple[bytes | None, str | None]:
    """Pickle the call-constant half of a process payload.

    Returns ``(kernel_blob, None)`` when the kernel can cross a process
    boundary, ``(None, reason)`` when it cannot — the up-front detection
    that turns an unpicklable loop body into a recorded thread fallback
    instead of a mid-run crash.  It runs first, so a call that falls
    back takes no pool session and places no input.  ``observers`` is
    the run's ``{kind: observer}`` map; the kernel carries each one's
    :data:`OBSERVERS` spec.
    """
    try:
        return pickle.dumps(
            (
                ship_blob(kernel.body),
                kernel.policy,
                ship_blob(kernel.reduce_op)
                if kernel.reduce_op is not None else None,
                kernel.label,
                {kind: obs.spec() for kind, obs in (observers or {}).items()},
            ),
            protocol=pickle.HIGHEST_PROTOCOL,
        ), None
    except Exception as exc:
        return None, f"not process-safe ({type(exc).__name__}: {exc})"


def build_process_payload(
    kernel_blob: bytes,
    vals: Sequence[Any],
    chunks: Sequence[tuple[int, int]],
    *,
    input_spec: tuple[str, Any] | None = None,
    out_spec: dict[str, Any] | None = None,
) -> tuple[ProcessPayload | None, str | None]:
    """Pickle the per-call half of the work payload.

    Returns ``(payload, None)``, or ``(None, reason)`` when the inline
    values cannot cross a process boundary.  ``input_spec`` defaults to
    shipping ``vals`` inline; the shm transport passes ``("shm",
    arena_spec)`` instead, and ``out_spec`` names the preallocated
    result region workers write into.
    """
    try:
        if input_spec is None:
            input_spec = ("inline", list(vals))
        call_blob = pickle.dumps(
            (input_spec, out_spec, list(chunks)),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
    except Exception as exc:
        return None, f"not process-safe ({type(exc).__name__}: {exc})"
    digest = hashlib.sha1(kernel_blob).hexdigest()
    return ProcessPayload(kernel_blob, call_blob, digest), None


def _shippable_error(exc: BaseException) -> BaseException:
    """The exception itself when picklable, else a faithful stand-in."""
    if _plain_picklable(exc):
        return exc
    return RuntimeError(f"unpicklable worker error: {exc!r}")


def _chunk(
    vals: Sequence[Any], lo: int, hi: int
) -> contextlib.AbstractContextManager[Sequence[Any]]:
    """The chunk ``vals[lo:hi]``, scoped to the kernel that reads it.

    Every kernel reads its chunk through this helper, as ``with
    _chunk(vals, lo, hi) as chunk:``.  On a shared-memory view the chunk
    is a typed ``memoryview`` slice of the input arena: the kernel
    iterates the arena in place, and the slice is released when the
    kernel leaves the chunk (also when an element raises or
    ``should_stop`` fires), so no export of the segment outlives the
    kernel.  On the call's own list the chunk is the list slice, or the
    list itself when one chunk spans all of it: the kernels never write
    to their chunk.
    """
    if isinstance(vals, list):
        if lo == 0 and hi == len(vals):
            return contextlib.nullcontext(vals)
        return contextlib.nullcontext(vals[lo:hi])
    return vals[lo:hi]


def _run_map_chunk(
    k: int,
    bounds: tuple[int, int],
    fn: Callable,
    vals: Sequence[Any],
    policy: FaultPolicy | None,
    should_stop: Callable[[], bool],
    trace: TraceCollector | None = None,
    stage: str = "loop",
    metrics: MetricsRegistry | None = None,
    cancel: CancellationToken | None = None,
) -> tuple[list[Any], list, dict[str, int], bool, bool]:
    """(values, records, counters, failed, aborted) for one map chunk.

    One loop for every feature set: :meth:`FaultPolicy.execute_chunk`,
    under :data:`~repro.runtime.faults.NO_POLICY` when the run has no
    policy, over the chunk read through :func:`_chunk` (an element's
    run-wide index is ``lo`` plus its offset).
    """
    lo, hi = bounds
    with _chunk(vals, lo, hi) as chunk:
        return (policy or NO_POLICY).execute_chunk(
            fn, chunk, lo, should_stop, cancel, trace, stage, metrics
        )


def _run_reduce_chunk(
    k: int,
    bounds: tuple[int, int],
    fn: Callable,
    vals: Sequence[Any],
    reduce_op: Callable,
    trace: TraceCollector | None = None,
    stage: str = "loop",
) -> tuple[list[Any], list, dict[str, int], bool]:
    """Fold one chunk from its first element (init enters parent-side).

    A strict left fold over the chunk read through :func:`_chunk` (in
    place: the block itself on shared memory, the call's own list when
    one chunk spans it): the first element seeds it, so a one-chunk
    float fold onto a neutral ``init`` is bit-identical to the
    sequential loop.  Traced at chunk granularity (one ``execute`` span
    per fold): the per-element map hooks would distort a reduction's
    tight loop.
    """
    lo, hi = bounds
    counters = dict.fromkeys(ELEMENT_COUNTERS, 0)
    started = time.monotonic()
    try:
        with _chunk(vals, lo, hi) as chunk:
            elements = iter(chunk)
            acc = fn(next(elements))
            for v in elements:
                acc = reduce_op(acc, fn(v))
        counters["delivered"] = hi - lo
        if trace is not None:
            trace.add(
                "execute", stage, lo, started, chunk=k, elements=hi - lo
            )
        return [acc], [], counters, False
    except BaseException as exc:
        counters["failed"] = 1
        if trace is not None:
            trace.add(
                "execute", stage, lo, started,
                chunk=k, elements=hi - lo, error=repr(exc),
            )
        return [], [(lo, exc, 1, "failed")], counters, True


#: every observer kind, by the name it travels under: the kernel ships
#: each one's ``spec()``, a pool worker rebuilds it with ``from_spec``
#: and ``drain()``\ s it after every chunk into
#: :attr:`ChunkResult.sidecars`, and the parent ``absorb``\ s what the
#: drain returned
OBSERVERS = {
    "chaos": ChaosInjector,
    "trace": TraceCollector,
    "metrics": MetricsRegistry,
    "profiler": SamplingProfiler,
}


class Kernel(NamedTuple):
    """What every chunk of one call runs: the call-constant half."""

    body: Callable[[Any], Any]
    policy: FaultPolicy | None
    #: the fold operator of a reduction; ``None`` maps
    reduce_op: Callable[[Any, Any], Any] | None
    label: str


def run_chunk(
    kernel: Kernel,
    k: int,
    bounds: tuple[int, int],
    vals: Sequence[Any],
    should_stop: Callable[[], bool],
    *,
    cancel: CancellationToken | None = None,
    observers: dict[str, Any],
) -> ChunkResult | None:
    """Execute chunk ``k``: the one chunk protocol of every executor.

    ``k`` is the chunk's run-wide index and ``observers`` the
    ``{kind: observer}`` map it records into.  Serial and thread
    executors call this in-process with the caller's observers; a pool
    worker calls it with its own and drains them into the result.  The
    chunk draws chaos from its own seeded stream ``"{label}#c{k}"`` and
    is one profiler window ``(label, k)``, so one seed injects the same
    faults, and one run records the same windows, whichever executor or
    worker runs it.  ``None`` means ``should_stop`` fired mid-chunk: the
    chunk is abandoned and never delivered.
    """
    fn = kernel.body
    chaos, trace = observers.get("chaos"), observers.get("trace")
    metrics, profiler = observers.get("metrics"), observers.get("profiler")
    if chaos is not None:
        # a fresh injector per chunk: its stream and counts are the
        # chunk's own, folded into the run's injector once it completes
        injector = ChaosInjector.from_spec(chaos.spec())
        injector.trace, injector.metrics = trace, metrics
        fn = injector.wrap(fn, name=f"{kernel.label}#c{k}")
    work = (
        profiler.work(kernel.label, k)
        if profiler is not None
        else contextlib.nullcontext()
    )
    with work:
        if kernel.reduce_op is not None:
            values, records, counters, failed = _run_reduce_chunk(
                k, bounds, fn, vals, kernel.reduce_op,
                trace=trace, stage=kernel.label,
            )
        else:
            values, records, counters, failed, aborted = _run_map_chunk(
                k, bounds, fn, vals, kernel.policy, should_stop,
                trace=trace, stage=kernel.label, metrics=metrics,
                cancel=cancel,
            )
            if aborted:
                return None
    if chaos is not None:
        chaos.absorb(injector.stats())
    return ChunkResult(k, values, records, counters, failed)


def static_stripes(
    todo: Sequence[int], width: int
) -> list[Sequence[int]]:
    """The static schedule, for every executor: slot ``j`` of ``width``
    runs the call's live chunks ``todo[j::width]``, round-robin."""
    return [todo[j::width] for j in range(width)]


def deliver_chunk(
    chunk: ChunkResult,
    bounds: tuple[int, int],
    latency: float | None,
    *,
    label: str,
    observers: dict[str, Any],
    journal: Any = None,
    series: StageSeries | None = None,
) -> None:
    """Account one delivered chunk: the delivery step of every executor.

    The process collector calls it for the first result of a chunk only
    (after its dedup), the in-process executor for every chunk it runs,
    so each chunk is accounted exactly once: its sidecars, absorbed into
    the run's ``observers``, ``chunks_completed``, its element counters,
    its latency, and, for a successful chunk, the journal record and its
    ``checkpoint`` instant.  ``series`` is the run's metric series,
    bound once per run by the executor.
    """
    for kind, delta in chunk.sidecars.items():
        observers[kind].absorb(delta)
    if series is not None:
        series.inc("chunks_completed")
        series.count_chunk(chunk.counters)
        if latency is not None:
            series.observe("chunk_latency_seconds", latency)
    if journal is not None and not chunk.failed:
        lo, hi = bounds
        journal.record(chunk.index, lo, hi, chunk.values)
        trace = observers.get("trace")
        if trace is not None:
            trace.instant("checkpoint", label, lo, chunk=chunk.index)


#: generation tag layout in the shared claim counter: the high 32 bits
#: name the call generation, the low 32 bits index the call's live list.
#: A session reuses one counter across calls; a straggler from a
#: previous generation sees the mismatch and stops claiming.
_GEN_SHIFT = 32
_GEN_MASK = 0xFFFFFFFF


def _load_kernel(kernel_blob: bytes) -> tuple[Kernel, dict[str, Any]]:
    """Unpickle a kernel blob into ``(Kernel, {kind: observer spec})``.
    Session workers cache the result per digest — the body (possibly a
    :class:`ShippedFunction`) is rebuilt once per kernel, not once per
    call."""
    body_blob, policy, reduce_blob, label, specs = pickle.loads(kernel_blob)
    body = pickle.loads(body_blob)
    reduce_op = pickle.loads(reduce_blob) if reduce_blob is not None else None
    return Kernel(body, policy, reduce_op, label), specs


def _resolve_input(input_spec: tuple[str, Any], arena: InputMapping):
    """A call's input: its inline values, or a view of the session's
    input arena through the worker's ``arena`` mapping."""
    kind, data = input_spec
    if kind == "inline":
        return data
    if kind == "shm":
        return arena.view(data)
    raise RuntimeError(f"unknown input transport {kind!r}")


def _serve_call(
    uid: int,
    gen: int,
    counter,
    result_q,
    stop_flag,
    loaded: tuple[Kernel, dict[str, Any]],
    vals,
    chunks: list[tuple[int, int]],
    out,
    live: Sequence[int],
    assigned: Sequence[tuple[int, int]] | None,
) -> None:
    """Claim and execute chunks for one call — the worker-side protocol.

    ``uid`` is the worker's identity in every message.  Every message
    carries ``gen`` so the parent can discard stragglers from earlier
    calls of a reused pool.  Chunks are claimed, run and reported by
    their position in ``chunks``.  The worker stops between elements
    once ``stop_flag`` is set; only the parent sets it (a failed chunk,
    a fired token, the end of the call), so a straggler can never race
    the next call's clear.

    A member runs what the parent hands it, and decides nothing: an
    ``assigned`` list of ``(chunk, attempt)`` pairs (a static stripe, a
    replacement's lost chunks, a hedge), or else the call's ``live``
    chunk indices, taken one at a time through the shared ``counter``.
    Every claim is announced on ``result_q`` before the chunk runs,
    which is the ownership ledger the parent's recovery logic reads.
    """
    kernel, specs = loaded
    label = kernel.label
    # worker-side observers, drained after every chunk: the parent's
    # first-result-wins dedup then keeps each kind exactly-once under
    # respawn/hedge duplicates, as it does the values and the ledger
    observers = {
        kind: OBSERVERS[kind].from_spec(spec) for kind, spec in specs.items()
    }
    for observer in observers.values():
        if hasattr(observer, "worker_label"):
            # every pool worker's thread is "MainThread": name the process
            observer.worker_label = f"{label}-w{uid}@pid{os.getpid()}"
    # the run's chaos also decides seeded worker kills
    injector = observers.get("chaos")

    should_stop = stop_flag.is_set
    if assigned is not None:
        handed = iter(assigned)

        def claim() -> tuple[int, int] | None:
            return next(handed, None)
    else:

        def claim() -> tuple[int, int] | None:
            with counter.get_lock():
                v = counter.value
                if (v >> _GEN_SHIFT) != gen:
                    return None  # the pool moved on to a newer call
                i = v & _GEN_MASK
                if i >= len(live):
                    return None
                counter.value = v + 1
            return (live[i], 1)

    while not should_stop():
        claimed = claim()
        if claimed is None:
            break
        k, attempt = claimed
        # ownership ledger: announce the claim before running, so a
        # death mid-chunk tells the parent exactly what to re-dispatch
        result_q.put(pickle.dumps(("claim", uid, k, attempt, gen)))
        if injector is not None and injector.should_kill(
            f"{label}#c{k}", attempt
        ):
            # Seeded chaos worker-kill.  Announce the kill first (the
            # registry dies with the process, so the one metric a kill
            # produces must travel ahead of it), then flush the queue
            # feeder and release its shared write lock *before* dying:
            # a SIGKILL that strands the lock would wedge every
            # sibling.  (A real OOM kill can still do that; the
            # parent's final sweep covers claims that never made it
            # out.)
            result_q.put(pickle.dumps(("chaos_kill", uid, k, attempt, gen)))
            result_q.close()
            result_q.join_thread()
            os.kill(os.getpid(), signal.SIGKILL)
        try:
            chunk = run_chunk(
                kernel, k, chunks[k], vals, should_stop, observers=observers,
            )
        except Exception as exc:
            # an error the kernel itself lets escape (never a body's: the
            # policy decides those) ends the call; the member stays
            result_q.put(pickle.dumps(
                ("raised", uid, k, _shippable_error(exc), gen)
            ))
            break
        if chunk is None:
            break
        chunk.records = [
            (seq, _shippable_error(error), attempts, action)
            for seq, error, attempts, action in chunk.records
        ]
        chunk.sidecars = {
            kind: observer.drain() for kind, observer in observers.items()
        }
        lo, hi = chunks[k]
        if (
            out is not None
            and kernel.reduce_op is None
            and not chunk.failed
            and len(chunk.values) == hi - lo
            and out.write(k, lo, chunk.values)
        ):
            # per-chunk degradation: only a complete, uniformly numeric
            # chunk takes the zero-copy road; anything else ships inline
            chunk.values, chunk.shm = [], True
        try:
            msg = pickle.dumps(("chunk", uid, k, chunk, gen))
        except Exception as exc:
            chunk = dataclasses.replace(
                chunk,
                values=[],
                records=[(
                    lo,
                    RuntimeError(f"chunk result not picklable: {exc!r}"),
                    1,
                    "failed",
                )],
                failed=True,
                shm=False,
            )
            msg = pickle.dumps(("chunk", uid, k, chunk, gen))
        result_q.put(msg)
        if chunk.failed:
            break


def _session_worker_main(
    uid: int,
    task_q,
    result_q,
    counter,
    stop_flag,
    first: bytes,
) -> None:
    """Pool worker: serve ``first``, then ``task_q``, until the sentinel.

    ``first`` is the task of the call the member joins.  Kernels are
    cached per digest, so a session re-running the same loop unpickles
    (and, for shipped functions, re-marshals) the body exactly once;
    later calls ship only the per-call delta.  The session's input arena
    stays mapped across calls and is re-attached only when a call names
    another segment.  A bad task is answered with ``fatal`` + ``done``
    and the worker stays available — one poisoned call must not cost the
    pool a member.

    An unmap that fails (a view of a segment still alive) ends the
    worker: a warm worker must not keep the mapping of an unlinked
    segment, unreported, for the rest of its life.  The per-call output
    region is unmapped after every call, the input arena when it is
    replaced and when the worker exits.
    """
    kernels: dict[str, tuple] = {}
    arena = InputMapping()  # the session's input arena, mapped across calls
    raw = first
    while raw is not None:
        gen = -1
        out = None
        try:
            try:
                (
                    gen, digest, kernel_blob, call_blob, live, assigned,
                ) = pickle.loads(raw)
                if kernel_blob is not None and digest not in kernels:
                    kernels[digest] = _load_kernel(kernel_blob)
                kernel = kernels[digest]
                input_spec, out_spec, chunks = pickle.loads(call_blob)
                vals = _resolve_input(input_spec, arena)
                if out_spec is not None:
                    out = ShmOutputWriter(out_spec)
            except BaseException as exc:
                result_q.put(pickle.dumps(("fatal", uid, repr(exc), gen)))
                if isinstance(exc, BufferError):
                    raise  # the replaced arena is pinned: see above
            else:
                _serve_call(
                    uid, gen, counter, result_q, stop_flag, kernel, vals,
                    chunks, out, live, assigned,
                )
        finally:
            try:
                if out is not None:
                    out.close()
            finally:
                result_q.put(pickle.dumps(("done", uid, gen)))
        raw = task_q.get()
    arena.close()


class PoolSession:
    """The process pool: every process-backend call runs on one.

    A member is started with the task of the call it joins and takes
    later calls from its own task queue; the claim counter, result
    queue and stop flag are created once per session
    (multiprocessing primitives can only be inherited at spawn, never
    sent through a queue) and reused with a per-call *generation* tag —
    every worker message and every counter claim carries the
    generation, so stragglers from an earlier call are filtered instead
    of corrupting the next one.  Kernels ship once per distinct digest
    per worker; later calls send only the per-call delta (input spec +
    chunks).  The session owns the shared-memory :attr:`arena` its calls
    place their ``Transport=shm`` input in; :meth:`shutdown` unlinks it.

    Every session is registered: a call takes an idle one of its width
    and hands it back warm (:func:`pool_session`), and the reaper thread
    shuts down a session idle past :data:`IDLE_BOUND`.  A session serves
    one caller at a time, the holder of :attr:`lock`, so its arena needs
    no lock of its own.  Members
    are never terminated mid-call — retirement is a sentinel on the
    worker's own task queue, honoured when idle, so the shared result
    queue's feeder lock can never be stranded by the pool itself.
    """

    def __init__(self, workers: int) -> None:
        self.ctx = mp_context()
        self.nworkers = max(1, int(workers))
        self.counter = self.ctx.Value("Q", 0)
        self.result_q = self.ctx.Queue()
        self.stop_flag = SharedFlag()
        self.gen = 0
        #: calls served (observability + the warm-vs-cold benchmark)
        self.calls = 0
        self.lock = threading.Lock()
        #: when the session was last handed back (the reaper's clock)
        self.idle_since = time.monotonic()
        self._members: dict[int, tuple[Any, Any]] = {}
        self._known: dict[int, set[str]] = {}
        self._retired: list[Any] = []
        self._next_uid = 0
        self._call: tuple | None = None
        #: the input arena, created by the session's first shm call
        self.arena = InputArena()
        #: the result region of its latest shm map call, which a member
        #: forked during that call unmaps (:func:`_forget_sessions`)
        self.output: ShmOutput | None = None

    @property
    def pids(self) -> list[int]:
        return [p.pid for p, _q in self._members.values()]

    def _spawn_member(
        self, assigned: list[tuple[int, int]] | None
    ) -> tuple[int, Any]:
        """Start a member with the current call's task; queueing it
        would cost a feeder-thread start, ~1 ms while fresh forks hold
        the CPU.  The collector starts replacement and hedge workers
        here too, each with the chunks it ``assigned`` them."""
        uid = self._next_uid
        self._next_uid += 1
        self._known[uid] = set()
        task_q = self.ctx.Queue()
        p = self.ctx.Process(
            target=_session_worker_main,
            args=(
                uid, task_q, self.result_q, self.counter, self.stop_flag,
                self._task(uid, assigned),
            ),
            daemon=True,
            name=f"repro-pool-{uid}",
        )
        p.start()
        self._members[uid] = (p, task_q)
        return uid, p

    def _drop_member(self, uid: int, sentinel: bool) -> None:
        member = self._members.pop(uid, None)
        self._known.pop(uid, None)
        if member is None:
            return
        p, q = member
        if sentinel:
            try:
                q.put(None)
            except Exception:  # pragma: no cover - queue already down
                pass
        q.close()
        q.cancel_join_thread()
        self._retired.append(p)

    def _prune_dead(self) -> None:
        """Forget dead members, and close the retired ones that have
        exited: a retired process keeps two pipe fds until it is
        closed, and a long-lived session retires one per respawn."""
        for uid in [
            u for u, (p, _q) in self._members.items() if not p.is_alive()
        ]:
            self._drop_member(uid, sentinel=False)
        for p in [p for p in self._retired if not p.is_alive()]:
            p.close()
            self._retired.remove(p)

    def begin_call(
        self,
        payload: "ProcessPayload",
        live: Sequence[int],
        stripes: list[Sequence[int]] | None,
    ) -> list[tuple[int, Any, list[tuple[int, int]] | None]]:
        """Heal to strength, open a new generation, dispatch the call.

        Member ``j`` of the roster is handed ``stripes[j]``, a static
        call's stripe, as its ``assigned`` list; without ``stripes``
        every member claims the ``live`` chunks from the shared counter.
        Returns the roster as ``(uid, process, assigned)``.
        """
        self.gen = (self.gen + 1) & _GEN_MASK or 1
        # anything still queued belongs to an earlier generation
        while True:
            try:
                self.result_q.get_nowait()
            except _queue.Empty:
                break
        self.stop_flag.clear()
        with self.counter.get_lock():
            self.counter.value = self.gen << _GEN_SHIFT
        self._prune_dead()
        self._call = (payload, live)
        members = sorted(self._members)[: self.nworkers]
        roster = []
        for j in range(self.nworkers):
            assigned = (
                None if stripes is None else [(k, 1) for k in stripes[j]]
            )
            if j < len(members):
                uid = members[j]
                self._members[uid][1].put(self._task(uid, assigned))
            else:
                uid, _p = self._spawn_member(assigned)
            roster.append((uid, self._members[uid][0], assigned))
        self.calls += 1
        return roster

    def _task(
        self, uid: int, assigned: list[tuple[int, int]] | None
    ) -> bytes:
        """The current call's task for one member, pickled."""
        payload, live = self._call
        known = self._known[uid]
        msg = (
            self.gen,
            payload.digest,
            None if payload.digest in known else payload.kernel_blob,
            payload.call_blob,
            live,
            assigned,
        )
        known.add(payload.digest)
        return pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL)

    def resize(self, workers: int) -> None:
        """Re-tune the session's target width between calls.

        The next ``begin_call`` heals *up* to the new strength (spawning
        any missing members) and ``end_call`` retires members *beyond*
        it — workers are never terminated mid-call, only grown or shed
        at the generation boundary.  The registry matches sessions by
        their current width.
        """
        self.nworkers = max(1, int(workers))

    def end_call(self, losers: Sequence[int] = ()) -> None:
        """Close the call: stop stragglers, retire beyond-strength extras.

        ``losers`` are members still running a chunk whose result came
        from another copy (a hedged chunk's straggler).  They retire
        first, so the members kept are the idle ones.
        """
        self.stop_flag.set()
        self._call = None
        for uid in losers:
            self._drop_member(uid, sentinel=True)
        self._prune_dead()
        for uid in sorted(self._members)[self.nworkers:]:
            self._drop_member(uid, sentinel=True)

    def shutdown(self) -> None:
        """Retire every member and reap it: wait, then terminate, then
        kill.

        The waits poll ``is_alive()`` (a ``waitpid``), never the
        member's sentinel pipe: a member forked while another thread's
        call forked its own can inherit that sibling's sentinel write
        end, and a ``join`` on the sibling's sentinel then waits out its
        whole timeout on a process that has already exited.  The reaper
        and the eviction run this under the registry lock.
        """
        for uid in list(self._members):
            self._drop_member(uid, sentinel=True)
        if not _wait_exit(self._retired, 1.0):
            for p in self._retired:
                if p.is_alive():
                    p.terminate()
            if not _wait_exit(self._retired, 0.5):
                # SIGTERM can be blocked or ignored mid-syscall;
                # SIGKILL cannot — a straggler never outlives the pool
                for p in self._retired:
                    if p.is_alive():
                        p.kill()
                _wait_exit(self._retired, 0.5)
        self._prune_dead()
        try:
            while True:
                self.result_q.get_nowait()
        except (_queue.Empty, OSError, EOFError):
            pass
        self.result_q.close()
        self.result_q.cancel_join_thread()
        self.arena.close()


def _wait_exit(procs: Sequence[Any], timeout: float) -> bool:
    """Poll until every process in ``procs`` has exited (True) or
    ``timeout`` seconds pass (False)."""
    deadline = time.monotonic() + timeout
    pause = 0.001
    while any(p.is_alive() for p in procs):
        left = deadline - time.monotonic()
        if left <= 0:
            return False
        time.sleep(min(pause, left))
        pause = min(2 * pause, 0.02)
    return True


#: every registered session, least recently handed back first
_SESSIONS: dict[int, PoolSession] = {}
_SESSIONS_LOCK = threading.Lock()
#: the reaper sleeps on it; shutdown_sessions() wakes it to exit
_REAPER_WAKE = threading.Condition(_SESSIONS_LOCK)
_REAPER: threading.Thread | None = None

#: idle sessions kept at once; a held session is never evicted
MAX_SESSIONS = 4

#: seconds a session stays idle before the reaper shuts it down.  It
#: trades a first call's extra wall time (about 2 ms for 2 workers)
#: against each idle member's memory (about 20 MB RSS); DESIGN.md §5
#: records both measurements.
IDLE_BOUND = 5.0


def _find_or_open(workers: int, take: bool) -> PoolSession:
    """The most recently handed back session of this width, else a new
    one; ``take`` passes over held sessions and takes the one returned.
    Call with ``_SESSIONS_LOCK`` held."""
    global _REAPER
    key = (start_method(), max(1, int(workers)))
    for session in reversed(_SESSIONS.values()):
        if (session.ctx.get_start_method(), session.nworkers) == key and (
            not take or session.lock.acquire(blocking=False)
        ):
            return session
    session = PoolSession(key[1])
    if take:
        session.lock.acquire()
    _SESSIONS[id(session)] = session
    if _REAPER is None:
        _REAPER = threading.Thread(
            target=_reap_idle, name="repro-pool-reaper", daemon=True
        )
        _REAPER.start()
    return session


def _evict_idle() -> None:
    """Shut down the least recently handed back idle sessions beyond
    :data:`MAX_SESSIONS`.  Call with ``_SESSIONS_LOCK`` held."""
    idle = [key for key, s in _SESSIONS.items() if not s.lock.locked()]
    for key in idle[: max(0, len(idle) - MAX_SESSIONS)]:
        _SESSIONS.pop(key).shutdown()


def _release_session(session: PoolSession) -> None:
    """Hand a call's session back warm, as the most recently used."""
    with _SESSIONS_LOCK:
        session.lock.release()
        if _SESSIONS.pop(id(session), None) is not None:
            # (else shutdown_sessions() took it down under its holder)
            session.idle_since = time.monotonic()
            _SESSIONS[id(session)] = session
            _evict_idle()


def _reap_idle() -> None:
    """The reaper thread: shut down each session idle past
    :data:`IDLE_BOUND`; exit once the registry is empty.

    It works under the registry lock and takes a session's own lock
    before it shuts the session down.  So it never retires a session
    that a caller holds or is taking, and :func:`shutdown_sessions`
    waits for a retirement in progress.
    """
    global _REAPER
    with _SESSIONS_LOCK:
        try:
            while _SESSIONS:
                wait, now = IDLE_BOUND, time.monotonic()
                for key, session in list(_SESSIONS.items()):
                    left = session.idle_since + IDLE_BOUND - now
                    if left > 0:
                        wait = min(wait, left)
                    elif session.lock.acquire(blocking=False):
                        del _SESSIONS[key]
                        session.shutdown()
                        session.lock.release()
                if _SESSIONS:
                    _REAPER_WAKE.wait(wait)
        finally:
            _REAPER = None


@contextlib.contextmanager
def pool_session(workers: int) -> Iterator[PoolSession]:
    """Take the most recently handed back idle session of this width (a
    new one if none is idle) and hand it back warm on exit.

    A process call takes its session before it places its input: the
    shm input arena is the session's.  Two callers at once take two
    sessions, each with its own arena.
    """
    with _SESSIONS_LOCK:
        session = _find_or_open(workers, take=True)
    try:
        yield session
    finally:
        _release_session(session)


def get_session(workers: int) -> PoolSession:
    """The most recently handed back session of this width, opened if
    none is registered.  It is not taken: a call takes its own session
    with :func:`pool_session`."""
    with _SESSIONS_LOCK:
        session = _find_or_open(workers, take=False)
        _evict_idle()
    return session


def shutdown_sessions() -> None:
    """Shut down every session (test teardown; registered at exit).
    Under the registry lock, so a session the reaper is retiring at that
    moment is gone too when it returns."""
    with _SESSIONS_LOCK:
        for session in _SESSIONS.values():
            session.shutdown()
        _SESSIONS.clear()
        _REAPER_WAKE.notify_all()


def _forget_sessions() -> None:
    """A forked child starts from an empty registry, fresh locks and no
    reaper.  It owns none of the parent's members: testing or joining
    one raises, and a sentinel would retire it.  Dropping them from
    multiprocessing's table of children too keeps that table's exit
    hook from terminating them when an ``os.fork()`` child exits.  Nor
    does it own the parent's input arenas or a call's result region: it
    unmaps them unlinked."""
    global _SESSIONS_LOCK, _REAPER_WAKE, _REAPER
    for session in _SESSIONS.values():
        for p in [p for p, _q in session._members.values()] + session._retired:
            multiprocessing.process._children.discard(p)
        session.arena.forget()
        if session.output is not None:
            session.output.forget()
    _SESSIONS.clear()
    _SESSIONS_LOCK = threading.Lock()
    _REAPER_WAKE = threading.Condition(_SESSIONS_LOCK)
    _REAPER = None


atexit.register(shutdown_sessions)
os.register_at_fork(after_in_child=_forget_sessions)


def _pool_wait(result_q, procs: Sequence[Any], timeout: float) -> None:
    """Sleep until a result message or a worker death, bounded by timeout.

    ``multiprocessing.connection.wait`` on the queue's reader pipe plus
    the workers' sentinels replaces the old fixed 50 ms poll quantum:
    per-event wakeup latency is the pipe write itself, without
    busy-waiting, and a worker death wakes the collector immediately.
    """
    reader = getattr(result_q, "_reader", None)
    if reader is None:  # pragma: no cover - unexpected queue internals
        time.sleep(min(timeout, 0.02))
        return
    handles: list[Any] = [reader]
    for p in procs:
        sentinel = getattr(p, "sentinel", None)
        if sentinel is not None:
            handles.append(sentinel)
    try:
        _mpconn.wait(handles, timeout)
    except OSError:  # pragma: no cover - a sentinel closed mid-wait
        time.sleep(0.001)


#: chunk latencies observed before straggler hedging may fire
HEDGE_MIN_SAMPLES = 3


#: the ``pool_*`` counter each kind of recovery decision adds one to
_RECOVERY_METRICS = {
    "worker_lost": "pool_workers_lost",
    "respawn": "pool_respawns",
    "redispatch": "pool_redispatches",
    "hedge": "pool_hedges",
    "lost": "pool_chunks_lost",
}


def run_process_chunks(
    payload: ProcessPayload,
    chunks: Sequence[tuple[int, int]],
    *,
    session: PoolSession,
    workers: int,
    todo: Sequence[int] | None = None,
    schedule: str = "dynamic",
    cancel: CancellationToken | None = None,
    max_restarts: int = 0,
    hedge: float = 0.0,
    observers: dict[str, Any] | None = None,
    label: str = "loop",
    checkpoint: Any = None,
    out_values: Any = None,
) -> ProcessRun:
    """Execute a prepared payload on ``session``, the warm
    :class:`PoolSession` the caller took (:func:`pool_session`) at the
    call's width ``workers``; collect chunks.

    The collector never blocks indefinitely: it polls worker liveness, so
    a worker that dies without delivering its done-marker surfaces as
    lost chunks instead of a hang.  A fired ``cancel`` token is bridged
    into the pool's stop flag within one 50 ms poll.

    Resilience contract:

    * ``chunks`` are the plan's bounds, ``todo`` the chunks the call
      runs (all by default), and the collector alone decides what each
      member runs: under ``static`` it hands member ``j`` its stripe
      (:func:`static_stripes` over ``todo`` and the session width),
      owned from birth; else members claim ``todo`` from the shared
      counter, each chunk owned from its ``claim`` message.
    * A dead worker's in-flight chunks are re-dispatched to a fresh
      replacement process while ``max_restarts`` budget remains
      (at-least-once: duplicate completions are discarded, first result
      wins).  With the budget exhausted, lost chunks come back as failed
      :class:`ChunkResult` s carrying per-element
      :class:`WorkerLostError` records.
    * ``hedge`` > 0 turns on straggler hedging: once
      :data:`HEDGE_MIN_SAMPLES` chunk latencies are observed, a chunk older
      than the ``hedge`` quantile of that sample gets a speculative
      duplicate dispatch.
    * Every first result goes through :func:`deliver_chunk`, which
      absorbs its sidecars into ``observers`` (the run's ``{kind:
      observer}`` map) and feeds ``checkpoint`` (a duck-typed
      ``record(k, lo, hi, values)``) each successful chunk *as it is
      delivered*, so a kill mid-run loses at most the in-flight chunks.
    * Each recovery decision is recorded once, by ``note_recovery``: a
      :class:`RecoveryEvent` in :attr:`ProcessRun.recovery`, its
      ``pool_*`` counter, and a ``respawn``/``redispatch``/``hedge``
      instant on the ``trace`` observer.
    * ``out_values`` is the parent-side shared output region a chunk
      flagged ``shm`` is materialized from at absorb time.
    """
    bounds = list(chunks)
    live = range(len(bounds)) if todo is None else todo
    if not live:
        return ProcessRun(chunks={}, fatal=[])
    nworkers = max(1, min(workers, len(live)))

    observers = observers or {}
    trace, metrics = observers.get("trace"), observers.get("metrics")
    series = StageSeries(metrics, label) if metrics is not None else None
    delivered: dict[int, ChunkResult] = {}
    fatal: list[str] = []
    raised: list[BaseException] = []
    recovery: list[RecoveryEvent] = []
    procs: dict[int, Any] = {}
    done_uids: set[int] = set()
    dead_uids: set[int] = set()
    #: the ownership ledger: chunk -> worker uids currently responsible
    inflight: dict[int, set[int]] = {}
    claim_time: dict[int, float] = {}
    attempts: dict[int, int] = {}
    #: chunk -> claim-to-delivery seconds of its first result
    chunk_latency: dict[int, float] = {}
    hedged: set[int] = set()
    #: worker uid -> the chunk it claimed and has not yet delivered
    running: dict[int, int] = {}
    restarts_used = 0
    hedges_used = 0
    failed_seen = False

    gen = None  # every message is stale until begin_call opens a generation

    def spawn(assigned: list[tuple[int, int]]) -> Any:
        """Start a replacement or hedge worker for ``assigned`` chunks."""
        uid, p = session._spawn_member(assigned)
        procs[uid] = p
        for k, att in assigned:
            inflight.setdefault(k, set()).add(uid)
            attempts[k] = max(attempts.get(k, 0), att)
            claim_time[k] = time.monotonic()
        return p

    def note_recovery(
        event: RecoveryEvent, seq: int | None = None, **span: Any
    ) -> None:
        """Record one recovery decision: the event, its ``pool_*``
        counter and, given the ``seq`` of its span, its trace instant
        (``worker_lost`` and ``lost`` have no span kind)."""
        recovery.append(event)
        if series is not None:
            series.inc(_RECOVERY_METRICS[event.kind])
        if trace is not None and seq is not None:
            trace.instant(event.kind, label, seq, **span)

    def absorb(message: tuple) -> None:
        nonlocal failed_seen
        if message[-1] != gen:
            # a straggler from an earlier call of a reused pool: its
            # claims, results and markers are all stale — drop whole
            return
        tag = message[0]
        if tag == "chunk":
            _tag, uid, k, chunk, _gen = message
            if running.get(uid) == k:
                del running[uid]
            if chunk.shm and k not in delivered:
                # materialize from the shared region exactly once, while
                # the region is still alive; the message itself carried
                # no data
                if out_values is None:
                    raise RuntimeError(
                        f"chunk {k} arrived on the shm transport but no "
                        "output region is attached"
                    )
                chunk.values = out_values.read(k, *bounds[k])
                chunk.shm = False
                if metrics is not None:
                    lo, hi = bounds[k]
                    metrics.inc(
                        "transport_bytes", (hi - lo) * 8,
                        transport="shm", stage=label,
                    )
            inflight.pop(k, None)
            if k in delivered:
                # at-least-once dedup: a hedge loser or a redispatch
                # duplicate — the first result won; dropping the loser
                # whole (values, counters, sidecars) keeps parent-side
                # accounting exactly-once: completed - deduped = n_chunks
                if series is not None:
                    series.inc("chunks_completed")
                    series.inc("chunks_deduped")
                return
            delivered[k] = chunk
            if chunk.failed:
                failed_seen = True
                # warm workers leave the stop flag to the parent (a
                # late straggler setting it could race the next call)
                stop_flag.set()
            t0 = claim_time.get(k)
            latency = None if t0 is None else time.monotonic() - t0
            if latency is not None:
                chunk_latency[k] = latency
            deliver_chunk(
                chunk, bounds[k], latency, label=label, observers=observers,
                journal=checkpoint, series=series,
            )
        elif tag == "claim":
            _tag, uid, k, att, _gen = message
            running[uid] = k
            inflight.setdefault(k, set()).add(uid)
            claim_time[k] = time.monotonic()
            attempts[k] = max(attempts.get(k, 0), att)
            if series is not None:
                series.inc("chunks_dispatched")
        elif tag == "chaos_kill":
            # a worker announcing its own seeded SIGKILL; the death
            # itself surfaces via handle_death as usual
            if series is not None:
                series.inc("chaos_kills")
        elif tag == "done":
            done_uids.add(message[1])
        elif tag == "raised":
            # the call comes down as after a failed chunk; the error
            # outranks every chunk's records
            raised.append(message[3])
            stop_flag.set()
        else:
            fatal.append(message[2])

    def drain() -> bool:
        """Absorb every message already on the result queue, metering
        its bytes; True when there was at least one."""
        got = False
        while True:
            try:
                raw = result_q.get_nowait()
            except _queue.Empty:
                return got
            got = True
            if metrics is not None:
                metrics.inc(
                    "transport_bytes", len(raw), transport="pickle",
                    stage=label,
                )
            absorb(pickle.loads(raw))

    def unwinding() -> bool:
        # a failed chunk, a fatal worker, or cancellation means the run
        # is coming down anyway: no respawns, no hedges
        return (
            failed_seen
            or bool(fatal)
            or stop_flag.is_set()
            or (cancel is not None and cancel.cancelled)
        )

    def respawn(chunks: list[int], cause: str, **span: Any) -> None:
        """Spend one restart on a fresh worker for ``chunks``: after a
        death, or in the final sweep.  Each chunk goes out at the highest
        attempt seen for it plus one."""
        nonlocal restarts_used
        restarts_used += 1
        assigned = [(k, attempts.get(k, 0) + 1) for k in chunks]
        for k in chunks:
            inflight.pop(k, None)
        p = spawn(assigned)
        note_recovery(
            RecoveryEvent(
                "respawn", p.name, tuple(chunks),
                detail=f"{cause} restarts_used={restarts_used}",
            ),
            -1, worker=p.name, chunks=len(chunks), **span,
        )
        for k, att in assigned:
            note_recovery(
                RecoveryEvent(
                    "redispatch", p.name, (k,), detail=f"attempt={att}"
                ),
                bounds[k][0], chunk=k, attempt=att,
            )

    def handle_death(uid: int) -> None:
        p = procs[uid]
        dead_uids.add(uid)
        session._drop_member(uid, sentinel=False)
        lost: list[int] = []
        for k in sorted(inflight):
            owners = inflight[k]
            owners.discard(uid)
            if not owners and k not in delivered:
                lost.append(k)
        note_recovery(
            RecoveryEvent(
                "worker_lost", p.name, tuple(lost),
                detail=f"exitcode={p.exitcode}",
            )
        )
        if not lost or unwinding() or restarts_used >= max_restarts:
            return
        respawn(lost, f"replaces={p.name}", replaces=p.name)

    def maybe_hedge() -> None:
        nonlocal hedges_used
        if hedge <= 0.0 or unwinding():
            return
        if len(chunk_latency) < HEDGE_MIN_SAMPLES or hedges_used >= nworkers:
            return
        durs = sorted(chunk_latency.values())
        n = len(durs)
        threshold = durs[min(n - 1, max(0, math.ceil(hedge * n) - 1))]
        now = time.monotonic()
        for k in sorted(inflight):
            if hedges_used >= nworkers:
                return
            if k in hedged or k in delivered or not inflight[k]:
                continue
            t0 = claim_time.get(k)
            if t0 is None:  # a static stripe chunk not yet started
                continue
            elapsed = now - t0
            if elapsed <= threshold:
                continue
            hedged.add(k)
            hedges_used += 1
            att = attempts.get(k, 1) + 1
            p = spawn([(k, att)])
            note_recovery(
                RecoveryEvent(
                    "hedge", p.name, (k,),
                    detail=(
                        f"elapsed={elapsed:.3f}s "
                        f"threshold={threshold:.3f}s attempt={att}"
                    ),
                ),
                bounds[k][0],
                chunk=k, elapsed=elapsed, threshold=threshold, attempt=att,
            )

    # Hedging and cancel bridging are the only reasons to wake without a
    # pool event; otherwise the wait can stretch — every message and
    # every worker death interrupts it.
    poll = 0.05 if hedge > 0.0 or cancel is not None else 0.25

    if metrics is not None:
        # a hit finds warm members; a miss pays their spawn
        metrics.inc(
            "pool_warm_hits" if session.pids else "pool_warm_misses",
            stage=label,
        )
    result_q, stop_flag = session.result_q, session.stop_flag
    try:
        stripes = (
            static_stripes(live, session.nworkers)
            if schedule == "static" else None
        )
        for uid, p, assigned in session.begin_call(payload, live, stripes):
            procs[uid] = p
            # a handed stripe is ownership from birth: a static worker's
            # unclaimed chunks die with it and must be re-dispatched
            for k, att in assigned or ():
                inflight.setdefault(k, set()).add(uid)
                attempts[k] = att
        gen = session.gen
        while True:
            # bridge the token into the pool: workers read only the flag
            if cancel is not None and cancel.cancelled:
                stop_flag.set()
            if len(delivered) >= len(live):
                # every chunk accounted for: don't wait out hedge losers
                # — stragglers are stopped and retired in the finally
                break
            active = [
                uid for uid in procs
                if uid not in done_uids and uid not in dead_uids
            ]
            if not active:
                drain()
                if len(delivered) >= len(live):
                    break
                missing = [k for k in live if k not in delivered]
                if (
                    missing
                    and not unwinding()
                    and restarts_used < max_restarts
                ):
                    # Final sweep: a SIGKILL can land before the dying
                    # worker's queue feeder flushes its claim, so a chunk
                    # can go missing without ever appearing in the
                    # ownership ledger.  Re-dispatch everything missing
                    # to one fresh worker while budget remains.
                    respawn(missing, "final sweep", sweep=True)
                    continue
                break
            if drain():
                continue
            _pool_wait(result_q, [procs[uid] for uid in active], poll)
            if drain():
                continue
            suspects = [uid for uid in active if not procs[uid].is_alive()]
            if suspects:
                # a just-exited worker's results and done-marker may
                # still be in the pipe: give the feeder a beat, then
                # drain before declaring anyone dead
                _pool_wait(result_q, (), 0.05)
                drain()
                for uid in suspects:
                    if uid in done_uids or uid in dead_uids:
                        continue
                    handle_death(uid)
            maybe_hedge()
        # Synthesize failures for chunks abandoned with their workers:
        # every element is accounted for — a result or an ErrorRecord —
        # so exhausted recovery surfaces through the ordinary fault road
        # instead of as silently missing results.
        if (
            dead_uids
            and not failed_seen
            and not fatal
            and not (cancel is not None and cancel.cancelled)
        ):
            abandoned = [k for k in live if k not in delivered]
            if abandoned:
                note_recovery(
                    RecoveryEvent(
                        "lost", "", tuple(abandoned),
                        detail=(
                            "restart budget exhausted "
                            f"(max_restarts={max_restarts})"
                        ),
                    )
                )
                for k in abandoned:
                    lo, hi = bounds[k]
                    att = max(1, attempts.get(k, 1))
                    records = [
                        (
                            i,
                            WorkerLostError(
                                f"worker process died with chunk {k} "
                                f"(element {i}) in flight; restarts "
                                f"exhausted ({restarts_used}/{max_restarts})"
                            ),
                            att,
                            "failed",
                        )
                        for i in range(lo, hi)
                    ]
                    counters = dict.fromkeys(ELEMENT_COUNTERS, 0)
                    counters["failed"] = hi - lo
                    delivered[k] = ChunkResult(k, [], records, counters, True)
    finally:
        stop_flag.set()  # live workers stop claiming; hedge losers unwind
        # Drain everything the worker feeders already flushed (late
        # results are absorbed and deduped — teardown must never discard
        # wanted data).
        with contextlib.suppress(OSError, EOFError):
            drain()
        # the session keeps its members for the next call, except a
        # member still busy on a chunk another copy already delivered
        session.end_call(
            losers=[uid for uid, k in running.items() if k in delivered]
        )
    return ProcessRun(
        chunks=delivered, fatal=fatal, recovery=recovery,
        latencies=chunk_latency, raised=raised[0] if raised else None,
    )


def invoke_task(task: Callable[[], Any]) -> Any:
    """Module-level thunk runner: the master/worker body on every
    backend (picklable by reference for the process pool)."""
    return task()
