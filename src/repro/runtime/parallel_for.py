"""The data-parallel loop target pattern, and the chunk engine under it.

``parallel_for`` executes independent loop iterations on a worker pool,
honouring the DOALL tuning parameters (``NumWorkers``, ``ChunkSize``,
``Schedule``, ``SequentialExecution`` — and, since the backend layer,
``Backend``).  Results are collected in index order — the "ordered
collector" transformation for ``out.append(...)`` loops — and
``parallel_reduce`` implements the reduction idiom with an associative
combiner.

Every pattern call — ``parallel_for``, ``parallel_reduce`` and
:meth:`~repro.runtime.masterworker.MasterWorker.run` — runs on one chunk
engine (:func:`_engine`):

* **plan** — one list of ``(lo, hi)`` descriptors, fixed-stride or
  guided, journaled before dispatch when a checkpoint is attached;
* **chunk kernel** — :func:`~repro.runtime.backend.run_chunk` per
  descriptor: chaos stream, profiler window, fault policy, spans;
* **deliver** — :func:`~repro.runtime.backend.deliver_chunk` per chunk:
  a pool worker's observer sidecars, counters, latency, journal record;
* **assemble** — :func:`_assemble_process_run` once per call: values,
  ledger, and the error to raise.

The backends differ only in who runs the kernel: ``serial`` in the
calling thread, ``thread`` on claiming threads, ``process`` on a
``multiprocessing`` pool whose collector delivers first results only.
A body that cannot cross the process boundary is detected up front and
downgraded to the thread backend with a recorded
:class:`~repro.runtime.backend.BackendEvent` — never a crash.  The one
specialised road is the serial loop with every feature off; a serial
run that nothing observes per chunk runs its plan as one chunk.

Workers are supervised: once a chunk fails — or a shared
:class:`~repro.runtime.faults.CancellationToken` fires — the executors
stop claiming new chunks instead of running the full remaining input.
A :class:`~repro.runtime.faults.FaultPolicy` can wrap the loop body
(``Retries@loop`` / ``ItemTimeout@loop`` / ``OnError@loop`` in a tuning
file); ``skip`` and ``fallback`` substitute the policy's fallback value
for poison elements so the result list keeps its length and order.  All
backends feed the same optional ``ledger`` of
:class:`~repro.runtime.faults.ErrorRecord` entries, in chunk order, so
fault accounting is backend-independent.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from typing import Any, Callable, Iterable, Sequence

from repro.runtime.adaptive import (
    SCHEDULES,
    normalize_schedule,
    plan_chunks,
    plan_fixed,
    plan_guided,
)
from repro.runtime.backend import (
    BackendEvent,
    ChunkResult,
    Kernel,
    ProcessRun,
    RecoveryEvent,
    TuningError,
    build_process_payload,
    deliver_chunk,
    downgrade,
    downgrade_transport,
    normalize_backend,
    pool_session,
    run_chunk,
    run_process_chunks,
    ship_kernel,
    static_stripes,
)
from repro.runtime.chaos import ChaosInjector
from repro.runtime.checkpoint import CheckpointError, ChunkJournal
from repro.runtime.faults import (
    NO_POLICY,
    CancellationToken,
    CancelledError,
    ErrorRecord,
    FaultPolicy,
)
from repro.runtime.metrics import (
    MetricsRegistry,
    StageSeries,
    resolve_registry,
)
from repro.runtime.profiler import SamplingProfiler, resolve_profiler
from repro.runtime.shm import ShmInput, ShmOutput, normalize_transport
from repro.runtime.trace import TraceCollector, resolve_collector


def _validate(
    workers: int,
    chunk_size: int,
    schedule: str,
    restarts: int = 0,
    hedge: float = 0.0,
) -> None:
    if workers <= 0:
        raise TuningError(
            f"NumWorkers must be >= 1, got {workers} "
            "(an empty pool would hang the collector)"
        )
    if chunk_size <= 0:
        raise TuningError(f"ChunkSize must be >= 1, got {chunk_size}")
    if schedule not in SCHEDULES:
        raise ValueError(f"unknown schedule {schedule!r}")
    if not 0.0 <= hedge <= 1.0:
        raise TuningError(f"Hedge must be a quantile in [0, 1], got {hedge}")
    if restarts < 0:
        raise TuningError(f"PoolRestarts must be >= 0, got {restarts}")


def _resolve_plan(
    n: int,
    chunk_size: int,
    schedule: str,
    workers: int,
    checkpoint: ChunkJournal | None,
) -> list[tuple[int, int]]:
    """The run's chunk descriptors, honoring a resumed journal's plan.

    ``static``/``dynamic`` plans are a pure function of ``(n,
    chunk_size)``, so they are recomputed (and always equal what an
    earlier run journaled).  A ``guided`` plan depends on the worker
    count, so a resumed journal's ``plan`` records are authoritative:
    the journaled descriptors are replayed verbatim — that is what keeps
    chunk indices naming the same element ranges across the resume —
    and any uncovered tail (a run killed before it finished planning) is
    extended with the guided shrink and journaled.  A journal that an
    older ``adaptive`` run planned in waves resumes the same way.  Fresh
    plans are journaled before dispatch when a checkpoint is attached.
    """
    if schedule in ("static", "dynamic"):
        return plan_fixed(n, chunk_size)
    planned = checkpoint.planned() if checkpoint is not None else {}
    if not planned:
        bounds = plan_chunks(n, chunk_size, schedule, workers)
        if checkpoint is not None:
            checkpoint.plan(0, bounds)
        return bounds
    bounds = []
    end = 0
    for i, k in enumerate(sorted(planned)):
        lo, hi = planned[k]
        if k != i or lo != end or hi < lo:
            raise CheckpointError(
                f"journal {checkpoint.path} holds a non-contiguous plan "
                f"(chunk {k} spans [{lo}, {hi}) after element {end})"
            )
        bounds.append((lo, hi))
        end = hi
    if end < n:
        tail = plan_guided(n, chunk_size, workers, start=end)
        checkpoint.plan(len(bounds), tail)
        bounds.extend(tail)
    return bounds


def _place(
    results: list[Any] | dict[int, Any], lo: int, values: list[Any]
) -> None:
    """Write one chunk's values from slot ``lo`` on: one slice assignment
    into a map's result list, the partial itself into a fold's
    ``{chunk start: partial}``."""
    if isinstance(results, list):
        results[lo:lo + len(values)] = values
    elif values:
        results[lo] = values[0]


def _assemble_process_run(
    run: ProcessRun,
    chunks: Sequence[tuple[int, int]],
    todo: Sequence[int],
    results: list[Any] | dict[int, Any],
    ledger: list[ErrorRecord] | None,
    cancel: CancellationToken | None,
    trace: TraceCollector | None = None,
    stage: str = "loop",
) -> None:
    """Fold one executed plan into caller state: the one assembly.

    Every executor returns a :class:`~repro.runtime.backend.ProcessRun`.
    In chunk order, each chunk's values fill ``results`` from its first
    element's slot on and its records extend the ledger (its sidecars
    were absorbed when it was delivered).  Then the call raises, in
    priority order: the first failed chunk's error, cancellation, then
    pool-infrastructure failure, which includes a chunk of ``todo`` (the
    call's live chunks) that never came back.  An error a pool worker's
    kernel let escape is raised first, before any assembly, as the
    in-process executor raises it.
    """
    if run.raised is not None:
        raise run.raised
    first_error: BaseException | None = None
    for k in sorted(run.chunks):
        chunk = run.chunks[k]
        _place(results, chunks[k][0], chunk.values)
        for seq, error, attempts, action in chunk.records:
            if ledger is not None:
                ledger.append(ErrorRecord(stage, seq, error, attempts))
            if action == "failed" and first_error is None:
                first_error = error
    if first_error is not None:
        raise first_error
    if cancel is not None and cancel.cancelled:
        if trace is not None:
            trace.instant(
                "cancel", stage, -1, reason=cancel.reason or "cancelled"
            )
        raise CancelledError(cancel.reason or "cancelled")
    if run.fatal:
        raise RuntimeError(
            f"{stage}: worker process failed to start: {run.fatal[0]}"
        )
    missing = [k for k in todo if k not in run.chunks]
    if missing:
        raise RuntimeError(
            f"{stage}: worker pool lost {len(missing)} chunk(s) "
            f"(first: {missing[0]})"
        )


def _run_in_process(
    kernel: Kernel,
    vals: Sequence[Any],
    bounds: Sequence[tuple[int, int]],
    todo: Sequence[int],
    *,
    width: int,
    threads: bool,
    schedule: str,
    journal: ChunkJournal | None,
    cancel: CancellationToken | None,
    observers: dict[str, Any],
) -> ProcessRun:
    """Execute a plan in this process: the serial and thread executor.

    Runs :func:`~repro.runtime.backend.run_chunk` per live chunk of
    ``todo`` — in the calling thread, or on ``width`` claiming threads
    (under ``static`` each its stripe,
    :func:`~repro.runtime.backend.static_stripes`, the rule the process
    pool hands its members; a shared counter otherwise) — and hands
    each chunk to :func:`~repro.runtime.backend.deliver_chunk` as it
    completes.  The chunks record straight into ``observers``.  A failed
    chunk, a fired ``cancel`` or an escaping exception stops every
    thread from claiming more.  Nothing is pickled.
    """
    width = width if threads else 1
    metrics = observers.get("metrics")
    series = (
        StageSeries(metrics, kernel.label) if metrics is not None else None
    )
    delivered: dict[int, ChunkResult] = {}
    errors: list[BaseException] = []
    halt = threading.Event()
    # checked before every element: without a token, the bare flag read
    if cancel is None:
        stopped = halt.is_set
    else:

        def stopped() -> bool:
            return halt.is_set() or cancel.cancelled

    def work(claim: Callable[[], int | None]) -> None:
        try:
            while not stopped():
                k = claim()
                if k is None:
                    return
                if series is not None:
                    series.inc("chunks_dispatched")
                started = time.monotonic()
                chunk = run_chunk(
                    kernel, k, bounds[k], vals, stopped, cancel=cancel,
                    observers=observers,
                )
                if chunk is None:
                    return
                delivered[k] = chunk
                if chunk.failed:
                    halt.set()
                deliver_chunk(
                    chunk, bounds[k], time.monotonic() - started,
                    label=kernel.label, observers=observers,
                    journal=journal, series=series,
                )
        except BaseException as exc:
            errors.append(exc)
            halt.set()

    if schedule == "static":
        claims = [
            functools.partial(next, iter(stripe), None)
            for stripe in static_stripes(todo, width)
        ]
    else:
        shared = iter(todo)
        lock = threading.Lock()

        def claim() -> int | None:
            with lock:
                return next(shared, None)

        claims = [claim] * width
    if threads:
        pool = [
            threading.Thread(target=work, args=(c,), daemon=True)
            for c in claims
        ]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
    else:
        work(claims[0])
    if errors:
        raise errors[0]
    return ProcessRun(chunks=delivered, fatal=[])


def _engine(
    vals: list[Any],
    body: Callable[[Any], Any],
    *,
    label: str,
    backend: str,
    workers: int,
    chunk_size: int,
    schedule: str = "dynamic",
    reduce_op: Callable[[Any, Any], Any] | None = None,
    policy: FaultPolicy | None = None,
    chaos: ChaosInjector | None = None,
    cancel: CancellationToken | None = None,
    ledger: list[ErrorRecord] | None = None,
    events: list[BackendEvent] | None = None,
    trace: TraceCollector | None = None,
    metrics: MetricsRegistry | None = None,
    profiler: SamplingProfiler | None = None,
    restarts: int = 0,
    hedge: float = 0.0,
    recovery: list[RecoveryEvent] | None = None,
    checkpoint: ChunkJournal | None = None,
    transport: str = "pickle",
) -> list[Any] | dict[int, Any]:
    """Run one pattern call: plan → chunk kernel → deliver → assemble.

    ``backend`` names the executor (``"serial"`` for every sequential
    run).  Returns the results in element order, or — for a reduction
    (``reduce_op`` set) — ``{chunk start: folded partial}``.  A serial
    run with no cancel token, chaos, metrics, profiler or checkpoint
    (and, for a reduction, no trace) plans one chunk: nothing it
    records depends on the chunk size.
    """
    if (
        backend == "serial" and reduce_op is None and policy is None
        and chaos is None and trace is None and metrics is None
        and profiler is None and checkpoint is None
    ):
        # the one specialised road: no plan, kernel or chunk delivery,
        # only the untimed chunk loop.  Its stop check is ``bool``: the
        # call returns False for 7 ns an element, a lambda's for 16 ns
        out, records, _counters, failed, _aborted = NO_POLICY.execute_chunk(
            body, vals, 0, bool, cancel
        )
        if failed:
            seq, error, attempts, _action = records[0]
            if ledger is not None:
                ledger.append(ErrorRecord(label, seq, error, attempts))
            raise error
        return out

    if (
        backend == "serial" and cancel is None and chaos is None
        and metrics is None and profiler is None and checkpoint is None
        and (reduce_op is None or trace is None)
    ):
        # Nothing observes this run's chunk boundaries, so it runs as one
        # chunk.  A map's spans, ledger and values are per element, the
        # same at any chunk size; a fold's span is per chunk, so a traced
        # fold keeps its plan.  A cancelled run keeps the ledger of the
        # chunks it delivered, so a cancellable run keeps its plan too.
        chunk_size = max(1, len(vals))
    n = len(vals)
    results: list[Any] | dict[int, Any] = (
        {} if reduce_op is not None else [None] * n
    )
    if not n:
        return results
    # ``adaptive`` plans, journals and claims as ``guided`` from here on
    schedule = normalize_schedule(schedule)
    # A resumed journal's completed chunks are prefilled from their
    # journaled bounds and never re-executed; chunks completed by *this*
    # run are journaled as they are delivered.
    done: dict[int, tuple[int, int, list[Any]]] = {}
    if checkpoint is not None:
        if metrics is not None:
            checkpoint.metrics = metrics
        checkpoint.bind(
            n, chunk_size, label,
            schedule=schedule if reduce_op is None else None,
        )
        done = checkpoint.completed_ranges()
        if trace is not None and done:
            trace.instant(
                "checkpoint", label, -1,
                resumed=len(done), path=str(checkpoint.path),
            )
        for lo, _hi, values in done.values():
            _place(results, lo, values)

    # ``todo``, the descriptors *this* run executes, for every executor
    # and the assembly; ``chunks_planned`` counts them, the right-hand
    # side of chunks_completed - chunks_deduped = chunks_planned
    plan = _resolve_plan(n, chunk_size, schedule, workers, checkpoint)
    todo = [k for k in range(len(plan)) if k not in done]
    if metrics is not None:
        metrics.inc("chunks_planned", len(todo), stage=label)
    if not todo:
        return results
    width = min(workers, len(todo))
    kernel = Kernel(body, policy, reduce_op, label)
    observers = {
        kind: observer
        for kind, observer in (
            ("chaos", chaos), ("trace", trace),
            ("metrics", metrics), ("profiler", profiler),
        )
        if observer is not None
    }

    with contextlib.ExitStack() as stack:
        run = None
        if backend == "process":
            kernel_blob, reason = ship_kernel(kernel, observers)
            payload = session = shm_out = input_spec = out_spec = None
            if kernel_blob is not None and transport == "shm":
                # the input arena is the session's: take it, then place
                session = stack.enter_context(pool_session(width))
                shm_in, why = ShmInput.build(vals, session.arena)
                if shm_in is None:
                    downgrade_transport(why, events, trace=trace, stage=label)
                else:
                    stack.callback(shm_in.dispose)
                    input_spec = ("shm", shm_in.spec())
                    if reduce_op is None:
                        # stragglers retired by the pool may still hold
                        # the mapped region; POSIX keeps an unlinked
                        # segment alive until its last unmap
                        shm_out = ShmOutput.build(n, len(plan))
                        stack.callback(shm_out.dispose)
                        session.output = shm_out
                        out_spec = shm_out.spec()
            if kernel_blob is not None:
                payload, reason = build_process_payload(
                    kernel_blob, vals, plan,
                    input_spec=input_spec, out_spec=out_spec,
                )
            if payload is None:
                backend = downgrade(
                    "process", "thread", reason, events,
                    trace=trace, stage=label,
                )
            else:
                if session is None:
                    session = stack.enter_context(pool_session(width))
                run = run_process_chunks(
                    payload, plan, session=session, workers=width, todo=todo,
                    schedule=schedule, cancel=cancel, max_restarts=restarts,
                    hedge=hedge, observers=observers,
                    label=label, checkpoint=checkpoint, out_values=shm_out,
                )
        if run is None:
            run = _run_in_process(
                kernel, vals, plan, todo, width=width,
                threads=backend != "serial", schedule=schedule,
                journal=checkpoint, cancel=cancel, observers=observers,
            )
        if recovery is not None:
            recovery.extend(run.recovery)
        _assemble_process_run(
            run, plan, todo, results, ledger, cancel,
            trace=trace, stage=label,
        )
    return results


def parallel_for(
    values: Iterable[Any],
    body: Callable[[Any], Any],
    workers: int = 4,
    chunk_size: int = 1,
    schedule: str = "dynamic",
    sequential: bool = False,
    cancel: CancellationToken | None = None,
    policy: FaultPolicy | None = None,
    backend: str = "thread",
    chaos: ChaosInjector | None = None,
    ledger: list[ErrorRecord] | None = None,
    events: list[BackendEvent] | None = None,
    trace: TraceCollector | None = None,
    shared_writes: Sequence[str] = (),
    restarts: int = 0,
    hedge: float = 0.0,
    recovery: list[RecoveryEvent] | None = None,
    checkpoint: ChunkJournal | None = None,
    transport: str = "pickle",
    reuse: bool = False,
    metrics: MetricsRegistry | None = None,
    profiler: SamplingProfiler | None = None,
) -> list[Any]:
    """Apply ``body`` to every value; return results in input order.

    ``schedule="static"`` pre-assigns chunks round-robin to workers;
    ``"dynamic"`` lets workers pull the next chunk from a shared
    counter.  ``"guided"`` plans geometrically shrinking descriptors
    (``ChunkSize`` becomes the minimum chunk) claimed from the same
    counter.  ``"adaptive"`` is an alias of ``"guided"``: its in-run
    wave controller shed warm workers it then respawned every call, and
    the guided plan beat it about 2.2× on a skewed loop (see
    :mod:`repro.runtime.adaptive`).  ``sequential=True`` (the
    SequentialExecution parameter) or a ``backend="serial"`` runs the
    chunks in the calling thread — with every feature off, as a plain
    loop, so the transformed program is never slower than the original.

    ``chaos`` injects seeded faults, one stream per chunk on every
    backend; ``ledger`` collects every element-level
    :class:`~repro.runtime.faults.ErrorRecord`, in chunk order;
    ``events`` collects backend downgrade decisions.  ``trace`` records
    per-element spans (defaults to the active
    :func:`~repro.runtime.trace.trace_session`, if any).
    ``shared_writes`` names containers the body mutates in place; a
    non-empty value pins execution off the process backend — worker-side
    mutations of a pickled copy would be silently lost — via a recorded
    downgrade.

    Resilience (see :mod:`repro.runtime.backend`): ``restarts`` bounds
    process-pool worker respawns after a crash (``PoolRestarts@loop``),
    ``hedge`` in ``(0, 1]`` speculatively re-dispatches chunks above that
    latency quantile (``Hedge@loop``), ``recovery`` collects the run's
    :class:`~repro.runtime.backend.RecoveryEvent` history, and
    ``checkpoint`` is a :class:`~repro.runtime.checkpoint.ChunkJournal`:
    completed chunks are journaled as they are delivered (every backend)
    and a journal opened with ``ChunkJournal.resume`` skips its
    already-completed chunks.

    Data plane (process backend only): ``transport="shm"``
    (``Transport@loop``) places flat numeric inputs in the pool
    session's :mod:`multiprocessing.shared_memory` input arena, which it
    keeps across calls, and collects fixed-width results from a
    preallocated region instead of pickling data through the result
    queue; non-qualifying data downgrades to the pickle transport with a
    recorded :class:`BackendEvent`.  Every process call
    runs on a warm :class:`~repro.runtime.backend.PoolSession` that keeps
    its workers alive across calls, until they sit idle past
    :data:`~repro.runtime.backend.IDLE_BOUND`, and ships each distinct
    kernel once.  ``reuse`` is retired and ignored: it was the
    ``PoolReuse@loop`` knob, which chose between that warm session and a
    pool spawned and reaped per call.

    ``metrics`` is a :class:`~repro.runtime.metrics.MetricsRegistry`
    (``Metrics@loop``; defaults to the active
    :func:`~repro.runtime.metrics.metrics_session`, if any): chunk and
    element counters are added once per delivered chunk, on every
    backend, so counter totals are backend-independent.

    ``profiler`` is a :class:`~repro.runtime.profiler.SamplingProfiler`
    (``Profile@loop``; defaults to the active
    :func:`~repro.runtime.profiler.profile_session`, if any): one work
    window per chunk on every backend, folded stacks travel the chunk
    result road, and sample accounting inherits the same exactly-once
    dedup as metrics.
    """
    _validate(workers, chunk_size, schedule, restarts, hedge)
    normalize_transport(transport)
    effective = normalize_backend(backend)
    trace = resolve_collector(trace)
    metrics = resolve_registry(metrics)
    profiler = resolve_profiler(profiler)
    vals = list(values)
    if effective == "process" and shared_writes:
        effective = downgrade(
            "process",
            "thread",
            "body mutates shared container(s) in place: "
            + ", ".join(sorted(set(shared_writes))),
            events,
            trace=trace,
        )
    if sequential or workers <= 1:
        effective = "serial"
    return _engine(
        vals, body, label="loop", backend=effective, workers=workers,
        chunk_size=chunk_size, schedule=schedule, policy=policy,
        chaos=chaos, cancel=cancel, ledger=ledger, events=events,
        trace=trace, metrics=metrics, profiler=profiler,
        restarts=restarts, hedge=hedge, recovery=recovery,
        checkpoint=checkpoint, transport=transport,
    )


def parallel_reduce(
    values: Iterable[Any],
    body: Callable[[Any], Any],
    op: Callable[[Any, Any], Any],
    init: Any,
    workers: int = 4,
    chunk_size: int = 16,
    sequential: bool = False,
    cancel: CancellationToken | None = None,
    backend: str = "thread",
    events: list[BackendEvent] | None = None,
    trace: TraceCollector | None = None,
    restarts: int = 0,
    hedge: float = 0.0,
    recovery: list[RecoveryEvent] | None = None,
    checkpoint: ChunkJournal | None = None,
    transport: str = "pickle",
    reuse: bool = False,
    metrics: MetricsRegistry | None = None,
    profiler: SamplingProfiler | None = None,
) -> Any:
    """Map ``body`` over values and fold with the associative ``op``.

    A fold of ``init`` with the chunk partials: each chunk folds from its
    first element — ``init`` enters the fold exactly once, when the
    partials are combined — so a non-neutral ``init`` (e.g. ``10`` for a
    sum) is counted once, as in the sequential loop.  Partials are
    combined in chunk order, so even a merely-associative
    (non-commutative) ``op`` is safe — on every backend, the serial one
    included.  The grouping is not the sequential left fold's: for a
    float ``op`` the result can differ from
    ``op(...op(op(init, x0), x1)..., xn)`` in the last bits.

    Traced at chunk granularity (one ``execute`` span per folded chunk):
    per-element hooks would distort the tight fold loop.  A serial
    reduction with no ``cancel``, trace, metrics, profiler or checkpoint
    is a single chunk, since nothing would see its chunk boundaries.

    ``restarts`` / ``hedge`` / ``recovery`` mirror :func:`parallel_for`
    (process backend).  ``checkpoint`` journals each chunk's folded
    partial, on every backend, so a resumed reduction re-folds only
    unfinished chunks.

    ``transport`` and the retired ``reuse`` mirror :func:`parallel_for`
    too, with one asymmetry: a reduction's shared-memory road covers the
    *input* arena only.  Partials are single folded values shipped
    through the control queue regardless — there is exactly one per
    chunk, so a fixed-width output region would save nothing.
    """
    _validate(workers, chunk_size, "dynamic", restarts, hedge)
    normalize_transport(transport)
    effective = normalize_backend(backend)
    if sequential or workers <= 1:
        effective = "serial"
    vals = list(values)
    trace = resolve_collector(trace)
    metrics = resolve_registry(metrics)
    profiler = resolve_profiler(profiler)
    partials = _engine(
        vals, body, label="reduce", backend=effective, workers=workers,
        chunk_size=chunk_size, reduce_op=op, cancel=cancel, events=events,
        trace=trace, metrics=metrics, profiler=profiler, restarts=restarts,
        hedge=hedge, recovery=recovery, checkpoint=checkpoint,
        transport=transport,
    )
    acc = init
    for lo in sorted(partials):
        acc = op(acc, partials[lo])
    return acc


def configured_parallel_for(
    values: Iterable[Any],
    body: Callable[[Any], Any],
    config: dict[str, Any],
    cancel: CancellationToken | None = None,
    chaos: ChaosInjector | None = None,
    ledger: list[ErrorRecord] | None = None,
    events: list[BackendEvent] | None = None,
    trace: TraceCollector | None = None,
    shared_writes: Sequence[str] = (),
    recovery: list[RecoveryEvent] | None = None,
    checkpoint: ChunkJournal | None = None,
    metrics: MetricsRegistry | None = None,
    profiler: SamplingProfiler | None = None,
) -> list[Any]:
    """``parallel_for`` driven by a tuning configuration mapping.

    Fault-policy keys (``Retries@loop``, ``ItemTimeout@loop``,
    ``OnError@loop``), the execution substrate (``Backend@loop``) and
    observability (``Trace@loop``, ``Metrics@loop``, ``Profile@loop``)
    are honoured alongside the performance knobs, so generated DOALL
    code is supervisable — and movable between threads and processes,
    and traceable — without recompilation.  A ``Trace@loop``-created
    collector is retrievable afterwards via
    :func:`repro.runtime.trace.last_trace`; a ``Metrics@loop``-created
    registry via :func:`repro.runtime.metrics.last_metrics`; a
    ``Profile@loop``-created profiler via
    :func:`repro.runtime.profiler.last_profile`.
    """
    policy = None
    retries = int(config.get("Retries@loop", 0))
    item_timeout = float(config.get("ItemTimeout@loop", 0.0) or 0.0)
    on_error = str(config.get("OnError@loop", "fail_fast"))
    if retries or item_timeout or on_error != "fail_fast":
        policy = FaultPolicy(
            retries=retries,
            item_timeout=item_timeout or None,
            on_error="fallback" if on_error == "skip" else on_error,
        )
    return parallel_for(
        values,
        body,
        workers=int(config.get("NumWorkers@loop", 4)),
        chunk_size=int(config.get("ChunkSize@loop", 1)),
        schedule=str(config.get("Schedule@loop", "dynamic")),
        sequential=bool(config.get("SequentialExecution@loop", False)),
        cancel=cancel,
        policy=policy,
        backend=str(config.get("Backend@loop", "thread")),
        chaos=chaos,
        ledger=ledger,
        events=events,
        trace=resolve_collector(
            trace, enabled=bool(config.get("Trace@loop", False))
        ),
        metrics=resolve_registry(
            metrics, enabled=bool(config.get("Metrics@loop", False))
        ),
        profiler=resolve_profiler(
            profiler, enabled=bool(config.get("Profile@loop", False))
        ),
        shared_writes=shared_writes,
        restarts=int(config.get("PoolRestarts@loop", 0) or 0),
        hedge=float(config.get("Hedge@loop", 0.0) or 0.0),
        recovery=recovery,
        checkpoint=checkpoint,
        transport=str(config.get("Transport@loop", "pickle")),
    )
