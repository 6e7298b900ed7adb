"""The tunable stage-binding pipeline.

Implements the paper's pipeline target pattern with every PLTP tuning
parameter honoured at run time:

* ``StageReplication@<stage>`` — run the stage's work in parallel to
  itself on consecutive stream elements (hierarchical parallelism);
* ``OrderPreservation@<stage>`` — restore element order after a
  replicated stage with a reorder buffer;
* ``StageFusion@<a>/<b>`` — execute two adjacent stages in one thread,
  saving thread and buffer overhead when a stage is cheap;
* ``SequentialExecution@pipeline`` — run the whole pipeline in the calling
  thread ("never leads to a slowdown" on short streams), else on threads;
* ``BufferCapacity@pipeline`` — inter-stage buffer bound.

Supervision knobs ride along as tuning parameters, re-tunable without
recompilation exactly like the performance knobs:

* ``Retries@<stage>`` / ``ItemTimeout@<stage>`` / ``OnError@<stage>`` —
  the stage's :class:`~repro.runtime.faults.FaultPolicy`;
* ``StallTimeout@pipeline`` — the no-progress deadline: if no element
  crosses any buffer or finishes any stage for this long, the run is
  cancelled and a :class:`PipelineStallError` names the stuck stage and
  how many elements wait for each stage (in its input buffer or taken in
  a batch and not yet started).  The caller checks it in its own timed
  waits for output.  A hung pipeline becomes a diagnosable exception,
  never a hang.

Threads are bound to stages (the paper's design choice), elements flow
between them through bounded buffers carrying ``(sequence, value)``
pairs.  :meth:`Pipeline.run` already holds its whole input and returns
a list, so its first stage reads that list directly and its last
appends to one; :meth:`Pipeline.stream` keeps a buffer at both ends.
Every stage failure is recorded as an
:class:`~repro.runtime.faults.ErrorRecord` and aggregated into
:class:`PipelineError` / ``Pipeline.stats`` — the first error no longer
erases the rest.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from typing import Any, Iterable

from repro.runtime.buffer import BoundedBuffer, EndOfStream
from repro.runtime.faults import (
    NO_POLICY,
    ON_ERROR_MODES,
    BufferTimeout,
    CancellationToken,
    CancelledError,
    ErrorRecord,
    FaultPolicy,
    Outcome,
    StageCounters,
    _missed,
)
from repro.runtime.item import Item
from repro.runtime.masterworker import MasterWorker
from repro.runtime.metrics import (
    MetricsRegistry,
    count_outcome,
    resolve_registry,
)
from repro.runtime.profiler import SamplingProfiler, resolve_profiler
from repro.runtime.trace import TraceCollector, resolve_collector

Element = Item | MasterWorker

#: the implicit producer stage's name in diagnostics
STREAM_GENERATOR = "<stream-generator>"

#: sibling-pattern targets whose keys a shared tuning file may hold
_LOOP_TARGETS = ("loop", "workers")

#: observer knob -> (the ``Pipeline`` attribute holding the run's
#: observer, the observer's type, the resolver applying session and knob)
_OBSERVER_KNOBS = {
    "Trace": ("trace", TraceCollector, resolve_collector),
    "Metrics": ("metrics", MetricsRegistry, resolve_registry),
    "Profile": ("profile", SamplingProfiler, resolve_profiler),
}

#: the other knobs of the whole pipeline, applied at ``@pipeline`` only
_PIPELINE_KNOBS = ("SequentialExecution", "BufferCapacity", "StallTimeout")


class PipelineError(RuntimeError):
    """One or more stages failed; carries the full error report.

    ``records`` holds every ``(stage, element_seq, exception)`` triple the
    run accumulated (not just the first), ``stats`` the run's delivery and
    retry/skip accounting.
    """

    def __init__(
        self,
        message: str,
        records: list[ErrorRecord] | None = None,
        stats: dict[str, Any] | None = None,
    ) -> None:
        super().__init__(message)
        self.records: list[ErrorRecord] = list(records or [])
        self.stats: dict[str, Any] = dict(stats or {})


class PipelineStallError(PipelineError):
    """The stall check saw no progress for ``stall_timeout`` seconds.

    Names the stuck stage and — when the run was traced — each stage's
    recent span history and time since last progress, so the diagnosis
    shows what every stage was *doing* before the wedge, not just the
    final buffer occupancies.
    """

    def __init__(
        self,
        stage: str,
        occupancy: list[int],
        stall_timeout: float,
        records: list[ErrorRecord] | None = None,
        stats: dict[str, Any] | None = None,
        history: dict[str, list[dict[str, Any]]] | None = None,
        last_progress: dict[str, float] | None = None,
    ) -> None:
        detail = f"buffer occupancies {occupancy}"
        if history:
            parts = []
            stuck = history.get(stage) or []
            if stuck:
                span = stuck[-1]
                parts.append(
                    f"last span of {stage!r}: {span['kind']} "
                    f"element {span['seq']}"
                )
            if last_progress:
                idle = ", ".join(
                    f"{name} {dt:.3f}s ago"
                    for name, dt in sorted(last_progress.items())
                )
                parts.append(f"last progress per stage: {idle}")
            if parts:
                detail = "; ".join(parts)
        super().__init__(
            f"pipeline stalled at stage {stage!r}: no element crossed any "
            f"buffer for {stall_timeout:.3f}s ({detail})",
            records=records,
            stats=stats,
        )
        self.stage = stage
        self.occupancy = occupancy
        self.history = dict(history or {})
        self.last_progress = dict(last_progress or {})


class _Reorderer:
    """Releases (seq, value) pairs to the output buffer in sequence order.

    Skipped sequence numbers (poison elements under ``OnError=skip``) must
    be handed in as ``(seq, SKIPPED)``, or the reorderer would wait for
    them forever.
    """

    SKIPPED = object()

    def __init__(
        self,
        out: BoundedBuffer | _ListSink,
        cancel: CancellationToken | None = None,
    ) -> None:
        self.out = out
        self.cancel = cancel
        self.expected = 0
        self.pending: dict[int, Any] = {}
        self.lock = threading.Lock()

    def put_batch(self, pairs: list[tuple[int, Any]]) -> None:
        """Accept one replica's outputs and release the in-order run they
        complete with one ``put_batch``; holding the lock across it keeps
        runs released by sibling replicas from interleaving."""
        with self.lock:
            self.pending.update(pairs)
            ready = []
            while self.expected in self.pending:
                value = self.pending.pop(self.expected)
                if value is not self.SKIPPED:
                    ready.append((self.expected, value))
                self.expected += 1
            self.out.put_batch(ready, cancel=self.cancel)

    def flush(self) -> None:
        with self.lock:
            rest = sorted(self.pending.items())
            self.pending.clear()
            self.out.put_batch(
                [(seq, v) for seq, v in rest if v is not self.SKIPPED],
                cancel=self.cancel,
            )


class _ListSource:
    """Stage 0's input under :meth:`Pipeline.run`: ``(seq, value)``
    batches taken straight from the run's input list.

    A get hands out the batch a full buffer would give, a ``share`` of
    ``min(left, capacity)``, and every replica that finds the list
    exhausted gets the end marker.  It never waits.  ``transfers`` and
    ``max_occupancy`` read as a :class:`BoundedBuffer`'s do: elements
    handed out, and the most a full buffer would have held.
    """

    def __init__(
        self, values: list[Any], capacity: int, eos: EndOfStream
    ) -> None:
        self._values = values
        self._eos = eos
        self._next = 0
        self._lock = threading.Lock()
        self.capacity = capacity
        self.max_occupancy = 0
        self.transfers = 0

    def get_batch(
        self, share: int = 1, cancel: CancellationToken | None = None
    ) -> list[Any]:
        with self._lock:
            lo = self._next
            ready = min(len(self._values) - lo, self.capacity)
            if not ready:
                return [self._eos]
            hi = self._next = lo + -(-ready // share)
            self.max_occupancy = max(self.max_occupancy, ready)
            self.transfers += hi - lo
        return list(zip(range(lo, hi), self._values[lo:hi]))

    def __len__(self) -> int:
        return len(self._values) - self._next


class _ListSink:
    """The last stage's output under :meth:`Pipeline.run`: a list that
    the caller reads once, when the end marker arrives or the run's
    token fires.  ``max_occupancy`` is the largest batch put at once."""

    def __init__(self) -> None:
        self.items: list[tuple[int, Any]] = []
        self._cond = threading.Condition()
        self._ended = False
        self.max_occupancy = 0
        self.transfers = 0

    def put_batch(
        self, items: list[Any], cancel: CancellationToken | None = None
    ) -> None:
        with self._cond:
            self.items.extend(items)
            self.transfers += len(items)
            self.max_occupancy = max(self.max_occupancy, len(items))

    def put(
        self, eos: EndOfStream, cancel: CancellationToken | None = None
    ) -> None:
        """Take the end marker and wake the caller."""
        with self._cond:
            self._ended = True
            self._cond.notify()

    def wait(
        self, cancel: CancellationToken, timeout: float | None = None
    ) -> bool:
        """Block until the end marker arrives or ``cancel`` fires; False
        when ``timeout`` seconds pass first."""
        with self._cond:
            if self._ended:
                return True
            cancel.register(self._cond)
            try:
                return self._cond.wait_for(
                    lambda: self._ended or cancel.cancelled, timeout
                )
            finally:
                cancel.unregister(self._cond)

    def __len__(self) -> int:
        return len(self.items)


def _deadline(el: Element) -> float | None:
    """The stage's ``ItemTimeout``, which its first attempts read."""
    return (el.fault_policy or NO_POLICY).item_timeout


class _Ledger:
    """One run's per-stage counters and error records, shared by both
    roads and every stage thread.

    An element that succeeds at its first attempt is counted in bulk
    (:meth:`delivered`); every other element goes through
    :meth:`settle`, the one copy of the failure handling.
    """

    def __init__(
        self, elements: list[Element], metrics: MetricsRegistry | None
    ) -> None:
        self.counters = {el.name: StageCounters() for el in elements}
        self.records: list[ErrorRecord] = []
        self.metrics = metrics
        self._lock = threading.Lock()

    def record(
        self, stage: str, seq: int, exc: BaseException, attempts: int = 1
    ) -> None:
        with self._lock:
            self.records.append(ErrorRecord(stage, seq, exc, attempts))

    def delivered(self, stage: str, n: int) -> None:
        """Count ``n`` elements the stage delivered at their first attempt."""
        if n:
            self.counters[stage].add_delivered(n)
            if self.metrics is not None:
                self.metrics.inc("elements_delivered", n, stage=stage)

    def settle(
        self,
        el: Element,
        value: Any,
        exc: BaseException,
        started: float,
        seq: int,
        trace: TraceCollector | None,
        cancel: CancellationToken | None = None,
    ) -> Outcome:
        """What becomes of an element whose first attempt raised ``exc``,
        as the stage policy's :meth:`~FaultPolicy._recover` decides
        (:data:`NO_POLICY` without one), counted and recorded; the run's
        own cancellation propagates from there."""
        outcome = (el.fault_policy or NO_POLICY)._recover(
            el.apply, value, exc, started, cancel, trace, el.name, seq,
            self.metrics,
        )
        self.counters[el.name].account(outcome)
        if self.metrics is not None:
            count_outcome(
                self.metrics, el.name, outcome.action, outcome.retried
            )
        if outcome.error is not None:
            self.record(el.name, seq, outcome.error, outcome.attempts)
        return outcome


class Pipeline:
    """A pipeline over :class:`Item` / :class:`MasterWorker` elements.

    Mirrors the paper's generated code::

        p = Pipeline(mw, p4, p5)
        p.input = avi_in.images
        p.run()
        return p.output
    """

    def __init__(
        self,
        *elements: Element,
        buffer_capacity: int = 8,
        sequential: bool = False,
        stall_timeout: float | None = 30.0,
        name: str = "pipeline",
        trace: TraceCollector | bool | None = None,
        metrics: MetricsRegistry | bool | None = None,
        profile: SamplingProfiler | bool | None = None,
    ) -> None:
        if not elements:
            raise ValueError("a pipeline needs at least one element")
        self.elements: list[Element] = list(elements)
        self.buffer_capacity = buffer_capacity
        self.sequential = sequential
        self.stall_timeout = stall_timeout
        self.name = name
        self.input: Iterable[Any] | None = None
        self.output: list[Any] = []
        self._fusions: set[str] = set()
        self.stats: dict[str, Any] = {}
        #: per observer attribute: an observer, True (build one per
        #: run), or None (session/off); also settable through the
        #: ``Trace@pipeline``/``Metrics@pipeline``/``Profile@pipeline``
        #: tuning parameters
        self._requests: dict[str, Any] = {
            "trace": trace, "metrics": metrics, "profile": profile,
        }
        #: the observers of the most recent run (None when that kind is off)
        self.trace: TraceCollector | None = None
        self.metrics: MetricsRegistry | None = None
        self.profile: SamplingProfiler | None = None
        self._injector: Any = None

    # ------------------------------------------------------------------
    # tuning
    # ------------------------------------------------------------------
    def element(self, name: str) -> Element:
        for el in self.elements:
            if el.name == name:
                return el
        raise KeyError(name)

    def _resolve(self, name: str) -> tuple[Element, MasterWorker | None]:
        """Find a stage by name, descending into master/worker groups.

        Returns (element, enclosing_group).  Mirrors the paper's
        ``mw.Item(p3)`` addressing of grouped items.
        """
        for el in self.elements:
            if el.name == name:
                return el, None
            if isinstance(el, MasterWorker):
                for member in el.items:
                    if member.name == name:
                        return member, el
        raise KeyError(name)

    def _policy_for(self, target: str) -> FaultPolicy | None:
        """The (created-on-demand) fault policy of a stage, or None when
        the target belongs to a sibling pattern in a shared tuning file."""
        try:
            el, _ = self._resolve(target)
        except KeyError:
            if target in _LOOP_TARGETS:
                return None
            raise
        if el.fault_policy is None:
            el.fault_policy = FaultPolicy()
        return el.fault_policy

    def configure(self, config: dict[str, Any]) -> None:
        """Apply a tuning configuration ({'StageReplication@B': 2, ...}).

        Unknown stage names raise; unknown parameter names raise — a typo in
        a tuning file must not be silently ignored.  A pipeline-wide knob
        applies at ``@pipeline``, is skipped at a sibling pattern's
        ``@loop``/``@workers``, and raises at any other target.
        """
        for key, value in config.items():
            if "@" not in key:
                raise KeyError(f"malformed tuning key {key!r}")
            pname, target = key.split("@", 1)
            if pname == "StageReplication":
                el, group = self._resolve(target)
                if group is None:
                    el.replication = int(value)
                else:
                    # replicating a grouped item widens the whole group
                    # stage (the group applies every member per element)
                    el.replication = int(value)
                    if not group.replicable and int(value) > 1:
                        raise ValueError(
                            f"group {group.name!r} holding stage {target!r} "
                            "is not replicable"
                        )
                    group.replication = max(
                        getattr(m, "replication", 1) for m in group.items
                    )
            elif pname == "OrderPreservation":
                el, group = self._resolve(target)
                (group or el).order_preservation = bool(value)
            elif pname == "StageFusion":
                if "/" not in target:
                    raise KeyError(f"StageFusion target must be 'a/b': {key!r}")
                if value:
                    self._fusions.add(target)
                else:
                    self._fusions.discard(target)
            elif pname == "Retries":
                policy = self._policy_for(target)
                if policy is not None:
                    policy.retries = int(value)
            elif pname == "ItemTimeout":
                policy = self._policy_for(target)
                if policy is not None:
                    policy.item_timeout = float(value) or None
            elif pname == "OnError":
                policy = self._policy_for(target)
                if policy is not None:
                    if value not in ON_ERROR_MODES:
                        raise ValueError(f"invalid OnError value {value!r}")
                    policy.on_error = str(value)
            elif pname in _PIPELINE_KNOBS or pname in _OBSERVER_KNOBS:
                if target in _LOOP_TARGETS:
                    continue  # a sibling pattern's knob; tolerated
                if target != "pipeline":
                    raise KeyError(
                        f"{pname} targets the whole pipeline "
                        f"('{pname}@pipeline'), got {key!r}"
                    )
                if pname == "SequentialExecution":
                    self.sequential = bool(value)
                elif pname == "BufferCapacity":
                    self.buffer_capacity = int(value)
                elif pname == "StallTimeout":
                    self.stall_timeout = float(value) or None
                else:
                    self._requests[_OBSERVER_KNOBS[pname][0]] = bool(value)
            elif pname in ("NumWorkers", "ChunkSize", "Schedule") or (
                pname == "Backend" and target in _LOOP_TARGETS
            ):
                continue  # parameters of sibling patterns; tolerated in shared files
            else:
                raise KeyError(f"unknown tuning parameter {key!r}")

    def inject(self, injector: Any) -> None:
        """Wrap every stage with a chaos injector (fault-injection runs)."""
        self._injector = injector
        for el in self.elements:
            injector.wrap_item(el)

    def _resolve_observers(
        self,
    ) -> tuple[TraceCollector | None, MetricsRegistry | None,
               SamplingProfiler | None]:
        """This run's ``(trace, metrics, profiler)``; None = that kind off.

        Each is the requested observer, else the kind's active session,
        else a fresh one when its knob is on.  A chaos injector fires
        into the run's trace and metrics.
        """
        for attr, kind, resolve in _OBSERVER_KNOBS.values():
            request = self._requests[attr]
            setattr(self, attr, resolve(
                request if isinstance(request, kind) else None,
                enabled=request is True,
            ))
        if self._injector is not None:
            if self.trace is not None:
                self._injector.trace = self.trace
            if self.metrics is not None:
                self._injector.metrics = self.metrics
        return self.trace, self.metrics, self.profile

    def _effective_elements(self) -> list[Element]:
        """Apply StageFusion pairs, which name the original stages: True
        pairs ``a/b`` and ``b/c`` fuse adjacent items into ``a+b+c``.

        A pair fuses only when neither stage's fault policy differs from
        :data:`NO_POLICY`: the fused stage has no policy of its own, so
        fusing a stage with retries or a skip would change what a fault
        does.  A generated tuning file's default ``Retries 0 / ItemTimeout
        0 / OnError fail_fast`` builds exactly that policy."""
        elements: list[Element] = []
        previous: Element | None = None
        for el in self.elements:
            if (
                isinstance(previous, Item) and isinstance(el, Item)
                and f"{previous.name}/{el.name}" in self._fusions
                and (previous.fault_policy or NO_POLICY) == NO_POLICY
                and (el.fault_policy or NO_POLICY) == NO_POLICY
            ):
                elements[-1] = elements[-1].fused_with(el)
            else:
                elements.append(el)
            previous = el
        return elements

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, input: Iterable[Any] | None = None) -> list[Any]:
        """Execute the pipeline over ``input`` (or ``self.input``).

        The input is read into a list before any stage runs, so an input
        that raises propagates as itself; :meth:`stream` records it as a
        ``<stream-generator>`` failure instead.
        """
        if input is not None:
            self.input = input
        if self.input is None:
            raise ValueError("pipeline has no input stream")
        values = list(self.input)

        elements = self._effective_elements()
        if self.sequential:
            self.output = list(self._run_sequential(iter(values), elements))
            return self.output
        self.output = list(self._stream_threaded(values, elements))
        return self.output

    def stream(self, input: Iterable[Any] | None = None):
        """Lazy execution over a possibly unbounded stream.

        The input iterable is consumed on demand (backpressure comes from
        the bounded buffers) and results are yielded as the final stage
        delivers them — the truly continuous data flow of the paper's
        pipeline characterization.  ``SequentialExecution`` degrades to a
        plain generator loop.  On both roads an input that raises fails
        the run with a ``<stream-generator>`` record.

        The stall check runs while the caller waits for an output, never
        while the consumer holds one.  A held iterator keeps the stages
        parked on backpressure until it is resumed or dropped, as any
        bounded producer does; closing or dropping it cancels the run as
        "stream abandoned".
        """
        if input is not None:
            self.input = input
        if self.input is None:
            raise ValueError("pipeline has no input stream")
        elements = self._effective_elements()
        if self.sequential:
            return self._run_sequential(iter(self.input), elements)
        return self._stream_threaded(iter(self.input), elements)

    def _run_sequential(self, values, elements: list[Element]):
        """One-thread execution with the same fault-policy contract as the
        threaded path (a policy must not change meaning under
        ``SequentialExecution``).

        Each first attempt runs inline, as in a stage thread, and only a
        failed one reaches the ledger.  The first-attempt deliveries of
        each stage follow once per run from the elements that entered
        it and those the ledger settled there.
        """
        trace, metrics, profiler = self._resolve_observers()
        ledger = _Ledger(elements, metrics)
        stages = [
            (k, el.name, el.apply, _deadline(el))
            for k, el in enumerate(elements)
        ]
        clocked = trace is not None or any(s[3] for s in stages)
        clock = time.monotonic
        # per stage: elements the ledger settled there, and those whose
        # journey ended there (skipped or failed)
        settled = [0] * len(elements)
        stopped = [0] * len(elements)
        generated = 0

        def finish() -> None:
            entering = generated
            for k, el in enumerate(elements):
                ledger.delivered(el.name, entering - settled[k])
                entering -= stopped[k]
            self._set_stats(
                elements, None, ledger, generated, generated - sum(stopped),
                None, None, [], executed="serial",
            )

        next_value = values.__next__
        while True:
            try:
                v = next_value()
            except StopIteration:
                break
            except Exception as exc:
                # an interrupt or exit raised in the caller's thread
                # propagates as itself
                ledger.record(STREAM_GENERATOR, generated, exc)
                finish()
                raise self._failure(ledger.records)
            seq = generated
            generated += 1
            for k, name, fn, deadline in stages:
                if profiler is not None:
                    window = profiler.work(name, seq)
                    window.__enter__()
                outcome = None
                try:
                    if clocked:
                        started = clock()
                        result = fn(v)
                        ended = clock()
                        if deadline and ended - started > deadline:
                            raise _missed(ended - started, deadline)
                        if trace is not None:
                            trace.record(
                                "execute", name, seq, started, ended, 1
                            )
                    else:
                        result = fn(v)
                except BaseException as exc:
                    outcome = ledger.settle(
                        elements[k], v, exc, started if clocked else 0.0,
                        seq, trace,
                    )
                finally:
                    if profiler is not None:
                        window.__exit__(None, None, None)
                if outcome is not None:
                    settled[k] += 1
                    if outcome.action in ("failed", "skipped"):
                        stopped[k] += 1
                        if outcome.action == "failed":
                            finish()
                            raise self._failure(ledger.records)
                        break
                    result = outcome.value
                v = result
            else:
                yield v
        finish()

    # ------------------------------------------------------------------
    # threaded execution
    # ------------------------------------------------------------------
    def _set_stats(
        self,
        elements: list[Element],
        buffers: list[Any] | None,
        ledger: _Ledger,
        generated: int,
        delivered: int,
        cancelled: str | None,
        stall: tuple[str, list[int]] | None,
        leaked: list[str],
        executed: str = "thread",
    ) -> None:
        counters = ledger.counters
        self.stats = {
            "backend": executed,
            "stages": [el.name for el in elements],
            "buffer_high_water": (
                [b.max_occupancy for b in buffers] if buffers else []
            ),
            "counters": {name: c.as_dict() for name, c in counters.items()},
            "errors": [
                (r.stage, r.seq, repr(r.error)) for r in ledger.records
            ],
            "generated": generated,
            "delivered": delivered,
            "skipped": sum(c.skipped for c in counters.values()),
            "retried": sum(c.retried for c in counters.values()),
            "fallbacks": sum(c.fallbacks for c in counters.values()),
            "cancelled": cancelled,
            "stall": (
                {"stage": stall[0], "occupancy": stall[1]} if stall else None
            ),
            "leaked_threads": leaked,
        }
        if self.metrics is not None:
            self.stats["metrics"] = self.metrics.snapshot()
        if self.profile is not None:
            self.stats["profile"] = self.profile.summary()
        if self.trace is not None:
            self.stats["trace"] = self.trace.summary()
            if stall:
                # the span history replaces the bare occupancy snapshot as
                # the stall diagnosis (what was each stage doing, and when
                # did it last make progress?)
                self.stats["stall"]["history"] = self.trace.last(5)
                self.stats["stall"]["last_progress"] = (
                    self.trace.last_progress()
                )

    def _failure(self, records: list[ErrorRecord]) -> PipelineError:
        """The error a failed run raises, once its stats are set."""
        first = records[0]
        more = f" (+{len(records) - 1} more error(s))" if len(records) > 1 else ""
        return PipelineError(
            f"stage {first.stage!r} failed: {first.error!r}{more}",
            records=records,
            stats=self.stats,
        )

    def _stream_threaded(self, values, elements: list[Element]):
        """One thread per stage replica, joined by bounded buffers.

        ``values`` is :meth:`run`'s whole input as a list, or
        :meth:`stream`'s iterator.  A list needs neither end of the
        chain to be a buffer: stage 0 takes its batches through a
        :class:`_ListSource` and the last stage appends to a
        :class:`_ListSink` that wakes the caller once.  An iterator is
        fed to stage 0 by the stream generator thread through a bounded
        buffer, and the caller drains a final bounded buffer as outputs
        arrive.
        """
        trace, metrics, profiler = self._resolve_observers()
        eos = EndOfStream()
        n = len(elements)
        capacity = self.buffer_capacity
        source: _ListSource | None = None
        sink: _ListSink | None = None
        if isinstance(values, list):
            source = _ListSource(values, capacity, eos)
            sink = _ListSink()
        buffers: list[Any] = [
            source if source is not None else BoundedBuffer(capacity),
            *(BoundedBuffer(capacity) for _ in range(n - 1)),
            sink if sink is not None else BoundedBuffer(capacity),
        ]
        token = CancellationToken()
        ledger = _Ledger(elements, metrics)
        generated = [len(values) if source is not None else 0]
        failed = [False]  # a fail_fast failure triggered the cancellation
        stall: list[tuple[str, list[int]] | None] = [None]
        threads: list[threading.Thread] = []

        if source is None:
            # implicit first stage: the StreamGenerator (PLPL); consumes
            # the input lazily — the bounded buffer provides backpressure
            def generator() -> None:
                try:
                    for seq, v in enumerate(values):
                        buffers[0].put((seq, v), cancel=token)
                        generated[0] += 1
                except BaseException as exc:
                    if token.cancelled and isinstance(exc, CancelledError):
                        # the run's token fired; the input's own
                        # CancelledError is a failure like any other
                        if trace is not None:
                            trace.instant(
                                "cancel", STREAM_GENERATOR, -1,
                                reason=token.reason or "cancelled",
                            )
                        return
                    ledger.record(STREAM_GENERATOR, generated[0], exc)
                    failed[0] = True
                    token.cancel(f"stage {STREAM_GENERATOR} failed: {exc!r}")
                    return
                try:
                    buffers[0].put(eos, cancel=token)
                except CancelledError:
                    pass

            threads.append(
                threading.Thread(
                    target=generator, name=f"{self.name}-gen", daemon=True
                )
            )

        # per stage replica: the elements it has taken in a batch but not
        # yet started (still queued for the stage, though no longer in its
        # buffer), and the seq it is running (None between elements, so
        # the stall diagnosis sees which stage is mid-element).  Each
        # replica writes only its own slots, so neither needs a lock.
        held = [[0] * getattr(el, "replication", 1) for el in elements]
        running: list[list[int | None]] = [
            [None] * getattr(el, "replication", 1) for el in elements
        ]

        def queued(i: int) -> int:
            return len(buffers[i]) + sum(held[i])

        # a stage forwards the outputs it has finished once they have
        # waited this long: tiny GIL-bound bodies still hand off a whole
        # batch at once, while a slow or GIL-releasing body hands off each
        # element as it finishes, keeping the stages overlapped
        flush_after = sys.getswitchinterval()
        observed = not (trace is None and metrics is None and profiler is None)

        for i, el in enumerate(elements):
            replication = getattr(el, "replication", 1)
            inbuf, outbuf = buffers[i], buffers[i + 1]
            ordered = replication > 1 and getattr(el, "order_preservation", True)
            reorder = _Reorderer(outbuf, cancel=token) if ordered else None
            remaining = [replication]
            stage_lock = threading.Lock()

            def stage_worker(
                slot: int,
                el: Element = el,
                i: int = i,
                inbuf: Any = inbuf,
                outbuf: Any = outbuf,
                reorder: _Reorderer | None = reorder,
                remaining: list[int] = remaining,
                stage_lock: threading.Lock = stage_lock,
                share: int = replication,
            ) -> None:
                name = el.name
                fn = el.apply
                deadline = _deadline(el)
                clocked = trace is not None or bool(deadline)
                clock = time.monotonic
                mine = held[i]
                busy = running[i]
                if reorder is not None:
                    put = reorder.put_batch
                else:
                    put = functools.partial(outbuf.put_batch, cancel=token)
                outputs: list[tuple[int, Any]] = []
                settled = 0  # entries of outputs the ledger has counted

                def forward() -> None:
                    # first-attempt deliveries are counted once per forward
                    nonlocal outputs, settled
                    ready, outputs = outputs, []
                    ledger.delivered(name, len(ready) - settled)
                    settled = 0
                    if ready:
                        put(ready)

                try:
                    while True:
                        wait_start = clock() if trace is not None else 0.0
                        # one hop moves what is queued (this replica's
                        # share of it); each element still runs, is
                        # observed and fails on its own
                        batch = inbuf.get_batch(share, cancel=token)
                        since = clock()
                        left = len(batch)
                        for item in batch:
                            left -= 1
                            mine[slot] = left
                            if item is eos:
                                # upstream puts the marker after all of its
                                # outputs, so it ends the batch
                                forward()
                                with stage_lock:
                                    remaining[0] -= 1
                                    last = remaining[0] == 0
                                if last:
                                    if reorder is not None:
                                        reorder.flush()
                                    outbuf.put(eos, cancel=token)
                                elif inbuf is not source:
                                    # hand to a sibling; the source hands
                                    # every replica its own
                                    inbuf.put(eos, cancel=token)
                                return
                            seq, value = item
                            if token.cancelled:
                                token.raise_if_cancelled()
                            if observed:
                                if trace is not None:
                                    trace.record(
                                        "queue_wait", name, seq, wait_start
                                    )
                                if metrics is not None:
                                    # live queue-depth / in-flight gauges:
                                    # what the dashboard renders as
                                    # utilization
                                    metrics.gauge(
                                        "stage_queue_depth", stage=name
                                    ).set(queued(i))
                                    metrics.gauge(
                                        "items_in_flight", stage=name
                                    ).inc()
                                if profiler is not None:
                                    window = profiler.work(name, seq)
                                    window.__enter__()
                            busy[slot] = seq
                            outcome = None
                            try:
                                if clocked:
                                    started = clock()
                                    result = fn(value)
                                    ended = clock()
                                    took = ended - started
                                    if deadline and took > deadline:
                                        raise _missed(took, deadline)
                                    if trace is not None:
                                        trace.record(
                                            "execute", name, seq, started,
                                            ended, 1,
                                        )
                                else:
                                    result = fn(value)
                            except BaseException as exc:
                                outcome = ledger.settle(
                                    el, value, exc,
                                    started if clocked else 0.0, seq, trace,
                                    token,
                                )
                            finally:
                                busy[slot] = None
                                if observed:
                                    if metrics is not None:
                                        metrics.gauge(
                                            "items_in_flight", stage=name
                                        ).dec()
                                    if profiler is not None:
                                        window.__exit__(None, None, None)
                            if outcome is None:
                                outputs.append((seq, result))
                            elif outcome.action == "failed":
                                failed[0] = True
                                try:
                                    # what finished before the failure
                                    # still reaches the next stage
                                    forward()
                                finally:
                                    token.cancel(
                                        f"stage {name!r} failed: "
                                        f"{outcome.error!r}"
                                    )
                                return
                            elif outcome.action != "skipped":
                                outputs.append((seq, outcome.value))
                                settled += 1
                            elif reorder is not None:
                                outputs.append((seq, _Reorderer.SKIPPED))
                                settled += 1
                            if outputs and clock() - since >= flush_after:
                                forward()
                                since = clock()
                            if trace is not None:
                                wait_start = clock()
                        forward()
                except CancelledError:
                    # what this replica finished still counts as delivered
                    # by the stage, though it never reached the next one
                    ledger.delivered(name, len(outputs) - settled)
                    if trace is not None:
                        trace.instant(
                            "cancel", name, -1,
                            reason=token.reason or "cancelled",
                        )
                    return

            for r in range(replication):
                threads.append(
                    threading.Thread(
                        target=functools.partial(stage_worker, r),
                        name=f"{self.name}-{el.name}-{r}",
                        daemon=True,
                    )
                )

        # the no-progress check, run by the caller each time its wait for
        # output times out: if no element crosses any buffer or finishes
        # any stage for stall_timeout seconds while work remains, cancel
        # the run and diagnose the stuck stage
        stall_timeout = float(self.stall_timeout or 0.0)
        poll = max(0.01, stall_timeout / 4.0) if stall_timeout else None
        progress = [-1, time.monotonic()]  # last signal, and since when

        def diagnose() -> tuple[str, list[int]]:
            occupancy = [queued(k) for k in range(n)] + [len(buffers[n])]
            busy = [
                el.name
                for el, slots in zip(elements, running)
                if any(seq is not None for seq in slots)
            ]
            if busy:
                return min(busy), occupancy
            # no element mid-apply: the fullest input buffer feeds the
            # stage that is not draining it
            if any(occupancy):
                i = max(range(len(elements)), key=lambda k: occupancy[k])
                return elements[i].name, occupancy
            return STREAM_GENERATOR, occupancy

        def check() -> None:
            # a stage working through a batch crosses no buffer until it
            # forwards, so the elements each stage has finished count as
            # progress as well; first-attempt deliveries are counted per
            # forward, which the switch-interval flush makes at least once
            # per slow element
            current = sum(b.transfers for b in buffers) + sum(
                c.delivered + c.skipped + c.failed
                for c in ledger.counters.values()
            )
            now = time.monotonic()
            if current != progress[0]:
                progress[:] = current, now
            elif now - progress[1] >= stall_timeout:
                stall[0] = diagnose()
                token.cancel(f"pipeline stalled at stage {stall[0][0]!r}")

        # nested master/worker groups stop claiming tasks on cancel; each
        # gets its own token back when the run ends
        groups = {
            el: el.cancel for el in elements if isinstance(el, MasterWorker)
        }
        for group in groups:
            group.cancel = token
        for t in threads:
            t.start()

        delivered = 0
        loop_ended = False
        try:
            if sink is not None:
                while not sink.wait(token, poll):
                    check()
                delivered = len(sink.items)
                for _seq, value in sink.items:
                    yield value
            else:
                # the caller consumes the final buffer; values are yielded
                # as they arrive (seq order when every replicated stage
                # preserves order, arrival order otherwise — the
                # OrderPreservation=False contract)
                final = buffers[n]
                while True:
                    try:
                        batch = final.get_batch(cancel=token, timeout=poll)
                    except BufferTimeout:
                        check()
                        continue
                    except CancelledError:
                        break
                    for item in batch:
                        if item is eos:
                            break
                        delivered += 1
                        yield item[1]
                    if batch[-1] is eos:
                        break
                    # a consumer holding outputs is no stall: restart the clock
                    progress[1] = time.monotonic()
            loop_ended = True
        finally:
            if not loop_ended and not token.cancelled:
                # the consumer abandoned the stream: cancel so every
                # blocked stage unwinds before we join
                token.cancel("stream abandoned")
            # a cancelled run may hold a thread wedged inside user code —
            # join with a bound and report the leak instead of hanging
            join_timeout = 0.25 if token.cancelled else None
            for t in threads:
                t.join(join_timeout)
            leaked = [t.name for t in threads if t.is_alive()]
            for group, previous in groups.items():
                group.cancel = previous
            if metrics is not None:
                # settle the gauges to the final buffer state so the
                # closing snapshot reflects the drained (or wedged) run
                for i, el in enumerate(elements):
                    metrics.gauge(
                        "stage_queue_depth", stage=el.name
                    ).set(queued(i))
            self._set_stats(
                elements, buffers, ledger, generated[0], delivered,
                token.reason if token.cancelled else None, stall[0], leaked,
            )
            if loop_ended:
                if stall[0] is not None:
                    stage, occupancy = stall[0]
                    raise PipelineStallError(
                        stage,
                        occupancy,
                        stall_timeout,
                        records=ledger.records,
                        stats=self.stats,
                        history=trace.last(5) if trace is not None else None,
                        last_progress=(
                            trace.last_progress()
                            if trace is not None
                            else None
                        ),
                    )
                if failed[0]:
                    raise self._failure(ledger.records)
