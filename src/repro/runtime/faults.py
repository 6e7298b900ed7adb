"""Supervision primitives for the parallel runtime.

The paper treats correctness validation as a first-class phase (generated
parallel unit tests plus interleaving exploration, section 2.1), but the
runtime its generated code instantiates was fail-fast only: the first
stage error won, a wedged stage blocked forever, and there was no
retry/timeout/cancellation story.  This module supplies the missing
contract pieces, kept dependency-free so every runtime module can import
them:

* :class:`CancellationToken` — a shared, race-free "stop now" signal that
  wakes threads blocked on registered condition variables;
* :class:`FaultPolicy` — per stage / per worker / per loop body fault
  handling: bounded retries with deterministic seeded exponential
  backoff, a per-element deadline (``item_timeout``), and an ``on_error``
  mode of ``fail_fast`` / ``skip`` / ``fallback``.  The knobs are
  addressable as tuning parameters (``Retries@<stage>`` etc.) so they
  flow through tuning files exactly like the paper's performance knobs;
* :class:`ErrorRecord` / :class:`StageCounters` — the aggregation layer
  replacing first-error-only reporting: every ``(stage, element_seq,
  exception)`` triple survives, alongside delivered/retried/skipped
  accounting.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable

#: the three supported poison-element dispositions
ON_ERROR_MODES = ("fail_fast", "skip", "fallback")


class CancelledError(RuntimeError):
    """A supervised operation was cancelled (token fired)."""


class BufferTimeout(RuntimeError):
    """A bounded-buffer ``put``/``get`` exceeded its deadline."""


class ItemTimeoutError(RuntimeError):
    """A stage exceeded its per-element deadline (``ItemTimeout``)."""


class CancellationToken:
    """A one-shot cancellation signal shared by a group of threads.

    The first :meth:`cancel` wins and records its reason; later calls are
    no-ops.  Condition variables registered via :meth:`register` are
    notified on cancellation, so threads blocked in
    :class:`~repro.runtime.buffer.BoundedBuffer` waits wake immediately
    instead of polling.
    """

    def __init__(self) -> None:
        self._event = threading.Event()
        self._reason: str | None = None
        self._lock = threading.Lock()
        self._conditions: list[threading.Condition] = []

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    @property
    def reason(self) -> str | None:
        return self._reason

    def cancel(self, reason: str = "cancelled") -> bool:
        """Fire the token; returns True if this call was the first."""
        with self._lock:
            if self._event.is_set():
                return False
            self._reason = reason
            self._event.set()
            conditions = list(self._conditions)
        # wake every registered waiter; notify_all requires the lock, and
        # waiters hold it across their check-then-wait, so no lost wakeup
        for cond in conditions:
            with cond:
                cond.notify_all()
        return True

    def register(self, condition: threading.Condition) -> None:
        with self._lock:
            self._conditions.append(condition)

    def unregister(self, condition: threading.Condition) -> None:
        with self._lock:
            try:
                self._conditions.remove(condition)
            except ValueError:
                pass

    def raise_if_cancelled(self) -> None:
        # goes through the property so subclasses that widen the fired
        # check (e.g. the process-shared token) are honoured everywhere
        if self.cancelled:
            raise CancelledError(self._reason or "cancelled")

    def wait(self, timeout: float) -> bool:
        """Sleep up to ``timeout`` seconds; True if cancelled meanwhile."""
        return self._event.wait(timeout)


#: the element counters of every loop, per chunk or per stage
ELEMENT_COUNTERS = ("delivered", "retried", "skipped", "fallbacks", "failed")

#: the one outcome -> counter table: the counters an element's final
#: action adds one to (its extra attempts add to ``retried``)
OUTCOME_COUNTERS = {
    "delivered": ("delivered",),
    "fallback": ("delivered", "fallbacks"),
    "skipped": ("skipped",),
    "failed": ("failed",),
}


@dataclass(slots=True)
class Outcome:
    """What became of one element under a :class:`FaultPolicy`."""

    action: str  # "delivered" | "skipped" | "fallback" | "failed"
    value: Any
    attempts: int
    error: BaseException | None

    @property
    def retried(self) -> int:
        return self.attempts - 1


@dataclass
class FaultPolicy:
    """Per-stage (or per-loop-body) fault handling contract.

    ``retries`` bounds re-execution of a failing element; waits between
    attempts grow exponentially from ``backoff`` with deterministic
    seeded jitter, so fault handling is reproducible under test.
    ``item_timeout`` is a per-element deadline: an attempt whose wall
    time exceeds it is treated as a fault (its result is discarded) —
    complete wedges are the pipeline stall watchdog's job.  ``on_error``
    decides the exhausted-retries disposition: re-raise (``fail_fast``,
    the historical behaviour), drop and count the poison element
    (``skip``), or substitute ``fallback``.

    Every loop applies the policy with the same per-element semantics:
    :meth:`execute` runs one element, :meth:`execute_chunk` a whole map
    chunk (every DOALL element runs there, under :data:`NO_POLICY` when
    a run has none), and a pipeline stage runs each first attempt
    inline.  All three hand a failed first attempt to :meth:`_recover`,
    the one place that decides what becomes of a failed element, so an
    element that succeeds on its first attempt costs no call and no
    :class:`Outcome` in the last two.
    """

    retries: int = 0
    backoff: float = 0.01
    backoff_factor: float = 2.0
    jitter: float = 0.5
    seed: int = 0
    item_timeout: float | None = None
    on_error: str = "fail_fast"
    fallback: Any = None

    def __post_init__(self) -> None:
        if self.on_error not in ON_ERROR_MODES:
            raise ValueError(
                f"on_error must be one of {ON_ERROR_MODES}, "
                f"got {self.on_error!r}"
            )
        if self.retries < 0:
            raise ValueError("retries must be >= 0")

    def delays(self) -> list[float]:
        """The deterministic backoff schedule for one element."""
        rng = random.Random(self.seed)
        return [
            self.backoff
            * (self.backoff_factor ** k)
            * (1.0 + self.jitter * rng.random())
            for k in range(self.retries)
        ]

    def execute(
        self,
        fn: Callable[[Any], Any],
        value: Any,
        cancel: CancellationToken | None = None,
        trace: Any = None,
        stage: str = "",
        seq: int = -1,
        metrics: Any = None,
    ) -> Outcome:
        """Run ``fn(value)`` under this policy; never raises user errors.

        Cancellation is the one exception that propagates: a fired token
        aborts retries (and their backoff sleeps) immediately.  A body's
        own ``CancelledError`` is a failed element (see :meth:`_recover`).

        ``trace`` is duck-typed (anything with a ``TraceCollector``-shaped
        ``record`` and ``add``) so this module stays dependency-free:
        each attempt becomes an ``execute`` (first) or ``retry`` (later)
        span — carrying ``error=repr(exc)`` on failure, the
        cross-reference to its :class:`ErrorRecord` — a missed deadline
        a ``timeout`` span, and each inter-attempt sleep a ``backoff``
        span.  ``None`` (the default) costs one ``is None`` check per
        attempt.

        ``metrics`` is likewise duck-typed (a
        ``MetricsRegistry``-shaped ``inc``): every policy *fire* — a
        retry attempt, a missed deadline, a backoff sleep — bumps a
        counter, so aggregate fault pressure is visible without reading
        spans.

        The first attempt is the fast path: a success within the
        deadline allocates only its :class:`Outcome` and reads the clock
        only when a trace or ``item_timeout`` needs it.  A failed first
        attempt hands over to :meth:`_recover`, which builds the backoff
        schedule, so an element that succeeds on its first attempt
        never pays for it.
        """
        if cancel is not None:
            cancel.raise_if_cancelled()
        deadline = self.item_timeout
        if trace is None and not deadline:
            # nothing needs the clock: the cheapest first attempt
            try:
                return Outcome("delivered", fn(value), 1, None)
            except BaseException as exc:
                return self._recover(
                    fn, value, exc, 0.0, cancel, trace, stage, seq, metrics
                )
        started = time.monotonic()
        try:
            result = fn(value)
            ended = time.monotonic()
            if deadline and ended - started > deadline:
                raise _missed(ended - started, deadline)
        except BaseException as exc:
            return self._recover(
                fn, value, exc, started, cancel, trace, stage, seq, metrics
            )
        if trace is not None:
            trace.record("execute", stage, seq, started, ended, 1)
        return Outcome("delivered", result, 1, None)

    def _recover(
        self,
        fn: Callable[[Any], Any],
        value: Any,
        exc: BaseException,
        started: float,
        cancel: CancellationToken | None,
        trace: Any,
        stage: str,
        seq: int,
        metrics: Any,
    ) -> Outcome:
        """Everything after a failed first attempt, the one place that
        decides what becomes of a failed element: each failed attempt's
        span and counters, then backoff and retries while the budget
        lasts, then the ``on_error`` disposition.  A ``CancelledError``
        raised while ``cancel`` has fired is the run's cancellation and
        propagates, with no span or record.  Any other is the body's
        own: its element fails at once, never retried, whatever
        ``on_error`` says."""
        schedule: list[float] | None = None
        attempts = 1
        while True:
            own = isinstance(exc, CancelledError)
            if own and cancel is not None and cancel.cancelled:
                raise exc
            timed_out = isinstance(exc, ItemTimeoutError)
            if metrics is not None:
                if timed_out:
                    metrics.inc("policy_timeouts", stage=stage)
                if attempts > 1:
                    metrics.inc("policy_retries", stage=stage)
            if trace is not None:
                if timed_out:
                    kind = "timeout"
                else:
                    kind = "execute" if attempts == 1 else "retry"
                trace.record(
                    kind, stage, seq, started, None, attempts, repr(exc)
                )
            if own or attempts > self.retries:
                break
            if schedule is None:
                schedule = self.delays()
            delay = schedule[attempts - 1]
            slept = time.monotonic()
            if cancel is not None:
                if cancel.wait(delay):
                    cancel.raise_if_cancelled()
            elif delay > 0:
                time.sleep(delay)
            if metrics is not None:
                metrics.inc("policy_backoffs", stage=stage)
            if trace is not None:
                trace.add(
                    "backoff", stage, seq, slept, attempt=attempts,
                    delay=delay,
                )
            if cancel is not None:
                cancel.raise_if_cancelled()
            attempts += 1
            started = time.monotonic()
            try:
                result = fn(value)
                elapsed = time.monotonic() - started
                if self.item_timeout and elapsed > self.item_timeout:
                    raise _missed(elapsed, self.item_timeout)
            except BaseException as retry_exc:
                exc = retry_exc
                continue
            if metrics is not None:
                metrics.inc("policy_retries", stage=stage)
            if trace is not None:
                trace.record("retry", stage, seq, started, None, attempts)
            return Outcome("delivered", result, attempts, None)
        if own or self.on_error == "fail_fast":
            return Outcome("failed", None, attempts, exc)
        if self.on_error == "skip":
            return Outcome("skipped", None, attempts, exc)
        return Outcome("fallback", self.fallback, attempts, exc)

    def execute_chunk(
        self,
        fn: Callable[[Any], Any],
        chunk: Iterable[Any],
        lo: int,
        should_stop: Callable[[], bool],
        cancel: CancellationToken | None = None,
        trace: Any = None,
        stage: str = "",
        metrics: Any = None,
    ) -> tuple[list[Any], list[tuple], dict[str, int], bool, bool]:
        """:meth:`execute` over a map chunk, looped once per chunk: the
        element loop of every DOALL run, policy or not.

        Returns ``(values, records, counters, failed, aborted)``.  The
        ``i``-th element of ``chunk`` has run-wide index ``lo + i``.
        ``should_stop`` is read before each element and ends the chunk
        ``aborted``; a fired ``cancel`` raises, as in :meth:`execute`.
        The first attempt calls ``fn`` inline, reads the clock only when
        a trace or ``item_timeout`` needs it, and records the same
        ``execute`` span.  A failed first attempt hands over to
        :meth:`_recover`, so only a recovered element builds an
        :class:`Outcome`: an error left standing becomes a ``(seq,
        error, attempts, action)`` record, a skipped element keeps its
        slot as ``None`` (a map has no slot to drop), and a failed one
        ends the chunk ``failed``.  ``counters`` are counted once per
        chunk, through :data:`OUTCOME_COUNTERS`.
        """
        values: list[Any] = []
        append = values.append
        recovered: list[tuple[int, Outcome]] = []
        deadline = self.item_timeout
        aborted = False
        if trace is None and not deadline:
            # nothing needs the clock: the plain loop plus the handover
            for seq, value in enumerate(chunk, lo):
                if should_stop():
                    aborted = True
                    break
                if cancel is not None:
                    cancel.raise_if_cancelled()
                try:
                    append(fn(value))
                    continue
                except BaseException as exc:
                    outcome = self._recover(
                        fn, value, exc, 0.0, cancel, trace, stage, seq,
                        metrics,
                    )
                recovered.append((seq, outcome))
                if outcome.action == "failed":
                    break
                append(outcome.value)
        else:
            record = trace.record if trace is not None else None
            clock = time.monotonic
            for seq, value in enumerate(chunk, lo):
                if should_stop():
                    aborted = True
                    break
                if cancel is not None:
                    cancel.raise_if_cancelled()
                started = clock()
                try:
                    result = fn(value)
                    ended = clock()
                    if deadline and ended - started > deadline:
                        raise _missed(ended - started, deadline)
                except BaseException as exc:
                    outcome = self._recover(
                        fn, value, exc, started, cancel, trace, stage, seq,
                        metrics,
                    )
                    recovered.append((seq, outcome))
                    if outcome.action == "failed":
                        break
                    append(outcome.value)
                    continue
                if record is not None:
                    record("execute", stage, seq, started, ended, 1)
                append(result)
        records = [
            (seq, o.error, o.attempts, o.action)
            for seq, o in recovered
            if o.error is not None
        ]
        failed = bool(recovered) and recovered[-1][1].action == "failed"
        counters = dict.fromkeys(ELEMENT_COUNTERS, 0)
        # every value no outcome accounts for was a first-attempt delivery
        counters["delivered"] = len(values) - len(recovered) + failed
        for _seq, o in recovered:
            counters["retried"] += o.retried
            for key in OUTCOME_COUNTERS[o.action]:
                counters[key] += 1
        return values, records, counters, failed, aborted


#: the policy of a run that has none: fail fast, no retries, no deadline
NO_POLICY = FaultPolicy()


def _missed(elapsed: float, deadline: float) -> ItemTimeoutError:
    return ItemTimeoutError(
        f"element took {elapsed:.3f}s, deadline {deadline:.3f}s"
    )


@dataclass
class ErrorRecord:
    """One recorded stage failure: the aggregation unit that replaces
    first-error-only reporting."""

    stage: str
    seq: int
    error: BaseException
    attempts: int = 1


class StageCounters:
    """Thread-safe per-stage delivery accounting: one attribute per
    :data:`ELEMENT_COUNTERS` name."""

    __slots__ = ("_lock", *ELEMENT_COUNTERS)

    def __init__(self) -> None:
        self._lock = threading.Lock()
        for key in ELEMENT_COUNTERS:
            setattr(self, key, 0)

    def add_delivered(self, n: int) -> None:
        """Count ``n`` elements delivered at their first attempt at once."""
        with self._lock:
            self.delivered += n

    def account(self, outcome: Outcome) -> None:
        """Count one element's outcome through :data:`OUTCOME_COUNTERS`."""
        with self._lock:
            self.retried += outcome.retried
            for key in OUTCOME_COUNTERS[outcome.action]:
                setattr(self, key, getattr(self, key) + 1)

    def as_dict(self) -> dict[str, int]:
        with self._lock:
            return {key: getattr(self, key) for key in ELEMENT_COUNTERS}
