"""The master/worker parallel pattern.

Two usages, matching the paper:

* standalone — a master distributes independent tasks to a worker pool and
  joins the results (:meth:`MasterWorker.run`, :meth:`map`).  Generated
  master/worker regions run this way: one group per call of the
  generated function, named after its region, and one ``run`` per
  iteration over its independent statements — on threads, since the
  statements close over loop-local state, or in the calling thread
  under ``SequentialExecution@workers``;
* as a pipeline element (Fig. 3d: ``Pipeline(mw, p4, p5)``) — for each
  stream element every member item is applied and the results merged.

Workers are supervised: once any sibling records an error — or a shared
:class:`~repro.runtime.faults.CancellationToken` fires — the pool stops
claiming new tasks instead of running the full remaining input.

The pool substrate is selectable (the ``backend`` argument) and is the
chunk engine's (:mod:`repro.runtime.parallel_for`), one task per chunk:
``serial`` runs tasks in the master thread, ``thread`` on claiming
threads, and ``process`` ships each task thunk to a
``multiprocessing`` pool — closures are shipped by value (see
:mod:`repro.runtime.backend`), and a thunk that cannot cross the process
boundary downgrades the whole run to threads with a recorded
:class:`~repro.runtime.backend.BackendEvent` in :attr:`last_events`.
The downgraded run executes the caller's own thunks, never the copies.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from repro.runtime.backend import (
    BackendEvent,
    RecoveryEvent,
    invoke_task,
    normalize_backend,
    ship_callable,
)
from repro.runtime.faults import CancellationToken
from repro.runtime.item import Item
from repro.runtime.metrics import MetricsRegistry, resolve_registry
from repro.runtime.parallel_for import _engine
from repro.runtime.profiler import SamplingProfiler, resolve_profiler
from repro.runtime.trace import TraceCollector, resolve_collector


class _ShippedTask:
    """A task thunk that runs as itself and pickles by value.

    Only the process payload pickles it, shipping the thunk through
    :func:`~repro.runtime.backend.ship_callable`; a run that falls back
    to threads calls the caller's own thunk, so state its closure shares
    with the caller stays shared.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[], Any]) -> None:
        self.fn = fn

    def __call__(self) -> Any:
        return self.fn()

    def __reduce__(self) -> tuple:
        return (_ShippedTask, (ship_callable(self.fn),))


class MasterWorker:
    """Execute independent work items with a pool of workers."""

    def __init__(
        self,
        *items: Item,
        workers: int | None = None,
        merge: Callable[[Any, Sequence[Any]], Any] | None = None,
        name: str = "masterworker",
        backend: str = "thread",
        restarts: int = 0,
    ) -> None:
        self.items: list[Item] = list(items)
        self.workers = workers or max(len(self.items), 1)
        self.merge = merge or (lambda value, results: tuple(results))
        self.name = name
        self.backend = normalize_backend(backend)
        #: worker respawn budget for the process backend (PoolRestarts)
        self.restarts = restarts
        #: backend decisions (downgrades) from the most recent run
        self.last_events: list[BackendEvent] = []
        #: crash-recovery history from the most recent process run
        self.last_recovery: list[RecoveryEvent] = []
        # pipeline-element tuning state (an MW group is one pipeline stage)
        self.replicable = all(i.replicable for i in self.items) if items else False
        self.replication = 1
        self.order_preservation = True
        #: group-level fault policy (the enclosing pipeline applies it)
        self.fault_policy = None
        #: cancellation shared with an enclosing pipeline run, if any
        self.cancel: CancellationToken | None = None

    def item(self, index_or_name: int | str) -> Item:
        """Address a member item (the paper's ``mw.Item(p3)``)."""
        if isinstance(index_or_name, int):
            return self.items[index_or_name]
        for it in self.items:
            if it.name == index_or_name:
                return it
        raise KeyError(index_or_name)

    # ------------------------------------------------------------------
    # standalone usage
    # ------------------------------------------------------------------
    def run(
        self,
        tasks: Iterable[Callable[[], Any]],
        cancel: CancellationToken | None = None,
        trace: TraceCollector | None = None,
        metrics: MetricsRegistry | None = None,
        profiler: SamplingProfiler | None = None,
    ) -> list[Any]:
        """Execute independent thunks; results in task order.

        The chunk engine of :mod:`repro.runtime.parallel_for` runs one
        task per chunk under the group's name, on every backend: a
        failed task (or a fired token) stops the pool from claiming
        further tasks, and the first failed task's error is re-raised.
        Each task becomes one ``execute`` span when tracing is on
        (``trace``, or the active session); with metrics on (``metrics``,
        or the active session) the engine's ``chunks_*`` / ``elements_*``
        counters land under ``stage=self.name``.  With profiling on
        (``profiler``, or the active
        :func:`~repro.runtime.profiler.profile_session`) each task is one
        work window stamped ``(self.name, task index)``.  The process
        backend ships each task inside the work payload (closures by
        value); a task that cannot cross the boundary downgrades the run
        to threads, which run the caller's thunks themselves.
        """
        cancel = cancel or self.cancel
        trace = resolve_collector(trace)
        tasks = list(tasks)
        self.last_events = []
        self.last_recovery = []
        backend = "serial" if self.workers <= 1 else self.backend
        if backend == "process":
            tasks = [_ShippedTask(t) for t in tasks]
        return _engine(
            tasks, invoke_task, label=self.name, backend=backend,
            workers=self.workers, chunk_size=1, cancel=cancel,
            events=self.last_events, trace=trace,
            metrics=resolve_registry(metrics),
            profiler=resolve_profiler(profiler), restarts=self.restarts,
            recovery=self.last_recovery,
        )

    def map(self, fn: Callable[[Any], Any], values: Iterable[Any]) -> list[Any]:
        """Parallel map preserving input order."""
        vals = list(values)
        return self.run([lambda v=v: fn(v) for v in vals])

    # ------------------------------------------------------------------
    # pipeline-element usage
    # ------------------------------------------------------------------
    def apply(self, value: Any) -> Any:
        """Apply every member to the stream element, merge the results."""
        results = self.run([lambda it=it: it.apply(value) for it in self.items])
        return self.merge(value, results)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MasterWorker({', '.join(i.name for i in self.items)})"
