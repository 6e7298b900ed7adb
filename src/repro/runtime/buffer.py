"""Bounded inter-stage buffers.

Stage-binding pipelines "use buffers to connect predecessor and successor
stages" (paper, section 2.2).  The buffer is a small bounded blocking queue
with explicit end-of-stream handling; its capacity is the
``BufferCapacity`` tuning parameter.

Waits are supervisable: ``put``/``get`` accept an optional deadline and a
:class:`~repro.runtime.faults.CancellationToken`, so a blocked stage can
always be unwound — a precondition for the pipeline stall watchdog, which
must turn a hung pipeline into a diagnosable exception, never a hang.

Pipeline stages hand off in batches: ``get_batch`` takes what is already
queued (a ``share`` of it, so replicas reading one buffer split it) and
``put_batch`` forwards a stage's outputs, one lock round trip for many
elements.  ``get_batch`` waits only until the first item is queued, never
to fill a batch; how long a stage may hold finished outputs before its
``put_batch`` is bounded by the pipeline, not here.  Counters stay per
element: ``transfers`` counts elements moved and ``max_occupancy`` never
exceeds ``capacity`` through either batch call.
"""

from __future__ import annotations

import collections
import threading
import time
from typing import Any

from repro.runtime.faults import BufferTimeout, CancellationToken


class EndOfStream:
    """Unique end-of-stream marker (one instance per pipeline run)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<end-of-stream>"


class BoundedBuffer:
    """A blocking FIFO with bounded capacity.

    Implemented directly on a condition variable rather than
    ``queue.Queue`` so tests can introspect occupancy (idle/overfull stages
    are the phenomena StageReplication and StageFusion exist to fix).
    """

    def __init__(self, capacity: int = 8) -> None:
        if capacity < 1:
            raise ValueError("buffer capacity must be >= 1")
        self.capacity = capacity
        self._items: collections.deque = collections.deque()
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)
        self.max_occupancy = 0  # high-water mark, for diagnostics
        self.transfers = 0  # elements in + out; the watchdog's progress signal

    def _await(
        self,
        cond: threading.Condition,
        ready,
        timeout: float | None,
        cancel: CancellationToken | None,
        what: str,
    ) -> None:
        """Wait on ``cond`` (lock held) until ``ready()``; honour deadline
        and cancellation.  The token's notify wakes registered waiters, so
        no polling is needed; a buffer that is already ready returns
        before registering, as it would after the first check."""
        if ready():
            return
        deadline = None if timeout is None else time.monotonic() + timeout
        if cancel is not None:
            cancel.register(cond)
        try:
            while not ready():
                if cancel is not None and cancel.cancelled:
                    cancel.raise_if_cancelled()
                if deadline is None:
                    cond.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise BufferTimeout(
                            f"buffer {what} timed out after {timeout:.3f}s "
                            f"(occupancy {len(self._items)}/{self.capacity})"
                        )
                    cond.wait(remaining)
        finally:
            if cancel is not None:
                cancel.unregister(cond)

    def put(
        self,
        item: Any,
        timeout: float | None = None,
        cancel: CancellationToken | None = None,
    ) -> None:
        with self._not_full:
            self._await(
                self._not_full,
                lambda: len(self._items) < self.capacity,
                timeout,
                cancel,
                "put",
            )
            self._items.append(item)
            self.max_occupancy = max(self.max_occupancy, len(self._items))
            self.transfers += 1
            self._not_empty.notify()

    def get(
        self,
        timeout: float | None = None,
        cancel: CancellationToken | None = None,
    ) -> Any:
        with self._not_empty:
            self._await(
                self._not_empty, lambda: bool(self._items), timeout, cancel, "get"
            )
            item = self._items.popleft()
            self.transfers += 1
            self._not_full.notify()
            return item

    def get_batch(
        self, share: int = 1, cancel: CancellationToken | None = None
    ) -> list[Any]:
        """Wait until an item is queued, then take ``ceil(queued / share)``
        items in FIFO order; never wait for more.

        ``share`` is the number of consumers reading this buffer, so
        each takes its fair part of a backlog instead of all of it."""
        with self._not_empty:
            self._await(
                self._not_empty, lambda: bool(self._items), None, cancel, "get"
            )
            k = -(-len(self._items) // share)
            batch = [self._items.popleft() for _ in range(k)]
            self.transfers += k
            self._not_full.notify(k)
            return batch

    def put_batch(
        self, items: list[Any], cancel: CancellationToken | None = None
    ) -> None:
        """Append ``items`` in order, as many at a time as there is room
        for, waiting for room between runs until all are in."""
        done = 0
        with self._not_full:
            while done < len(items):
                self._await(
                    self._not_full,
                    lambda: len(self._items) < self.capacity,
                    None,
                    cancel,
                    "put",
                )
                k = min(self.capacity - len(self._items), len(items) - done)
                self._items.extend(items[done : done + k])
                done += k
                self.max_occupancy = max(self.max_occupancy, len(self._items))
                self.transfers += k
                self._not_empty.notify(k)

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)
