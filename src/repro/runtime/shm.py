"""Zero-copy shared-memory transport for the process backend.

The pickle transport ships the whole input list to every worker and
returns every chunk's values as a pickled message through the result
queue — for flat numeric DOALL loops that is pure overhead.  This module
implements the ``Transport=shm`` data plane: qualifying inputs (lists of
plain ints or plain floats, which is also what ``bytes`` and
``array.array`` inputs become after ``parallel_for`` materializes them)
are placed once in a :mod:`multiprocessing.shared_memory` block, workers
iterate each chunk in place as a slice of a typed ``memoryview``, and
fully-successful numeric chunks are written into a preallocated output
region — the result queue then carries only tiny control records
(claim / chunk-complete / done), never the data.

Qualification is strict so the transport can never change semantics:

* element types must be uniformly ``int`` or uniformly ``float`` —
  *exact* types, so ``bool`` (a subclass of ``int``), mixed streams and
  arbitrary objects take the pickle road;
* ints must fit a signed 64-bit slot (``array('q')``), floats are IEEE
  doubles (``array('d')``) — lossless for Python floats.

Non-qualifying data is not an error: the caller records a
:class:`~repro.runtime.backend.BackendEvent` transport downgrade and the
run proceeds on the pickle transport, mirroring the picklability
downgrade road.  Output slots degrade *per chunk*: a chunk whose values
are not uniformly numeric (a fault-policy fallback ``None``, an
overflowing int, a failed chunk) ships inline in its ``ChunkResult``
while its numeric siblings use the region.

Exactly-once accounting is unaffected by the transport (DESIGN.md):
chunk slot writes are idempotent — chunk execution is deterministic per
index, and a hedge winner and loser write identical bytes to disjoint,
index-derived slots — and deduplication stays parent-side in the
collector, which materializes a chunk's values from the region exactly
once, when the first control record for that chunk is absorbed.
"""

from __future__ import annotations

from array import array
from multiprocessing import resource_tracker, shared_memory
from operator import countOf
from typing import Any, Sequence

#: the two process-backend data planes (the ``Transport`` knob's domain)
TRANSPORTS = ("pickle", "shm")

#: per-chunk completion tags in the output region header
_TAG_EMPTY = 0
_TAG_INT = 1
_TAG_FLOAT = 2

#: fixed result-slot width: signed 64-bit int or IEEE double
_SLOT = 8


def normalize_transport(name: Any) -> str:
    """Validate a ``Transport`` value; raises ``TuningError`` on junk."""
    from repro.runtime.backend import TuningError

    if isinstance(name, str) and name in TRANSPORTS:
        return name
    raise TuningError(
        f"Transport must be one of {TRANSPORTS}, got {name!r}"
    )


def _typed(values: Sequence[Any]) -> tuple[str | None, Any, str | None]:
    """``(typecode, packed array, None)`` or ``(None, None, reason)``.

    The single gate both sides of the transport share: exact-type
    uniform ints (64-bit) or floats qualify, everything else states why
    it does not.  The type scan is one C-level count of the elements
    whose type *is* the first element's (``countOf`` tests identity
    before equality, and type objects compare by identity), so ``bool``
    and float subclasses still fail the count.
    """
    if not values:
        return None, None, "empty input"
    first = type(values[0])
    if first is int:
        typecode = "q"
    elif first is float:
        typecode = "d"
    else:
        return None, None, (
            f"element type {first.__name__} is not flat numeric"
        )
    if countOf(map(type, values), first) != len(values):
        return None, None, "mixed or non-numeric element types"
    try:
        return typecode, array(typecode, values), None
    except OverflowError:
        return None, None, "int outside signed 64-bit range"


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach a worker to a parent-owned block, without tracking it.

    Ownership is strictly parent-side: the parent registered the block
    with the shared resource tracker at creation and unregisters it at
    ``unlink``.  On Python < 3.13 an attach would *re*-register the
    name, and a straggler (hedge loser, queued warm-pool task) can do
    so after the parent already unregistered — leaving a stale tracker
    entry that warns at interpreter exit.  Unregistering worker-side is
    no better: it strips the parent's registration.  So emulate 3.13's
    ``track=False``: mask ``register`` for the constructor call.  The
    worker loop is single-threaded, so the masking window races nothing.
    """
    register = resource_tracker.register
    resource_tracker.register = lambda *a, **k: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = register


class ShmInput:
    """Parent-side owner of the shared input block."""

    def __init__(
        self, seg: shared_memory.SharedMemory, typecode: str, length: int
    ) -> None:
        self._seg = seg
        self.typecode = typecode
        self.length = length

    @classmethod
    def build(
        cls, values: Sequence[Any]
    ) -> tuple["ShmInput | None", str | None]:
        """Place ``values`` in shared memory, or say why they don't fit."""
        typecode, packed, reason = _typed(values)
        if typecode is None:
            return None, reason
        nbytes = len(packed) * packed.itemsize
        seg = shared_memory.SharedMemory(create=True, size=max(1, nbytes))
        seg.buf[:nbytes] = memoryview(packed).cast("B")
        return cls(seg, typecode, len(packed)), None

    def spec(self) -> dict[str, Any]:
        """What a worker needs to attach (travels in the call message)."""
        return {
            "name": self._seg.name,
            "typecode": self.typecode,
            "length": self.length,
        }

    def dispose(self) -> None:
        try:
            self._seg.close()
            self._seg.unlink()
        except OSError:  # pragma: no cover - already gone
            pass


class ShmInputView:
    """Worker-side read-only sequence over a shared input block.

    Indexing gives one value; slicing gives a ``memoryview`` slice of
    the block, which the caller must release.  A chunk kernel reads its
    chunk through :func:`repro.runtime.backend._chunk`, which yields
    that slice and releases it when the kernel leaves the chunk, also
    when an element raises: the kernel iterates the block in place,
    with no per-chunk list of fresh numbers, and no export of the
    segment outlives the kernel.  An error whose traceback pins a
    kernel frame pins only a released slice, so :meth:`close` still
    unmaps.
    """

    def __init__(self, spec: dict[str, Any]) -> None:
        self._seg = _attach(spec["name"])
        n = int(spec["length"])
        nbytes = n * _SLOT
        self._view = memoryview(self._seg.buf)[:nbytes].cast(
            spec["typecode"]
        )

    def __len__(self) -> int:
        return len(self._view)

    def __getitem__(self, i: int | slice) -> Any:
        return self._view[i]

    def close(self) -> None:
        """Unmap the block.  A ``BufferError`` here means a view of the
        block is still alive; it propagates, because the mapping would
        otherwise stay behind, unreported, for the worker's lifetime."""
        self._view.release()
        self._seg.close()


class ShmOutput:
    """Parent-side owner of the preallocated result region.

    Layout: ``n_chunks`` one-byte completion tags, then ``n`` fixed
    eight-byte value slots.  A worker fills a chunk's slots first and
    its tag last, so a tagged chunk always has complete data; the parent
    only reads a chunk after absorbing its completion record, which the
    worker sends after the write returns.
    """

    def __init__(
        self, seg: shared_memory.SharedMemory, n: int, n_chunks: int
    ) -> None:
        self._seg = seg
        self.n = n
        self.n_chunks = n_chunks

    @classmethod
    def build(cls, n: int, n_chunks: int) -> "ShmOutput":
        size = max(1, n_chunks + n * _SLOT)
        seg = shared_memory.SharedMemory(create=True, size=size)
        seg.buf[:n_chunks] = b"\x00" * n_chunks
        return cls(seg, n, n_chunks)

    def spec(self) -> dict[str, Any]:
        return {
            "name": self._seg.name,
            "n": self.n,
            "chunks": self.n_chunks,
        }

    def read(self, k: int, lo: int, hi: int) -> list[Any]:
        """Materialize chunk ``k``'s values (collector-side, once)."""
        tag = self._seg.buf[k]
        if tag == _TAG_INT:
            typecode = "q"
        elif tag == _TAG_FLOAT:
            typecode = "d"
        else:
            raise RuntimeError(
                f"shm output chunk {k} reported complete but slot tag "
                f"is {tag} — transport protocol violation"
            )
        start = self.n_chunks + lo * _SLOT
        end = self.n_chunks + hi * _SLOT
        view = memoryview(self._seg.buf)[start:end].cast(typecode)
        try:
            return view.tolist()
        finally:
            view.release()

    def dispose(self) -> None:
        try:
            self._seg.close()
            self._seg.unlink()
        except OSError:  # pragma: no cover - already gone
            pass


class ShmOutputWriter:
    """Worker-side writer of fixed-width chunk results.

    ``write`` is all-or-nothing per chunk and answers whether the chunk
    qualified; a refusal is the worker's cue to ship the values inline
    instead.  Writes are idempotent: chunk execution is deterministic
    per index, so at-least-once re-execution (respawn, hedge) rewrites
    identical bytes into the same index-derived slots.
    """

    def __init__(self, spec: dict[str, Any]) -> None:
        self._seg = _attach(spec["name"])
        self.n = int(spec["n"])
        self.n_chunks = int(spec["chunks"])

    def write(self, k: int, lo: int, values: Sequence[Any]) -> bool:
        typecode, packed, _reason = _typed(values)
        if typecode is None:
            return False
        nbytes = len(packed) * packed.itemsize
        start = self.n_chunks + lo * _SLOT
        self._seg.buf[start:start + nbytes] = memoryview(packed).cast("B")
        self._seg.buf[k] = _TAG_INT if typecode == "q" else _TAG_FLOAT
        return True

    def close(self) -> None:
        """Unmap the region; a ``BufferError`` propagates, as in
        :meth:`ShmInputView.close`."""
        self._seg.close()
