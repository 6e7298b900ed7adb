"""Zero-copy shared-memory transport for the process backend.

The pickle transport ships the whole input list to every worker and
returns every chunk's values as a pickled message through the result
queue — for flat numeric DOALL loops that is pure overhead.  This module
implements the ``Transport=shm`` data plane: qualifying inputs (lists of
plain ints or plain floats, which is also what ``bytes`` and
``array.array`` inputs become after ``parallel_for`` materializes them)
are packed, in one pass, into the input arena of the call's
:class:`~repro.runtime.backend.PoolSession`, workers iterate each chunk
in place as a slice of a typed ``memoryview``, and fully-successful
numeric chunks are written into a preallocated output region — the
result queue then carries only tiny control records (claim /
chunk-complete / done), never the data.

The input arena is one :mod:`multiprocessing.shared_memory` segment per
session, reused across calls: the session creates it on its first shm
call, replaces it when a larger input arrives and unlinks it when it
shuts down, and each worker keeps it mapped between calls.  The output
region stays per call (see :class:`ShmOutput`).

Qualification is strict so the transport can never change semantics:

* element types must be uniformly ``int`` or uniformly ``float`` —
  *exact* types, so ``bool`` (a subclass of ``int``), mixed streams and
  arbitrary objects take the pickle road;
* ints must fit a signed 64-bit slot (``q``), floats are IEEE doubles
  (``d``) — lossless for Python floats.

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

import contextlib
import struct
from multiprocessing import resource_tracker, shared_memory
from operator import countOf
from typing import Any, Callable, Sequence

#: the two process-backend data planes (the ``Transport`` knob's domain)
TRANSPORTS = ("pickle", "shm")

#: per-chunk completion tags in the output region header
_TAG_EMPTY = 0
_TAG_INT = 1
_TAG_FLOAT = 2

#: fixed slot width: signed 64-bit int or IEEE double
_SLOT = 8

#: the exact element types that qualify, by their native struct code
_TYPECODES = {int: "q", float: "d"}

#: elements the gate checks and packs per step, which bounds the list
#: slice and the argument tuple each step builds; 4 096 was the fastest
#: of 512 to 16 384 over 500 000 floats (2-vCPU AMD EPYC, best of 15)
_STEP = 4096


def normalize_transport(name: Any) -> str:
    """Validate a ``Transport`` value; raises ``TuningError`` on junk."""
    from repro.runtime.backend import TuningError

    if isinstance(name, str) and name in TRANSPORTS:
        return name
    raise TuningError(
        f"Transport must be one of {TRANSPORTS}, got {name!r}"
    )


def _pack_into(
    values: Sequence[Any], target: Callable[[int], Any], offset: int = 0
) -> tuple[str | None, str | None]:
    """Gate ``values`` and pack them into a shared buffer in one pass:
    ``(typecode, None)``, or ``(None, reason)``.

    The single gate both sides of the transport share: exact-type
    uniform ints (64-bit) or floats qualify, everything else states why
    it does not.  ``target(nbytes)`` returns the writable buffer, and is
    asked only once the first element's type qualifies.  The pass then
    walks the values in steps of :data:`_STEP`: one C-level count of the
    elements whose type *is* the first element's (``countOf`` tests
    identity before equality, and type objects compare by identity, so
    ``bool`` and float subclasses fail it), then one ``struct.pack_into``
    of the step, in native format, from byte ``offset`` on.  A refusal
    can leave the steps before it written; the caller reads none of it.
    """
    if not values:
        return None, "empty input"
    first = type(values[0])
    typecode = _TYPECODES.get(first)
    if typecode is None:
        return None, f"element type {first.__name__} is not flat numeric"
    n = len(values)
    buf = target(n * _SLOT)
    for lo in range(0, n, _STEP):
        part = values[lo:lo + _STEP]
        if countOf(map(type, part), first) != len(part):
            return None, "mixed or non-numeric element types"
        try:
            struct.pack_into(
                f"{len(part)}{typecode}", buf, offset + lo * _SLOT, *part
            )
        except struct.error:
            return None, "int outside signed 64-bit range"
    return typecode, None


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


class InputArena:
    """A session's shared input segment, reused across its calls.

    Owned by one :class:`~repro.runtime.backend.PoolSession`, which
    serves one caller at a time, so the arena needs no lock.  The
    segment is created by the first call that places an input, replaced
    by a call whose input does not fit, and unlinked by :meth:`close`.
    A worker still reading a replaced segment keeps it alive: POSIX
    frees an unlinked segment at its last unmap.
    """

    def __init__(self) -> None:
        self._seg: shared_memory.SharedMemory | None = None

    @property
    def name(self) -> str | None:
        """The current segment's name (``None`` before the first input)."""
        return None if self._seg is None else self._seg.name

    def buffer(self, nbytes: int) -> memoryview:
        """The segment's buffer, replaced first when it is too small.

        The replacement is created before the old segment is unlinked,
        so its name differs from the old one: a worker re-attaches by
        name, and must never take a new segment for the one it maps."""
        if self._seg is None or self._seg.size < nbytes:
            seg = shared_memory.SharedMemory(create=True, size=max(1, nbytes))
            self.close()
            self._seg = seg
        return self._seg.buf

    def close(self) -> None:
        """Unmap and unlink the segment."""
        seg, self._seg = self._seg, None
        if seg is not None:
            seg.close()
            seg.unlink()

    def forget(self) -> None:
        """Unmap, never unlink: a forked child's copy of the parent's
        arena.  A child keeping it mapped would keep a replaced segment
        alive for its whole life; one whose view a parent thread held
        at the fork cannot unmap, and stays."""
        seg, self._seg = self._seg, None
        if seg is not None:
            with contextlib.suppress(BufferError):
                seg.close()


class ShmInput:
    """One call's input, placed in its session's :class:`InputArena`."""

    def __init__(self, name: str, typecode: str, length: int) -> None:
        self.name = name
        self.typecode = typecode
        self.length = length

    @classmethod
    def build(
        cls, values: Sequence[Any], arena: InputArena
    ) -> tuple["ShmInput | None", str | None]:
        """Place ``values`` in ``arena``, or say why they don't fit."""
        typecode, reason = _pack_into(values, arena.buffer)
        if typecode is None:
            return None, reason
        return cls(arena.name, typecode, len(values)), None

    def spec(self) -> dict[str, Any]:
        """What a worker needs to read it (travels in the call message)."""
        return {
            "name": self.name,
            "typecode": self.typecode,
            "length": self.length,
        }

    def dispose(self) -> None:
        """End the call's use of the arena.  The session keeps the
        segment, mapped and linked, for its next call, so nothing is
        released here: only :meth:`InputArena.close` unlinks it."""


class InputMapping:
    """A pool worker's mapping of its session's input arena.

    The mapping is kept across calls and replaced only when a call names
    another segment (the arena grew).  :meth:`close` unmaps it; a
    ``BufferError`` there means a view of the segment outlived the
    kernel that read it, and it propagates: the worker ends rather than
    keep a segment mapped, unreported, for the rest of its life.
    """

    def __init__(self) -> None:
        self._seg: shared_memory.SharedMemory | None = None

    def view(self, spec: dict[str, Any]) -> "ShmInputView":
        """This call's view of the arena ``spec`` names."""
        if self._seg is None or self._seg.name != spec["name"]:
            self.close()
            self._seg = _attach(spec["name"])
        return ShmInputView(self._seg, spec["typecode"], int(spec["length"]))

    def close(self) -> None:
        if self._seg is not None:
            self._seg.close()
            self._seg = None


class ShmInputView:
    """Worker-side read-only sequence over one call's input.

    Indexing gives one value.  Slicing gives a typed ``memoryview`` of
    the slice, which the caller must release.  A chunk kernel reads its
    chunk through :func:`repro.runtime.backend._chunk`, which yields
    that slice and releases it when the kernel leaves the chunk, also
    when an element raises: the kernel iterates the segment in place,
    with no per-chunk list of fresh numbers, and no typed view of the
    segment outlives the kernel.  An error whose traceback pins a
    kernel frame pins only a released slice, so the worker's
    :class:`InputMapping` can still unmap the segment.
    """

    def __init__(
        self, seg: shared_memory.SharedMemory, typecode: str, length: int
    ) -> None:
        self._seg = seg
        self.typecode = typecode
        self._length = length

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, i: int | slice) -> Any:
        # the whole-input view is a temporary: only a slice of it can
        # outlive this call
        return self._seg.buf[:self._length * _SLOT].cast(self.typecode)[i]


class ShmOutput:
    """Parent-side owner of the preallocated result region.

    Layout: ``n_chunks`` one-byte completion tags, then ``n`` fixed
    eight-byte value slots.  A worker fills a chunk's slots first and
    its tag last, so a tagged chunk always has complete data; the parent
    only reads a chunk after absorbing its completion record, which the
    worker sends after the write returns.

    The region is per call, unlike the input arena: a straggler from an
    earlier call (a hedge loser still running) writes its slots after
    its call ended, and a reused region would let it overwrite the
    slots of the call after it.
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

    ``write`` answers whether the chunk qualified; a refusal is the
    worker's cue to ship the values inline instead, and leaves the
    chunk's tag empty, so the parent never reads its slots.  Writes are
    idempotent: chunk execution is deterministic per index, so
    at-least-once re-execution (respawn, hedge) rewrites identical bytes
    into the same index-derived slots.
    """

    def __init__(self, spec: dict[str, Any]) -> None:
        self._seg = _attach(spec["name"])
        self.n = int(spec["n"])
        self.n_chunks = int(spec["chunks"])

    def write(self, k: int, lo: int, values: Sequence[Any]) -> bool:
        typecode, _reason = _pack_into(
            values, self._region, self.n_chunks + lo * _SLOT
        )
        if typecode is None:
            return False
        self._seg.buf[k] = _TAG_INT if typecode == "q" else _TAG_FLOAT
        return True

    def _region(self, nbytes: int) -> memoryview:
        return self._seg.buf

    def close(self) -> None:
        """Unmap the region; a ``BufferError`` propagates, as in
        :meth:`InputMapping.close`."""
        self._seg.close()
