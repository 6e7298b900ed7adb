"""Checkpoint/resume for chunked runs: the append-only chunk journal.

A production run of the tuned parallel code must survive being killed —
OOM reaper, preemption, a deploy — without redoing work that already
finished.  The unit of recovery is the same as the unit of scheduling:
the **chunk**.  A :class:`ChunkJournal` is an append-only, checksummed
record of completed chunks that ``parallel_for`` / ``parallel_reduce``
write *as chunks are delivered* (parent-side, on every backend), so a
run killed mid-flight restarts with ``--resume`` and re-executes only
the chunks the journal does not hold.

Design contract:

* **append-only** — one framed record per event, never rewritten in
  place: a crash can only damage the *tail*, never history;
* **checksummed** — every record is length-prefixed and CRC32-guarded
  (``pickle`` payloads, so chunk values of any picklable type travel);
  a torn tail (the run was killed mid-write) fails its checksum, is
  discarded on load, and is truncated away on :meth:`resume` so the
  journal stays well-formed for further appends;
* **shape-validated** — the journal records the run shape
  (``n``/``chunk_size``/``label``, and for a map the ``schedule``) the
  first time a run binds to it; resuming with a different shape raises
  :class:`CheckpointError` instead of silently splicing mismatched
  chunk bounds;
* **plan-carrying** — the variable-size ``guided`` schedule journals
  its chunk *plan* (append-only ``plan`` records mapping chunk index →
  ``(lo, hi)`` bounds) before dispatching, because the plan depends on
  the worker count and cannot be re-derived on a resume with another
  width; a resumed run replays the journaled descriptors verbatim,
  which is what keeps chunk identity (ledger, dedup, journal indices)
  stable across the round-trip.  The planned-descriptor count is the
  generalized conservation denominator:
  ``chunks_completed - chunks_deduped = planned descriptors``;
* **at-least-once tolerant** — duplicate records for a chunk index are
  legal (recovery re-dispatches chunks with at-least-once semantics);
  the last record wins, and because chunk execution is deterministic
  per index, duplicates carry identical values.

The journal deliberately stores *delivered values*, not errors: a chunk
whose elements were skipped or substituted by a
:class:`~repro.runtime.faults.FaultPolicy` is journaled with its
fallback values (the run's observable output), while a failed or lost
chunk is not journaled at all — resume re-executes it.
"""

from __future__ import annotations

import io
import os
import pickle
import struct
import threading
import time
import zlib
from pathlib import Path
from typing import Any, Iterator

from repro.runtime.adaptive import ALIASES

#: file magic: repro journal, format version 1
MAGIC = b"RPJ1"

#: per-record frame header: payload length, payload crc32
_FRAME = struct.Struct("<II")

#: the journal's flush disciplines (see :meth:`ChunkJournal.create`)
FLUSH_MODES = ("chunk", "batch")

#: batch mode: flush after this many unflushed chunk records ...
_BATCH_COUNT = 16

#: ... or once the oldest unflushed record is this many seconds old
_BATCH_SECS = 0.005


class CheckpointError(RuntimeError):
    """A journal cannot be used for this run (shape mismatch, bad file)."""


def _flush_mode(flush: str) -> str:
    """``flush`` if it names a flush discipline, else raise.  Checked
    before a constructor touches the file, so a bad mode leaves an
    existing journal as it was and no handle open."""
    if flush not in FLUSH_MODES:
        raise CheckpointError(
            f"flush mode must be one of {FLUSH_MODES}, got {flush!r}"
        )
    return flush


def _frame(payload: bytes) -> bytes:
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def _read_records(raw: bytes) -> tuple[list[dict[str, Any]], int]:
    """Decode every intact record; returns ``(records, valid_bytes)``.

    Decoding stops at the first torn or corrupt frame — everything after
    a bad checksum is untrusted, and ``valid_bytes`` tells the resume
    path where to truncate so appends continue from well-formed state.
    """
    records: list[dict[str, Any]] = []
    view = memoryview(raw)
    offset = len(MAGIC)
    while offset + _FRAME.size <= len(view):
        length, crc = _FRAME.unpack_from(view, offset)
        start = offset + _FRAME.size
        end = start + length
        if end > len(view):
            break  # torn tail: the final write was cut short
        payload = bytes(view[start:end])
        if zlib.crc32(payload) != crc:
            break  # corrupt tail: discard this and everything after
        try:
            record = pickle.loads(payload)
        except Exception:
            break
        if not isinstance(record, dict) or "kind" not in record:
            break
        records.append(record)
        offset = end
    return records, offset


class ChunkJournal:
    """Append-only, checksummed journal of completed chunks.

    Open with :meth:`create` (fresh file) or :meth:`resume` (existing
    file; completed chunks are loaded and skipped by the run that binds
    it).  :meth:`load` opens read-only for inspection.  Thread-safe:
    the thread backend's workers append concurrently.
    """

    def __init__(
        self,
        path: str | Path,
        fh: io.BufferedWriter | None,
        shape: dict[str, Any] | None,
        completed: dict[int, dict[str, Any]],
        flush: str = "chunk",
    ) -> None:
        self.flush_mode = _flush_mode(flush)
        self.path = Path(path)
        self._fh = fh
        self._shape = shape
        self._completed = completed
        self._lock = threading.Lock()
        self._pending = 0
        self._pending_since = 0.0
        #: chunk index -> (lo, hi) bounds planned by a variable-size
        #: schedule (populated by :meth:`plan` and on :meth:`resume`)
        self._planned: dict[int, tuple[int, int]] = {}
        #: chunks loaded from disk at open time (what resume skips)
        self.resumed = len(completed)
        #: chunks appended through this handle
        self.recorded = 0
        #: optional duck-typed metrics registry (``inc``-shaped, see
        #: repro.runtime.metrics); when set, appends bump
        #: ``checkpoint_records`` / ``checkpoint_bytes`` and every real
        #: flush bumps ``checkpoint_flushes`` — the batch-vs-chunk flush
        #: trade becomes observable instead of inferred
        self.metrics: Any = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, path: str | Path, flush: str = "chunk") -> "ChunkJournal":
        """Start a fresh journal, truncating any existing file.

        ``flush="chunk"`` (the strict default, what ``repro run
        --checkpoint`` uses) flushes every record as it lands, so the
        journal never trails delivery by more than the record being
        written.  ``flush="batch"`` coalesces: records are flushed once
        ``_BATCH_COUNT`` have accumulated or the oldest unflushed record
        is ``_BATCH_SECS`` old, whichever comes first — trading a
        bounded at-risk window for one syscall per batch on
        small-chunk/high-rate runs.  :meth:`close` always flushes, and
        torn-tail truncation semantics are identical in both modes: a
        kill mid-batch loses only unflushed *whole* records plus at most
        one torn frame, which :meth:`resume` discards by checksum.
        """
        _flush_mode(flush)
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(path, "wb")
        fh.write(MAGIC)
        fh.flush()
        return cls(path, fh, None, {}, flush=flush)

    @classmethod
    def resume(cls, path: str | Path, flush: str = "chunk") -> "ChunkJournal":
        """Reopen an existing journal for appending.

        A torn tail (killed mid-write) is detected by checksum and
        truncated away, so the journal is well-formed before any new
        record lands.
        """
        _flush_mode(flush)
        path = Path(path)
        try:
            raw = path.read_bytes()
        except OSError as exc:
            raise CheckpointError(f"cannot read journal {path}: {exc}")
        if not raw.startswith(MAGIC):
            raise CheckpointError(
                f"{path} is not a chunk journal (bad magic)"
            )
        records, valid = _read_records(raw)
        if valid < len(raw):
            with open(path, "r+b") as trunc:
                trunc.truncate(valid)
        shape: dict[str, Any] | None = None
        completed: dict[int, dict[str, Any]] = {}
        planned: dict[int, tuple[int, int]] = {}
        for record in records:
            if record["kind"] == "shape":
                shape = record
            elif record["kind"] == "chunk":
                completed[int(record["index"])] = record
            elif record["kind"] == "plan":
                base = int(record["base"])
                for i, (lo, hi) in enumerate(record["bounds"]):
                    planned[base + i] = (int(lo), int(hi))
        fh = open(path, "ab")
        journal = cls(path, fh, shape, completed, flush=flush)
        journal._planned = planned
        return journal

    @classmethod
    def load(cls, path: str | Path) -> "ChunkJournal":
        """Open read-only (inspection/tests); :meth:`record` will fail."""
        journal = cls.resume(path)
        journal.close()
        return journal

    # ------------------------------------------------------------------
    # the run-binding contract
    # ------------------------------------------------------------------
    def bind(
        self,
        n: int,
        chunk_size: int,
        label: str = "loop",
        schedule: str | None = None,
    ) -> None:
        """Bind the journal to one run shape; validate on re-bind.

        The first run to use a journal stamps its shape; any later run
        (the ``--resume`` path) must present the same ``n`` /
        ``chunk_size`` / ``label``, because chunk indices are only
        meaningful relative to that chunking.  Since variable-size
        schedules arrived, the ``schedule`` is part of the shape too —
        a journal planned by ``guided`` cannot be resumed as
        ``dynamic``, because the chunk indices would name different
        element ranges.  An alias and the schedule it names are one
        schedule: a journal an ``adaptive`` run stamped resumes as
        ``guided`` and the other way round.  Journals written before
        schedules were recorded (no ``schedule`` in their shape record)
        resume under any schedule, for backward compatibility.
        """
        wanted = {
            "kind": "shape",
            "n": int(n),
            "chunk_size": int(chunk_size),
            "label": str(label),
        }
        if schedule is not None:
            wanted["schedule"] = str(schedule)
        if self._shape is None:
            self._append(wanted)
            self._shape = wanted
            return
        keys = ["n", "chunk_size", "label"]
        if schedule is not None and self._shape.get("schedule") is not None:
            keys.append("schedule")
        have = {k: self._shape.get(k) for k in keys}
        want = {k: wanted[k] for k in keys}
        if "schedule" in keys:
            for shape in (have, want):
                shape["schedule"] = ALIASES.get(
                    shape["schedule"], shape["schedule"]
                )
        if have != want:
            raise CheckpointError(
                f"journal {self.path} was written for run shape {have}, "
                f"cannot resume a run with shape {want}"
            )

    def plan(self, base: int, bounds: list[tuple[int, int]]) -> None:
        """Journal planned descriptors *before* dispatch.

        ``bounds[i]`` becomes chunk index ``base + i``.  Plan-ahead
        logging: the record is appended and flushed before any of the
        descriptors executes, so a kill mid-run leaves the plan on disk
        and resume re-executes exactly these descriptors under their
        original indices.  Re-planning an index already journaled is
        idempotent (identical bounds win; conflicting bounds raise).
        """
        clean: list[tuple[int, int]] = []
        for i, (lo, hi) in enumerate(bounds):
            index = int(base) + i
            bound = (int(lo), int(hi))
            prior = self._planned.get(index)
            if prior is not None and prior != bound:
                raise CheckpointError(
                    f"journal {self.path} planned chunk {index} as "
                    f"{prior}, cannot re-plan it as {bound}"
                )
            clean.append(bound)
        self._append(
            {"kind": "plan", "base": int(base), "bounds": clean}
        )
        for i, bound in enumerate(clean):
            self._planned[int(base) + i] = bound

    def planned(self) -> dict[int, tuple[int, int]]:
        """``{chunk index: (lo, hi)}`` for every planned descriptor."""
        return dict(sorted(self._planned.items()))

    @property
    def planned_total(self) -> int:
        """Planned-descriptor count: the generalized conservation RHS."""
        return len(self._planned)

    def completed(self) -> dict[int, list[Any]]:
        """``{chunk index: delivered values}`` for every journaled chunk."""
        return {
            k: list(rec["values"]) for k, rec in sorted(self._completed.items())
        }

    def completed_ranges(self) -> dict[int, tuple[int, int, list[Any]]]:
        """``{chunk index: (lo, hi, values)}`` — bounds-aware prefill.

        Variable-size schedules cannot recover a chunk's element range
        from ``index * chunk_size``; the journaled record carries the
        real bounds, and resume must use them.
        """
        return {
            k: (int(rec["lo"]), int(rec["hi"]), list(rec["values"]))
            for k, rec in sorted(self._completed.items())
        }

    def completed_indices(self) -> frozenset[int]:
        return frozenset(self._completed)

    def record(
        self, index: int, lo: int, hi: int, values: list[Any]
    ) -> None:
        """Append one completed chunk (flushed per the journal's mode).

        Flush pushes the record into the OS page cache, which survives
        the *process* being killed — the threat model here.  Surviving
        power loss would need fsync per chunk; that cost is not worth it
        for a recovery journal that can always fall back to re-execution.
        """
        record = {
            "kind": "chunk",
            "index": int(index),
            "lo": int(lo),
            "hi": int(hi),
            "values": list(values),
        }
        payload = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
        framed = _frame(payload)
        with self._lock:
            if self._fh is None:
                raise CheckpointError(
                    f"journal {self.path} is not open for appending"
                )
            self._fh.write(framed)
            self._maybe_flush()
            self._completed[record["index"]] = record
            self.recorded += 1
        if self.metrics is not None:
            self.metrics.inc("checkpoint_records")
            self.metrics.inc("checkpoint_bytes", len(framed))

    def _maybe_flush(self) -> None:
        """Apply the flush discipline; caller holds ``self._lock``."""
        if self.flush_mode == "chunk":
            self._flush_locked()
            return
        now = time.monotonic()
        if self._pending == 0:
            self._pending_since = now
        self._pending += 1
        if (
            self._pending >= _BATCH_COUNT
            or now - self._pending_since >= _BATCH_SECS
        ):
            self._flush_locked()
            self._pending = 0

    def _flush_locked(self) -> None:
        """Flush and count it; caller holds ``self._lock``."""
        self._fh.flush()
        if self.metrics is not None:
            self.metrics.inc("checkpoint_flushes")

    def flush(self) -> None:
        """Force any coalesced records to the OS (batch mode)."""
        with self._lock:
            if self._fh is not None:
                self._flush_locked()
                self._pending = 0

    def _append(self, record: dict[str, Any]) -> None:
        payload = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
        with self._lock:
            if self._fh is None:
                raise CheckpointError(
                    f"journal {self.path} is not open for appending"
                )
            self._fh.write(_frame(payload))
            self._fh.flush()

    # ------------------------------------------------------------------
    # lifecycle / inspection
    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                try:
                    self._fh.flush()
                    os.fsync(self._fh.fileno())
                except OSError:  # pragma: no cover - best effort
                    pass
                self._fh.close()
                self._fh = None
                self._pending = 0

    def __enter__(self) -> "ChunkJournal":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self._completed)

    def __contains__(self, index: int) -> bool:
        return index in self._completed

    def chunks(self) -> Iterator[dict[str, Any]]:
        """The raw chunk records, in index order (journal inspection)."""
        for _k, rec in sorted(self._completed.items()):
            yield dict(rec)

    @property
    def shape(self) -> dict[str, Any] | None:
        if self._shape is None:
            return None
        keys = ["n", "chunk_size", "label"]
        if self._shape.get("schedule") is not None:
            keys.append("schedule")
        return {k: self._shape.get(k) for k in keys}

    def summary(self) -> dict[str, Any]:
        """What ``fault_report`` renders under its checkpoint section."""
        return {
            "path": str(self.path),
            "resumed": self.resumed,
            "recorded": self.recorded,
            "chunks": len(self._completed),
            "planned": len(self._planned),
            "shape": self.shape,
        }
