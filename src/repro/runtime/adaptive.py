"""Chunk planning: the ``Schedule`` knob's descriptor plans.

Every loop runs one plan of ``(lo, hi)`` descriptors, chosen by the
``Schedule`` tuning knob:

* ``static`` / ``dynamic`` — fixed-stride chunks of ``ChunkSize``
  elements, assigned round-robin (static) or claimed from a shared
  counter (dynamic);
* ``guided`` — OpenMP-style guided self-scheduling: the *plan* emits
  geometrically shrinking descriptors (``remaining / (2 * workers)``,
  floored at the ``ChunkSize`` knob, which becomes the minimum chunk),
  so early chunks amortize dispatch cost and late chunks load-balance
  the tail.  Workers still claim descriptors from the shared counter —
  the descriptors themselves encode the shrink;
* ``adaptive`` — an accepted alias of ``guided`` (:data:`ALIASES`):
  tuning files and command lines that name it keep loading, and the
  run plans and journals as ``guided``.

``adaptive`` once ran an in-run controller that dispatched the space in
waves and re-tuned chunk size and warm-pool width between them.  It
lost to the plain guided plan.  It read parent-side chunk latencies,
which read close to zero for chunks shorter than a switch interval, so
it shed a worker after the first wave, and the warm pool respawned that
worker on every call.  On the end-to-end benchmark's doall-skewed
workload (seed 1, a 2-vCPU host, 10 alternating pairs) the controller
ran at 0.71× of serial and the guided plan runs at 1.58× (seed 2: 0.78×
against 1.68×).  Patty tunes between runs — initialize, execute,
measure, next values — so the scheduler measures variants in the tuning
cycle and keeps the winner, rather than guessing inside one run.

Chunk identity is load-bearing everywhere — the ownership ledger,
respawn/re-dispatch, hedging, first-result-wins dedup, the chunk
journal, shm output slots — and all of it is *index*-based over the
plan's list of ``(lo, hi)`` bounds, so variable-size descriptors ride
the fixed-stride machinery unchanged.  What generalizes is the
**conservation invariant**: ``chunks_completed - chunks_deduped`` no
longer equals ``ceil(n / chunk_size)`` but the number of *planned
descriptors*, counted by the ``chunks_planned`` metric and recorded in
the chunk journal as append-only ``plan`` records (so a resumed run
re-executes exactly the planned-but-unfinished descriptors, whatever
their size).
"""

from __future__ import annotations

from typing import Any

from repro.runtime.backend import TuningError

#: every accepted ``Schedule`` value
SCHEDULES = ("static", "dynamic", "guided", "adaptive")

#: accepted names that plan as another schedule
ALIASES = {"adaptive": "guided"}

#: guided self-scheduling divisor: next chunk = remaining / (K * workers)
_GUIDED_K = 2


def normalize_schedule(name: Any) -> str:
    """The canonical name of a ``Schedule`` value, aliases resolved.

    Raises :class:`TuningError` on junk.
    """
    if isinstance(name, str) and name in SCHEDULES:
        return ALIASES.get(name, name)
    raise TuningError(
        f"Schedule must be one of {SCHEDULES}, got {name!r}"
    )


def plan_fixed(n: int, chunk_size: int) -> list[tuple[int, int]]:
    """Fixed-stride descriptors (the static/dynamic plan)."""
    if chunk_size <= 0:
        raise TuningError(
            f"ChunkSize must be >= 1, got {chunk_size} "
            "(zero or negative chunking emits no work)"
        )
    return [(i, min(i + chunk_size, n)) for i in range(0, n, chunk_size)]


def plan_guided(
    n: int, min_chunk: int, workers: int, start: int = 0
) -> list[tuple[int, int]]:
    """Guided self-scheduling descriptors over ``[start, n)``.

    Each descriptor takes ``ceil(remaining / (2 * workers))`` elements,
    never fewer than ``min_chunk`` (the ``ChunkSize`` knob, reinterpreted
    as the floor) — the classic OpenMP ``guided`` shape: big chunks
    early to amortize dispatch, geometrically shrinking chunks late so
    no worker is left holding a huge remainder while siblings idle.
    """
    if min_chunk <= 0:
        raise TuningError(f"ChunkSize must be >= 1, got {min_chunk}")
    workers = max(1, int(workers))
    out: list[tuple[int, int]] = []
    lo = start
    while lo < n:
        remaining = n - lo
        size = max(min_chunk, -(-remaining // (_GUIDED_K * workers)))
        hi = min(n, lo + size)
        out.append((lo, hi))
        lo = hi
    return out


def plan_chunks(
    n: int, chunk_size: int, schedule: str, workers: int = 4
) -> list[tuple[int, int]]:
    """The descriptor plan for one loop.

    ``static``/``dynamic`` keep the fixed stride; ``guided`` (and its
    alias ``adaptive``) shrinks geometrically.  This is the exact plan
    the runtime executes, so the cost simulator and the live dashboard
    see the real descriptors.
    """
    schedule = normalize_schedule(schedule)
    if schedule in ("static", "dynamic"):
        return plan_fixed(n, chunk_size)
    return plan_guided(n, chunk_size, workers)
