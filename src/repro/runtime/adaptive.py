"""Adaptive chunk scheduling: variable-size descriptors + online re-tuning.

The paper's performance validation is a *feedback cycle* — initialize,
execute, measure, next values (Fig. 4c) — but historically our runtime
only closed that cycle **between** runs (``repro tune``, the calibrated
tuner): within a run, every loop was locked to the single static
``ChunkSize``/``NumWorkers`` pair chosen up front.  For skewed or
drifting workloads that leaves speedup on the table: a chunk size that
amortizes dispatch overhead at the start of a triangular-cost loop is a
straggler factory at its end.

This module moves the feedback cycle *into* the run.  The ``Schedule``
tuning knob grows from ``{static, dynamic}`` to
``{static, dynamic, guided, adaptive}``:

* ``static`` / ``dynamic`` — unchanged: fixed-stride chunks, assigned
  round-robin (static) or claimed from a shared counter (dynamic);
* ``guided`` — OpenMP-style guided self-scheduling: the *plan* emits
  geometrically shrinking descriptors (``remaining / (2 * workers)``,
  floored at the ``ChunkSize`` knob, which becomes the minimum chunk),
  so early chunks amortize dispatch cost and late chunks load-balance
  the tail.  Workers still claim descriptors from the shared counter —
  the descriptors themselves encode the shrink;
* ``adaptive`` — an in-run controller (:class:`AdaptiveController`)
  dispatches the iteration space in **waves** and re-tunes between
  them, consuming the per-chunk latency feedback the ownership ledger
  already measures (claim → delivery): chunk size grows when chunks
  are too small to amortize dispatch, shrinks when they are long or
  show straggler skew, and the warm-pool width is re-tuned within the
  current :class:`~repro.runtime.backend.PoolSession` when measured
  utilization says workers are idling.  Every decision is emitted as
  an ``adapt`` trace span and ``adapt_*`` metrics.

Chunk identity is load-bearing everywhere — the ownership ledger,
respawn/re-dispatch, hedging, first-result-wins dedup, the chunk
journal, shm output slots — and all of it is *index*-based over a list
of ``(lo, hi)`` bounds, so variable-size descriptors ride the existing
machinery unchanged.  What generalizes is the **conservation
invariant**: ``chunks_completed - chunks_deduped`` no longer equals
``ceil(n / chunk_size)`` but the number of *planned descriptors*,
counted by the new ``chunks_planned`` metric and recorded in the chunk
journal as append-only ``plan`` records (so a resumed run re-executes
exactly the planned-but-unfinished descriptors, whatever their size).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.runtime.backend import TuningError
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.trace import TraceCollector

#: the four chunk-assignment disciplines, in increasing smarts order
SCHEDULES = ("static", "dynamic", "guided", "adaptive")

#: canonical tuning-parameter name (kept here with its domain)
SCHEDULE = "Schedule"

#: guided self-scheduling divisor: next chunk = remaining / (K * workers)
_GUIDED_K = 2

#: adaptive wave width: descriptors per worker per wave — two claims per
#: worker keep the pool busy while the controller thinks between waves
_WAVE_CHUNKS_PER_WORKER = 2

#: per-chunk latency window the controller steers into (seconds): below
#: the floor, dispatch overhead dominates and chunks double; above the
#: ceiling, tail imbalance dominates and chunks halve
TARGET_CHUNK_SECONDS = (0.01, 0.25)

#: a wave whose slowest chunk exceeds this multiple of its median is
#: skew evidence — shrink even inside the latency window
_STRAGGLER_RATIO = 3.0

#: pool-utilization thresholds for the width re-tune: busy-fraction of
#: the wave below the floor sheds a worker, above the ceiling regrows
#: one (never beyond the requested NumWorkers cap)
_UTIL_LOW, _UTIL_HIGH = 0.45, 0.85


def normalize_schedule(name: Any) -> str:
    """Validate a ``Schedule`` value; raises :class:`TuningError` on junk."""
    if isinstance(name, str) and name in SCHEDULES:
        return name
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
    """The single-shot descriptor plan for one loop.

    ``static``/``dynamic`` keep the historical fixed stride; ``guided``
    shrinks geometrically.  ``adaptive`` plans wave-by-wave
    (:class:`AdaptiveController`) on every backend — callers that need a
    whole plan up front (the cost simulator, the live dashboard) get the
    guided shape, which is the controller's zero-feedback prior.
    """
    schedule = normalize_schedule(schedule)
    if schedule in ("static", "dynamic"):
        return plan_fixed(n, chunk_size)
    return plan_guided(n, chunk_size, workers)


@dataclass
class AdaptDecision:
    """One recorded re-tuning decision of the in-run controller."""

    wave: int
    chunk_size: int
    workers: int
    reason: str

    def as_dict(self) -> dict[str, Any]:
        return {
            "wave": self.wave,
            "chunk_size": self.chunk_size,
            "workers": self.workers,
            "reason": self.reason,
        }


class AdaptiveController:
    """The in-run feedback controller behind ``Schedule=adaptive``.

    Plans the iteration space in waves of ``2 * workers`` descriptors at
    the current chunk size, then consumes the wave's per-chunk
    latencies (measured by the ownership ledger, claim → delivery) to
    re-tune before planning the next wave:

    * mean chunk latency below the target floor → chunk size doubles
      (dispatch overhead dominates);
    * mean above the target ceiling, or slowest chunk more than 3× the
      wave median (straggler skew) → chunk size halves;
    * measured pool utilization (busy-fraction across the wave) below
      45% → one worker is shed; above 85% → one worker is regrown, up
      to the requested ``NumWorkers`` cap.  On a warm pool the resize
      happens *within the current* ``PoolSession`` — workers retire or
      respawn between waves, never mid-call.

    The tail of the space is planned with the guided shrink at the
    floor chunk size, so the last wave never ends on one giant
    straggler.  Every decision lands as an ``adapt`` trace instant and
    in the ``adapt_*`` metric family; the decision history is kept on
    :attr:`decisions` for reports and tests.
    """

    def __init__(
        self,
        n: int,
        chunk_size: int,
        workers: int,
        *,
        start: int = 0,
        min_chunk: int = 1,
        target: tuple[float, float] = TARGET_CHUNK_SECONDS,
        trace: TraceCollector | None = None,
        metrics: MetricsRegistry | None = None,
        label: str = "loop",
    ) -> None:
        if chunk_size <= 0:
            raise TuningError(f"ChunkSize must be >= 1, got {chunk_size}")
        self.n = int(n)
        self.cap = max(1, int(workers))
        self.workers = self.cap
        self.min_chunk = max(1, int(min_chunk))
        # the knob is a starting hint, clamped so the space yields at
        # least a few waves of feedback; a knob larger than the clamp
        # would hand the whole space to wave one and never adapt
        self.max_chunk = max(
            self.min_chunk, -(-self.n // (_GUIDED_K * self.cap)) or 1
        )
        self.chunk = min(max(self.min_chunk, int(chunk_size)), self.max_chunk)
        self.target_low, self.target_high = target
        self.pos = int(start)
        self.wave = 0
        self.trace = trace
        self.metrics = metrics
        self.label = label
        self.decisions: list[AdaptDecision] = []

    @property
    def done(self) -> bool:
        return self.pos >= self.n

    def next_wave(self) -> list[tuple[int, int]]:
        """Plan the next wave of descriptors from the current position.

        A full wave is ``2 * workers`` descriptors at the current chunk
        size; once the remainder fits inside one wave, the tail is
        planned with the guided shrink (floored at ``min_chunk``) so
        the run ends on small, balanced descriptors.
        """
        if self.done:
            return []
        self.wave += 1
        remaining = self.n - self.pos
        span = self.chunk * self.workers * _WAVE_CHUNKS_PER_WORKER
        if remaining <= span:
            bounds = plan_guided(
                self.n, self.min_chunk, self.workers, start=self.pos
            )
        else:
            end = self.pos + span
            bounds = [
                (lo, min(lo + self.chunk, end))
                for lo in range(self.pos, end, self.chunk)
            ]
        self.pos = bounds[-1][1]
        if self.metrics is not None:
            self.metrics.inc("adapt_waves", stage=self.label)
        return bounds

    def observe(
        self, latencies: list[float], elapsed: float
    ) -> AdaptDecision | None:
        """Consume one wave's per-chunk latencies; re-tune for the next.

        ``latencies`` are claim-to-delivery seconds from the ownership
        ledger; ``elapsed`` is the wave's wall-clock.  Returns the
        decision when anything changed, ``None`` for a steady wave.
        """
        if not latencies or self.done:
            return None
        reasons: list[str] = []
        durs = sorted(latencies)
        mean = sum(durs) / len(durs)
        median = durs[len(durs) // 2]
        slowest = durs[-1]

        new_chunk = self.chunk
        if median > 0 and slowest > _STRAGGLER_RATIO * median:
            new_chunk = max(self.min_chunk, self.chunk // 2)
            if new_chunk != self.chunk:
                reasons.append(
                    f"straggler skew (max {slowest:.3f}s vs median "
                    f"{median:.3f}s): chunk {self.chunk} -> {new_chunk}"
                )
        elif mean > self.target_high:
            new_chunk = max(self.min_chunk, self.chunk // 2)
            if new_chunk != self.chunk:
                reasons.append(
                    f"chunks too long (mean {mean:.3f}s): "
                    f"chunk {self.chunk} -> {new_chunk}"
                )
        elif mean < self.target_low:
            new_chunk = min(self.max_chunk, self.chunk * 2)
            if new_chunk != self.chunk:
                reasons.append(
                    f"dispatch-bound (mean {mean:.3f}s): "
                    f"chunk {self.chunk} -> {new_chunk}"
                )

        new_workers = self.workers
        if elapsed > 0 and len(durs) >= self.workers:
            busy = sum(durs) / (elapsed * self.workers)
            if busy < _UTIL_LOW and self.workers > 1:
                new_workers = self.workers - 1
                reasons.append(
                    f"pool idling (utilization {busy:.0%}): "
                    f"workers {self.workers} -> {new_workers}"
                )
            elif busy > _UTIL_HIGH and self.workers < self.cap:
                new_workers = self.workers + 1
                reasons.append(
                    f"pool saturated (utilization {busy:.0%}): "
                    f"workers {self.workers} -> {new_workers}"
                )

        if not reasons:
            return None
        decision = AdaptDecision(
            wave=self.wave,
            chunk_size=new_chunk,
            workers=new_workers,
            reason="; ".join(reasons),
        )
        self._apply(decision, grew=new_chunk > self.chunk)
        return decision

    def _apply(self, decision: AdaptDecision, grew: bool) -> None:
        self.chunk = decision.chunk_size
        self.workers = decision.workers
        self.decisions.append(decision)
        if self.trace is not None:
            self.trace.instant(
                "adapt", self.label, self.pos,
                wave=decision.wave, chunk_size=decision.chunk_size,
                workers=decision.workers, reason=decision.reason,
            )
        if self.metrics is not None:
            self.metrics.inc("adapt_retunes", stage=self.label)
            self.metrics.inc(
                "adapt_grows" if grew else "adapt_shrinks",
                stage=self.label,
            )
            self.metrics.gauge(
                "adapt_chunk_size", stage=self.label
            ).set(decision.chunk_size)
            self.metrics.gauge(
                "adapt_workers", stage=self.label
            ).set(decision.workers)


@dataclass
class WaveResult:
    """What one dispatched wave reported back to the controller."""

    #: wave-local chunk index -> claim-to-delivery seconds
    latencies: dict[int, float] = field(default_factory=dict)
    elapsed: float = 0.0


def run_adaptive(
    controller: AdaptiveController,
    dispatch: Callable[[list[tuple[int, int]], list[int], int], WaveResult],
    *,
    journal: Any = None,
    replay: dict[int, tuple[int, int]] | None = None,
    base: int = 0,
) -> int:
    """Drive the wave loop: replay, plan, dispatch, observe, repeat.

    ``dispatch(bounds, indices, workers)`` executes one wave of
    descriptors (on any executor — the caller's closure);
    ``indices[j]`` is the *run-wide* chunk index of ``bounds[j]`` —
    its chaos stream, profiler window and journal identity.  ``replay``
    holds descriptors a resumed journal planned but never finished —
    they are re-dispatched verbatim under their original (possibly
    sparse) indices before any new wave is planned, so chunk identity
    survives the resume round-trip.  New waves are appended to
    ``journal`` as ``plan`` records *before* dispatch (plan-ahead
    logging: a kill mid-wave leaves the plan on disk, so the next resume
    re-executes exactly the planned descriptors).  Every dispatched
    descriptor — replayed or fresh — counts into ``chunks_planned``,
    the generalized conservation denominator for this run:
    ``chunks_completed - chunks_deduped = chunks_planned``.  Returns
    the total number of descriptors dispatched.
    """
    dispatched = 0

    def one_wave(bounds: list[tuple[int, int]], indices: list[int]) -> None:
        nonlocal dispatched
        if controller.metrics is not None:
            controller.metrics.inc(
                "chunks_planned", len(bounds), stage=controller.label
            )
        started = time.monotonic()
        result = dispatch(bounds, indices, controller.workers)
        controller.observe(
            list(result.latencies.values()),
            result.elapsed or (time.monotonic() - started),
        )
        dispatched += len(bounds)

    if replay:
        items = sorted(replay.items())
        one_wave([b for _k, b in items], [k for k, _b in items])
    while not controller.done:
        bounds = controller.next_wave()
        if not bounds:
            break
        if journal is not None:
            journal.plan(base, bounds)
        one_wave(bounds, list(range(base, base + len(bounds))))
        base += len(bounds)
    return dispatched

