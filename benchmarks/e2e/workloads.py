"""The five workloads: seeded inputs, loop bodies, references, checks.

Loop bodies are module-level functions of this importable module: a
process pool pickles them by reference, which a body defined in a
script run as ``__main__`` would not survive.  Nothing here imports
``repro`` at module level, so a set-up probe can time ``import
repro.runtime`` itself; each ``call`` imports the runtime lazily and
resolves ``rt.parallel_for`` (and friends) at call time, which is the
name the outside-in tracer wraps.

Every workload makes its inputs from ``random.Random(f"{name}:{seed}")``
alone; the runtime only ever sees the generated lists.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import operator
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

WORKERS = 2

_COEFFS = (7, 3, 11, 5, 13, 2, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
_MOD = 1_000_003


def poly(x: int) -> int:
    """A ~2 µs integer polynomial (Horner, reduced mod a prime)."""
    acc = 0
    for c in _COEFFS:
        acc = (acc * x + c) % _MOD
    return acc


class PoisonError(ValueError):
    """Raised by the supervised body for a seeded poison element."""


def poly_guarded(x: int) -> int:
    if x < 0:
        raise PoisonError(x)
    return poly(x)


def spin(k: int) -> int:
    """``k`` steps of a linear congruential generator seeded with ``k``."""
    s = k
    for _ in range(k):
        s = (s * 1103515245 + 12345) & 0x7FFFFFFF
    return s


def square_half(x: float) -> float:
    return x * x + 0.5


def parse(x: int) -> int:
    return x ^ 0x5A5A5


def compute(x: int) -> int:
    acc = 0
    for c in _COEFFS[:6]:
        acc = (acc * x + c) % _MOD
    return acc


def emit(x: int) -> int:
    return x % 9973


def pipeline_body(x: int) -> int:
    """The three pipeline stages composed: the sequential loop body."""
    return emit(compute(parse(x)))


def _runtime():
    import repro.runtime

    return repro.runtime


@dataclass
class Outcome:
    """What one pattern call produced, plus the evidence checks read."""

    value: Any
    ledger: list | None = None
    events: list | None = None
    journal: Path | None = None
    trace: Any = None
    metrics: Any = None


class StageClock:
    """Times the benchmark's own pipeline stage bodies (traced run only)."""

    def __init__(self) -> None:
        self.busy: dict[str, list[float]] = {}

    def wrap(self, fn: Callable[[Any], Any], stage: str) -> Callable:
        sink = self.busy.setdefault(stage, [])
        clock = time.perf_counter

        def timed(x: Any) -> Any:
            t0 = clock()
            out = fn(x)
            sink.append(clock() - t0)  # list.append is atomic
            return out

        return timed

    def totals(self) -> dict[str, float]:
        return {stage: sum(v) for stage, v in self.busy.items()}


class Workload:
    """One set of inputs and the pattern call that consumes them."""

    name = ""
    why = ""
    #: elements per call at full size and in ``--smoke`` mode
    sizes = (0, 0)

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        self.workdir = Path(workdir)
        self.n = self.sizes[1] if smoke else self.sizes[0]
        rng = random.Random(f"{self.name}:{seed}")
        self.values: list[Any] = self.make(rng, smoke)
        self.expected = self.reference()

    def make(self, rng: random.Random, smoke: bool) -> list[Any]:
        raise NotImplementedError

    def reference(self) -> Any:
        return self.bare()

    def call(self, clock: StageClock | None = None) -> Outcome:
        raise NotImplementedError

    def bare(self) -> Any:
        """The plain sequential loop over the same inputs."""
        raise NotImplementedError

    def check(self, outcome: Outcome) -> str | None:
        """``None`` when the output is right, else what is wrong."""
        if outcome.value != self.expected:
            return "output differs from the sequential reference"
        return None

    def cleanup(self, outcome: Outcome) -> None:
        """Remove what a call left on disk (after checking it)."""

    def ladder(self) -> tuple[list[Any], Callable[[Any], Any], int]:
        """``(values, element body, chunk size)`` for the per-element
        ladder: inputs no element of which fails."""
        raise NotImplementedError

    def fingerprint(self) -> str:
        return hashlib.sha256(repr(self.values).encode()).hexdigest()


class DoallFine(Workload):
    name = "doall-fine"
    why = (
        "a ~2 us body over 30 000 ints on a warm process pool: pickling, "
        "dispatch, result transport and assembly dominate the call"
    )
    sizes = (30_000, 1_500)
    chunk = 500

    def make(self, rng, smoke):
        return [rng.randrange(1 << 31) for _ in range(self.n)]

    def call(self, clock=None):
        rt = _runtime()
        return Outcome(rt.parallel_for(
            self.values, poly, workers=WORKERS, chunk_size=self.chunk,
            schedule="dynamic", backend="process", transport="pickle",
            reuse=True,
        ))

    def bare(self):
        out = []
        for v in self.values:
            out.append(poly(v))
        return out

    def ladder(self):
        return self.values, poly, self.chunk


class DoallSkewed(Workload):
    name = "doall-skewed"
    why = (
        "Pareto-skewed LCG spins under Schedule=adaptive: compute and load "
        "balance decide the time, so the scheduler is the layer under test"
    )
    sizes = (750, 60)
    chunk = 4
    #: total spin steps per call; the Pareto draws are rescaled to it so
    #: every seed asks for the same work and only its placement varies
    totals = (450_000, 30_000)

    def make(self, rng, smoke):
        raw = [
            min(60_000, int(rng.paretovariate(1.2) * 200))
            for _ in range(self.n)
        ]
        total = self.totals[1] if smoke else self.totals[0]
        scale = total / sum(raw)
        return [max(1, round(c * scale)) for c in raw]

    def call(self, clock=None):
        rt = _runtime()
        return Outcome(rt.parallel_for(
            self.values, spin, workers=WORKERS, chunk_size=self.chunk,
            schedule="adaptive", backend="process", reuse=True,
        ))

    def bare(self):
        out = []
        for v in self.values:
            out.append(spin(v))
        return out

    def ladder(self):
        return self.values, spin, self.chunk


class DoallSupervised(Workload):
    name = "doall-supervised"
    why = (
        "every cross-cutting feature on (policy, ledger, trace, metrics, "
        "journal) on the thread backend, with 5 poison elements"
    )
    sizes = (5_000, 500)
    chunk = 250
    poison = 5

    def make(self, rng, smoke):
        values = list(range(1, self.n + 1))
        rng.shuffle(values)
        self.poisoned = sorted(rng.sample(range(self.n), self.poison))
        for i in self.poisoned:
            values[i] = -values[i]
        self._calls = itertools.count()
        return values

    def call(self, clock=None):
        rt = _runtime()
        path = self.workdir / f"journal-{next(self._calls)}.rpj"
        journal = rt.ChunkJournal.create(path, flush="batch")
        ledger: list = []
        trace = rt.TraceCollector()
        metrics = rt.MetricsRegistry()
        try:
            value = rt.parallel_for(
                self.values, poly_guarded, workers=WORKERS,
                chunk_size=self.chunk, backend="thread",
                policy=rt.FaultPolicy(
                    retries=1, backoff=0, on_error="fallback", fallback=-1
                ),
                ledger=ledger, trace=trace, metrics=metrics,
                checkpoint=journal,
            )
        finally:
            journal.close()
        return Outcome(
            value, ledger=ledger, journal=path, trace=trace, metrics=metrics
        )

    def bare(self):
        out = []
        for v in self.values:
            try:
                out.append(poly_guarded(v))
            except PoisonError:
                out.append(-1)
        return out

    def check(self, outcome):
        wrong = super().check(outcome)
        if wrong:
            return wrong
        seqs = sorted(r.seq for r in outcome.ledger or ())
        if seqs != self.poisoned:
            return (
                f"ledger holds {len(seqs)} record(s) at {seqs[:8]}, "
                f"expected {self.poison} at {self.poisoned}"
            )
        if outcome.journal is None or not outcome.journal.is_file():
            return "the chunk journal is missing after the call"
        return None

    def cleanup(self, outcome):
        if outcome.journal is not None:
            outcome.journal.unlink(missing_ok=True)

    def ladder(self):
        clean = [v for v in self.values if v > 0]
        return clean, poly_guarded, self.chunk


class PipelineStream(Workload):
    name = "pipeline-stream"
    why = (
        "a 3-stage pipeline with a replicated compute stage: hand-off "
        "through bounded buffers dominates, and parallel_for is bypassed"
    )
    sizes = (1_000, 100)

    def make(self, rng, smoke):
        return [rng.randrange(1 << 20) for _ in range(self.n)]

    def call(self, clock=None):
        rt = _runtime()
        bodies = [parse, compute, emit]
        if clock is not None:
            bodies = [
                clock.wrap(fn, stage)
                for fn, stage in zip(bodies, ("parse", "compute", "emit"))
            ]
        pipe = rt.Pipeline(
            rt.Item(bodies[0], name="parse"),
            rt.Item(bodies[1], name="compute", replicable=True),
            rt.Item(bodies[2], name="emit"),
        )
        pipe.configure({"StageReplication@compute": 2})
        return Outcome(pipe.run(self.values))

    def bare(self):
        out = []
        for v in self.values:
            out.append(emit(compute(parse(v))))
        return out

    def ladder(self):
        return self.values, pipeline_body, 250


class ReduceShm(Workload):
    name = "reduce-shm"
    why = (
        "a sum over 500 000 floats with shared-memory input: one partial "
        "per chunk comes back, the data plane opposite to doall-fine"
    )
    sizes = (500_000, 20_000)
    chunk = 10_000

    def make(self, rng, smoke):
        return [rng.uniform(-100.0, 100.0) for _ in range(self.n)]

    def reference(self):
        return math.fsum(square_half(v) for v in self.values)

    def call(self, clock=None):
        rt = _runtime()
        events: list = []
        value = rt.parallel_reduce(
            self.values, square_half, operator.add, 0.0, workers=WORKERS,
            chunk_size=self.chunk, backend="process", transport="shm",
            reuse=True, events=events,
        )
        return Outcome(value, events=events)

    def bare(self):
        acc = 0.0
        for v in self.values:
            acc += square_half(v)
        return acc

    def check(self, outcome):
        if not isinstance(outcome.value, float):
            return f"result is {type(outcome.value).__name__}, not float"
        if abs(outcome.value - self.expected) > 1e-9 * abs(self.expected):
            return (
                f"sum {outcome.value!r} is not within 1e-9 of the "
                f"fsum reference {self.expected!r}"
            )
        if outcome.events:
            return f"backend events (shm downgrade): {outcome.events}"
        return None

    def ladder(self):
        return self.values, square_half, self.chunk


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (
        DoallFine, DoallSkewed, DoallSupervised, PipelineStream, ReduceShm,
    )
}


def build(name: str, seed: int, smoke: bool, workdir: Path) -> Workload:
    try:
        cls = WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}"
        ) from None
    return cls(seed, smoke, workdir)
