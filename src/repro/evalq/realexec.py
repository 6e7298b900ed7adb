"""Real-execution backend sweep: measured wall-clock, not the simulator.

The transformation-quality metric (:mod:`repro.evalq.speedup`) scores
generated code on the *cost simulator*, which is deterministic but
assumes workers scale.  This module closes the loop the paper's Fig. 6
actually drew: run CPU-bound kernels through the real runtime under each
execution backend and measure wall-clock time.  Under CPython the
expected shape is stark — ``thread`` clusters around ``serial`` (the GIL
serializes CPU-bound bodies) while ``process`` approaches the core
count.

The kernels are module-level functions bound with :func:`functools.partial`,
so they are plainly picklable — the sweep measures backend cost, not
function-shipping cost.  Each kernel returns a checksum so the sweep can
assert identical results across backends before reporting any number.
"""

from __future__ import annotations

import functools
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.runtime.backend import BACKENDS, BackendEvent
from repro.runtime.parallel_for import parallel_for


def available_cores() -> int:
    """CPUs this process may actually use (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# CPU-bound kernels (pure python, no deps, deterministic)
# ---------------------------------------------------------------------------

def mandelbrot_row(y: int, *, width: int, height: int, max_iter: int) -> int:
    """Escape-time iteration count summed over one image row."""
    total = 0
    ci = (y / height) * 2.0 - 1.0
    for x in range(width):
        cr = (x / width) * 3.0 - 2.0
        zr = zi = 0.0
        it = 0
        while it < max_iter and zr * zr + zi * zi <= 4.0:
            zr, zi = zr * zr - zi * zi + cr, 2.0 * zr * zi + ci
            it += 1
        total += it
    return total


def montecarlo_block(block: int, *, samples: int) -> int:
    """In-circle hit count for one block of LCG-generated points."""
    state = (block * 2654435761 + 1) & 0xFFFFFFFF
    hits = 0
    for _ in range(samples):
        state = (1664525 * state + 1013904223) & 0xFFFFFFFF
        x = state / 0xFFFFFFFF
        state = (1664525 * state + 1013904223) & 0xFFFFFFFF
        y = state / 0xFFFFFFFF
        if x * x + y * y <= 1.0:
            hits += 1
    return hits


def nbody_partial(i: int, *, positions: tuple) -> float:
    """Accumulated pairwise force magnitude for body ``i``."""
    xi, yi, zi = positions[i]
    acc = 0.0
    for j, (xj, yj, zj) in enumerate(positions):
        if j == i:
            continue
        dx, dy, dz = xj - xi, yj - yi, zj - zi
        d2 = dx * dx + dy * dy + dz * dz + 1e-9
        acc += 1.0 / d2
    return acc


def _nbody_positions(n: int) -> tuple:
    state = 12345
    out = []
    for _ in range(n):
        coords = []
        for _ in range(3):
            state = (1103515245 * state + 12345) & 0x7FFFFFFF
            coords.append(state / 0x7FFFFFFF)
        out.append(tuple(coords))
    return tuple(out)


@dataclass
class Kernel:
    """One sweepable workload: a picklable body over an index range."""

    name: str
    body: Callable[[int], Any]
    values: Sequence[int]
    chunk_size: int
    combine: Callable[[list[Any]], Any]


def default_kernels(scale: float = 1.0) -> list[Kernel]:
    """The CPU-bound sweep set; ``scale`` stretches the work per element.

    Sized so one serial pass takes a few hundred milliseconds at
    ``scale=1.0`` — long enough to dwarf pool setup, short enough for CI.
    """
    s = max(scale, 0.02)
    width = max(16, int(320 * s))
    rows = max(8, int(120 * s))
    mand = functools.partial(
        mandelbrot_row, width=width, height=rows, max_iter=200
    )
    samples = max(500, int(40_000 * s))
    monte = functools.partial(montecarlo_block, samples=samples)
    bodies = max(16, int(1500 * s))
    nbody = functools.partial(
        nbody_partial, positions=_nbody_positions(bodies)
    )
    return [
        Kernel("mandelbrot", mand, range(rows), max(1, rows // 16), sum),
        Kernel("montecarlo", monte, range(32), 2, sum),
        Kernel("nbody", nbody, range(bodies), max(1, bodies // 16), sum),
    ]


@dataclass
class SweepRow:
    """One (kernel, backend) measurement."""

    kernel: str
    backend: str
    workers: int
    elapsed: float
    speedup: float  # vs the same kernel's serial run
    checksum: Any
    downgraded: bool = False
    events: list[dict] = field(default_factory=list)

    def as_dict(self) -> dict[str, Any]:
        return {
            "kernel": self.kernel,
            "backend": self.backend,
            "workers": self.workers,
            "elapsed_s": round(self.elapsed, 6),
            "speedup_vs_serial": round(self.speedup, 3),
            "checksum": self.checksum,
            "downgraded": self.downgraded,
            "events": self.events,
        }


def sweep_backends(
    kernels: Sequence[Kernel] | None = None,
    backends: Sequence[str] = BACKENDS,
    workers: int = 4,
    scale: float = 1.0,
    repeats: int = 1,
    transport: str = "pickle",
    schedule: str = "dynamic",
) -> list[SweepRow]:
    """Run every kernel under every backend; measure and cross-check.

    Each row's checksum must match the kernel's serial checksum — a
    backend that returned different results would make its timing
    meaningless, so the sweep raises instead of reporting it.

    ``transport`` selects the process backend's data plane for the
    sweep (ignored by serial/thread rows); a transport downgrade
    surfaces in the row's events like a backend downgrade does.
    ``schedule`` picks the chunk discipline (static / dynamic / guided;
    adaptive is guided's alias) for the pooled rows — schedules change
    timing, never results, which the checksum cross-check enforces.
    """
    kernels = default_kernels(scale) if kernels is None else list(kernels)
    rows: list[SweepRow] = []
    for kernel in kernels:
        serial_elapsed: float | None = None
        serial_checksum: Any = None
        for backend in backends:
            best = float("inf")
            checksum = None
            events: list[BackendEvent] = []
            for _ in range(max(1, repeats)):
                events = []
                started = time.perf_counter()
                results = parallel_for(
                    kernel.values,
                    kernel.body,
                    workers=workers,
                    chunk_size=kernel.chunk_size,
                    schedule=schedule,
                    backend=backend,
                    events=events,
                    transport=transport,
                )
                best = min(best, time.perf_counter() - started)
                checksum = kernel.combine(results)
            if backend == "serial":
                serial_elapsed, serial_checksum = best, checksum
            elif serial_checksum is not None and checksum != serial_checksum:
                raise AssertionError(
                    f"{kernel.name}: backend {backend!r} checksum "
                    f"{checksum!r} != serial {serial_checksum!r}"
                )
            rows.append(
                SweepRow(
                    kernel=kernel.name,
                    backend=backend,
                    workers=1 if backend == "serial" else workers,
                    elapsed=best,
                    speedup=(
                        serial_elapsed / best
                        if serial_elapsed and best > 0
                        else 1.0
                    ),
                    checksum=checksum,
                    downgraded=any(e.actual != e.requested for e in events),
                    events=[e.as_dict() for e in events],
                )
            )
    return rows


def render_table(rows: Sequence[SweepRow]) -> str:
    """The sweep as an aligned text table (CLI output)."""
    lines = [
        f"{'kernel':<12}{'backend':<9}{'workers':>8}"
        f"{'elapsed':>10}{'speedup':>9}  notes",
        "-" * 58,
    ]
    for r in rows:
        notes = "downgraded->thread" if r.downgraded else ""
        lines.append(
            f"{r.kernel:<12}{r.backend:<9}{r.workers:>8}"
            f"{r.elapsed:>9.3f}s{r.speedup:>8.2f}x  {notes}"
        )
    return "\n".join(lines)


def sweep_payload(
    rows: Sequence[SweepRow], workers: int, scale: float
) -> dict[str, Any]:
    """The JSON document the bench results file stores.

    Keeps the historical ``rows`` key (per-measurement detail) and adds
    the schema-envelope ``results`` list (see
    :mod:`repro.benchresults`) so ``repro bench report`` parses this
    family through the same reader as every other benchmark.
    """
    from repro.benchresults import result_doc

    return result_doc(
        "backend_speedup",
        [
            {
                "label": f"{r.kernel}/{r.backend}",
                "seconds": r.elapsed,
                "speedup": r.speedup,
                **({"note": "downgraded to thread"} if r.downgraded else {}),
            }
            for r in rows
        ],
        workers=workers,
        scale=scale,
        cores_available=available_cores(),
        gil_note=(
            "thread backend cannot speed up CPU-bound bodies under "
            "CPython; process backend uses real cores"
        ),
        rows=[r.as_dict() for r in rows],
    )


def write_results(
    rows: Sequence[SweepRow], path: str, workers: int, scale: float
) -> None:
    from repro.benchresults import write_result_doc

    write_result_doc(path, sweep_payload(rows, workers, scale))
