"""Schedule cost on skewed work: static vs dynamic vs guided vs adaptive.

The classic failure mode of static striping is a *triangular* workload —
element cost grows linearly with index, so with a large chunk size the
worker that draws the tail does almost all the work while the others
idle.  ``dynamic`` with the same large chunk barely helps (the chunks
are still huge); ``guided`` shrinks descriptors geometrically so the
expensive tail is split fine; ``adaptive`` is an alias of ``guided``
and runs the same guided plan, so its row checks that the alias keeps
``guided``'s cost.

This benchmark runs the same triangular loop under all four values of
``Schedule@loop`` on the process backend (warm pool, so pool spawn is
charged once up front and the schedules race on equal footing), with
``chunk_size = n // workers`` — the adversarial setting where static
and dynamic degenerate to one huge chunk per worker.

Gate (≥4 cores): ``guided`` and ``adaptive`` each at least 1.15× faster
than ``static``.  Full runs persist to
``benchmarks/results/adaptive_speedup.json`` (schema
``adaptive_speedup/v1``; ``gated`` records whether the machine was big
enough to assert); ``--smoke`` writes
``benchmarks/results/smoke/adaptive_speedup.json`` instead.  Also
runnable standalone::

    PYTHONPATH=src python benchmarks/bench_adaptive.py --smoke
"""

import pathlib
import sys
import time

from repro.evalq.realexec import available_cores
from repro.runtime import parallel_for, shutdown_sessions

RESULTS_PATH = (
    pathlib.Path(__file__).parent / "results" / "adaptive_speedup.json"
)
SMOKE_PATH = RESULTS_PATH.parent / "smoke" / RESULTS_PATH.name

SCHEDULES = ("static", "dynamic", "guided", "adaptive")

# Spin-loop iterations per unit of cost.  Sized so the full workload
# takes a few seconds serial at the default n — enough to dwarf pool
# chatter, small enough for CI.
SPIN = 400


def triangular(i: int) -> int:
    """CPU cost proportional to the index — the skewed DOALL body."""
    acc = 0
    for k in range((i + 1) * SPIN):
        acc = (acc + k) & 0xFFFFFFFF
    return acc


def _timed(vals, *, workers, chunk_size, schedule, repeats=1):
    """Best-of-``repeats`` wall clock; asserts result parity en route."""
    best = float("inf")
    out = None
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        out = parallel_for(
            vals, triangular,
            workers=workers, chunk_size=chunk_size, schedule=schedule,
            backend="process", reuse=True,
        )
        best = min(best, time.perf_counter() - started)
    assert out == [triangular(v) for v in vals], f"{schedule}: parity"
    return best


def adaptive_sweep(n: int = 96, workers: int = 4, repeats: int = 3) -> dict:
    """Measure every schedule on the triangular loop; returns payload."""
    vals = list(range(n))
    # one huge chunk per worker: the setting where fixed schedules lose
    chunk_size = max(1, n // workers)
    elapsed: dict[str, float] = {}
    try:
        # warm-up charges pool spawn + kernel ship once, off the clock
        _timed(vals[: max(workers, 4)], workers=workers,
               chunk_size=1, schedule="dynamic")
        for schedule in SCHEDULES:
            elapsed[schedule] = _timed(
                vals, workers=workers, chunk_size=chunk_size,
                schedule=schedule, repeats=repeats,
            )
    finally:
        shutdown_sessions()

    cores = available_cores()
    static_s = elapsed["static"]

    def speedup(s: str) -> float:
        return round(static_s / elapsed[s], 3) if elapsed[s] else 0.0

    from repro.benchresults import result_doc

    return result_doc(
        "adaptive_speedup",
        [
            {
                "label": f"schedule {s}",
                "seconds": round(elapsed[s], 6),
                "speedup": speedup(s),
                "note": "baseline" if s == "static" else "vs static",
            }
            for s in SCHEDULES
        ],
        cores_available=cores,
        gated=cores >= 4,
        workers=workers,
        n=n,
        chunk_size=chunk_size,
        schedules={s: round(elapsed[s], 6) for s in SCHEDULES},
        guided_speedup=speedup("guided"),
        adaptive_speedup=speedup("adaptive"),
    )


def render(payload: dict) -> str:
    lines = [
        f"triangular-cost DOALL, n={payload['n']}, "
        f"chunk_size={payload['chunk_size']}, "
        f"{payload['workers']} workers, "
        f"{payload['cores_available']} core(s)",
    ]
    static_s = payload["schedules"]["static"]
    for s in SCHEDULES:
        secs = payload["schedules"][s]
        rel = static_s / secs if secs else 0.0
        lines.append(f"  {s:<9}{secs:>9.4f}s  {rel:>6.2f}x vs static")
    lines.append(
        f"  gates {'ASSERTED' if payload['gated'] else 'SKIPPED (<4 cores)'}"
    )
    return "\n".join(lines)


def _write(payload: dict, path: pathlib.Path = RESULTS_PATH) -> None:
    from repro.benchresults import write_result_doc

    write_result_doc(path, payload)


def _assert_gates(payload: dict) -> None:
    for knob in ("guided_speedup", "adaptive_speedup"):
        got = payload[knob]
        assert got >= 1.15, (
            f"{knob} {got:.2f}x < 1.15x over static "
            f"(times: {payload['schedules']})"
        )


def test_adaptive_speedup(benchmark, record):
    """The schedule gates, asserted only where cores make them fair."""
    from conftest import once

    payload = once(benchmark, adaptive_sweep)
    _write(payload)
    record(render(payload), name="adaptive_speedup")
    if payload["gated"]:
        _assert_gates(payload)


def _smoke(workers: int) -> dict:
    """CI parity pass: tiny n, every schedule, no timing asserts."""
    vals = list(range(24))
    expect = [triangular(v) for v in vals]
    try:
        for schedule in SCHEDULES:
            got = parallel_for(
                vals, triangular, workers=workers,
                chunk_size=max(1, len(vals) // workers),
                schedule=schedule, backend="process", reuse=True,
            )
            assert got == expect, schedule
    finally:
        shutdown_sessions()
    return adaptive_sweep(n=24, workers=workers, repeats=1)


def main(argv: list[str] | None = None) -> int:
    """Standalone entry: ``python benchmarks/bench_adaptive.py [--smoke]``."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny n; all-schedule parity cross-check, "
                             "no timing assertions")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--n", type=int, default=96)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    if args.smoke:
        payload, path = _smoke(args.workers), SMOKE_PATH
    else:
        payload = adaptive_sweep(n=args.n, workers=args.workers,
                                 repeats=args.repeats)
        path = RESULTS_PATH
    _write(payload, path)
    print(render(payload))
    print(f"results written to {path}")
    if not args.smoke and payload["gated"]:
        _assert_gates(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
