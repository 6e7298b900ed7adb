"""Data-plane cost: shared-memory transport and warm pool reuse.

The process backend's historical data plane pickles the whole input to
every worker and pickles every chunk's results back through one queue —
for a flat numeric DOALL with a cheap body, IPC *is* the runtime.  This
benchmark measures the two knobs that attack it (`Transport@loop`,
`PoolReuse@loop`):

* **transport**: `shm` vs `pickle` on a large flat-int loop, both on a
  warm pool so transport is the only variable.  Gate (≥4 cores):
  `shm` at least 2× faster.
* **pool reuse**: a warm session's call vs a cold call (a one-call
  session: spawn + run + teardown) on a tiny workload where setup
  dominates.  Gate (≥4 cores): warm pays < 25% of cold.

Each figure is the median of ``--repeats`` calls (default 9), recorded
with its quartiles (``*_quartiles_s``), so a reader can see the spread
of the machine the doc was measured on.  Full runs persist to
``benchmarks/results/ipc_speedup.json`` (schema ``ipc_speedup/v1``;
``gated`` records whether the machine was big enough to assert);
``--smoke`` writes ``benchmarks/results/smoke/ipc_speedup.json``
instead, so a smoke never overwrites the committed figures.  Also
runnable standalone::

    PYTHONPATH=src python benchmarks/bench_ipc.py --smoke
"""

import pathlib
import statistics
import sys
import time

from repro.evalq.realexec import available_cores
from repro.runtime import parallel_for, shutdown_sessions

RESULTS_PATH = pathlib.Path(__file__).parent / "results" / "ipc_speedup.json"
SMOKE_PATH = RESULTS_PATH.parent / "smoke" / RESULTS_PATH.name


def triple(x: int) -> int:
    """Deliberately trivial: the measurement is the data plane."""
    return x * 3


def _timed(vals, *, workers, chunk_size, transport, reuse, repeats):
    """``(q1, median, q3)`` of ``repeats`` wall clocks (at least 3) in
    seconds; asserts the results en route."""
    times = []
    for _ in range(max(3, repeats)):
        started = time.perf_counter()
        out = parallel_for(
            vals, triple,
            workers=workers, chunk_size=chunk_size, backend="process",
            transport=transport, reuse=reuse,
        )
        times.append(time.perf_counter() - started)
        assert out == [v * 3 for v in vals], "data-plane parity violated"
    return statistics.quantiles(times, n=4, method="inclusive")


def ipc_sweep(n: int = 200_000, workers: int = 4, repeats: int = 9) -> dict:
    """Measure both knobs; returns the results-file payload."""
    vals = list(range(n))
    chunk_size = max(1, n // 32)
    timed = {}
    try:
        # --- transport: pickle vs shm, both warm (one warm-up call
        # each charges the pool spawn and the kernel ship) ---
        for transport in ("pickle", "shm"):
            parallel_for(vals, triple, workers=workers,
                         chunk_size=chunk_size, backend="process",
                         transport=transport, reuse=True)
            timed[transport] = _timed(
                vals, workers=workers, chunk_size=chunk_size,
                transport=transport, reuse=True, repeats=repeats,
            )

        # --- pool reuse: tiny workload, setup-dominated.  Each cold
        # call spawns and tears down a one-call session; the warm calls
        # ride the session the warm-up above already paid for. ---
        tiny = list(range(64))
        for pool, reuse in (("cold", False), ("warm", True)):
            timed[pool] = _timed(tiny, workers=workers, chunk_size=1,
                                 transport="pickle", reuse=reuse,
                                 repeats=repeats)
    finally:
        shutdown_sessions()

    median = {k: round(q[1], 6) for k, q in timed.items()}
    spread = {k: [round(q[0], 6), round(q[2], 6)] for k, q in timed.items()}
    pickle_s, shm_s = median["pickle"], median["shm"]
    cold_s, warm_s = median["cold"], median["warm"]
    cores = available_cores()
    shm_speedup = round(pickle_s / shm_s, 3) if shm_s else 0.0
    warm_ratio = round(warm_s / cold_s, 3) if cold_s else 0.0
    from repro.benchresults import result_doc

    return result_doc(
        "ipc_speedup",
        [
            {
                "label": "transport shm-vs-pickle",
                "seconds": shm_s,
                "speedup": shm_speedup,
                "note": f"pickle {pickle_s}s",
            },
            {
                "label": "pool warm-vs-cold",
                "seconds": warm_s,
                "ratio": warm_ratio,
                "note": f"cold {cold_s}s",
            },
        ],
        cores_available=cores,
        gated=cores >= 4,
        workers=workers,
        n=n,
        repeats=max(3, repeats),
        transport={
            "pickle_s": pickle_s,
            "pickle_quartiles_s": spread["pickle"],
            "shm_s": shm_s,
            "shm_quartiles_s": spread["shm"],
            "shm_speedup": shm_speedup,
        },
        pool_reuse={
            "cold_s": cold_s,
            "cold_quartiles_s": spread["cold"],
            "warm_s": warm_s,
            "warm_quartiles_s": spread["warm"],
            "warm_ratio": warm_ratio,
        },
    )


def render(payload: dict) -> str:
    t, p = payload["transport"], payload["pool_reuse"]

    def fig(section: dict, key: str) -> str:
        q1, q3 = section[f"{key}_quartiles_s"]
        return f"{key} {section[f'{key}_s']:.4f}s [{q1:.4f}, {q3:.4f}]"

    return "\n".join([
        f"flat-int DOALL, n={payload['n']}, "
        f"{payload['workers']} workers, "
        f"{payload['cores_available']} core(s), "
        f"median [quartiles] of {payload['repeats']} calls",
        f"  transport  {fig(t, 'pickle')}   {fig(t, 'shm')}   "
        f"shm speedup {t['shm_speedup']:.2f}x",
        f"  pool       {fig(p, 'cold')}   {fig(p, 'warm')}   "
        f"warm/cold {p['warm_ratio']:.3f}",
        f"  gates {'ASSERTED' if payload['gated'] else 'SKIPPED (<4 cores)'}",
    ])


def _write(payload: dict, path: pathlib.Path = RESULTS_PATH) -> None:
    from repro.benchresults import write_result_doc

    write_result_doc(path, payload)


def _assert_gates(payload: dict) -> None:
    t, p = payload["transport"], payload["pool_reuse"]
    assert t["shm_speedup"] >= 2.0, (
        f"shm transport {t['shm_speedup']:.2f}x < 2x over pickle "
        f"(pickle {t['pickle_s']:.4f}s, shm {t['shm_s']:.4f}s)"
    )
    assert p["warm_ratio"] < 0.25, (
        f"warm call pays {p['warm_ratio']:.1%} of cold setup, wanted <25% "
        f"(cold {p['cold_s']:.4f}s, warm {p['warm_s']:.4f}s)"
    )


def test_ipc_speedup(benchmark, record):
    """The data-plane gates, asserted only where cores make them fair."""
    from conftest import once

    payload = once(benchmark, ipc_sweep)
    _write(payload)
    record(render(payload), name="ipc_speedup")
    if payload["gated"]:
        _assert_gates(payload)


def _smoke(workers: int) -> dict:
    """CI parity pass: tiny n, every road, no timing asserts."""
    vals = list(range(2000))
    expect = [v * 3 for v in vals]
    try:
        assert parallel_for(vals, triple, workers=workers, chunk_size=64,
                            backend="thread") == expect
        for transport in ("pickle", "shm"):
            for reuse in (False, True):
                got = parallel_for(
                    vals, triple, workers=workers, chunk_size=64,
                    backend="process", transport=transport, reuse=reuse,
                )
                assert got == expect, (transport, reuse)
    finally:
        shutdown_sessions()
    return ipc_sweep(n=5_000, workers=workers, repeats=3)


def main(argv: list[str] | None = None) -> int:
    """Standalone CI entry: ``python benchmarks/bench_ipc.py [--smoke]``."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny n; thread+process parity cross-check, "
                             "no timing assertions")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--n", type=int, default=200_000)
    parser.add_argument("--repeats", type=int, default=9,
                        help="calls per figure (at least 3); each "
                             "figure is their median")
    args = parser.parse_args(argv)

    if args.smoke:
        payload, path = _smoke(args.workers), SMOKE_PATH
    else:
        payload = ipc_sweep(n=args.n, workers=args.workers,
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
