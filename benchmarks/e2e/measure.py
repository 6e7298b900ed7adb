"""The workload process: one fresh interpreter per workload and mode.

``run.py`` launches it as ``python3 -m e2e.measure --mode MODE
--workload NAME --seed N --seconds S --workdir DIR [--smoke]
[--trace-out FILE]`` and reads the JSON object it prints last.

* ``probe``: time ``import repro.runtime`` through the first call's
  return (pool spawn and kernel ship included), scaled to the nominal
  host speed by a calibration loop timed just before and after, then
  stop.
* ``timed``: 3 warm-up calls, then rounds of (bare sequential loop,
  call) for ``--seconds``.
* ``traced``: rounds of (bare loop, untraced call, traced call), then
  the per-element ladder; reports the per-layer metrics.

Every call is checked against the workload's sequential reference, and
the process ends with a leak check; each miss counts as a failed call.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import multiprocessing
import os
import resource
import sys
import time
from pathlib import Path
from typing import Any

from e2e import layers
from e2e.stats import median, nearest_rank
from e2e.tracing import Tracer, chrome_trace
from e2e.workloads import Outcome, StageClock, Workload, build, spin

WARMUP = 3
BARE_MIN_SECONDS = 0.02
#: LCG steps of the calibration loop a set-up probe times around set-up,
#: and that loop's seconds at the nominal speed of the reference host (a
#: 2.0 GHz Xeon KVM guest, CPython 3.11, outside its slow episodes)
CALIBRATION_STEPS = 150_000
CALIBRATION_NOMINAL_S = 0.0175
SMOKE_CALLS = 5
#: traced rounds per run (fewer when ``--seconds`` runs out first)
TRACE_ROUNDS = (30, 5)
MIN_TRACE_ROUNDS = 5
LADDER_REPS = (7, 2)
#: traced calls whose spans go to the Chrome trace
CHROME_CALLS = 3
MAX_ERRORS = 20


class Ledger:
    """Counts attempted and failed calls, and says what went wrong."""

    def __init__(self, case: Workload) -> None:
        self.case = case
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(why)

    def run(
        self, clock: StageClock | None = None, tracer: Tracer | None = None
    ) -> tuple[Outcome | None, float]:
        """One checked call: ``(outcome, seconds)``, or ``(None, 0)`` when
        it raised or its output is wrong.  The caller cleans up a
        returned outcome once it has read it."""
        self.attempted += 1
        scope = tracer.call() if tracer is not None else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with scope:
                outcome = self.case.call(clock)
        except Exception as exc:
            self.fail(f"call {self.attempted}: {type(exc).__name__}: {exc}")
            return None, 0.0
        elapsed = time.perf_counter() - t0
        wrong = self.case.check(outcome)
        if wrong:
            self.case.cleanup(outcome)
            self.fail(f"call {self.attempted}: {wrong}")
            return None, 0.0
        return outcome, elapsed

    def checked(self) -> float | None:
        """One checked call, cleaned up; its seconds or ``None``."""
        outcome, elapsed = self.run()
        if outcome is None:
            return None
        self.case.cleanup(outcome)
        return elapsed


def time_bare(case: Workload) -> float:
    """Seconds per bare sequential loop, repeated until the sample is at
    least :data:`BARE_MIN_SECONDS` long (a 1 ms loop is timer noise)."""
    reps = 0
    t0 = time.perf_counter()
    while True:
        case.bare()
        reps += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= BARE_MIN_SECONDS:
            return elapsed / reps


# -- leak check and resources -------------------------------------------
def shm_segments() -> set[str]:
    try:
        return {p.name for p in Path("/dev/shm").glob("psm_*")}
    except OSError:
        return set()


def _proc_stat(pid: int | str) -> list[str] | None:
    """Fields of ``/proc/<pid>/stat`` after the command name."""
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return raw.rsplit(")", 1)[1].split()


def live_children() -> list[int]:
    """Live child processes, the multiprocessing resource tracker aside
    (it lives until this process stops it in :func:`finish`)."""
    me = str(os.getpid())
    out = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        fields = _proc_stat(entry.name)
        if fields is None or fields[1] != me or fields[0] == "Z":
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:
            continue
        if b"resource_tracker" not in cmdline:
            out.append(int(entry.name))
    return out


def journal_leaks(workdir: Path) -> list[str]:
    """Journals left open by this process or left on disk."""
    out = []
    fd_dir = Path("/proc/self/fd")
    for fd in fd_dir.iterdir():
        try:
            target = os.readlink(fd)
        except OSError:
            continue
        if target.startswith(str(workdir)) and target.endswith(".rpj"):
            out.append(f"journal left open: {target}")
    out.extend(f"journal left on disk: {p}" for p in workdir.glob("*.rpj"))
    return out


def cpu_ticks(pids: list[int]) -> dict[int, int]:
    """utime + stime clock ticks of each live pid."""
    out = {}
    for pid in pids:
        fields = _proc_stat(pid)
        if fields is not None:
            out[pid] = int(fields[11]) + int(fields[12])
    return out


def worker_pids() -> list[int]:
    return [p.pid for p in multiprocessing.active_children()]


def finish(ledger: Ledger, shm_before: set[str], workdir: Path) -> float:
    """Stop the pools, count leaks as failed calls; peak RSS in MB."""
    import repro.runtime as rt

    rt.shutdown_sessions()
    multiprocessing.active_children()  # reap whatever already exited
    for pid in live_children():
        ledger.fail(f"leak: child process {pid} alive after shutdown_sessions()")
    for name in sorted(shm_segments() - shm_before):
        ledger.fail(f"leak: new shared-memory segment /dev/shm/{name}")
    for why in journal_leaks(workdir):
        ledger.fail(f"leak: {why}")
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    largest_child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # the shm transport starts the multiprocessing resource tracker,
    # which would otherwise outlive this process
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    return (own + largest_child) / 1024.0


# -- the three modes ------------------------------------------------------
def calibration() -> float:
    """Seconds of a fixed pure-Python loop: the host's current speed."""
    t0 = time.perf_counter()
    spin(CALIBRATION_STEPS)
    return time.perf_counter() - t0


def probe(case: Workload, ledger: Ledger) -> dict[str, Any]:
    before = calibration()
    t0 = time.perf_counter()
    import repro.runtime  # noqa: F401 - the import is what is timed

    imported = time.perf_counter() - t0
    outcome, elapsed = ledger.run()
    if outcome is not None:
        case.cleanup(outcome)
    wall = imported + elapsed
    speed = (before + calibration()) / 2
    # scaled to the nominal host speed: the calibration loops just before
    # and after share the host's slow episodes with the set-up they frame
    return {
        "setup_s": wall * CALIBRATION_NOMINAL_S / speed,
        "setup_wall_s": wall,
        "calibration_s": speed,
    }


def timed(
    case: Workload, ledger: Ledger, seconds: float, smoke: bool
) -> dict[str, Any]:
    for _ in range(WARMUP):
        ledger.checked()
    calls: list[float] = []
    bares: list[float] = []
    deadline = time.perf_counter() + seconds

    def more() -> bool:
        return i < SMOKE_CALLS if smoke else time.perf_counter() < deadline

    i = 0
    while more():
        # each call is paired with the bare loop timed just before it,
        # so both halves of a pair see the same host speed
        bare = time_bare(case)
        elapsed = ledger.checked()
        if elapsed is not None:
            calls.append(elapsed)
            bares.append(bare)
        i += 1
    return {
        "metrics": {
            "speedup_vs_serial": sum(bares) / sum(calls) if calls else 0.0,
        },
        "info": {
            "call_p50_ms": median(calls) * 1e3,
            "call_p95_ms": nearest_rank(calls, 0.95) * 1e3,
            "bare_p50_ms": median(bares) * 1e3,
        },
        "samples": {
            "call_ms": [t * 1e3 for t in calls],
            "bare_ms": [t * 1e3 for t in bares],
        },
    }


def traced(
    case: Workload,
    ledger: Ledger,
    seconds: float,
    smoke: bool,
    workdir: Path,
    trace_out: Path | None,
) -> dict[str, Any]:
    for _ in range(WARMUP):
        ledger.checked()
    tracer = Tracer()
    facts: list[dict[str, Any]] = []
    untraced: list[float] = []
    traced_s: list[float] = []
    bares: list[float] = []
    parent_cpu: list[float] = []
    workers_cpu: list[float] = []
    pids: set[int] = set()
    chrome: list = []
    tick = os.sysconf("SC_CLK_TCK")
    limit = TRACE_ROUNDS[1] if smoke else TRACE_ROUNDS[0]
    deadline = time.perf_counter() + seconds

    def untraced_call() -> None:
        before = cpu_ticks(worker_pids())
        cpu0 = time.process_time()
        elapsed = ledger.checked()
        cpu1 = time.process_time()
        after = cpu_ticks(worker_pids())
        pids.update(before, after)
        if elapsed is not None:
            untraced.append(elapsed)
            parent_cpu.append(cpu1 - cpu0)
            workers_cpu.append(
                sum(t - before.get(pid, 0) for pid, t in after.items()) / tick
            )

    def traced_call() -> None:
        clock = StageClock()
        with tracer.installed():
            outcome, elapsed = ledger.run(clock, tracer)
        spans = tracer.take()
        if outcome is None:
            return
        traced_s.append(elapsed)
        facts.append(layers.call_facts(spans, outcome, clock.totals()))
        case.cleanup(outcome)
        if len(chrome) < CHROME_CALLS:
            chrome.append([dataclasses.replace(s, kept=None) for s in spans])

    rounds = 0
    while rounds < limit and (
        rounds < MIN_TRACE_ROUNDS or time.perf_counter() < deadline
    ):
        bares.append(time_bare(case))
        # alternate which call follows the bare loop, so neither the
        # traced nor the untraced side always runs first
        pair = (untraced_call, traced_call)
        for call in pair if rounds % 2 == 0 else pair[::-1]:
            call()
        rounds += 1
    if trace_out is not None:
        trace_out.parent.mkdir(parents=True, exist_ok=True)
        trace_out.write_text(json.dumps(
            chrome_trace([s for call in chrome for s in call])
        ))
    if not facts:
        return {"metrics": {}, "samples": {}}

    extra = layers.ladder(case, workdir, LADDER_REPS[1] if smoke else LADDER_REPS[0])
    extra.update({
        "backend.worker_pids": float(len(pids)),
        "parent.cpu_ms_per_call": median(parent_cpu) * 1e3,
        # a mean: each call's delta is a whole number of clock ticks
        "workers.cpu_ms_per_call": sum(workers_cpu) / len(workers_cpu) * 1e3
        if workers_cpu else 0.0,
        "bare.p50_ms": median(bares) * 1e3,
        "trace.overhead_pct": (median(traced_s) / median(untraced) - 1) * 100,
    })
    return {
        "metrics": layers.summarize(facts, case.n, extra),
        "layers": layers.layer_table(facts),
        "samples": {
            "untraced_ms": [t * 1e3 for t in untraced],
            "traced_ms": [t * 1e3 for t in traced_s],
            "bare_ms": [t * 1e3 for t in bares],
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("probe", "timed", "traced"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args(argv)

    shm_before = shm_segments()
    case = build(args.workload, args.seed, args.smoke, args.workdir)
    ledger = Ledger(case)
    if args.mode == "probe":
        result = probe(case, ledger)
    elif args.mode == "timed":
        result = timed(case, ledger, args.seconds, args.smoke)
    else:
        result = traced(
            case, ledger, args.seconds, args.smoke, args.workdir,
            args.trace_out,
        )
    rss = finish(ledger, shm_before, args.workdir)
    if args.mode == "timed":
        result["metrics"]["peak_rss_mb"] = rss
    result.update({
        "workload": case.name,
        "mode": args.mode,
        "seed": args.seed,
        "n": case.n,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "errors": ledger.errors,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
