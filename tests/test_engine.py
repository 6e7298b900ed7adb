"""One chunk engine: serial, thread and process record the same run.

Every schedule is run on all three backends with the cross-cutting
features on — a fault policy with poison elements, seeded chaos, a
checkpoint journal, metrics and the profiler — and the runs must agree
on values, the error ledger, counter totals, profiler work records and
the journal.  Plans are deterministic on every schedule, ``adaptive``
(an alias of ``guided``) included.
"""

import functools
import operator
import random
import sys

import pytest

from repro.runtime import (
    BACKENDS,
    SCHEDULES,
    ChaosError,
    ChaosInjector,
    ChunkJournal,
    FaultPolicy,
    MasterWorker,
    parallel_for,
    parallel_reduce,
)
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.profiler import SamplingProfiler
from repro.runtime.trace import TraceCollector

N = 48
WORKERS = 2
#: per schedule; ``adaptive`` runs guided's plan at a coarser floor
CHUNK = {"static": 5, "dynamic": 5, "guided": 3, "adaptive": 12}
POISON = frozenset({3, 17, 30})

COUNTERS = (
    "chunks_planned", "chunks_dispatched", "chunks_completed",
    "chunks_deduped", "elements_delivered", "elements_fallback",
    "elements_failed", "elements_skipped", "element_retries",
    "chaos_faults",
)


def square(x):
    return x * x


def poisoned(x):
    if x in POISON:
        raise ValueError(f"poison {x}")
    return x * x


def fails_at_25(x):
    if x == 25:
        raise RuntimeError("killed mid-run")
    return x * x


def run(backend, schedule, body, tmp_path, chunk_size=None, **features):
    """One fully-instrumented call; everything it recorded."""
    reg = MetricsRegistry()
    prof = SamplingProfiler(hz=200.0)
    trace = TraceCollector()
    ledger = []
    with ChunkJournal.create(tmp_path / f"{backend}-{schedule}.rpj") as j:
        out = parallel_for(
            range(N), body, workers=WORKERS,
            chunk_size=chunk_size or CHUNK[schedule], schedule=schedule,
            backend=backend, ledger=ledger, metrics=reg, profiler=prof,
            trace=trace, checkpoint=j, **features,
        )
        journal = j.completed_ranges()
    prof.stop()
    return {
        "values": out,
        "ledger": [
            (r.seq, r.attempts, type(r.error).__name__) for r in ledger
        ],
        "counters": {name: reg.total(name) for name in COUNTERS},
        "work": sorted((r["stage"], r["chunk"]) for r in prof.work_records()),
        "journal": journal,
        "checkpoints": sorted(
            s.detail["chunk"] for s in trace.spans()
            if s.kind == "checkpoint" and "chunk" in s.detail
        ),
    }


def assert_parity(runs):
    serial = runs["serial"]
    for backend in ("thread", "process"):
        for key, value in serial.items():
            assert runs[backend][key] == value, (backend, key)


@pytest.mark.parametrize("schedule", SCHEDULES)
class TestEveryScheduleEveryBackend:
    def test_policy_with_poison_elements(self, schedule, tmp_path):
        policy = FaultPolicy(
            retries=1, backoff=0.0, on_error="fallback", fallback=-1
        )
        runs = {
            b: run(b, schedule, poisoned, tmp_path, policy=policy)
            for b in BACKENDS
        }
        assert_parity(runs)
        serial = runs["serial"]
        assert serial["values"] == [
            -1 if x in POISON else x * x for x in range(N)
        ]
        assert serial["ledger"] == [
            (x, 2, "ValueError") for x in sorted(POISON)
        ]
        counters = serial["counters"]
        planned = counters["chunks_planned"]
        assert planned == len(serial["journal"]) == len(serial["work"])
        assert serial["checkpoints"] == sorted(serial["journal"])
        assert counters["chunks_completed"] == planned
        assert counters["elements_delivered"] == N
        assert counters["element_retries"] == len(POISON)

    def test_seeded_chaos(self, schedule, tmp_path):
        policy = FaultPolicy(on_error="fallback", fallback=None)
        runs = {}
        stats = {}
        for backend in BACKENDS:
            chaos = ChaosInjector(seed=11, fail_rate=0.3)
            runs[backend] = run(
                backend, schedule, square, tmp_path,
                policy=policy, chaos=chaos,
            )
            stats[backend] = chaos.stats()
        assert_parity(runs)
        assert stats["serial"] == stats["thread"] == stats["process"]
        injected = stats["serial"]["injected_failures"]
        assert injected > 0 and stats["serial"]["calls"] == N
        assert len(runs["serial"]["ledger"]) == injected
        assert runs["serial"]["counters"]["chaos_faults"] == injected
        assert {e for _s, _a, e in runs["serial"]["ledger"]} == {
            ChaosError.__name__
        }


class TestReduce:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_counts_and_journals_per_chunk(self, backend, tmp_path):
        reg = MetricsRegistry()
        with ChunkJournal.create(tmp_path / "r.rpj") as j:
            total = parallel_reduce(
                range(40), square, operator.add, 7, workers=WORKERS,
                chunk_size=5, backend=backend, metrics=reg, checkpoint=j,
            )
            journal = j.completed_ranges()
        assert total == 7 + sum(x * x for x in range(40))
        assert reg.total("chunks_planned") == 8
        assert reg.total("chunks_completed") == 8
        assert reg.total("elements_delivered") == 40
        assert sorted(journal) == list(range(8))

    def test_unobserved_serial_fold_is_the_sequential_loop(self):
        # one chunk: with a neutral init the float sum is bit-identical
        # to the left fold of the original sequential program
        rng = random.Random(3)
        xs = [rng.uniform(-1e6, 1e6) for _ in range(1000)]
        expected = 0.0
        for x in xs:
            expected += x
        assert parallel_reduce(
            xs, float, operator.add, 0.0, sequential=True
        ) == expected

    def test_serial_kill_then_resume_reproduces_the_total(self, tmp_path):
        path = tmp_path / "serial.rpj"
        with ChunkJournal.create(path) as j:
            with pytest.raises(RuntimeError, match="killed mid-run"):
                parallel_reduce(
                    range(40), fails_at_25, operator.add, 0,
                    chunk_size=5, backend="serial", checkpoint=j,
                )
        survived = ChunkJournal.load(path).completed_indices()
        assert survived == frozenset(range(5))  # chunks before element 25
        reg = MetricsRegistry()
        with ChunkJournal.resume(path) as j2:
            total = parallel_reduce(
                range(40), square, operator.add, 0,
                chunk_size=5, backend="serial", checkpoint=j2, metrics=reg,
            )
            assert j2.summary()["resumed"] == 5
        assert total == sum(x * x for x in range(40))
        assert reg.total("chunks_planned") == 3
        assert reg.total("elements_delivered") == 15


@pytest.mark.parametrize("backend", BACKENDS)
def test_masterworker_counts_the_engine_counters(backend):
    reg = MetricsRegistry()
    mw = MasterWorker(workers=2, backend=backend, name="grp")
    out = mw.run([functools.partial(square, i) for i in range(6)], metrics=reg)
    assert out == [i * i for i in range(6)]
    for name in ("chunks_planned", "chunks_completed", "elements_delivered"):
        assert reg.value(name, stage="grp") == 6, name
    assert reg.total("elements_failed") == 0


@pytest.mark.parametrize("schedule", ["dynamic", "adaptive"])
def test_one_warm_pool_count_per_call(schedule):
    reg = MetricsRegistry()
    out = parallel_for(
        range(64), square, workers=2, chunk_size=1, schedule=schedule,
        backend="process", reuse=True, metrics=reg,
    )
    assert out == [x * x for x in range(64)]
    assert reg.total("pool_warm_hits") + reg.total("pool_warm_misses") == 1


@pytest.mark.parametrize("schedule", ["static", "dynamic"])
def test_thread_executor_delivers_each_chunk_once_under_contention(
    schedule,
):
    # more claiming threads than cores and a tiny switch interval: a lost
    # update on the claim counter would run a chunk twice or never
    reg = MetricsRegistry()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = parallel_for(
            range(3000), square, workers=8, chunk_size=3,
            schedule=schedule, backend="thread", metrics=reg,
        )
    finally:
        sys.setswitchinterval(interval)
    assert out == [x * x for x in range(3000)]
    for name in ("chunks_planned", "chunks_dispatched", "chunks_completed"):
        assert reg.total(name) == 1000, name
    assert reg.total("elements_delivered") == 3000
