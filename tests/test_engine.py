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
import tracemalloc

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
    plan_chunks,
)
from repro.runtime.backend import _run_reduce_chunk
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


def fail_at(x, poison):
    if x == poison:
        raise ValueError(f"poison {x}")
    return x * x


@pytest.mark.parametrize("schedule", ["dynamic", "guided"])
@pytest.mark.parametrize("policy", [
    None, FaultPolicy(on_error="fallback"),
], ids=["fail-fast", "fallback"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_mid_chunk_failure_names_its_own_element(backend, policy, schedule):
    # kernels iterate a chunk's slice: the failing element must still be
    # recorded under its run-wide index, not its chunk's start or offset
    lo, hi = plan_chunks(N, CHUNK[schedule], schedule, WORKERS)[1]
    poison = lo + (hi - lo) // 2
    assert lo < poison < hi - 1
    for trace in (None, TraceCollector()):
        ledger = []
        try:
            values = parallel_for(
                range(N), functools.partial(fail_at, poison=poison),
                workers=WORKERS, chunk_size=CHUNK[schedule],
                schedule=schedule, backend=backend, policy=policy,
                ledger=ledger, trace=trace,
            )
        except ValueError as exc:
            values = repr(exc)
        assert [r.seq for r in ledger] == [poison]
        if policy is None:
            assert values == repr(ValueError(f"poison {poison}"))
        else:
            assert values == [
                None if x == poison else x * x for x in range(N)
            ]
        if trace is None:
            continue
        spans = [
            (s.seq, "error" in s.detail) for s in trace.spans()
            if s.kind == "execute"
        ]
        assert [seq for seq, error in spans if error] == [poison]
        ran = sorted(seq for seq, _error in spans)
        assert len(set(ran)) == len(ran)
        if policy is None:
            assert set(range(lo, poison + 1)) <= set(ran) <= set(range(N))
        else:
            assert ran == list(range(N))


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

    def test_one_chunk_fold_reads_the_calls_list_in_place(self):
        # the single chunk of an unobserved serial fold spans the call's
        # own list: a copy of it would be 800 KB of pointers
        xs = list(range(100_000))
        tracemalloc.start()
        try:
            partial, _records, _counters, failed = _run_reduce_chunk(
                0, (0, len(xs)), abs, xs, operator.add,
            )
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not failed and partial == [sum(xs)]
        assert peak < 80_000

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_float_fold_is_a_left_fold_per_chunk(self, backend):
        # each chunk folds its slice from its first element, and the
        # partials fold onto init in chunk order: bit for bit, on every
        # backend (a trace keeps the serial run's plan)
        rng = random.Random(5)
        xs = [rng.uniform(-1e6, 1e6) for _ in range(100)]
        expected = 0.5
        for lo in range(0, len(xs), 16):
            part = xs[lo]
            for x in xs[lo + 1:lo + 16]:
                part += x
            expected += part
        got = parallel_reduce(
            xs, float, operator.add, 0.5, workers=WORKERS, chunk_size=16,
            backend=backend, trace=TraceCollector(),
        )
        assert got.hex() == expected.hex()

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


class TestOneChunkRule:
    """A serial map nothing observes per chunk runs as one chunk."""

    @staticmethod
    def traced(chunk_size, policy, **features):
        trace, ledger = TraceCollector(), []
        try:
            values = parallel_for(
                range(N), poisoned, chunk_size=chunk_size, backend="serial",
                policy=policy, ledger=ledger, trace=trace, **features,
            )
        except ValueError as exc:
            values = repr(exc)
        return {
            "values": values,
            "ledger": [(r.seq, r.attempts, repr(r.error)) for r in ledger],
            "spans": [
                (s.kind, s.stage, s.seq, s.worker, s.detail)
                for s in trace.spans()
            ],
        }

    @pytest.mark.parametrize("policy", [
        None,
        FaultPolicy(retries=1, backoff=0.0, on_error="fallback", fallback=-1),
    ], ids=["fail-fast", "fallback"])
    def test_traced_map_is_the_same_at_any_chunk_size(
        self, policy, monkeypatch
    ):
        # the package re-exports the function under the module's name
        pf = sys.modules["repro.runtime.parallel_for"]
        chunks = []

        def counted(*args, **kwargs):
            chunks.append(args[1])
            return run_chunk(*args, **kwargs)

        run_chunk = pf.run_chunk
        monkeypatch.setattr(pf, "run_chunk", counted)
        one = self.traced(1, policy)
        assert chunks == [0]  # nothing observes chunks: one chunk
        whole = self.traced(N, policy)
        assert one == whole
        assert one["spans"] and one["ledger"]
        if policy is None:
            assert one["values"] == repr(ValueError("poison 3"))
        else:
            assert one["values"][3] == -1

    @pytest.mark.parametrize("chunk_size", [1, 5, N])
    def test_metrics_keep_the_planned_chunks(self, chunk_size):
        reg = MetricsRegistry()
        policy = FaultPolicy(
            retries=1, backoff=0.0, on_error="fallback", fallback=-1
        )
        measured = self.traced(chunk_size, policy, metrics=reg)
        assert measured == self.traced(N, policy)
        planned = -(-N // chunk_size)
        assert reg.total("chunks_planned") == planned
        assert reg.total("chunks_completed") == planned
        assert reg.total("elements_delivered") == N


@pytest.mark.parametrize("backend", BACKENDS)
def test_clean_run_binds_no_zero_valued_series(backend):
    # the executors bind each series on its first non-zero use, so a run
    # with no fault shows no failure, skip, fallback or retry series
    reg = MetricsRegistry()
    out = parallel_for(
        range(40), square, workers=WORKERS, chunk_size=5, backend=backend,
        metrics=reg,
    )
    assert out == [x * x for x in range(40)]
    snap = reg.snapshot()
    for family in snap["metrics"]:
        for series in family["series"]:
            assert series.get("value", series.get("count")) > 0, family
    names = {family["name"] for family in snap["metrics"]}
    assert {"chunks_completed", "elements_delivered"} <= names
    assert not names & {
        "elements_failed", "elements_skipped", "elements_fallback",
        "element_retries",
    }


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
