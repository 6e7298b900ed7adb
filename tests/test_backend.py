"""The execution-backend layer: serial/thread/process parity, validation,
fallback, shipping, cancellation, chaos conservation, and the tuning-file
round trip onto real processes."""

import contextlib
import functools
import multiprocessing
import multiprocessing.connection
import os
import pickle
import subprocess
import sys
import threading
import time
import timeit
import warnings

import pytest

from repro.patterns.tuning import apply_config
from repro.report import fault_report
from repro.runtime import Item, MasterWorker, Pipeline, PipelineError
from repro.runtime import backend as backend_mod
from repro.runtime.backend import (
    BACKENDS,
    BackendEvent,
    BackendFallbackWarning,
    Kernel,
    SharedFlag,
    ShipError,
    TuningError,
    build_process_payload,
    get_session,
    mp_context,
    pool_session,
    run_process_chunks,
    ship_callable,
    ship_kernel,
    shutdown_sessions,
)
from repro.runtime.chaos import ChaosError, ChaosInjector
from repro.runtime.faults import (
    CancellationToken,
    CancelledError,
    FaultPolicy,
)
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.parallel_for import (
    configured_parallel_for,
    parallel_for,
    parallel_reduce,
)
from repro.runtime.trace import TraceCollector, trace_session

backends = pytest.mark.parametrize("backend", BACKENDS)


def square(x):
    return x * x


def poison_five(x):
    if x == 5:
        raise ValueError("poison element")
    return x


def boom_two(x):
    if x == 2:
        raise RuntimeError("boom")
    return x


def cancelled_at_three(x):
    if x == 3:
        raise CancelledError("body cancelled")
    return x


class BrokenKernelPolicy(FaultPolicy):
    """A policy whose chunk loop itself raises: an error that escapes
    the kernel, where every error of a body is the policy's to decide.
    Module-level, so a worker unpickles it by reference under spawn."""

    def execute_chunk(self, fn, chunk, *args, **kwargs):
        raise RuntimeError("the kernel broke")


# ---------------------------------------------------------------------------
# input validation (TuningError)
# ---------------------------------------------------------------------------

class TestValidation:
    @pytest.mark.parametrize("workers", [0, -1, -8])
    def test_rejects_nonpositive_workers(self, workers):
        with pytest.raises(TuningError, match="NumWorkers"):
            parallel_for([1, 2, 3], square, workers=workers)

    @pytest.mark.parametrize("chunk_size", [0, -1, -64])
    def test_rejects_nonpositive_chunk_size(self, chunk_size):
        with pytest.raises(TuningError, match="ChunkSize"):
            parallel_for([1, 2, 3], square, chunk_size=chunk_size)

    def test_reduce_validates_too(self):
        with pytest.raises(TuningError):
            parallel_reduce([1, 2], square, lambda a, b: a + b, 0, workers=0)
        with pytest.raises(TuningError):
            parallel_reduce(
                [1, 2], square, lambda a, b: a + b, 0, chunk_size=0
            )

    def test_validates_even_on_sequential_path(self):
        # a bad knob must fail loudly even when the sequential shortcut
        # would never have built the pool
        with pytest.raises(TuningError):
            parallel_for([1], square, workers=-2, sequential=True)

    def test_configured_path_raises(self):
        with pytest.raises(TuningError):
            configured_parallel_for(
                [1, 2, 3], square, {"ChunkSize@loop": 0}
            )

    def test_unknown_backend_is_tuning_error(self):
        with pytest.raises(TuningError, match="Backend"):
            parallel_for([1, 2], square, backend="gpu")

    def test_tuning_error_is_value_error(self):
        # callers catching the historical ValueError keep working
        assert issubclass(TuningError, ValueError)

    def test_unknown_schedule_still_value_error(self):
        with pytest.raises(ValueError, match="schedule"):
            parallel_for([1], square, schedule="magic")


# ---------------------------------------------------------------------------
# backend parity: same workload, identical results and ledgers
# ---------------------------------------------------------------------------

class TestBackendParity:
    @backends
    def test_map(self, backend):
        out = parallel_for(
            range(25), square, workers=4, chunk_size=3, backend=backend
        )
        assert out == [x * x for x in range(25)]

    @backends
    def test_map_static_schedule(self, backend):
        out = parallel_for(
            range(17),
            square,
            workers=3,
            chunk_size=2,
            schedule="static",
            backend=backend,
        )
        assert out == [x * x for x in range(17)]

    @backends
    def test_reduce_non_commutative(self, backend):
        # string concatenation is associative but not commutative: any
        # out-of-chunk-order combine would scramble it
        out = parallel_reduce(
            range(12),
            str,
            lambda a, b: a + b,
            "",
            workers=4,
            chunk_size=3,
            backend=backend,
        )
        assert out == "".join(str(x) for x in range(12))

    @backends
    def test_fail_fast_raises_original_error(self, backend):
        with pytest.raises(ValueError, match="poison"):
            parallel_for(
                range(10),
                poison_five,
                workers=3,
                chunk_size=2,
                backend=backend,
            )

    @backends
    def test_masterworker_map(self, backend):
        mw = MasterWorker(workers=3, backend=backend)
        assert mw.map(square, range(10)) == [x * x for x in range(10)]

    @backends
    def test_masterworker_error(self, backend):
        mw = MasterWorker(workers=2, backend=backend)
        with pytest.raises(RuntimeError, match="boom"):
            mw.map(boom_two, range(5))

    def test_identical_ledgers_across_backends(self):
        policy = FaultPolicy(on_error="fallback", fallback=-1)
        ledgers = {}
        results = {}
        for backend in BACKENDS:
            ledger = []
            results[backend] = parallel_for(
                range(10),
                poison_five,
                workers=3,
                chunk_size=2,
                backend=backend,
                policy=policy,
                ledger=ledger,
            )
            ledgers[backend] = [
                (r.stage, r.seq, type(r.error).__name__, r.attempts)
                for r in ledger
            ]
        assert results["serial"] == results["thread"] == results["process"]
        assert results["serial"] == [0, 1, 2, 3, 4, -1, 6, 7, 8, 9]
        assert (
            ledgers["serial"]
            == ledgers["thread"]
            == ledgers["process"]
            == [("loop", 5, "ValueError", 1)]
        )

    @pytest.mark.parametrize("traced", [False, True])
    @pytest.mark.parametrize(
        "policy", [None, FaultPolicy()], ids=["no-policy", "policy"]
    )
    def test_body_cancelled_error_matches_the_thread_backend(
        self, policy, traced
    ):
        # one contract for both policy columns: a body's own
        # CancelledError is a failed element with its record, and one
        # raised once the call's token has fired is the call's
        # cancellation, with no record
        def outcome(backend, body=cancelled_at_three, **kwargs):
            ledger = []
            with trace_session() if traced else contextlib.nullcontext():
                with pytest.raises(BaseException) as info:
                    parallel_for(
                        range(8), body, workers=2, chunk_size=2,
                        backend=backend, ledger=ledger, policy=policy,
                        **kwargs,
                    )
            return (
                type(info.value), str(info.value), [r.seq for r in ledger]
            )

        expect = outcome("thread")
        assert expect == (CancelledError, "body cancelled", [3])
        assert outcome("serial") == expect
        # metrics keep a serial run off the featureless road
        assert outcome("serial", metrics=MetricsRegistry()) == expect
        assert outcome("process") == expect

        for backend in ("serial", "thread"):
            token = CancellationToken()

            def cancelled_by_the_run(x, token=token):
                if x == 3:
                    # a sibling thread that sees the token raises alike
                    token.cancel("body cancelled")
                    raise CancelledError("body cancelled")
                return x

            assert outcome(backend, cancelled_by_the_run, cancel=token) == (
                CancelledError, "body cancelled", []
            )

        if traced:
            for sequential in (False, True):
                trace = TraceCollector()
                pipe = Pipeline(
                    Item(cancelled_at_three, name="bad"), trace=trace,
                    sequential=sequential, stall_timeout=5.0,
                )
                pipe.element("bad").fault_policy = policy
                with pytest.raises(PipelineError) as info:
                    pipe.run(range(8))
                assert [
                    (r.stage, r.seq, type(r.error))
                    for r in info.value.records
                ] == [("bad", 3, CancelledError)]
                assert [
                    s.detail.get("error") for s in trace.spans()
                    if (s.kind, s.stage, s.seq) == ("execute", "bad", 3)
                ] == [repr(CancelledError("body cancelled"))]

    @backends
    def test_retries_accounted_in_ledger(self, backend):
        policy = FaultPolicy(
            retries=2, backoff=0.0, on_error="fallback", fallback=None
        )
        ledger = []
        out = parallel_for(
            range(8),
            poison_five,
            workers=2,
            chunk_size=2,
            backend=backend,
            policy=policy,
            ledger=ledger,
        )
        assert out == [0, 1, 2, 3, 4, None, 6, 7]
        assert [(r.seq, r.attempts) for r in ledger] == [(5, 3)]

    @backends
    def test_skip_keeps_length_and_order(self, backend):
        policy = FaultPolicy(on_error="skip")
        out = parallel_for(
            range(10),
            poison_five,
            workers=3,
            chunk_size=3,
            backend=backend,
            policy=policy,
        )
        assert out == [0, 1, 2, 3, 4, None, 6, 7, 8, 9]


# ---------------------------------------------------------------------------
# cancellation
# ---------------------------------------------------------------------------

def _slow_identity(x):
    time.sleep(0.03)
    return x


def _poison_once_sibling_runs(marker, x):
    """Element 0 fails once chunk ``[100, 200)`` has started; the rest
    are 30 ms sleeps, so the sibling is mid-chunk when the run fails."""
    if x == 0:
        deadline = time.monotonic() + 1.0
        while not os.path.exists(marker) and time.monotonic() < deadline:
            time.sleep(0.005)
        raise ValueError("poison")
    if x == 100:
        open(marker, "w").close()
    time.sleep(0.03)
    return x


class TestCancellation:
    @backends
    def test_pre_fired_token(self, backend):
        token = CancellationToken()
        token.cancel("stop before start")
        with pytest.raises(CancelledError):
            parallel_for(
                range(10), square, workers=2, backend=backend, cancel=token
            )

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_mid_run_cancellation(self, backend):
        token = CancellationToken()
        timer = threading.Timer(0.1, token.cancel)
        timer.start()
        started = time.monotonic()
        try:
            with pytest.raises(CancelledError):
                parallel_for(
                    range(400),
                    _slow_identity,
                    workers=2,
                    chunk_size=1,
                    backend=backend,
                    cancel=token,
                )
        finally:
            timer.cancel()
        # 400 elements * 30ms / 2 workers = 6s uncancelled; the pool must
        # stop long before that
        assert time.monotonic() - started < 3.0

    def test_plain_token_bridged_into_process_pool(self):
        # even a thread-level token stops a process pool: the collector
        # bridges it to the pool's stop event
        token = CancellationToken()
        timer = threading.Timer(0.1, token.cancel)
        timer.start()
        started = time.monotonic()
        try:
            with pytest.raises(CancelledError):
                parallel_for(
                    range(400),
                    _slow_identity,
                    workers=2,
                    chunk_size=1,
                    backend="process",
                    cancel=token,
                )
        finally:
            timer.cancel()
        assert time.monotonic() - started < 3.0

    def _raises_mid_chunk(self, error, body, **kwargs):
        # 2 workers, one 100-element chunk of 30 ms sleeps each: a chunk
        # takes 3 s, so a stop honoured only at chunk boundaries could
        # not raise in 2 s
        started = time.monotonic()
        try:
            with pytest.raises(error):
                parallel_for(
                    range(200), body, workers=2, chunk_size=100,
                    backend="process", **kwargs,
                )
        finally:
            shutdown_sessions()
        assert time.monotonic() - started < 2.0

    def _cancel_after_100ms(self, token, **kwargs):
        timer = threading.Timer(0.1, token.cancel)
        timer.start()
        try:
            self._raises_mid_chunk(
                CancelledError, _slow_identity, cancel=token, **kwargs
            )
        finally:
            timer.cancel()

    def test_process_token_stops_cold_pool_mid_chunk(self):
        self._cancel_after_100ms(CancellationToken())

    def test_plain_token_stops_warm_pool_mid_chunk(self):
        self._cancel_after_100ms(CancellationToken(), reuse=True)

    @pytest.mark.parametrize("reuse", [False, True], ids=["cold", "warm"])
    def test_failed_chunk_stops_sibling_mid_chunk(self, reuse, tmp_path):
        body = functools.partial(
            _poison_once_sibling_runs, str(tmp_path / "sibling-started")
        )
        self._raises_mid_chunk(ValueError, body, reuse=reuse)

    def test_pool_flag_is_set_costs_under_30pct_of_event(self):
        # the flag is read before every element in every pool worker;
        # timed against the Event it replaced, in the same process
        flag, event = SharedFlag(), mp_context().Event()

        def best(fn):
            return min(timeit.repeat(fn, number=100_000, repeat=5))

        assert best(flag.is_set) < 0.3 * best(event.is_set)

    @backends
    def test_masterworker_cancellation(self, backend):
        token = CancellationToken()
        token.cancel("stop")
        mw = MasterWorker(workers=2, backend=backend)
        with pytest.raises(CancelledError):
            mw.run([lambda: 1, lambda: 2], cancel=token)


# ---------------------------------------------------------------------------
# graceful degradation: unpicklable work falls back to threads
# ---------------------------------------------------------------------------

class TestProcessFallback:
    def test_unpicklable_body_falls_back(self):
        lock = threading.Lock()  # locks cannot cross a process boundary

        def body(x):
            with lock:
                return x * 2

        events = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = parallel_for(
                range(12),
                body,
                workers=3,
                chunk_size=2,
                backend="process",
                events=events,
            )
        assert out == [x * 2 for x in range(12)]  # identical results
        assert [
            (e.requested, e.actual) for e in events
        ] == [("process", "thread")]
        assert any(
            issubclass(w.category, BackendFallbackWarning) for w in caught
        )

    def test_unpicklable_body_places_no_input(self, monkeypatch):
        # the body is found unshippable before a session is taken or
        # any input placed: the shm road creates no segment
        from multiprocessing import shared_memory

        lock = threading.Lock()

        def body(x):
            with lock:
                return x * 2

        created = []
        make = shared_memory.SharedMemory

        def counting(*args, **kwargs):
            created.append(kwargs)
            return make(*args, **kwargs)

        monkeypatch.setattr(shared_memory, "SharedMemory", counting)
        shutdown_sessions()
        values = [float(x) for x in range(12)]
        events = []
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            out = parallel_for(
                values, body, workers=3, chunk_size=2, backend="process",
                transport="shm", events=events,
            )
        assert out == [x * 2 for x in values]
        assert [
            (e.requested, e.actual) for e in events
        ] == [("process", "thread")]
        assert created == []
        assert not backend_mod._SESSIONS

    def test_unpicklable_values_fall_back(self):
        items = [threading.Lock() for _ in range(4)]
        events = []
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            out = parallel_for(
                [(i, item) for i, item in enumerate(items)],
                lambda pair: pair[0],
                workers=2,
                backend="process",
                events=events,
            )
        assert out == [0, 1, 2, 3]
        assert events and events[0].actual == "thread"

    def test_masterworker_fallback_records_event(self):
        lock = threading.Lock()
        mw = MasterWorker(workers=2, backend="process")
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            out = mw.map(lambda x: (lock, x * 10)[1], range(5))
        assert out == [0, 10, 20, 30, 40]
        assert mw.last_events
        assert mw.last_events[0].requested == "process"
        assert mw.last_events[0].actual == "thread"

    def test_masterworker_fallback_runs_the_callers_tasks(self):
        # the by-value copies shipped to a pool would bump copies of
        # ``count``; the thread fallback must run the tasks themselves
        lock = threading.Lock()
        count = 0

        def bump():
            nonlocal count
            with lock:
                count += 1

        mw = MasterWorker(workers=2, backend="process")
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            mw.run([bump, bump, bump])
        assert count == 3
        assert [(e.requested, e.actual) for e in mw.last_events] == [
            ("process", "thread")
        ]

    def test_no_event_when_picklable(self):
        events = []
        parallel_for(
            range(6), square, workers=2, backend="process", events=events
        )
        assert events == []


# ---------------------------------------------------------------------------
# function shipping
# ---------------------------------------------------------------------------

def _module_helper(x):
    return x + 100


class TestShipping:
    def test_plain_function_passes_through(self):
        assert ship_callable(square) is square

    def test_ships_closure(self):
        k = 7
        shipped = ship_callable(lambda x: x + k)
        clone = pickle.loads(pickle.dumps(shipped))
        assert clone(5) == 12

    def test_ships_function_referencing_module_global(self):
        def uses_helper(x):
            return _module_helper(x) * 2

        # force by-value shipping (a nested def never pickles by name)
        shipped = ship_callable(uses_helper)
        clone = pickle.loads(pickle.dumps(shipped))
        assert clone(1) == 202

    def test_ships_exec_defined_function(self):
        ns = {}
        exec(
            "def gen_body(x):\n"
            "    return helper(x) - 1\n"
            "def helper(x):\n"
            "    return x * 3\n",
            ns,
        )
        shipped = ship_callable(ns["gen_body"])
        clone = pickle.loads(pickle.dumps(shipped))
        assert clone(4) == 11

    def test_ships_recursive_function(self):
        ns = {}
        exec(
            "def fact(n):\n"
            "    return 1 if n <= 1 else n * fact(n - 1)\n",
            ns,
        )
        shipped = ship_callable(ns["fact"])
        clone = pickle.loads(pickle.dumps(shipped))
        assert clone(6) == 720

    def test_ships_defaults_and_modules(self):
        def with_default(x, base=10):
            return os.path.basename("a/b") and x + base

        shipped = ship_callable(with_default)
        clone = pickle.loads(pickle.dumps(shipped))
        assert clone(1) == 11

    def test_rejects_unshippable_callable(self):
        class Callable:
            def __call__(self, x):
                return x

            def __reduce__(self):
                raise TypeError("nope")

        with pytest.raises(ShipError):
            ship_callable(Callable())


# ---------------------------------------------------------------------------
# chaos under the process backend
# ---------------------------------------------------------------------------

class TestChaosProcess:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_injected_failure_surfaces(self, backend):
        chaos = ChaosInjector(seed=3, fail_first=1)
        with pytest.raises(ChaosError):
            parallel_for(
                range(8),
                square,
                workers=2,
                chunk_size=8,
                backend=backend,
                chaos=chaos,
            )
        assert chaos.stats()["injected_failures"] >= 1

    def test_conservation_under_process(self):
        # every call is counted parent-side (worker deltas absorbed), and
        # every injected failure lands in the ledger — nothing vanishes
        # across the process boundary
        chaos = ChaosInjector(seed=11, fail_rate=0.3)
        policy = FaultPolicy(on_error="fallback", fallback=None)
        ledger = []
        out = parallel_for(
            range(40),
            square,
            workers=3,
            chunk_size=5,
            backend="process",
            chaos=chaos,
            policy=policy,
            ledger=ledger,
        )
        stats = chaos.stats()
        assert len(out) == 40
        assert stats["calls"] == 40
        assert stats["injected_failures"] > 0
        assert len(ledger) == stats["injected_failures"]
        assert all(isinstance(r.error, ChaosError) for r in ledger)

    def test_deterministic_given_chunk_assignment(self):
        # streams are derived from (seed, chunk index), so two identical
        # runs inject identically no matter which worker claimed what
        def run():
            chaos = ChaosInjector(seed=11, fail_rate=0.3)
            ledger = []
            parallel_for(
                range(40),
                square,
                workers=3,
                chunk_size=5,
                backend="process",
                chaos=chaos,
                policy=FaultPolicy(on_error="fallback", fallback=None),
                ledger=ledger,
            )
            return chaos.stats(), sorted(r.seq for r in ledger)

        assert run() == run()

    def test_spec_round_trip(self):
        chaos = ChaosInjector(
            seed=5, fail_rate=0.25, delay_rate=0.1, delay=0.002, fail_first=2
        )
        clone = ChaosInjector.from_spec(
            pickle.loads(pickle.dumps(chaos.spec()))
        )
        assert clone.seed == 5
        assert clone.fail_rate == 0.25
        assert clone.fail_first == 2
        chaos.absorb({"calls": 3, "injected_failures": 2})
        assert chaos.stats()["calls"] == 3
        assert chaos.stats()["injected_failures"] == 2


# ---------------------------------------------------------------------------
# worker loss: the dead-worker path under both schedules
# ---------------------------------------------------------------------------

def _kill_worker_once(x, marker="", victim=7):
    """SIGKILL the hosting worker the first time ``victim`` is seen; the
    sentinel file makes later dispatches of the same element succeed.
    The sleep lets the result queue's feeder flush delivered chunks
    before the process dies."""
    if x == victim:
        import pathlib
        import signal

        path = pathlib.Path(marker)
        if not path.exists():
            path.write_text("died")
            time.sleep(0.1)
            os.kill(os.getpid(), signal.SIGKILL)
    return x * x


def _kill_each_once(x, marker="", victims=()):
    """:func:`_kill_worker_once` for every element of ``victims``, each
    with a sentinel file of its own."""
    if x in victims:
        return _kill_worker_once(x, marker=f"{marker}-{x}", victim=x)
    return x * x


def _respawn_history(recovery):
    """``(respawns, redispatches)`` of a run: each respawn's chunks and
    trigger (a death or the final sweep), and each re-dispatched chunk
    with its attempt number."""
    respawns = sorted(
        (e.chunks, "sweep" if e.detail.startswith("final sweep") else "death")
        for e in recovery if e.kind == "respawn"
    )
    redispatches = sorted(
        (e.chunks[0], int(e.detail.split("=")[1]))
        for e in recovery if e.kind == "redispatch"
    )
    return respawns, redispatches


class TestWorkerLoss:
    def test_static_death_redispatches_unclaimed_stripe_chunk(
        self, tmp_path
    ):
        # static stripes: member 0 owns chunks 0 and 2 from birth and
        # dies in chunk 0, so chunk 2 is lost without ever being claimed;
        # both go out again at attempt 2
        body = functools.partial(
            _kill_each_once, marker=str(tmp_path / "died"), victims=(0,)
        )
        recovery = []
        out = parallel_for(
            range(4), body, workers=2, chunk_size=1, schedule="static",
            backend="process", restarts=1, recovery=recovery,
        )
        assert out == [x * x for x in range(4)]
        assert _respawn_history(recovery) == (
            [((0, 2), "death")], [(0, 2), (2, 2)]
        )

    @pytest.mark.parametrize("schedule", ["static", "dynamic"])
    def test_no_budget_raises_worker_lost(self, tmp_path, schedule):
        # pre-recovery contract, pinned: restarts=0 keeps the historical
        # fail-on-loss behaviour — the death surfaces, nothing hangs
        import functools

        from repro.runtime.backend import WorkerLostError

        body = functools.partial(
            _kill_worker_once, marker=str(tmp_path / "died"), victim=7
        )
        with pytest.raises(WorkerLostError, match="restarts exhausted"):
            parallel_for(
                range(12),
                body,
                workers=3,
                chunk_size=2,
                schedule=schedule,
                backend="process",
                restarts=0,
            )

    @pytest.mark.parametrize("schedule", ["static", "dynamic"])
    def test_budget_recovers_and_completes(self, tmp_path, schedule):
        # post-recovery: a respawned worker re-executes the dead one's
        # chunks and the run's results are indistinguishable from an
        # undisturbed run
        import functools

        body = functools.partial(
            _kill_worker_once, marker=str(tmp_path / "died"), victim=7
        )
        recovery = []
        out = parallel_for(
            range(12),
            body,
            workers=3,
            chunk_size=2,
            schedule=schedule,
            backend="process",
            restarts=2,
            recovery=recovery,
        )
        assert out == [x * x for x in range(12)]
        kinds = [e.kind for e in recovery]
        assert "worker_lost" in kinds
        assert "respawn" in kinds
        assert "redispatch" in kinds


class TestFinalSweep:
    def test_sweep_dispatches_chunks_no_member_claimed(self, tmp_path):
        # both members die in their first chunk (0 and 1), and each
        # replacement runs only the chunk it was given: nobody is left
        # to claim chunks 2 and 3, so the final sweep hands them to a
        # third worker at attempt 1, after the dead members' chunks went
        # out again at attempt 2
        body = functools.partial(
            _kill_each_once, marker=str(tmp_path / "died"), victims=(0, 1)
        )
        recovery = []
        out = parallel_for(
            range(4), body, workers=2, chunk_size=1, schedule="dynamic",
            backend="process", restarts=3, recovery=recovery,
        )
        assert out == [x * x for x in range(4)]
        assert _respawn_history(recovery) == (
            [((0,), "death"), ((1,), "death"), ((2, 3), "sweep")],
            [(0, 2), (1, 2), (2, 1), (3, 1)],
        )


# ---------------------------------------------------------------------------
# one pool lifetime: every call runs on a registered warm PoolSession
# ---------------------------------------------------------------------------

def _straggle_once(marker, x):
    """The first run of element 5 sleeps 6 s; every later run is fast."""
    if x == 5 and not os.path.exists(marker):
        open(marker, "w").close()
        time.sleep(6.0)
    return x * x


def _nap_pid(_x):
    time.sleep(0.05)
    return os.getpid()


def _pid(_x):
    return os.getpid()


def _child_pids():
    return {p.pid for p in multiprocessing.active_children()}


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


FORK_PROBES = """
import multiprocessing, os, sys
from repro.runtime import parallel_for
from repro.runtime.backend import get_session

def square(x):
    return x * x

def child_call(q):
    try:
        q.put(parallel_for(range(20), square, workers=2, chunk_size=5,
                           backend="process", reuse=True))
    except BaseException as exc:
        q.put(repr(exc))

expect = [x * x for x in range(20)]
call = lambda: parallel_for(range(20), square, workers=2, chunk_size=5,
                            backend="process", reuse=True)
assert call() == expect
session = get_session(2)
pids = sorted(session.pids)
# a fork-context child makes a process call of its own
q = multiprocessing.get_context("fork").Queue()
child = multiprocessing.get_context("fork").Process(target=child_call,
                                                    args=(q,))
child.start()
got = q.get(timeout=60)
child.join(60)
assert got == expect, got
# a child made by os.fork() exits through sys.exit and its atexit hooks
pid = os.fork()
if pid == 0:
    sys.exit(0)
os.waitpid(pid, 0)
assert sorted(session.pids) == pids, (session.pids, pids)
assert all(p.is_alive() for p, _q in session._members.values())
assert call() == expect
assert sorted(get_session(2).pids) == pids
print("fork probes ok")
"""


class TestPoolLifetime:
    @pytest.fixture(autouse=True)
    def _no_warm_pools(self):
        shutdown_sessions()
        yield
        shutdown_sessions()

    def _call(self, kind, tmp_path):
        if kind == "clean":
            out = parallel_for(
                range(40), square, workers=2, chunk_size=5,
                backend="process",
            )
            assert out == [x * x for x in range(40)]
        elif kind == "failed":
            with pytest.raises(ValueError, match="poison element"):
                parallel_for(
                    range(40), poison_five, workers=2, chunk_size=5,
                    backend="process",
                )
        elif kind == "cancelled":
            token = CancellationToken()
            timer = threading.Timer(0.1, token.cancel)
            timer.start()
            try:
                with pytest.raises(CancelledError):
                    parallel_for(
                        range(200), _slow_identity, workers=2, chunk_size=1,
                        backend="process", cancel=token,
                    )
            finally:
                timer.cancel()
        else:
            body = functools.partial(_straggle_once, str(tmp_path / "slow"))
            vals = list(range(12))
            chunks = [(i, i + 1) for i in vals]
            kernel_blob, why = ship_kernel(Kernel(body, None, None, "loop"))
            assert why is None
            payload, why = build_process_payload(kernel_blob, vals, chunks)
            assert why is None
            started = time.monotonic()
            with pool_session(3) as session:
                run = run_process_chunks(
                    payload, chunks, session=session, workers=3, hedge=0.95,
                )
            # the hedge won long before the 6 s sleeper woke
            assert time.monotonic() - started < 5.0
            assert "hedge" in [e.kind for e in run.recovery]
            assert {k: c.values for k, c in run.chunks.items()} == {
                k: [k * k] for k in vals
            }

    @pytest.mark.parametrize("end", ["shutdown", "idle"])
    @pytest.mark.parametrize(
        "kind", ["clean", "failed", "cancelled", "hedged"]
    )
    def test_no_child_outlives_the_pool(
        self, kind, end, tmp_path, monkeypatch
    ):
        if end == "idle":
            monkeypatch.setattr(backend_mod, "IDLE_BOUND", 0.2)
        before = _child_pids()
        self._call(kind, tmp_path)
        if end == "shutdown":
            shutdown_sessions()
        else:
            deadline = time.monotonic() + 10.0
            while _child_pids() - before and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not backend_mod._SESSIONS
        assert _child_pids() - before == set()

    def test_held_session_sends_the_call_to_a_second_warm_session(self):
        values = list(range(40))
        expect = [v * v for v in values]
        call = functools.partial(
            parallel_for, values, square, workers=2, chunk_size=5,
            backend="process",
        )
        assert call() == expect
        first = get_session(2)
        pids = sorted(first.pids)
        assert len(pids) == 2
        missed, hit = MetricsRegistry(), MetricsRegistry()
        with first.lock:  # another holder
            assert call(metrics=missed) == expect
            assert call(metrics=hit) == expect
        assert missed.total("pool_warm_misses") == 1
        assert missed.total("pool_warm_hits") == 0
        assert hit.total("pool_warm_hits") == 1
        assert hit.total("pool_warm_misses") == 0
        second = get_session(2)
        assert second is not first
        assert second.calls == 2 and len(second.pids) == 2
        assert not set(second.pids) & set(pids)
        assert sorted(first.pids) == pids and first.calls == 1
        assert len(backend_mod._SESSIONS) == 2

    def test_concurrent_callers_never_share_a_session(self):
        # more calling threads than cores and a tiny switch interval: a
        # session taken twice would mix two calls' generations
        calls, threads = 4, 3
        reg = MetricsRegistry()
        errors = []

        def caller(t):
            try:
                for i in range(calls):
                    values = list(range(t * 100 + i, t * 100 + i + 24))
                    out = parallel_for(
                        values, square, workers=2, chunk_size=3,
                        backend="process", metrics=reg,
                    )
                    assert out == [v * v for v in values]
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            pool = [
                threading.Thread(target=caller, args=(t,))
                for t in range(threads)
            ]
            for t in pool:
                t.start()
            for t in pool:
                t.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in pool)
        assert errors == []
        total = calls * threads
        assert (
            reg.total("pool_warm_hits") + reg.total("pool_warm_misses")
            == total
        )
        sessions = list(backend_mod._SESSIONS.values())
        assert 1 <= len(sessions) <= threads
        assert sum(s.calls for s in sessions) == total

    def test_shutdown_reaps_without_the_sentinel(self, monkeypatch):
        # a member forked while another thread forked can hold a
        # sibling's sentinel write end, so the sibling's sentinel never
        # reports its exit: shutdown must not wait on sentinels
        assert parallel_for(
            range(40), square, workers=2, chunk_size=5, backend="process",
        ) == [x * x for x in range(40)]
        pids = set(get_session(2).pids)
        assert len(pids) == 2

        def deaf_wait(object_list, timeout=None):
            time.sleep(timeout or 0)
            return []

        monkeypatch.setattr(multiprocessing.connection, "wait", deaf_wait)
        started = time.monotonic()
        shutdown_sessions()
        elapsed = time.monotonic() - started
        monkeypatch.undo()
        assert elapsed < 0.5  # the join bound is 1 s per member
        assert not pids & _child_pids()

    def test_held_session_is_never_reaped(self, monkeypatch):
        # the call holds its session for ~0.4 s, four idle bounds: a
        # reaper that retired it would cost the call its members
        monkeypatch.setattr(backend_mod, "IDLE_BOUND", 0.1)
        recovery = []
        out = parallel_for(
            range(16), _nap_pid, workers=2, chunk_size=1,
            backend="process", recovery=recovery,
        )
        assert recovery == []
        assert len(set(out)) == 2 and os.getpid() not in out
        # handed back, it is reaped once idle past the bound
        deadline = time.monotonic() + 10.0
        while backend_mod._SESSIONS and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not backend_mod._SESSIONS

    def test_member_survives_a_kernel_that_raises(self):
        # an error that escapes the kernel itself ends the call: the
        # worker reports it, and the call raises it, as in-process
        values = list(range(8))
        assert parallel_for(
            values, square, workers=2, chunk_size=2, backend="process",
        ) == [v * v for v in values]
        session = get_session(2)
        pids = sorted(session.pids)
        with pytest.raises(RuntimeError, match="the kernel broke"):
            parallel_for(
                values, square, workers=2, chunk_size=2,
                backend="process", policy=BrokenKernelPolicy(),
            )
        assert len(session._members) == 2
        assert all(p.is_alive() for p, _q in session._members.values())
        out = parallel_for(
            values, _nap_pid, workers=2, chunk_size=1, backend="process",
        )
        assert set(out) <= set(pids)
        assert get_session(2) is session and sorted(session.pids) == pids

    def test_static_members_run_their_own_stripes(self):
        # the parent hands roster member j the stripe todo[j::2]: chunks
        # 0 and 2 run on one member and chunks 1 and 3 on the other, on
        # a fresh session and again on the same members once it is warm
        pids = []
        for _call in ("fresh", "warm"):
            out = parallel_for(
                range(8), _pid, workers=2, chunk_size=2, schedule="static",
                backend="process",
            )
            by_chunk = [out[lo:lo + 2] for lo in range(0, 8, 2)]
            assert all(a == b for a, b in by_chunk)
            first, second = by_chunk[0][0], by_chunk[1][0]
            assert first != second and os.getpid() not in (first, second)
            assert by_chunk[2][0] == first and by_chunk[3][0] == second
            pids.append((first, second))
        assert pids[0] == pids[1]

    def test_masterworker_runs_share_their_pids(self):
        mw = MasterWorker(workers=2, backend="process")
        first = mw.map(_nap_pid, range(6))
        pids = sorted(get_session(2).pids)
        second = mw.map(_nap_pid, range(6))
        assert len(pids) == 2 and os.getpid() not in pids
        assert set(first) | set(second) <= set(pids)
        assert sorted(get_session(2).pids) == pids

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the probes fork",
    )
    def test_forked_child_forgets_the_parents_sessions(self):
        import repro

        env = dict(os.environ, REPRO_MP_START="fork")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            os.path.dirname(os.path.dirname(repro.__file__)),
            env.get("PYTHONPATH"),
        ]))
        proc = subprocess.run(
            [sys.executable, "-c", FORK_PROBES], env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "fork probes ok" in proc.stdout

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd"
    )
    def test_retired_members_are_closed_once_they_exit(self):
        def call():
            out = parallel_for(
                range(40), square, workers=2, chunk_size=2,
                backend="process", restarts=8, reuse=True,
                chaos=ChaosInjector(seed=1, kill_rate=0.2),
            )
            assert out == [x * x for x in range(40)]

        call()
        session = get_session(2)
        fds = _open_fds()
        for _ in range(11):
            call()
        assert get_session(2) is session and session.calls == 12
        # every call respawns killed members: without the sweep, 48
        # retired processes and ~90 pipe fds pile up over these calls
        assert len(session._retired) <= 4
        assert _open_fds() - fds <= 8

    def test_hedge_loser_leaves_the_warm_session(self, tmp_path):
        body = functools.partial(_straggle_once, str(tmp_path / "slow"))
        recovery = []
        assert parallel_for(
            range(12), body, workers=2, chunk_size=1, backend="process",
            hedge=0.95, recovery=recovery, reuse=True,
        ) == [k * k for k in range(12)]
        assert "hedge" in [e.kind for e in recovery]
        # the straggler still sleeps on element 5: it retires, and the
        # idle hedge copy stays, so a static call runs on full width
        started = time.monotonic()
        assert parallel_for(
            range(8), body, workers=2, chunk_size=1, schedule="static",
            backend="process", reuse=True,
        ) == [k * k for k in range(8)]
        assert time.monotonic() - started < 1.0
        session = get_session(2)
        assert session.calls == 2 and len(session.pids) == 2


# ---------------------------------------------------------------------------
# the process pool really uses processes
# ---------------------------------------------------------------------------

class TestRealProcesses:
    def test_map_runs_in_other_processes(self):
        pids = parallel_for(
            range(8),
            lambda _x: os.getpid(),
            workers=4,
            chunk_size=1,
            backend="process",
        )
        assert any(pid != os.getpid() for pid in pids)

    def test_masterworker_runs_in_other_processes(self):
        mw = MasterWorker(workers=3, backend="process")
        pids = mw.map(lambda _x: os.getpid(), range(6))
        assert any(pid != os.getpid() for pid in pids)

    def test_spawn_start_method(self, monkeypatch):
        # the payload protocol is pickle-only, so the backend must work
        # under spawn (macOS/Windows default) exactly as under fork
        monkeypatch.setenv("REPRO_MP_START", "spawn")
        out = parallel_for(
            range(6), square, workers=2, chunk_size=2, backend="process"
        )
        assert out == [x * x for x in range(6)]


# ---------------------------------------------------------------------------
# tuning file -> generated code -> processes (the round trip)
# ---------------------------------------------------------------------------

GENERATED_SRC = (
    "def f(xs):\n"
    "    out = []\n"
    "    for x in xs:\n"
    "        out.append((x * x, os.getpid()))\n"
    "    return out\n"
)


class TestGeneratedCodeRoundTrip:
    def _match(self):
        from repro.frontend import parse_function
        from repro.model import build_semantic_model
        from repro.patterns import default_catalog

        ir = parse_function(GENERATED_SRC)
        model = build_semantic_model(ir)
        matches = default_catalog(prefer="doall").detect(model)
        assert matches and matches[0].pattern == "doall"
        return ir, matches[0]

    def test_backend_round_trips_through_tuning_file(self, tmp_path):
        from repro.transform import (
            compile_parallel,
            read_tuning_file,
            write_tuning_file,
        )
        from repro.transform.tuningfile import config_for_location

        ir, match = self._match()
        path = tmp_path / "tuning.json"
        write_tuning_file([match], path)

        # the tuning file carries the Backend parameter with its domain
        _, location, params = read_tuning_file(path)[0]
        by_key = {p.key: p for p in params}
        assert by_key["Backend@loop"].value == "thread"
        assert tuple(by_key["Backend@loop"].domain()) == BACKENDS

        # re-tune without recompilation: flip the backend, validated
        apply_config(params, {"Backend@loop": "process"})
        write_tuning_file([match], path)  # file unchanged; config below
        config = config_for_location(path, location)
        config["Backend@loop"] = "process"
        config["NumWorkers@loop"] = 3
        config["ChunkSize@loop"] = 2

        fn = compile_parallel(ir, match, {"os": os})
        with warnings.catch_warnings():
            # a downgrade would invalidate the assertion below — fail loud
            warnings.simplefilter("error", BackendFallbackWarning)
            out = fn(list(range(10)), __tuning__=config)
        assert [v for v, _pid in out] == [x * x for x in range(10)]
        # the generated loop body (an exec-defined closure) was shipped
        # by value and executed on real worker processes
        assert any(pid != os.getpid() for _v, pid in out)

    def test_tuning_file_setting_pool_reuse_still_runs_warm(self, tmp_path):
        import json

        from repro.transform import compile_parallel, write_tuning_file
        from repro.transform.tuningfile import config_for_location

        ir, match = self._match()
        path = tmp_path / "tuning.json"
        write_tuning_file([match], path)
        # the file as the detector wrote it while it emitted PoolReuse
        doc = json.loads(path.read_text())
        entry = doc["patterns"][0]
        for param in entry["parameters"]:
            if param["name"] == "Backend":
                param["value"] = "process"
        entry["parameters"].append({
            "name": "PoolReuse", "target": "loop", "type": "BoolParameter",
            "default": False, "value": False,
            "location": entry["location"], "domain": [False, True],
        })
        path.write_text(json.dumps(doc))
        config = config_for_location(path, entry["location"])
        assert config["PoolReuse@loop"] is False
        config["NumWorkers@loop"] = 2
        fn = compile_parallel(ir, match, {"os": os})
        shutdown_sessions()
        try:
            first = {pid for _v, pid in fn(list(range(8)), __tuning__=config)}
            session = get_session(2)
            pids = set(session.pids)
            second = {pid for _v, pid in fn(list(range(8)), __tuning__=config)}
            assert len(pids) == 2 and first | second <= pids
            assert set(session.pids) == pids and session.calls == 2
        finally:
            shutdown_sessions()

    def test_generated_code_thread_default_unchanged(self):
        from repro.transform import compile_parallel

        ir, match = self._match()
        fn = compile_parallel(ir, match, {"os": os})
        out = fn(list(range(6)))
        assert [v for v, _pid in out] == [x * x for x in range(6)]

    def test_apply_config_rejects_bad_backend(self):
        _, match = self._match()
        with pytest.raises(ValueError):
            apply_config(match.tuning, {"Backend@loop": "quantum"})


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

class TestReporting:
    def test_fault_report_names_backend(self):
        text = fault_report({"backend": "process", "generated": 4})
        assert "backend    : process" in text

    def test_fault_report_shows_downgrades(self):
        event = BackendEvent("process", "thread", "not process-safe (x)")
        text = fault_report(
            {"backend": "thread", "backend_events": [event.as_dict()]}
        )
        assert "downgrade" in text
        assert "process -> thread" in text
        assert "not process-safe" in text

    def test_pipeline_stats_carry_backend(self):
        pipe = Pipeline(Item(lambda x: x + 1, name="inc"))
        pipe.run([1, 2, 3])
        assert pipe.stats["backend"] == "thread"
        assert pipe.stats["backend_events"] == []

    def test_pipeline_serial_backend(self):
        pipe = Pipeline(Item(lambda x: x + 1, name="inc"), backend="serial")
        assert pipe.run([1, 2, 3]) == [2, 3, 4]
        assert pipe.stats["backend"] == "serial"

    def test_pipeline_process_request_recorded_as_event(self):
        # stage workers are thread-bound this release; asking for the
        # process backend must be visible in stats and the report
        pipe = Pipeline(Item(lambda x: x * 2, name="dbl"), backend="process")
        assert pipe.run([1, 2, 3]) == [2, 4, 6]
        events = pipe.stats["backend_events"]
        assert events and events[0]["requested"] == "process"
        assert events[0]["actual"] == "thread"
        assert "downgrade" in fault_report(pipe.stats)

    def test_pipeline_configure_backend_key(self):
        pipe = Pipeline(Item(lambda x: x, name="id"))
        pipe.configure({"Backend@pipeline": "serial"})
        assert pipe.backend == "serial"
        # sibling-pattern targets in a shared tuning file are tolerated
        pipe.configure({"Backend@loop": "process", "Backend@workers": "serial"})
        with pytest.raises(KeyError):
            pipe.configure({"Backend@id": "serial"})
        with pytest.raises(TuningError):
            pipe.configure({"Backend@pipeline": "gpu"})
