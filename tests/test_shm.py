"""The zero-copy data plane: shm transport parity with pickle, strict
qualification with recorded downgrades, warm pool reuse across calls,
the session's input arena and each worker's mapping of it, and
respawn-then-reuse after a chaos worker kill under ``Transport=shm``.
"""

import contextlib
import functools
import operator
import os
import pathlib
import pickle
import queue
import random
import signal
import threading
import time

import pytest

from repro.runtime import (
    BackendFallbackWarning,
    FaultPolicy,
    TuningError,
    parallel_for,
    parallel_reduce,
    plan_chunks,
    shutdown_sessions,
)
from repro.runtime.backend import (
    _SESSIONS,
    Kernel,
    SharedFlag,
    _chunk,
    _run_map_chunk,
    _run_reduce_chunk,
    _session_worker_main,
    get_session,
    mp_context,
    pool_session,
    ship_blob,
    ship_kernel,
)
from repro.runtime import shm as shm_mod
from repro.runtime.shm import (
    InputArena,
    InputMapping,
    ShmInput,
    ShmOutput,
    ShmOutputWriter,
    _pack_into,
    normalize_transport,
)
from repro.runtime.faults import CancellationToken, CancelledError
from repro.runtime.trace import TraceCollector


def square(x):
    return x * x


class FloatSubclass(float):
    """A float that is not exactly ``float``: shm must refuse it."""


def third(x):
    return x / 3


def shout(s):
    return s.upper()


def poison_13(x):
    if x == 13:
        raise ValueError("poison")
    return x * x


def fail_at(x, poison):
    if x == poison:
        raise ValueError(f"poison {x}")
    return x * x


def kill_once(x, marker="", victim=7):
    """SIGKILL the hosting worker the first time ``victim`` is seen."""
    if x == victim:
        path = pathlib.Path(marker)
        if not path.exists():
            path.write_text("died")
            time.sleep(0.1)
            os.kill(os.getpid(), signal.SIGKILL)
    return x * x


@pytest.fixture(autouse=True)
def _no_leaked_sessions():
    """Every test starts and ends with no warm pools alive."""
    shutdown_sessions()
    yield
    shutdown_sessions()


# ---------------------------------------------------------------------------
# qualification and the block primitives
# ---------------------------------------------------------------------------

def qualify(values):
    """``_pack_into`` over a scratch buffer: ``(typecode, reason)``."""
    return _pack_into(values, bytearray)


@contextlib.contextmanager
def placed(values):
    """``values`` placed in a fresh arena, read through a worker's
    mapping: yields ``(mapping, view)``, then unmaps and unlinks."""
    arena, mapping = InputArena(), InputMapping()
    block, reason = ShmInput.build(values, arena)
    assert reason is None
    try:
        yield mapping, mapping.view(block.spec())
    finally:
        try:
            mapping.close()
        finally:
            arena.close()


class TestQualification:
    def test_exact_int_and_float_qualify(self):
        assert qualify([1, 2, 3])[0] == "q"
        assert qualify([1.5, 2.5])[0] == "d"

    @pytest.mark.parametrize(
        "values, why",
        [
            ([], "empty"),
            ([True, False], "not flat numeric"),  # bool is not int here
            ([1, 2.0], "mixed"),
            (["a", "b"], "not flat numeric"),
            ([1, None], "mixed"),
            ([2**63, 1], "64-bit"),
            ([1.0, FloatSubclass(2.0)], "mixed"),
            ([1, True], "mixed"),
            # refusals past the first step of the one-pass gate
            ([7] * 5000 + [True] + [7] * 10, "mixed"),
            ([0.5] * 4097 + [FloatSubclass(2.0)], "mixed"),
            (list(range(9000)) + [2**63], "64-bit"),
        ],
    )
    def test_rejections_state_why(self, values, why):
        typecode, reason = qualify(values)
        assert typecode is None
        assert why in reason

    def test_input_round_trip(self):
        for values in ([5, -7, 2**62], [0.25, -1.5, 3.75]):
            with placed(values) as (_mapping, view):
                assert [view[i] for i in range(len(view))] == values

    def test_output_round_trip_and_tag_guard(self):
        out = ShmOutput.build(6, 2)
        writer = ShmOutputWriter(out.spec())
        assert writer.write(0, 0, [1, 2, 3])
        assert out.read(0, 0, 3) == [1, 2, 3]
        # chunk 1 was never written: reading it is a protocol violation
        with pytest.raises(RuntimeError, match="chunk 1"):
            out.read(1, 3, 6)
        # a non-numeric chunk is refused, leaving its tag empty
        assert not writer.write(1, 3, ["x", "y", "z"])
        with pytest.raises(RuntimeError):
            out.read(1, 3, 6)
        writer.close()
        out.dispose()

    def test_writes_are_idempotent(self):
        out = ShmOutput.build(3, 1)
        writer = ShmOutputWriter(out.spec())
        for _ in range(2):  # hedge winner and loser write the same bytes
            assert writer.write(0, 0, [4, 5, 6])
        assert out.read(0, 0, 3) == [4, 5, 6]
        writer.close()
        out.dispose()

    def test_normalize_transport(self):
        assert normalize_transport("shm") == "shm"
        with pytest.raises(TuningError, match="Transport"):
            normalize_transport("carrier-pigeon")


# ---------------------------------------------------------------------------
# transport parity: shm and pickle must be observably identical
# ---------------------------------------------------------------------------

class TestTransportParity:
    def run_one(self, transport, body=square, values=None, policy=None):
        values = list(range(40)) if values is None else values
        ledger, events, trace = [], [], TraceCollector()
        out = parallel_for(
            values, body,
            workers=2, chunk_size=8, backend="process",
            transport=transport, policy=policy,
            ledger=ledger, events=events, trace=trace,
        )
        return out, ledger, events, trace

    def test_values_ledger_and_spans_match(self):
        got_p, ledger_p, events_p, trace_p = self.run_one("pickle")
        got_s, ledger_s, events_s, trace_s = self.run_one("shm")
        assert got_s == got_p == [v * v for v in range(40)]
        assert ledger_s == ledger_p == []
        assert events_s == events_p == []
        # same span shapes: one execute span per element on both planes
        kinds_p = sorted((s.kind, s.seq) for s in trace_p.spans())
        kinds_s = sorted((s.kind, s.seq) for s in trace_s.spans())
        assert kinds_s == kinds_p

    def test_float_results_keep_their_type(self):
        got, _ledger, events, _trace = self.run_one("shm", body=third)
        assert got == [v / 3 for v in range(40)]
        assert all(type(v) is float for v in got)
        assert events == []

    def test_fallback_chunk_degrades_inline_with_same_accounting(self):
        # element 13 is poison; the policy substitutes None, making its
        # chunk non-numeric — that chunk ships inline while its numeric
        # siblings use the region, and the ledgers stay identical
        policy = FaultPolicy(on_error="fallback")
        got_p, ledger_p, _e, _t = self.run_one("pickle", poison_13,
                                               policy=policy)
        got_s, ledger_s, _e2, _t2 = self.run_one("shm", poison_13,
                                                 policy=policy)
        assert got_s == got_p
        assert got_s[13] is None and got_s[12] == 144
        assert [(r.seq, r.attempts) for r in ledger_s] == [
            (r.seq, r.attempts) for r in ledger_p
        ] == [(13, 1)]

    def test_reduce_parity(self):
        values = list(range(60))
        import operator
        totals = {
            transport: parallel_reduce(
                values, square, operator.add, 10,
                workers=2, chunk_size=8, backend="process",
                transport=transport,
            )
            for transport in ("pickle", "shm")
        }
        assert totals["shm"] == totals["pickle"]
        assert totals["shm"] == 10 + sum(v * v for v in values)


# ---------------------------------------------------------------------------
# non-qualifying data: a recorded downgrade, never a crash
# ---------------------------------------------------------------------------

class TestTransportDowngrade:
    def test_non_numeric_input_records_event_and_succeeds(self):
        events = []
        with pytest.warns(BackendFallbackWarning, match="transport downgrade"):
            out = parallel_for(
                ["ab", "cd", "ef", "gh"], shout,
                workers=2, chunk_size=1, backend="process",
                transport="shm", events=events,
            )
        assert out == ["AB", "CD", "EF", "GH"]
        assert len(events) == 1
        event = events[0].as_dict()
        assert event["requested"] == "shm"
        assert event["actual"] == "pickle"
        assert "not flat numeric" in event["reason"]

    def test_bool_input_downgrades(self):
        events = []
        with pytest.warns(BackendFallbackWarning):
            out = parallel_for(
                [True, False, True, False], square,
                workers=2, chunk_size=1, backend="process",
                transport="shm", events=events,
            )
        assert out == [1, 0, 1, 0]
        assert len(events) == 1

    def test_junk_transport_raises(self):
        with pytest.raises(TuningError, match="Transport"):
            parallel_for(
                [1, 2, 3], square, workers=2, backend="process",
                transport="smoke-signals",
            )


# ---------------------------------------------------------------------------
# warm pool reuse
# ---------------------------------------------------------------------------

class TestWarmPool:
    def test_workers_survive_across_calls(self):
        values = list(range(30))
        for _ in range(2):
            out = parallel_for(
                values, square, workers=2, chunk_size=5,
                backend="process", reuse=True,
            )
            assert out == [v * v for v in values]
        assert len(_SESSIONS) == 1
        session = next(iter(_SESSIONS.values()))
        assert session.calls == 2
        first_pids = set(session.pids)
        assert len(first_pids) == 2
        # a third call reuses the exact same worker processes
        parallel_for(values, square, workers=2, chunk_size=5,
                     backend="process", reuse=True)
        assert set(session.pids) == first_pids
        assert session.calls == 3

    def test_sessions_keyed_by_width(self):
        values = list(range(12))
        parallel_for(values, square, workers=2, chunk_size=3,
                     backend="process", reuse=True)
        parallel_for(values, square, workers=3, chunk_size=3,
                     backend="process", reuse=True)
        assert len(_SESSIONS) == 2

    def test_distinct_kernels_share_one_session(self):
        values = list(range(20))
        assert parallel_for(values, square, workers=2, chunk_size=4,
                            backend="process", reuse=True) == [
            v * v for v in values
        ]
        assert parallel_for(values, third, workers=2, chunk_size=4,
                            backend="process", reuse=True) == [
            v / 3 for v in values
        ]
        session = next(iter(_SESSIONS.values()))
        assert session.calls == 2

    def test_ship_blob_caches_plain_callables(self):
        # the picklability probe's bytes ARE the payload: no double
        # serialization, and repeat ships are cache hits
        first = ship_blob(square)
        assert ship_blob(square) is first
        # closures go by value and are rebuilt per call, never cached
        def closure(x, k=[]):  # noqa: B006 - identity matters, not style
            return x
        assert ship_blob(closure) is not ship_blob(closure)


# ---------------------------------------------------------------------------
# recovery semantics are transport-independent
# ---------------------------------------------------------------------------

class TestRespawnUnderShm:
    def test_chaos_kill_respawns_then_session_reuses(self, tmp_path):
        import functools

        marker = tmp_path / "died"
        body = functools.partial(kill_once, marker=str(marker))
        values = list(range(32))
        recovery = []
        out = parallel_for(
            values, body,
            workers=2, chunk_size=4, backend="process",
            transport="shm", reuse=True,
            restarts=2, recovery=recovery,
        )
        assert out == [v * v for v in values]
        assert marker.exists()
        kinds = [e.kind for e in recovery]
        assert "respawn" in kinds and "redispatch" in kinds
        # the healed warm pool keeps serving: the next call reuses it
        session = next(iter(_SESSIONS.values()))
        healed = set(session.pids)
        out2 = parallel_for(
            values, square, workers=2, chunk_size=4,
            backend="process", transport="shm", reuse=True,
        )
        assert out2 == [v * v for v in values]
        assert set(session.pids) == healed
        assert session.calls == 2

    def test_worker_loss_without_budget_still_fails(self, tmp_path):
        import functools

        from repro.runtime import WorkerLostError

        marker = tmp_path / "died"
        body = functools.partial(kill_once, marker=str(marker))
        with pytest.raises(WorkerLostError):
            parallel_for(
                list(range(32)), body,
                workers=2, chunk_size=4, backend="process",
                transport="shm", restarts=0,
            )


# ---------------------------------------------------------------------------
# kernels read a chunk in place: no view of a segment outlives its kernel
# ---------------------------------------------------------------------------

def boxed(x):
    return [x]


def stop_after(n):
    """A ``should_stop`` that fires before the ``n``-th element."""
    calls = iter(range(n + 1))
    return lambda: next(calls, n) >= n


def cancel_at(x, poison, token):
    """Fire the run's ``token`` at ``poison`` and raise its cancellation,
    as a nested group cancelled mid-element does: that escapes the
    kernel, where a body's own ``CancelledError`` is a failed element."""
    if x == poison:
        token.cancel("stopped mid-element")
        token.raise_if_cancelled()
    return x * x


#: views of a chunk a :class:`LeakyPolicy` kept past its kernel
LEAKED: list[memoryview] = []


class LeakyPolicy(FaultPolicy):
    """A policy whose chunk loop keeps a view of the chunk it read: the
    runtime bug a worker's failing unmap must surface."""

    def execute_chunk(self, fn, chunk, *args, **kwargs):
        LEAKED.append(memoryview(chunk))
        return super().execute_chunk(fn, chunk, *args, **kwargs)


#: how a kernel leaves its chunk: ``(kernel, body, policy, traced,
#: stop after)`` — every road out of a kernel must release its read of
#: the block
POISON_21 = functools.partial(fail_at, poison=21.0)
KERNEL_EXITS = {
    "map-ok": ("map", square, None, False, None),
    "map-fails": ("map", POISON_21, None, False, None),
    "map-stopped": ("map", square, None, False, 3),
    "map-traced-fails": ("map", POISON_21, None, True, None),
    "policy-ok": ("map", square, FaultPolicy(on_error="fallback"), False, None),
    "policy-fails": ("map", POISON_21, FaultPolicy(), True, None),
    "policy-stopped": ("map", square, FaultPolicy(), False, 3),
    "policy-cancelled": (
        "map", functools.partial(cancel_at, poison=21.0), FaultPolicy(),
        False, None,
    ),
    "fold-ok": ("fold", square, None, False, None),
    "fold-fails": ("fold", POISON_21, None, False, None),
}


class TestViewLifetime:
    @pytest.mark.parametrize("values", [
        [5, -7, 2**62, 0, -(2**62), 1],
        [0.25, -1.5, 3.75, 1e300, -7.0, 2.0**62],
    ], ids=["q", "d"])
    def test_chunk_reads_yield_the_lists_values(self, values):
        with placed(values) as (_mapping, view):
            for lo, hi in ((0, len(values)), (1, 4), (3, len(values))):
                with _chunk(view, lo, hi) as part:
                    got = list(part)
                assert got == values[lo:hi]
                assert [type(v) for v in got] == [
                    type(v) for v in values[lo:hi]
                ]
                # both kernels read the same values off the block as
                # off the call's own list
                for vals in (view, values):
                    mapped, _r, _c, failed, _a = _run_map_chunk(
                        0, (lo, hi), boxed, vals, None, lambda: False,
                    )
                    assert not failed
                    assert mapped == [[v] for v in values[lo:hi]]
                    folded, _r, _c, failed = _run_reduce_chunk(
                        0, (lo, hi), boxed, vals, operator.add,
                    )
                    assert folded == [values[lo:hi]]

    @staticmethod
    def assert_unpinned(mapping, view):
        """The worker keeps the arena mapped after a kernel, and the
        kernel released every typed view of it: the mapping can unmap.
        ``close()`` raises ``BufferError`` while any export is alive."""
        seg = view._seg
        assert seg._mmap is not None
        try:
            mapping.close()
            exported = False
        except BufferError:
            exported = True
        assert not exported, "an export of the segment outlived the kernel"
        assert seg._mmap is None

    @pytest.mark.parametrize("exit_", list(KERNEL_EXITS))
    def test_no_export_of_the_segment_survives_the_kernel(self, exit_):
        kernel, body, policy, traced, stop = KERNEL_EXITS[exit_]
        values = [float(v) for v in range(32)]
        with placed(values) as (mapping, view):
            if kernel == "fold":
                _v, _r, _c, failed = _run_reduce_chunk(
                    0, (16, 32), body, view, operator.add,
                )
                assert failed == exit_.endswith("fails")
            else:
                should_stop = stop_after(stop) if stop else lambda: False
                token = CancellationToken()
                if exit_ == "policy-cancelled":
                    body = functools.partial(body, token=token)
                try:
                    _v, _r, _c, failed, aborted = _run_map_chunk(
                        0, (16, 32), body, view, policy, should_stop,
                        trace=TraceCollector() if traced else None,
                        cancel=token,
                    )
                except CancelledError:
                    assert exit_ == "policy-cancelled"
                else:
                    assert failed == exit_.endswith("fails")
                    assert aborted == exit_.endswith("stopped")
            self.assert_unpinned(mapping, view)

    def test_kernel_error_does_not_pin_the_segment(self):
        # a kernel error's traceback holds the failed kernel's frame; if
        # that frame held a buffer export, the mapping could not unmap
        values = [float(v) for v in range(32)]
        body = functools.partial(fail_at, poison=21.0)
        with placed(values) as (mapping, view):
            _v, reduce_records, _c, failed = _run_reduce_chunk(
                0, (16, 32), body, view, operator.add,
            )
            assert failed and reduce_records[0][0] == 16
            _v, map_records, _c, failed, _aborted = _run_map_chunk(
                0, (16, 32), body, view, None, lambda: False,
            )
            assert failed and map_records[0][0] == 21
            held = [r[1] for r in reduce_records + map_records]
            assert all(e.__traceback__ is not None for e in held)
            self.assert_unpinned(mapping, view)

    def test_the_mapping_is_kept_until_the_arena_changes(self):
        arena, mapping = InputArena(), InputMapping()
        try:
            first, _r = ShmInput.build([1.0] * 10, arena)
            seg = mapping.view(first.spec())._seg
            # a call of the same size repacks the same segment
            again, _r = ShmInput.build([2.0] * 10, arena)
            assert again.spec()["name"] == first.spec()["name"]
            view = mapping.view(again.spec())
            assert view._seg is seg and view[9] == 2.0
            # a larger input gets a new segment: the worker maps it and
            # unmaps the old one
            grown, _r = ShmInput.build([3.0] * 20, arena)
            assert grown.spec()["name"] != first.spec()["name"]
            view = mapping.view(grown.spec())
            assert view._seg is not seg and seg._mmap is None
            assert view[19] == 3.0
        finally:
            mapping.close()
            arena.close()

    def test_a_pinned_arena_ends_the_worker(self):
        # a worker whose kernel left a view of the arena alive cannot
        # unmap it when the next call names a new arena: it reports the
        # call fatal, marks it done, and ends instead of keeping the old
        # segment mapped (run in-process, on the worker's own loop)
        values = [float(v) for v in range(8)]
        arenas = [InputArena(), InputArena()]
        blob, _reason = ship_kernel(Kernel(square, LeakyPolicy(), None, "l"))

        def task(gen, arena):
            block, _reason = ShmInput.build(values, arena)
            call = pickle.dumps((("shm", block.spec()), None, [(0, 8)]))
            return pickle.dumps((gen, "k", blob, call, [0], None))

        task_q, result_q = queue.Queue(), queue.Queue()
        task_q.put(task(2, arenas[1]))
        task_q.put(None)  # the sentinel: a worker that went on would exit
        counter = mp_context().Value("Q", 1 << 32)  # generation 1, chunk 0
        try:
            # ``raised`` keeps the worker's frame, and with it the pinned
            # mapping, alive until the leaked view is released below
            with pytest.raises(BufferError) as raised:
                _session_worker_main(
                    0, task_q, result_q, counter, SharedFlag(),
                    task(1, arenas[0]),
                )
            got = []
            while not result_q.empty():
                message = pickle.loads(result_q.get())
                got.append((message[0], message[-1]))
            assert got == [
                ("claim", 1), ("chunk", 1), ("done", 1),
                ("fatal", 2), ("done", 2),
            ]
            assert task_q.get_nowait() is None  # it ended at once
        finally:
            for view in LEAKED:
                view.release()
            LEAKED.clear()
            for arena in arenas:
                arena.close()
        del raised

    def test_failing_calls_keep_the_warm_pool_whole(self):
        # a warm worker whose close failed would die after the call (or
        # keep the segment mapped); either way the next call would see it
        values = [float(v) for v in range(64)]
        body = functools.partial(fail_at, poison=21.0)
        opts = dict(
            workers=2, chunk_size=8, backend="process", transport="shm",
            reuse=True,
        )
        with pytest.raises(ValueError, match="poison 21"):
            parallel_for(values, body, **opts)
        session = next(iter(_SESSIONS.values()))
        pids = set(session.pids)
        assert len(pids) == 2
        with pytest.raises(ValueError, match="poison 21"):
            parallel_reduce(values, body, operator.add, 0.0, **opts)
        assert parallel_for(values, square, **opts) == [
            v * v for v in values
        ]
        assert set(session.pids) == pids
        assert session.calls == 3


# ---------------------------------------------------------------------------
# element identity on the shm road
# ---------------------------------------------------------------------------

class TestElementIdentity:
    @pytest.mark.parametrize("schedule", ["dynamic", "guided"])
    @pytest.mark.parametrize("policy", [
        None, FaultPolicy(on_error="fallback"),
    ], ids=["fail-fast", "fallback"])
    def test_mid_chunk_failure_names_its_own_element(self, policy, schedule):
        n, chunk = 40, 4
        lo, hi = plan_chunks(n, chunk, schedule, 2)[1]
        poison = lo + (hi - lo) // 2
        assert lo < poison < hi - 1
        for trace in (None, TraceCollector()):
            ledger, events = [], []
            try:
                values = parallel_for(
                    list(range(n)), functools.partial(fail_at, poison=poison),
                    workers=2, chunk_size=chunk, schedule=schedule,
                    backend="process", transport="shm", policy=policy,
                    ledger=ledger, events=events, trace=trace,
                )
            except ValueError as exc:
                values = repr(exc)
            assert events == []
            assert [r.seq for r in ledger] == [poison]
            if policy is None:
                assert values == repr(ValueError(f"poison {poison}"))
            else:
                assert values == [
                    None if x == poison else x * x for x in range(n)
                ]
            if trace is not None:
                assert [
                    s.seq for s in trace.spans()
                    if s.kind == "execute" and "error" in s.detail
                ] == [poison]

    def test_float_reduce_matches_pickle_and_serial_bit_for_bit(self):
        rng = random.Random(7)
        values = [rng.uniform(-1e6, 1e6) for _ in range(200)]
        totals = {
            (backend, transport): parallel_reduce(
                values, third, operator.add, 0.1, workers=2, chunk_size=16,
                backend=backend, transport=transport,
                # a trace keeps the serial run's chunk plan
                trace=TraceCollector(),
            )
            for backend, transport in (
                ("process", "shm"), ("process", "pickle"),
                ("serial", "pickle"),
            )
        }
        assert len({total.hex() for total in totals.values()}) == 1


# ---------------------------------------------------------------------------
# the session's input arena: one segment per session, reused across calls
# ---------------------------------------------------------------------------

def psm_names():
    return {p.name for p in pathlib.Path("/dev/shm").glob("psm_*")}


def the_session():
    (session,) = _SESSIONS.values()
    return session


def slow_or_fail(x):
    """Raise on a negative element; take a while on the others."""
    if x < 0:
        raise ValueError(f"negative {x}")
    time.sleep(0.0002)
    return x


def count_creates(monkeypatch):
    """The sizes of every ``SharedMemory(create=True)`` from now on."""
    created = []
    make = shm_mod.shared_memory.SharedMemory

    def counting(*args, **kwargs):
        if kwargs.get("create"):
            created.append(kwargs.get("size"))
        return make(*args, **kwargs)

    monkeypatch.setattr(shm_mod.shared_memory, "SharedMemory", counting)
    return created


def mapped_by_workers(session, name, timeout=10.0):
    """Whether every member of ``session`` maps segment ``name`` and no
    other input arena, within ``timeout``: a member reads the call's
    task after the call may already have returned."""
    deadline = time.monotonic() + timeout
    while True:
        maps = [
            pathlib.Path(f"/proc/{pid}/maps").read_text()
            for pid in session.pids
        ]
        if all(
            f"/{name}" in m and m.count("/psm_") == 1 for m in maps
        ):
            return True
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)


@pytest.mark.skipif(
    not pathlib.Path("/dev/shm").is_dir(), reason="needs POSIX /dev/shm"
)
class TestInputArena:
    OPTS = dict(workers=2, chunk_size=500, backend="process", transport="shm")

    def reduce(self, values, body=square, **kwargs):
        return parallel_reduce(
            values, body, operator.add, 0, **self.OPTS, **kwargs
        )

    def test_repeated_calls_place_into_one_segment(self, monkeypatch):
        values = [float(v % 17) for v in range(3000)]
        created = count_creates(monkeypatch)
        names = []
        for _ in range(5):
            assert self.reduce(values) == sum(v * v for v in values)
            names.append(the_session().arena.name)
        assert created == [3000 * 8]
        assert len(set(names)) == 1 and names[0] in psm_names()
        # each worker keeps the arena mapped between calls
        if pathlib.Path("/proc/self/maps").exists():
            assert mapped_by_workers(the_session(), names[0])

    def test_larger_input_replaces_the_arena(self):
        small = [float(v % 5) for v in range(1000)]
        large = [float(v % 7) for v in range(3000)]
        assert self.reduce(small) == sum(v * v for v in small)
        old = the_session().arena.name
        assert self.reduce(large) == sum(v * v for v in large)
        new = the_session().arena.name
        assert new != old
        assert old not in psm_names() and new in psm_names()
        # workers re-attach by the new name and unmap the old segment
        if pathlib.Path("/proc/self/maps").exists():
            assert mapped_by_workers(the_session(), new)
        # a smaller input fits the larger arena
        assert self.reduce(small) == sum(v * v for v in small)
        assert the_session().arena.name == new

    def test_shutdown_unlinks_the_arena(self):
        before = psm_names()
        self.reduce([1.5] * 2000)
        assert the_session().arena.name in psm_names()
        shutdown_sessions()
        assert not psm_names() - before

    def test_fork_child_leaves_the_parents_arena(self):
        values = [float(v % 3) for v in range(2000)]
        self.reduce(values)
        name = the_session().arena.name
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child
            try:
                shutdown_sessions()  # what the child's exit hook runs
            finally:
                os._exit(0)
        _pid, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert name in psm_names()
        assert self.reduce(values) == sum(v * v for v in values)
        assert the_session().arena.name == name

    @pytest.mark.skipif(
        not pathlib.Path("/proc/self/maps").exists(),
        reason="reads the members' /proc/<pid>/maps",
    )
    def test_no_member_keeps_a_result_region_mapped(self):
        # the members are forked during the first call and inherit its
        # result region; each unmaps that copy at the fork, so once every
        # member has closed its own writer no member maps an unlinked
        # segment
        values = [float(v % 13) for v in range(20_000)]
        for _ in range(3):
            out = parallel_for(values, square, **self.OPTS)
            assert out == [v * v for v in values]
        # held, the session is never reaped while it is probed
        with pool_session(2) as session:
            deadline = time.monotonic() + 3.0
            while True:
                unlinked = [
                    line
                    for pid in session.pids
                    for line in pathlib.Path(f"/proc/{pid}/maps")
                    .read_text().splitlines()
                    if "/psm_" in line and line.endswith("(deleted)")
                ]
                if not unlinked or time.monotonic() > deadline:
                    break
                time.sleep(0.05)
        assert unlinked == []

    def test_straggler_reading_a_repacked_arena_is_harmless(self):
        # chunk 0 fails at once and ends the call while the other worker
        # is still folding; the next call repacks the same segment under
        # it, and its stale partial carries the old generation
        n = 4000
        with pytest.raises(ValueError, match="negative"):
            self.reduce([-1.0] + [1.0] * (n - 1), body=slow_or_fail)
        values = [float(v % 9) for v in range(n)]
        assert self.reduce(values, body=slow_or_fail) == sum(values)

    def test_hedged_reduce_is_exact(self):
        values = [float(v % 11) for v in range(4000)]
        assert self.reduce(values, body=slow_or_fail, hedge=0.5) == sum(
            values
        )

    def test_concurrent_callers_get_their_own_arenas(self):
        barrier = threading.Barrier(2)
        results = {}

        def call(k):
            values = [float(k + v % 5) for v in range(4000)]
            barrier.wait(timeout=30)
            results[k] = (self.reduce(values, body=slow_or_fail), sum(values))

        threads = [threading.Thread(target=call, args=(k,)) for k in (1, 2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
        assert sorted(results) == [1, 2]
        assert all(got == want for got, want in results.values())
        assert len({s.arena.name for s in _SESSIONS.values()}) == 2

    @pytest.mark.parametrize("refused, why", [
        ([7] * 5000 + [True] + [7] * 100, "mixed"),
        ([0.5] * 4097 + [FloatSubclass(0.5)] + [0.5] * 100, "mixed"),
        ([3] * 6000 + [2**63], "64-bit"),
    ], ids=["bool-at-5000", "float-subclass-at-4097", "int64-last"])
    def test_refusal_deep_in_the_input_downgrades_cleanly(self, refused, why):
        # the warm session's arena already fits the input
        self.reduce([float(v % 2) for v in range(len(refused))])
        before = psm_names()
        events = []
        with pytest.warns(BackendFallbackWarning, match="transport"):
            got = self.reduce(refused, events=events)
        assert got == sum(v * v for v in refused)
        assert [(e.requested, e.actual) for e in events] == [
            ("shm", "pickle")
        ]
        assert why in events[0].reason
        assert psm_names() == before
        # the refusal may have packed part of it: the next call repacks
        values = [float(v % 13) for v in range(len(refused))]
        assert self.reduce(values) == sum(v * v for v in values)


# ---------------------------------------------------------------------------
# the session registry
# ---------------------------------------------------------------------------

class TestSessionRegistry:
    def test_get_session_is_lru_bounded(self):
        from repro.runtime.backend import MAX_SESSIONS

        for width in range(2, 2 + MAX_SESSIONS + 2):
            get_session(width)
        assert len(_SESSIONS) == MAX_SESSIONS

    def test_shutdown_sessions_clears_everything(self):
        get_session(2)
        assert _SESSIONS
        shutdown_sessions()
        assert not _SESSIONS
