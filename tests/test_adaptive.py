"""Variable-size scheduling: descriptor planners, the ``adaptive`` alias
of ``guided``, plan-carrying journals, and checkpoint/resume round trips
with variable-size chunks — including under seeded worker kills."""

import functools
import os
import pathlib
import random
import signal
import time

import pytest

from repro.runtime import (
    SCHEDULES,
    ChaosInjector,
    CheckpointError,
    ChunkJournal,
    TuningError,
    WorkerLostError,
    parallel_for,
    plan_chunks,
    plan_guided,
)
from repro.runtime.adaptive import normalize_schedule, plan_fixed
from repro.runtime.backend import get_session
from repro.runtime.metrics import MetricsRegistry


def square(x):
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


def spin(steps):
    """An LCG spun ``steps`` times: CPU work proportional to ``steps``."""
    acc = steps
    for _ in range(steps):
        acc = (acc * 1103515245 + 12345) & 0x7FFFFFFF
    return acc


def contiguous(bounds, n, start=0):
    """True iff ``bounds`` tiles ``[start, n)`` without gap or overlap."""
    lo = start
    for b_lo, b_hi in bounds:
        if b_lo != lo or b_hi <= b_lo:
            return False
        lo = b_hi
    return lo == n


# ---------------------------------------------------------------------------
# descriptor planners
# ---------------------------------------------------------------------------

class TestPlanners:
    def test_fixed_stride(self):
        assert plan_fixed(10, 4) == [(0, 4), (4, 8), (8, 10)]

    def test_fixed_rejects_bad_chunk(self):
        with pytest.raises(TuningError):
            plan_fixed(10, 0)

    def test_guided_covers_space(self):
        bounds = plan_guided(1000, 1, 4)
        assert contiguous(bounds, 1000)

    def test_guided_shrinks_geometrically(self):
        bounds = plan_guided(1000, 1, 4)
        sizes = [hi - lo for lo, hi in bounds]
        # first descriptor is ceil(remaining / (2 * workers))
        assert sizes[0] == 125
        # never grows, and the tail reaches the floor
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        assert sizes[-1] == 1

    def test_guided_respects_min_chunk(self):
        sizes = [hi - lo for lo, hi in plan_guided(200, 8, 4)]
        # the floor binds everywhere except the final descriptor, which
        # is truncated at n (whatever remainder is left)
        assert all(s >= 8 for s in sizes[:-1])
        assert sizes[-1] <= 8

    def test_guided_start_offset(self):
        bounds = plan_guided(100, 1, 2, start=60)
        assert contiguous(bounds, 100, start=60)

    def test_plan_chunks_per_schedule(self):
        fixed = plan_chunks(40, 4, "static")
        assert fixed == plan_chunks(40, 4, "dynamic") == plan_fixed(40, 4)
        guided = plan_chunks(40, 1, "guided", workers=4)
        assert guided == plan_guided(40, 1, 4)
        # adaptive is an alias of guided: the same plan
        assert plan_chunks(40, 1, "adaptive", workers=4) == guided
        assert normalize_schedule("adaptive") == "guided"

    def test_plan_chunks_rejects_junk(self):
        with pytest.raises(TuningError):
            plan_chunks(10, 1, "magic")


# ---------------------------------------------------------------------------
# plan-carrying journals
# ---------------------------------------------------------------------------

class TestPlanJournal:
    def test_plan_round_trips(self, tmp_path):
        path = tmp_path / "p.journal"
        with ChunkJournal.create(path) as j:
            j.bind(20, 2, schedule="guided")
            j.plan(0, [(0, 8), (8, 14)])
            j.plan(2, [(14, 20)])
            j.record(1, 8, 14, [0] * 6)
        j2 = ChunkJournal.load(path)
        assert j2.planned() == {0: (0, 8), 1: (8, 14), 2: (14, 20)}
        assert j2.planned_total == 3
        assert j2.completed_ranges() == {1: (8, 14, [0] * 6)}
        assert j2.shape["schedule"] == "guided"

    def test_replan_identical_is_idempotent(self, tmp_path):
        with ChunkJournal.create(tmp_path / "p.journal") as j:
            j.plan(0, [(0, 4)])
            j.plan(0, [(0, 4)])
            assert j.planned_total == 1

    def test_conflicting_replan_raises(self, tmp_path):
        with ChunkJournal.create(tmp_path / "p.journal") as j:
            j.plan(0, [(0, 4)])
            with pytest.raises(CheckpointError, match="re-plan"):
                j.plan(0, [(0, 6)])

    def test_schedule_mismatch_refuses_resume(self, tmp_path):
        path = tmp_path / "s.journal"
        with ChunkJournal.create(path) as j:
            j.bind(20, 2, schedule="guided")
        with ChunkJournal.resume(path) as j2:
            with pytest.raises(CheckpointError, match="shape"):
                j2.bind(20, 2, schedule="dynamic")

    @pytest.mark.parametrize("schedule", ["guided", "adaptive"])
    def test_adaptive_wave_journal_resumes_under_either_name(
        self, tmp_path, schedule
    ):
        # what an earlier adaptive run left behind: the shape stamped
        # "adaptive", two waves of fixed-size descriptors planned ahead
        # of dispatch, and some of their chunks recorded
        n, chunk, workers = 40, 2, 2
        waves = (
            [(0, 2), (2, 4), (4, 6), (6, 8)],
            [(8, 12), (12, 16), (16, 20), (20, 24)],
        )
        old_plan = waves[0] + waves[1]
        recorded = (0, 1, 3, 5)
        path = tmp_path / "waves.journal"
        with ChunkJournal.create(path) as j:
            j.bind(n, chunk, schedule="adaptive")
            j.plan(0, waves[0])
            j.plan(len(waves[0]), waves[1])
            for k in recorded:
                lo, hi = old_plan[k]
                j.record(k, lo, hi, [square(x) for x in range(lo, hi)])
        with ChunkJournal.resume(path) as j2:
            with pytest.raises(CheckpointError, match="shape"):
                j2.bind(n, chunk, schedule="dynamic")
        ran = []

        def body(x):
            ran.append(x)
            return square(x)

        with ChunkJournal.resume(path) as j3:
            out = parallel_for(
                range(n), body, workers=workers, chunk_size=chunk,
                schedule=schedule, backend="thread", checkpoint=j3,
            )
            planned = list(j3.planned().values())
        assert out == [square(x) for x in range(n)]
        # the journaled waves replay verbatim; the uncovered tail gets
        # the guided shrink
        assert planned == old_plan + plan_guided(n, chunk, workers, start=24)
        # no recorded chunk runs again, everything else runs once
        done = {x for k in recorded for x in range(*old_plan[k])}
        assert sorted(ran) == sorted(set(range(n)) - done)

    def test_legacy_journal_resumes_under_any_schedule(self, tmp_path):
        # journals written before schedules were part of the shape carry
        # no schedule key; they must keep resuming
        path = tmp_path / "old.journal"
        with ChunkJournal.create(path) as j:
            j.bind(20, 2)
        with ChunkJournal.resume(path) as j2:
            j2.bind(20, 2, schedule="dynamic")


# ---------------------------------------------------------------------------
# end-to-end: variable-size schedules through parallel_for
# ---------------------------------------------------------------------------

class TestEndToEnd:
    @pytest.mark.parametrize("schedule", ["guided", "adaptive"])
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_schedules_on_every_backend(self, schedule, backend):
        out = parallel_for(
            range(50), square, workers=3, chunk_size=2,
            schedule=schedule, backend=backend,
        )
        assert out == [x * x for x in range(50)]

    def test_adaptive_conserves_planned_chunks(self):
        reg = MetricsRegistry()
        out = parallel_for(
            range(64), square, workers=3, chunk_size=2,
            schedule="adaptive", backend="process", metrics=reg,
        )
        assert out == [x * x for x in range(64)]
        assert reg.total("chunks_planned") > 0
        assert (
            reg.total("chunks_completed") - reg.total("chunks_deduped")
            == reg.total("chunks_planned")
        )

    def test_adaptive_keeps_the_warm_pool_whole(self):
        # skewed costs on a warm 2-worker pool: each call dispatches the
        # whole guided plan once, so every call after the first finds the
        # same two workers (no worker shed mid-call, none respawned)
        rng = random.Random(1)
        costs = [
            min(20_000, int(rng.paretovariate(1.2) * 40)) for _ in range(120)
        ]
        expected = [spin(c) for c in costs]
        pids = []
        for _ in range(3):
            reg = MetricsRegistry()
            out = parallel_for(
                costs, spin, workers=2, chunk_size=2, schedule="adaptive",
                backend="process", reuse=True, metrics=reg,
            )
            assert out == expected
            assert reg.total("chunks_planned") == len(
                plan_guided(len(costs), 2, 2)
            )
            pids.append(sorted(get_session(2).pids))
        assert len(pids[0]) == 2
        assert pids[1] == pids[0] and pids[2] == pids[0]

    @pytest.mark.parametrize("schedule", ["guided", "adaptive"])
    def test_full_run_resumes_without_reexecution(self, tmp_path, schedule):
        path = tmp_path / "v.journal"
        with ChunkJournal.create(path) as j:
            out = parallel_for(
                range(40), square, workers=3, chunk_size=2,
                schedule=schedule, backend="thread", checkpoint=j,
            )
        assert out == [x * x for x in range(40)]
        # resume with a DIFFERENT worker count: the journaled plan is
        # authoritative (a recomputed guided plan would disagree), and
        # a complete journal re-executes nothing
        with ChunkJournal.resume(path) as j2:
            out2 = parallel_for(
                range(40), square, workers=5, chunk_size=2,
                schedule=schedule, backend="thread", checkpoint=j2,
            )
            assert out2 == out
            assert j2.summary()["recorded"] == 0

    def test_adaptive_kill_then_resume_round_trip(self, tmp_path):
        # phase 1: a worker SIGKILL with no restart budget fails the run
        # mid-flight, leaving plan records ahead of chunk records
        body = functools.partial(
            kill_once, marker=str(tmp_path / "died"), victim=13
        )
        path = tmp_path / "a.journal"
        j = ChunkJournal.create(path)
        with pytest.raises(WorkerLostError):
            try:
                parallel_for(
                    range(24), body, workers=3, chunk_size=2,
                    schedule="adaptive", backend="process",
                    restarts=0, checkpoint=j,
                )
            finally:
                j.close()
        loaded = ChunkJournal.load(path)
        survived = loaded.completed_indices()
        planned = loaded.planned()
        assert planned  # plan-ahead logging put the wave on disk
        assert set(survived) <= set(planned)
        assert len(survived) < len(planned)  # the kill stranded chunks

        # phase 2: resume replays exactly the planned-but-missing
        # descriptors (verbatim bounds, original indices) and finishes
        reg = MetricsRegistry()
        j2 = ChunkJournal.resume(path)
        out = parallel_for(
            range(24), body, workers=3, chunk_size=2,
            schedule="adaptive", backend="process",
            checkpoint=j2, metrics=reg,
        )
        assert out == [x * x for x in range(24)]
        assert j2.summary()["resumed"] == len(survived)
        # the resumed run's conservation: planned-this-run descriptors
        # (replays + fresh waves) all completed exactly once
        assert (
            reg.total("chunks_completed") - reg.total("chunks_deduped")
            == reg.total("chunks_planned")
        )
        # the final journal tiles the whole space with no overlap
        final = ChunkJournal.load(path)
        ranges = sorted(
            (lo, hi) for lo, hi, _v in final.completed_ranges().values()
        )
        assert contiguous(ranges, 24)
        j2.close()

    def test_adaptive_under_chaos_with_restarts(self):
        chaos = ChaosInjector(seed=3, kill_rate=0.2)
        reg = MetricsRegistry()
        out = parallel_for(
            range(32), square, workers=3, chunk_size=2,
            schedule="adaptive", backend="process",
            chaos=chaos, restarts=4, metrics=reg,
        )
        assert out == [x * x for x in range(32)]
        assert reg.total("chaos_kills") > 0
        assert (
            reg.total("chunks_completed") - reg.total("chunks_deduped")
            == reg.total("chunks_planned")
        )

    def test_schedules_constant_exported(self):
        assert SCHEDULES == ("static", "dynamic", "guided", "adaptive")
