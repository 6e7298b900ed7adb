"""Crash resilience: chunk journal round trips, worker-loss recovery,
seeded chaos kills, straggler hedging, and checkpoint/resume — including
the ``repro run`` CLI workflow end to end."""

import functools
import os
import pathlib
import signal
import time

import pytest

from repro.cli import main
from repro.report import fault_report
from repro.runtime import (
    ChaosInjector,
    CheckpointError,
    ChunkJournal,
    WorkerLostError,
    parallel_for,
    parallel_reduce,
)
from repro.runtime.checkpoint import MAGIC
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.profiler import SamplingProfiler
from repro.runtime.trace import TraceCollector


def square(x):
    return x * x


def kill_once(x, marker="", victim=7):
    """SIGKILL the hosting worker the first time ``victim`` is seen.

    The sentinel file makes the crash happen exactly once, so recovery's
    re-dispatch of the chunk succeeds.  The sleep lets the result queue's
    feeder thread flush already-delivered chunks before the process dies
    holding nothing — killing mid-flush would just cost the parent a
    redundant re-dispatch, but a quiet window keeps the test fast.
    """
    if x == victim:
        path = pathlib.Path(marker)
        if not path.exists():
            path.write_text("died")
            time.sleep(0.1)
            os.kill(os.getpid(), signal.SIGKILL)
    return x * x


def slow_once(x, marker="", victim=5, delay=4.0):
    """Straggle hard the first time ``victim`` is seen, then be fast."""
    if x == victim:
        path = pathlib.Path(marker)
        if not path.exists():
            path.write_text("slow")
            time.sleep(delay)
    return x * x


def _await_marker(path: pathlib.Path, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not path.exists() and time.monotonic() < deadline:
        time.sleep(0.005)


def finish_zero_twice(x, markers="", last=11):
    """Make element 0's chunk finish twice, its first run last.

    The run that creates the ``first`` marker is chunk 0's first run; it
    returns only after the other run (its hedge copy) has returned.  The
    ``last`` element waits for that first run, so the duplicate reaches
    the parent before every chunk is delivered and the call ends.
    """
    root = pathlib.Path(markers)
    if x == 0:
        try:
            os.close(os.open(root / "first", os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            (root / "copy-done").touch()
            return x * x
        _await_marker(root / "copy-done")
        time.sleep(0.2)  # the copy's result reaches the parent first
        (root / "first-done").touch()
    elif x == last:
        _await_marker(root / "first-done")
        time.sleep(0.2)  # chunk 0's duplicate reaches the parent first
    return x * x


# ---------------------------------------------------------------------------
# the chunk journal
# ---------------------------------------------------------------------------

class TestJournal:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.journal"
        with ChunkJournal.create(path) as j:
            j.bind(10, 2, "loop")
            j.record(0, 0, 2, [0, 1])
            j.record(3, 6, 8, [36, 49])
        j2 = ChunkJournal.load(path)
        assert j2.completed() == {0: [0, 1], 3: [36, 49]}
        assert j2.completed_indices() == frozenset({0, 3})
        assert len(j2) == 2 and 3 in j2 and 1 not in j2

    def test_duplicate_records_last_wins(self, tmp_path):
        # at-least-once re-dispatch may journal a chunk twice
        path = tmp_path / "run.journal"
        with ChunkJournal.create(path) as j:
            j.bind(4, 2, "loop")
            j.record(1, 2, 4, [4, 9])
            j.record(1, 2, 4, [4, 9])
        assert ChunkJournal.load(path).completed() == {1: [4, 9]}

    def test_torn_tail_is_discarded_and_truncated(self, tmp_path):
        path = tmp_path / "run.journal"
        with ChunkJournal.create(path) as j:
            j.bind(10, 2, "loop")
            j.record(0, 0, 2, [0, 1])
            j.record(1, 2, 4, [4, 9])
        intact = path.stat().st_size
        with open(path, "ab") as fh:
            fh.write(b"\x42\x00\x00\x00\x99")  # half a frame header + junk
        j2 = ChunkJournal.resume(path)
        assert j2.completed_indices() == frozenset({0, 1})
        assert path.stat().st_size == intact  # tail truncated away
        j2.record(2, 4, 6, [16, 25])  # appends continue cleanly
        j2.close()
        assert ChunkJournal.load(path).completed_indices() == frozenset(
            {0, 1, 2}
        )

    def test_shape_mismatch_refuses_to_bind(self, tmp_path):
        path = tmp_path / "run.journal"
        with ChunkJournal.create(path) as j:
            j.bind(10, 2, "loop")
            j.record(0, 0, 2, [0, 1])
        j2 = ChunkJournal.resume(path)
        with pytest.raises(CheckpointError, match="shape"):
            j2.bind(10, 4, "loop")
        j2.close()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.journal"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(CheckpointError):
            ChunkJournal.resume(path)
        assert MAGIC == b"RPJ1"

    def test_batch_flush_coalesces_but_close_persists_all(self, tmp_path):
        path = tmp_path / "run.journal"
        with ChunkJournal.create(path, flush="batch") as j:
            j.bind(20, 2, "loop")
            for k in range(10):
                j.record(k, k * 2, k * 2 + 2, [k, k])
        # close flushed whatever the batch threshold was still holding
        assert ChunkJournal.load(path).completed_indices() == frozenset(
            range(10)
        )

    def test_batch_mode_keeps_torn_tail_semantics(self, tmp_path):
        # coalescing changes *when* records hit the OS, not the framing:
        # a kill mid-batch still only costs whole trailing records plus
        # at most one torn frame, which resume truncates away
        path = tmp_path / "run.journal"
        with ChunkJournal.create(path, flush="batch") as j:
            j.bind(10, 2, "loop")
            j.record(0, 0, 2, [0, 1])
            j.record(1, 2, 4, [4, 9])
        intact = path.stat().st_size
        with open(path, "ab") as fh:
            fh.write(b"\x42\x00\x00\x00\x99")  # half a frame header
        j2 = ChunkJournal.resume(path, flush="batch")
        assert j2.completed_indices() == frozenset({0, 1})
        assert path.stat().st_size == intact
        j2.record(2, 4, 6, [16, 25])
        j2.close()
        assert ChunkJournal.load(path).completed_indices() == frozenset(
            {0, 1, 2}
        )

    def test_flush_mode_validated(self, tmp_path):
        with pytest.raises(CheckpointError, match="flush mode"):
            ChunkJournal.create(tmp_path / "x.journal", flush="sometimes")
        # a bad mode is refused before the file is touched: neither
        # create's truncation nor resume's torn-tail repair may run
        path = tmp_path / "run.journal"
        with ChunkJournal.create(path) as j:
            j.bind(4, 2, "loop")
            j.record(0, 0, 2, [0, 1])
        with open(path, "ab") as fh:
            fh.write(b"\x42\x00\x00\x00\x99")  # a torn tail
        before = path.read_bytes()
        for reopen in (ChunkJournal.create, ChunkJournal.resume):
            with pytest.raises(CheckpointError, match="flush mode"):
                reopen(path, flush="sometimes")
            assert path.read_bytes() == before


# ---------------------------------------------------------------------------
# seeded chaos kills
# ---------------------------------------------------------------------------

class TestChaosKill:
    def test_should_kill_is_deterministic_and_positional(self):
        # empirically pinned: seed 1 at 15% kills chunks 2 and 14 of a
        # 16-chunk loop — decided from (seed, name, attempt) alone
        hits = [
            k
            for k in range(16)
            if ChaosInjector(seed=1, kill_rate=0.15).should_kill(f"loop#c{k}")
        ]
        assert hits == [2, 14]

    def test_redispatch_attempt_is_never_killed_by_default(self):
        inj = ChaosInjector(seed=1, kill_rate=0.15)
        assert inj.should_kill("loop#c2", attempt=1)
        # kill_attempts=1: recovery's re-dispatch always survives
        assert not inj.should_kill("loop#c2", attempt=2)

    def test_kill_attempts_validated(self):
        with pytest.raises(ValueError):
            ChaosInjector(seed=1, kill_rate=1.5)
        with pytest.raises(ValueError):
            ChaosInjector(seed=1, kill_attempts=0)

    def test_seeded_kill_run_recovers_and_conserves(self):
        # the acceptance scenario: a chaos run SIGKILLs workers, yet every
        # input item comes back and the recovery history names the respawn
        chaos = ChaosInjector(seed=1, kill_rate=0.15)
        recovery = []
        out = parallel_for(
            range(32),
            square,
            workers=3,
            chunk_size=2,
            backend="process",
            chaos=chaos,
            restarts=3,
            recovery=recovery,
        )
        assert out == [x * x for x in range(32)]
        kinds = [e.kind for e in recovery]
        assert "worker_lost" in kinds
        assert "respawn" in kinds
        assert "redispatch" in kinds
        report = fault_report({"recovery": recovery, "generated": 32})
        assert "respawn" in report and "redispatch" in report


# ---------------------------------------------------------------------------
# straggler hedging
# ---------------------------------------------------------------------------

class TestHedge:
    def test_hedge_beats_the_straggler(self, tmp_path):
        body = functools.partial(
            slow_once, marker=str(tmp_path / "slow"), victim=5, delay=4.0
        )
        recovery = []
        started = time.monotonic()
        out = parallel_for(
            range(12),
            body,
            workers=3,
            chunk_size=1,
            backend="process",
            hedge=0.95,
            recovery=recovery,
        )
        wall = time.monotonic() - started
        assert out == [x * x for x in range(12)]
        assert "hedge" in [e.kind for e in recovery]
        # first-result-wins: the run finishes long before the 4s sleeper
        assert wall < 3.5

    def test_duplicate_chunk_drops_every_sidecar(self, tmp_path):
        # a hedge loser's chaos counts, spans, metric delta and samples
        # are dropped with its values: every observer counts chunk 0 once
        chaos = ChaosInjector(seed=3)
        trace = TraceCollector()
        metrics = MetricsRegistry()
        profiler = SamplingProfiler(hz=200.0)
        body = functools.partial(finish_zero_twice, markers=str(tmp_path))
        try:
            out = parallel_for(
                range(12), body, workers=3, chunk_size=1,
                backend="process", hedge=0.5, chaos=chaos, trace=trace,
                metrics=metrics, profiler=profiler,
            )
        finally:
            profiler.stop()
        assert out == [x * x for x in range(12)]
        deduped = metrics.total("chunks_deduped")
        assert deduped >= 1
        assert metrics.total("chunks_completed") - deduped == 12
        assert chaos.stats()["calls"] == 12
        executed = [s.seq for s in trace.spans() if s.kind == "execute"]
        assert sorted(executed) == list(range(12))
        windows = [r["chunk"] for r in profiler.work_records()]
        assert sorted(windows) == list(range(12))

    def test_hedge_validated(self):
        from repro.runtime.backend import TuningError

        with pytest.raises(TuningError, match="Hedge"):
            parallel_for(range(4), square, backend="process", hedge=1.5)


# ---------------------------------------------------------------------------
# checkpoint/resume
# ---------------------------------------------------------------------------

class TestCheckpointResume:
    @pytest.mark.parametrize("schedule", ["static", "dynamic"])
    def test_process_resume_reexecutes_only_missing_chunks(
        self, tmp_path, schedule
    ):
        # phase 1: a worker dies with no restart budget — the run fails,
        # but every chunk delivered before the crash is journaled
        body = functools.partial(
            kill_once, marker=str(tmp_path / "died"), victim=7
        )
        path = tmp_path / "run.journal"
        j = ChunkJournal.create(path)
        with pytest.raises(WorkerLostError):
            try:
                parallel_for(
                    range(12),
                    body,
                    workers=3,
                    chunk_size=2,
                    schedule=schedule,
                    backend="process",
                    restarts=0,
                    checkpoint=j,
                )
            finally:
                j.close()
        survived = ChunkJournal.load(path).completed_indices()
        assert 3 not in survived  # the chunk holding element 7 was lost
        assert survived  # but earlier chunks were journaled

        # phase 2: resume re-executes exactly the missing chunks
        j2 = ChunkJournal.resume(path)
        out = parallel_for(
            range(12),
            body,
            workers=3,
            chunk_size=2,
            schedule=schedule,
            backend="process",
            checkpoint=j2,
        )
        assert out == [x * x for x in range(12)]
        assert j2.summary()["resumed"] == len(survived)
        assert j2.summary()["recorded"] == 6 - len(survived)
        j2.close()

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_other_backends_journal_and_resume(self, tmp_path, backend):
        path = tmp_path / "run.journal"
        with ChunkJournal.create(path) as j:
            out = parallel_for(
                range(10), square, workers=2, chunk_size=2,
                backend=backend, checkpoint=j,
            )
        assert out == [x * x for x in range(10)]
        # a fully journaled run resumes without re-executing anything
        with ChunkJournal.resume(path) as j2:
            out2 = parallel_for(
                range(10), square, workers=2, chunk_size=2,
                backend=backend, checkpoint=j2,
            )
            assert out2 == out
            assert j2.summary()["resumed"] == 5
            assert j2.summary()["recorded"] == 0

    def test_reduce_journals_partials(self, tmp_path):
        path = tmp_path / "reduce.journal"
        with ChunkJournal.create(path) as j:
            total = parallel_reduce(
                range(20), square, lambda a, b: a + b, 0,
                workers=2, chunk_size=5, backend="thread", checkpoint=j,
            )
        assert total == sum(x * x for x in range(20))
        with ChunkJournal.resume(path) as j2:
            total2 = parallel_reduce(
                range(20), square, lambda a, b: a + b, 0,
                workers=2, chunk_size=5, backend="thread", checkpoint=j2,
            )
            assert total2 == total
            assert j2.summary()["recorded"] == 0

    def test_checkpoint_spans_traced(self, tmp_path):
        collector = TraceCollector()
        with ChunkJournal.create(tmp_path / "t.journal") as j:
            parallel_for(
                range(8), square, workers=2, chunk_size=2,
                backend="process", checkpoint=j, trace=collector,
            )
        kinds = {s.kind for s in collector.spans()}
        assert "checkpoint" in kinds

    def test_recovery_spans_traced(self, tmp_path):
        chaos = ChaosInjector(seed=1, kill_rate=0.15)
        collector = TraceCollector()
        parallel_for(
            range(32), square, workers=3, chunk_size=2,
            backend="process", chaos=chaos, restarts=3, trace=collector,
        )
        kinds = {s.kind for s in collector.spans()}
        assert {"respawn", "redispatch"} <= kinds


# ---------------------------------------------------------------------------
# the CLI workflow
# ---------------------------------------------------------------------------

class TestRunCommand:
    def test_chaos_kill_run_accounts_for_everything(self, tmp_path, capsys):
        rc = main([
            "run", "--kernel", "montecarlo", "--scale", "0.05",
            "--workers", "3", "--chaos", "1", "--chaos-kill-rate", "0.15",
            "--restarts", "3", "--verify",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "32/32 item(s) accounted for" in out
        assert "respawn" in out
        assert "verify" in out and "OK" in out

    def test_kill_then_resume_via_cli(self, tmp_path, capsys):
        path = str(tmp_path / "cli.journal")
        rc1 = main([
            "run", "--kernel", "montecarlo", "--scale", "0.05",
            "--workers", "3", "--chaos", "1", "--chaos-kill-rate", "0.15",
            "--restarts", "0", "--checkpoint", path,
        ])
        out1 = capsys.readouterr().out
        assert rc1 == 1
        assert "WorkerLostError" in out1
        before = ChunkJournal.load(path).completed_indices()
        assert before and len(before) < 16

        rc2 = main([
            "run", "--kernel", "montecarlo", "--scale", "0.05",
            "--workers", "3", "--resume", path, "--verify",
        ])
        out2 = capsys.readouterr().out
        assert rc2 == 0
        assert f"{len(before)} chunk(s) resumed" in out2
        assert "OK" in out2
        # only the chunks the journal did not hold were re-executed
        assert ChunkJournal.load(path).completed_indices() == frozenset(
            range(16)
        )

    def test_checkpoint_and_resume_flags_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            main([
                "run", "--checkpoint", "a.journal", "--resume", "b.journal",
            ])
