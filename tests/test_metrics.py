"""Run-wide metrics: registry primitives, snapshot and OpenMetrics
round trips, cross-backend merge parity, exactly-once conservation
under chaos kills and hedging, the ``Metrics@`` knob, checkpoint
counters, the flight recorder (including a SIGKILLed parent), the live
dashboard renderer, schema-versioned bench results, and the
``repro run --metrics-out`` / ``repro metrics`` / ``repro bench
report`` CLI workflows."""

import functools
import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.benchresults import (
    load_results,
    normalize,
    result_doc,
    write_result_doc,
)
from repro.cli import main
from repro.report import bench_report, metrics_report
from repro.runtime import (
    ChaosInjector,
    ChunkJournal,
    FaultPolicy,
    Item,
    Pipeline,
    PipelineError,
    parallel_for,
    parallel_reduce,
)
from repro.runtime.dashboard import render_line
from repro.runtime.flight import FlightRecorder, describe_last, flight_path
from repro.runtime.masterworker import MasterWorker
from repro.runtime.metrics import (
    MetricsRegistry,
    last_metrics,
    metrics_session,
    parse_openmetrics,
    resolve_registry,
    to_openmetrics,
)
from repro.runtime.parallel_for import configured_parallel_for

SRC = str(pathlib.Path(repro.__file__).resolve().parents[1])


# module-level bodies: picklable for the process backend ------------------

def square(x):
    return x * x


def add(a, b):
    return a + b


def flaky_five(x, marker=""):
    """Fails the first two times ``x == 5`` is attempted, *anywhere*.

    The marker file carries the attempt count across worker processes,
    so the same workload produces the same retry totals on the serial,
    thread and process backends.
    """
    if x == 5:
        p = pathlib.Path(marker)
        n = int(p.read_text()) if p.exists() else 0
        if n < 2:
            p.write_text(str(n + 1))
            raise ValueError("flaky 5")
    return x * x


def slow_once(x, marker="", victim=5, delay=4.0):
    """Straggle hard the first time ``victim`` is seen, then be fast."""
    if x == victim:
        path = pathlib.Path(marker)
        if not path.exists():
            path.write_text("slow")
            time.sleep(delay)
    return x * x


def totals(reg, names):
    return {name: reg.total(name) for name in names}


# -------------------------------------------------------------------------
# registry primitives
# -------------------------------------------------------------------------

class TestRegistry:
    def test_counter_inc_and_total(self):
        reg = MetricsRegistry()
        reg.inc("chunks_completed", stage="loop")
        reg.inc("chunks_completed", 2, stage="loop")
        reg.inc("chunks_completed", stage="reduce")
        assert reg.value("chunks_completed", stage="loop") == 3
        assert reg.total("chunks_completed") == 4
        assert reg.label_values("chunks_completed", "stage") == [
            "loop", "reduce",
        ]

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match=">= 0"):
            reg.inc("chunks_completed", -1)

    def test_gauge_set_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("items_in_flight", stage="A")
        g.set(5)
        g.inc(2)
        g.dec()
        assert reg.value("items_in_flight", stage="A") == 6

    def test_histogram_observe(self):
        reg = MetricsRegistry()
        h = reg.histogram("chunk_latency_seconds", stage="loop")
        h.observe(0.0003)
        h.observe(0.0003)
        h.observe(3.0)
        assert h.count == 3
        assert h.sum == pytest.approx(3.0006)

    def test_untouched_series_reads_zero(self):
        reg = MetricsRegistry()
        assert reg.value("chunks_completed", stage="loop") == 0
        assert reg.total("chunks_completed") == 0


# -------------------------------------------------------------------------
# snapshot / OpenMetrics round trips
# -------------------------------------------------------------------------

def populated_registry():
    reg = MetricsRegistry()
    reg.inc("chunks_completed", 7, stage="loop")
    reg.inc("elements_delivered", 21, stage="loop")
    reg.inc("transport_bytes", 4096, stage="loop", transport="pickle")
    reg.gauge("items_in_flight", stage="A").set(3)
    reg.histogram("chunk_latency_seconds", stage="loop").observe(0.004)
    return reg


class TestRoundTrips:
    def test_snapshot_round_trip(self):
        reg = populated_registry()
        snap = json.loads(json.dumps(reg.snapshot()))  # through JSON
        back = MetricsRegistry.from_snapshot(snap)
        assert back.total("chunks_completed") == 7
        assert back.total("elements_delivered") == 21
        assert back.value("items_in_flight", stage="A") == 3
        h = back.histogram("chunk_latency_seconds", stage="loop")
        assert h.count == 1 and h.sum == pytest.approx(0.004)
        # round-tripped registries render identical family lists
        assert back.snapshot()["metrics"] == reg.snapshot()["metrics"]

    def test_snapshot_rejects_wrong_schema(self):
        with pytest.raises(ValueError, match="schema"):
            MetricsRegistry.from_snapshot({"schema": "bogus/v9"})

    def test_openmetrics_round_trips_through_json_snapshot(self):
        # the acceptance criterion: export -> JSON snapshot -> export
        # yields the same exposition, and the exposition parses
        reg = populated_registry()
        text = to_openmetrics(reg.snapshot())
        assert text.rstrip().endswith("# EOF")
        snap = json.loads(json.dumps(reg.snapshot()))
        again = to_openmetrics(MetricsRegistry.from_snapshot(snap).snapshot())
        assert again == text
        samples = parse_openmetrics(text)
        ns = reg.namespace
        assert samples[f'{ns}_chunks_completed_total{{stage="loop"}}'] == 7
        assert samples[f'{ns}_items_in_flight{{stage="A"}}'] == 3

    def test_parse_rejects_truncated_exposition(self):
        text = to_openmetrics(populated_registry().snapshot())
        with pytest.raises(ValueError, match="EOF"):
            parse_openmetrics(text.rsplit("# EOF", 1)[0])


# -------------------------------------------------------------------------
# cross-backend merge parity
# -------------------------------------------------------------------------

PARITY_COUNTERS = (
    "chunks_dispatched",
    "chunks_completed",
    "chunks_deduped",
    "elements_delivered",
    "element_retries",
    "policy_retries",
)


class TestBackendParity:
    def test_same_totals_on_every_backend(self, tmp_path):
        # the same retried workload must land identical counter totals
        # whether elements run inline, on threads, or in worker
        # processes merging back over the chunk result road
        seen = {}
        for backend in ("serial", "thread", "process"):
            body = functools.partial(
                flaky_five, marker=str(tmp_path / f"flaky-{backend}")
            )
            reg = MetricsRegistry()
            out = parallel_for(
                range(20),
                body,
                workers=2,
                chunk_size=4,
                backend=backend,
                policy=FaultPolicy(retries=3),
                metrics=reg,
            )
            assert out == [x * x for x in range(20)]
            seen[backend] = totals(reg, PARITY_COUNTERS)
        assert seen["serial"] == seen["thread"] == seen["process"]
        assert seen["serial"]["chunks_completed"] == 5
        assert seen["serial"]["elements_delivered"] == 20
        assert seen["serial"]["element_retries"] == 2

    def test_reduce_parity(self):
        seen = {}
        for backend in ("thread", "process"):
            reg = MetricsRegistry()
            out = parallel_reduce(
                range(32), square, add, 0,
                workers=2, chunk_size=8, backend=backend, metrics=reg,
            )
            assert out == sum(x * x for x in range(32))
            seen[backend] = totals(
                reg, ("chunks_completed", "elements_delivered")
            )
        assert seen["thread"] == seen["process"]
        assert seen["thread"]["chunks_completed"] == 4
        assert seen["thread"]["elements_delivered"] == 32

    def test_masterworker_task_counters(self):
        for backend in ("serial", "thread"):
            reg = MetricsRegistry()
            mw = MasterWorker(workers=2, backend=backend, name="grp")
            out = mw.run(
                [functools.partial(square, i) for i in range(6)],
                metrics=reg,
            )
            assert out == [i * i for i in range(6)]
            assert reg.value("elements_delivered", stage="grp") == 6
            assert reg.total("elements_failed") == 0


# -------------------------------------------------------------------------
# exactly-once conservation under recovery
# -------------------------------------------------------------------------

class TestConservation:
    def test_seeded_kill_run_conserves_chunks(self):
        # the acceptance scenario: seeded worker SIGKILLs force respawns
        # and re-dispatches, yet completed-minus-deduped equals the
        # logical chunk count exactly — recovery never double-counts
        chaos = ChaosInjector(seed=1, kill_rate=0.15)
        reg = MetricsRegistry()
        out = parallel_for(
            range(32),
            square,
            workers=3,
            chunk_size=2,
            backend="process",
            chaos=chaos,
            restarts=3,
            metrics=reg,
        )
        assert out == [x * x for x in range(32)]
        assert reg.total("pool_respawns") > 0
        assert reg.total("chaos_kills") > 0
        completed = reg.total("chunks_completed")
        deduped = reg.total("chunks_deduped")
        assert completed - deduped == 16  # 32 elements / chunk_size 2
        assert reg.total("chunks_planned") == 16
        assert reg.total("elements_delivered") == 32

    @pytest.mark.parametrize("schedule", ["guided", "adaptive"])
    def test_seeded_kill_run_conserves_variable_chunks(self, schedule):
        # the generalized invariant: with variable-size descriptors the
        # logical chunk count is whatever the planner produced this run
        # (chunks_planned), and completed-minus-deduped must land on it
        # exactly even while chaos kills force respawns and re-dispatches
        chaos = ChaosInjector(seed=1, kill_rate=0.15)
        reg = MetricsRegistry()
        out = parallel_for(
            range(32),
            square,
            workers=3,
            chunk_size=2,
            schedule=schedule,
            backend="process",
            chaos=chaos,
            restarts=4,
            metrics=reg,
        )
        assert out == [x * x for x in range(32)]
        assert reg.total("chaos_kills") > 0
        planned = reg.total("chunks_planned")
        completed = reg.total("chunks_completed")
        deduped = reg.total("chunks_deduped")
        assert planned > 0
        assert completed - deduped == planned
        assert reg.total("elements_delivered") == 32

    def test_hedged_run_conserves_chunks(self, tmp_path):
        body = functools.partial(
            slow_once, marker=str(tmp_path / "slow"), victim=5, delay=4.0
        )
        reg = MetricsRegistry()
        out = parallel_for(
            range(12),
            body,
            workers=3,
            chunk_size=1,
            backend="process",
            hedge=0.95,
            metrics=reg,
        )
        assert out == [x * x for x in range(12)]
        assert reg.total("pool_hedges") > 0
        completed = reg.total("chunks_completed")
        deduped = reg.total("chunks_deduped")
        assert completed - deduped == 12

    def test_shm_transport_is_metered(self):
        reg = MetricsRegistry()
        out = parallel_for(
            list(range(64)), square,
            workers=2, chunk_size=16, backend="process",
            transport="shm", metrics=reg,
        )
        assert out == [x * x for x in range(64)]
        assert reg.value(
            "transport_bytes", stage="loop", transport="shm"
        ) > 0

    def test_shm_fallback_meters_pickle(self):
        # strings cannot ride the flat-int shm plane; the downgrade must
        # surface as pickle transport bytes, not silence
        reg = MetricsRegistry()
        with pytest.warns(Warning, match="shm -> pickle"):
            out = parallel_for(
                ["a", "b", "c", "d"] * 4, str.upper,
                workers=2, chunk_size=4, backend="process",
                transport="shm", metrics=reg,
            )
        assert out == ["A", "B", "C", "D"] * 4
        assert reg.value(
            "transport_bytes", stage="loop", transport="pickle"
        ) > 0
        assert reg.value(
            "transport_bytes", stage="loop", transport="shm"
        ) == 0


# -------------------------------------------------------------------------
# the Metrics@ tuning knob
# -------------------------------------------------------------------------

class TestMetricsParameter:
    def test_metrics_at_loop_publishes_last_metrics(self):
        out = configured_parallel_for(
            range(7), square, {"Metrics@loop": True, "NumWorkers@loop": 2}
        )
        assert out == [x * x for x in range(7)]
        reg = last_metrics()
        assert reg is not None
        assert reg.total("elements_delivered") == 7

    def test_metrics_off_by_default_in_config(self):
        import repro.runtime.metrics as metrics_mod

        metrics_mod._LAST = None
        configured_parallel_for(range(3), square, {"Metrics@loop": False})
        assert last_metrics() is None

    def test_session_registry_is_picked_up(self):
        with metrics_session() as reg:
            parallel_for(range(5), square, sequential=True)
        assert reg.total("elements_delivered") == 5
        assert resolve_registry(None) is None  # session closed

    def test_pipeline_metrics_parameter(self):
        pipe = Pipeline(Item(square, name="A"))
        pipe.configure({"Metrics@pipeline": True})
        pipe.run(range(4))
        assert pipe.metrics is not None
        assert "metrics" in pipe.stats
        report = metrics_report(pipe.stats)
        assert "elements_delivered" in report

    def test_pipeline_queue_depth_counts_a_held_batch(self):
        # elements a stage has taken in a batch but not started are still
        # queued for it, so the gauge counts them with its input buffer
        def fail_first(x):
            time.sleep(0.05)  # the source fills the input buffer meanwhile
            raise ValueError(x)

        pipe = Pipeline(Item(fail_first, name="A"), buffer_capacity=4)
        pipe.configure({"Metrics@pipeline": True})
        with pytest.raises(PipelineError):
            pipe.run(range(32))
        # A started only the element that failed
        assert pipe.metrics.value("stage_queue_depth", stage="A") == (
            pipe.stats["generated"] - 1
        )

    def test_pipeline_tolerates_sibling_metrics_keys(self):
        pipe = Pipeline(Item(square, name="A"))
        pipe.configure({"Metrics@loop": True})  # sibling pattern's knob
        pipe.run(range(2))

    def test_doall_tuning_includes_metrics(self):
        from repro.frontend.source import SourceProgram
        from repro.model.semantic import build_semantic_model
        from repro.patterns.doall import DoallPattern

        prog = SourceProgram.from_source(
            "def f(xs):\n"
            "    t = 0\n"
            "    for x in xs:\n"
            "        t += x\n"
            "    return t\n",
            name="m",
        )
        model = build_semantic_model(prog.function("f"))
        lm = model.loop_models()[0]
        match = DoallPattern().match(model, lm)
        p = match.parameter("Metrics@loop")
        assert p.default is False


# -------------------------------------------------------------------------
# checkpoint counters
# -------------------------------------------------------------------------

class TestCheckpointCounters:
    def test_journal_writes_are_metered(self, tmp_path):
        reg = MetricsRegistry()
        journal = ChunkJournal.create(tmp_path / "run.journal")
        try:
            parallel_for(
                range(12), square, sequential=True, chunk_size=3,
                checkpoint=journal, metrics=reg,
            )
        finally:
            journal.close()
        assert reg.total("checkpoint_records") == 4
        assert reg.total("checkpoint_bytes") > 0
        assert reg.total("checkpoint_flushes") >= 1


# -------------------------------------------------------------------------
# the flight recorder
# -------------------------------------------------------------------------

class TestFlightRecorder:
    def test_ring_is_bounded_and_atomic(self, tmp_path):
        reg = MetricsRegistry()
        path = tmp_path / "run.journal.flight"
        rec = FlightRecorder(reg, path, interval=10.0, keep=3)
        for i in range(5):
            reg.inc("chunks_completed", stage="loop")
            rec.tick()
        doc = FlightRecorder.load(path)
        assert len(doc["snapshots"]) == 3
        assert doc["ticks"] == 5
        last = MetricsRegistry.from_snapshot(doc["snapshots"][-1])
        assert last.total("chunks_completed") == 5

    def test_sigkilled_parent_leaves_readable_snapshot(self, tmp_path):
        # the crash contract: SIGKILL the recording process mid-run; the
        # on-disk ring must still be a complete, parseable document
        path = tmp_path / "run.journal.flight"
        script = (
            "import sys, time\n"
            f"sys.path.insert(0, {SRC!r})\n"
            "from repro.runtime.flight import FlightRecorder\n"
            "from repro.runtime.metrics import MetricsRegistry\n"
            "reg = MetricsRegistry()\n"
            "reg.inc('chunks_completed', 4, stage='loop')\n"
            f"FlightRecorder(reg, {str(path)!r}, interval=0.05).start()\n"
            "print('ready', flush=True)\n"
            "time.sleep(60)\n"
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE
        )
        try:
            assert proc.stdout.readline().strip() == b"ready"
            time.sleep(0.3)  # let a few background ticks land
        finally:
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait()
            proc.stdout.close()
        snap = FlightRecorder.last_snapshot(path)
        assert snap is not None
        back = MetricsRegistry.from_snapshot(snap)
        assert back.total("chunks_completed") == 4
        note = describe_last(path)
        assert note is not None and "chunks=4" in note

    def test_describe_last_absent_file_is_none(self, tmp_path):
        assert describe_last(tmp_path / "nope.flight") is None

    def test_flight_path_sits_beside_the_journal(self):
        assert flight_path("/tmp/run.journal").name == "run.journal.flight"


# -------------------------------------------------------------------------
# the live dashboard renderer
# -------------------------------------------------------------------------

class TestDashboard:
    def test_render_line_empty(self):
        assert "starting" in render_line(MetricsRegistry())

    def test_render_line_progress_and_recovery(self):
        reg = MetricsRegistry()
        reg.inc("chunks_completed", 10, stage="loop")
        reg.inc("chunks_deduped", 2, stage="loop")
        reg.inc("elements_delivered", 16, stage="loop")
        reg.inc("pool_respawns", 1, stage="loop")
        line = render_line(reg, total_chunks=16, elapsed=2.0, label="k")
        assert "[k]" in line
        assert "chunks 8/16 (50%)" in line  # unique = completed - deduped
        assert "4.0 chunk/s" in line
        assert "loop:16" in line
        assert "respawns 1" in line

    def test_duplicate_chunk_never_moves_progress_backwards(self):
        # a hedge loser / respawn re-dispatch arrives as one extra
        # completed AND one extra deduped; rendered progress and ETA
        # must be identical to before the duplicate landed
        reg = MetricsRegistry()
        reg.inc("chunks_completed", 10, stage="loop")
        before = render_line(reg, total_chunks=20, elapsed=5.0)
        reg.inc("chunks_completed", 1, stage="loop")
        reg.inc("chunks_deduped", 1, stage="loop")
        after = render_line(reg, total_chunks=20, elapsed=5.0)
        assert after == before
        assert "chunks 10/20 (50%)" in after
        assert "eta 5.0s" in after  # 10 left at 2 chunk/s

    def test_render_line_zero_planned_chunks(self):
        # an empty input plans zero chunks; the renderer must neither
        # divide by the zero total nor print a bogus "0/0" progress pair
        reg = MetricsRegistry()
        line = render_line(reg, total_chunks=0, elapsed=1.0)
        assert "starting" in line
        assert "/0" not in line
        # completed chunks against a zero plan (a resumed journal whose
        # remaining work was empty) fall back to the bare count
        reg.inc("chunks_completed", 3, stage="loop")
        line = render_line(reg, total_chunks=0, elapsed=1.0)
        assert "chunks 3" in line and "/0" not in line
        assert "eta" not in line

    def test_render_line_unknown_total(self):
        # total_chunks=None (no plan known to the renderer):
        # progress renders as a bare count, rate appears, eta cannot
        reg = MetricsRegistry()
        reg.inc("chunks_completed", 7, stage="loop")
        line = render_line(reg, total_chunks=None, elapsed=2.0)
        assert "chunks 7" in line
        assert "3.5 chunk/s" in line
        assert "eta" not in line and "%" not in line

    def test_render_line_completed_briefly_exceeds_planned(self):
        # hedge winners land before their losers are deduped, so for a
        # moment completed-minus-deduped can exceed the plan; the line
        # must stay well-formed and never print a negative eta
        reg = MetricsRegistry()
        reg.inc("chunks_completed", 12, stage="loop")
        line = render_line(reg, total_chunks=10, elapsed=2.0)
        assert "chunks 12/10 (120%)" in line
        assert "eta" not in line
        # once the dedups land the display snaps back to the plan
        reg.inc("chunks_deduped", 2, stage="loop")
        line = render_line(reg, total_chunks=10, elapsed=2.0)
        assert "chunks 10/10 (100%)" in line
        assert "eta" not in line


# -------------------------------------------------------------------------
# schema-versioned bench results
# -------------------------------------------------------------------------

class TestBenchResults:
    def test_result_doc_envelope(self):
        doc = result_doc("fam", [{"label": "a", "seconds": 1.0}], n=3)
        assert doc["schema"] == "fam/v1"
        assert doc["n"] == 3
        assert normalize(doc) is doc

    def test_normalize_legacy_rows(self):
        doc = normalize({
            "schema": "backend_speedup/v1",
            "rows": [{
                "kernel": "k", "backend": "process",
                "elapsed_s": 0.5, "speedup_vs_serial": 2.0,
                "downgraded": True,
            }],
        })
        entry = doc["results"][0]
        assert entry["label"] == "k/process"
        assert entry["seconds"] == 0.5 and entry["speedup"] == 2.0
        assert "note" in entry

    def test_normalize_legacy_overhead(self):
        doc = normalize(
            {"disabled_ms": 10.0, "disabled_overhead_pct": 1.5},
            name="trace_overhead",
        )
        assert doc["schema"] == "trace_overhead/v1"
        assert doc["results"] == [
            {"label": "disabled", "seconds": 0.01, "overhead": 1.5}
        ]

    def test_normalize_rejects_unknown(self):
        assert normalize({"hello": 1}) is None
        assert normalize("not a dict") is None

    def test_load_results_skips_junk(self, tmp_path):
        write_result_doc(
            tmp_path / "good.json",
            result_doc("fam", [{"label": "a", "speedup": 2.0}]),
        )
        (tmp_path / "junk.json").write_text("{not json")
        (tmp_path / "other.json").write_text('{"hello": 1}')
        docs = load_results(tmp_path)
        assert len(docs) == 1
        report = bench_report(docs)
        assert "fam" in report and "speedup 2" in report


# -------------------------------------------------------------------------
# the CLI workflows
# -------------------------------------------------------------------------

class TestCli:
    def _run(self, tmp_path, capsys, backend, out_name):
        out = tmp_path / out_name
        rc = main([
            "run", "--kernel", "montecarlo", "--scale", "0.05",
            "--workers", "2", "--backend", backend,
            "--metrics-out", str(out),
        ])
        assert rc == 0
        assert "metrics report" in capsys.readouterr().out
        return out

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_run_metrics_out_snapshot(self, tmp_path, capsys, backend):
        out = self._run(tmp_path, capsys, backend, "snap.json")
        snap = json.loads(out.read_text())
        reg = MetricsRegistry.from_snapshot(snap)
        # montecarlo at any scale is 32 elements in 2-element chunks
        assert reg.total("chunks_completed") == 16
        assert reg.total("elements_delivered") == 32
        parse_openmetrics(to_openmetrics(snap))  # exports cleanly

    def test_run_metrics_out_openmetrics(self, tmp_path, capsys):
        out = self._run(tmp_path, capsys, "thread", "metrics.prom")
        samples = parse_openmetrics(out.read_text())
        assert any("chunks_completed" in k for k in samples)

    def test_metrics_subcommand_renders_snapshot(self, tmp_path, capsys):
        out = self._run(tmp_path, capsys, "thread", "snap.json")
        assert main(["metrics", str(out)]) == 0
        assert "chunks_completed" in capsys.readouterr().out
        assert main(["metrics", str(out), "--openmetrics"]) == 0
        parse_openmetrics(capsys.readouterr().out)

    def test_metrics_subcommand_bad_file(self, tmp_path, capsys):
        assert main(["metrics", str(tmp_path / "nope.json")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_live_dashboard_on_a_pipe(self, tmp_path, capsys):
        rc = main([
            "run", "--kernel", "montecarlo", "--scale", "0.05",
            "--workers", "2", "--backend", "thread", "--live",
        ])
        assert rc == 0
        err = capsys.readouterr().err
        assert "[montecarlo]" in err

    def test_resume_reports_flight_snapshot(self, tmp_path, capsys):
        journal = tmp_path / "run.journal"
        rc = main([
            "run", "--kernel", "montecarlo", "--scale", "0.05",
            "--workers", "2", "--backend", "thread", "--metrics",
            "--checkpoint", str(journal),
        ])
        assert rc == 0
        assert flight_path(journal).exists()
        capsys.readouterr()
        rc = main([
            "run", "--kernel", "montecarlo", "--scale", "0.05",
            "--workers", "2", "--backend", "thread",
            "--resume", str(journal),
        ])
        assert rc == 0
        assert "last flight snapshot" in capsys.readouterr().out

    def test_bench_report_subcommand(self, tmp_path, capsys):
        write_result_doc(
            tmp_path / "x.json",
            result_doc("fam", [{"label": "a", "speedup": 2.0}]),
        )
        assert main(["bench", "report", "--dir", str(tmp_path)]) == 0
        assert "fam" in capsys.readouterr().out

    def test_bench_report_empty_dir(self, tmp_path, capsys):
        assert main(["bench", "report", "--dir", str(tmp_path)]) == 1
        assert "no benchmark results" in capsys.readouterr().err
