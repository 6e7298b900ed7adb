"""The sampling profiler: per-chunk attribution, exactly-once merging,
wall-clock decomposition, exports, and profile-guided tuning hints."""

from __future__ import annotations

import json

import pytest

from repro.runtime import (
    ChaosInjector,
    Item,
    MasterWorker,
    Pipeline,
    SamplingProfiler,
    configured_parallel_for,
    decompose,
    last_profile,
    parallel_for,
    parallel_reduce,
    profile_session,
    resolve_profiler,
)
from repro.runtime.profiler import write_folded, write_speedscope


def _work(x):
    acc = 0
    for i in range(60):
        acc += (x + i) * (x - i)
    return acc


VALS = list(range(240))
CHUNK = 24  # -> 10 planned chunks
EXPECT = [_work(v) for v in VALS]


def _chunk_set(profiler):
    return sorted(r["chunk"] for r in profiler.work_records())


# -------------------------------------------------------------------------
# work-record conservation across backends
# -------------------------------------------------------------------------

class TestConservation:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_one_record_per_planned_chunk(self, backend):
        prof = SamplingProfiler(hz=200.0)
        out = parallel_for(
            VALS, _work, workers=2, chunk_size=CHUNK,
            backend=backend, profiler=prof,
        )
        assert out == EXPECT
        # exactly one work record per planned chunk, no duplicates
        assert _chunk_set(prof) == list(range(len(VALS) // CHUNK))
        # the forced closing sample guarantees every chunk sampled
        assert prof.samples >= len(VALS) // CHUNK
        for rec in prof.work_records():
            assert rec["stage"] == "loop"
            assert rec["samples"] >= 1
            assert rec["wall"] >= 0.0 and rec["cpu"] >= 0.0

    def test_sample_totals_identical_across_backends(self):
        # the deterministic invariant: per-stage *work-record* sets (one
        # per chunk, each with >=1 sample) agree across all backends
        sets = {}
        for backend in ("serial", "thread", "process"):
            prof = SamplingProfiler(hz=200.0)
            parallel_for(
                VALS, _work, workers=2, chunk_size=CHUNK,
                backend=backend, profiler=prof,
            )
            sets[backend] = _chunk_set(prof)
        assert sets["serial"] == sets["thread"] == sets["process"]

    def test_exactly_once_under_seeded_kills_and_retries(self):
        # respawned workers re-execute chunks; the first-result-wins
        # dedup must keep the profile at one record per chunk anyway
        prof = SamplingProfiler(hz=200.0)
        recovery = []
        out = parallel_for(
            VALS, _work, workers=2, chunk_size=CHUNK,
            backend="process", profiler=prof,
            chaos=ChaosInjector(seed=1, kill_rate=0.15), restarts=3,
            recovery=recovery,
        )
        assert out == EXPECT
        assert any(e.kind == "respawn" for e in recovery)
        assert _chunk_set(prof) == list(range(len(VALS) // CHUNK))

    def test_reduce_road_profiles_too(self):
        prof = SamplingProfiler(hz=200.0)
        total = parallel_reduce(
            VALS, _work, lambda a, b: a + b, 0,
            workers=2, chunk_size=CHUNK, backend="thread", profiler=prof,
        )
        assert total == sum(EXPECT)
        recs = prof.work_records()
        assert recs and all(r["stage"] == "reduce" for r in recs)

    def test_masterworker_records_one_window_per_task(self):
        for backend in ("serial", "thread", "process"):
            prof = SamplingProfiler(hz=200.0)
            mw = MasterWorker(workers=3, name="mw", backend=backend)
            res = mw.run([lambda i=i: _work(i) for i in range(8)],
                         profiler=prof)
            assert res == [_work(i) for i in range(8)]
            assert _chunk_set(prof) == list(range(8)), backend


# -------------------------------------------------------------------------
# sessions, knobs, and the disabled path
# -------------------------------------------------------------------------

class TestResolution:
    def test_off_by_default(self):
        assert resolve_profiler(None) is None
        out = parallel_for(VALS[:40], _work, workers=2, chunk_size=8)
        assert out == EXPECT[:40]

    def test_session_resolution_and_last_profile(self):
        with profile_session(hz=200.0) as prof:
            assert resolve_profiler(None) is prof
            parallel_for(VALS[:40], _work, workers=2, chunk_size=8)
        assert resolve_profiler(None) is None
        assert last_profile() is prof
        assert prof.work_records()

    def test_explicit_beats_session(self):
        mine = SamplingProfiler(hz=200.0)
        with profile_session(hz=200.0):
            assert resolve_profiler(mine) is mine
        mine.stop()

    def test_enabled_flag_builds_fresh_published_profiler(self):
        prof = resolve_profiler(None, enabled=True)
        assert isinstance(prof, SamplingProfiler)
        assert last_profile() is prof
        prof.stop()

    def test_profile_loop_knob(self):
        out = configured_parallel_for(
            VALS[:40], _work,
            {"Profile@loop": True, "ChunkSize@loop": 8,
             "Backend@loop": "thread"},
        )
        assert out == EXPECT[:40]
        prof = last_profile()
        assert prof is not None and prof.work_records()

    def test_pipeline_profile_knob_fills_stats(self):
        p1 = Item(lambda x: x + 1, name="inc", replicable=True)
        p2 = Item(lambda x: x * 2, name="dbl")
        pipe = Pipeline(p1, p2)
        pipe.configure({"Profile@pipeline": True})
        out = pipe.run(list(range(30)))
        assert out == [(x + 1) * 2 for x in range(30)]
        assert pipe.profile is not None
        stages = pipe.stats["profile"]["stages"]
        assert stages["inc"]["chunks"] == 30
        assert stages["dbl"]["chunks"] == 30

    def test_pipeline_rejects_stage_scoped_profile(self):
        pipe = Pipeline(Item(lambda x: x, name="a"))
        with pytest.raises(KeyError):
            pipe.configure({"Profile@a": True})


# -------------------------------------------------------------------------
# the profiler object itself
# -------------------------------------------------------------------------

class TestProfilerCore:
    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            SamplingProfiler(hz=0)
        with pytest.raises(ValueError):
            SamplingProfiler(max_samples=0)

    def test_ring_is_bounded_and_counts_drops(self):
        prof = SamplingProfiler(hz=200.0, max_samples=1)
        parallel_for(VALS, _work, workers=2, chunk_size=CHUNK,
                     backend="thread", profiler=prof)
        assert prof.samples >= prof.dropped > 0
        assert len(prof.stack_rows()) <= 1

    def test_spec_round_trip(self):
        prof = SamplingProfiler(hz=123.0, max_samples=42)
        spec = prof.spec()
        clone = SamplingProfiler.from_spec(spec)
        assert clone.hz == 123.0 and clone.max_samples == 42
        assert tuple(clone.anchor) == tuple(prof.anchor)

    def test_drain_absorb_round_trip(self):
        prof = SamplingProfiler(hz=200.0)
        with prof.work("s", 0):
            _work(7)
        payload = prof.drain()
        assert payload is not None
        assert prof.work_records() == [] and prof.samples == 0
        sink = SamplingProfiler(hz=200.0)
        sink.absorb(payload)
        assert _chunk_set(sink) == [0]
        assert sink.samples >= 1
        assert sink.drain() is not None or sink.samples == 0

    def test_folded_lines_are_stack_count(self):
        prof = SamplingProfiler(hz=200.0)
        parallel_for(VALS[:40], _work, workers=2, chunk_size=8,
                     backend="thread", profiler=prof)
        lines = prof.folded_lines()
        assert lines
        for line in lines:
            stack, count = line.rsplit(" ", 1)
            assert int(count) >= 1
            assert ";" in stack or stack  # root-first frames joined by ;
        # profiler-internal frames are trimmed out of every stack
        assert all("profiler.py" not in line for line in lines)


# -------------------------------------------------------------------------
# decomposition and exports
# -------------------------------------------------------------------------

class TestDecomposition:
    def test_shares_sum_to_one_per_stage(self):
        prof = SamplingProfiler(hz=200.0)
        parallel_for(VALS, _work, workers=2, chunk_size=CHUNK,
                     backend="thread", profiler=prof)
        dec = decompose(prof.summary())
        assert dec["stages"]
        for name, row in dec["stages"].items():
            total = sum(
                row[f"share_{c}"] for c in
                ("compute", "descheduled", "queue_wait", "ipc", "recovery")
            )
            assert total == pytest.approx(1.0), name
            assert row["total"] > 0.0

    def test_decompose_joins_trace_and_metrics(self):
        from repro.runtime import MetricsRegistry, TraceCollector

        prof = SamplingProfiler(hz=200.0)
        trace = TraceCollector()
        metrics = MetricsRegistry()
        parallel_for(VALS, _work, workers=2, chunk_size=CHUNK,
                     backend="thread", profiler=prof, trace=trace,
                     metrics=metrics)
        dec = decompose(
            prof.summary(), trace_summary=trace.summary(),
            metrics_registry=metrics,
        )
        row = dec["stages"]["loop"]
        total = sum(
            row[f"share_{c}"] for c in
            ("compute", "descheduled", "queue_wait", "ipc", "recovery")
        )
        assert total == pytest.approx(1.0)

    def test_write_folded_and_speedscope(self, tmp_path):
        prof = SamplingProfiler(hz=200.0)
        parallel_for(VALS[:40], _work, workers=2, chunk_size=8,
                     backend="thread", profiler=prof)
        folded = tmp_path / "p.folded"
        write_folded(folded, prof)
        lines = folded.read_text().strip().splitlines()
        assert lines and all(l.rsplit(" ", 1)[1].isdigit() for l in lines)

        ss = tmp_path / "p.speedscope.json"
        write_speedscope(ss, prof, name="t")
        doc = json.loads(ss.read_text())
        assert doc["$schema"] == (
            "https://www.speedscope.app/file-format-schema.json"
        )
        frames = doc["shared"]["frames"]
        assert frames
        for p in doc["profiles"]:
            assert p["type"] == "sampled"
            assert len(p["samples"]) == len(p["weights"])
            for stack in p["samples"]:
                assert all(0 <= i < len(frames) for i in stack)

    def test_chrome_trace_gains_sample_tracks(self):
        from repro.runtime import TraceCollector, chrome_trace

        prof = SamplingProfiler(hz=200.0)
        trace = TraceCollector()
        parallel_for(VALS[:80], _work, workers=2, chunk_size=8,
                     backend="thread", profiler=prof, trace=trace)
        doc = chrome_trace(
            trace.spans(), anchor=trace.anchor,
            profile=prof.sample_events(),
        )
        rows = [e["args"]["name"] for e in doc["traceEvents"]
                if e.get("name") == "thread_name"]
        assert any(r.startswith("profile:") for r in rows)
        windows = [e for e in doc["traceEvents"]
                   if e.get("cat") == "profile"]
        assert len(windows) == 10
        assert all(e["ts"] >= 0 for e in windows)
        assert doc["otherData"]["profile_windows"] == 10
        json.dumps(doc)


# -------------------------------------------------------------------------
# reports
# -------------------------------------------------------------------------

class TestReports:
    def test_profile_report_renders(self):
        from repro.report import profile_report
        from repro.tuning.hints import classify

        prof = SamplingProfiler(hz=200.0)
        parallel_for(VALS, _work, workers=2, chunk_size=CHUNK,
                     backend="thread", profiler=prof)
        dec = decompose(prof.summary())
        text = profile_report(
            prof.summary(), dec, classify(dec, backend="thread").to_dict()
        )
        assert "profile report" in text
        assert "loop:" in text and "wall split:" in text
        assert "verdict" in text

    def test_profile_report_disabled_message(self):
        from repro.report import profile_report

        assert "not enabled" in profile_report({})

    def test_trace_report_shows_sampled_split_from_stats(self):
        from repro.report import trace_report

        pipe = Pipeline(
            Item(lambda x: x + 1, name="inc", replicable=True),
            Item(lambda x: x * 2, name="dbl"),
        )
        pipe.configure({"Profile@pipeline": True, "Trace@pipeline": True})
        pipe.run(list(range(30)))
        text = trace_report(pipe.stats)
        assert "wall split (sampled):" in text
        # a bare trace summary (no profile key) renders unchanged
        assert "wall split" not in trace_report(pipe.stats["trace"])


# -------------------------------------------------------------------------
# profile-guided hints
# -------------------------------------------------------------------------

class TestHints:
    def _dec(self, **stage):
        row = {
            "compute": 0.0, "descheduled": 0.0, "queue_wait": 0.0,
            "ipc": 0.0, "recovery": 0.0,
        }
        row.update(stage)
        return {"stages": {"loop": row}}

    def test_serialization_bound_suggests_shm(self):
        from repro.tuning.hints import classify

        d = classify(
            self._dec(compute=0.3, ipc=0.7),
            backend="process", transport="pickle",
        )
        assert d.bound == "serialization"
        keys = {h.key: h.value for h in d.hints}
        assert keys["Transport@loop"] == "shm"

    def test_shm_already_on_not_resuggested(self):
        from repro.tuning.hints import classify

        d = classify(
            self._dec(compute=0.3, ipc=0.7),
            backend="process", transport="shm",
        )
        assert d.bound == "serialization"
        assert "Transport@loop" not in {h.key for h in d.hints}

    def test_dispatch_bound_suggests_coarser_guided_chunks(self):
        from repro.tuning.hints import classify

        d = classify(
            self._dec(compute=0.4, queue_wait=0.6),
            backend="process", chunk_size=4,
        )
        assert d.bound == "dispatch"
        keys = {h.key: h.value for h in d.hints}
        assert keys["ChunkSize@loop"] == 16
        assert keys["Schedule@loop"] == "guided"

    def test_thread_overhead_reads_as_dispatch_not_ipc(self):
        from repro.tuning.hints import classify

        # no process boundary -> the latency-minus-work gap is dispatch
        d = classify(self._dec(compute=0.4, ipc=0.6), backend="thread")
        assert d.bound == "dispatch"

    def test_gil_pressure_suggests_process_backend(self):
        from repro.tuning.hints import classify

        d = classify(
            self._dec(compute=0.5, descheduled=0.5), backend="thread"
        )
        assert d.bound == "contention"
        assert {h.key: h.value for h in d.hints}["Backend@loop"] == "process"

    def test_compute_bound_on_process_has_no_backend_hint(self):
        from repro.tuning.hints import classify

        d = classify(self._dec(compute=0.95, ipc=0.05), backend="process")
        assert d.bound == "compute"
        assert "Backend@loop" not in {h.key for h in d.hints}

    def test_end_to_end_pickle_numeric_run_is_serialization_bound(self):
        # the acceptance workload: trivial compute over fat numeric
        # payloads on the pickle transport — the profile must blame the
        # data plane and point at shm
        from repro.runtime import MetricsRegistry
        from repro.tuning.hints import classify

        vals = [list(range(4000)) for _ in range(24)]
        prof = SamplingProfiler(hz=200.0)
        metrics = MetricsRegistry()
        out = parallel_for(
            vals, lambda row: row[0], workers=2, chunk_size=2,
            backend="process", transport="pickle", profiler=prof,
            metrics=metrics,
        )
        assert out == [0] * 24
        # IPC cost is parent-visible (chunk latency vs in-worker work
        # window), so the decomposition joins the metrics — the same
        # join `repro run --profile` performs
        dec = decompose(prof.summary(), metrics_registry=metrics)
        d = classify(dec, backend="process", transport="pickle")
        assert d.bound == "serialization"
        assert {h.key: h.value for h in d.hints}["Transport@loop"] == "shm"

    def test_seed_config_applies_only_applicable_hints(self):
        from repro.patterns.tuning import IntParameter, knob
        from repro.tuning import ParameterSpace
        from repro.tuning.hints import Hint, seed_config

        space = ParameterSpace([
            knob("Transport", "loop", ""),
            IntParameter(name="ChunkSize", target="loop",
                         default=1, lo=1, hi=8),
        ])
        cfg = seed_config(space, [
            Hint("Transport@loop", "shm", "r"),
            Hint("ChunkSize@loop", 32, "r"),   # clipped to nearest (8)
            Hint("Nope@loop", True, "r"),      # not a dimension: ignored
        ])
        assert cfg["Transport@loop"] == "shm"
        assert cfg["ChunkSize@loop"] == 8

    def test_prune_space_pins_hinted_dimensions(self):
        from repro.patterns.tuning import IntParameter, knob
        from repro.tuning import ParameterSpace
        from repro.tuning.hints import Hint, prune_space

        space = ParameterSpace([
            knob("Transport", "loop", ""),
            IntParameter(name="ChunkSize", target="loop",
                         default=1, lo=1, hi=8),
        ])
        pruned = prune_space(space, [Hint("Transport@loop", "shm", "r")])
        assert pruned.domain("Transport@loop") == ["shm"]
        assert pruned.domain("ChunkSize@loop") == space.domain(
            "ChunkSize@loop"
        )
        assert pruned.size() == space.size() // len(
            space.domain("Transport@loop")
        )
