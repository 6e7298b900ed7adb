"""Structured span tracing: collection, parity, truncation accounting,
fault-ledger cross-referencing, stall history, the Chrome export, the
tuner's traced measure source, and the ``repro trace`` CLI."""

import json
import os
import sys
import threading
import time

import pytest

from repro.report import fault_report, trace_report
from repro.runtime import Item, Pipeline
from repro.runtime.chaos import ChaosInjector
from repro.runtime.faults import FaultPolicy
from repro.runtime.masterworker import MasterWorker
from repro.runtime.parallel_for import configured_parallel_for, parallel_for
from repro.runtime.pipeline import PipelineStallError
from repro.runtime.trace import (
    DEFAULT_CAPACITY,
    Span,
    TraceCollector,
    active_collector,
    bottleneck,
    chrome_trace,
    last_trace,
    resolve_collector,
    trace_session,
    write_chrome_trace,
)


# module-level bodies: picklable for the process backend ------------------

def double(x):
    return x * 2


def flaky_under_three(x):
    """Deterministically fails on x < 3 — same schedule in any process."""
    if x < 3:
        raise ValueError(f"flaky {x}")
    return x


#: the poisoned run of the ledger-parity test: two poison elements and
#: one element slower than the item deadline
LEDGER_POISON = frozenset({2, 7})
LEDGER_SLOW = 5
LEDGER_DEADLINE = 0.1


def poisoned_or_slow(x):
    if x in LEDGER_POISON:
        raise ValueError(f"poison {x}")
    if x == LEDGER_SLOW:
        time.sleep(3 * LEDGER_DEADLINE)
    return x * 2


def spans_by_kind(spans):
    out = {}
    for s in spans:
        out.setdefault(s.kind, []).append(s)
    return out


# -------------------------------------------------------------------------
# collector basics
# -------------------------------------------------------------------------

class TestCollector:
    def test_add_and_duration(self):
        c = TraceCollector()
        t0 = c.now()
        span = c.add("execute", "A", 0, t0, t0 + 0.5, attempt=1)
        assert span.duration == pytest.approx(0.5)
        assert span.detail == {"attempt": 1}
        assert len(c) == 1

    def test_instant_is_zero_duration(self):
        c = TraceCollector()
        s = c.instant("cancel", "B", -1)
        assert s.duration == 0.0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            TraceCollector(capacity=0)

    def test_ring_truncation_is_accounted(self):
        c = TraceCollector(capacity=10)
        t = c.now()
        for i in range(25):
            c.add("execute", "A", i, t, t)
        # capacity kept, overflow counted, newest spans survive
        assert len(c) == 10
        assert c.dropped == 15
        assert [s.seq for s in c.spans()] == list(range(15, 25))
        assert c.summary()["dropped"] == 15

    def test_clear_resets_dropped(self):
        c = TraceCollector(capacity=2)
        t = c.now()
        for i in range(5):
            c.add("execute", "A", i, t, t)
        c.clear()
        assert len(c) == 0 and c.dropped == 0

    def test_span_dict_round_trip(self):
        c = TraceCollector()
        t = c.now()
        s = c.add("retry", "B", 7, t, t + 0.1, attempt=2, error="ValueError()")
        back = Span.from_dict(s.as_dict())
        assert back == s

    def test_drain_absorb_round_trip(self):
        worker = TraceCollector.from_spec(TraceCollector(capacity=4).spec())
        worker.worker_label = "loop-w0@pid1"
        t = worker.now()
        for i in range(6):
            worker.add("execute", "loop", i, t, t)
        dicts, dropped = worker.drain()
        assert len(dicts) == 4 and dropped == 2
        assert len(worker) == 0 and worker.dropped == 0

        parent = TraceCollector()
        parent.absorb((dicts, dropped))
        assert len(parent) == 4
        assert parent.dropped == 2
        assert all(s.worker == "loop-w0@pid1" for s in parent.spans())

    def test_record_reads_back_as_a_span(self):
        c = TraceCollector()
        t = c.now()
        assert c.record("retry", "B", 7, t, t + 0.1, 2, "ValueError()") is None
        c.record("queue_wait", "B", 8, t)
        retry, wait = c.spans()
        assert retry == Span(
            "retry", "B", 7, t, t + 0.1, threading.current_thread().name,
            {"attempt": 2, "error": "ValueError()"},
        )
        assert wait.kind == "queue_wait" and wait.detail == {}
        assert wait.end >= t

    def test_worker_label_set_late_still_wins(self):
        c = TraceCollector()
        t = c.now()
        c.record("execute", "loop", 0, t, t, 1)
        c.worker_label = "loop-w1@pid7"
        c.record("execute", "loop", 1, t, t, 1)
        assert [s.worker for s in c.spans()] == [
            threading.current_thread().name, "loop-w1@pid7",
        ]

    def test_concurrent_writers_keep_dropped_exact(self):
        # a tiny switch interval interleaves the lock-free appends with
        # the trims: every span is either kept or counted as dropped
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        c = TraceCollector(capacity=1000)
        start = threading.Barrier(4)

        def write(w):
            start.wait()
            t = c.now()
            for i in range(2500):
                if i % 2:
                    c.record("execute", "A", w * 2500 + i, t, t, 1)
                else:
                    c.add("execute", "A", w * 2500 + i, t, t, attempt=1)

        writers = [
            threading.Thread(target=write, args=(w,)) for w in range(4)
        ]
        try:
            for th in writers:
                th.start()
            for th in writers:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in writers)
        spans = c.spans()
        assert len(spans) == len(c) == 1000
        assert c.dropped == 9000
        assert len({s.seq for s in spans}) == 1000
        assert c.summary()["dropped"] == 9000

    @pytest.mark.parametrize("trial", range(5))
    def test_concurrent_drain_loses_and_duplicates_nothing(self, trial):
        # a reader draining while 4 threads write past a small ring: every
        # span is drained exactly once or counted as dropped, even when a
        # writer's trim and the reader's drain overlap
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        c = TraceCollector(capacity=8)
        drained, dropped = [], []
        done = threading.Event()

        def write(w):
            t = c.now()
            for i in range(2500):
                c.record("execute", "A", w * 2500 + i, t, t, 1)

        def drain():
            while not done.is_set():
                time.sleep(0.0002)  # let the ring fill past its trim limit
                spans, lost = c.drain()
                drained.extend(d["seq"] for d in spans)
                dropped.append(lost)

        writers = [
            threading.Thread(target=write, args=(w,)) for w in range(4)
        ]
        reader = threading.Thread(target=drain)
        try:
            reader.start()
            for th in writers:
                th.start()
            for th in writers:
                th.join(timeout=60)
            done.set()
            reader.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not reader.is_alive()
        assert not any(th.is_alive() for th in writers)
        spans, lost = c.drain()
        drained.extend(d["seq"] for d in spans)
        assert len(drained) == len(set(drained))
        assert len(drained) + sum(dropped) + lost == 10000

    def test_summary_aggregates_and_bottleneck(self):
        c = TraceCollector()
        t = c.now()
        c.add("execute", "A", 0, t, t + 0.3)
        c.add("execute", "B", 0, t, t + 0.1)
        c.add("queue_wait", "B", 0, t, t + 0.05)
        summary = c.summary()
        assert summary["stages"]["A"]["count"] == 1
        assert summary["stages"]["B"]["queue_wait"] == pytest.approx(0.05)
        stage, share = bottleneck(summary)
        assert stage == "A"
        assert share == pytest.approx(0.75)

    def test_bottleneck_none_without_execute_time(self):
        assert bottleneck({}) is None
        assert bottleneck(TraceCollector().summary()) is None


# -------------------------------------------------------------------------
# sessions and resolution
# -------------------------------------------------------------------------

class TestSessionResolution:
    def test_session_publishes_and_pops(self):
        assert active_collector() is None
        with trace_session() as c:
            assert active_collector() is c
        assert active_collector() is None
        assert last_trace() is c

    def test_session_keeps_explicit_empty_collector(self):
        mine = TraceCollector()
        with trace_session(collector=mine):
            assert active_collector() is mine

    def test_resolution_priority(self):
        explicit = TraceCollector()
        with trace_session() as session:
            assert resolve_collector(explicit) is explicit
            assert resolve_collector(None) is session
        assert resolve_collector(None) is None
        fresh = resolve_collector(None, enabled=True, capacity=32)
        assert fresh is not None and fresh.capacity == 32
        assert last_trace() is fresh

    def test_disabled_run_records_nothing(self):
        out = parallel_for(range(8), double, workers=2)
        assert out == [x * 2 for x in range(8)]
        # no session, no Trace@ knob: nothing resolved
        assert resolve_collector(None) is None


# -------------------------------------------------------------------------
# span completeness: every element's journey appears
# -------------------------------------------------------------------------

class TestSpanCompleteness:
    def test_parallel_for_every_element_has_an_execute_span(self):
        c = TraceCollector()
        parallel_for(range(20), double, workers=3, trace=c)
        execs = [s for s in c.spans() if s.kind == "execute"]
        assert sorted(s.seq for s in execs) == list(range(20))
        assert all(s.stage == "loop" for s in execs)
        assert all(s.duration >= 0.0 for s in execs)

    def test_pipeline_all_stages_all_elements(self):
        pipe = Pipeline(
            Item(double, name="A"),
            Item(double, name="B"),
            trace=True,
        )
        pipe.run(range(10))
        by_stage = pipe.trace.per_stage()
        for stage in ("A", "B"):
            execs = [s for s in by_stage[stage] if s.kind == "execute"]
            assert sorted(s.seq for s in execs) == list(range(10))

    def test_pipeline_queue_wait_recorded_on_threaded_path(self):
        pipe = Pipeline(
            Item(double, name="A"),
            Item(double, name="B"),
            trace=True,
        )
        pipe.run(range(6))
        kinds = spans_by_kind(pipe.trace.spans())
        assert "queue_wait" in kinds
        # stats carry the summary for reports
        assert pipe.stats["trace"]["spans"] == len(pipe.trace.spans())

    def test_pipeline_sequential_path_traces_too(self):
        pipe = Pipeline(
            Item(double, name="A"),
            sequential=True,
            trace=True,
        )
        pipe.run(range(5))
        execs = [s for s in pipe.trace.spans() if s.kind == "execute"]
        assert sorted(s.seq for s in execs) == list(range(5))

    def test_masterworker_run_traced(self):
        mw = MasterWorker(Item(double, name="w"), name="group")
        c = TraceCollector()
        results = mw.run([lambda: 1, lambda: 2, lambda: 3], trace=c)
        assert results == [1, 2, 3]
        execs = [s for s in c.spans() if s.kind == "execute"]
        assert len(execs) == 3
        assert all(s.stage == "group" for s in execs)


# -------------------------------------------------------------------------
# thread/process parity: same ledger either way
# -------------------------------------------------------------------------

def _span_keys(collector, normalize_chaos=True):
    """Order-independent identity of a run's span ledger.

    Worker labels and timestamps legitimately differ across backends;
    (kind, stage, seq, attempt, error) must not.  Process chaos wraps
    name per-chunk clones ``loop#c<k>`` — normalized to the base stage.
    """
    keys = []
    for s in collector.spans():
        stage = s.stage.split("#")[0] if normalize_chaos else s.stage
        keys.append(
            (
                s.kind,
                stage,
                s.seq,
                s.detail.get("attempt"),
                ("error" in s.detail),
            )
        )
    return sorted(keys)


class TestBackendParity:
    def test_execute_spans_identical_across_backends(self):
        ledgers = {}
        for backend in ("thread", "process"):
            c = TraceCollector()
            out = parallel_for(
                range(12), double, workers=2, chunk_size=3,
                backend=backend, trace=c,
            )
            assert out == [x * 2 for x in range(12)]
            ledgers[backend] = _span_keys(c)
        assert ledgers["thread"] == ledgers["process"]

    def test_retry_and_backoff_spans_identical_across_backends(self):
        policy_args = dict(retries=2, backoff=0.001, jitter=0.0, seed=3)
        ledgers = {}
        for backend in ("thread", "process"):
            c = TraceCollector()
            out = parallel_for(
                range(6),
                flaky_under_three,
                workers=2,
                backend=backend,
                policy=FaultPolicy(on_error="fallback", **policy_args),
                trace=c,
            )
            assert out == [None, None, None, 3, 4, 5]
            ledgers[backend] = _span_keys(c)
        assert ledgers["thread"] == ledgers["process"]
        # the failing elements each burned all attempts: 1 execute + 2
        # retries + 2 backoffs; kind counts prove nothing vanished in IPC
        kinds = [k for (k, *_rest) in ledgers["process"]]
        assert kinds.count("retry") == 3 * 2
        assert kinds.count("backoff") == 3 * 2

    def test_poisoned_ledger_spans_agree_on_every_backend(self):
        """A poisoned run with a missed deadline reads back the same span
        ledger from the compact records on serial, thread and process:
        kind, seq, attempt and error repr per span, each element's spans
        under one worker label of the backend's own form."""
        caller = threading.current_thread().name
        n = 12
        ledgers = {}
        for backend in ("serial", "thread", "process"):
            c = TraceCollector()
            ledger = []
            out = parallel_for(
                range(n), poisoned_or_slow, workers=2, chunk_size=3,
                backend=backend, ledger=ledger, trace=c,
                policy=FaultPolicy(
                    retries=1, backoff=0, on_error="fallback",
                    item_timeout=LEDGER_DEADLINE,
                ),
            )
            bad = LEDGER_POISON | {LEDGER_SLOW}
            assert out == [None if x in bad else x * 2 for x in range(n)]
            assert [(r.seq, r.attempts) for r in ledger] == [
                (x, 2) for x in sorted(bad)
            ]
            spans = c.spans()
            # the terminal span of each bad element carries the repr of
            # the error its ErrorRecord holds
            errors = {r.seq: repr(r.error) for r in ledger}
            for seq in bad:
                last = [s for s in spans if s.seq == seq and s.kind != "backoff"]
                assert last[-1].detail == {"attempt": 2, "error": errors[seq]}
            workers = {}
            for s in spans:
                workers.setdefault(s.seq, set()).add(s.worker)
            assert all(len(w) == 1 for w in workers.values())
            labels = set().union(*workers.values())
            if backend == "serial":
                assert labels == {caller}
            elif backend == "thread":
                assert labels and caller not in labels
            else:
                assert labels and all(
                    w.startswith("loop-w") and "@pid" in w
                    and not w.endswith(f"@pid{os.getpid()}")
                    for w in labels
                )
            ledgers[backend] = sorted(
                (
                    s.kind, s.seq, s.detail.get("attempt"),
                    # a missed deadline's message carries the measured
                    # time, so only its type is stable across runs
                    s.detail.get("error", "").split("(")[0]
                    if s.kind == "timeout" else s.detail.get("error"),
                    s.detail.get("delay"),
                )
                for s in spans
            )
        assert ledgers["serial"] == ledgers["thread"] == ledgers["process"]
        kinds = [k for k, *_rest in ledgers["serial"]]
        assert kinds.count("timeout") == 2
        assert kinds.count("retry") == len(LEDGER_POISON)
        assert kinds.count("backoff") == 3
        assert kinds.count("execute") == n - 1

    def test_process_spans_carry_worker_pid_labels(self):
        c = TraceCollector()
        parallel_for(range(8), double, workers=2, backend="process", trace=c)
        workers = {s.worker for s in c.spans()}
        assert workers and all("@pid" in w for w in workers)

    def test_chaos_spans_cross_reference_errors_both_backends(self):
        """Every injected fault appears as a chaos span AND as an error
        detail on the execute/retry span of the same element — the
        ErrorRecord cross-reference, identical across backends."""
        for backend in ("thread", "process"):
            c = TraceCollector()
            injector = ChaosInjector(seed=11, fail_rate=0.3)
            ledger = []
            parallel_for(
                range(10),
                double,
                workers=2,
                backend=backend,
                chaos=injector,
                policy=FaultPolicy(on_error="fallback"),
                ledger=ledger,
                trace=c,
            )
            chaos_spans = [s for s in c.spans() if s.kind == "chaos"]
            injected = injector.stats()["injected_failures"]
            assert injected > 0, "seed 11 must inject at this rate"
            assert len(chaos_spans) >= injected
            errored = [
                s for s in c.spans()
                if s.kind in ("execute", "retry") and "error" in s.detail
            ]
            # each recorded ErrorRecord has a matching errored span
            assert {(r.seq,) for r in ledger} == {
                (s.seq,) for s in errored
            }
            for s in errored:
                assert "ChaosError" in s.detail["error"]


# -------------------------------------------------------------------------
# fault-policy alignment: spans mirror the ErrorRecord ledger
# -------------------------------------------------------------------------

class TestFaultAlignment:
    def test_retry_spans_align_with_error_records(self):
        c = TraceCollector()
        ledger = []
        parallel_for(
            range(5),
            flaky_under_three,
            workers=2,
            policy=FaultPolicy(
                retries=1, backoff=0.001, jitter=0.0, on_error="fallback"
            ),
            ledger=ledger,
            trace=c,
        )
        failed_seqs = sorted(r.seq for r in ledger)
        assert failed_seqs == [0, 1, 2]
        by_kind = spans_by_kind(c.spans())
        # the terminal attempt of each failed element is a retry span
        # carrying the error repr that the ErrorRecord also holds
        terminal = [
            s for s in by_kind["retry"] if "error" in s.detail
        ]
        assert sorted(s.seq for s in terminal) == failed_seqs
        records = {r.seq: repr(r.error) for r in ledger}
        for s in terminal:
            assert s.detail["error"] == records[s.seq]
        # one backoff span per retry attempt, with the delay recorded
        assert len(by_kind["backoff"]) == 3
        assert all(s.detail["delay"] > 0 for s in by_kind["backoff"])

    def test_timeout_span_kind(self):
        def slow(x):
            time.sleep(0.2)
            return x

        c = TraceCollector()
        parallel_for(
            [1],
            slow,
            workers=1,
            policy=FaultPolicy(item_timeout=0.01, on_error="fallback"),
            trace=c,
        )
        kinds = spans_by_kind(c.spans())
        assert len(kinds["timeout"]) == 1
        summary = c.summary()
        assert summary["stages"]["loop"]["timeouts"] == 1
        assert summary["stages"]["loop"]["errors"] == 1

    def test_cancel_span_on_cancellation(self):
        from repro.runtime.faults import CancellationToken, CancelledError

        cancel = CancellationToken()

        def body(x):
            if x == 3:
                cancel.cancel("enough")
            return x

        c = TraceCollector()
        with pytest.raises(CancelledError):
            parallel_for(
                range(100), body, workers=2, cancel=cancel, trace=c
            )
        assert any(s.kind == "cancel" for s in c.spans())


# -------------------------------------------------------------------------
# the Trace@ tuning parameter
# -------------------------------------------------------------------------

class TestTraceParameter:
    def test_trace_at_loop_publishes_last_trace(self):
        out = configured_parallel_for(
            range(7), double, {"Trace@loop": True, "NumWorkers@loop": 2}
        )
        assert out == [x * 2 for x in range(7)]
        c = last_trace()
        assert c is not None
        execs = [s for s in c.spans() if s.kind == "execute"]
        assert sorted(s.seq for s in execs) == list(range(7))

    def test_trace_off_by_default_in_config(self):
        # detection emits Trace=False; the configured path must not build
        # a collector for it
        import repro.runtime.trace as trace_mod

        trace_mod.set_last(None)
        configured_parallel_for(range(3), double, {"Trace@loop": False})
        assert last_trace() is None

    def test_pipeline_trace_parameter(self):
        pipe = Pipeline(Item(double, name="A"))
        pipe.configure({"Trace@pipeline": True})
        pipe.run(range(4))
        assert pipe.trace is not None
        assert pipe.stats["trace"]["stages"]["A"]["count"] == 4

    def test_pipeline_tolerates_sibling_trace_keys(self):
        pipe = Pipeline(Item(double, name="A"))
        pipe.configure({"Trace@loop": True})  # sibling pattern's knob
        pipe.run(range(2))

    def test_doall_tuning_includes_trace(self):
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
        keys = {p.key for p in match.tuning}
        assert "Trace@loop" in keys
        p = match.parameter("Trace@loop")
        assert p.default is False


# -------------------------------------------------------------------------
# stall history
# -------------------------------------------------------------------------

class TestStallHistory:
    def _stalling_pipeline(self):
        gate = threading.Event()

        def wedge(x):
            if x == 2:
                gate.wait(5.0)  # far beyond the stall timeout
            return x

        return Pipeline(
            Item(double, name="A"),
            Item(wedge, name="B"),
            stall_timeout=0.2,
            trace=True,
        ), gate

    def test_stall_error_names_stage_with_history(self):
        pipe, gate = self._stalling_pipeline()
        try:
            with pytest.raises(PipelineStallError) as exc_info:
                pipe.run(range(8))
        finally:
            gate.set()
        err = exc_info.value
        assert err.stage == "B"
        assert err.history, "traced stall must carry span history"
        # the stuck stage's last executed element is named in the message
        assert "last span of 'B'" in str(err)
        assert "last progress per stage" in str(err)
        assert err.last_progress["A"] >= 0.0
        # fault_report renders the history block
        rendered = fault_report(err.stats)
        assert "last progress" in rendered

    def test_untraced_stall_keeps_occupancy_message(self):
        gate = threading.Event()

        def wedge(x):
            if x == 1:
                gate.wait(5.0)
            return x

        pipe = Pipeline(
            Item(wedge, name="A"), stall_timeout=0.2
        )
        try:
            with pytest.raises(PipelineStallError) as exc_info:
                pipe.run(range(6))
        finally:
            gate.set()
        assert "buffer occupancies" in str(exc_info.value)


# -------------------------------------------------------------------------
# Chrome trace-event export
# -------------------------------------------------------------------------

class TestChromeExport:
    def _traced_collector(self):
        c = TraceCollector()
        parallel_for(range(5), double, workers=2, trace=c)
        return c

    def test_schema(self):
        c = self._traced_collector()
        doc = chrome_trace(c.spans(), label="unit")
        assert set(doc) >= {"traceEvents", "displayTimeUnit"}
        events = doc["traceEvents"]
        metas = [e for e in events if e["ph"] == "M"]
        assert metas[0]["name"] == "process_name"
        assert metas[0]["args"]["name"] == "unit"
        assert any(e["name"] == "thread_name" for e in metas)
        completes = [e for e in events if e["ph"] == "X"]
        assert len(completes) == 5
        for e in completes:
            # the trace-event contract Perfetto validates
            assert {"ph", "pid", "tid", "ts", "dur", "name", "cat", "args"} <= set(e)
            assert e["ts"] >= 0.0 and e["dur"] >= 0.0
            assert isinstance(e["tid"], int)
            assert e["cat"] == "execute"
            assert e["args"]["kind"] == "execute"
        # timestamps rebased to the earliest span
        assert min(e["ts"] for e in completes) == 0.0

    def test_event_names_distinguish_non_execute_kinds(self):
        c = TraceCollector()
        t = c.now()
        c.add("execute", "A", 0, t, t + 0.1)
        c.instant("chaos", "A", -1, injected="fail")
        doc = chrome_trace(c.spans())
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert names == {"A", "chaos:A"}

    def test_empty_span_list_is_valid(self):
        doc = chrome_trace([])
        assert doc["traceEvents"][0]["ph"] == "M"

    def test_write_and_load_round_trip(self, tmp_path):
        c = self._traced_collector()
        path = write_chrome_trace(tmp_path / "t.json", c.spans())
        doc = json.loads(path.read_text())
        assert doc["otherData"]["spans"] == 5
        assert chrome_trace(c.spans()) == chrome_trace(
            [s.as_dict() for s in c.spans()]
        )


# -------------------------------------------------------------------------
# reports
# -------------------------------------------------------------------------

class TestTraceReport:
    def test_renders_stage_breakdown(self):
        pipe = Pipeline(
            Item(double, name="A"), Item(double, name="B"), trace=True
        )
        pipe.run(range(10))
        text = trace_report(pipe.stats)
        assert "trace report" in text
        assert "A:" in text and "B:" in text
        assert "bottleneck" in text
        assert "p95" in text

    def test_handles_untraced_stats(self):
        assert "not enabled" in trace_report({})
        assert "not enabled" in trace_report({"delivered": 3})

    def test_accepts_bare_summary(self):
        c = TraceCollector()
        parallel_for(range(4), double, workers=2, trace=c)
        text = trace_report(c.summary())
        assert "loop:" in text

    def test_reports_drops(self):
        c = TraceCollector(capacity=4)
        parallel_for(range(10), double, workers=2, trace=c)
        assert "dropped by the ring buffer" in trace_report(c.summary())


# -------------------------------------------------------------------------
# the tuner's traced measure source
# -------------------------------------------------------------------------

class TestTracedPipelineSource:
    def test_measures_and_explains_bottleneck(self):
        from repro.simcore.costmodel import imbalanced_workload
        from repro.tuning import TracedPipelineSource

        wl = imbalanced_workload(n=64, cheap=5e-6, hot=200e-6)
        source = TracedPipelineSource(wl, elements=12, time_budget=0.02)
        wall = source.measure({"StageReplication@s1": 2})
        assert wall > 0
        assert len(source.evaluations) == 1
        config, best_wall, summary = source.best()
        assert best_wall == wall
        assert summary["stages"], "evaluation must carry a trace summary"
        stage, _share = bottleneck(summary)
        assert stage == "s1"
        text = source.explain()
        assert "bottleneck" in text and "'s1'" in text
        assert "StageReplication@s1 = 2" in text

    def test_no_evaluations_yet(self):
        from repro.simcore.costmodel import balanced_workload
        from repro.tuning import TracedPipelineSource

        source = TracedPipelineSource(balanced_workload(n=8))
        assert source.best() is None
        assert "no evaluations" in source.explain()


# -------------------------------------------------------------------------
# CLI
# -------------------------------------------------------------------------

class TestTraceCli:
    def test_trace_subcommand_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        out_json = tmp_path / "trace.json"
        rc = main(
            [
                "trace",
                "--benchmark", "montecarlo",
                "--export-json", str(out_json),
            ]
        )
        assert rc == 0
        captured = capsys.readouterr().out
        assert "trace report" in captured
        assert "traced" in captured
        doc = json.loads(out_json.read_text())
        assert any(e["ph"] == "X" for e in doc["traceEvents"])

    def test_trace_subcommand_process_backend(self, capsys):
        from repro.cli import main

        rc = main(
            ["trace", "--benchmark", "montecarlo", "--backend", "process"]
        )
        assert rc == 0
        assert "trace report" in capsys.readouterr().out

    def test_overhead_results_schema(self):
        # the benchmark persists its overhead ceiling; when the file is
        # present (CI runs it), hold it to the documented bound
        import pathlib

        path = pathlib.Path(__file__).resolve().parents[1] / (
            "benchmarks/results/trace_overhead.json"
        )
        if not path.exists():
            pytest.skip("overhead benchmark has not been run")
        doc = json.loads(path.read_text())
        assert doc["disabled_overhead_pct"] < 5.0
