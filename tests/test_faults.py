"""Supervised runtime: fault policies, cancellation, stall watchdog,
chaos injection, and the end-to-end tuning-file wiring of the fault
knobs."""

import sys
import threading
import time

import pytest

from repro.runtime import (
    BoundedBuffer,
    BufferTimeout,
    CancellationToken,
    CancelledError,
    ChaosError,
    ChaosInjector,
    FaultPolicy,
    Item,
    ItemTimeoutError,
    MasterWorker,
    Pipeline,
    PipelineError,
    PipelineStallError,
    parallel_for,
    parallel_reduce,
)
from repro.runtime import faults
from repro.runtime import pipeline as pipeline_module
from repro.runtime.backend import _run_map_chunk
from repro.runtime.metrics import MetricsRegistry, count_outcome
from repro.runtime.parallel_for import configured_parallel_for
from repro.runtime.trace import TraceCollector


def flaky(fail_times):
    """A callable failing its first ``fail_times`` invocations."""
    calls = [0]

    def fn(v):
        calls[0] += 1
        if calls[0] <= fail_times:
            raise ValueError(f"boom {calls[0]}")
        return v * 10

    fn.calls = calls
    return fn


# ---------------------------------------------------------------------------
# FaultPolicy
# ---------------------------------------------------------------------------

class TestFaultPolicy:
    def test_success_first_attempt(self):
        out = FaultPolicy().execute(lambda v: v + 1, 41)
        assert (out.action, out.value, out.attempts) == ("delivered", 42, 1)
        assert out.retried == 0 and out.error is None

    def test_retry_until_success(self):
        fn = flaky(2)
        out = FaultPolicy(retries=3, backoff=0.0).execute(fn, 7)
        assert (out.action, out.value, out.attempts) == ("delivered", 70, 3)
        assert out.retried == 2

    def test_fail_fast_is_default_and_never_raises(self):
        out = FaultPolicy(retries=1, backoff=0.0).execute(flaky(5), 1)
        assert out.action == "failed"
        assert isinstance(out.error, ValueError)
        assert out.attempts == 2  # 1 + retries

    def test_skip_and_fallback_dispositions(self):
        skip = FaultPolicy(on_error="skip", backoff=0.0)
        assert skip.execute(flaky(9), 1).action == "skipped"
        fb = FaultPolicy(on_error="fallback", fallback=-1, backoff=0.0)
        out = fb.execute(flaky(9), 1)
        assert (out.action, out.value) == ("fallback", -1)

    def test_invalid_on_error_rejected(self):
        with pytest.raises(ValueError, match="on_error"):
            FaultPolicy(on_error="explode")
        with pytest.raises(ValueError, match="retries"):
            FaultPolicy(retries=-1)

    def test_backoff_schedule_is_deterministic_and_exponential(self):
        a = FaultPolicy(retries=4, backoff=0.01, seed=7).delays()
        b = FaultPolicy(retries=4, backoff=0.01, seed=7).delays()
        c = FaultPolicy(retries=4, backoff=0.01, seed=8).delays()
        assert a == b  # same seed -> identical schedule
        assert a != c  # jitter actually depends on the seed
        # exponential growth dominates the bounded jitter (factor 2 vs 1.5)
        assert all(later > earlier for earlier, later in zip(a, a[1:]))

    def test_item_timeout_counts_as_fault(self):
        policy = FaultPolicy(item_timeout=0.01, on_error="skip", backoff=0.0)
        out = policy.execute(lambda v: time.sleep(0.05) or v, 1)
        assert out.action == "skipped"
        assert isinstance(out.error, ItemTimeoutError)

    def test_cancellation_aborts_retries(self):
        token = CancellationToken()
        calls = [0]

        def fn(v):
            calls[0] += 1
            token.cancel("stop now")
            raise ValueError("boom")

        with pytest.raises(CancelledError, match="stop now"):
            FaultPolicy(retries=10, backoff=5.0).execute(fn, 1, cancel=token)
        assert calls[0] == 1  # the 5s backoff sleep was interrupted

    @pytest.mark.parametrize("on_error", faults.ON_ERROR_MODES)
    def test_a_bodys_own_cancelled_error_fails_its_element(self, on_error):
        # the attempt that raises it is traced as any failed attempt, but
        # it is never retried, and the element fails whatever on_error
        calls = []

        def fn(v):
            calls.append(v)
            if len(calls) == 2:
                raise CancelledError("body cancelled")
            raise ValueError("boom")

        trace = TraceCollector()
        out = FaultPolicy(retries=3, backoff=0.0, on_error=on_error).execute(
            fn, 1, cancel=CancellationToken(), trace=trace, stage="s", seq=4,
        )
        assert (out.action, out.attempts, out.value) == ("failed", 2, None)
        assert isinstance(out.error, CancelledError) and len(calls) == 2
        assert [
            (s.kind, s.detail.get("error")) for s in trace.spans()
            if s.kind != "backoff"
        ] == [
            ("execute", repr(ValueError("boom"))),
            ("retry", repr(CancelledError("body cancelled"))),
        ]

    def test_the_runs_cancellation_propagates_with_no_span(self):
        token = CancellationToken()

        def fn(v):
            token.cancel("run cancelled")
            token.raise_if_cancelled()

        trace = TraceCollector()
        with pytest.raises(CancelledError, match="run cancelled"):
            FaultPolicy(retries=3, backoff=0.0).execute(
                fn, 1, cancel=token, trace=trace,
            )
        assert trace.spans() == []

    def test_retries_sleep_the_delays_schedule(self, monkeypatch):
        policy = FaultPolicy(retries=3, backoff=0.01, seed=5)
        slept = []
        monkeypatch.setattr(time, "sleep", slept.append)
        out = policy.execute(flaky(3), 1)
        assert (out.action, out.attempts) == ("delivered", 4)
        assert slept == policy.delays()

    def test_first_attempt_success_builds_no_schedule(self, monkeypatch):
        import repro.runtime.faults as faults

        def no_rng(*args):
            raise AssertionError("backoff schedule built without a retry")

        monkeypatch.setattr(faults.random, "Random", no_rng)
        out = FaultPolicy(retries=2, backoff=0.01).execute(lambda v: v, 3)
        assert (out.action, out.value, out.attempts) == ("delivered", 3, 1)


    @pytest.mark.parametrize("path", ["untimed", "traced", "deadline"])
    @pytest.mark.parametrize("policy, fails, expected", [
        ({}, 0, ("delivered", 10, 1, None, 0)),
        ({"retries": 2}, 1, ("delivered", 10, 2, None, 1)),
        (
            {"retries": 1, "on_error": "fallback", "fallback": -1}, 9,
            ("fallback", -1, 2, "boom 2", 1),
        ),
        ({"retries": 1, "on_error": "skip"}, 9, ("skipped", None, 2, "boom 2", 1)),
        ({"retries": 1}, 9, ("failed", None, 2, "boom 2", 1)),
    ], ids=["success", "retry-then-success", "fallback", "skip", "fail-fast"])
    def test_outcome_fields_on_every_path(self, path, policy, fails, expected):
        # the untimed fast path, the clocked one (trace or deadline) and
        # the recovery loop behind them agree on every Outcome field
        from repro.runtime.trace import TraceCollector

        trace = TraceCollector() if path == "traced" else None
        timeout = 60.0 if path == "deadline" else None
        out = FaultPolicy(backoff=0.0, item_timeout=timeout, **policy).execute(
            flaky(fails), 1, trace=trace, stage="s", seq=4,
        )
        error = None if out.error is None else str(out.error)
        assert (out.action, out.value, out.attempts, error, out.retried) == (
            expected
        )
        if trace is not None:
            kinds = ["execute"] + ["backoff", "retry"] * out.retried
            assert [s.kind for s in trace.spans()] == kinds
            attempts = [s for s in trace.spans() if s.kind != "backoff"]
            assert [s.detail["attempt"] for s in attempts] == list(
                range(1, out.attempts + 1)
            )
            failed = min(fails, out.attempts)
            assert [("error" in s.detail) for s in attempts] == (
                [True] * failed + [False] * (out.attempts - failed)
            )


# ---------------------------------------------------------------------------
# the map kernel's policy loop against execute()
# ---------------------------------------------------------------------------

CHUNK_LO, CHUNK_HI, CHOSEN, SLOW = 20, 32, 25, 28
STAGE = "loop"

#: ``None`` is a run with no policy: the kernel runs it as ``NO_POLICY``
#: and the reference as ``FaultPolicy()`` (fail fast, no retries)
CHUNK_POLICIES = {
    "none": None,
    "default": FaultPolicy(),
    "retry-fallback": FaultPolicy(
        retries=1, backoff=0.0, on_error="fallback", fallback=-1
    ),
    "skip": FaultPolicy(on_error="skip"),
    "fail-fast": FaultPolicy(retries=1, backoff=0.0, on_error="fail_fast"),
    "item-timeout": FaultPolicy(
        retries=1, backoff=0.0, item_timeout=0.05, on_error="fallback",
        fallback=-2,
    ),
}


class PolicyClock:
    """A stand-in for the policy's ``time`` module that only a body
    advances, so an item timeout fires on the slow element alone and
    never on a host stall."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def chunk_body(kind, clock, token):
    """A fresh body: ``ok``, or failing at ``CHOSEN`` ``once`` or
    ``always``, or raising ``CancelledError`` there, or firing ``token``
    there and returning.  With a ``clock``, element ``SLOW``'s first
    attempt takes 0.1 s on it, overrunning the item timeout."""
    seen = set()

    def body(x):
        first = x not in seen
        seen.add(x)
        if clock is not None and x == SLOW and first:
            clock.sleep(0.1)
        if x == CHOSEN:
            if kind == "cancel":
                raise CancelledError(f"cancelled at {x}")
            if kind == "token":
                token.cancel(f"token fired at {x}")
            if kind == "always" or (kind == "once" and first):
                raise ValueError(f"poison {x}")
        return x * x

    return body


def per_element_chunk(policy, fn, vals, lo, hi, trace, metrics, cancel):
    """The reference: one :meth:`FaultPolicy.execute` call per element,
    counted per element, as ``FaultPolicy()`` when there is no policy."""
    values, records = [], []
    counters = dict.fromkeys(
        ("delivered", "retried", "skipped", "fallbacks", "failed"), 0
    )
    for i, v in enumerate(vals[lo:hi], lo):
        outcome = (policy or FaultPolicy()).execute(
            fn, v, cancel, trace, STAGE, i, metrics
        )
        counters["retried"] += outcome.attempts - 1
        if outcome.error is not None:
            records.append((i, outcome.error, outcome.attempts, outcome.action))
        if outcome.action == "failed":
            counters["failed"] = 1
            return values, records, counters, True
        counters["delivered"] += outcome.action in ("delivered", "fallback")
        counters["skipped"] += outcome.action == "skipped"
        counters["fallbacks"] += outcome.action == "fallback"
        values.append(outcome.value)
    return values, records, counters, False


def observed(run, traced, metered):
    """What one chunk run returned and recorded, in comparable form."""
    trace = TraceCollector() if traced else None
    metrics = MetricsRegistry() if metered else None
    try:
        values, records, counters, failed = run(trace, metrics)
        result = {
            "values": values,
            "records": [
                (seq, type(error).__name__, attempts, action)
                for seq, error, attempts, action in records
            ],
            "counters": counters,
            "failed": failed,
        }
    except CancelledError as exc:
        result = {"raised": repr(exc)}
    if trace is not None:
        result["spans"] = [
            (s.kind, s.seq, s.detail.get("attempt"), s.detail.get("error"))
            for s in trace.spans()
        ]
    if metrics is not None:
        result["metrics"] = metrics.snapshot()["metrics"]
    return result


class TestChunkLoopMatchesExecute:
    @pytest.mark.parametrize("metered", [False, True], ids=["", "metrics"])
    @pytest.mark.parametrize("traced", [False, True], ids=["", "trace"])
    @pytest.mark.parametrize(
        "body", ["ok", "once", "always", "cancel", "token"]
    )
    @pytest.mark.parametrize("policy", list(CHUNK_POLICIES))
    def test_kernel_matches_per_element_execute(
        self, policy, body, traced, metered, monkeypatch
    ):
        policy = CHUNK_POLICIES[policy]
        slow = policy is not None and policy.item_timeout is not None
        vals = list(range(40))
        clock = None
        if slow:
            clock = PolicyClock()
            monkeypatch.setattr(faults, "time", clock)

        def kernel(trace, metrics):
            token = CancellationToken()
            values, records, counters, failed, aborted = _run_map_chunk(
                0, (CHUNK_LO, CHUNK_HI), chunk_body(body, clock, token), vals,
                policy, lambda: False, trace=trace, stage=STAGE,
                metrics=metrics, cancel=token,
            )
            assert not aborted
            return values, records, counters, failed

        def reference(trace, metrics):
            token = CancellationToken()
            return per_element_chunk(
                policy, chunk_body(body, clock, token), vals, CHUNK_LO,
                CHUNK_HI, trace, metrics, token,
            )

        got = observed(kernel, traced, metered)
        assert got == observed(reference, traced, metered)
        if body not in ("ok", "token") and "raised" not in got:
            assert [r[0] for r in got["records"]] in ([], [CHOSEN])
        if slow and "raised" not in got and not got["failed"]:
            # the slow element's first attempt overran the deadline and
            # was retried, besides any retry of the chosen element (a
            # chunk that failed there never reached the slow element)
            assert got["counters"]["retried"] == 1 + (body != "ok")
            if traced:
                assert ("timeout", SLOW) in {s[:2] for s in got["spans"]}


# ---------------------------------------------------------------------------
# the pipeline stage loop against per-element execute()
# ---------------------------------------------------------------------------

STAGE_CHOSEN, STAGE_SLOW, STAGE_INPUT = 3, 5, list(range(12))

#: the middle stage's policy (``None``: no policy configured)
STAGE_POLICIES = {
    name: policy for name, policy in CHUNK_POLICIES.items()
    if name != "default"
}


class ThreadClock(PolicyClock):
    """A :class:`PolicyClock` per thread: a body's sleep moves only its
    own thread's time, so a replica's deadline never sees a sibling's."""

    def __init__(self):
        self._local = threading.local()

    @property
    def now(self):
        return getattr(self._local, "now", 0.0)

    @now.setter
    def now(self, value):
        self._local.now = value


def stage_body(kind, clock):
    """The middle stage: ``ok``, or failing at ``STAGE_CHOSEN`` ``once``
    or ``always``, or raising its own ``CancelledError`` there.  With a
    ``clock``, element ``STAGE_SLOW``'s first attempt takes 0.1 s on
    it, overrunning the item timeout."""
    seen = set()

    def body(x):
        first = x not in seen
        seen.add(x)
        if clock is not None and x == STAGE_SLOW and first:
            clock.sleep(0.1)
        if x == STAGE_CHOSEN:
            if kind == "cancel":
                raise CancelledError(f"cancelled at {x}")
            if kind == "always" or (kind == "once" and first):
                raise ValueError(f"poison {x}")
        return x * 10

    return body


def stage_list(body, policy):
    """``(name, fn, policy)`` per stage: the body between two plain
    stages."""
    return [
        ("head", lambda x: x, None),
        ("mid", body, policy),
        ("tail", lambda x: x + 1, None),
    ]


def per_element_pipeline(stages, values, trace, metrics, queue_waits=True):
    """The reference: every element through each stage's
    :meth:`FaultPolicy.execute` in seq order, accounted per element as
    the per-element stage loop did, with a ``queue_wait`` span before
    each element of each stage when ``queue_waits``."""
    out, records = [], []
    counters = {
        name: dict.fromkeys(
            ("delivered", "retried", "skipped", "fallbacks", "failed"), 0
        )
        for name, _fn, _policy in stages
    }
    failed = False
    for seq, v in enumerate(values):
        for name, fn, policy in stages:
            if trace is not None and queue_waits:
                trace.record("queue_wait", name, seq, time.monotonic())
            outcome = (policy or FaultPolicy()).execute(
                fn, v, None, trace, name, seq, metrics
            )
            c = counters[name]
            c["retried"] += outcome.retried
            if metrics is not None:
                count_outcome(metrics, name, outcome.action, outcome.retried)
            if outcome.error is not None:
                records.append((
                    name, seq, type(outcome.error).__name__,
                    outcome.attempts,
                ))
            if outcome.action == "failed":
                c["failed"] += 1
                failed = True
                break
            if outcome.action == "skipped":
                c["skipped"] += 1
                break
            c["delivered"] += 1
            c["fallbacks"] += outcome.action == "fallback"
            v = outcome.value
        else:
            out.append(v)
        if failed:
            break
    return {
        "failed": failed, "out": out, "records": records,
        "counters": counters, "generated": len(values),
        "delivered": len(out),
    }


def stage_loop_run(stages, values, trace, metrics, road, replication,
                   ordered, capacity):
    """One pipeline run over ``stages``, in the reference's shape."""
    pipe = Pipeline(
        *(Item(fn, name=name, replicable=True) for name, fn, _ in stages),
        buffer_capacity=capacity, stall_timeout=5.0,
        sequential=road == "sequential", trace=trace, metrics=metrics,
    )
    for name, _fn, policy in stages:
        pipe.element(name).fault_policy = policy
    mid = pipe.element("mid")
    mid.replication = replication
    mid.order_preservation = ordered
    try:
        if road == "run":
            out = pipe.run(values)
        else:
            out = list(pipe.stream(v for v in values))
    except PipelineError as exc:
        assert not isinstance(exc, PipelineStallError)
        assert exc.stats == pipe.stats
        out, failed = [], True
        records = [
            (r.stage, r.seq, type(r.error).__name__, r.attempts)
            for r in exc.records
        ]
    else:
        # a run that returns reports its records without attempts; the
        # retried counters carry those
        failed = False
        records = [
            (stage, seq, error.split("(", 1)[0])
            for stage, seq, error in pipe.stats["errors"]
        ]
    stats = pipe.stats
    assert stats["stall"] is None and stats["leaked_threads"] == []
    return {
        "failed": failed, "out": out, "records": records,
        "counters": stats["counters"], "generated": stats["generated"],
        "delivered": stats["delivered"],
    }


def comparable(result, trace, metrics, ordered):
    """What a run and the reference must agree on.  After a failure
    only the failure itself is deterministic: sibling stages stop
    wherever the run's cancellation finds them."""
    if result["failed"]:
        (stage, seq, *_rest), = result["records"]
        view = {
            "failed": True,
            "records": result["records"],
            "failed_count": result["counters"][stage]["failed"],
        }
        keep = {(stage, seq)}
    else:
        view = {
            key: result[key]
            for key in ("records", "counters", "generated", "delivered")
        }
        view["records"] = [r[:3] for r in result["records"]]
        view["out"] = result["out"] if ordered else sorted(result["out"])
        keep = None
    if trace is not None:
        kinds = {}
        for span in trace.spans():
            if span.seq >= 0 and (keep is None or (span.stage, span.seq) in keep):
                kinds.setdefault((span.stage, span.seq), []).append(span.kind)
        view["spans"] = {key: sorted(k) for key, k in kinds.items()}
    if metrics is not None and not result["failed"]:
        view["counters_metric"] = {
            (family["name"], tuple(sorted(series["labels"].items()))):
                series["value"]
            for family in metrics.snapshot()["metrics"]
            if family["kind"] == "counter"
            for series in family["series"]
        }
    return view


class TestPipelineStageLoop:
    """The per-batch stage loop (inline first attempt, per-forward
    counts, replica slots) and the sequential loop keep the per-element
    contract of :meth:`FaultPolicy.execute`."""

    @pytest.mark.parametrize("road", ["run", "stream"])
    @pytest.mark.parametrize("capacity", [1, 8])
    @pytest.mark.parametrize(
        "replication,ordered", [(1, True), (2, True), (2, False)],
        ids=["x1", "x2-ordered", "x2-unordered"],
    )
    @pytest.mark.parametrize("observer", ["off", "trace", "metrics"])
    @pytest.mark.parametrize("body", ["ok", "once", "always", "cancel"])
    @pytest.mark.parametrize("policy", list(STAGE_POLICIES))
    def test_threaded_roads_match_per_element_execute(
        self, policy, body, observer, replication, ordered, capacity, road,
        monkeypatch,
    ):
        self.check(
            policy, body, observer, replication, ordered, capacity, road,
            monkeypatch,
        )

    @pytest.mark.parametrize("observer", ["off", "trace", "metrics"])
    @pytest.mark.parametrize("body", ["ok", "once", "always", "cancel"])
    @pytest.mark.parametrize("policy", list(STAGE_POLICIES))
    def test_sequential_road_matches_per_element_execute(
        self, policy, body, observer, monkeypatch
    ):
        self.check(policy, body, observer, 1, True, 8, "sequential",
                   monkeypatch)

    @staticmethod
    def check(policy, body, observer, replication, ordered, capacity, road,
              monkeypatch):
        policy = STAGE_POLICIES[policy]
        clock = None
        if policy is not None and policy.item_timeout is not None:
            clock = ThreadClock()
            monkeypatch.setattr(faults, "time", clock)
            monkeypatch.setattr(pipeline_module, "time", clock)

        def observers():
            return (
                TraceCollector() if observer == "trace" else None,
                MetricsRegistry() if observer == "metrics" else None,
            )

        trace, metrics = observers()
        got = comparable(
            stage_loop_run(
                stage_list(stage_body(body, clock), policy), STAGE_INPUT,
                trace, metrics, road, replication, ordered, capacity,
            ),
            trace, metrics, ordered,
        )
        trace, metrics = observers()
        want = comparable(
            per_element_pipeline(
                stage_list(stage_body(body, clock), policy), STAGE_INPUT,
                trace, metrics, queue_waits=road != "sequential",
            ),
            trace, metrics, ordered,
        )
        assert got == want

    def test_run_starts_only_the_stage_threads_and_the_watchdog(
        self, monkeypatch
    ):
        started = []
        start = threading.Thread.start

        def counted(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        pipe = Pipeline(
            Item(lambda x: x + 1, name="parse"),
            Item(lambda x: x * 2, name="compute", replicable=True),
            Item(lambda x: x - 1, name="emit"),
        )
        pipe.configure({"StageReplication@compute": 2})
        assert pipe.run(range(50)) == [(x + 1) * 2 - 1 for x in range(50)]
        assert sorted(started) == [
            "pipeline-compute-0", "pipeline-compute-1", "pipeline-emit-0",
            "pipeline-parse-0", "pipeline-watchdog",
        ]
        # a lazy input keeps its generator thread
        started.clear()
        assert list(pipe.stream(iter(range(5)))) == [
            (x + 1) * 2 - 1 for x in range(5)
        ]
        assert "pipeline-gen" in started and len(started) == 6

    def test_replicas_share_the_source_and_sink_under_a_short_switch(self):
        # four replicas each of the first and the last stage on two
        # cores, with the interpreter switching threads every
        # microsecond: a lost update in the list source, the sink or a
        # per-forward count would drop, repeat or miscount an element
        values = list(range(3000))
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for ordered in (True, False):
                pipe = Pipeline(
                    Item(lambda x: x * 2, name="A", replicable=True),
                    Item(lambda x: x + 1, name="B", replicable=True),
                    buffer_capacity=3, stall_timeout=10.0,
                )
                pipe.configure({
                    "StageReplication@A": 4, "StageReplication@B": 4,
                    "OrderPreservation@A": ordered,
                    "OrderPreservation@B": ordered,
                })
                out = pipe.run(values)
                want = [x * 2 + 1 for x in values]
                assert (out if ordered else sorted(out)) == want
                stats = pipe.stats
                assert stats["generated"] == stats["delivered"] == 3000
                assert [c["delivered"] for c in stats["counters"].values()] \
                    == [3000, 3000]
                assert stats["leaked_threads"] == []
        finally:
            sys.setswitchinterval(switch)

    def test_wedged_stage_under_run_raises_stall_and_reports_its_thread(self):
        wedge = threading.Event()  # set only to release the leaked thread
        stall_timeout = 0.5
        pipe = Pipeline(
            Item(lambda x: x + 1, name="A"),
            Item(lambda x: wedge.wait(60) or x, name="W"),
            Item(lambda x: x, name="C"),
            stall_timeout=stall_timeout,
        )
        started = time.monotonic()
        try:
            with pytest.raises(PipelineStallError, match="'W'") as ei:
                pipe.run(range(40))
            assert time.monotonic() - started < stall_timeout + 1.0
            assert ei.value.stage == "W"
            assert pipe.stats["leaked_threads"] == ["pipeline-W-0"]
            # W holds element 0; A's input is the source's remainder
            assert ei.value.occupancy[0] > 0
        finally:
            wedge.set()


# ---------------------------------------------------------------------------
# CancellationToken
# ---------------------------------------------------------------------------

class TestCancellationToken:
    def test_first_cancel_wins(self):
        token = CancellationToken()
        assert not token.cancelled
        assert token.cancel("first") is True
        assert token.cancel("second") is False
        assert token.reason == "first"
        with pytest.raises(CancelledError, match="first"):
            token.raise_if_cancelled()

    def test_wait_returns_early_when_cancelled(self):
        token = CancellationToken()
        threading.Timer(0.02, token.cancel).start()
        started = time.monotonic()
        assert token.wait(5.0) is True
        assert time.monotonic() - started < 1.0

    def test_wakes_blocked_buffer_get(self):
        buf = BoundedBuffer(capacity=2)
        token = CancellationToken()
        caught = []

        def consumer():
            try:
                buf.get(cancel=token)
            except CancelledError as exc:
                caught.append(exc)

        t = threading.Thread(target=consumer, daemon=True)
        t.start()
        time.sleep(0.05)  # let it block on the empty buffer
        token.cancel("shutdown")
        t.join(timeout=2.0)
        assert not t.is_alive(), "cancel did not wake the blocked get"
        assert caught and "shutdown" in str(caught[0])

    def test_wakes_blocked_buffer_put(self):
        buf = BoundedBuffer(capacity=1)
        buf.put("full")
        token = CancellationToken()
        caught = []

        def producer():
            try:
                buf.put("blocked", cancel=token)
            except CancelledError as exc:
                caught.append(exc)

        t = threading.Thread(target=producer, daemon=True)
        t.start()
        time.sleep(0.05)
        token.cancel()
        t.join(timeout=2.0)
        assert not t.is_alive() and caught


# ---------------------------------------------------------------------------
# BoundedBuffer
# ---------------------------------------------------------------------------

class TestBoundedBuffer:
    def test_get_timeout(self):
        buf = BoundedBuffer(capacity=2)
        started = time.monotonic()
        with pytest.raises(BufferTimeout, match="get"):
            buf.get(timeout=0.05)
        assert time.monotonic() - started < 2.0

    def test_put_timeout_reports_occupancy(self):
        buf = BoundedBuffer(capacity=1)
        buf.put("x")
        with pytest.raises(BufferTimeout, match="1/1"):
            buf.put("y", timeout=0.05)

    def test_timeout_not_triggered_when_ready(self):
        buf = BoundedBuffer(capacity=1)
        buf.put(1)
        assert buf.get(timeout=0.01) == 1

    def test_max_occupancy_high_water_mark(self):
        buf = BoundedBuffer(capacity=4)
        for i in range(3):
            buf.put(i)
        buf.get()
        buf.put(99)
        assert buf.max_occupancy == 3
        assert len(buf) == 3

    def test_transfers_counts_puts_and_gets(self):
        buf = BoundedBuffer(capacity=4)
        buf.put(1)
        buf.put(2)
        buf.get()
        assert buf.transfers == 3

    def test_cancel_wakes_blocked_get_batch(self):
        buf = BoundedBuffer(capacity=2)
        token = CancellationToken()
        caught = []

        def consumer():
            try:
                buf.get_batch(cancel=token)
            except CancelledError as exc:
                caught.append(exc)

        t = threading.Thread(target=consumer, daemon=True)
        t.start()
        time.sleep(0.05)  # let it block on the empty buffer
        token.cancel("shutdown")
        t.join(timeout=2.0)
        assert not t.is_alive(), "cancel did not wake the blocked get_batch"
        assert caught and "shutdown" in str(caught[0])

    def test_cancel_wakes_blocked_put_batch(self):
        buf = BoundedBuffer(capacity=2)
        token = CancellationToken()
        caught = []

        def producer():
            try:
                buf.put_batch([1, 2, 3], cancel=token)
            except CancelledError as exc:
                caught.append(exc)

        t = threading.Thread(target=producer, daemon=True)
        t.start()
        time.sleep(0.05)  # two fit; it blocks on the third
        token.cancel("shutdown")
        t.join(timeout=2.0)
        assert not t.is_alive(), "cancel did not wake the blocked put_batch"
        assert caught and "shutdown" in str(caught[0])
        assert buf.get_batch() == [1, 2]

    def test_contention_conserves_items(self):
        buf = BoundedBuffer(capacity=3)
        n_producers, per_producer = 4, 50
        received = []
        recv_lock = threading.Lock()

        def producer(base):
            for i in range(per_producer):
                buf.put(base + i)

        def consumer():
            while True:
                item = buf.get()
                if item is None:
                    return
                with recv_lock:
                    received.append(item)

        consumers = [
            threading.Thread(target=consumer, daemon=True) for _ in range(3)
        ]
        producers = [
            threading.Thread(
                target=producer, args=(k * per_producer,), daemon=True
            )
            for k in range(n_producers)
        ]
        for t in consumers + producers:
            t.start()
        for t in producers:
            t.join(timeout=10.0)
        for _ in consumers:
            buf.put(None)
        for t in consumers:
            t.join(timeout=10.0)
        assert sorted(received) == list(range(n_producers * per_producer))
        assert buf.max_occupancy <= 3  # the bound held under contention


# ---------------------------------------------------------------------------
# stall watchdog
# ---------------------------------------------------------------------------

class TestStallWatchdog:
    def test_wedged_stage_raises_stall_error_naming_stage(self):
        wedge = threading.Event()  # never set: stage W blocks forever
        stall_timeout = 1.0
        pipe = Pipeline(
            Item(lambda x: x + 1, name="A", replicable=True),
            Item(lambda x: wedge.wait(60) or x, name="W"),
            Item(lambda x: x * 2, name="C", replicable=True),
            stall_timeout=stall_timeout,
        )
        started = time.monotonic()
        with pytest.raises(PipelineStallError, match="'W'") as ei:
            pipe.run(range(50))
        elapsed = time.monotonic() - started
        assert elapsed < 2 * stall_timeout, (
            f"stall detection took {elapsed:.2f}s, "
            f"budget {2 * stall_timeout:.2f}s"
        )
        assert ei.value.stage == "W"
        assert len(ei.value.occupancy) == len(pipe.elements) + 1
        assert any(ei.value.occupancy), "a buffer upstream of W should be full"
        assert pipe.stats["stall"]["stage"] == "W"
        wedge.set()  # release the leaked worker

    def test_no_stall_error_on_healthy_run(self):
        pipe = Pipeline(
            Item(lambda x: x + 1, name="A", replicable=True),
            Item(lambda x: x * 2, name="B", replicable=True),
            stall_timeout=0.5,
        )
        # slower than the poll interval but always progressing
        assert pipe.run(range(5)) == [(x + 1) * 2 for x in range(5)]
        assert pipe.stats["stall"] is None

    def test_slow_batch_is_not_a_stall(self):
        # a stage working through a batch of slow elements crosses no
        # buffer until it forwards the batch; each element it finishes
        # still counts as progress
        def slow(x):
            time.sleep(0.1)
            return x

        pipe = Pipeline(Item(slow, name="A"), stall_timeout=0.4)
        assert pipe.run(range(8)) == list(range(8))
        assert pipe.stats["stall"] is None

    def test_stall_timeout_zero_disables_watchdog(self):
        pipe = Pipeline(
            Item(lambda x: x, name="A"),
            stall_timeout=1.0,
        )
        pipe.configure({"StallTimeout@pipeline": 0.0})
        assert pipe.stall_timeout is None
        assert pipe.run(range(3)) == [0, 1, 2]


# ---------------------------------------------------------------------------
# error aggregation
# ---------------------------------------------------------------------------

def _cancelled_at_three(x):
    if x == 3:
        raise CancelledError("body cancelled")
    return x


def _input_fails_at_three(error):
    for i in range(8):
        if i == 3:
            raise error("input failed")
        yield i


class TestPipelineBodyCancelledError:
    """A stage body's or an input's own ``CancelledError`` is that
    element's failure, as a ``ValueError`` is: the run fails at once with
    its record instead of waiting for the stall watchdog."""

    @pytest.mark.parametrize("sequential", [False, True])
    def test_stage_body_fails_at_once_with_the_record(self, sequential):
        pipe = Pipeline(
            Item(lambda x: x, name="parse"),
            Item(_cancelled_at_three, name="bad"),
            Item(lambda x: x, name="emit"),
            stall_timeout=5.0,
            sequential=sequential,
        )
        started = time.monotonic()
        with pytest.raises(PipelineError) as ei:
            pipe.run(range(8))
        assert time.monotonic() - started < 1.0
        assert not isinstance(ei.value, PipelineStallError)
        assert [
            (r.stage, r.seq, type(r.error)) for r in ei.value.records
        ] == [("bad", 3, CancelledError)]

    @pytest.mark.parametrize("error", [CancelledError, ValueError])
    @pytest.mark.parametrize("sequential", [False, True])
    def test_input_fails_at_once_with_the_record(self, sequential, error):
        # the threaded road's stream generator and the sequential loop
        # record the input's error alike, a CancelledError as well
        pipe = Pipeline(
            Item(lambda x: x, name="parse"), Item(lambda x: x, name="emit"),
            stall_timeout=5.0,
            sequential=sequential,
        )
        started = time.monotonic()
        with pytest.raises(PipelineError) as ei:
            list(pipe.stream(_input_fails_at_three(error)))
        assert time.monotonic() - started < 1.0
        assert not isinstance(ei.value, PipelineStallError)
        assert [
            (r.stage, r.seq, type(r.error)) for r in ei.value.records
        ] == [("<stream-generator>", 3, error)]
        assert pipe.stats["generated"] == 3

    @pytest.mark.parametrize("sequential", [False, True])
    def test_run_lets_an_input_error_escape_bare(self, sequential):
        # run() reads its whole input before either road starts
        pipe = Pipeline(Item(lambda x: x, name="A"), sequential=sequential)
        with pytest.raises(ValueError, match="input failed"):
            pipe.run(_input_fails_at_three(ValueError))

    def test_group_cancelled_by_the_run_leaves_no_record(self):
        # the input's failure fires the run's token while a master/worker
        # group is mid-element: the group unwinds without a record
        started = threading.Event()
        saw_cancel = []

        def slow(x):
            started.set()
            deadline = time.monotonic() + 5.0
            while not group.cancel.cancelled and time.monotonic() < deadline:
                time.sleep(0.005)
            saw_cancel.append(group.cancel.cancelled)
            return x

        def source():
            yield 0
            started.wait(5.0)
            raise ValueError("input died")

        group = MasterWorker(
            Item(slow, name="slow"), Item(lambda x: x, name="fast"),
            workers=2, name="group",
        )
        pipe = Pipeline(group, Item(lambda x: x, name="emit"),
                        stall_timeout=5.0)
        with pytest.raises(PipelineError) as ei:
            list(pipe.stream(source()))
        assert [
            (r.stage, r.seq, type(r.error)) for r in ei.value.records
        ] == [("<stream-generator>", 1, ValueError)]
        assert saw_cancel == [True]


class TestErrorAggregation:
    def test_skip_records_every_poison_element(self):
        def fussy(x):
            if x % 3 == 0:
                raise ValueError(f"bad {x}")
            return x

        pipe = Pipeline(
            Item(fussy, name="A", replicable=True),
            Item(lambda x: x * 10, name="B", replicable=True),
        )
        pipe.configure({"OnError@A": "skip"})
        out = pipe.run(range(12))
        assert sorted(out) == [x * 10 for x in range(12) if x % 3]
        s = pipe.stats
        assert s["skipped"] == 4 and s["delivered"] == 8
        assert s["generated"] == 12
        # every poison element left a record, not just the first
        assert len(s["errors"]) == 4
        assert {seq for _, seq, _ in s["errors"]} == {0, 3, 6, 9}
        assert all(stage == "A" for stage, _, _ in s["errors"])

    def test_fail_fast_error_carries_report(self):
        pipe = Pipeline(
            Item(lambda x: 1 // (x - 2), name="A", replicable=True),
            Item(lambda x: x, name="B", replicable=True),
        )
        with pytest.raises(PipelineError, match="'A'") as ei:
            pipe.run(range(10))
        assert ei.value.records
        rec = ei.value.records[0]
        assert rec.stage == "A" and isinstance(rec.error, ZeroDivisionError)
        assert ei.value.stats["counters"]["A"]["failed"] >= 1

    def test_retries_surface_in_stats(self):
        fn = flaky(2)
        pipe = Pipeline(Item(fn, name="A"))
        pipe.configure({"Retries@A": 3})
        pipe.element("A").fault_policy.backoff = 0.0
        assert pipe.run([5]) == [50]
        assert pipe.stats["retried"] == 2
        assert pipe.stats["counters"]["A"]["retried"] == 2

    def test_fault_report_rendering(self):
        from repro.report import fault_report

        def fussy(x):
            if x == 1:
                raise ValueError("bad one")
            return x

        pipe = Pipeline(Item(fussy, name="A", replicable=True))
        pipe.configure({"OnError@A": "skip"})
        pipe.run(range(4))
        text = fault_report(pipe.stats)
        assert "4 in" in text and "3 delivered" in text
        assert "1 skipped" in text
        assert "A[1]" in text and "bad one" in text

    def test_sequential_path_same_contract(self):
        def fussy(x):
            if x % 2:
                raise ValueError(f"bad {x}")
            return x

        pipe = Pipeline(Item(fussy, name="A"), sequential=True)
        pipe.configure({"OnError@A": "skip"})
        assert pipe.run(range(6)) == [0, 2, 4]
        assert pipe.stats["skipped"] == 3
        assert len(pipe.stats["errors"]) == 3


# ---------------------------------------------------------------------------
# chaos injection
# ---------------------------------------------------------------------------

class TestChaos:
    def test_injection_is_deterministic_per_seed(self):
        def counts(seed):
            inj = ChaosInjector(seed=seed, fail_rate=0.3)
            fn = inj.wrap(lambda x: x, name="stage")
            outcomes = []
            for i in range(200):
                try:
                    fn(i)
                    outcomes.append(True)
                except ChaosError:
                    outcomes.append(False)
            return outcomes

        assert counts(11) == counts(11)
        assert counts(11) != counts(12)

    def test_fail_first_k(self):
        inj = ChaosInjector(seed=0, fail_first=3)
        fn = inj.wrap(lambda x: x, name="s")
        for _ in range(3):
            with pytest.raises(ChaosError):
                fn(1)
        assert fn(1) == 1
        assert inj.stats()["injected_failures"] == 3

    def test_delay_injection_counts(self):
        inj = ChaosInjector(seed=1, delay_rate=1.0, delay=0.0)
        fn = inj.wrap(lambda x: x, name="s")
        for i in range(5):
            assert fn(i) == i
        stats = inj.stats()
        assert stats["injected_delays"] == 5
        assert stats["injected_failures"] == 0

    def test_conservation_under_chaos(self):
        """The acceptance scenario: 1000 elements, ~5% injected failures,
        retries + skip — every element is delivered, retried into
        delivery, or accounted as skipped.  Nothing vanishes."""
        pipe = Pipeline(
            Item(lambda x: x + 1, name="A", replicable=True),
            Item(lambda x: x * 2, name="B", replicable=True),
        )
        pipe.configure({
            "Retries@A": 2, "OnError@A": "skip",
            "Retries@B": 2, "OnError@B": "skip",
        })
        for name in ("A", "B"):
            pipe.element(name).fault_policy.backoff = 0.0
        inj = ChaosInjector(seed=42, fail_rate=0.05)
        pipe.inject(inj)
        out = pipe.run(range(1000))
        s = pipe.stats
        assert s["generated"] == 1000
        assert len(out) + s["skipped"] == 1000, "conservation violated"
        assert s["delivered"] == len(out)
        assert inj.stats()["injected_failures"] > 0, "chaos never fired"
        # every injected failure is explained by a retry or a skipped
        # element (each skip absorbs up to 1 + retries failures)
        assert s["retried"] + s["skipped"] * 3 >= inj.stats()["injected_failures"]
        assert inj.stats()["calls"] >= 2000  # both stages saw every element

    def test_chaos_with_fail_fast_surfaces_as_pipeline_error(self):
        pipe = Pipeline(Item(lambda x: x, name="A", replicable=True))
        pipe.inject(ChaosInjector(seed=0, fail_first=1))
        with pytest.raises(PipelineError) as ei:
            pipe.run(range(10))
        assert any(
            isinstance(r.error, ChaosError) for r in ei.value.records
        )

    def test_wrap_item_descends_masterworker(self):
        mw = MasterWorker(
            Item(lambda x: x + 1, name="a"),
            Item(lambda x: x * 2, name="b"),
        )
        inj = ChaosInjector(seed=0, fail_first=0)
        inj.wrap_item(mw)
        assert mw.apply(3) == (4, 6)
        assert inj.stats()["calls"] == 2


# ---------------------------------------------------------------------------
# parallel_for / parallel_reduce supervision (satellites)
# ---------------------------------------------------------------------------

class TestParallelForSupervision:
    @pytest.mark.parametrize("schedule", ["dynamic", "static"])
    def test_workers_stop_claiming_after_error(self, schedule):
        n = 400
        calls = [0]
        lock = threading.Lock()

        def body(v):
            with lock:
                calls[0] += 1
            if v == 0:
                raise ValueError("poison")
            time.sleep(0.002)
            return v

        with pytest.raises(ValueError, match="poison"):
            parallel_for(
                range(n), body, workers=4, chunk_size=1, schedule=schedule
            )
        assert calls[0] < n, (
            f"{schedule}: pool ran all {n} iterations after the error"
        )

    def test_external_cancellation(self):
        token = CancellationToken()
        token.cancel("caller gave up")
        with pytest.raises(CancelledError, match="caller gave up"):
            parallel_for(range(100), lambda v: v, workers=2, cancel=token)

    def test_policy_fallback_keeps_length_and_order(self):
        def body(v):
            if v % 10 == 0:
                raise ValueError("bad")
            return v * 2

        policy = FaultPolicy(on_error="fallback", fallback=-1, backoff=0.0)
        out = parallel_for(
            range(40), body, workers=4, chunk_size=3, policy=policy
        )
        assert len(out) == 40
        assert all(
            out[i] == (-1 if i % 10 == 0 else i * 2) for i in range(40)
        )

    def test_configured_parallel_for_honours_fault_keys(self):
        def body(v):
            if v == 7:
                raise ValueError("bad")
            return v

        out = configured_parallel_for(
            range(10),
            body,
            {"OnError@loop": "skip", "NumWorkers@loop": 3},
        )
        # skip degrades to fallback in a map context: slot kept, value None
        assert len(out) == 10 and out[7] is None
        assert [v for v in out if v is not None] == [
            v for v in range(10) if v != 7
        ]


class TestParallelReduceInit:
    def test_non_neutral_init_counted_once(self):
        """Regression: init used to seed every chunk's fold, so a non-
        neutral init was counted once per chunk."""
        got = parallel_reduce(
            range(10),
            body=lambda v: v,
            op=lambda a, b: a + b,
            init=10,
            workers=3,
            chunk_size=2,  # 5 chunks: the old bug would yield 95
        )
        assert got == 10 + sum(range(10)) == 55

    def test_matches_sequential_for_any_chunking(self):
        vals = list(range(23))
        expected = 100 + sum(v * v for v in vals)
        for chunk_size in (1, 2, 5, 7, 100):
            got = parallel_reduce(
                vals,
                body=lambda v: v * v,
                op=lambda a, b: a + b,
                init=100,
                workers=4,
                chunk_size=chunk_size,
            )
            assert got == expected, f"chunk_size={chunk_size}"

    def test_associative_non_commutative_op(self):
        vals = list("abcdefghij")
        got = parallel_reduce(
            vals,
            body=lambda v: v,
            op=lambda a, b: a + b,
            init="",
            workers=4,
            chunk_size=3,
        )
        assert got == "abcdefghij"

    def test_error_stops_pool(self):
        calls = [0]
        lock = threading.Lock()

        def body(v):
            with lock:
                calls[0] += 1
            if v == 0:
                raise ValueError("poison")
            time.sleep(0.002)
            return v

        with pytest.raises(ValueError):
            parallel_reduce(
                range(200),
                body,
                op=lambda a, b: a + b,
                init=0,
                workers=4,
                chunk_size=1,
            )
        assert calls[0] < 200


# ---------------------------------------------------------------------------
# MasterWorker supervision
# ---------------------------------------------------------------------------

class TestMasterWorkerSupervision:
    def test_prefired_token_cancels_run(self):
        token = CancellationToken()
        token.cancel("abort")
        mw = MasterWorker(workers=2)
        with pytest.raises(CancelledError, match="abort"):
            mw.run([lambda: 1, lambda: 2], cancel=token)

    def test_sibling_error_stops_claiming(self):
        calls = [0]
        lock = threading.Lock()

        def make(k):
            def task():
                with lock:
                    calls[0] += 1
                if k == 0:
                    raise ValueError("first task fails")
                time.sleep(0.002)
                return k

            return task

        mw = MasterWorker(workers=4)
        with pytest.raises(ValueError):
            mw.run([make(k) for k in range(200)])
        assert calls[0] < 200


class TestPipelineGroupToken:
    @pytest.mark.parametrize("previous", [None, "outer"])
    def test_a_failed_run_gives_the_group_its_token_back(self, previous):
        # the run's token reaches a master/worker stage only for the run;
        # a fired one left behind would cancel the group's later runs
        def fails(x):
            if x == 3:
                raise ValueError("bad 3")
            return x

        outer = CancellationToken() if previous else None
        group = MasterWorker(
            Item(lambda x: x + 1, name="inc"), Item(lambda x: x * 2, name="dbl"),
            workers=2, merge=lambda v, results: v, name="group",
        )
        group.cancel = outer
        pipe = Pipeline(group, Item(fails, name="f"), stall_timeout=5.0)
        with pytest.raises(PipelineError, match="'f'"):
            pipe.run(range(8))
        assert group.cancel is outer
        assert group.run([lambda: 1, lambda: 2]) == [1, 2]
        again = Pipeline(group, Item(lambda x: x, name="emit"), sequential=True)
        assert again.run([1, 2]) == [1, 2]


# ---------------------------------------------------------------------------
# stream abandon / drain
# ---------------------------------------------------------------------------

class TestStreamAbandon:
    def test_consumer_break_unwinds_workers(self):
        produced = [0]

        def gen():
            for i in range(10_000):
                produced[0] += 1
                yield i

        pipe = Pipeline(
            Item(lambda x: x + 1, name="A", replicable=True),
            Item(lambda x: x * 2, name="B", replicable=True),
            buffer_capacity=4,
        )
        got = []
        for v in pipe.stream(gen()):
            got.append(v)
            if len(got) == 5:
                break
        assert got == [(x + 1) * 2 for x in range(5)]
        # backpressure: abandoning after 5 must not have drained the
        # 10k-element source
        assert produced[0] < 1000
        assert pipe.stats.get("cancelled"), "abandon should cancel the run"

    def test_abandon_leaves_no_stuck_threads(self):
        pipe = Pipeline(
            Item(lambda x: x, name="A", replicable=True),
            buffer_capacity=2,
        )
        it = pipe.stream(iter(range(10_000)))
        next(it)
        it.close()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            alive = [
                t
                for t in threading.enumerate()
                if t.name.startswith("pipeline")
            ]
            if not alive:
                break
            time.sleep(0.02)
        assert not alive, f"pipeline threads leaked: {alive}"


# ---------------------------------------------------------------------------
# tuning-file round trip of the fault knobs
# ---------------------------------------------------------------------------

class TestFaultTuningRoundTrip:
    def _video_match(self):
        from repro.frontend import parse_function
        from repro.model import build_semantic_model
        from repro.patterns import default_catalog

        from tests.conftest import VIDEO_SRC

        ir = parse_function(VIDEO_SRC)
        model = build_semantic_model(ir)
        matches = default_catalog(prefer="pipeline").detect(model)
        assert matches
        return ir, matches[0]

    def test_match_exposes_fault_parameters(self):
        _, match = self._video_match()
        keys = {p.key for p in match.tuning}
        stage_names = {
            p.target for p in match.tuning if p.name == "StageReplication"
        }
        assert stage_names  # sanity: the pipeline has named stages
        for stage in stage_names:
            assert f"Retries@{stage}" in keys
            assert f"ItemTimeout@{stage}" in keys
            assert f"OnError@{stage}" in keys
        assert "StallTimeout@pipeline" in keys

    def test_fault_keys_roundtrip_and_configure(self, tmp_path):
        from repro.transform import read_tuning_file, write_tuning_file
        from repro.transform.tuningfile import config_for_location

        _, match = self._video_match()
        path = write_tuning_file([match], tmp_path / "t.json")

        # the file round-trips the fault knobs with domains intact
        _, _, params = read_tuning_file(path)[0]
        by_key = {p.key: p for p in params}
        retries_keys = [k for k in by_key if k.startswith("Retries@")]
        assert retries_keys
        assert by_key[retries_keys[0]].domain() == [0, 1, 2, 3]
        onerror_keys = [k for k in by_key if k.startswith("OnError@")]
        assert set(by_key[onerror_keys[0]].domain()) == {
            "fail_fast", "skip", "fallback",
        }

        # an engineer edits the file (no recompilation)...
        cfg = config_for_location(path, str(match.location))
        stage = retries_keys[0].split("@", 1)[1]
        cfg[f"Retries@{stage}"] = 2
        cfg[f"OnError@{stage}"] = "skip"
        cfg["StallTimeout@pipeline"] = 5.0

        # ...and a hand-built pipeline with the same stage names honours it
        stage_names = [
            p.target for p in match.tuning if p.name == "Retries"
        ]
        pipe = Pipeline(
            *[
                Item(lambda x: x, name=n, replicable=True)
                for n in stage_names
            ]
        )
        pipe.configure(cfg)
        policy = pipe.element(stage).fault_policy
        assert policy.retries == 2 and policy.on_error == "skip"
        assert pipe.stall_timeout == 5.0

    def test_generated_code_accepts_tuning_and_chaos(self, video_env):
        from repro.transform import compile_parallel, generate_parallel_source

        from tests.conftest import VIDEO_SRC, video_expected

        ir, match = self._video_match()
        src = generate_parallel_source(ir, match)
        assert "__chaos__" in src and "inject" in src

        fn = compile_parallel(ir, match, video_env)
        stream = list(range(8))
        args = (stream,) + tuple(video_env.values())
        tuning = {"Retries@A": 1, "OnError@A": "fail_fast"}
        assert fn(*args, __tuning__=tuning) == video_expected(
            stream, video_env
        )
        # a zero-rate injector changes nothing but proves the plumbing
        inj = ChaosInjector(seed=3)
        assert fn(*args, __chaos__=inj) == video_expected(stream, video_env)
        assert inj.stats()["calls"] > 0

    def test_pipeline_match_gains_fault_dimensions(self):
        from repro.tuning.space import ParameterSpace

        _, match = self._video_match()
        stages = match.extras["partition"].names
        assert len(stages) >= 2
        cfg = ParameterSpace(match.tuning).default_config()
        fault = {
            key: value for key, value in cfg.items()
            if key.split("@")[0]
            in ("Retries", "ItemTimeout", "OnError", "StallTimeout")
        }
        assert fault == {
            **{f"Retries@{s}": 0 for s in stages},
            **{f"ItemTimeout@{s}": 0.0 for s in stages},
            **{f"OnError@{s}": "fail_fast" for s in stages},
            "StallTimeout@pipeline": 30.0,
        }


# ---------------------------------------------------------------------------
# verify-layer chaos
# ---------------------------------------------------------------------------

class TestChaosVerify:
    def test_with_chaos_wraps_generated_tasks(self):
        from repro.verify import (
            ParallelUnitTest,
            run_parallel_test,
            with_chaos,
        )

        def make_tasks():
            def t1(h):
                h.write("x", h.read("x") + 1)

            def t2(h):
                h.write("x", h.read("x") + 2)

            return [t1, t2]

        base = ParallelUnitTest(
            name="inc",
            make_tasks=make_tasks,
            initial_state={"x": 0},
            max_schedules=50,
        )
        inj = ChaosInjector(seed=5, fail_first=1)
        chaos_test = with_chaos(base, inj)
        assert chaos_test.name == "inc[chaos]"
        res = run_parallel_test(chaos_test)
        assert inj.stats()["injected_failures"] > 0
        # the supervision contract: injected faults surface as task errors
        assert res.task_errors > 0
