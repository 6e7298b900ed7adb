"""Transformation: code generation, tuning files, test generation,
path coverage."""

import json
import textwrap

import pytest

from repro.frontend import parse_function
from repro.model import build_semantic_model
from repro.patterns import default_catalog
from repro.transform import (
    CodegenError,
    compile_parallel,
    generate_annotated_source,
    generate_parallel_source,
    generate_unit_tests,
    read_tuning_file,
    write_tuning_file,
)
from repro.transform.codegen import parallel_name
from repro.transform.pathcov import (
    branch_coverage,
    enumerate_paths,
    generate_inputs,
)
from repro.transform.tuningfile import config_for_location
from repro.verify import run_parallel_test

from tests.conftest import VIDEO_SRC, video_expected


def detect_one(src: str, prefer: str = "doall", runner_args=None, env=None):
    ir = parse_function(src)
    fn = None
    if runner_args is not None:
        ns = dict(env or {})
        exec(textwrap.dedent(src), ns)
        fn = ns[ir.name]
    model = build_semantic_model(ir, fn=fn, args=runner_args or ())
    matches = default_catalog(prefer=prefer).detect(model)
    assert matches, "expected a match"
    return ir, model, matches[0]


class TestPipelineCodegen:
    def _compiled(self, env):
        ir, _, match = detect_one(VIDEO_SRC, prefer="pipeline")
        return ir, match, compile_parallel(ir, match, env)

    def test_semantics_default(self, video_env):
        _, _, fn = self._compiled(video_env)
        stream = list(range(10))
        args = (stream,) + tuple(video_env.values())
        assert fn(*args) == video_expected(stream, video_env)

    @pytest.mark.parametrize(
        "tuning",
        [
            {"StageReplication@C": 3},
            {"StageFusion@D/E": True},
            {"SequentialExecution@pipeline": True},
            {"BufferCapacity@pipeline": 1},
            {"StageReplication@A": 2, "StageReplication@C": 2},
        ],
        ids=["replicate", "fuse", "sequential", "tiny-buffer", "multi"],
    )
    def test_semantics_under_tuning(self, video_env, tuning):
        _, _, fn = self._compiled(video_env)
        stream = list(range(12))
        args = (stream,) + tuple(video_env.values())
        assert fn(*args, __tuning__=tuning) == video_expected(
            stream, video_env
        )

    def test_carried_state_stage(self):
        src = (
            "def scan(xs, f, g):\n"
            "    out = []\n"
            "    seen = 0\n"
            "    for x in xs:\n"
            "        seen = f(seen, x)\n"
            "        out.append(g(seen))\n"
            "    return out\n"
        )
        ir, _, match = detect_one(src)
        assert match.pattern == "pipeline"
        fn = compile_parallel(ir, match)
        f = lambda s, x: s + x
        g = lambda s: s * 10
        expect, seen = [], 0
        for x in [3, 1, 4, 1, 5]:
            seen = f(seen, x)
            expect.append(g(seen))
        assert fn([3, 1, 4, 1, 5], f, g) == expect

    def test_generated_source_is_valid_python(self, video_env):
        ir, _, match = detect_one(VIDEO_SRC, prefer="pipeline")
        src = generate_parallel_source(ir, match)
        compile(src, "<gen>", "exec")
        assert parallel_name(ir) in src

    def test_while_loop_rejected(self):
        src = (
            "def f(q, out):\n"
            "    while q:\n"
            "        x = q.pop()\n"
            "        y = g(x)\n"
            "        out.append(y)\n"
        )
        ir = parse_function(src)
        model = build_semantic_model(ir)
        matches = default_catalog(prefer="pipeline").detect(model)
        if matches:
            with pytest.raises(CodegenError):
                generate_parallel_source(ir, matches[0])

    def test_nested_loop_match_rejected(self):
        src = (
            "def f(rows, out):\n"
            "    if rows:\n"
            "        for row in rows:\n"
            "            a = g(row)\n"
            "            out.append(a)\n"
            "    return out\n"
        )
        ir = parse_function(src)
        model = build_semantic_model(ir)
        matches = default_catalog().detect(model)
        assert matches
        with pytest.raises(CodegenError):
            generate_parallel_source(ir, matches[0])


class TestDoallCodegen:
    def test_collector_and_reduction(self):
        src = (
            "def norms(xs):\n"
            "    out = []\n"
            "    total = 0.0\n"
            "    for x in xs:\n"
            "        y = x * x\n"
            "        total += y\n"
            "        out.append(y)\n"
            "    return out, total\n"
        )
        ir, _, match = detect_one(src)
        fn = compile_parallel(ir, match)
        assert fn([1, 2, 3, 4]) == ([1, 4, 9, 16], 30.0)
        assert fn([1, 2, 3, 4], __tuning__={"NumWorkers@loop": 4}) == (
            [1, 4, 9, 16], 30.0,
        )

    def test_pure_reduction(self):
        src = (
            "def total(xs):\n"
            "    acc = 0\n"
            "    for x in xs:\n"
            "        acc += x\n"
            "    return acc\n"
        )
        ir, _, match = detect_one(src)
        fn = compile_parallel(ir, match)
        assert fn(list(range(50))) == sum(range(50))

    def test_min_reduction(self):
        src = (
            "def lowest(xs):\n"
            "    best = 1000000\n"
            "    for x in xs:\n"
            "        best = min(best, x)\n"
            "    return best\n"
        )
        ir, _, match = detect_one(src)
        fn = compile_parallel(ir, match)
        assert fn([5, 3, 9, 1, 7]) == 1

    def test_tuple_target(self):
        src = (
            "def pick(pairs):\n"
            "    out = []\n"
            "    for k, v in pairs:\n"
            "        out.append(v * k)\n"
            "    return out\n"
        )
        ir, _, match = detect_one(src)
        fn = compile_parallel(ir, match)
        assert fn([(1, 2), (3, 4)]) == [2, 12]

    def test_sequential_tuning(self):
        src = (
            "def sq(xs):\n"
            "    out = []\n"
            "    for x in xs:\n"
            "        out.append(x * x)\n"
            "    return out\n"
        )
        ir, _, match = detect_one(src)
        fn = compile_parallel(ir, match)
        cfg = {"SequentialExecution@loop": True}
        assert fn([1, 2, 3], __tuning__=cfg) == [1, 4, 9]

    def test_effect_only_body(self):
        src = (
            "def bump(a, n):\n"
            "    for i in range(n):\n"
            "        a[i] = a[i] + 1\n"
            "    return a\n"
        )
        ir = parse_function(src)
        ns: dict = {}
        exec(src, ns)
        model = build_semantic_model(ir, fn=ns["bump"], args=([0, 0, 0], 3))
        match = default_catalog().detect(model)[0]
        fn = compile_parallel(ir, match)
        assert fn([5, 5, 5], 3) == [6, 6, 6]


class TestMasterWorkerCodegen:
    SRC = (
        "def step(frames, fa, fb, combine):\n"
        "    state = 0\n"
        "    log = []\n"
        "    for fr in frames:\n"
        "        a = fa(fr)\n"
        "        b = fb(fr)\n"
        "        state = combine(state, a, b)\n"
        "        log.append(state)\n"
        "    return log\n"
    )

    def _reference(self, frames, fa, fb, combine):
        state, log = 0, []
        for fr in frames:
            a, b = fa(fr), fb(fr)
            state = combine(state, a, b)
            log.append(state)
        return log

    def _mw_match(self):
        from repro.patterns import MasterWorkerPattern

        ir = parse_function(self.SRC)
        model = build_semantic_model(ir)
        match = MasterWorkerPattern().match(model, model.loop_models()[0])
        assert match is not None and match.pattern == "masterworker"
        return ir, match

    def test_semantics(self):
        ir, match = self._mw_match()
        fn = compile_parallel(ir, match)
        fa = lambda x: x + 1
        fb = lambda x: x * 2
        combine = lambda s, a, b: s + a + b
        frames = [1, 2, 3, 4]
        assert fn(frames, fa, fb, combine) == self._reference(
            frames, fa, fb, combine
        )

    def test_sequential_tuning(self):
        ir, match = self._mw_match()
        fn = compile_parallel(ir, match)
        fa, fb = (lambda x: x), (lambda x: -x)
        combine = lambda s, a, b: s + a * b
        got = fn([1, 2], fa, fb, combine,
                 __tuning__={"SequentialExecution@workers": True})
        assert got == self._reference([1, 2], fa, fb, combine)

    def test_reads_only_its_sequential_switch(self):
        # the group runs on threads or, sequentially, in the calling
        # thread: the generated code reads no Backend
        ir, match = self._mw_match()
        source = generate_parallel_source(ir, match)
        assert "'SequentialExecution@workers'" in source
        assert "Backend" not in source


class TestMasterWorkerRegionRuntime:
    """Generated master/worker regions run on ``MasterWorker``: one
    group per call, one ``run`` per iteration, named after the region."""

    def _compiled(self):
        from repro.patterns import MasterWorkerPattern

        ir = parse_function(TestMasterWorkerCodegen.SRC)
        model = build_semantic_model(ir)
        match = MasterWorkerPattern().match(model, model.loop_models()[0])
        return compile_parallel(ir, match), f"{ir.name}:{match.loop_sid}"

    def test_one_group_per_call_and_one_run_per_iteration(self, monkeypatch):
        import repro.runtime

        made, runs = [], []

        class Counted(repro.runtime.MasterWorker):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self.name)

            def run(self, tasks, *args, **kwargs):
                runs.append(self.name)
                return super().run(tasks, *args, **kwargs)

        monkeypatch.setattr(repro.runtime, "MasterWorker", Counted)
        fn, group = self._compiled()
        add = lambda s, a, b: s + a + b
        assert fn([1, 2, 3], abs, abs, add) == [2, 6, 12]
        assert made == [group] and runs == [group] * 3

    def test_member_failure_leaves_no_task_thread_running(self):
        import threading
        import time

        started = []

        def fa(x):
            raise ValueError("fa")

        def fb(x):
            started.append(x)
            time.sleep(0.3)
            raise KeyError("fb")

        fn, _group = self._compiled()
        before = set(threading.enumerate())
        with pytest.raises(ValueError, match="fa"):
            fn([1], fa, fb, lambda s, a, b: s)
        assert [t for t in threading.enumerate() if t not in before] == []

    def test_region_spans_under_its_group_name(self):
        from repro.runtime import trace_session

        fn, group = self._compiled()
        with trace_session() as trace:
            fn([1, 2, 3], abs, abs, lambda s, a, b: s + a + b)
        spans = [s for s in trace.spans() if s.kind == "execute"]
        assert len(spans) == 6
        assert {s.stage for s in spans} == {group}

    def test_region_chunk_counters_conserve_under_its_group_name(self):
        from repro.runtime import metrics_session

        fn, group = self._compiled()
        with metrics_session() as reg:
            fn([1, 2, 3], abs, abs, lambda s, a, b: s + a + b)
        planned = reg.value("chunks_planned", stage=group)
        assert planned == 6
        assert (
            reg.value("chunks_completed", stage=group)
            - reg.value("chunks_deduped", stage=group)
            == planned
        )


class TestAnnotatedSource:
    def test_annotation_inserted_at_loop(self, video_env):
        ir, _, match = detect_one(VIDEO_SRC, prefer="pipeline")
        annotated = generate_annotated_source(ir, match)
        lines = annotated.splitlines()
        tadl_idx = next(
            i for i, l in enumerate(lines) if l.strip().startswith("# TADL:")
        )
        assert "for img in stream" in lines[tadl_idx + 3]


class TestTuningFile:
    def test_roundtrip(self, tmp_path, video_env):
        ir, _, match = detect_one(VIDEO_SRC, prefer="pipeline")
        path = write_tuning_file([match], tmp_path / "t.json", program="vid")
        entries = read_tuning_file(path)
        assert len(entries) == 1
        pattern, location, params = entries[0]
        assert pattern == "pipeline"
        assert {p.key for p in params} == {p.key for p in match.tuning}

    def test_file_is_valid_json_with_domains(self, tmp_path):
        ir, _, match = detect_one(VIDEO_SRC, prefer="pipeline")
        path = write_tuning_file([match], tmp_path / "t.json")
        data = json.loads(path.read_text())
        assert data["version"] == 1
        p0 = data["patterns"][0]
        assert p0["tadl"].startswith("(A+")
        assert all("domain" in prm for prm in p0["parameters"])

    def test_config_for_location(self, tmp_path):
        ir, _, match = detect_one(VIDEO_SRC, prefer="pipeline")
        path = write_tuning_file([match], tmp_path / "t.json")
        cfg = config_for_location(path, str(match.location))
        assert cfg["SequentialExecution@pipeline"] is False
        with pytest.raises(KeyError):
            config_for_location(path, "bogus")

    def test_edited_value_flows_to_runtime(self, tmp_path, video_env):
        """The headline feature: edit the file, rerun, no recompile."""
        ir, _, match = detect_one(VIDEO_SRC, prefer="pipeline")
        path = write_tuning_file([match], tmp_path / "t.json")
        data = json.loads(path.read_text())
        for prm in data["patterns"][0]["parameters"]:
            if prm["name"] == "StageReplication" and prm["target"] == "C":
                prm["value"] = 3
        path.write_text(json.dumps(data))
        cfg = config_for_location(path, str(match.location))
        fn = compile_parallel(ir, match, dict(video_env))
        stream = list(range(8))
        args = (stream,) + tuple(video_env.values())
        assert fn(*args, __tuning__=cfg) == video_expected(stream, video_env)


class TestTestGeneration:
    def test_clean_pipeline_stages_pass(self, video_env):
        ir = parse_function(VIDEO_SRC)
        ns = dict(video_env)
        exec(textwrap.dedent(VIDEO_SRC), ns)
        model = build_semantic_model(
            ir, fn=ns["process"], args=([1, 2, 3],) + tuple(video_env.values())
        )
        match = default_catalog(prefer="pipeline").detect(model)[0]
        tests = generate_unit_tests(match, model.loop("s1"))
        assert tests
        for t in tests:
            assert run_parallel_test(t).passed

    def test_hidden_overlap_caught(self):
        src = (
            "def gather(a, idx, n):\n"
            "    for i in range(n):\n"
            "        a[idx[i]] = a[idx[i]] + 1\n"
            "    return a\n"
        )
        ir = parse_function(src)
        ns: dict = {}
        exec(src, ns)
        # disjoint profiling input -> detector says DOALL
        model = build_semantic_model(
            ir, fn=ns["gather"], args=([0, 0, 0], [0, 1, 2], 3)
        )
        match = default_catalog().detect(model)[0]
        assert match.pattern == "doall"
        # regenerate the trace with an overlapping input: the unit test
        # built from it must expose the race
        from repro.model.dyndep import trace_loop
        from repro.transform.testgen import doall_iteration_test

        bad = trace_loop(ir, "s0", args=([0, 0, 0], [1, 1, 2], 3), env=ns)
        test = doall_iteration_test(bad, name="gather-overlap")
        res = run_parallel_test(test)
        assert not res.passed and res.races

    def test_no_tests_without_trace(self, video_model):
        match = default_catalog(prefer="pipeline").detect(video_model)[0]
        assert generate_unit_tests(match, video_model.loop("s1")) == []


class TestPathCoverage:
    BRANCHY = (
        "def f(x):\n"
        "    if x > 0:\n"
        "        y = 1\n"
        "    else:\n"
        "        y = -1\n"
        "    if x % 2 == 0:\n"
        "        y *= 2\n"
        "    return y\n"
    )

    def test_enumerate_paths(self):
        from repro.model.cfg import build_cfg

        cfg = build_cfg(parse_function(self.BRANCHY))
        paths = enumerate_paths(cfg)
        assert len(paths) == 4  # 2 branches x 2 branches

    def test_paths_bounded(self):
        from repro.model.cfg import build_cfg

        cfg = build_cfg(parse_function(self.BRANCHY))
        assert len(enumerate_paths(cfg, max_paths=2)) == 2

    def test_branch_coverage_differs_by_input(self):
        ns: dict = {}
        exec(self.BRANCHY, ns)
        a = branch_coverage(ns["f"], (2,))
        b = branch_coverage(ns["f"], (-1,))
        assert a != b

    def test_generate_inputs_covers_all_branches(self):
        ns: dict = {}
        exec(self.BRANCHY, ns)
        chosen = generate_inputs(ns["f"], [(2,), (3,), (-1,), (-2,), (4,)])
        union = set()
        for c in chosen:
            union |= branch_coverage(ns["f"], c)
        # no remaining candidate adds coverage
        for cand in [(2,), (3,), (-1,), (-2,)]:
            assert branch_coverage(ns["f"], cand) <= union

    def test_generate_inputs_respects_limit(self):
        ns: dict = {}
        exec(self.BRANCHY, ns)
        chosen = generate_inputs(
            ns["f"], [(2,), (3,), (-1,), (-2,)], max_inputs=1
        )
        assert len(chosen) == 1

    def test_raising_candidates_skipped(self):
        def f(x):
            return 1 // x

        chosen = generate_inputs(f, [(0,), (1,)])
        assert (0,) not in chosen


class TestRenderedTests:
    def _tests(self):
        src = (
            "def scale(a, n):\n"
            "    for i in range(n):\n"
            "        a[i] = a[i] * 2\n"
            "    return a\n"
        )
        ns: dict = {}
        exec(src, ns)
        ir = parse_function(src)
        model = build_semantic_model(ir, fn=ns["scale"], args=([1, 2, 3], 3))
        match = default_catalog().detect(model)[0]
        return generate_unit_tests(match, model.loop("s0"))

    def test_replay_data_attached(self):
        tests = self._tests()
        assert tests and tests[0].replay_data
        assert len(tests[0].replay_data) == 2  # two concurrent iterations

    def test_rendered_source_is_executable(self, tmp_path):
        from repro.transform import render_pytest_source

        src = render_pytest_source(self._tests())
        assert "def test_" in src
        path = tmp_path / "test_generated.py"
        path.write_text(src)
        ns: dict = {}
        exec(compile(src, str(path), "exec"), ns)
        test_fns = [v for k, v in ns.items() if k.startswith("test_")]
        assert test_fns
        for fn in test_fns:
            fn()  # replayed accesses are disjoint: must pass

    def test_render_without_replay_data(self):
        from repro.transform import render_pytest_source
        from repro.verify import ParallelUnitTest

        src = render_pytest_source(
            [ParallelUnitTest("x", lambda: [], {})]
        )
        assert "no trace-backed tests" in src


class TestFinalValuePropagation:
    def test_doall_final_scalar(self):
        src = (
            "def chain(xs, helper):\n"
            "    v = 0\n"
            "    for x in xs:\n"
            "        v = x\n"
            "        v = helper(v)\n"
            "    return v\n"
        )
        ns = {"helper": lambda v: v * 2 + 1}
        exec(src, ns)
        ir = parse_function(src)
        model = build_semantic_model(ir, fn=ns["chain"],
                                     args=([1, 2, 3], ns["helper"]))
        match = default_catalog().detect(model)[0]
        fn = compile_parallel(ir, match, {"helper": ns["helper"]})
        assert fn([1, 2, 3], ns["helper"]) == ns["chain"]([1, 2, 3], ns["helper"])

    def test_doall_final_scalar_empty_stream(self):
        src = (
            "def chain(xs):\n"
            "    v = 42\n"
            "    for x in xs:\n"
            "        v = x * 2\n"
            "    return v\n"
        )
        ns: dict = {}
        exec(src, ns)
        ir = parse_function(src)
        model = build_semantic_model(ir, fn=ns["chain"], args=([5, 6],))
        match = default_catalog().detect(model)[0]
        fn = compile_parallel(ir, match)
        assert fn([]) == 42  # pre-loop value survives an empty stream
        assert fn([5, 6]) == 12

    def test_doall_final_with_reduction_and_collector(self):
        src = (
            "def mix(xs):\n"
            "    out = []\n"
            "    total = 0\n"
            "    last = None\n"
            "    for x in xs:\n"
            "        y = x * 3\n"
            "        last = y\n"
            "        total += y\n"
            "        out.append(y)\n"
            "    return out, total, last\n"
        )
        ns: dict = {}
        exec(src, ns)
        ir = parse_function(src)
        model = build_semantic_model(ir, fn=ns["mix"], args=([1, 2, 3],))
        match = default_catalog().detect(model)[0]
        fn = compile_parallel(ir, match)
        assert fn([1, 2, 4]) == ns["mix"]([1, 2, 4])

    def test_pipeline_final_scalar(self):
        src = (
            "def chain(xs, f, g):\n"
            "    v = 0\n"
            "    out = []\n"
            "    for x in xs:\n"
            "        v = f(x)\n"
            "        out.append(g(v))\n"
            "    return out, v\n"
        )
        ir, _, match = detect_one(src, prefer="pipeline")
        assert match.pattern == "pipeline"
        fn = compile_parallel(ir, match)
        f = lambda x: x + 10
        g = lambda v: -v
        ns: dict = {}
        exec(src, ns)
        assert fn([1, 2, 3], f, g) == ns["chain"]([1, 2, 3], f, g)

    def test_conditional_final_declines(self):
        src = (
            "def pick(xs):\n"
            "    found = None\n"
            "    t = 0\n"
            "    for x in xs:\n"
            "        t += x\n"
            "        if x > 2:\n"
            "            found = x\n"
            "    return found, t\n"
        )
        ir = parse_function(src)
        ns: dict = {}
        exec(src, ns)
        model = build_semantic_model(ir, fn=ns["pick"], args=([1, 2],))
        matches = default_catalog().detect(model)
        if matches:
            with pytest.raises(CodegenError, match="conditionally-written"):
                generate_parallel_source(ir, matches[0])

    def test_surviving_carried_scalar_declines(self):
        # a scalar that is read-before-written (not a recognized reduction)
        # cannot be privatized by the body function
        src = (
            "def weird(xs):\n"
            "    t = 0\n"
            "    u = 0\n"
            "    for x in xs:\n"
            "        u = t + x\n"
            "        t = u - x\n"
            "    return t, u\n"
        )
        ir = parse_function(src)
        ns: dict = {}
        exec(src, ns)
        # single-element profile: no carried dep observable -> DOALL claim
        model = build_semantic_model(ir, fn=ns["weird"], args=([7],))
        matches = default_catalog().detect(model)
        if matches and matches[0].pattern == "doall":
            with pytest.raises(CodegenError):
                generate_parallel_source(ir, matches[0])


class TestMasterWorkerBareCalls:
    def test_group_with_bare_call_member(self):
        from repro.patterns import MasterWorkerPattern

        src = (
            "def step(frames, fa, log):\n"
            "    state = 0\n"
            "    for fr in frames:\n"
            "        a = fa(fr)\n"
            "        log.append(fr)\n"
            "        state = state + a\n"
            "    return state, log\n"
        )
        ir = parse_function(src)
        model = build_semantic_model(ir)
        match = MasterWorkerPattern().match(model, model.loop_models()[0])
        if match is None or "s1.b1" not in match.extras["group"]:
            pytest.skip("group shape changed; bare-call path not exercised")
        fn = compile_parallel(ir, match)
        fa = lambda x: x * 3
        got_state, got_log = fn([1, 2, 3], fa, [])
        assert got_state == sum(x * 3 for x in [1, 2, 3])
        assert got_log == [1, 2, 3]

    def test_unsupported_group_statement_declines(self):
        from repro.patterns import MasterWorkerPattern

        src = (
            "def step(frames, fa, fb, acc):\n"
            "    state = 0\n"
            "    for fr in frames:\n"
            "        a, b = fa(fr), fb(fr)\n"
            "        c = fa(fr)\n"
            "        state = combine(state, a, b, c)\n"
            "    return state\n"
        )
        ir = parse_function(src)
        model = build_semantic_model(ir)
        match = MasterWorkerPattern().match(model, model.loop_models()[0])
        if match is None:
            pytest.skip("no MW match on this shape")
        from repro.transform.codegen import generate_masterworker_source

        with pytest.raises(CodegenError):
            generate_masterworker_source(ir, match)
