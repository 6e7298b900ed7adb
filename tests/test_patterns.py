"""Pattern detection: pipeline rules, DOALL, master/worker, catalog."""

import pytest

from repro.frontend import parse_function
from repro.frontend.parser import loop_info
from repro.model import build_semantic_model
from repro.model.dependence import DepKind, Dependence, DependenceGraph
from repro.frontend.rwsets import Symbol
from repro.patterns import (
    DoallPattern,
    MasterWorkerPattern,
    PipelinePattern,
    default_catalog,
    independent_groups,
    partition_stages,
)
from repro.patterns.pipeline import build_stage_dag, build_tadl
from repro.patterns.tuning import KNOBS
from repro.tadl import format_tadl


def model_of(src: str, costs=None):
    ir = parse_function(src)
    return build_semantic_model(ir, costs=costs)


def first_loop(model):
    return model.loop_models()[0]


class TestPartitionStages:
    def _graph(self, sids, carried_pairs):
        dg = DependenceGraph(loop_sid="L", statements=list(sids))
        for a, b in carried_pairs:
            dg.edges.add(Dependence(a, b, Symbol("v"), DepKind.FLOW, True))
        return dg

    def test_no_carried_deps_one_stage_each(self):
        sids = ["a", "b", "c"]
        p = partition_stages(sids, self._graph(sids, []))
        assert p.stages == [["a"], ["b"], ["c"]]
        assert p.replicable == [True, True, True]

    def test_carried_edge_fuses_interval(self):
        sids = ["a", "b", "c", "d"]
        p = partition_stages(sids, self._graph(sids, [("c", "a")]))
        assert p.stages == [["a", "b", "c"], ["d"]]
        assert p.replicable == [False, True]

    def test_self_edge_keeps_singleton_sequential(self):
        sids = ["a", "b"]
        p = partition_stages(sids, self._graph(sids, [("b", "b")]))
        assert p.stages == [["a"], ["b"]]
        assert p.replicable == [True, False]

    def test_overlapping_intervals_merge(self):
        sids = ["a", "b", "c", "d", "e"]
        p = partition_stages(
            sids, self._graph(sids, [("c", "a"), ("e", "c")])
        )
        assert p.stages == [["a", "b", "c", "d", "e"]]

    def test_scc_fusion_mode(self):
        sids = ["a", "b", "c"]
        p = partition_stages(
            sids, self._graph(sids, [("c", "a")]), fusion="scc"
        )
        assert len(p) >= 1  # same fusion for the contiguous case
        assert p.stages[0] == ["a", "b", "c"]

    def test_stage_names(self):
        sids = ["a", "b"]
        p = partition_stages(sids, self._graph(sids, []))
        assert p.names == ["A", "B"]
        assert p.stage_map() == {"A": ["a"], "B": ["b"]}

    def test_index_of_sid(self):
        sids = ["a", "b"]
        p = partition_stages(sids, self._graph(sids, []))
        assert p.index_of_sid("b") == 1
        with pytest.raises(KeyError):
            p.index_of_sid("zz")


class TestStageDagAndTadl:
    def test_video_levels(self, video_model):
        match = PipelinePattern().match(video_model, first_loop(video_model))
        assert format_tadl(match.tadl) == "(A+ || B+ || C+) => D+ => E"

    def test_dag_flows_symbols(self, video_model):
        match = PipelinePattern().match(video_model, first_loop(video_model))
        flows = match.extras["flows"]
        assert flows["A->D"] == ["c"]
        assert flows["D->E"] == ["r"]

    def test_linear_chain(self):
        m = model_of(
            "def f(xs, out):\n"
            "    for x in xs:\n"
            "        a = f1(x)\n"
            "        b = f2(a)\n"
            "        out.append(b)\n"
        )
        match = PipelinePattern().match(m, first_loop(m))
        assert format_tadl(match.tadl) == "A+ => B+ => C"


class TestPipelinePattern:
    def test_carried_state_fused(self, smooth_model):
        match = PipelinePattern().match(smooth_model, first_loop(smooth_model))
        assert match is not None
        assert match.stages["A"] == ["s2.b0", "s2.b1"]
        assert "prev" in match.extras["carried_names"]

    def test_plcd_break_rejects(self):
        m = model_of(
            "def f(xs, out):\n"
            "    for x in xs:\n"
            "        y = g(x)\n"
            "        if y < 0:\n"
            "            break\n"
            "        out.append(y)\n"
        )
        assert PipelinePattern().match(m, first_loop(m)) is None

    def test_plcd_return_rejects(self):
        m = model_of(
            "def f(xs):\n"
            "    for x in xs:\n"
            "        y = g(x)\n"
            "        if y:\n"
            "            return y\n"
            "        h(y)\n"
        )
        assert PipelinePattern().match(m, first_loop(m)) is None

    def test_plcd_continue_rejects(self):
        m = model_of(
            "def f(xs, out):\n"
            "    for x in xs:\n"
            "        if not x:\n"
            "            continue\n"
            "        out.append(g(x))\n"
        )
        assert PipelinePattern().match(m, first_loop(m)) is None

    def test_single_statement_body_rejected(self):
        m = model_of(
            "def f(xs, out):\n"
            "    for x in xs:\n"
            "        out.append(x)\n"
        )
        assert PipelinePattern().match(m, first_loop(m)) is None

    def test_fully_fused_body_rejected(self):
        m = model_of(
            "def f(xs):\n"
            "    seen = None\n"
            "    y = 0\n"
            "    for x in xs:\n"
            "        y = g(seen, x)\n"
            "        seen = combine(seen, y)\n"
            "    return seen\n"
        )
        # a dependence cycle through seen/y spans the whole body -> one
        # stage -> no pipeline structure left
        assert PipelinePattern().match(m, first_loop(m)) is None

    def test_sequential_two_stage_dswp_accepted(self):
        # a carried producer feeding a consumer stage is the classic
        # decoupled two-stage pipeline and must be kept
        m = model_of(
            "def f(xs):\n"
            "    seen = None\n"
            "    for x in xs:\n"
            "        seen = combine(seen, x)\n"
            "        emit(seen)\n"
            "    return seen\n"
        )
        match = PipelinePattern().match(m, first_loop(m))
        assert match is not None
        assert len(match.stages) == 2

    def test_dominance_guard_rejects_imbalanced(self):
        src = (
            "def f(xs, out):\n"
            "    for x in xs:\n"
            "        y = heavy(x)\n"
            "        out.append(y)\n"
        )
        m = model_of(src, costs={"s0": {"s0.b0": 0.95, "s0.b1": 0.05}})
        assert PipelinePattern().match(m, first_loop(m)) is None

    def test_balanced_with_profile_accepted(self):
        src = (
            "def f(xs, out):\n"
            "    for x in xs:\n"
            "        y = work(x)\n"
            "        out.append(post(y))\n"
        )
        m = model_of(src, costs={"s0": {"s0.b0": 0.55, "s0.b1": 0.45}})
        assert PipelinePattern().match(m, first_loop(m)) is not None

    def test_tuning_parameters_derived(self, video_model):
        match = PipelinePattern().match(video_model, first_loop(video_model))
        keys = {p.key for p in match.tuning}
        assert "StageReplication@A" in keys
        assert "OrderPreservation@A" in keys
        assert "StageFusion@D/E" in keys
        assert "SequentialExecution@pipeline" in keys
        assert "BufferCapacity@pipeline" in keys

    def test_no_replication_param_for_sequential_stage(self, video_model):
        match = PipelinePattern().match(video_model, first_loop(video_model))
        keys = {p.key for p in match.tuning}
        assert "StageReplication@E" not in keys

    def test_hottest_stage_gets_replication_suggestion(self):
        src = (
            "def f(xs, out):\n"
            "    for x in xs:\n"
            "        a = f1(x)\n"
            "        b = f2(a)\n"
            "        out.append(b)\n"
        )
        m = model_of(
            src, costs={"s0": {"s0.b0": 0.2, "s0.b1": 0.7, "s0.b2": 0.1}}
        )
        match = PipelinePattern().match(m, first_loop(m))
        assert match.parameter("StageReplication@B").value == 2

    def test_confidence_static_vs_dynamic(self, video_model):
        match = PipelinePattern().match(video_model, first_loop(video_model))
        assert match.confidence == pytest.approx(0.6)


class TestDoallPattern:
    def test_pure_map_accepted(self):
        m = model_of(
            "def f(a, n):\n"
            "    for i in range(n):\n"
            "        a[i] = a[i] * 2\n"
            "    return a\n"
        )
        # static container self-conflict blocks it...
        assert DoallPattern().match(m, first_loop(m)) is None

    def test_reduction_accepted(self):
        m = model_of(
            "def f(xs):\n"
            "    acc = 0\n"
            "    for x in xs:\n"
            "        acc += x * x\n"
            "    return acc\n"
        )
        match = DoallPattern().match(m, first_loop(m))
        assert match is not None
        assert "reductions" in match.notes[0]

    def test_collector_accepted(self):
        m = model_of(
            "def f(xs):\n"
            "    out = []\n"
            "    for x in xs:\n"
            "        out.append(x * 2)\n"
            "    return out\n"
        )
        match = DoallPattern().match(m, first_loop(m))
        assert match is not None

    def test_carried_scalar_rejected(self, smooth_model):
        assert DoallPattern().match(smooth_model, first_loop(smooth_model)) is None

    def test_continue_allowed(self):
        m = model_of(
            "def f(xs):\n"
            "    t = 0\n"
            "    for x in xs:\n"
            "        if not x:\n"
            "            continue\n"
            "        t += x\n"
            "    return t\n"
        )
        assert DoallPattern().match(m, first_loop(m)) is not None

    def test_break_rejected(self):
        m = model_of(
            "def f(xs):\n"
            "    t = 0\n"
            "    for x in xs:\n"
            "        if x < 0:\n"
            "            break\n"
            "        t += x\n"
            "    return t\n"
        )
        assert DoallPattern().match(m, first_loop(m)) is None

    def test_break_in_nested_loop_tolerated(self):
        m = model_of(
            "def f(xs):\n"
            "    t = 0\n"
            "    for x in xs:\n"
            "        for y in x:\n"
            "            if y:\n"
            "                break\n"
            "        t += 1\n"
            "    return t\n"
        )
        assert DoallPattern().match(m, first_loop(m)) is not None

    def test_return_in_nested_loop_still_rejected(self):
        m = model_of(
            "def f(xs):\n"
            "    t = 0\n"
            "    for x in xs:\n"
            "        for y in x:\n"
            "            if y:\n"
            "                return t\n"
            "        t += 1\n"
            "    return t\n"
        )
        assert DoallPattern().match(m, first_loop(m)) is None

    def test_tuning_parameters(self):
        m = model_of(
            "def f(xs):\n"
            "    t = 0\n"
            "    for x in xs:\n"
            "        t += x\n"
            "    return t\n"
        )
        match = DoallPattern(max_workers=4).match(m, first_loop(m))
        keys = {p.key for p in match.tuning}
        assert keys == {
            "NumWorkers@loop",
            "ChunkSize@loop",
            "Schedule@loop",
            "SequentialExecution@loop",
            "Backend@loop",
            "Retries@loop",
            "ItemTimeout@loop",
            "OnError@loop",
            "PoolRestarts@loop",
            "Hedge@loop",
            "Transport@loop",
            "Trace@loop",
            "Metrics@loop",
            "Profile@loop",
        }
        assert match.parameter("NumWorkers@loop").domain() == [1, 2, 3, 4]

    def test_tadl_form(self):
        m = model_of(
            "def f(xs):\n"
            "    t = 0\n"
            "    for x in xs:\n"
            "        t += x\n"
            "    return t\n"
        )
        match = DoallPattern().match(m, first_loop(m))
        assert format_tadl(match.tadl) == "BODY*"


class TestMasterWorker:
    def test_independent_groups_split_on_flow(self):
        dg = DependenceGraph(loop_sid="L", statements=["a", "b", "c"])
        dg.edges.add(Dependence("a", "b", Symbol("v"), DepKind.FLOW, False))
        groups = independent_groups(["a", "b", "c"], dg)
        assert groups == [["a"], ["b", "c"]]

    def test_carried_deps_do_not_split(self):
        dg = DependenceGraph(loop_sid="L", statements=["a", "b"])
        dg.edges.add(Dependence("a", "b", Symbol("v"), DepKind.FLOW, True))
        assert independent_groups(["a", "b"], dg) == [["a", "b"]]

    def test_match_on_independent_pair(self):
        m = model_of(
            "def f(frames, fa, fb, log):\n"
            "    state = 0\n"
            "    for fr in frames:\n"
            "        a = fa(fr)\n"
            "        b = fb(fr)\n"
            "        state = combine(state, a, b)\n"
            "    return state\n"
        )
        match = MasterWorkerPattern().match(m, first_loop(m))
        assert match is not None
        assert match.extras["group"] == ["s1.b0", "s1.b1"]
        # only the knobs the generated code reads (transform/codegen.py)
        assert [
            (p.key, type(p).__name__, p.default, p.domain())
            for p in match.tuning
        ] == [
            ("SequentialExecution@workers", "BoolParameter", False,
             [False, True]),
            ("Backend@workers", "ChoiceParameter", "thread",
             ["serial", "thread", "process"]),
        ]

    def test_min_share_guard(self):
        src = (
            "def f(frames, fa, fb):\n"
            "    state = 0\n"
            "    for fr in frames:\n"
            "        a = fa(fr)\n"
            "        b = fb(fr)\n"
            "        state = combine(state, a, b)\n"
            "    return state\n"
        )
        m = model_of(
            src,
            costs={"s1": {"s1.b0": 0.9, "s1.b1": 0.02, "s1.b2": 0.08}},
        )
        assert MasterWorkerPattern().match(m, first_loop(m)) is None

    def test_control_transfer_rejects(self):
        m = model_of(
            "def f(xs, fa, fb):\n"
            "    for x in xs:\n"
            "        a = fa(x)\n"
            "        b = fb(x)\n"
            "        if a:\n"
            "            break\n"
        )
        assert MasterWorkerPattern().match(m, first_loop(m)) is None


class TestCatalog:
    def test_default_order_prefers_doall(self, video_model):
        matches = default_catalog().detect(video_model)
        assert [m.pattern for m in matches] == ["doall"]

    def test_pipeline_preference(self, video_model):
        matches = default_catalog(prefer="pipeline").detect(video_model)
        assert [m.pattern for m in matches] == ["pipeline"]

    def test_exclusive_reports_one_per_loop(self, video_model):
        cat = default_catalog()
        assert len(cat.detect(video_model)) == 1

    def test_non_exclusive_reports_all(self, video_model):
        cat = default_catalog()
        cat.exclusive = False
        patterns = {m.pattern for m in cat.detect(video_model)}
        assert {"doall", "pipeline"} <= patterns

    def test_nested_match_noted(self):
        m = model_of(
            "def f(rows):\n"
            "    out = []\n"
            "    for row in rows:\n"
            "        t = 0\n"
            "        for v in row:\n"
            "            t += v\n"
            "        out.append(t)\n"
            "    return out\n"
        )
        matches = default_catalog().detect(m)
        nested = [m2 for m2 in matches if m2.loop_sid == "s1.b1"]
        assert nested and any("nested" in n for n in nested[0].notes)

    def test_names(self):
        assert default_catalog().names() == ["doall", "pipeline", "masterworker"]


class TestKnobCatalog:
    def test_domains_are_what_the_runtime_accepts(self):
        from repro.runtime import BACKENDS, SCHEDULES, TRANSPORTS
        from repro.runtime.faults import ON_ERROR_MODES

        assert KNOBS["Backend"][2] == BACKENDS
        # adaptive is an alias of guided: no trial re-measures it
        assert KNOBS["Schedule"][2] == tuple(
            s for s in SCHEDULES if s != "adaptive"
        )
        assert KNOBS["Transport"][2] == TRANSPORTS
        assert KNOBS["OnError"][2] == ON_ERROR_MODES

    def test_every_emitted_knob_is_the_catalogs(self):
        from repro.benchsuite import all_programs

        seen = set()
        for bp in all_programs():
            for match in default_catalog().detect_in_program(bp.parse()):
                for p in match.tuning:
                    kind, default, domain = KNOBS[p.name]
                    assert type(p) is kind, p.key
                    assert p.default == default, p.key
                    if domain is None:
                        assert p.lo == 1, p.key
                    else:
                        assert tuple(p.domain()) == domain, p.key
                    seen.add(p.name)
        # and no catalog entry is dead: the suite emits every knob
        assert seen == set(KNOBS)
