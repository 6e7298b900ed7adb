"""The parallel runtime library: buffers, items, pipelines, MW, loops."""

import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime import (
    BoundedBuffer,
    EndOfStream,
    Item,
    MasterWorker,
    MetricsRegistry,
    Pipeline,
    PipelineError,
    configured_parallel_for,
    parallel_for,
    parallel_reduce,
    plan_guided,
)


class TestBoundedBuffer:
    def test_fifo(self):
        b = BoundedBuffer(4)
        for i in range(3):
            b.put(i)
        assert [b.get() for _ in range(3)] == [0, 1, 2]

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            BoundedBuffer(0)

    def test_put_blocks_when_full(self):
        b = BoundedBuffer(1)
        b.put(1)
        done = threading.Event()

        def producer():
            b.put(2)
            done.set()

        t = threading.Thread(target=producer)
        t.start()
        time.sleep(0.02)
        assert not done.is_set()
        assert b.get() == 1
        t.join(timeout=2)
        assert done.is_set()

    def test_get_blocks_until_put(self):
        b = BoundedBuffer(2)
        got: list = []

        def consumer():
            got.append(b.get())

        t = threading.Thread(target=consumer)
        t.start()
        time.sleep(0.02)
        b.put(42)
        t.join(timeout=2)
        assert got == [42]

    def test_high_water_mark(self):
        b = BoundedBuffer(8)
        for i in range(5):
            b.put(i)
        assert b.max_occupancy == 5

    def test_get_batch_takes_a_share_of_the_queue(self):
        b = BoundedBuffer(8)
        for i in range(7):
            b.put(i)
        assert [b.get_batch(share=2) for _ in range(3)] == [
            [0, 1, 2, 3], [4, 5], [6]
        ]
        assert b.transfers == 14  # 7 elements in, 7 out

    def test_get_batch_returns_without_waiting_to_fill(self):
        b = BoundedBuffer(4)
        got: list = []

        def consumer():
            got.append(b.get_batch())

        t = threading.Thread(target=consumer)
        t.start()
        time.sleep(0.02)
        assert t.is_alive(), "get_batch must block on an empty buffer"
        b.put(42)
        t.join(timeout=2)
        assert not t.is_alive()
        assert got == [[42]]

    def test_put_batch_waits_for_room_and_keeps_order(self):
        b = BoundedBuffer(2)
        t = threading.Thread(target=b.put_batch, args=([0, 1, 2, 3, 4],))
        t.start()
        deadline = time.monotonic() + 2
        while len(b) < 2 and time.monotonic() < deadline:
            time.sleep(0.001)
        time.sleep(0.02)
        assert t.is_alive(), "put_batch must block on a full buffer"
        assert len(b) == 2
        got = []
        while len(got) < 5:
            got.extend(b.get_batch())
        t.join(timeout=2)
        assert not t.is_alive()
        assert got == [0, 1, 2, 3, 4]
        assert b.max_occupancy == 2
        assert b.transfers == 10  # 5 elements in, 5 out


class TestItem:
    def test_apply(self):
        assert Item(lambda x: x + 1).apply(1) == 2

    def test_default_name_from_fn(self):
        def crop(x):
            return x

        assert Item(crop).name == "crop"

    def test_replication_requires_replicable(self):
        it = Item(lambda x: x, name="s")
        with pytest.raises(ValueError):
            it.replication = 2

    def test_replication_validates_positive(self):
        it = Item(lambda x: x, replicable=True)
        with pytest.raises(ValueError):
            it.replication = 0

    def test_fusion_composes(self):
        a = Item(lambda x: x + 1, name="a", replicable=True)
        b = Item(lambda x: x * 2, name="b", replicable=True)
        fused = a.fused_with(b)
        assert fused.apply(3) == 8
        assert fused.name == "a+b"
        assert fused.replicable

    def test_fusion_with_sequential_part_not_replicable(self):
        a = Item(lambda x: x, name="a", replicable=True)
        b = Item(lambda x: x, name="b", replicable=False)
        assert not a.fused_with(b).replicable


class TestMasterWorker:
    def test_run_preserves_order(self):
        mw = MasterWorker(workers=4)
        results = mw.run([lambda i=i: i * i for i in range(10)])
        assert results == [i * i for i in range(10)]

    def test_map(self):
        mw = MasterWorker(workers=3)
        assert mw.map(lambda v: v + 1, [1, 2, 3]) == [2, 3, 4]

    def test_error_propagates(self):
        mw = MasterWorker(workers=2)
        with pytest.raises(ValueError):
            mw.run([lambda: 1, lambda: (_ for _ in ()).throw(ValueError("x"))])

    def test_apply_merges(self):
        mw = MasterWorker(
            Item(lambda x: x + 1, name="inc"),
            Item(lambda x: x * 2, name="dbl"),
            merge=lambda v, rs: sum(rs),
        )
        assert mw.apply(3) == 4 + 6

    def test_default_merge_is_tuple(self):
        mw = MasterWorker(Item(lambda x: x, name="a"), Item(lambda x: -x, name="b"))
        assert mw.apply(2) == (2, -2)

    def test_item_addressing(self):
        a = Item(lambda x: x, name="a")
        mw = MasterWorker(a, Item(lambda x: x, name="b"))
        assert mw.item("a") is a
        assert mw.item(0) is a
        with pytest.raises(KeyError):
            mw.item("zz")

    def test_empty_task_list(self):
        assert MasterWorker(workers=2).run([]) == []


class TestPipeline:
    def stages(self):
        return (
            Item(lambda x: x + 1, name="A", replicable=True),
            Item(lambda x: x * 2, name="B", replicable=True),
        )

    def test_basic_correctness(self):
        pipe = Pipeline(*self.stages())
        assert pipe.run(range(10)) == [(x + 1) * 2 for x in range(10)]

    def test_empty_stream(self):
        pipe = Pipeline(*self.stages())
        assert pipe.run([]) == []

    def test_single_element(self):
        pipe = Pipeline(*self.stages())
        assert pipe.run([5]) == [12]

    def test_requires_elements(self):
        with pytest.raises(ValueError):
            Pipeline()

    def test_requires_input(self):
        with pytest.raises(ValueError):
            Pipeline(*self.stages()).run()

    def test_replication_preserves_order(self):
        pipe = Pipeline(*self.stages())
        pipe.configure({"StageReplication@A": 4})
        assert pipe.run(range(50)) == [(x + 1) * 2 for x in range(50)]

    def test_replication_without_order(self):
        pipe = Pipeline(*self.stages())
        pipe.configure(
            {"StageReplication@A": 4, "OrderPreservation@A": False}
        )
        out = pipe.run(range(50))
        assert sorted(out) == sorted((x + 1) * 2 for x in range(50))

    def test_fusion_config(self):
        pipe = Pipeline(*self.stages())
        pipe.configure({"StageFusion@A/B": True})
        assert len(pipe._effective_elements()) == 1
        assert pipe.run(range(5)) == [(x + 1) * 2 for x in range(5)]

    def test_fusion_toggle_off(self):
        pipe = Pipeline(*self.stages())
        pipe.configure({"StageFusion@A/B": True})
        pipe.configure({"StageFusion@A/B": False})
        assert len(pipe._effective_elements()) == 2

    @staticmethod
    def chain(middle=None):
        return Pipeline(
            Item(lambda x: x + 1, name="parse"),
            middle or Item(lambda x: x * 3, name="compute"),
            Item(lambda x: x - 2, name="emit"),
        )

    @pytest.mark.parametrize("sequential", [False, True])
    @pytest.mark.parametrize("keys, stages", [
        (
            ["parse/compute", "compute/emit"], ["parse+compute+emit"],
        ),
        (["parse/compute"], ["parse+compute", "emit"]),
        (["compute/emit"], ["parse", "compute+emit"]),
    ], ids=["chained", "first-pair", "second-pair"])
    def test_fusion_pairs_name_the_original_stages(
        self, keys, stages, sequential
    ):
        # each pair names two original stages, so chained pairs fuse a
        # run of adjacent items into one stage
        pipe = self.chain()
        pipe.configure({f"StageFusion@{key}": True for key in keys})
        pipe.configure({"SequentialExecution@pipeline": sequential})
        assert pipe.run(range(20)) == [(x + 1) * 3 - 2 for x in range(20)]
        assert pipe.stats["stages"] == stages

    @pytest.mark.parametrize("sequential", [False, True])
    def test_a_fault_policy_blocks_fusion(self, sequential):
        # the fused stage has no policy of its own: fusing ``compute``
        # would turn its retries into a failed run
        attempts = []

        def flaky(x):
            if x == 3:
                attempts.append(x)
                if len(attempts) <= 2:
                    raise ValueError("flaky")
            return x * 10 - 10

        pipe = Pipeline(
            Item(lambda x: x + 1, name="parse"), Item(flaky, name="compute")
        )
        pipe.configure({
            "Retries@compute": 3, "OnError@compute": "skip",
            "StageFusion@parse/compute": True,
            "SequentialExecution@pipeline": sequential,
        })
        assert pipe.run([0, 1, 2, 3]) == [0, 10, 20, 30]
        assert pipe.stats["retried"] == 2
        assert pipe.stats["stages"] == ["parse", "compute"]

    @pytest.mark.parametrize("sequential", [False, True])
    def test_default_policies_still_fuse(self, sequential):
        # a generated tuning file names every stage's policy keys at
        # their defaults; that builds NO_POLICY, which fusion keeps
        pipe = self.chain()
        pipe.configure({
            "Retries@compute": 0, "ItemTimeout@compute": 0,
            "OnError@compute": "fail_fast", "Retries@parse": 0,
            "StageFusion@parse/compute": True,
            "SequentialExecution@pipeline": sequential,
        })
        assert pipe.run(range(20)) == [(x + 1) * 3 - 2 for x in range(20)]
        assert pipe.stats["stages"] == ["parse+compute", "emit"]

    def test_a_group_in_the_chain_blocks_fusion(self):
        group = MasterWorker(
            Item(lambda x: x * 3, name="triple"), name="compute",
            merge=lambda v, rs: rs[0],
        )
        pipe = self.chain(group)
        pipe.configure(
            {"StageFusion@parse/compute": True,
             "StageFusion@compute/emit": True}
        )
        assert pipe.run(range(20)) == [(x + 1) * 3 - 2 for x in range(20)]
        assert pipe.stats["stages"] == ["parse", "compute", "emit"]

    def test_sequential_execution(self):
        pipe = Pipeline(*self.stages())
        pipe.configure({"SequentialExecution@pipeline": True})
        assert pipe.run(range(8)) == [(x + 1) * 2 for x in range(8)]

    def test_buffer_capacity_config(self):
        pipe = Pipeline(*self.stages())
        pipe.configure({"BufferCapacity@pipeline": 2})
        assert pipe.buffer_capacity == 2
        assert pipe.run(range(30)) == [(x + 1) * 2 for x in range(30)]

    def test_unknown_parameter_raises(self):
        with pytest.raises(KeyError):
            Pipeline(*self.stages()).configure({"Bogus@A": 1})

    def test_unknown_stage_raises(self):
        with pytest.raises(KeyError):
            Pipeline(*self.stages()).configure({"StageReplication@Z": 2})

    def test_malformed_key_raises(self):
        with pytest.raises(KeyError):
            Pipeline(*self.stages()).configure({"StageReplication": 2})

    def test_sibling_pattern_keys_tolerated(self):
        pipe = Pipeline(*self.stages())
        pipe.configure({"NumWorkers@loop": 4})  # DOALL key in a shared file

    def test_error_propagates_with_stage_name(self):
        def boom(x):
            if x == 3:
                raise ValueError("3")
            return x

        pipe = Pipeline(Item(boom, name="A"), Item(lambda x: x, name="B"))
        with pytest.raises(PipelineError, match="'A'"):
            pipe.run(range(6))

    def test_error_in_replicated_stage(self):
        def boom(x):
            if x == 5:
                raise RuntimeError("x")
            return x

        pipe = Pipeline(Item(boom, name="A", replicable=True))
        pipe.configure({"StageReplication@A": 3})
        with pytest.raises(PipelineError):
            pipe.run(range(20))

    def test_masterworker_element(self):
        mw = MasterWorker(
            Item(lambda x: x + 1, name="inc"),
            Item(lambda x: x * 2, name="dbl"),
            merge=lambda v, rs: rs[0] + rs[1],
        )
        pipe = Pipeline(mw, Item(lambda s: s * 10, name="D"))
        assert pipe.run([1, 2]) == [(2 + 2) * 10, (3 + 4) * 10]

    def test_configure_reaches_grouped_member(self):
        mw = MasterWorker(
            Item(lambda x: x + 1, name="inc", replicable=True),
            Item(lambda x: x * 2, name="dbl", replicable=True),
        )
        pipe = Pipeline(mw, Item(lambda s: s, name="D"))
        pipe.configure({"StageReplication@inc": 2})
        assert mw.replication == 2

    def test_grouped_member_in_nonreplicable_group_raises(self):
        mw = MasterWorker(
            Item(lambda x: x + 1, name="inc", replicable=True),
            Item(lambda x: x * 2, name="dbl", replicable=False),
        )
        pipe = Pipeline(mw, Item(lambda s: s, name="D"))
        with pytest.raises(ValueError):
            pipe.configure({"StageReplication@inc": 2})

    def test_stats_collected(self):
        pipe = Pipeline(*self.stages())
        pipe.run(range(10))
        assert pipe.stats["stages"] == ["A", "B"]
        assert len(pipe.stats["buffer_high_water"]) == 3

    def test_replicas_share_a_backlog(self):
        # each replica takes its share of what is queued, not all of it
        names = []

        def work(x):
            names.append(threading.current_thread().name)
            time.sleep(0.02)
            return x

        pipe = Pipeline(
            Item(work, name="A", replicable=True), buffer_capacity=8
        )
        pipe.configure({"StageReplication@A": 4})
        assert pipe.run(range(8)) == list(range(8))
        assert len(set(names)) == 4, names

    @settings(max_examples=40, deadline=None)
    @given(
        stream=st.lists(st.integers(-50, 50), max_size=30),
        repl_a=st.integers(1, 4),
        repl_b=st.integers(1, 4),
        ordered=st.booleans(),
        capacity=st.sampled_from([1, 2, 3, 8]),
        poison=st.sampled_from([None, 2, 5]),
    )
    def test_property_matches_sequential(
        self, stream, repl_a, repl_b, ordered, capacity, poison
    ):
        def b(x):
            if poison is not None and x % poison == 0:
                raise ValueError(x)
            return x - 7

        pipe = Pipeline(
            Item(lambda x: x * 3, name="A", replicable=True),
            Item(b, name="B", replicable=True),
            buffer_capacity=capacity,
        )
        pipe.configure({
            "StageReplication@A": repl_a,
            "StageReplication@B": repl_b,
            "OrderPreservation@A": ordered,
            "OrderPreservation@B": ordered,
            "OnError@B": "skip",
        })
        expected = [
            x * 3 - 7 for x in stream
            if poison is None or (x * 3) % poison != 0
        ]
        got = pipe.run(stream)
        if ordered:
            assert got == expected
        else:
            assert sorted(got) == sorted(expected)
        assert pipe.stats["delivered"] + pipe.stats["skipped"] == len(stream)


class TestParallelFor:
    def test_dynamic_schedule(self):
        out = parallel_for(range(20), lambda x: x * x, workers=4, chunk_size=3)
        assert out == [x * x for x in range(20)]

    def test_static_schedule(self):
        out = parallel_for(
            range(20), lambda x: x + 1, workers=3, schedule="static"
        )
        assert out == [x + 1 for x in range(20)]

    def test_guided_schedule(self):
        out = parallel_for(
            range(40), lambda x: x * 3, workers=4, chunk_size=2,
            schedule="guided",
        )
        assert out == [x * 3 for x in range(40)]

    def test_adaptive_schedule(self):
        out = parallel_for(
            range(40), lambda x: x - 5, workers=4, chunk_size=2,
            schedule="adaptive",
        )
        assert out == [x - 5 for x in range(40)]

    def test_adaptive_error_propagates(self):
        def body(x):
            if x == 13:
                raise KeyError("13")
            return x

        with pytest.raises(KeyError):
            parallel_for(range(20), body, workers=3, schedule="adaptive")

    def test_unknown_schedule(self):
        with pytest.raises(ValueError):
            parallel_for([1], lambda x: x, schedule="magic")

    def test_sequential_fallback(self):
        out = parallel_for([1, 2], lambda x: x, sequential=True)
        assert out == [1, 2]

    def test_empty(self):
        assert parallel_for([], lambda x: x) == []

    def test_error_propagates(self):
        def body(x):
            if x == 7:
                raise KeyError("7")
            return x

        with pytest.raises(KeyError):
            parallel_for(range(10), body, workers=3)

    def test_configured(self):
        out = configured_parallel_for(
            range(10),
            lambda x: -x,
            {"NumWorkers@loop": 3, "ChunkSize@loop": 2, "Schedule@loop": "static"},
        )
        assert out == [-x for x in range(10)]

    def test_configured_adaptive_runs_as_guided(self):
        # a tuning file naming Schedule@loop=adaptive still loads and
        # runs, on exactly guided's descriptor plan
        planned = {}
        for schedule in ("guided", "adaptive"):
            reg = MetricsRegistry()
            out = configured_parallel_for(
                range(50),
                lambda x: x * 7,
                {"NumWorkers@loop": 3, "ChunkSize@loop": 2,
                 "Schedule@loop": schedule},
                metrics=reg,
            )
            assert out == [x * 7 for x in range(50)]
            planned[schedule] = reg.total("chunks_planned")
        assert planned["adaptive"] == planned["guided"]
        assert planned["guided"] == len(plan_guided(50, 2, 3))

    @settings(max_examples=20, deadline=None)
    @given(
        values=st.lists(st.integers(-100, 100), max_size=40),
        workers=st.integers(1, 6),
        chunk=st.integers(1, 8),
        schedule=st.sampled_from(["static", "dynamic", "guided", "adaptive"]),
    )
    def test_property_order_preserved(self, values, workers, chunk, schedule):
        out = parallel_for(
            values, lambda x: x * 2, workers=workers, chunk_size=chunk,
            schedule=schedule,
        )
        assert out == [v * 2 for v in values]


class TestParallelReduce:
    def test_sum(self):
        assert parallel_reduce(
            range(100), lambda x: x, lambda a, b: a + b, 0, workers=4
        ) == sum(range(100))

    def test_sequential(self):
        assert parallel_reduce(
            range(10), lambda x: x, lambda a, b: a + b, 0, sequential=True
        ) == 45

    def test_non_commutative_but_associative(self):
        # string concatenation: chunk order must be respected
        values = list("abcdefghijk")
        out = parallel_reduce(
            values, lambda c: c, lambda a, b: a + b, "", workers=4,
            chunk_size=2,
        )
        assert out == "abcdefghijk"

    @settings(max_examples=25, deadline=None)
    @given(
        values=st.lists(st.integers(-20, 20), max_size=50),
        workers=st.integers(1, 5),
        chunk=st.integers(1, 10),
    )
    def test_property_equals_sequential(self, values, workers, chunk):
        out = parallel_reduce(
            values, lambda x: x + 1, lambda a, b: a + b, 0,
            workers=workers, chunk_size=chunk,
        )
        assert out == sum(v + 1 for v in values)

    def test_error_propagates(self):
        with pytest.raises(ZeroDivisionError):
            parallel_reduce([1, 0], lambda x: 1 // x, lambda a, b: a + b, 0)


class TestPipelineStreaming:
    """The lazy stream() API: continuous data flow with backpressure."""

    def _pipe(self, capacity=2):
        return Pipeline(
            Item(lambda x: x * 2, name="A", replicable=True),
            Item(lambda x: x + 1, name="B"),
            buffer_capacity=capacity,
        )

    def test_bounded_stream_matches_run(self):
        assert list(self._pipe().stream(range(20))) == self._pipe().run(
            range(20)
        )

    def test_unbounded_stream_is_lazy(self):
        import itertools

        gen = self._pipe().stream(itertools.count())
        got = [next(gen) for _ in range(8)]
        gen.close()
        assert got == [x * 2 + 1 for x in range(8)]

    def test_abandoned_stream_unblocks_threads(self):
        import itertools
        import threading

        before = threading.active_count()
        pipe = self._pipe(capacity=1)
        gen = pipe.stream(itertools.count())
        next(gen)
        gen.close()
        # allow the drained threads to exit
        for _ in range(100):
            if threading.active_count() <= before:
                break
            time.sleep(0.01)
        assert threading.active_count() <= before

    def test_stream_error_propagates(self):
        def boom(x):
            if x == 5:
                raise ValueError("5")
            return x

        pipe = Pipeline(Item(boom, name="A"))
        with pytest.raises(PipelineError, match="'A'"):
            list(pipe.stream(range(10)))

    def test_source_error_propagates(self):
        def bad():
            yield 1
            raise RuntimeError("source died")

        pipe = Pipeline(Item(lambda x: x, name="A"))
        with pytest.raises(PipelineError, match="stream-generator"):
            list(pipe.stream(bad()))

    def test_sequential_stream(self):
        pipe = self._pipe()
        pipe.configure({"SequentialExecution@pipeline": True})
        assert list(pipe.stream(range(5))) == [x * 2 + 1 for x in range(5)]

    def test_stream_with_replication_preserves_order(self):
        pipe = self._pipe(capacity=4)
        pipe.configure({"StageReplication@A": 3})
        assert list(pipe.stream(range(40))) == [
            x * 2 + 1 for x in range(40)
        ]

    def test_stream_requires_input(self):
        with pytest.raises(ValueError):
            self._pipe().stream()

    def test_first_output_does_not_wait_for_more_input(self):
        # a hop forwards what is queued and never waits to fill a batch,
        # so an output leaves before the source yields its next element
        first_out = threading.Event()
        waited = []

        def source():
            yield 1
            waited.append(first_out.wait(3.0))
            yield 2

        out = []
        for v in self._pipe().stream(source()):
            out.append(v)
            first_out.set()
        assert waited == [True]
        assert out == [3, 5]

    def test_slow_stages_hand_off_each_element(self):
        # a stage forwards what it has finished once it has held it for a
        # switch interval, so stages whose bodies release the GIL stay
        # overlapped even when the whole input is queued up front
        def slow(x):
            time.sleep(0.02)
            return x + 1

        pipe = Pipeline(*(Item(slow, name=name) for name in "ABC"))
        start = time.monotonic()
        first = None
        out = []
        for v in pipe.stream(list(range(8))):
            if first is None:
                first = time.monotonic() - start
            out.append(v)
        assert out == [x + 3 for x in range(8)]
        # one element crosses three 20 ms stages in 60 ms; a stage that
        # held its outputs until its batch of 8 was done would take 480 ms
        assert first < 0.25, f"first output after {first:.3f}s"

    def test_fail_fast_forwards_outputs_finished_before_it(self):
        def f(x):
            if x == 3:
                raise ValueError(x)
            return x * 10

        out = []
        with pytest.raises(PipelineError):
            for v in Pipeline(Item(f, name="A")).stream([0, 1, 2, 3, 4]):
                out.append(v)
        assert out == [0, 10, 20]


class TestTuningConfig:
    @staticmethod
    def _matches():
        """A benchsuite program's matches: pipelines and a DOALL loop."""
        from repro.benchsuite import get_program
        from repro.patterns import default_catalog

        return default_catalog(prefer="pipeline").detect_in_program(
            get_program("matrixops").parse()
        )

    def test_load_and_query(self, tmp_path):
        from repro.runtime import TuningConfig
        from repro.transform import write_tuning_file

        matches = self._matches()
        pipe = next(m for m in matches if m.pattern == "pipeline")
        loop = next(m for m in matches if m.pattern == "doall")
        # an engineer retunes two values before the run
        pipe.parameter("BufferCapacity@pipeline").value = 2
        loop.parameter("NumWorkers@loop").value = 3
        path = write_tuning_file(matches, tmp_path / "tuning.json")
        cfg = TuningConfig.load(path)
        at_pipe, at_loop = pipe.tuning[0].location, loop.tuning[0].location
        assert cfg.for_location(at_pipe)["BufferCapacity@pipeline"] == 2
        assert cfg.for_location(at_loop)["NumWorkers@loop"] == 3
        assert cfg.for_location("missing") == {}
        assert set(cfg.locations()) == {m.tuning[0].location for m in matches}
        assert cfg.flat()[f"{at_loop}::NumWorkers@loop"] == 3
        assert len(cfg.flat()) == sum(len(m.tuning) for m in matches)

    def test_loads_every_value_the_tool_writes(self, tmp_path):
        from repro.runtime import TuningConfig
        from repro.transform import read_tuning_file, write_tuning_file
        from repro.transform.tuningfile import config_for_location

        matches = self._matches()
        path = write_tuning_file(matches, tmp_path / "tuning.json")
        cfg = TuningConfig.load(path)
        entries = read_tuning_file(path)
        assert len(entries) == len(matches) >= 2
        for _pattern, location, params in entries:
            assert params
            for p in params:
                assert cfg.for_location(p.location)[p.key] == p.value
                assert cfg.for_location(p.location) == config_for_location(
                    path, location
                )
