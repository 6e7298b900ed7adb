"""Tests of the benchmark itself (not of the runtime it measures).

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from e2e import catalog
from e2e.tracing import ROOT, TARGETS, Span, Tracer, resolve, self_times
from e2e.workloads import WORKLOADS, Outcome, build

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module", autouse=True)
def _stop_pools():
    yield
    import repro.runtime as rt

    rt.shutdown_sessions()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_inputs_follow_the_seed(name, tmp_path):
    first = build(name, 1, True, tmp_path).fingerprint()
    assert build(name, 1, True, tmp_path).fingerprint() == first
    assert build(name, 2, True, tmp_path).fingerprint() != first


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_checker_flags_a_corrupted_output(name, tmp_path):
    case = build(name, 3, True, tmp_path)
    outcome = case.call()
    try:
        assert case.check(outcome) is None
        good = outcome.value
        if isinstance(good, float):
            outcome.value = good * (1 + 1e-6)
        else:
            outcome.value = list(good)
            outcome.value[len(good) // 2] += 1
        assert case.check(outcome) is not None
    finally:
        case.cleanup(outcome)


def test_checker_flags_a_wrong_ledger_and_shm_downgrade(tmp_path):
    supervised = build("doall-supervised", 3, True, tmp_path)
    outcome = supervised.call()
    supervised.cleanup(outcome)
    outcome.journal = None
    outcome.ledger = outcome.ledger[1:]
    assert "ledger" in supervised.check(outcome)

    reduce = build("reduce-shm", 3, True, tmp_path)
    flagged = Outcome(reduce.expected, events=["shm -> pickle"])
    assert "downgrade" in reduce.check(flagged)


def test_every_wrapped_callable_is_restored(tmp_path):
    originals = []
    for module, attr, _layer in TARGETS:
        owner, name = resolve(module, attr)
        originals.append((owner, name, vars(owner)[name]))
    tracer = Tracer()
    with tracer.installed():
        assert all(vars(o)[n] is not raw for o, n, raw in originals)
        for name in ("doall-supervised", "pipeline-stream", "reduce-shm"):
            case = build(name, 1, True, tmp_path)
            with tracer.call():
                outcome = case.call()
            assert case.check(outcome) is None
            case.cleanup(outcome)
    assert all(vars(o)[n] is raw for o, n, raw in originals)
    names = {s.name for s in tracer.take()}
    assert {ROOT, "runtime.parallel_reduce", "buffer.BoundedBuffer.put",
            "checkpoint.ChunkJournal.record", "shm.ShmInput.build"} <= names


def _span(sid, parent, start, end, thread="A"):
    return Span(f"s{sid}", 1, sid, parent, start, end, hash(thread))


def test_self_time_of_a_nested_tree_sums_to_the_root():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 2, 2.0, 3.0),
        _span(4, 1, 5.0, 6.0),
    ]
    selfs = self_times(spans)
    assert selfs == {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0}
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_self_time_counts_overlap_once_and_ignores_other_threads():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 1, 3.0, 6.0),  # overlaps its sibling: union is [1, 6)
        _span(4, 1, 0.0, 9.0, thread="B"),  # another thread, same call
        _span(5, 4, 2.0, 5.0, thread="B"),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(5.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(6.0)
    assert selfs[5] == pytest.approx(3.0)


def _bench_json():
    return json.loads((REPO / "BENCHMARK.json").read_text())


def test_benchmark_json_mirrors_the_catalog():
    doc = _bench_json()
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in doc["end_to_end"]
    ] == list(catalog.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in doc["per_layer"]
    ] == list(catalog.PER_LAYER)
    assert len(doc["end_to_end"]) <= 16 and len(doc["per_layer"]) <= 128
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert NAME.fullmatch(m["name"]) and len(m["name"]) <= 64


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_exactly_the_declared_metrics(trace):
    doc = _bench_json()
    declared = [m["name"] for m in doc["per_layer" if trace else "end_to_end"]]
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", str(trace)],
        cwd=REPO, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["workloads"]) == set(WORKLOADS)
    for metrics in last["workloads"].values():
        assert list(metrics) == declared
    printed = {line.split()[1] for line in lines[:-1] if "error:" not in line}
    info = set() if trace else {name for name, _unit in catalog.INFO}
    assert printed == set(declared) | info | {"error_rate"}
    assert all(NAME.fullmatch(name) for name in printed)


def test_without_the_runtime_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__", ".work"),
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "doall-fine",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
