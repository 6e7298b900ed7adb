"""Command-line interface.

The IDE integration of the original is out of scope for a library, but
its workflows are not; each subcommand is one of them:

* ``analyze``   — phases 1+2 on a Python source file (or a bundled
  benchmark): semantic model, dependence report, detected patterns.
* ``transform`` — phases 3+4: write the annotated source, the generated
  parallel source, and the tuning configuration file.
* ``tune``      — the performance-validation cycle on the simulated
  machine (Fig. 4c).
* ``validate``  — generate and run the parallel unit tests of a bundled
  benchmark's detected patterns (correctness validation).  With
  ``--chaos SEED`` each test is additionally re-run under seeded fault
  injection, checking that every injected fault surfaces as a reported
  task error.  ``verify`` is an alias.
* ``trace``     — run a benchmark's transformed functions with span
  tracing on: per-stage latency/utilization report, optional Chrome
  trace-event export (Perfetto), optional seeded chaos.
* ``run``       — execute one CPU-bound kernel on the resilient runtime:
  crash recovery (``--restarts``), checkpoint/resume (``--checkpoint`` /
  ``--resume``), straggler hedging (``--hedge``), seeded chaos worker
  kills (``--chaos --chaos-kill-rate``), run-wide metrics
  (``--metrics`` / ``--metrics-out``) and a live dashboard (``--live``).
* ``metrics``   — render a metrics snapshot written by
  ``run --metrics-out`` (human report or ``--openmetrics`` text).
* ``bench``     — benchmark results tooling: ``bench report``
  consolidates ``benchmarks/results/*.json`` into one trajectory table.
* ``calibrate`` — run a cost-model workload for real under tracing, fit
  an empirical (quantile-sampled) cost model from the measured per-stage
  latency distributions, write it as a reusable calibration JSON, and
  report the simulated-vs-measured makespan error.
* ``study``     — run the simulated user study and print the paper's
  tables and figures.
* ``quality``   — the detection-quality evaluation (precision/recall/F)
  over the benchmark suite.
* ``backends``  — real-execution sweep of the serial/thread/process
  backends over CPU-bound kernels (measured wall-clock, not simulated).
* ``programs``  — list the bundled benchmark programs.

Run ``python -m repro <command> --help`` for options.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Any, Sequence

from repro.core import Patty
from repro.frontend.source import SourceProgram
from repro.model.semantic import build_semantic_model
from repro.patterns.catalog import default_catalog
from repro.report import detection_report, overlay_listing


def _load_source(path: str) -> str:
    return pathlib.Path(path).read_text()


def _rate(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"must be a probability in [0, 1], got {value}"
        )
    return value


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def cmd_analyze(args: argparse.Namespace) -> int:
    catalog = default_catalog(prefer=args.prefer)
    if args.benchmark:
        from repro.benchsuite import get_program

        bp = get_program(args.benchmark)
        program = bp.parse()
        runner = bp.make_runner() if args.dynamic else None
    else:
        program = SourceProgram.from_source(
            _load_source(args.file), name=args.file
        )
        runner = None

    shown = 0
    for func in program:
        if args.function and func.qualname != args.function:
            continue
        if not any(s.is_loop for s in func.walk()):
            continue
        supplied = runner(func.qualname) if runner else None
        fn, fargs, fkwargs = supplied if supplied else (None, (), {})
        model = build_semantic_model(
            func, fn=fn, args=fargs, kwargs=fkwargs, program=program
        )
        matches = catalog.detect(model)
        print(detection_report(model, matches))
        if args.overlay and matches:
            print()
            print(overlay_listing(func, matches[0], model))
        print("=" * 70)
        shown += 1
    if shown == 0:
        print("no functions with loops found", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------

def cmd_transform(args: argparse.Namespace) -> int:
    source = _load_source(args.file)
    patty = Patty(prefer=args.prefer)
    result = patty.parallelize(source)
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    for fname, annotated in result.annotated_sources.items():
        (out / f"{fname}.annotated.py").write_text(annotated)
    for fname, src in result.parallel_sources.items():
        (out / f"{fname}.parallel.py").write_text(src)
    (out / "tuning.json").write_text(json.dumps(result.tuning, indent=2))

    print(f"{len(result.matches)} pattern(s) detected:")
    for m in result.matches:
        print(f"  {m.location}: {m.pattern}")
    for fname, reason in result.skipped:
        print(f"  skipped {fname}: {reason}", file=sys.stderr)
    print(f"artifacts written to {out}/")
    return 0


# ---------------------------------------------------------------------------
# tune
# ---------------------------------------------------------------------------

_ALGORITHMS = {
    "linear": "LinearSearch",
    "hillclimb": "HillClimb",
    "neldermead": "NelderMead",
    "tabu": "TabuSearch",
}


def _build_workload(name: str, elements: int):
    from repro.simcore.costmodel import (
        balanced_workload,
        imbalanced_workload,
        jittered_workload,
        video_filter_workload,
    )

    return {
        "video": video_filter_workload,
        "balanced": balanced_workload,
        "imbalanced": imbalanced_workload,
        "jittered": jittered_workload,
    }[name](n=elements)


_WORKLOADS = ["video", "balanced", "imbalanced", "jittered"]


def cmd_tune(args: argparse.Namespace) -> int:
    import repro.tuning as tuning
    from repro.simcore import Machine
    from repro.evalq.speedup import pipeline_space
    from repro.tuning.autotuner import make_pipeline_measure

    wl = _build_workload(args.workload, args.elements)
    machine = Machine(cores=args.cores)
    space = pipeline_space(wl, max_replication=args.cores * 2)
    source = None
    calibrated = None
    if args.trace:
        # the measure phase runs for real, with span tracing on — every
        # evaluation carries a per-stage summary the tuner can explain
        source = tuning.TracedPipelineSource(
            wl, elements=24, time_budget=0.05
        )
        measure = source.measure
    elif args.calibrate:
        # one real traced run seeds the simulator with measured shapes;
        # tuning is then simulator-cheap and the winners re-run for real
        calibrated = tuning.CalibratedSource(
            wl, machine, elements=24, time_budget=0.05, top_k=args.top_k
        )
        calibrated.calibrate()
        measure = calibrated.measure
    else:
        measure = make_pipeline_measure(wl, machine)
    algorithm = getattr(tuning, _ALGORITHMS[args.algorithm])()
    tuner = tuning.AutoTuner(space, measure, algorithm, budget=args.budget)
    result = tuner.tune()

    base = measure(space.default_config())
    print(f"workload {args.workload}, {args.cores} cores, "
          f"{space.size()} configurations")
    print(f"default : {base * 1e3:8.2f} ms")
    print(f"tuned   : {result.best_runtime * 1e3:8.2f} ms "
          f"({result.improvement:.2f}x, {result.evaluations} evaluations)")
    print("best configuration:")
    for key, value in sorted(result.best_config.items()):
        print(f"  {key} = {value!r}")
    if source is not None:
        from repro.report import trace_report

        print()
        print(source.explain())
        print()
        print(trace_report(source.best_summary() or {}))
    if calibrated is not None:
        from repro.report import calibration_report

        calibrated.validate()
        print()
        print(calibration_report(calibrated.calibration.as_dict()))
        print()
        print(calibrated.explain())
    return 0


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------

def cmd_calibrate(args: argparse.Namespace) -> int:
    """Fit an empirical cost model from one real traced run.

    Runs the chosen cost-model workload for real (sleep stages scaled to
    the time budget) under the chosen backend with tracing on, fits an
    :class:`~repro.simcore.calibrate.EmpiricalStageCosts` per stage from
    the measured execute-latency distributions, writes the calibration
    JSON, and reports the simulated-vs-measured makespan error.
    """
    from repro.report import calibration_report
    from repro.simcore.calibrate import (
        CalibrationResult,
        fit_workload,
        replay_makespan,
        save_calibration,
    )
    from repro.simcore.machine import Machine
    from repro.tuning.calibrated import run_traced

    wl = _build_workload(args.workload, args.elements)
    per_element = wl.sequential_time() / max(wl.n, 1)
    scale = (
        args.time_budget / (per_element * args.elements)
        if per_element > 0
        else 1.0
    )
    wall, summary = run_traced(
        wl, args.elements, scale, backend=args.backend
    )
    fitted = fit_workload(summary, n=args.elements, like=wl)
    cal = CalibrationResult(
        fitted=fitted,
        summary=summary,
        measured_makespan=wall,
        simulated_makespan=replay_makespan(
            fitted, args.backend, Machine(cores=args.cores)
        ),
        backend=args.backend,
        elements=args.elements,
        meta={"workload": args.workload, "scale": scale},
    )
    print(calibration_report(cal.as_dict()))
    if args.out:
        path = pathlib.Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        save_calibration(path, fitted, meta=cal.as_dict()["meta"])
        print(f"\ncalibration written to {path}")
    return 0


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def cmd_validate(args: argparse.Namespace) -> int:
    from repro.benchsuite import get_program
    from repro.transform.testgen import (
        generate_unit_tests,
        render_pytest_source,
    )
    from repro.verify import run_parallel_test, with_chaos

    bp = get_program(args.benchmark)
    program = bp.parse()
    runner = bp.make_runner()
    catalog = default_catalog(prefer=args.prefer)
    failures = 0
    ran = 0
    all_tests = []
    chaos_seed = getattr(args, "chaos", None)
    for func in program:
        supplied = runner(func.qualname)
        if supplied is None:
            continue
        fn, fargs, fkwargs = supplied
        model = build_semantic_model(func, fn=fn, args=fargs, kwargs=fkwargs)
        for match in catalog.detect(model):
            if match.loop_sid not in model.loops:
                continue
            for test in generate_unit_tests(
                match, model.loop(match.loop_sid)
            ):
                all_tests.append(test)
                res = run_parallel_test(test)
                print(res.summary())
                ran += 1
                failures += not res.passed
                if chaos_seed is not None:
                    failures += not _chaos_check(
                        test,
                        with_chaos,
                        run_parallel_test,
                        seed=chaos_seed,
                        fail_rate=args.chaos_fail_rate,
                    )
    if args.emit:
        path = pathlib.Path(args.emit)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(render_pytest_source(all_tests))
        print(f"generated tests written to {path}")
    if ran == 0:
        print("no parallel unit tests generated", file=sys.stderr)
    print(
        f"{ran} test(s), {failures} failure(s): "
        + ("PARALLEL ERRORS FOUND" if failures else "VALIDATED")
    )
    return 1 if failures else 0


def _chaos_check(test, with_chaos, run_parallel_test, seed, fail_rate) -> bool:
    """Re-run one generated test under injected faults.

    The supervision contract: every injected fault must surface as a
    reported task error — none may vanish.  A chaos run passes iff no
    faults fired (probabilistic injection can miss) or at least as many
    task errors were reported as schedules hit a fault.
    """
    from repro.core.errors import ChaosValidationError
    from repro.runtime import ChaosInjector

    injector = ChaosInjector(seed=seed, fail_rate=fail_rate)
    chaos_test = with_chaos(test, injector)
    res = run_parallel_test(chaos_test)
    injected = injector.stats()["injected_failures"]
    ok = injected == 0 or res.task_errors > 0
    print(
        f"{'PASS' if ok else 'FAIL'} {chaos_test.name}: "
        f"{injected} fault(s) injected, {res.task_errors} task error(s) "
        f"reported over {res.schedules} schedules"
    )
    if not ok:
        # keep going (report all tests) but make the contract violation
        # loud — the caller counts this as a failure
        err = ChaosValidationError(
            f"{chaos_test.name}: {injected} injected fault(s) vanished"
        )
        print(f"  {err}", file=sys.stderr)
    return ok


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

def _run_transformed(args: argparse.Namespace, injector: Any = None) -> int:
    """Run ``args.benchmark``'s transformed functions once; count them.

    Generates the parallel variant of every detected top-level pattern
    whose function has benchmark inputs and calls it on
    ``args.backend`` (``serial`` runs a pipeline or master/worker region
    through ``SequentialExecution``), under ``injector``'s chaos if
    given.  The observer sessions the caller opened record the runs.  A
    variant that fails to compile is skipped and one that raises is
    reported, both on stderr; a raising run still counts.
    """
    import copy

    from repro.benchsuite import get_program
    from repro.evalq import suppress_nested
    from repro.transform import CodegenError, compile_parallel

    bp = get_program(args.benchmark)
    prog = bp.parse()
    ns = bp.namespace()
    catalog = default_catalog(prefer=args.prefer)
    matches = suppress_nested(
        catalog.detect_in_program(prog, runner=bp.make_runner())
    )
    sequential = args.backend == "serial"
    config = {
        "Backend@loop": args.backend,
        "SequentialExecution@workers": sequential,
        "SequentialExecution@pipeline": sequential,
    }
    if injector is not None:
        # keep the run alive under injected faults: retry once, then skip
        config.update({"Retries@loop": 1, "OnError@loop": "skip"})
    ran = 0
    for m in matches:
        if "." in m.function or m.function not in bp.inputs:
            continue
        func_ir = prog.function(m.function)
        try:
            par = compile_parallel(func_ir, m, dict(ns))
        except CodegenError as exc:
            print(f"  skipped {m.function}: {exc}", file=sys.stderr)
            continue
        fargs, fkwargs = bp.inputs[m.function]
        try:
            par(
                *copy.deepcopy(fargs),
                **dict(fkwargs),
                __tuning__=dict(config),
                __chaos__=injector,
            )
        except Exception as exc:  # noqa: BLE001 - report and continue
            print(
                f"  {m.function} raised {type(exc).__name__}: {exc}",
                file=sys.stderr,
            )
        ran += 1
    return ran


def cmd_trace(args: argparse.Namespace) -> int:
    """Run a benchmark's transformed functions with span tracing on.

    The observability workflow: generate the parallel variants of every
    detected (top-level, input-backed) pattern, execute them inside one
    trace session, and render the per-stage breakdown.  ``--export-json``
    additionally writes the run as a Chrome trace-event file, loadable in
    Perfetto / ``chrome://tracing``.
    """
    from repro.report import trace_report
    from repro.runtime import ChaosInjector
    from repro.runtime.trace import (
        TraceCollector,
        trace_session,
        write_chrome_trace,
    )

    backend = args.backend
    injector = None
    if args.chaos is not None:
        injector = ChaosInjector(seed=args.chaos, fail_rate=args.chaos_fail_rate)
    collector = TraceCollector(capacity=args.capacity)
    with trace_session(collector=collector):
        ran = _run_transformed(args, injector)
    if ran == 0:
        print("no runnable transformed functions found", file=sys.stderr)
        return 1

    print(
        f"traced {ran} transformed function(s) of {args.benchmark!r} "
        f"on the {backend!r} backend"
    )
    if injector is not None:
        stats = injector.stats()
        print(
            f"chaos: seed {args.chaos}, "
            f"{stats['injected_failures']} failure(s), "
            f"{stats['injected_delays']} delay(s) injected"
        )
    print()
    print(trace_report(collector.summary()))
    if args.export_json:
        path = pathlib.Path(args.export_json)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_chrome_trace(
            path, collector.spans(), label=args.benchmark,
            anchor=collector.anchor,
        )
        print(f"\nChrome trace written to {path} "
              f"(load in Perfetto or chrome://tracing)")
    return 0


# ---------------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------------

def cmd_profile(args: argparse.Namespace) -> int:
    """Run a benchmark's transformed functions under the sampling profiler.

    The second observability workflow: like ``repro trace`` but with the
    sampling profiler of :mod:`repro.runtime.profiler` active alongside
    span tracing, so the report can split each stage's wall clock into
    compute vs descheduled vs queue-wait vs IPC shares and diagnose what
    the run is bound on (``repro.tuning.hints``).  ``--export-folded``
    writes collapsed stacks for ``flamegraph.pl``, ``--export-speedscope``
    a speedscope.app JSON document, and ``--export-json`` a Chrome trace
    with the sampled work windows merged in as extra Perfetto tracks.
    """
    from repro.report import profile_report
    from repro.runtime.profiler import (
        SamplingProfiler,
        decompose,
        profile_session,
        write_folded,
        write_speedscope,
    )
    from repro.runtime.trace import (
        TraceCollector,
        trace_session,
        write_chrome_trace,
    )
    from repro.tuning.hints import classify

    backend = args.backend
    profiler = SamplingProfiler(hz=args.hz)
    collector = TraceCollector()
    with trace_session(collector=collector), profile_session(profiler=profiler):
        ran = _run_transformed(args)
    if ran == 0:
        print("no runnable transformed functions found", file=sys.stderr)
        return 1

    print(
        f"profiled {ran} transformed function(s) of {args.benchmark!r} "
        f"on the {backend!r} backend at {args.hz:g}Hz"
    )
    print()
    summary = profiler.summary()
    dec = decompose(summary, trace_summary=collector.summary())
    diagnosis = classify(dec, backend=backend)
    print(profile_report(summary, dec, diagnosis.to_dict()))
    if args.export_folded:
        path = pathlib.Path(args.export_folded)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_folded(path, profiler)
        print(f"\ncollapsed stacks written to {path} "
              f"(pipe through flamegraph.pl)")
    if args.export_speedscope:
        path = pathlib.Path(args.export_speedscope)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_speedscope(path, profiler, name=args.benchmark)
        print(f"speedscope profile written to {path} "
              f"(open at speedscope.app)")
    if args.export_json:
        path = pathlib.Path(args.export_json)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_chrome_trace(
            path, collector.spans(), label=args.benchmark,
            anchor=collector.anchor, profile=profiler.sample_events(),
        )
        print(f"Chrome trace with sample tracks written to {path}")
    return 0


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def cmd_run(args: argparse.Namespace) -> int:
    """Run one CPU-bound kernel end to end on the resilient runtime.

    The crash-recovery workflow: ``--checkpoint`` journals every
    completed chunk to an append-only file; a run killed mid-flight can
    be restarted with ``--resume`` and re-executes only the unfinished
    chunks.  ``--restarts`` bounds worker respawns on worker loss,
    ``--hedge`` speculatively re-dispatches stragglers, and ``--chaos``
    with ``--chaos-kill-rate`` SIGKILLs seeded workers to exercise the
    recovery path on purpose.

    The observability workflow rides the same command: ``--metrics``
    collects run-wide counters (merged from the workers over the chunk
    result road), ``--metrics-out`` persists them (JSON snapshot, or
    OpenMetrics text for ``.txt``/``.prom`` paths), ``--live`` renders a
    one-line TTY dashboard while the run is in flight, and whenever
    metrics and a checkpoint are both active a flight recorder keeps a
    crash-surviving snapshot ring beside the journal — which ``--resume``
    reports before continuing.
    """
    import time

    from repro.evalq.realexec import default_kernels
    from repro.report import fault_report, metrics_report
    from repro.runtime import ChaosInjector, ChunkJournal, FaultPolicy, parallel_for
    from repro.runtime.flight import FlightRecorder, describe_last, flight_path
    from repro.runtime.metrics import MetricsRegistry, to_openmetrics

    kernels = {k.name: k for k in default_kernels(args.scale)}
    kernel = kernels[args.kernel]
    values = list(kernel.values)
    chunk_size = args.chunk_size or kernel.chunk_size

    journal = None
    if args.resume:
        note = describe_last(flight_path(args.resume))
        if note:
            print(note)
        journal = ChunkJournal.resume(args.resume)
    elif args.checkpoint:
        journal = ChunkJournal.create(args.checkpoint)

    metrics = None
    if args.metrics or args.metrics_out or args.live:
        metrics = MetricsRegistry()

    profiler = None
    if args.profile or args.profile_out:
        from repro.runtime.profiler import SamplingProfiler

        profiler = SamplingProfiler()
        if metrics is None:
            # the decomposition joins samples with the run-wide metrics
            # (chunk latency, dedup counts), so profiling implies them
            metrics = MetricsRegistry()

    injector = None
    policy = None
    if args.chaos is not None:
        injector = ChaosInjector(
            seed=args.chaos,
            fail_rate=args.chaos_fail_rate,
            kill_rate=args.chaos_kill_rate,
        )
        if args.chaos_fail_rate:
            # keep the run alive under injected call faults: retry once,
            # then record the failure instead of raising (worker kills
            # need no policy — the respawn budget handles those)
            policy = FaultPolicy(retries=1, on_error="skip")

    recorder = None
    if metrics is not None and journal is not None:
        recorder = FlightRecorder(metrics, flight_path(journal.path)).start()
    dashboard = None
    if args.live and metrics is not None:
        from repro.runtime.dashboard import LiveDashboard

        from repro.runtime.adaptive import plan_chunks

        # the exact plan the run executes (adaptive plans as guided)
        nchunks = len(
            plan_chunks(len(values), chunk_size, args.schedule, args.workers)
        )
        dashboard = LiveDashboard(
            metrics, total_chunks=nchunks, label=kernel.name
        ).start()

    ledger: list = []
    events: list = []
    recovery: list = []
    started = time.monotonic()
    error: BaseException | None = None
    results: list = []
    try:
        results = parallel_for(
            values,
            kernel.body,
            workers=args.workers,
            chunk_size=chunk_size,
            schedule=args.schedule,
            backend=args.backend,
            policy=policy,
            chaos=injector,
            ledger=ledger,
            events=events,
            restarts=args.restarts,
            hedge=args.hedge,
            recovery=recovery,
            checkpoint=journal,
            transport=args.transport,
            metrics=metrics,
            profiler=profiler,
        )
    except Exception as exc:  # noqa: BLE001 - report, don't traceback
        error = exc
    finally:
        if dashboard is not None:
            dashboard.stop()
        if recorder is not None:
            recorder.stop()
        if journal is not None:
            journal.close()
    elapsed = time.monotonic() - started

    plane = ""
    if args.backend == "process":
        plane = f"{args.transport} transport, "
    print(
        f"kernel {kernel.name!r}: {len(values)} element(s), "
        f"chunk size {chunk_size}, {args.workers} worker(s), "
        f"{args.schedule} schedule, {args.backend} backend, "
        f"{plane}{elapsed:.2f}s"
    )
    failed = sorted({r.seq for r in ledger})
    delivered = len(results) - len(failed) if results else 0
    accounted = error is None and delivered + len(failed) == len(values)
    if error is not None:
        print(f"run failed: {error!r}")
    else:
        print(
            f"accounting: {delivered} delivered + {len(failed)} "
            f"failed = {delivered + len(failed)}/{len(values)} "
            f"item(s) accounted for"
        )
    stats = {
        "backend": args.backend,
        "backend_events": [e.as_dict() for e in events],
        "generated": len(values),
        "delivered": delivered,
        "skipped": len(failed),
        "errors": [(r.stage, r.seq, repr(r.error)) for r in ledger],
        "recovery": recovery,
    }
    if journal is not None:
        stats["checkpoint"] = journal.summary()
    if injector is not None:
        cs = injector.stats()
        print(
            f"chaos: seed {args.chaos}, "
            f"{cs.get('injected_failures', 0)} failure(s), "
            f"{cs.get('injected_delays', 0)} delay(s) injected"
        )
    print()
    print(fault_report(stats))
    if args.metrics or args.metrics_out or args.live:
        print()
        print(metrics_report(metrics.snapshot()))
    if profiler is not None:
        from repro.report import profile_report
        from repro.runtime.profiler import decompose, write_folded, write_speedscope
        from repro.tuning.hints import classify

        summary = profiler.summary()
        dec = decompose(summary, metrics_registry=metrics)
        diagnosis = classify(
            dec,
            backend=args.backend,
            transport=args.transport,
            chunk_size=chunk_size,
            workers=args.workers,
        )
        print()
        print(profile_report(summary, dec, diagnosis.to_dict()))
        if args.profile_out:
            out = pathlib.Path(args.profile_out)
            out.parent.mkdir(parents=True, exist_ok=True)
            if out.suffix in (".folded", ".txt"):
                write_folded(out, profiler)
            else:
                write_speedscope(out, profiler, name=kernel.name)
            print(f"\nprofile written to {out}")
    if args.metrics_out:
        out = pathlib.Path(args.metrics_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        if out.suffix in (".txt", ".prom", ".om"):
            out.write_text(to_openmetrics(metrics.snapshot()))
        else:
            out.write_text(json.dumps(metrics.snapshot(), indent=2) + "\n")
        print(f"\nmetrics written to {out}")
    verified = True
    if args.verify and error is None:
        if failed:
            print(f"\nverify: skipped ({len(failed)} failed element(s))")
        else:
            expect = kernel.combine([kernel.body(v) for v in values])
            got = kernel.combine(list(results))
            verified = got == expect
            print(
                f"\nverify: parallel {got!r} vs serial {expect!r} — "
                + ("OK" if verified else "MISMATCH")
            )
    return 0 if accounted and verified else 1


# ---------------------------------------------------------------------------
# metrics / bench
# ---------------------------------------------------------------------------

def cmd_metrics(args: argparse.Namespace) -> int:
    """Render a persisted metrics snapshot (``repro run --metrics-out``).

    Accepts either a JSON snapshot or an OpenMetrics v1 text exposition
    (what ``--metrics-out`` writes for ``.txt``/``.prom`` paths) — the
    two are views of the same registry, so both render.  Default output
    is the human report; ``--openmetrics`` emits OpenMetrics text
    instead, completing the round trip in either direction.
    """
    from repro.report import metrics_report
    from repro.runtime.metrics import parse_openmetrics, to_openmetrics

    try:
        text = pathlib.Path(args.snapshot).read_text()
    except OSError as exc:
        print(f"cannot read snapshot {args.snapshot}: {exc}", file=sys.stderr)
        return 1
    snap = None
    try:
        snap = json.loads(text)
    except ValueError:
        pass
    if snap is not None:
        if args.openmetrics:
            print(to_openmetrics(snap), end="")
        else:
            print(metrics_report(snap))
        return 0
    # not JSON: try the OpenMetrics text exposition
    try:
        samples = parse_openmetrics(text)
    except ValueError as exc:
        print(
            f"{args.snapshot} is neither a JSON snapshot nor an "
            f"OpenMetrics exposition: {exc}",
            file=sys.stderr,
        )
        return 1
    if args.openmetrics:
        # already the requested representation; echo it verbatim
        print(text, end="" if text.endswith("\n") else "\n")
        return 0
    lines = [f"metrics report ({len(samples)} OpenMetrics sample(s))"]
    for name in sorted(samples):
        lines.append(f"  {name}: {samples[name]:g}")
    print("\n".join(lines))
    return 0


def cmd_flight(args: argparse.Namespace) -> int:
    """Inspect a flight-recorder ring (``<checkpoint>.flight``).

    Standalone access to what ``repro run --resume`` prints before
    continuing: the last snapshot's headline counters, plus the whole
    ring tick by tick with ``--all`` — useful for post-morteming a run
    that was killed and will *not* be resumed.
    """
    from repro.runtime.flight import FlightRecorder, describe_last, flight_path
    from repro.runtime.metrics import MetricsRegistry

    path = pathlib.Path(args.snapshot)
    if not path.name.endswith(".flight"):
        # accept the checkpoint path and find the ring beside it
        sibling = flight_path(path)
        if not sibling.exists() and path.exists():
            # a checkpoint journal with no ring beside it: the run was
            # made without --metrics, so no recorder ever started
            print(
                f"no flight recording found beside {path} "
                f"(expected {sibling}; was the run made with --metrics?)",
                file=sys.stderr,
            )
            return 1
        path = sibling
    try:
        doc = FlightRecorder.load(path)
    except (OSError, ValueError) as exc:
        print(f"cannot read flight recording {path}: {exc}", file=sys.stderr)
        return 1
    snaps = doc.get("snapshots") or []
    print(
        f"flight recording {path}: {doc.get('ticks', 0)} tick(s) at "
        f"{doc.get('interval', 0.0):g}s, ring keeps {doc.get('keep', 0)}, "
        f"{len(snaps)} snapshot(s) on disk"
    )
    note = describe_last(path)
    if note:
        print(note)
    if args.all:
        base = float(snaps[0].get("time", 0.0)) if snaps else 0.0
        for i, snap in enumerate(snaps):
            reg = MetricsRegistry.from_snapshot(snap)
            parts = [f"t+{float(snap.get('time', 0.0)) - base:6.2f}s"]
            for name, label in (
                ("chunks_completed", "chunks"),
                ("chunks_deduped", "deduped"),
                ("elements_delivered", "delivered"),
                ("pool_respawns", "respawns"),
                ("pool_hedges", "hedges"),
            ):
                total = reg.total(name)
                if total:
                    parts.append(f"{label}={int(total)}")
            print(f"  [{i}] " + ", ".join(parts))
    return 0


def cmd_bench_report(args: argparse.Namespace) -> int:
    """Consolidate ``benchmarks/results/*.json`` into one table."""
    from repro.benchresults import load_results
    from repro.report import bench_report

    docs = load_results(args.dir)
    if not docs:
        print(f"no benchmark results found under {args.dir}",
              file=sys.stderr)
        return 1
    print(bench_report(docs))
    return 0


# ---------------------------------------------------------------------------
# backends
# ---------------------------------------------------------------------------

def cmd_backends(args: argparse.Namespace) -> int:
    from repro.evalq.realexec import (
        available_cores,
        render_table,
        sweep_backends,
        write_results,
    )

    scale = 0.15 if args.smoke else args.scale
    rows = sweep_backends(
        workers=args.workers, scale=scale,
        transport=args.transport, schedule=args.schedule,
    )
    print(render_table(rows))
    cores = available_cores()
    print(
        f"\n{cores} core(s) available; thread vs process contrast is the "
        "GIL made visible"
        + (" (single core: process speedup not expected here)"
           if cores < 2 else "")
    )
    if args.json:
        write_results(rows, args.json, workers=args.workers, scale=scale)
        print(f"results written to {args.json}")
    return 0


# ---------------------------------------------------------------------------
# study / quality / programs
# ---------------------------------------------------------------------------

def cmd_study(args: argparse.Namespace) -> int:
    from repro.study import run_study

    results = run_study(seed=args.seed) if args.seed else run_study()
    print("== Table 1: Comprehensibility ==")
    print(results.render_table1())
    print("\n== Table 2: Subjective tool assistance ==")
    print(results.render_table2())
    print("\n== Fig 5a: Desired features ==")
    print(results.render_fig5a())
    print("\n== Fig 5b: Time measurements ==")
    print(results.render_fig5b())
    print("\n== Effectivity ==")
    print(results.render_effectivity())
    return 0


def cmd_quality(args: argparse.Namespace) -> int:
    from repro.evalq import evaluate_suite

    suite = evaluate_suite(dynamic=not args.static)
    print(suite.table())
    return 0


def cmd_programs(args: argparse.Namespace) -> int:
    from repro.benchsuite import all_programs

    for bp in all_programs():
        print(
            f"{bp.name:<14} {bp.domain:<10} {bp.n_lines:>4} lines  "
            f"{len(bp.positive_truth())}+/{len(bp.negative_truth())}-  "
            f"{bp.description}"
        )
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Patty reproduction: pattern-based parallelization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="detect parallel patterns")
    p.add_argument("file", nargs="?", help="Python source file")
    p.add_argument("--benchmark", help="bundled benchmark name instead")
    p.add_argument("--function", help="restrict to one function")
    p.add_argument("--prefer", default="doall",
                   choices=["doall", "pipeline"])
    p.add_argument("--dynamic", action="store_true",
                   help="run the dynamic analyses (benchmarks only)")
    p.add_argument("--overlay", action="store_true",
                   help="print the stage/share source overlay")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("transform", help="generate parallel code + tuning file")
    p.add_argument("file")
    p.add_argument("--out", default="patty-out")
    p.add_argument("--prefer", default="doall",
                   choices=["doall", "pipeline"])
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("tune", help="auto-tune on the simulated machine")
    p.add_argument("--workload", default="video", choices=_WORKLOADS)
    p.add_argument("--cores", type=int, default=4)
    p.add_argument("--elements", type=int, default=200)
    p.add_argument("--budget", type=int, default=100)
    p.add_argument("--algorithm", default="linear",
                   choices=sorted(_ALGORITHMS))
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true",
                      help="measure by real traced execution and explain "
                           "the best configuration from its spans")
    mode.add_argument("--calibrate", action="store_true",
                      help="fit the simulator from one real traced run, "
                           "tune on it cheaply, then validate the top-k "
                           "configurations with real traced runs")
    p.add_argument("--top-k", type=int, default=3,
                   help="configurations to validate for real "
                        "(--calibrate only)")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser(
        "calibrate",
        help="fit an empirical cost model from a real traced run",
    )
    p.add_argument("--workload", default="jittered", choices=_WORKLOADS)
    p.add_argument("--elements", type=int, default=48,
                   help="stream length of the traced run")
    p.add_argument("--backend", default="thread",
                   choices=["serial", "thread", "process"])
    p.add_argument("--cores", type=int, default=4,
                   help="simulated cores for the fitted-model replay")
    p.add_argument("--time-budget", type=float, default=0.25,
                   help="target wall seconds of one sequential pass")
    p.add_argument("--out", metavar="PATH",
                   help="write the fitted cost model as calibration JSON")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser(
        "trace",
        help="run a benchmark's transformed functions with span tracing",
    )
    p.add_argument("--benchmark", required=True)
    p.add_argument("--prefer", default="doall",
                   choices=["doall", "pipeline"])
    p.add_argument("--backend", default="thread",
                   choices=["serial", "thread", "process"])
    p.add_argument("--export-json", metavar="PATH",
                   help="write a Chrome trace-event file (Perfetto)")
    p.add_argument("--capacity", type=int, default=16384,
                   help="span ring-buffer capacity")
    p.add_argument("--chaos", type=int, default=None, metavar="SEED",
                   help="run under seeded fault injection")
    p.add_argument("--chaos-fail-rate", type=_rate, default=0.05,
                   help="per-call injected failure probability in [0, 1]")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "profile",
        help="run a benchmark's transformed functions under the "
             "sampling profiler (wall-clock decomposition + hints)",
    )
    p.add_argument("--benchmark", required=True)
    p.add_argument("--prefer", default="doall",
                   choices=["doall", "pipeline"])
    p.add_argument("--backend", default="thread",
                   choices=["serial", "thread", "process"])
    p.add_argument("--hz", type=float, default=97.0,
                   help="stack sampling frequency")
    p.add_argument("--export-folded", metavar="PATH",
                   help="write collapsed stacks (flamegraph.pl input)")
    p.add_argument("--export-speedscope", metavar="PATH",
                   help="write a speedscope.app JSON profile")
    p.add_argument("--export-json", metavar="PATH",
                   help="write a Chrome trace with sample tracks "
                        "(Perfetto)")
    p.set_defaults(func=cmd_profile)

    for name, help_ in (
        ("validate", "run generated parallel unit tests"),
        ("verify", "alias for validate"),
    ):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--benchmark", required=True)
        p.add_argument("--prefer", default="doall",
                       choices=["doall", "pipeline"])
        p.add_argument("--emit",
                       help="also write the tests as a pytest file")
        p.add_argument("--chaos", type=int, default=None, metavar="SEED",
                       help="re-run each test under seeded fault injection")
        p.add_argument("--chaos-fail-rate", type=_rate, default=0.05,
                       help="per-call injected failure probability in [0, 1]")
        p.set_defaults(func=cmd_validate)

    p = sub.add_parser(
        "run",
        help="run one kernel on the resilient runtime "
             "(crash recovery, checkpoint/resume, hedging, chaos)",
    )
    p.add_argument("--kernel", default="montecarlo",
                   choices=["mandelbrot", "montecarlo", "nbody"])
    p.add_argument("--scale", type=float, default=0.15,
                   help="work multiplier per kernel element")
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--chunk-size", type=int, default=0,
                   help="elements per dispatched chunk (0 = kernel default)")
    p.add_argument("--schedule", default="dynamic",
                   choices=["static", "dynamic", "guided", "adaptive"],
                   help="chunk discipline: fixed stripes (static/dynamic) "
                        "or geometric shrink (guided); adaptive is an "
                        "alias of guided")
    p.add_argument("--backend", default="process",
                   choices=["serial", "thread", "process"])
    p.add_argument("--restarts", type=int, default=2,
                   help="worker respawn budget on worker loss (PoolRestarts)")
    p.add_argument("--hedge", type=_rate, default=0.0,
                   help="straggler-hedging latency quantile (0 = off)")
    p.add_argument("--transport", default="pickle",
                   choices=["pickle", "shm"],
                   help="process-backend data plane: pickle messages or "
                        "zero-copy shared memory (Transport)")
    ck = p.add_mutually_exclusive_group()
    ck.add_argument("--checkpoint", metavar="PATH",
                    help="journal completed chunks to PATH (fresh run)")
    ck.add_argument("--resume", metavar="PATH",
                    help="resume an existing journal: only unfinished "
                         "chunks re-execute")
    p.add_argument("--chaos", type=int, default=None, metavar="SEED",
                   help="run under seeded fault injection")
    p.add_argument("--chaos-fail-rate", type=_rate, default=0.0,
                   help="per-call injected failure probability in [0, 1]")
    p.add_argument("--chaos-kill-rate", type=_rate, default=0.0,
                   help="per-chunk worker SIGKILL probability "
                        "(process backend)")
    p.add_argument("--verify", action="store_true",
                   help="compare the combined result against a serial rerun")
    p.add_argument("--metrics", action="store_true",
                   help="collect run-wide metrics (Metrics) and print the "
                        "metric report")
    p.add_argument("--metrics-out", metavar="PATH",
                   help="persist the metrics (implies --metrics): JSON "
                        "snapshot, or OpenMetrics text for .txt/.prom paths")
    p.add_argument("--live", action="store_true",
                   help="render a live one-line dashboard while the run "
                        "is in flight (implies --metrics)")
    p.add_argument("--profile", action="store_true",
                   help="sample worker stacks during the run (Profile) "
                        "and print the profile report with tuning hints")
    p.add_argument("--profile-out", metavar="PATH",
                   help="persist the profile (implies --profile): "
                        "speedscope JSON, or collapsed stacks for "
                        ".folded/.txt paths")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "metrics",
        help="render a metrics snapshot written by `run --metrics-out`",
    )
    p.add_argument("snapshot",
                   help="metrics snapshot: JSON, or OpenMetrics text")
    p.add_argument("--openmetrics", action="store_true",
                   help="emit OpenMetrics v1 text instead of the report")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser(
        "flight",
        help="inspect a flight-recorder ring written beside a checkpoint",
    )
    p.add_argument("snapshot",
                   help="flight file (<checkpoint>.flight) or the "
                        "checkpoint path itself")
    p.add_argument("--all", action="store_true",
                   help="list every snapshot in the ring, not just the last")
    p.set_defaults(func=cmd_flight)

    p = sub.add_parser(
        "bench",
        help="benchmark results tooling (`bench report`)",
    )
    bench_sub = p.add_subparsers(dest="bench_command", required=True)
    p = bench_sub.add_parser(
        "report",
        help="consolidate benchmarks/results/*.json into one table",
    )
    p.add_argument("--dir", default="benchmarks/results",
                   help="results directory to consolidate")
    p.set_defaults(func=cmd_bench_report)

    p = sub.add_parser(
        "backends",
        help="measure serial/thread/process wall-clock on CPU-bound kernels",
    )
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--scale", type=float, default=1.0,
                   help="work multiplier per kernel element")
    p.add_argument("--smoke", action="store_true",
                   help="small fixed scale for CI (a few seconds total)")
    p.add_argument("--transport", default="pickle",
                   choices=["pickle", "shm"],
                   help="process-backend data plane for the sweep")
    p.add_argument("--schedule", default="dynamic",
                   choices=["static", "dynamic", "guided", "adaptive"],
                   help="chunk discipline for the pooled rows (Schedule)")
    p.add_argument("--json", metavar="PATH",
                   help="also write the sweep as a results JSON")
    p.set_defaults(func=cmd_backends)

    p = sub.add_parser("study", help="run the simulated user study")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_study)

    p = sub.add_parser("quality", help="detection-quality evaluation")
    p.add_argument("--static", action="store_true",
                   help="pessimistic static analysis only (ablation)")
    p.set_defaults(func=cmd_quality)

    p = sub.add_parser("programs", help="list bundled benchmark programs")
    p.set_defaults(func=cmd_programs)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "analyze" and not (args.file or args.benchmark):
        parser.error("analyze needs a FILE or --benchmark")
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
