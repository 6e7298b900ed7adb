"""Data-parallel loop (DOALL) detection.

A loop is data-parallel when no dependence crosses iterations — after
discounting the two removable idioms:

* **reductions** (``acc += f(i)`` with an associative operator): replaced
  by a parallel reduction at transformation time;
* **collectors** (``out.append(e)`` on an otherwise untouched container):
  replaced by index-ordered collection.

Control flow: ``continue`` only affects its own iteration and is fine;
``break``/``return``/``raise`` couple iterations and disqualify the loop
(same reasoning as the pipeline PLCD rule).

Tuning parameters: ``NumWorkers``, ``ChunkSize``, ``Schedule`` (static /
dynamic / guided assignment of chunk descriptors — see
``repro.runtime.adaptive``) and ``SequentialExecution`` — the latter
implements the paper's guarantee that a transformed loop "never leads to a
slowdown in comparison to the former sequential version" on short streams.
"""

from __future__ import annotations

from repro.frontend.ir import StatementKind
from repro.model.dependence import DepKind
from repro.frontend.source import SourceLocation
from repro.model.semantic import LoopModel, SemanticModel
from repro.patterns.base import PatternMatch, SourcePattern
from repro.patterns.tuning import (
    BACKEND,
    BACKEND_DOMAIN,
    CHUNK_SIZE,
    HEDGE,
    HEDGE_DOMAIN,
    ITEM_TIMEOUT,
    ITEM_TIMEOUT_DOMAIN,
    NUM_WORKERS,
    ON_ERROR,
    ON_ERROR_DOMAIN,
    POOL_RESTARTS,
    POOL_RESTARTS_DOMAIN,
    RETRIES,
    RETRIES_DOMAIN,
    METRICS,
    PROFILE,
    SCHEDULE,
    SCHEDULE_DOMAIN,
    SEQUENTIAL_EXECUTION,
    TRACE,
    TRANSPORT,
    TRANSPORT_DOMAIN,
    BoolParameter,
    ChoiceParameter,
    IntParameter,
)
from repro.tadl.ast import DataParallel, StageRef


class DoallPattern(SourcePattern):
    name = "doall"

    def __init__(self, max_workers: int = 16):
        self.max_workers = max_workers

    def match(
        self, model: SemanticModel, loop: LoopModel
    ) -> PatternMatch | None:
        body = loop.loop.body
        if not body:
            return None
        if not loop.loop.is_foreach:
            # a while loop has no enumerable iteration space to chunk —
            # its header condition couples consecutive iterations
            return None

        # control transfers that couple iterations disqualify the loop
        for st in body:
            for sub in st.walk():
                if sub.kind in (
                    StatementKind.BREAK,
                    StatementKind.RETURN,
                    StatementKind.RAISE,
                ):
                    # transfers belonging to a *nested* loop are local to it
                    if not _inside_nested_loop(st, sub, loop):
                        return None

        reductions = loop.reductions
        collectors = loop.collectors
        excusable_sids = {r.sid for r in reductions} | {
            c.sid for c in collectors
        }
        excusable_syms = {r.symbol for r in reductions} | {
            c.symbol for c in collectors
        }

        # "last value" idiom: a plain scalar whose only carried hazards are
        # output dependences is parallelizable by committing the final
        # iteration's value after the loop (the code generator emits the
        # write-back, or declines when the writes are conditional)
        carried = loop.deps.carried()
        by_symbol: dict = {}
        for e in carried:
            by_symbol.setdefault(e.symbol, set()).add(e.kind)
        final_value_syms = {
            sym
            for sym, kinds in by_symbol.items()
            if kinds == {DepKind.OUTPUT}
            and not sym.is_container
            and not sym.is_attribute
        }

        blocking = [
            e
            for e in carried
            if not (
                e.symbol in excusable_syms
                or e.symbol in final_value_syms
                or (e.src in excusable_sids and e.dst in excusable_sids
                    and e.src == e.dst)
            )
        ]
        if blocking:
            return None

        loc = f"{model.function.qualname}:{loop.sid}"
        tuning = [
            IntParameter(
                name=NUM_WORKERS,
                target="loop",
                default=4,
                lo=1,
                hi=self.max_workers,
                location=loc,
            ),
            ChoiceParameter(
                name=CHUNK_SIZE,
                target="loop",
                default=1,
                choices=(1, 2, 4, 8, 16, 32, 64, 128),
                location=loc,
            ),
            ChoiceParameter(
                name=SCHEDULE,
                target="loop",
                default="dynamic",
                choices=SCHEDULE_DOMAIN,
                location=loc,
            ),
            BoolParameter(
                name=SEQUENTIAL_EXECUTION,
                target="loop",
                default=False,
                location=loc,
            ),
            # the execution substrate: thread by default (safe anywhere);
            # the tuner flips to process for CPU-bound bodies, where it is
            # the only value that beats the GIL
            ChoiceParameter(
                name=BACKEND,
                target="loop",
                default="thread",
                choices=BACKEND_DOMAIN,
                location=loc,
            ),
            # supervision knobs for the loop body (FaultPolicy); honoured
            # by configured_parallel_for in the generated code
            ChoiceParameter(
                name=RETRIES,
                target="loop",
                default=0,
                choices=RETRIES_DOMAIN,
                location=loc,
            ),
            ChoiceParameter(
                name=ITEM_TIMEOUT,
                target="loop",
                default=0.0,
                choices=ITEM_TIMEOUT_DOMAIN,
                location=loc,
            ),
            ChoiceParameter(
                name=ON_ERROR,
                target="loop",
                default="fail_fast",
                choices=ON_ERROR_DOMAIN,
                location=loc,
            ),
            # resilience knobs (process backend): worker respawn budget
            # and straggler-hedging quantile; defaults keep both off so
            # the historical behaviour is the zero configuration
            ChoiceParameter(
                name=POOL_RESTARTS,
                target="loop",
                default=0,
                choices=POOL_RESTARTS_DOMAIN,
                location=loc,
            ),
            ChoiceParameter(
                name=HEDGE,
                target="loop",
                default=0.0,
                choices=HEDGE_DOMAIN,
                location=loc,
            ),
            # data-plane knob (process backend): how data crosses the
            # process boundary; the pickle default works for any data
            ChoiceParameter(
                name=TRANSPORT,
                target="loop",
                default="pickle",
                choices=TRANSPORT_DOMAIN,
                location=loc,
            ),
            # observability: per-element span collection (off by default;
            # the tuner's measure phase and `repro trace` turn it on)
            BoolParameter(
                name=TRACE,
                target="loop",
                default=False,
                location=loc,
            ),
            # observability: counter/gauge/histogram collection (off by
            # default; `repro run --metrics-out` / `--live` turn it on)
            BoolParameter(
                name=METRICS,
                target="loop",
                default=False,
                location=loc,
            ),
            # observability: sampling profiler with per-chunk folded
            # stacks (off by default; `repro profile` turns it on)
            BoolParameter(
                name=PROFILE,
                target="loop",
                default=False,
                location=loc,
            ),
        ]

        notes = []
        if reductions:
            notes.append(
                "reductions: "
                + ", ".join(f"{r.symbol} ({r.op}) at {r.sid}" for r in reductions)
            )
        if collectors:
            notes.append(
                "ordered collectors: "
                + ", ".join(f"{c.symbol} at {c.sid}" for c in collectors)
            )
        if final_value_syms:
            notes.append(
                "final-value scalars: "
                + ", ".join(sorted(s.name for s in final_value_syms))
            )

        return PatternMatch(
            pattern=self.name,
            function=model.function.qualname,
            location=SourceLocation(
                function=model.function.qualname,
                sid=loop.sid,
                line=loop.loop.line,
            ),
            tadl=DataParallel(StageRef("BODY")),
            stages={"BODY": [s.sid for s in body]},
            tuning=tuning,
            confidence=1.0 if loop.trace is not None else 0.6,
            notes=notes,
            extras={"reductions": reductions, "collectors": collectors},
        )


def _inside_nested_loop(top_stmt, sub, loop) -> bool:
    """True when ``sub`` sits inside a loop nested within ``top_stmt`` —
    its control transfer then never escapes the outer iteration.

    ``return``/``raise`` always escape, nested loop or not.
    """
    if sub.kind in (StatementKind.RETURN, StatementKind.RAISE):
        return False
    for candidate in top_stmt.walk():
        if candidate.is_loop and candidate.sid != loop.sid:
            if any(s.sid == sub.sid for s in candidate.walk()):
                return True
    return False
