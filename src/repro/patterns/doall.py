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
Then the backend, supervision, resilience, data-plane and observability
knobs; every knob comes from the catalog ``repro.patterns.tuning.KNOBS``.
"""

from __future__ import annotations

from repro.frontend.ir import StatementKind
from repro.model.dependence import DepKind
from repro.frontend.source import SourceLocation
from repro.model.semantic import LoopModel, SemanticModel
from repro.patterns.base import PatternMatch, SourcePattern
from repro.patterns.tuning import knob, knobs
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
            knob("NumWorkers", "loop", loc, hi=self.max_workers),
            *knobs(
                "loop", loc,
                "ChunkSize", "Schedule", "SequentialExecution", "Backend",
                # supervision (FaultPolicy), honoured by
                # configured_parallel_for in the generated code
                "Retries", "ItemTimeout", "OnError",
                # process backend: resilience and the data plane
                "PoolRestarts", "Hedge", "Transport",
                "Trace", "Metrics", "Profile",
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
