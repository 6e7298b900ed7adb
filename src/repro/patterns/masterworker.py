"""Master/worker detection.

The master/worker target pattern executes independent work items
concurrently and joins their results.  Its sequential source pattern is a
straight-line region with two or more mutually independent statements of
non-trivial cost — the paper's Fig. 3d builds exactly this for the three
filter applications before nesting it into a pipeline.

:class:`PatternCatalog` applies the detector to loop bodies when neither
DOALL nor pipeline matched; :func:`independent_groups` works on any
statement sequence.
"""

from __future__ import annotations

from repro.frontend.source import SourceLocation
from repro.model.dependence import DependenceGraph
from repro.model.semantic import LoopModel, SemanticModel
from repro.patterns.base import PatternMatch, SourcePattern, stage_names
from repro.patterns.tuning import knobs
from repro.tadl.ast import Parallel, Pipeline, StageRef


def independent_groups(
    sids: list[str], deps: DependenceGraph
) -> list[list[str]]:
    """Split a statement sequence into maximal runs of mutually independent
    statements.

    Returns the ordered list of groups; a group of length >= 2 is a
    master/worker candidate.  Same-iteration dependences of any kind (and
    direction) between two statements place them in different groups;
    loop-carried dependences do not, because the enclosing iterations stay
    sequential under master/worker-per-iteration, so a value crossing the
    back edge is already committed when the next iteration's workers start.
    """
    coupled: set[tuple[str, str]] = set()
    for e in deps.independent():
        coupled.add((e.src, e.dst))
        coupled.add((e.dst, e.src))

    groups: list[list[str]] = []
    current: list[str] = []
    for sid in sids:
        if all((sid, other) not in coupled for other in current):
            current.append(sid)
        else:
            groups.append(current)
            current = [sid]
    if current:
        groups.append(current)
    return groups


class MasterWorkerPattern(SourcePattern):
    name = "masterworker"

    def __init__(self, min_group: int = 2, min_share: float = 0.08):
        self.min_group = min_group
        #: with runtime information, a group member below this share of the
        #: loop's time is not worth a worker (threading overhead dominates)
        self.min_share = min_share

    def match(
        self, model: SemanticModel, loop: LoopModel
    ) -> PatternMatch | None:
        """Match a loop body that contains an independent statement group.

        Unlike the pipeline pattern the whole loop stays sequential; only
        the independent statements *within* one iteration run in parallel —
        useful when carried dependences forbid both DOALL and pipelining of
        the other statements.
        """
        body = loop.loop.body
        if len(body) < self.min_group:
            return None
        for st in body:
            if st.contains_control_transfer():
                return None

        sids = [s.sid for s in body]
        groups = independent_groups(sids, loop.deps)
        best = max(groups, key=len)
        if len(best) < self.min_group:
            return None

        # profitability: enough of the group must carry real work
        if loop.profile is not None:
            weighty = [
                sid for sid in best if loop.profile.share(sid) >= self.min_share
            ]
            if len(weighty) < self.min_group:
                return None

        names = stage_names(len(sids))
        by_sid = dict(zip(sids, names))
        refs = tuple(StageRef(by_sid[s]) for s in best)
        parallel = Parallel(refs)

        # sequence: statements before the group, the group, statements after
        start = sids.index(best[0])
        end = sids.index(best[-1])
        pre = [StageRef(by_sid[s]) for s in sids[:start]]
        post = [StageRef(by_sid[s]) for s in sids[end + 1 :]]
        elements = [*pre, parallel, *post]
        tadl = elements[0] if len(elements) == 1 else Pipeline(tuple(elements))

        loc = f"{model.function.qualname}:{loop.sid}"
        # the generated code reads only these two (transform/codegen.py)
        tuning = knobs("workers", loc, "SequentialExecution", "Backend")
        return PatternMatch(
            pattern=self.name,
            function=model.function.qualname,
            location=SourceLocation(
                function=model.function.qualname,
                sid=loop.sid,
                line=loop.loop.line,
            ),
            tadl=tadl,
            stages={by_sid[s]: [s] for s in sids},
            tuning=tuning,
            confidence=1.0 if loop.trace is not None else 0.6,
            notes=[f"independent group of {len(best)} statements"],
            extras={"group": best},
        )
