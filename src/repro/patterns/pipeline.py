"""Pipeline source-pattern detection (paper section 2.2).

The five rule families:

* **PLPL** — every loop is a pipeline candidate; the loop header becomes
  the implicit ``StreamGenerator`` stage; each top-level body statement
  initially becomes its own stage.
* **PLDD** — statements connected by a loop-carried data dependence are
  subsumed into one stage (we fuse the contiguous interval spanned by each
  carried edge, exactly the paper's "s_i, s_k and all statements in
  between"; the strictly finer SCC condensation is available for the
  ablation benchmark via ``fusion="scc"``).
* **PLCD** — control transfers that can affect *other* stream elements
  (``break``, ``return``, ``raise``, and — conservatively — ``continue``,
  which skips downstream stages) disqualify the loop.
* **PLDS** — loop-independent flow dependences between stages define the
  data stream routed through inter-stage buffers.
* **PLTP** — tuning parameters: ``StageReplication`` and
  ``OrderPreservation`` for side-effect-free stages, ``StageFusion`` for
  each adjacent stage pair, ``SequentialExecution`` and ``BufferCapacity``
  for the pipeline as a whole; then per-stage fault-policy knobs and the
  pipeline's stall and observability knobs, all from the catalog
  ``repro.patterns.tuning.KNOBS``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.frontend.rwsets import Symbol
from repro.model.dependence import DepKind, DependenceGraph
from repro.model.semantic import LoopModel, SemanticModel
from repro.patterns.base import (
    PatternMatch,
    SourcePattern,
    StagePartition,
    stage_names,
)
from repro.patterns.tuning import knob, knobs
from repro.tadl.ast import Parallel, Pipeline, StageRef, TadlNode

#: implicit first stage generating the element stream (PLPL)
STREAM_GENERATOR = "StreamGenerator"


def _scc(nodes: list[str], edges: set[tuple[str, str]]) -> list[list[str]]:
    """Iterative Tarjan SCC; returns components in reverse topological
    order of discovery (we re-sort by body position afterwards)."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    out: list[list[str]] = []
    counter = [0]
    succ: dict[str, list[str]] = {n: [] for n in nodes}
    for a, b in edges:
        if a in succ and b in succ:
            succ[a].append(b)

    def strongconnect(v: str) -> None:
        work = [(v, 0)]
        while work:
            node, pi = work[-1]
            if pi == 0:
                index[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            for i in range(pi, len(succ[node])):
                w = succ[node][i]
                if w not in index:
                    work[-1] = (node, i + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if w in on_stack:
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                out.append(comp)
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])

    for n in nodes:
        if n not in index:
            strongconnect(n)
    return out


def partition_stages(
    body_sids: list[str],
    deps: DependenceGraph,
    fusion: str = "interval",
) -> StagePartition:
    """Apply PLDD: fuse statements coupled by carried dependences.

    ``fusion="interval"`` (paper behaviour) fuses the contiguous span of
    each carried edge; ``fusion="scc"`` fuses exactly the strongly
    connected components of the full dependence graph and then restores
    contiguity only where program order forces it.
    """
    order = {sid: i for i, sid in enumerate(body_sids)}
    carried = [e for e in deps.carried() if e.src in order and e.dst in order]

    if fusion == "scc":
        all_edges = {
            (e.src, e.dst)
            for e in deps.edges
            if e.src in order and e.dst in order and (e.carried or True)
        }
        comps = _scc(body_sids, all_edges)
        intervals = [
            (min(order[s] for s in c), max(order[s] for s in c))
            for c in comps
            if len(c) > 1
        ]
        # carried self-dependences keep singletons sequential but need no
        # fusion; still add intervals for carried edges between distinct
        # statements that Tarjan saw as separate (carried edges are cycles
        # through the back edge, so in practice they are in one SCC)
        intervals += [
            (min(order[e.src], order[e.dst]), max(order[e.src], order[e.dst]))
            for e in carried
            if e.src != e.dst
        ]
    else:
        intervals = [
            (min(order[e.src], order[e.dst]), max(order[e.src], order[e.dst]))
            for e in carried
            if e.src != e.dst
        ]

    merged = _merge_intervals(intervals)

    # build ordered stages: merged intervals plus singleton remainder
    stages: list[list[str]] = []
    covered: set[int] = set()
    bounds: dict[int, tuple[int, int]] = {}
    for lo, hi in merged:
        for i in range(lo, hi + 1):
            covered.add(i)
            bounds[i] = (lo, hi)
    i = 0
    n = len(body_sids)
    while i < n:
        if i in covered:
            lo, hi = bounds[i]
            stages.append([body_sids[j] for j in range(lo, hi + 1)])
            i = hi + 1
        else:
            stages.append([body_sids[i]])
            i += 1

    # replicability: a stage is side-effect-free w.r.t. other elements iff
    # no carried dependence touches any of its statements
    touched_by_carried = {e.src for e in carried} | {e.dst for e in carried}
    replicable = [
        all(sid not in touched_by_carried for sid in stage) for stage in stages
    ]
    names = stage_names(len(stages))
    return StagePartition(stages=stages, names=names, replicable=replicable)


def _merge_intervals(intervals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    if not intervals:
        return []
    intervals = sorted(intervals)
    merged = [intervals[0]]
    for lo, hi in intervals[1:]:
        mlo, mhi = merged[-1]
        if lo <= mhi + 1 - 1:  # overlap or adjacency within the span
            merged[-1] = (mlo, max(mhi, hi))
        else:
            merged.append((lo, hi))
    return merged


@dataclass
class StageDag:
    """The PLDS stage-level data-flow DAG and its levelization."""

    n: int
    edges: set[tuple[int, int]] = field(default_factory=set)
    flows: dict[tuple[int, int], set[Symbol]] = field(default_factory=dict)

    def levels(self) -> list[list[int]]:
        level: dict[int, int] = {}
        preds: dict[int, set[int]] = {i: set() for i in range(self.n)}
        for a, b in self.edges:
            preds[b].add(a)

        def depth(i: int) -> int:
            if i in level:
                return level[i]
            level[i] = 0  # break accidental cycles defensively
            d = 1 + max((depth(p) for p in preds[i]), default=-1)
            level[i] = d
            return d

        for i in range(self.n):
            depth(i)
        out: dict[int, list[int]] = {}
        for i in range(self.n):
            out.setdefault(level[i], []).append(i)
        return [sorted(out[k]) for k in sorted(out)]


def build_stage_dag(
    partition: StagePartition, deps: DependenceGraph
) -> StageDag:
    """Project loop-independent dependences onto stages."""
    dag = StageDag(n=len(partition))
    sid_stage = {
        sid: i for i, stage in enumerate(partition.stages) for sid in stage
    }
    for e in deps.independent():
        a = sid_stage.get(e.src)
        b = sid_stage.get(e.dst)
        if a is None or b is None or a == b:
            continue
        lo, hi = min(a, b), max(a, b)
        dag.edges.add((lo, hi))
        if e.kind is DepKind.FLOW:
            dag.flows.setdefault((lo, hi), set()).add(e.symbol)
    return dag


def build_tadl(partition: StagePartition, dag: StageDag) -> TadlNode:
    """Levelize the stage DAG into a TADL pipeline with nested parallel
    groups — the paper's ``(A || B || C+) => D => E`` shape."""
    levels = dag.levels()
    nodes: list[TadlNode] = []
    for lvl in levels:
        refs = [
            StageRef(partition.names[i], replicable=partition.replicable[i])
            for i in lvl
        ]
        nodes.append(refs[0] if len(refs) == 1 else Parallel(tuple(refs)))
    if len(nodes) == 1:
        return nodes[0]
    return Pipeline(tuple(nodes))


class PipelinePattern(SourcePattern):
    """The pipeline entry of the pattern catalog."""

    name = "pipeline"

    def __init__(
        self,
        fusion: str = "interval",
        max_replication: int = 8,
        dominance_threshold: float = 0.8,
    ):
        self.fusion = fusion
        self.max_replication = max_replication
        #: a pipeline whose largest stage holds more than this share of the
        #: runtime cannot be balanced (Tournavitis & Franke's efficiency
        #: condition, section 2.2) — such matches are rejected
        self.dominance_threshold = dominance_threshold

    def match(
        self, model: SemanticModel, loop: LoopModel
    ) -> PatternMatch | None:
        body = loop.loop.body
        if len(body) < 2:
            return None

        # PLCD: no control transfer may escape an element's processing
        for st in body:
            if st.contains_control_transfer():
                return None

        deps = loop.deps
        partition = partition_stages(
            [s.sid for s in body], deps, fusion=self.fusion
        )
        if len(partition) < 2:
            return None  # fully fused: no pipeline structure left

        # profitability (PLTP precondition): a stage holding the bulk of
        # the runtime cannot be balanced away — "pipelines achieve the
        # highest efficiency when the execution times for all stages are
        # evenly distributed"
        if loop.profile is not None:
            shares = [
                sum(loop.profile.share(sid) for sid in stage)
                for stage in partition.stages
            ]
            if shares and max(shares) > self.dominance_threshold:
                return None

        dag = build_stage_dag(partition, deps)
        tadl = build_tadl(partition, dag)

        loc = f"{model.function.qualname}:{loop.sid}"
        tuning = self._tuning_parameters(partition, dag, loop, loc)

        match = PatternMatch(
            pattern=self.name,
            function=model.function.qualname,
            location=_location(model, loop),
            tadl=tadl,
            stages=partition.stage_map(),
            tuning=tuning,
            confidence=1.0 if loop.trace is not None else 0.6,
            notes=[
                f"{len(partition)} stages after PLDD fusion "
                f"(+ implicit {STREAM_GENERATOR})"
            ],
            extras={
                "partition": partition,
                "dag": dag,
                # plain variable names crossing the back edge: the code
                # generator keeps these as stage-persistent state rather
                # than per-element stream data
                "carried_names": sorted(
                    {
                        e.symbol.name
                        for e in deps.carried()
                        if "." not in e.symbol.name
                        and "[" not in e.symbol.name
                    }
                ),
                "flows": {
                    f"{partition.names[a]}->{partition.names[b]}": sorted(
                        str(s) for s in syms
                    )
                    for (a, b), syms in dag.flows.items()
                },
            },
        )

        # PLTP + profile: suggest replicating the bottleneck stage
        if loop.profile is not None:
            hot = self._hottest_stage(partition, loop)
            if hot is not None and partition.replicable[hot]:
                key = f"StageReplication@{partition.names[hot]}"
                try:
                    match.parameter(key).value = 2
                except KeyError:
                    pass  # grouped with a sequential sibling: knob removed
                else:
                    match.notes.append(
                        f"stage {partition.names[hot]} has the highest "
                        "runtime share; replication suggested"
                    )
        return match

    # ------------------------------------------------------------------
    def _tuning_parameters(self, partition, dag, loop, loc):
        # a stage sharing a parallel level with a sequential sibling runs
        # inside a master/worker group whose pace that sibling sets — its
        # own replication knob would be inapplicable at run time
        effectively_replicable = list(partition.replicable)
        for level in dag.levels():
            if len(level) > 1 and not all(
                partition.replicable[i] for i in level
            ):
                for i in level:
                    effectively_replicable[i] = False

        params = []
        for i, name in enumerate(partition.names):
            if effectively_replicable[i]:
                params.append(
                    knob("StageReplication", name, loc, hi=self.max_replication)
                )
                params.append(knob("OrderPreservation", name, loc))
        for a, b in zip(partition.names, partition.names[1:]):
            params.append(knob("StageFusion", f"{a}/{b}", loc))
        params += knobs("pipeline", loc, "SequentialExecution", "BufferCapacity")
        # supervision knobs: per-stage fault policy + the pipeline-wide
        # stall check, addressable like any performance parameter
        for name in partition.names:
            params += knobs(name, loc, "Retries", "ItemTimeout", "OnError")
        params += knobs("pipeline", loc, "StallTimeout", "Trace", "Metrics")
        return params

    def _hottest_stage(self, partition, loop) -> int | None:
        if loop.profile is None:
            return None
        best, best_cost = None, -1.0
        for i, stage in enumerate(partition.stages):
            cost = sum(loop.profile.seconds.get(sid, 0.0) for sid in stage)
            if cost > best_cost:
                best, best_cost = i, cost
        return best


def _location(model: SemanticModel, loop: LoopModel):
    from repro.frontend.source import SourceLocation

    return SourceLocation(
        function=model.function.qualname,
        sid=loop.sid,
        line=loop.loop.line,
    )
