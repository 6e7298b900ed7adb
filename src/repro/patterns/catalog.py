"""The pattern catalog: ordered detectors over a semantic model.

The catalog holds "predefined pairs of sequential source and parallel
target patterns" (paper, section 2.1).  Detector order encodes preference:
a loop that is both DOALL and pipeline is reported as DOALL, since fully
independent iterations admit strictly more parallelism than a stage-bound
pipeline of the same body.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.frontend.source import SourceProgram
from repro.model.semantic import SemanticModel, build_semantic_model
from repro.patterns.base import PatternMatch, SourcePattern
from repro.patterns.doall import DoallPattern
from repro.patterns.masterworker import MasterWorkerPattern
from repro.patterns.pipeline import PipelinePattern


@dataclass
class PatternCatalog:
    """An ordered collection of source-pattern detectors."""

    detectors: list[SourcePattern] = field(default_factory=list)
    #: report at most one match per loop (the first detector that fires)
    exclusive: bool = True

    def register(self, detector: SourcePattern) -> None:
        self.detectors.append(detector)

    def names(self) -> list[str]:
        return [d.name for d in self.detectors]

    # ------------------------------------------------------------------
    def detect(self, model: SemanticModel) -> list[PatternMatch]:
        """Match every loop of a function's semantic model.

        Nested loops: when an outer loop matches, its inner loops are still
        reported (hierarchical parallelism is a feature — StageReplication
        *is* nested parallelism), but marked in the notes.
        """
        matches: list[PatternMatch] = []
        matched_loops: set[str] = set()
        for lm in model.loop_models():
            for det in self.detectors:
                m = det.match(model, lm)
                if m is None:
                    continue
                for outer in matched_loops:
                    if lm.sid.startswith(outer + "."):
                        m.notes.append(f"nested inside matched loop {outer}")
                matches.append(m)
                matched_loops.add(lm.sid)
                if self.exclusive:
                    break
        return matches

    def detect_in_program(
        self,
        program: SourceProgram,
        runner: Callable[[str], tuple] | None = None,
        envs: dict[str, dict] | None = None,
        costs: dict[str, dict[str, dict[str, float]]] | None = None,
        interprocedural: bool = True,
    ) -> list[PatternMatch]:
        """Detect across every function of a program.

        ``runner(qualname)`` optionally supplies ``(fn, args, kwargs)`` for
        dynamic analysis of a function; functions without a runner are
        analysed statically.  ``envs[qualname]`` supplies exec environments
        for source-only functions; ``costs[qualname]`` supplies modelled
        statement costs.  ``interprocedural=False`` drops the call-effect
        summaries (the ablation of the call graph's contribution).
        """
        matches: list[PatternMatch] = []
        for func in program:
            fn = args = kwargs = None
            if runner is not None:
                supplied = runner(func.qualname)
                if supplied is not None:
                    fn, args, kwargs = supplied
            model = build_semantic_model(
                func,
                fn=fn,
                args=args or (),
                kwargs=kwargs or {},
                env=(envs or {}).get(func.qualname),
                program=program if interprocedural else None,
                costs=(costs or {}).get(func.qualname),
            )
            matches.extend(self.detect(model))
        return matches


def default_catalog(
    fusion: str = "interval",
    max_workers: int = 16,
    max_replication: int = 8,
    prefer: str = "doall",
) -> PatternCatalog:
    """The catalog Patty ships with: DOALL, pipeline, master/worker.

    ``prefer`` breaks ties for loops matching several patterns:
    ``"doall"`` (default — independent iterations admit the most
    parallelism) or ``"pipeline"`` (the paper's presentation order, used
    when reproducing its stream-processing examples).
    """
    doall = DoallPattern(max_workers=max_workers)
    pipe = PipelinePattern(fusion=fusion, max_replication=max_replication)
    mw = MasterWorkerPattern()
    cat = PatternCatalog()
    if prefer == "pipeline":
        order: list[SourcePattern] = [pipe, doall, mw]
    else:
        order = [doall, pipe, mw]
    for d in order:
        cat.register(d)
    return cat
