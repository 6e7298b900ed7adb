"""Common pattern-detection types."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.frontend.source import SourceLocation
from repro.model.semantic import LoopModel, SemanticModel
from repro.patterns.tuning import TuningParameter
from repro.tadl.ast import TadlNode


@dataclass
class StagePartition:
    """An ordered partition of loop-body statements into stages.

    ``stages[i]`` is the list of statement sids fused into stage *i*;
    ``names[i]`` its TADL stage name (A, B, C ... following the paper's
    examples).  The implicit StreamGenerator (PLPL) is *not* an element of
    ``stages``; it is always prepended at transformation time.
    """

    stages: list[list[str]] = field(default_factory=list)
    names: list[str] = field(default_factory=list)
    #: stage index -> True when the stage has no side effects on others
    replicable: list[bool] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.stages)

    def stage_map(self) -> dict[str, list[str]]:
        return {n: list(s) for n, s in zip(self.names, self.stages)}

    def index_of_sid(self, sid: str) -> int:
        for i, stage in enumerate(self.stages):
            if sid in stage:
                return i
        raise KeyError(sid)


def stage_names(n: int) -> list[str]:
    """A, B, ..., Z, S26, S27, ... — readable for small pipelines."""
    out = []
    for i in range(n):
        out.append(chr(ord("A") + i) if i < 26 else f"S{i}")
    return out


@dataclass
class PatternMatch:
    """A detected parallelization candidate.

    This is the unit the user study counts ("identified source code
    locations") and the thing the transformation phase consumes.
    """

    pattern: str                       # "pipeline" | "doall" | "masterworker"
    function: str
    location: SourceLocation
    tadl: TadlNode
    stages: dict[str, list[str]] = field(default_factory=dict)
    tuning: list[TuningParameter] = field(default_factory=list)
    #: 1.0 when backed by dynamic information, lower for static-only
    confidence: float = 1.0
    notes: list[str] = field(default_factory=list)
    extras: dict[str, Any] = field(default_factory=dict)

    @property
    def loop_sid(self) -> str:
        return self.location.sid

    def parameter(self, key: str) -> TuningParameter:
        for p in self.tuning:
            if p.key == key:
                return p
        raise KeyError(key)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.pattern} at {self.location} :: {self.tadl} "
            f"({len(self.tuning)} tuning parameters)"
        )


class SourcePattern:
    """A source-pattern detector: one entry of the pattern catalog."""

    name: str = "<abstract>"

    def match(
        self, model: SemanticModel, loop: LoopModel
    ) -> PatternMatch | None:  # pragma: no cover - interface
        """Try to match this pattern against one loop of the model."""
        raise NotImplementedError
