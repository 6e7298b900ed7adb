"""TADL abstract syntax.

The algebra is small by design (the paper values comprehensibility over
expressiveness): stage references, parallel composition (master/worker),
pipeline composition, plus the ``+`` (replicable) and ``*`` (data-parallel)
unary markers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


class TadlNode:
    """Base class for TADL expressions."""

    def walk(self) -> Iterator["TadlNode"]:
        yield self

    def stage_names(self) -> list[str]:
        return [n.name for n in self.walk() if isinstance(n, StageRef)]


@dataclass(frozen=True)
class StageRef(TadlNode):
    """A named stage; ``replicable`` renders as a postfix ``+``.

    Replicability is the StageReplication tuning parameter's static side:
    the stage *may* be executed in parallel to itself (paper, PLTP).
    """

    name: str
    replicable: bool = False

    def walk(self) -> Iterator[TadlNode]:
        yield self

    def __str__(self) -> str:
        return f"{self.name}+" if self.replicable else self.name


@dataclass(frozen=True)
class Parallel(TadlNode):
    """``A || B || C`` — siblings executed by a master/worker."""

    children: tuple[TadlNode, ...]

    def __post_init__(self) -> None:
        if len(self.children) < 2:
            raise ValueError("Parallel needs at least two children")

    def walk(self) -> Iterator[TadlNode]:
        yield self
        for c in self.children:
            yield from c.walk()

    def __str__(self) -> str:
        return "(" + " || ".join(str(c) for c in self.children) + ")"


@dataclass(frozen=True)
class Pipeline(TadlNode):
    """``A => B => C`` — a stage-bound pipeline, data flowing left to right."""

    stages: tuple[TadlNode, ...]

    def __post_init__(self) -> None:
        if len(self.stages) < 2:
            raise ValueError("Pipeline needs at least two stages")

    def walk(self) -> Iterator[TadlNode]:
        yield self
        for s in self.stages:
            yield from s.walk()

    def __str__(self) -> str:
        return " => ".join(
            f"({s})" if isinstance(s, Pipeline) else str(s) for s in self.stages
        )


@dataclass(frozen=True)
class DataParallel(TadlNode):
    """``A*`` — a data-parallel (DOALL) unit: all instances run in parallel."""

    child: TadlNode

    def walk(self) -> Iterator[TadlNode]:
        yield self
        yield from self.child.walk()

    def __str__(self) -> str:
        inner = str(self.child)
        if isinstance(self.child, StageRef) and not self.child.replicable:
            return f"{inner}*"
        return f"({inner})*"


def stages_of(node: TadlNode) -> list[StageRef]:
    """All stage references, left to right."""
    return [n for n in node.walk() if isinstance(n, StageRef)]
