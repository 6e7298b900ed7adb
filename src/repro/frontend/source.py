"""Programs and source locations.

A :class:`SourceProgram` is the unit Patty ingests: a set of functions
(typically a module or a small project).  A :class:`SourceLocation` is what
the user study asks participants to produce — "source code locations that
are appropriate candidates for parallel execution" — so it is also the unit
of ground truth in :mod:`repro.benchsuite.ground_truth` and of scoring in
:mod:`repro.evalq.detection`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.frontend.ir import IRFunction
from repro.frontend.parser import parse_module
from repro.frontend.rwsets import Policy


@dataclass(frozen=True, order=True)
class SourceLocation:
    """A program point a parallelization candidate is anchored to."""

    function: str
    sid: str
    line: int = 0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.function}:{self.sid}(line {self.line})"


@dataclass
class SourceProgram:
    """A collection of parsed functions, addressable by (qual)name."""

    name: str
    functions: dict[str, IRFunction] = field(default_factory=dict)
    source: str = ""

    @classmethod
    def from_source(
        cls, source: str, name: str = "<program>", policy: Policy = "optimistic"
    ) -> "SourceProgram":
        funcs = parse_module(source, policy=policy)
        return cls(
            name=name,
            functions={f.qualname: f for f in funcs},
            source=source,
        )

    def __iter__(self) -> Iterator[IRFunction]:
        return iter(self.functions.values())

    def __len__(self) -> int:
        return len(self.functions)

    def function(self, qualname: str) -> IRFunction:
        try:
            return self.functions[qualname]
        except KeyError:
            # tolerate addressing a method by its bare name if unambiguous
            hits = [f for f in self.functions.values() if f.name == qualname]
            if len(hits) == 1:
                return hits[0]
            raise

    def functions_with_loops(self) -> list[IRFunction]:
        return [f for f in self.functions.values() if any(s.is_loop for s in f.walk())]

    def location(self, function: str, sid: str) -> SourceLocation:
        fn = self.function(function)
        stmt = fn.statement(sid)
        return SourceLocation(function=fn.qualname, sid=sid, line=stmt.line)

    @property
    def n_lines(self) -> int:
        return len(self.source.splitlines()) if self.source else 0
