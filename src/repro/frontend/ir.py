"""Statement-level intermediate representation.

Patty's semantic model is "the cross product of the control flow graph, the
data dependencies, the call graph and runtime information" (paper, section
2.1).  All four are computed over this IR.

The IR is deliberately close to the surface syntax: one :class:`IRStatement`
per source statement, nested bodies for compound statements, and stable
string ids (``"s0"``, ``"s2.b1"``) so that dynamic traces, TADL annotations
and generated code can all refer back to the same program point — the
paper's requirement R1 ("reflect the parallelization results back to the
corresponding source code").
"""

from __future__ import annotations

import ast
import enum
from dataclasses import dataclass, field
from typing import Iterator

from repro.frontend.rwsets import AccessSets, Symbol


class StatementKind(enum.Enum):
    """Classification used by pattern rules (PLPL/PLCD in particular)."""

    ASSIGN = "assign"
    AUGASSIGN = "augassign"
    EXPR = "expr"
    CALL = "call"
    RETURN = "return"
    IF = "if"
    FOR = "for"
    WHILE = "while"
    BREAK = "break"
    CONTINUE = "continue"
    PASS = "pass"
    WITH = "with"
    RAISE = "raise"
    ASSERT = "assert"
    OTHER = "other"


_KIND_BY_AST: dict[type, StatementKind] = {
    ast.Assign: StatementKind.ASSIGN,
    ast.AnnAssign: StatementKind.ASSIGN,
    ast.AugAssign: StatementKind.AUGASSIGN,
    ast.Return: StatementKind.RETURN,
    ast.If: StatementKind.IF,
    ast.For: StatementKind.FOR,
    ast.While: StatementKind.WHILE,
    ast.Break: StatementKind.BREAK,
    ast.Continue: StatementKind.CONTINUE,
    ast.Pass: StatementKind.PASS,
    ast.With: StatementKind.WITH,
    ast.Raise: StatementKind.RAISE,
    ast.Assert: StatementKind.ASSERT,
}

#: Statement kinds that redirect control flow out of the current iteration.
#: PLCD (pipeline control-dependence rule) keys off these.
CONTROL_TRANSFER_KINDS = frozenset(
    {StatementKind.BREAK, StatementKind.CONTINUE, StatementKind.RETURN,
     StatementKind.RAISE}
)


def kind_of(node: ast.stmt) -> StatementKind:
    kind = _KIND_BY_AST.get(type(node), StatementKind.OTHER)
    if kind is StatementKind.OTHER and isinstance(node, ast.Expr):
        return (
            StatementKind.CALL
            if isinstance(node.value, ast.Call)
            else StatementKind.EXPR
        )
    return kind


@dataclass
class IRStatement:
    """A single source statement.

    Attributes
    ----------
    sid:
        Stable id.  Top-level statements of a function body are ``s0, s1,
        ...``; statements nested in the body of ``s2`` are ``s2.b0, s2.b1``
        and in its ``else`` branch ``s2.e0, ...``.
    kind:
        Coarse syntactic classification.
    node:
        The original ``ast`` node (kept for code generation).
    accesses:
        Read/write/call sets of the statement *header* (for compound
        statements the body is separate).
    body, orelse:
        Nested statements for compound statements.
    """

    sid: str
    kind: StatementKind
    node: ast.stmt
    line: int
    end_line: int
    accesses: AccessSets
    source: str = ""
    body: list["IRStatement"] = field(default_factory=list)
    orelse: list["IRStatement"] = field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def reads(self) -> set[Symbol]:
        return self.accesses.reads

    @property
    def writes(self) -> set[Symbol]:
        return self.accesses.writes

    @property
    def calls(self) -> list[str]:
        return self.accesses.calls

    @property
    def is_compound(self) -> bool:
        return bool(self.body)

    @property
    def is_loop(self) -> bool:
        return self.kind in (StatementKind.FOR, StatementKind.WHILE)

    @property
    def is_control_transfer(self) -> bool:
        return self.kind in CONTROL_TRANSFER_KINDS

    # ------------------------------------------------------------------
    def walk(self) -> Iterator["IRStatement"]:
        """This statement and all statements nested inside it, pre-order."""
        yield self
        for child in self.body:
            yield from child.walk()
        for child in self.orelse:
            yield from child.walk()

    def deep_accesses(self) -> AccessSets:
        """Accesses of this statement *including* all nested statements.

        This is what the dependence builder uses when a compound statement
        is treated as one opaque unit (e.g. an ``if`` inside a candidate
        pipeline loop becomes one stage).
        """
        acc = AccessSets(set(self.accesses.reads), set(self.accesses.writes),
                         list(self.accesses.calls))
        for child in self.body + self.orelse:
            acc = acc.union(child.deep_accesses())
        return acc

    def contains_control_transfer(self) -> bool:
        return any(st.is_control_transfer for st in self.walk())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"IRStatement({self.sid}, {self.kind.value}, line {self.line})"


@dataclass
class IRLoop:
    """A loop together with the header facts the pipeline rules need.

    PLPL ("pipeline logic") turns the loop header — generation of the
    continuous stream of elements — into the implicit first stage
    ``StreamGenerator``; these fields describe exactly that header.
    """

    stmt: IRStatement
    #: loop variable symbols bound each iteration (``for i, x in ...``)
    targets: set[Symbol] = field(default_factory=set)
    #: symbols the header reads to produce the stream (the iterable / test)
    stream_reads: set[Symbol] = field(default_factory=set)
    #: ``for x in xs`` style (a "foreach" in the paper's C# examples)
    is_foreach: bool = False
    #: ``for i in range(...)`` — counted loop, candidate for DOALL chunking
    is_counted: bool = False

    @property
    def sid(self) -> str:
        return self.stmt.sid

    @property
    def body(self) -> list[IRStatement]:
        return self.stmt.body

    @property
    def line(self) -> int:
        return self.stmt.line


@dataclass
class IRFunction:
    """A parsed function: the unit of analysis and transformation."""

    name: str
    qualname: str
    params: list[str]
    body: list[IRStatement]
    node: ast.FunctionDef
    source: str
    filename: str = "<string>"
    first_line: int = 1

    def walk(self) -> Iterator[IRStatement]:
        for st in self.body:
            yield from st.walk()

    def statement(self, sid: str) -> IRStatement:
        for st in self.walk():
            if st.sid == sid:
                return st
        raise KeyError(f"no statement {sid!r} in {self.name}")

    def loops(self) -> list[IRLoop]:
        """All loops in the function, outermost first."""
        from repro.frontend.parser import loop_info  # cycle-free local import

        return [loop_info(st) for st in self.walk() if st.is_loop]

    def top_level_loops(self) -> list[IRLoop]:
        from repro.frontend.parser import loop_info

        found: list[IRLoop] = []

        def visit(stmts: list[IRStatement]) -> None:
            for st in stmts:
                if st.is_loop:
                    found.append(loop_info(st))
                else:
                    visit(st.body)
                    visit(st.orelse)

        visit(self.body)
        return found

    @property
    def n_statements(self) -> int:
        return sum(1 for _ in self.walk())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"IRFunction({self.qualname}, {self.n_statements} stmts)"
