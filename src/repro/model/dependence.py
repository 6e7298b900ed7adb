"""Data-dependence analysis of loop bodies.

This module implements the dependence facts the pattern rules consume:

* **loop-independent** dependencies (within one iteration) define the data
  flow that PLDS routes through inter-stage buffers;
* **loop-carried** dependencies are the ones PLDD reacts to by fusing the
  participating statements into a single pipeline stage, and the ones that
  disqualify a loop from DOALL unless they form a recognizable *reduction*
  or *collector* idiom.

Granularity is the *top-level statement of the loop body* (compound
statements are opaque units with their deep access sets), matching the
paper's treatment where each loop-body statement initially becomes its own
pipeline stage.

The static result is a may-analysis.  Patty is optimistic: when a dynamic
trace is available (:mod:`repro.model.dyndep`) the may-dependences that were
never observed are dropped by :func:`repro.model.dyndep.refine_dependences`.
"""

from __future__ import annotations

import ast
import enum
from dataclasses import dataclass, field
from typing import Iterable

from repro.frontend.ir import IRLoop, IRStatement, StatementKind
from repro.frontend.rwsets import AccessSets, Symbol


class DepKind(enum.Enum):
    FLOW = "flow"       # true dependence: write -> read
    ANTI = "anti"       # read -> write
    OUTPUT = "output"   # write -> write


@dataclass(frozen=True)
class Dependence:
    """A dependence edge between two loop-body statements.

    ``carried`` distinguishes cross-iteration from same-iteration
    dependences.  ``src``/``dst`` are statement ids; for carried
    dependences the direction is source-iteration -> later-iteration.
    ``via_call`` marks edges derived from interprocedural summaries: the
    dynamic tracer cannot observe accesses inside callees, so such edges
    are exempt from optimistic refinement.
    """

    src: str
    dst: str
    symbol: Symbol
    kind: DepKind
    carried: bool
    via_call: bool = False

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        tag = "carried" if self.carried else "independent"
        return f"{self.src} -{self.kind.value}/{tag} ({self.symbol})-> {self.dst}"


@dataclass
class DependenceGraph:
    """All dependences among the top-level statements of one loop body."""

    loop_sid: str
    statements: list[str] = field(default_factory=list)
    edges: set[Dependence] = field(default_factory=set)

    def carried(self) -> set[Dependence]:
        return {e for e in self.edges if e.carried}

    def independent(self) -> set[Dependence]:
        return {e for e in self.edges if not e.carried}

    def successors(self, sid: str, carried: bool | None = None) -> set[str]:
        return {
            e.dst
            for e in self.edges
            if e.src == sid and (carried is None or e.carried == carried)
        }

    def without(self, drop: Iterable[Dependence]) -> "DependenceGraph":
        d = set(drop)
        return DependenceGraph(
            loop_sid=self.loop_sid,
            statements=list(self.statements),
            edges={e for e in self.edges if e not in d},
        )


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _killable(writes: set[Symbol]) -> set[Symbol]:
    """Writes that fully redefine their location (plain names)."""
    return {w for w in writes if not w.is_container and not w.is_attribute}


def statement_exposed_reads(
    st: IRStatement, killed: set[Symbol]
) -> tuple[set[Symbol], set[Symbol]]:
    """Reads of ``st`` that consume a value from *before* ``st``.

    Recursive over compound statements: a variable the statement defines
    before every use (an inner-loop counter, a locally-initialized
    accumulator of a nested loop) is *not* exposed, so it cannot induce a
    loop-carried dependence at the enclosing level.  Returns the exposed
    read set and the kill set holding after the statement (conservative:
    loops may run zero times, so their bodies kill nothing for the code
    after them; if-kills are the branch intersection).
    """
    if not st.is_compound:
        reads = {r for r in st.accesses.reads if r not in killed}
        return reads, killed | _killable(st.accesses.writes)

    exposed = {r for r in st.accesses.reads if r not in killed}

    if st.kind in (StatementKind.FOR, StatementKind.WHILE):
        inner = set(killed) | _killable(st.accesses.writes)  # loop targets
        for child in st.body:
            e, inner = statement_exposed_reads(child, inner)
            exposed |= e
        # zero-iteration possibility: nothing new is killed afterwards
        after = set(killed)
        for child in st.orelse:
            e, after = statement_exposed_reads(child, after)
            exposed |= e
        return exposed, after

    if st.kind is StatementKind.IF:
        then_k = set(killed)
        for child in st.body:
            e, then_k = statement_exposed_reads(child, then_k)
            exposed |= e
        else_k = set(killed)
        for child in st.orelse:
            e, else_k = statement_exposed_reads(child, else_k)
            exposed |= e
        return exposed, then_k & else_k if st.orelse else set(killed)

    # with-blocks and other compounds: body always executes
    after = set(killed) | _killable(st.accesses.writes)
    for child in st.body:
        e, after = statement_exposed_reads(child, after)
        exposed |= e
    return exposed, after


def build_body_dependences(
    loop: IRLoop,
    live_after: frozenset[Symbol] | set[Symbol] = frozenset(),
    extra: "dict[str, AccessSets] | None" = None,
) -> DependenceGraph:
    """Compute the dependence graph of a loop body.

    The per-iteration symbols bound by the loop header (``for x in xs``)
    are *privatized*: they never induce carried dependences; the values
    instead flow from the implicit StreamGenerator stage (PLPL).  The same
    holds for *iteration-local* variables — must-defined before every use
    within an iteration and not in ``live_after`` — which a parallel
    execution privatizes per element, so they only contribute
    loop-independent edges (the PLDS data stream through buffers).

    ``live_after`` lists symbols read after the loop: their final value
    escapes, so writes to them keep their carried output/anti hazards.
    ``extra`` supplies additional per-statement access sets — the
    interprocedural call effects of :mod:`repro.model.summaries`.
    """
    body = loop.body
    dg = DependenceGraph(loop_sid=loop.sid, statements=[s.sid for s in body])
    if not body:
        return dg

    accesses = {s.sid: s.deep_accesses() for s in body}
    if extra:
        for sid, eff in extra.items():
            if sid in accesses:
                accesses[sid] = accesses[sid].union(eff)
    order = {s.sid: i for i, s in enumerate(body)}
    privatized = set(loop.targets)

    def relevant(sym: Symbol) -> bool:
        if sym in privatized:
            return False
        # re-binding of a loop target inside the body still counts; only the
        # exact header-bound names are private
        return True

    sids = [s.sid for s in body]

    # ---- same-iteration (loop-independent) dependences -----------------
    for i, a in enumerate(sids):
        for b in sids[i + 1 :]:
            aw, ar = accesses[a].writes, accesses[a].reads
            bw, br = accesses[b].writes, accesses[b].reads
            for sym in aw:
                for other in br:
                    if sym.may_alias(other):
                        dg.edges.add(Dependence(a, b, sym, DepKind.FLOW, False))
            for sym in ar:
                for other in bw:
                    if sym.may_alias(other):
                        dg.edges.add(Dependence(a, b, sym, DepKind.ANTI, False))
            for sym in aw:
                for other in bw:
                    if sym.may_alias(other):
                        dg.edges.add(Dependence(a, b, sym, DepKind.OUTPUT, False))

    # ---- cross-iteration (loop-carried) dependences ---------------------
    # A read in statement b is upward-exposed for symbol sym if neither an
    # earlier statement of the same iteration nor the statement itself
    # (recursively, for compounds) must-writes sym before the read.  Then
    # any statement a that may-write an aliasing symbol induces a carried
    # flow dependence a -> b (the value crosses the back edge).
    exposed_per_stmt: dict[str, set[Symbol]] = {}
    killed_before: dict[str, set[Symbol]] = {}
    killed: set[Symbol] = set(privatized)
    for st in body:
        killed_before[st.sid] = set(killed)
        e, killed = statement_exposed_reads(st, killed)
        if extra and st.sid in extra:
            # heap reads performed inside callees consume whatever the
            # cells hold at call time: conservatively exposed
            e = e | set(extra[st.sid].reads)
        exposed_per_stmt[st.sid] = e

    def _slot(sym: Symbol) -> bool:
        return not sym.is_container and not sym.is_attribute

    def slot_vs_projection(w: Symbol, r: Symbol, reader_sid: str) -> bool:
        """A plain-slot write never touches the heap cells a projection of
        the *rebound* base reads: ``row = a[i]`` followed (each iteration)
        by ``row[k]`` reads carries nothing through ``row``.  Only applies
        when the slot is definitely rebound before the reading statement;
        a slot that survives iterations (``cur = cur.next``) keeps its
        carried pointer dependence."""
        return (
            _slot(w)
            and (r.is_container or r.is_attribute)
            and w.base == r.base
            and w.name != r.name
            and Symbol(w.name) in killed_before[reader_sid]
        )

    exposed_syms: set[Symbol] = set()
    for b in sids:
        for sym in exposed_per_stmt[b]:
            if not relevant(sym):
                continue
            exposed_syms.add(sym)
            for a in sids:
                for w in accesses[a].writes:
                    if not (w.may_alias(sym) and relevant(w)):
                        continue
                    if slot_vs_projection(w, sym, b):
                        continue
                    dg.edges.add(Dependence(a, b, w, DepKind.FLOW, True))

    # Symbols whose value escapes an iteration: upward-exposed somewhere, or
    # live after the loop.  Only these can carry anti/output hazards — all
    # other written symbols are iteration-local and privatizable.
    escaping: set[Symbol] = set(exposed_syms) | {
        s for s in live_after if relevant(s)
    }

    def escapes(sym: Symbol) -> bool:
        """Level-aware escape test: a plain slot escapes only through plain
        exposure or post-loop liveness — a projection of it being exposed
        (``row[*]``) says the *heap object* escapes, not the slot."""
        if _slot(sym):
            return any(
                _slot(e) and e.name == sym.name for e in escaping
            )
        return any(sym.may_alias(e) for e in escaping)

    for a in sids:
        for sym in accesses[a].writes:
            if not relevant(sym):
                continue
            if not escapes(sym):
                continue
            for b in sids:
                for w in accesses[b].writes:
                    if not (w.may_alias(sym) and relevant(w)):
                        continue
                    # a slot rebind and a heap-cell write never overlap
                    if _slot(w) != _slot(sym):
                        continue
                    if a != b:
                        dg.edges.add(
                            Dependence(a, b, w, DepKind.OUTPUT, True)
                        )
                    elif any(sym.may_alias(s) for s in live_after):
                        # self output dependence: the final value of an
                        # escaping symbol must come from the last
                        # iteration (matters for DOALL legality)
                        dg.edges.add(
                            Dependence(a, b, w, DepKind.OUTPUT, True)
                        )
                if a != b:
                    # anti hazards only threaten values a reader could not
                    # privatize: exposed reads
                    for r in exposed_per_stmt[b]:
                        if not (r.may_alias(sym) and relevant(r)):
                            continue
                        if slot_vs_projection(sym, r, b):
                            continue
                        dg.edges.add(
                            Dependence(b, a, sym, DepKind.ANTI, True)
                        )
                else:
                    # self WAR: a statement reading and writing overlapping
                    # container/attribute locations (a[i] = a[i+1]) carries
                    # an anti dependence onto its next-iteration self
                    for r in accesses[b].reads:
                        if (
                            r.may_alias(sym)
                            and relevant(r)
                            and (r.is_container or r.is_attribute)
                            and (sym.is_container or sym.is_attribute)
                        ):
                            dg.edges.add(
                                Dependence(b, a, sym, DepKind.ANTI, True)
                            )

    if extra:
        # stamp provenance: an edge whose symbol overlaps a call-site
        # effect cannot be refuted by the (callee-blind) dynamic tracer
        import dataclasses

        def _via(e: Dependence) -> bool:
            for sid in (e.src, e.dst):
                eff = extra.get(sid)
                if eff and any(s.may_alias(e.symbol) for s in eff.touched):
                    return True
            return False

        dg.edges = {
            dataclasses.replace(e, via_call=True) if _via(e) else e
            for e in dg.edges
        }

    return dg


# ---------------------------------------------------------------------------
# idiom recognition
# ---------------------------------------------------------------------------

_ASSOCIATIVE_BINOPS = (ast.Add, ast.Mult, ast.BitOr, ast.BitAnd, ast.BitXor)


@dataclass(frozen=True)
class Reduction:
    """``acc op= f(...)`` where op is associative and acc is otherwise
    untouched in the loop: the carried dependence is removable by a
    parallel reduction.

    ``expr`` is the per-element contribution (the non-accumulator operand)
    as source text — the code generator folds these with ``op``.
    """

    sid: str
    symbol: Symbol
    op: str
    expr: str = ""


@dataclass(frozen=True)
class Collector:
    """``out.append(e)`` (or equivalent) where the container is only ever
    appended to in the loop: an ordered sink.  For pipelines this is the
    natural last stage; for DOALL it is parallelizable with index-ordered
    collection."""

    sid: str
    symbol: Symbol
    method: str


def find_reductions(loop: IRLoop) -> list[Reduction]:
    """Recognize associative accumulator updates among body statements."""
    body = loop.body
    accesses = {s.sid: s.deep_accesses() for s in body}
    out: list[Reduction] = []
    for st in body:
        cand = _reduction_in_statement(st)
        if cand is None:
            continue
        sym, op, expr = cand
        # the accumulator must not be touched by any *other* statement
        clean = all(
            sym not in accesses[o.sid].touched
            for o in body
            if o.sid != st.sid
        )
        if clean:
            out.append(Reduction(sid=st.sid, symbol=sym, op=op, expr=expr))
    return out


def _reduction_in_statement(st: IRStatement) -> tuple[Symbol, str, str] | None:
    node = st.node
    if isinstance(node, ast.AugAssign) and isinstance(
        node.op, _ASSOCIATIVE_BINOPS
    ):
        if isinstance(node.target, ast.Name):
            sym = Symbol(node.target.id)
            # RHS must not read the accumulator
            rhs_names = {
                n.id for n in ast.walk(node.value) if isinstance(n, ast.Name)
            }
            if sym.name not in rhs_names:
                return sym, type(node.op).__name__.lower(), ast.unparse(node.value)
        return None
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        tgt = node.targets[0]
        if isinstance(tgt, ast.Name) and isinstance(node.value, ast.BinOp):
            if isinstance(node.value.op, _ASSOCIATIVE_BINOPS):
                left, right = node.value.left, node.value.right
                # x = x + e   or   x = e + x
                if isinstance(left, ast.Name) and left.id == tgt.id:
                    rest = right
                elif isinstance(right, ast.Name) and right.id == tgt.id:
                    rest = left
                else:
                    return None
                rest_names = {
                    n.id for n in ast.walk(rest) if isinstance(n, ast.Name)
                }
                if tgt.id not in rest_names:
                    return (
                        Symbol(tgt.id),
                        type(node.value.op).__name__.lower(),
                        ast.unparse(rest),
                    )
        # x = min(x, e) / max(x, e)
        if (
            isinstance(tgt, ast.Name)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Name)
            and node.value.func.id in ("min", "max")
            and len(node.value.args) == 2
        ):
            args = node.value.args
            others = [
                a
                for a in args
                if not (isinstance(a, ast.Name) and a.id == tgt.id)
            ]
            if len(others) == 1:
                return (
                    Symbol(tgt.id),
                    node.value.func.id,
                    ast.unparse(others[0]),
                )
    return None


_APPEND_METHODS = frozenset({"append", "add", "appendleft", "put"})


def find_collectors(loop: IRLoop) -> list[Collector]:
    """Recognize append-only output containers among body statements."""
    body = loop.body
    out: list[Collector] = []
    for st in body:
        cand = _collector_in_statement(st)
        if cand is None:
            continue
        sym, method = cand
        container = Symbol(f"{sym.name}[*]")
        # only appended: no other statement reads or writes the container's
        # elements, and nothing rebinds the container variable
        clean = True
        for o in body:
            if o.sid == st.sid:
                continue
            acc = o.deep_accesses()
            if any(container.may_alias(t) for t in acc.touched):
                clean = False
                break
            if Symbol(sym.base) in acc.writes:
                clean = False
                break
        if clean:
            out.append(Collector(sid=st.sid, symbol=container, method=method))
    return out


def _collector_in_statement(st: IRStatement) -> tuple[Symbol, str] | None:
    node = st.node
    if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)):
        return None
    call = node.value
    if not isinstance(call.func, ast.Attribute):
        return None
    if call.func.attr not in _APPEND_METHODS:
        return None
    from repro.frontend.rwsets import _expr_symbol  # canonical spelling

    base = _expr_symbol(call.func.value)
    if base is None:
        return None
    # argument must not mention the container itself
    for arg in call.args:
        for n in ast.walk(arg):
            if isinstance(n, ast.Name) and n.id == base.base:
                return None
    return base, call.func.attr
