"""Parallel code generation.

Produces, for each detected pattern, a parallel variant of the function
that instantiates the runtime library — the Python analogue of the paper's
Fig. 3d.  The generated function keeps the original signature plus a
trailing ``__tuning__=None`` parameter taking a tuning-configuration
mapping, so "whenever the parallel application is executed, it initializes
the parallel patterns with the specified values".  The fault-policy keys
(``Retries@…``, ``ItemTimeout@…``, ``OnError@…``, ``StallTimeout@…``)
travel the same path, as do the observability knobs (``Trace@…``,
``Metrics@…``, ``Profile@…`` — the last enables the sampling profiler of
:mod:`repro.runtime.profiler`), so generated code is supervisable and
profilable without recompilation.  A second trailing parameter, ``__chaos__=None``, accepts a
:class:`~repro.runtime.chaos.ChaosInjector`: passing one wraps the
generated stages / loop body with seeded fault injection, which is how the
correctness-validation phase exercises the fault policies
deterministically.

Pipelines: each stage becomes a closure over the caller's scope operating
on a per-element environment dict (the PLDS data stream); parallel levels
become :class:`~repro.runtime.masterworker.MasterWorker` groups whose
members return private update dicts, merged by the group.

DOALL loops: the body becomes a function over the loop target(s); the
recognized collector/reduction statements are replaced by positional
temporaries and replayed sequentially over the ordered results, which
preserves semantics for any associative reduction.

Master/worker regions: each iteration runs its independent statement
group as one :meth:`~repro.runtime.masterworker.MasterWorker.run` on a
group built once per call and named after the region, so generated tasks
get the chunk engine's supervision and every observer session.
"""

from __future__ import annotations

import ast
from typing import Any, Callable

from repro.frontend.ir import IRFunction, IRStatement
from repro.frontend.rwsets import Symbol
from repro.patterns.base import PatternMatch
from repro.tadl.annotate import TadlAnnotation, annotate_source


class CodegenError(RuntimeError):
    """The match shape is outside what the generator supports."""


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _unparse(st: IRStatement, indent: str) -> list[str]:
    text = ast.unparse(st.node)
    return [indent + line for line in text.splitlines()]


def _plain(name: str) -> bool:
    return "." not in name and "[" not in name


def _find_loop_context(
    func: IRFunction, loop_sid: str
) -> tuple[list[IRStatement], IRStatement, list[IRStatement]]:
    """Split the function body into (before, loop, after); the loop must be
    a top-level statement of the function for whole-function codegen."""
    for i, st in enumerate(func.body):
        if st.sid == loop_sid:
            return func.body[:i], st, func.body[i + 1 :]
    raise CodegenError(
        f"loop {loop_sid} is not a top-level statement of {func.name}; "
        "transform the enclosing function instead"
    )


def _loop_header(loop_stmt: IRStatement) -> tuple[str, list[str], str]:
    node = loop_stmt.node
    if not isinstance(node, ast.For):
        raise CodegenError("code generation currently supports for-loops only")
    target_text = ast.unparse(node.target)
    names = [n.id for n in ast.walk(node.target) if isinstance(n, ast.Name)]
    iter_text = ast.unparse(node.iter)
    return target_text, names, iter_text


def _signature(func: IRFunction) -> str:
    return ", ".join(func.params + ["__tuning__=None", "__chaos__=None"])


def _final_value_names(
    func: IRFunction,
    loop_stmt: IRStatement,
    target_names: list[str],
    excluded: set[str],
) -> list[str]:
    """Plain scalars whose post-loop (final-iteration) value escapes.

    The parallel transformations privatize per-iteration locals, so any
    such scalar must be explicitly written back from the last element.
    Only unconditional top-level writes make that well-defined; a name
    with conditional writes raises :class:`CodegenError` (the
    transformation declines the match).
    """
    from repro.model.semantic import live_after

    live = {s.name for s in live_after(func, loop_stmt)}
    always_unconditional: dict[str, bool] = {}
    for st in loop_stmt.body:
        for w in st.deep_accesses().writes:
            if not _plain(w.name):
                continue
            if w.name in excluded or w.name in target_names:
                continue
            if w.name not in live:
                continue
            always_unconditional[w.name] = (
                always_unconditional.get(w.name, True) and not st.is_compound
            )
    conditional = sorted(
        n for n, ok in always_unconditional.items() if not ok
    )
    if conditional:
        raise CodegenError(
            "final value of conditionally-written scalar(s) cannot be "
            "reconstructed: " + ", ".join(conditional)
        )
    return sorted(always_unconditional)


def parallel_name(func: IRFunction) -> str:
    return f"{func.name}__parallel"


# ---------------------------------------------------------------------------
# annotation (phase-3 artifact)
# ---------------------------------------------------------------------------

def generate_annotated_source(func: IRFunction, match: PatternMatch) -> str:
    """Insert the TADL annotation block at the matched loop's source line —
    the artifact the engineer reviews between detection and transformation."""
    ann = TadlAnnotation(
        expression=match.tadl,
        stages=match.stages,
        pattern=match.pattern,
    )
    return annotate_source(func.source, match.location.line, ann)


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def _stage_env_vars(
    body: list[IRStatement], target_names: list[str], carried: set[str]
) -> set[str]:
    """Variables flowing element-wise through the pipeline: the loop
    targets plus every plain name a body statement assigns — except
    loop-carried names, which are stage-persistent state instead."""
    env_vars = set(target_names)
    for st in body:
        acc = st.deep_accesses()
        env_vars |= {w.name for w in acc.writes if _plain(w.name)}
    return env_vars - carried


def _stage_fn_source(
    fn_name: str,
    stmts: list[IRStatement],
    env_vars: set[str],
    carried: set[str],
    as_member: bool,
    indent: str,
) -> list[str]:
    from repro.model.dependence import statement_exposed_reads

    # only reads exposed at stage entry need unpacking: values the stage
    # defines before use are stage-local
    reads: set[str] = set()
    writes: set[str] = set()
    killed: set = set()
    for st in stmts:
        exposed, killed = statement_exposed_reads(st, killed)
        reads |= {r.name for r in exposed if _plain(r.name)}
        acc = st.deep_accesses()
        writes |= {w.name for w in acc.writes if _plain(w.name)}
    # carried names the stage rebinds live in the enclosing function frame
    # (the stage is sequential on elements, PLDD, so this is race-free);
    # their per-element value is *also* packed into the environment so a
    # downstream stage reads the value of its own element, not whatever the
    # writer has moved on to
    nonlocals = sorted(writes & carried)
    unpack = sorted((reads & env_vars) | ((reads & carried) - writes))
    pack = sorted((writes & env_vars) | (writes & carried))

    lines = [f"{indent}def {fn_name}(__env):"]
    inner = indent + "    "
    if nonlocals:
        lines.append(f"{inner}nonlocal {', '.join(nonlocals)}")
    if unpack:
        lines.append(
            f"{inner}{', '.join(unpack)} = "
            + ", ".join(f"__env[{v!r}]" for v in unpack)
        )
    for st in stmts:
        lines.extend(_unparse(st, inner))
    if as_member:
        body = (
            "{" + ", ".join(f"{v!r}: {v}" for v in pack) + "}" if pack else "{}"
        )
        lines.append(f"{inner}return {body}")
    else:
        for v in pack:
            lines.append(f"{inner}__env[{v!r}] = {v}")
        lines.append(f"{inner}return __env")
    return lines


def generate_pipeline_source(func: IRFunction, match: PatternMatch) -> str:
    partition = match.extras.get("partition")
    dag = match.extras.get("dag")
    if partition is None or dag is None:
        raise CodegenError("pipeline match lacks partition/dag extras")

    before, loop_stmt, after = _find_loop_context(func, match.loop_sid)
    target_text, target_names, iter_text = _loop_header(loop_stmt)
    carried = set(match.extras.get("carried_names", []))
    env_vars = _stage_env_vars(loop_stmt.body, target_names, carried)
    by_sid = {st.sid: st for st in loop_stmt.body}
    # iteration-local scalars whose final value escapes (carried names are
    # nonlocal and need no write-back)
    finals = _final_value_names(func, loop_stmt, target_names, carried)

    ind = "    "
    lines: list[str] = [f"def {parallel_name(func)}({_signature(func)}):"]
    lines.append(f"{ind}from repro.runtime import Item, MasterWorker, Pipeline")
    for st in before:
        lines.extend(_unparse(st, ind))

    levels = dag.levels()
    level_exprs: list[str] = []
    for li, level in enumerate(levels):
        members = []
        for si in level:
            name = partition.names[si]
            stmts = [by_sid[sid] for sid in partition.stages[si]]
            fn_name = f"__stage_{name}"
            as_member = len(level) > 1
            lines.extend(
                _stage_fn_source(
                    fn_name, stmts, env_vars, carried, as_member, ind
                )
            )
            repl = "True" if partition.replicable[si] else "False"
            lines.append(
                f"{ind}__el_{name} = Item({fn_name}, name={name!r}, "
                f"replicable={repl})"
            )
            members.append(f"__el_{name}")
        if len(level) == 1:
            level_exprs.append(members[0])
        else:
            lines.append(
                f"{ind}def __merge_{li}(__env, __updates):"
            )
            lines.append(f"{ind}    for __u in __updates:")
            lines.append(f"{ind}        __env.update(__u)")
            lines.append(f"{ind}    return __env")
            group = f"__grp_{li}"
            lines.append(
                f"{ind}{group} = MasterWorker({', '.join(members)}, "
                f"merge=__merge_{li}, name='L{li}')"
            )
            level_exprs.append(group)

    lines.append(
        f"{ind}__pipe = Pipeline({', '.join(level_exprs)}, "
        f"name={func.name!r})"
    )
    lines.append(f"{ind}if __tuning__:")
    lines.append(f"{ind}    __pipe.configure(__tuning__)")
    lines.append(f"{ind}if __chaos__:")
    lines.append(f"{ind}    __pipe.inject(__chaos__)")
    env_literal = "{" + ", ".join(f"{n!r}: {n}" for n in target_names) + "}"
    lines.append(
        f"{ind}__out = __pipe.run("
        f"{env_literal} for {target_text} in {iter_text})"
    )
    if finals:
        lines.append(f"{ind}if __out:")
        for name in finals:
            lines.append(f"{ind}    {name} = __out[-1][{name!r}]")
    for st in after:
        lines.extend(_unparse(st, ind))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# DOALL
# ---------------------------------------------------------------------------

_COMBINE = {
    "add": "{acc} = {acc} + {val}",
    "mult": "{acc} = {acc} * {val}",
    "bitor": "{acc} = {acc} | {val}",
    "bitand": "{acc} = {acc} & {val}",
    "bitxor": "{acc} = {acc} ^ {val}",
    "min": "{acc} = min({acc}, {val})",
    "max": "{acc} = max({acc}, {val})",
}


def generate_doall_source(func: IRFunction, match: PatternMatch) -> str:
    before, loop_stmt, after = _find_loop_context(func, match.loop_sid)
    target_text, target_names, iter_text = _loop_header(loop_stmt)
    reductions = list(match.extras.get("reductions", []))
    collectors = list(match.extras.get("collectors", []))
    if len(collectors) > 1:
        raise CodegenError("at most one collector is supported")

    special = {r.sid: ("red", i) for i, r in enumerate(reductions)}
    for c in collectors:
        special[c.sid] = ("col", 0)

    # the body function privatizes every plain local; a scalar that is
    # read-before-written across the remaining statements (and not excused
    # as a reduction/collector) would need the enclosing frame's value —
    # such a loop is not transformable as a DOALL body
    from repro.model.dependence import statement_exposed_reads

    killed = {Symbol(n) for n in target_names}
    exposed: set = set()
    writes: set = set()
    for st in loop_stmt.body:
        e, killed = statement_exposed_reads(st, killed)
        if st.sid in special:
            continue
        exposed |= e
        acc = st.deep_accesses()
        writes |= {w for w in acc.writes if _plain(w.name)}
    conflicted = sorted(
        s.name
        for s in exposed
        if _plain(s.name) and s in writes and s.name not in target_names
    )
    if conflicted:
        raise CodegenError(
            "loop-carried scalar(s) survive DOALL transformation: "
            + ", ".join(conflicted)
        )

    # scalars whose final (last-iteration) value escapes the loop
    excluded = {r.symbol.name for r in reductions} | {
        c.symbol.base for c in collectors
    }
    finals = _final_value_names(func, loop_stmt, target_names, excluded)

    # in-place mutations of containers/objects that outlive one iteration
    # (``arr[i] = v`` on a parameter, ``obj.attr = v``, mutation through
    # the loop target): correct under threads (shared memory) but
    # silently lost under the process backend, where workers mutate a
    # pickled copy.  Name the bases so the runtime pins execution off
    # processes with a recorded downgrade; containers created inside the
    # body are iteration-private and excused.
    body_locals = {w.name for w in writes}
    shared_mutations = sorted({
        w.base
        for st in loop_stmt.body
        if st.sid not in special
        for w in st.deep_accesses().writes
        if not _plain(w.name)
        and w.base not in excluded
        and w.base not in body_locals
    })

    ind = "    "
    lines: list[str] = [f"def {parallel_name(func)}({_signature(func)}):"]
    lines.append(f"{ind}from repro.runtime import configured_parallel_for")
    for st in before:
        lines.extend(_unparse(st, ind))

    # the body function over one stream element
    lines.append(f"{ind}def __body(__e):")
    inner = ind + "    "
    if len(target_names) == 1 and target_text == target_names[0]:
        lines.append(f"{inner}{target_text} = __e")
    else:
        lines.append(f"{inner}{target_text} = __e")
    rets: list[str] = []
    col_expr: str | None = None
    for st in loop_stmt.body:
        tag = special.get(st.sid)
        if tag is None:
            lines.extend(_unparse(st, inner))
        elif tag[0] == "col":
            call = st.node.value  # type: ignore[attr-defined]
            arg = ast.unparse(call.args[0])
            lines.append(f"{inner}__collect = {arg}")
            col_expr = "__collect"
        else:
            i = tag[1]
            lines.append(f"{inner}__red_{i} = {reductions[i].expr}")
            rets.append(f"__red_{i}")
    ret_items = ([col_expr] if col_expr else []) + rets + finals
    if not ret_items:
        lines.append(f"{inner}return None")
    elif len(ret_items) == 1:
        lines.append(f"{inner}return {ret_items[0]}")
    else:
        lines.append(f"{inner}return ({', '.join(ret_items)})")

    # chaos is handed to the runtime unwrapped: configured_parallel_for
    # wraps thread/serial runs itself and ships the injector's spec to
    # worker processes under Backend=process, where a parent-side closure
    # could not travel
    shared_kw = (
        f", shared_writes={tuple(shared_mutations)!r}"
        if shared_mutations
        else ""
    )
    lines.append(
        f"{ind}__results = configured_parallel_for("
        f"{iter_text}, __body, dict(__tuning__ or {{}}), "
        f"chaos=__chaos__{shared_kw})"
    )

    # sequential replay of collector/reduction over ordered results
    if col_expr or reductions:
        lines.append(f"{ind}for __r in __results:")
        idx = 0
        if col_expr:
            c = collectors[0]
            container = c.symbol.base
            val = "__r" if len(ret_items) == 1 else f"__r[{idx}]"
            lines.append(f"{ind}    {container}.{c.method}({val})")
            idx += 1
        for i, r in enumerate(reductions):
            val = "__r" if len(ret_items) == 1 else f"__r[{idx}]"
            tmpl = _COMBINE.get(r.op)
            if tmpl is None:
                raise CodegenError(f"no combiner for reduction op {r.op!r}")
            lines.append(f"{ind}    " + tmpl.format(acc=r.symbol.name, val=val))
            idx += 1

    # final values come from the last element (writes are unconditional,
    # so the last iteration defines them)
    if finals:
        lines.append(f"{ind}if __results:")
        for k, name in enumerate(finals):
            offset = len(ret_items) - len(finals) + k
            val = (
                "__results[-1]"
                if len(ret_items) == 1
                else f"__results[-1][{offset}]"
            )
            lines.append(f"{ind}    {name} = {val}")

    for st in after:
        lines.extend(_unparse(st, ind))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# master/worker
# ---------------------------------------------------------------------------

def generate_masterworker_source(func: IRFunction, match: PatternMatch) -> str:
    group: list[str] = list(match.extras.get("group", []))
    if not group:
        raise CodegenError("master/worker match lacks its statement group")
    before, loop_stmt, after = _find_loop_context(func, match.loop_sid)
    target_text, _, iter_text = _loop_header(loop_stmt)

    by_sid = {st.sid: st for st in loop_stmt.body}
    for sid in group:
        node = by_sid[sid].node
        ok = (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
        ) or (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call))
        if not ok:
            raise CodegenError(
                f"statement {sid} is not a simple assignment or call; "
                "master/worker generation requires v = expr / f(...) forms"
            )

    ind = "    "
    lines: list[str] = [f"def {parallel_name(func)}({_signature(func)}):"]
    lines.append(f"{ind}from repro.runtime import MasterWorker")
    # the group runs on threads, never on processes: it closes over
    # loop-local state, and a bare call's side effect would be lost on a
    # process copy; SequentialExecution runs it in the calling thread
    lines.append(
        f"{ind}__seq = bool((__tuning__ or {{}}).get("
        f"'SequentialExecution@workers', False))"
    )
    lines.append(
        f"{ind}__wrap = __chaos__.wrap if __chaos__ else "
        f"(lambda __f, name=None: __f)"
    )
    region = f"{func.name}:{match.loop_sid}"
    lines.append(
        f"{ind}__mw = MasterWorker(workers={len(group)}, name={region!r})"
    )
    for st in before:
        lines.extend(_unparse(st, ind))
    lines.append(f"{ind}for {target_text} in {iter_text}:")
    inner = ind + "    "
    for st in loop_stmt.body:
        if st.sid not in group:
            lines.extend(_unparse(st, inner))
        elif st.sid == group[0]:
            # the group is contiguous: emit it whole, at its first member
            branch = inner + "    "
            lines.append(f"{inner}if __seq:")
            for g in group:
                lines.extend(_unparse(by_sid[g], branch))
            lines.append(f"{inner}else:")
            lines.append(f"{branch}__r = __mw.run([")
            for g in group:
                fid = f"__f_{g.replace('.', '_')}"  # the task's chaos name
                expr = ast.unparse(by_sid[g].node.value)
                lines.append(f"{branch}    __wrap(lambda: {expr}, {fid!r}),")
            lines.append(f"{branch}])")
            for slot, g in enumerate(group):
                node = by_sid[g].node
                if isinstance(node, ast.Assign):  # a bare call keeps no slot
                    var = node.targets[0].id  # type: ignore[attr-defined]
                    lines.append(f"{branch}{var} = __r[{slot}]")
    for st in after:
        lines.extend(_unparse(st, ind))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def generate_parallel_source(func: IRFunction, match: PatternMatch) -> str:
    """Generate the parallel variant of ``func`` for a detected pattern."""
    if match.pattern == "pipeline":
        return generate_pipeline_source(func, match)
    if match.pattern == "doall":
        return generate_doall_source(func, match)
    if match.pattern == "masterworker":
        return generate_masterworker_source(func, match)
    raise CodegenError(f"unknown pattern {match.pattern!r}")


def compile_parallel(
    func: IRFunction,
    match: PatternMatch,
    env: dict[str, Any] | None = None,
) -> Callable:
    """Generate, compile and return the parallel function.

    ``env`` supplies the free names the original function needed (helpers,
    imports); the generated function is defined in a copy of it.
    """
    source = generate_parallel_source(func, match)
    namespace: dict[str, Any] = dict(env or {})
    code = compile(source, filename=f"<parallel {func.name}>", mode="exec")
    exec(code, namespace)
    return namespace[parallel_name(func)]
