"""The system-level soundness property.

For randomly generated loop programs: **whenever the detector claims a
pattern and the transformer accepts it, the generated parallel function
must compute exactly what the sequential original computes** — under the
default tuning and under randomized tuning configurations.

Programs are assembled from a grammar of statement templates (pure maps,
reductions, collectors, carried state, container writes), so the
generator covers DOALL, pipeline and unmatchable shapes without being
hand-picked.
"""

from __future__ import annotations

import copy
import textwrap

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.frontend import parse_function
from repro.model import build_semantic_model
from repro.patterns import default_catalog
from repro.transform import CodegenError, compile_parallel

# ---------------------------------------------------------------------------
# program generator
# ---------------------------------------------------------------------------

# statement templates over the rolling local `v` (the current value chain),
# the loop variable `x`, a carried scalar `state`, an output list `out`
# and an input-sized array `arr`
_TEMPLATES = [
    "v = v + {k}",
    "v = v * {k}",
    "v = helper(v)",
    "v = v - x",
    "y{i} = v * {k}",
    "v = y{i} + v" ,
    "total += v",
    "best = max(best, v)",
    "out.append(v)",
    "state = state + v",
    "v = v + state",
    "arr[x] = v",
    "v = arr[x] + v",
]


@st.composite
def loop_programs(draw):
    n_stmts = draw(st.integers(2, 6))
    chosen: list[str] = ["v = x"]
    defined_y: list[int] = []
    used = {"total": False, "best": False, "out": False, "state": False,
            "arr": False}
    for i in range(n_stmts):
        t = draw(st.sampled_from(_TEMPLATES))
        if "y{i}" in t:
            if t.startswith("y{i}"):
                defined_y.append(i)
                t = t.format(i=i, k=draw(st.integers(1, 5)))
            else:
                if not defined_y:
                    continue
                t = t.format(i=draw(st.sampled_from(defined_y)),
                             k=draw(st.integers(1, 5)))
        elif "{k}" in t:
            t = t.format(k=draw(st.integers(1, 5)))
        for name in used:
            if name in t:
                used[name] = True
        chosen.append(t)

    body = "\n".join(f"        {line}" for line in chosen)
    inits = []
    rets = ["v"]
    if used["total"]:
        inits.append("    total = 0")
        rets.append("total")
    if used["best"]:
        inits.append("    best = -10**9")
        rets.append("best")
    if used["out"]:
        inits.append("    out = []")
        rets.append("out")
    if used["state"]:
        inits.append("    state = 0")
        rets.append("state")
    if used["arr"]:
        rets.append("arr")

    src = (
        "def work(xs, arr, helper):\n"
        + "\n".join(inits)
        + ("\n" if inits else "")
        + "    v = 0\n"
        + "    for x in xs:\n"
        + body
        + "\n"
        + f"    return ({', '.join(rets)})\n"
    )
    return src


def _helper(v):
    return v * 2 + 1


def _run(src: str, xs: list[int]):
    ns = {"helper": _helper}
    exec(textwrap.dedent(src), ns)
    arr = [0] * 16
    return ns["work"](list(xs), arr, _helper), ns


# ---------------------------------------------------------------------------
# the property
# ---------------------------------------------------------------------------

@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    src=loop_programs(),
    xs=st.lists(st.integers(0, 15), min_size=0, max_size=10),
    # tuning picks are drawn before detection: detection reads profiled
    # time shares, so the number of tuning parameters can differ between
    # a run and its replay, and a draw per parameter would make the
    # strategy itself flaky
    picks=st.lists(st.integers(0, 255), min_size=64, max_size=64),
)
def test_detected_patterns_preserve_semantics(src, xs, picks):
    """Patty's contract is *per exercised input* (optimistic analysis +
    validation): the claim is profiled on the same input it is evaluated
    on.  Input-transfer unsoundness is exercised separately (the gather
    example in test_integration)."""
    expected, ns = _run(src, xs)

    ir = parse_function(src)
    model = build_semantic_model(
        ir,
        fn=ns["work"],
        args=(list(xs), [0] * 16, _helper),
    )
    matches = default_catalog().detect(model)
    if not matches:
        return  # nothing claimed, nothing to check
    match = matches[0]
    try:
        parallel = compile_parallel(ir, match, {"helper": _helper})
    except CodegenError:
        return  # transformation declined the match: acceptable

    # default tuning
    got, _ = expected, None
    result = parallel(list(xs), [0] * 16, _helper)
    assert result == expected, f"{match.pattern}\n{src}"

    # randomized tuning configuration drawn from the match's own space
    assert len(match.tuning) <= len(picks)
    config = {}
    for p, i in zip(match.tuning, picks):
        domain = p.domain()
        config[p.key] = domain[i % len(domain)]
    result = parallel(list(xs), [0] * 16, _helper, __tuning__=config)
    assert result == expected, f"{match.pattern} {config}\n{src}"


@settings(max_examples=30, deadline=None)
@given(
    src=loop_programs(),
    xs=st.lists(st.integers(0, 15), min_size=2, max_size=8, unique=True),
)
def test_generated_unit_tests_pass_for_claimed_patterns(src, xs):
    """Validation coherence: whatever the tool claims on an input, the
    unit tests generated from that same input's trace must pass —
    the tool may be wrong about other inputs, never about the one it saw."""
    from repro.transform.testgen import generate_unit_tests
    from repro.verify import run_parallel_test

    _, ns = _run(src, xs)
    ir = parse_function(src)
    model = build_semantic_model(
        ir, fn=ns["work"], args=(list(xs), [0] * 16, _helper)
    )
    matches = default_catalog().detect(model)
    if not matches:
        return
    match = matches[0]
    if match.loop_sid not in model.loops:
        return
    for test in generate_unit_tests(match, model.loop(match.loop_sid)):
        test.max_schedules = 200  # keep the property fast
        res = run_parallel_test(test)
        if not res.exhausted:
            continue
        assert res.passed, f"{match.pattern}\n{src}\n{res.summary()}"
