"""Profile-guided tuning hints.

The wall-clock decomposition of a profiled run
(:func:`repro.runtime.profiler.decompose`) splits each stage's time into
compute, descheduled (GIL pressure / preemption), queue_wait (dispatch),
IPC/serialization and recovery overhead.  :func:`classify` turns those
shares into a *boundedness* verdict — compute-, dispatch-,
serialization- or contention-bound — and a list of concrete knob moves
(:class:`Hint`) in the same ``Name@target`` vocabulary that
``configured_parallel_for`` and ``Pipeline.configure`` honour.  The paper
closes the tuning loop by measuring; hints close it faster by telling
the tuner *where to look*: :func:`seed_config` turns hints into a
starting configuration for a :class:`~repro.tuning.space.ParameterSpace`
search and :func:`prune_space` pins hinted dimensions so the remaining
budget explores the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.tuning.space import Config, ParameterSpace

#: share of non-compute time a component needs before the run is blamed
#: on it (dominant-component rule; ties go to the earlier rule below)
SHARE_THRESHOLD = 0.25

#: descheduled share above which a thread-backend run is called
#: contention-bound (GIL pressure) rather than merely oversubscribed
DESCHEDULED_THRESHOLD = 0.35

BOUNDEDNESS = ("compute", "dispatch", "serialization", "contention")


@dataclass(frozen=True)
class Hint:
    """One concrete knob move with its evidence."""

    key: str  #: tuning key, e.g. ``"Transport@loop"``
    value: Any  #: suggested value
    reason: str  #: human-readable evidence, surfaced in reports
    confidence: float = 0.5  #: 0..1, how strongly the shares support it

    def to_dict(self) -> dict[str, Any]:
        return {
            "key": self.key,
            "value": self.value,
            "reason": self.reason,
            "confidence": self.confidence,
        }


@dataclass
class Diagnosis:
    """Boundedness verdict plus the knob moves it implies."""

    bound: str  #: one of :data:`BOUNDEDNESS`
    shares: dict[str, float] = field(default_factory=dict)
    hints: list[Hint] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "bound": self.bound,
            "shares": dict(self.shares),
            "hints": [h.to_dict() for h in self.hints],
        }


def aggregate_shares(decomposition: dict[str, Any]) -> dict[str, float]:
    """Run-wide component shares, stage shares weighted by stage time."""
    stages = decomposition.get("stages") or {}
    comps = ("compute", "descheduled", "queue_wait", "ipc", "recovery")
    totals = {c: 0.0 for c in comps}
    for row in stages.values():
        for c in comps:
            totals[c] += float(row.get(c, 0.0) or 0.0)
    whole = sum(totals.values())
    if whole <= 0.0:
        return {c: 0.0 for c in comps}
    return {c: totals[c] / whole for c in comps}


def classify(
    decomposition: dict[str, Any],
    target: str = "loop",
    backend: str | None = None,
    transport: str | None = None,
    chunk_size: int | None = None,
    workers: int | None = None,
) -> Diagnosis:
    """Diagnose a profiled run and emit knob moves.

    ``decomposition`` is :func:`repro.runtime.profiler.decompose` output;
    the optional context arguments describe the configuration that was
    profiled so hints do not suggest what is already set.  Rules, checked
    in order on run-wide shares:

    * IPC/serialization dominates → *serialization-bound*: move the data
      plane to zero-copy (``Transport=shm``).
    * queue_wait dominates → *dispatch-bound*: coarsen chunks
      (``ChunkSize`` up) and switch to ``Schedule=guided`` so dispatch
      overhead amortises while the tail stays balanced.
    * descheduled time dominates on the thread backend →
      *contention-bound* (the GIL proxy): escape to ``Backend=process``.
    * otherwise → *compute-bound*: parallelism is the only lever
      (``Backend=process`` for CPU-bound Python bytecode, more workers).
    """
    shares = aggregate_shares(decomposition)
    ipc = shares.get("ipc", 0.0) + shares.get("recovery", 0.0)
    queue = shares.get("queue_wait", 0.0)
    desched = shares.get("descheduled", 0.0)
    if backend in ("thread", "serial"):
        # without a process boundary there is nothing to serialize: the
        # chunk-latency-minus-work-window gap is per-dispatch overhead
        queue += ipc
        ipc = 0.0
    hints: list[Hint] = []

    if ipc >= SHARE_THRESHOLD:
        bound = "serialization"
        if transport != "shm":
            hints.append(
                Hint(
                    key=f"Transport@{target}",
                    value="shm",
                    reason=(
                        f"IPC/serialization is {ipc:.0%} of run time; "
                        "zero-copy shared memory skips pickling flat "
                        "numeric chunks"
                    ),
                    confidence=min(1.0, ipc * 2.0),
                )
            )
    elif queue >= SHARE_THRESHOLD:
        bound = "dispatch"
        if chunk_size is not None:
            hints.append(
                Hint(
                    key=f"ChunkSize@{target}",
                    value=max(2, chunk_size * 4),
                    reason=(
                        f"queue wait is {queue:.0%} of run time; larger "
                        "chunks amortise per-dispatch overhead"
                    ),
                    confidence=min(1.0, queue * 2.0),
                )
            )
        else:
            hints.append(
                Hint(
                    key=f"ChunkSize@{target}",
                    value="increase",
                    reason=(
                        f"queue wait is {queue:.0%} of run time; larger "
                        "chunks amortise per-dispatch overhead"
                    ),
                    confidence=min(1.0, queue * 2.0),
                )
            )
        hints.append(
            Hint(
                key=f"Schedule@{target}",
                value="guided",
                reason=(
                    "guided self-scheduling keeps early chunks coarse "
                    "and shrinks toward the tail, cutting dispatches "
                    "without losing balance"
                ),
                confidence=min(1.0, queue * 1.5),
            )
        )
    elif desched >= DESCHEDULED_THRESHOLD and backend in (None, "thread"):
        bound = "contention"
        hints.append(
            Hint(
                key=f"Backend@{target}",
                value="process",
                reason=(
                    f"workers were descheduled {desched:.0%} of their "
                    "wall time (GIL pressure proxy); processes run "
                    "Python bytecode truly in parallel"
                ),
                confidence=min(1.0, desched * 1.5),
            )
        )
    else:
        bound = "compute"
        if backend == "thread":
            hints.append(
                Hint(
                    key=f"Backend@{target}",
                    value="process",
                    reason=(
                        "compute-bound Python bytecode only scales past "
                        "the GIL on the process backend"
                    ),
                    confidence=0.5,
                )
            )
        if workers is not None:
            hints.append(
                Hint(
                    key=f"NumWorkers@{target}",
                    value=workers * 2,
                    reason="compute-bound with no overhead to shave; "
                    "the only lever left is parallelism",
                    confidence=0.3,
                )
            )

    return Diagnosis(bound=bound, shares=shares, hints=hints)


# ---------------------------------------------------------------------------
# feeding the autotuner
# ---------------------------------------------------------------------------

def seed_config(space: ParameterSpace, hints: list[Hint]) -> Config:
    """A starting configuration: defaults plus applicable hints.

    A hint applies when its key is a dimension of ``space`` and its value
    lies in that dimension's domain; for numeric hints outside the domain
    the nearest domain value is used.  Inapplicable hints are ignored, so
    a diagnosis from one run can seed a differently-shaped space.
    """
    config = space.default_config()
    for hint in hints:
        if hint.key not in config:
            continue
        dom = space.domain(hint.key)
        if hint.value in dom:
            config[hint.key] = hint.value
        elif isinstance(hint.value, (int, float)) and all(
            isinstance(d, (int, float)) and not isinstance(d, bool)
            for d in dom
        ):
            config[hint.key] = min(dom, key=lambda d: abs(d - hint.value))
    return config


def prune_space(space: ParameterSpace, hints: list[Hint]) -> ParameterSpace:
    """A copy of ``space`` with hinted dimensions pinned.

    Each applicable hint collapses its dimension to the hinted value
    (:meth:`~repro.tuning.space.ParameterSpace.pin`), so the tuner's
    budget explores only the undiagnosed knobs.  Dimensions without an
    applicable hint — and hints naming keys or values the space does not
    carry — are left alone.
    """
    for hint in hints:
        try:
            space = space.pin(hint.key, hint.value)
        except (KeyError, ValueError):
            continue
    return space
