"""Tuning parameters — the "tunable" in tunable parallel patterns.

Paper, section 2.1: *"Changing their values has implications on the
runtime behavior of a parallel application, but not on its correct
semantics."*  Every detected pattern carries a list of these, built from
the one knob catalog :data:`KNOBS`; they are serialized into the tuning
configuration file (:mod:`repro.transform.tuningfile`) and explored by
the auto tuner (:mod:`repro.tuning`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable


@dataclass
class TuningParameter:
    """Base class: a named, typed, located knob.

    ``target`` anchors the parameter (a stage name, a stage pair like
    ``"B/C"`` for StageFusion, or the loop itself); ``location`` is the
    source location recorded in the tuning file so values can be changed
    "without the need to recompile".
    """

    name: str
    target: str
    default: Any = None
    value: Any = None
    location: str = ""

    def __post_init__(self) -> None:
        if self.value is None:
            self.value = self.default

    @property
    def key(self) -> str:
        return f"{self.name}@{self.target}"

    def domain(self) -> list[Any]:  # pragma: no cover - abstract
        raise NotImplementedError

    def validate(self, value: Any) -> bool:
        return value in self.domain()

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "target": self.target,
            "type": type(self).__name__,
            "default": self.default,
            "value": self.value,
            "location": self.location,
            "domain": self.domain_spec(),
        }

    def domain_spec(self) -> Any:
        return self.domain()


@dataclass
class BoolParameter(TuningParameter):
    default: bool = False

    def domain(self) -> list[bool]:
        return [False, True]


@dataclass
class IntParameter(TuningParameter):
    default: int = 1
    lo: int = 1
    hi: int = 8
    step: int = 1

    def domain(self) -> list[int]:
        return list(range(self.lo, self.hi + 1, self.step))

    def domain_spec(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "step": self.step}


@dataclass
class ChoiceParameter(TuningParameter):
    choices: tuple = ()

    def domain(self) -> list[Any]:
        return list(self.choices)


def from_dict(d: dict) -> TuningParameter:
    """Inverse of :meth:`TuningParameter.to_dict` (tuning-file loading)."""
    kind = d.get("type", "TuningParameter")
    common = dict(
        name=d["name"],
        target=d["target"],
        default=d.get("default"),
        value=d.get("value"),
        location=d.get("location", ""),
    )
    if kind == "BoolParameter":
        return BoolParameter(**common)
    if kind == "IntParameter":
        spec = d.get("domain") or {}
        return IntParameter(
            **common,
            lo=spec.get("lo", 1),
            hi=spec.get("hi", 8),
            step=spec.get("step", 1),
        )
    if kind == "ChoiceParameter":
        return ChoiceParameter(**common, choices=tuple(d.get("domain") or ()))
    return TuningParameter(**common)


def as_config(params: Iterable[TuningParameter]) -> dict[str, Any]:
    """Flatten parameters to a {key: value} configuration mapping."""
    return {p.key: p.value for p in params}


def apply_config(
    params: Iterable[TuningParameter], config: dict[str, Any]
) -> None:
    """Set parameter values from a configuration mapping, validating each."""
    by_key = {p.key: p for p in params}
    for key, value in config.items():
        p = by_key.get(key)
        if p is None:
            raise KeyError(f"unknown tuning parameter {key!r}")
        if not p.validate(value):
            raise ValueError(
                f"value {value!r} outside domain of {key} ({p.domain_spec()})"
            )
        p.value = value


#: legal values of a boolean knob
BOOL = (False, True)

#: Every knob a detector emits, each defined once here:
#: ``name -> (parameter type, default, tuner domain)``.  A count knob
#: (``IntParameter``) spans ``1..hi`` and its detector knows ``hi`` (a
#: worker or replication limit), so its domain here is ``None``.  The
#: runtime validates the same values against its own sets
#: (``BACKENDS``, ``SCHEDULES``, ``TRANSPORTS``, ``ON_ERROR_MODES``), and
#: a test pins each domain below to them, less the runtime names a trial
#: would only repeat.
KNOBS: dict[str, tuple[type, Any, tuple | None]] = {
    # PLTP (paper section 2.2) and the DOALL loop's own knobs
    "NumWorkers": (IntParameter, 4, None),
    "StageReplication": (IntParameter, 1, None),
    "OrderPreservation": (BoolParameter, True, BOOL),
    "StageFusion": (BoolParameter, False, BOOL),
    "SequentialExecution": (BoolParameter, False, BOOL),
    "BufferCapacity": (ChoiceParameter, 8, (1, 2, 4, 8, 16, 32, 64)),
    "ChunkSize": (ChoiceParameter, 1, (1, 2, 4, 8, 16, 32, 64, 128)),
    # fixed-stride chunks dealt round-robin (static), claimed from a
    # shared counter (dynamic), or shrinking geometrically down to
    # ChunkSize (guided, OpenMP's guided self-scheduling).  The runtime
    # also accepts ``adaptive``, an alias of guided; a trial on it would
    # re-measure guided, so it is left out
    "Schedule": (ChoiceParameter, "dynamic", ("static", "dynamic", "guided")),
    # the parallel substrate: thread is safe anywhere; process is the only
    # one that beats the GIL.  The runtime's serial (the calling thread)
    # is SequentialExecution's, so no trial repeats it here
    "Backend": (ChoiceParameter, "thread", ("thread", "process")),
    # how data crosses the process boundary: pickle works for any data,
    # shm is zero-copy for flat numeric data (else a recorded downgrade)
    "Transport": (ChoiceParameter, "pickle", ("pickle", "shm")),
    # supervision: the per-element fault policy and the pipeline's stall
    # check (0 disables a timeout)
    "Retries": (ChoiceParameter, 0, (0, 1, 2, 3)),
    "ItemTimeout": (ChoiceParameter, 0.0, (0.0, 0.1, 0.5, 1.0, 5.0, 30.0)),
    "OnError": (
        ChoiceParameter, "fail_fast", ("fail_fast", "skip", "fallback"),
    ),
    "StallTimeout": (ChoiceParameter, 30.0, (0.0, 1.0, 5.0, 30.0, 120.0)),
    # resilience (process backend): the dead-worker respawn budget, and
    # the latency quantile above which a straggling chunk gets a
    # speculative duplicate (0.0 = off)
    "PoolRestarts": (ChoiceParameter, 0, (0, 1, 2, 3)),
    "Hedge": (ChoiceParameter, 0.0, (0.0, 0.9, 0.95, 0.99)),
    # observability, off by default: spans (repro.runtime.trace),
    # counters and histograms (metrics), the sampling profiler (profiler)
    "Trace": (BoolParameter, False, BOOL),
    "Metrics": (BoolParameter, False, BOOL),
    "Profile": (BoolParameter, False, BOOL),
}


def knob(
    name: str, target: str, location: str, hi: int | None = None
) -> TuningParameter:
    """The catalog knob ``name`` anchored at ``target``; a count knob
    takes its upper bound ``hi`` from the detector."""
    kind, default, domain = KNOBS[name]
    common = dict(name=name, target=target, default=default, location=location)
    if kind is IntParameter:
        return IntParameter(**common, lo=1, hi=hi)
    if kind is BoolParameter:
        return BoolParameter(**common)
    return ChoiceParameter(**common, choices=domain)


def knobs(target: str, location: str, *names: str) -> list[TuningParameter]:
    """The catalog knobs ``names``, in order, all anchored at ``target``."""
    return [knob(name, target, location) for name in names]
