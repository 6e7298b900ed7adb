"""Tuning parameters — the "tunable" in tunable parallel patterns.

Paper, section 2.1: *"Changing their values has implications on the
runtime behavior of a parallel application, but not on its correct
semantics."*  Every detected pattern carries a list of these; they are
serialized into the tuning configuration file
(:mod:`repro.transform.tuningfile`) and explored by the auto tuner
(:mod:`repro.tuning`).
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


# Canonical parameter names used across the code base (PLTP, section 2.2).
STAGE_REPLICATION = "StageReplication"
ORDER_PRESERVATION = "OrderPreservation"
STAGE_FUSION = "StageFusion"
SEQUENTIAL_EXECUTION = "SequentialExecution"
NUM_WORKERS = "NumWorkers"
CHUNK_SIZE = "ChunkSize"
SCHEDULE = "Schedule"
BUFFER_CAPACITY = "BufferCapacity"

#: Schedule values the tuner explores: fixed-stride chunks assigned
#: round-robin (static) or claimed from a shared counter (dynamic), and
#: geometrically shrinking descriptors à la OpenMP guided
#: self-scheduling (guided, where ChunkSize is the minimum chunk).  The
#: runtime also accepts ``adaptive``, an alias of guided, so it is left
#: out here: a trial on it would re-measure guided — see
#: repro.runtime.adaptive
SCHEDULE_DOMAIN = ("static", "dynamic", "guided")

# The execution substrate.  Like every other knob it changes runtime
# behaviour, never semantics: ``serial`` runs in the calling thread,
# ``thread`` on the supervised thread pool (I/O-bound work), ``process``
# on a multiprocessing pool (CPU-bound work — the only substrate that
# beats the GIL).  See repro.runtime.backend.
BACKEND = "Backend"

#: legal Backend values, in increasing setup-cost order
BACKEND_DOMAIN = ("serial", "thread", "process")

# Supervision knobs (fault policies + stall watchdog).  Like the
# performance knobs, "changing their values has implications on the
# runtime behavior of a parallel application, but not on its correct
# semantics" — they are serialized into the same tuning file and applied
# by the same ``configure`` path, re-tunable without recompilation.
RETRIES = "Retries"
ITEM_TIMEOUT = "ItemTimeout"
ON_ERROR = "OnError"
STALL_TIMEOUT = "StallTimeout"

#: shared domains for the supervision knobs (0 disables a timeout)
RETRIES_DOMAIN = (0, 1, 2, 3)
ITEM_TIMEOUT_DOMAIN = (0.0, 0.1, 0.5, 1.0, 5.0, 30.0)
ON_ERROR_DOMAIN = ("fail_fast", "skip", "fallback")
STALL_TIMEOUT_DOMAIN = (0.0, 1.0, 5.0, 30.0, 120.0)

# Observability: span tracing (repro.runtime.trace).  Off by default —
# the tuning cycle's measure phase turns it on to get per-stage timings
# instead of tuning blind between whole-run wall clocks.
TRACE = "Trace"

# Observability: counter/gauge/histogram collection
# (repro.runtime.metrics).  Off by default like Trace; `repro run
# --metrics-out` and the live dashboard turn it on.
METRICS = "Metrics"

# Observability: sampling profiler (repro.runtime.profiler).  Off by
# default; when on, workers stamp per-chunk work windows, sample their
# own stacks at a fixed Hz, and ship folded stacks over the chunk-result
# road.  `repro profile` and `repro run --profile-out` turn it on.
PROFILE = "Profile"

# Resilience knobs (crash recovery; see repro.runtime.backend).
# PoolRestarts bounds how many dead process-pool workers a run may
# respawn (0 = historical fail-on-loss); Hedge is the latency quantile
# above which a straggling chunk gets a speculative duplicate dispatch
# (0.0 = off).  Both are behaviour-only: recovered and hedged runs
# produce the same results as undisturbed ones.
POOL_RESTARTS = "PoolRestarts"
HEDGE = "Hedge"

POOL_RESTARTS_DOMAIN = (0, 1, 2, 3)
HEDGE_DOMAIN = (0.0, 0.9, 0.95, 0.99)

# Data-plane knob (process backend; see repro.runtime.shm).  Transport
# picks how inputs/results cross the process boundary: ``pickle``
# (universal) or ``shm`` (zero-copy shared memory for flat numeric
# data, with a recorded downgrade when data does not qualify).  It is
# behaviour-only: results, error records and accounting are
# transport-independent.
TRANSPORT = "Transport"

TRANSPORT_DOMAIN = ("pickle", "shm")
