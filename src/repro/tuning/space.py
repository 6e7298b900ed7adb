"""The tuning-parameter search space."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.patterns.tuning import TuningParameter

Config = dict[str, Any]


def fault_dimensions(
    stage_names: list[str], stall_timeout: bool = True
) -> list[TuningParameter]:
    """The supervision knobs as search-space dimensions.

    One ``Retries`` / ``ItemTimeout`` / ``OnError`` triple per stage plus
    the pipeline-wide ``StallTimeout`` — the same keys
    ``Pipeline.configure`` honours, so a tuner can trade robustness
    against throughput (retries cost time; skip costs elements).
    """
    from repro.patterns.tuning import (
        ITEM_TIMEOUT,
        ITEM_TIMEOUT_DOMAIN,
        ON_ERROR,
        ON_ERROR_DOMAIN,
        RETRIES,
        RETRIES_DOMAIN,
        STALL_TIMEOUT,
        STALL_TIMEOUT_DOMAIN,
        ChoiceParameter,
    )

    params: list[TuningParameter] = []
    for name in stage_names:
        params.append(
            ChoiceParameter(
                name=RETRIES, target=name, default=0, choices=RETRIES_DOMAIN
            )
        )
        params.append(
            ChoiceParameter(
                name=ITEM_TIMEOUT,
                target=name,
                default=0.0,
                choices=ITEM_TIMEOUT_DOMAIN,
            )
        )
        params.append(
            ChoiceParameter(
                name=ON_ERROR,
                target=name,
                default="fail_fast",
                choices=ON_ERROR_DOMAIN,
            )
        )
    if stall_timeout:
        params.append(
            ChoiceParameter(
                name=STALL_TIMEOUT,
                target="pipeline",
                default=30.0,
                choices=STALL_TIMEOUT_DOMAIN,
            )
        )
    return params


def with_fault_dimensions(
    space: "ParameterSpace", stage_names: list[str], stall_timeout: bool = True
) -> "ParameterSpace":
    """A copy of ``space`` widened by the supervision dimensions."""
    return ParameterSpace(
        parameters=list(space.parameters)
        + fault_dimensions(stage_names, stall_timeout=stall_timeout)
    )


def backend_dimension(target: str = "loop") -> TuningParameter:
    """The execution substrate as a search-space dimension.

    The same ``Backend@<target>`` key ``configured_parallel_for`` and
    ``Pipeline.configure`` honour; a tuner explores it like any other
    knob, so the thread/process decision is measured per workload instead
    of guessed (I/O-bound loops keep threads, CPU-bound ones discover the
    process pool's multicore speedup).
    """
    from repro.patterns.tuning import BACKEND, BACKEND_DOMAIN, ChoiceParameter

    return ChoiceParameter(
        name=BACKEND, target=target, default="thread", choices=BACKEND_DOMAIN
    )


def with_backend_dimension(
    space: "ParameterSpace", target: str = "loop"
) -> "ParameterSpace":
    """A copy of ``space`` widened by the ``Backend`` dimension."""
    return ParameterSpace(
        parameters=list(space.parameters) + [backend_dimension(target)]
    )


def schedule_dimension(target: str = "loop") -> TuningParameter:
    """The chunk-assignment discipline as a search-space dimension.

    The same ``Schedule@<target>`` key ``configured_parallel_for``
    honours, widened past the classic static/dynamic pair: ``guided``
    plans geometrically shrinking descriptors (OpenMP guided
    self-scheduling — ``ChunkSize`` becomes the minimum chunk).  The
    runtime's ``adaptive`` is an alias of ``guided``
    (``repro.runtime.adaptive``), so the dimension leaves it out and no
    trial re-measures guided under a second name.  A tuner explores the
    discipline like any other knob, so skewed workloads discover guided
    empirically instead of by rule-of-thumb.
    """
    from repro.patterns.tuning import (
        SCHEDULE,
        SCHEDULE_DOMAIN,
        ChoiceParameter,
    )

    return ChoiceParameter(
        name=SCHEDULE,
        target=target,
        default="dynamic",
        choices=SCHEDULE_DOMAIN,
    )


def with_schedule_dimension(
    space: "ParameterSpace", target: str = "loop"
) -> "ParameterSpace":
    """A copy of ``space`` widened by the ``Schedule`` dimension."""
    return ParameterSpace(
        parameters=list(space.parameters) + [schedule_dimension(target)]
    )


def data_plane_dimensions(target: str = "loop") -> list[TuningParameter]:
    """The process backend's data-plane knob as a search dimension.

    ``Transport@<target>`` picks how data crosses the process boundary
    (``pickle`` vs zero-copy ``shm``) — the key
    ``configured_parallel_for`` honours.  It degrades gracefully (a
    recorded downgrade) so the tuner can explore it on any workload; it
    only *wins* on flat numeric data, which is exactly what measuring
    discovers.
    """
    from repro.patterns.tuning import (
        TRANSPORT,
        TRANSPORT_DOMAIN,
        ChoiceParameter,
    )

    return [
        ChoiceParameter(
            name=TRANSPORT,
            target=target,
            default="pickle",
            choices=TRANSPORT_DOMAIN,
        ),
    ]


def with_data_plane_dimensions(
    space: "ParameterSpace", target: str = "loop"
) -> "ParameterSpace":
    """A copy of ``space`` widened by the data-plane dimension."""
    return ParameterSpace(
        parameters=list(space.parameters) + data_plane_dimensions(target)
    )


@dataclass
class ParameterSpace:
    """An ordered space of tuning parameters with finite domains."""

    parameters: list[TuningParameter] = field(default_factory=list)

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for p in self.parameters:
            if p.key in seen:
                raise ValueError(f"duplicate parameter key {p.key}")
            seen.add(p.key)

    @property
    def keys(self) -> list[str]:
        return [p.key for p in self.parameters]

    def domain(self, key: str) -> list[Any]:
        for p in self.parameters:
            if p.key == key:
                return p.domain()
        raise KeyError(key)

    def default_config(self) -> Config:
        return {p.key: p.default for p in self.parameters}

    def size(self) -> int:
        n = 1
        for p in self.parameters:
            n *= len(p.domain())
        return n

    def random_config(self, rng: random.Random) -> Config:
        return {p.key: rng.choice(p.domain()) for p in self.parameters}

    def pin(self, key: str, value: Any) -> "ParameterSpace":
        """A copy with ``key``'s domain collapsed to ``value``.

        The pruning primitive behind profile-guided hints
        (:func:`repro.tuning.hints.prune_space`): a pinned dimension
        contributes one choice, so the remaining search budget explores
        only the undiagnosed knobs.  Raises ``KeyError`` for an unknown
        key and ``ValueError`` for a value outside the domain.
        """
        from repro.patterns.tuning import ChoiceParameter

        if key not in self.keys:
            raise KeyError(key)
        if value not in self.domain(key):
            raise ValueError(f"{value!r} not in the domain of {key}")
        params = []
        for p in self.parameters:
            if p.key == key:
                params.append(
                    ChoiceParameter(
                        name=p.name,
                        target=p.target,
                        default=value,
                        choices=(value,),
                        location=p.location,
                    )
                )
            else:
                params.append(p)
        return ParameterSpace(parameters=params)

    def neighbors(self, config: Config) -> Iterator[Config]:
        """Configurations differing in exactly one parameter by one domain
        step (the move set for hill climbing and tabu search)."""
        for p in self.parameters:
            dom = p.domain()
            try:
                i = dom.index(config[p.key])
            except ValueError:
                i = 0
            for j in (i - 1, i + 1):
                if 0 <= j < len(dom):
                    new = dict(config)
                    new[p.key] = dom[j]
                    yield new

    # ------------------------------------------------------------------
    # vector encoding for Nelder-Mead (domain indices as floats)
    # ------------------------------------------------------------------
    def encode(self, config: Config) -> list[float]:
        vec = []
        for p in self.parameters:
            dom = p.domain()
            try:
                vec.append(float(dom.index(config[p.key])))
            except ValueError:
                vec.append(0.0)
        return vec

    def decode(self, vector: list[float]) -> Config:
        config: Config = {}
        for p, x in zip(self.parameters, vector):
            dom = p.domain()
            i = int(round(x))
            i = max(0, min(len(dom) - 1, i))
            config[p.key] = dom[i]
        return config

    def clip(self, vector: list[float]) -> list[float]:
        out = []
        for p, x in zip(self.parameters, vector):
            hi = len(p.domain()) - 1
            out.append(max(0.0, min(float(hi), x)))
        return out

    def freeze(self, config: Config) -> tuple:
        """Hashable identity of a configuration (tabu lists, caches)."""
        return tuple(config[k] for k in self.keys)
