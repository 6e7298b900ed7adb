"""The tuning-parameter search space."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.patterns.tuning import ChoiceParameter, TuningParameter

Config = dict[str, Any]


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
