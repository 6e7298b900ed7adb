"""One participant x tool session on the study benchmark.

The task: "Find all source code locations that are appropriate candidates
for parallel execution" in the ray tracer (3 true locations, 1 race-
carrying decoy), 15 minutes familiarization + at most 60 minutes work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.study.participants import Participant
from repro.study.tools import ToolKind, ToolModel

#: the study benchmark's ground truth (see repro.benchsuite.raytracer)
TRUE_LOCATIONS = (
    "Renderer.render:s1",
    "Renderer.shade:s1",
    "Renderer.render_aa:s1",
)
DECOY_LOCATION = "Renderer.render_with_stats:s1"
TIME_LIMIT = 60.0

#: the built-in profiler reveals the hottest loop — every manual
#: participant who ran it found this one (paper: "the profiler reveals one
#: code location with parallel potential")
PROFILER_LOCATION = "Renderer.render:s1"


@dataclass
class SessionResult:
    participant: Participant
    tool: ToolKind
    first_tool_use: float            # minutes
    first_identification: float      # minutes; inf when nothing was found
    total_time: float                # minutes
    found: list[str] = field(default_factory=list)
    false_positives: list[str] = field(default_factory=list)
    confident: bool = False          # "sure I found everything"
    #: operation mode the participant worked in (Patty group only):
    #: "automatic" or "tadl" — the paper observed that only the
    #: multicore-experienced engineer experimented with TADL
    mode_used: str = ""

    @property
    def n_correct(self) -> int:
        return len(self.found)


def _positive(rng: random.Random, mean: float, spread: float) -> float:
    """A noisy, strictly positive duration."""
    return max(0.05, rng.gauss(mean, spread))


def simulate_session(
    participant: Participant, tool: ToolModel, rng: random.Random
) -> SessionResult:
    prof = participant.profile

    # ramp-up: annotation languages take time unless you know your way
    ramp = tool.learning_cost * (1.0 - 0.7 * prof.software)
    first_use = _positive(rng, tool.first_use_mean, tool.first_use_spread)
    first_find = ramp + _positive(
        rng, tool.first_find_mean, tool.first_find_spread
    )
    total = min(
        TIME_LIMIT,
        ramp + _positive(rng, tool.total_mean, tool.total_spread),
    )

    coverage = min(
        1.0, tool.coverage_base + tool.coverage_skill_gain * prof.multicore
    )
    found: list[str] = []
    for loc in TRUE_LOCATIONS:
        if tool.kind is ToolKind.MANUAL and loc == PROFILER_LOCATION:
            # the profiler hands this one over
            if rng.random() < 0.97:
                found.append(loc)
            continue
        if rng.random() < coverage:
            found.append(loc)

    false_positives: list[str] = []
    if not tool.filters_races:
        p_decoy = max(
            0.0, tool.decoy_base - tool.decoy_skill_drop * prof.multicore
        )
        if rng.random() < p_decoy:
            false_positives.append(DECOY_LOCATION)

    if not found:
        first_find = float("inf")

    # the manual group was uniformly confident; tool groups trust the tool
    confident = (
        True
        if tool.kind is ToolKind.MANUAL
        else rng.random() < 0.5 + 0.4 * prof.software
    )

    # R3 observation: flexible modes exist, but only multicore-experienced
    # engineers venture beyond full automatism
    mode_used = ""
    if tool.kind is ToolKind.PATTY:
        p_tadl = max(0.0, (prof.multicore - 0.55) * 2.0)
        mode_used = "tadl" if rng.random() < p_tadl else "automatic"

    return SessionResult(
        participant=participant,
        tool=tool.kind,
        first_tool_use=round(first_use, 2),
        first_identification=round(first_find, 2),
        total_time=round(total, 2),
        found=found,
        false_positives=false_positives,
        confident=confident,
        mode_used=mode_used,
    )
