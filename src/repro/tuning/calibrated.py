"""Calibrated tuning: simulate on measured shapes, validate winners for real.

The simulator measure backends answer cheaply but from hand-written
costs; :class:`~repro.tuning.tracesource.TracedPipelineSource` answers
from reality but pays a full run per evaluation.  :class:`CalibratedSource`
takes both ends of that trade:

1. **calibrate** — one real traced run of the workload (serial, so the
   measured wall is the sequential baseline), fitted into an
   :class:`~repro.simcore.calibrate.EmpiricalStageCosts` workload;
2. **tune** — every tuner evaluation runs on the pipeline *simulator*
   over the fitted costs (microseconds each, measured shapes);
3. **validate** — the top-k distinct configurations re-run for real with
   tracing on; the winner is the one reality prefers, and the
   simulated-vs-measured gap per configuration is reported.

The result: tuning cost close to the simulator's, tuning truth anchored
to the machine's.
"""

from __future__ import annotations

import time
from typing import Any

from repro.runtime.item import Item
from repro.runtime.pipeline import Pipeline
from repro.simcore.calibrate import (
    CalibrationResult,
    fit_workload,
    replay_makespan,
)
from repro.simcore.machine import DEFAULT_MACHINE, Machine
from repro.simcore.simulate import simulate_pipeline
from repro.tuning.space import Config
from repro.tuning.tracesource import SleepStage


def run_traced(
    workload: Any,
    elements: int,
    scale: float = 1.0,
    config: Config | None = None,
    backend: str = "thread",
) -> tuple[float, dict[str, Any]]:
    """One real traced run of a cost-model workload.

    Builds a pipeline of :class:`SleepStage` items (each element costs
    what the model says, times ``scale``), applies ``config``, runs
    ``elements`` items with span tracing on, and returns ``(wall seconds,
    trace summary)``.  ``backend="serial"`` runs the pipeline in the
    calling thread (``SequentialExecution``) — the calibration baseline;
    any other backend runs it on its stage threads.
    """
    items = [
        Item(SleepStage(s, scale), name=s.name, replicable=s.replicable)
        for s in workload.stages
    ]
    pipe = Pipeline(
        *items, stall_timeout=None, sequential=backend == "serial", trace=True
    )
    if config:
        pipe.configure(dict(config))
    start = time.perf_counter()
    pipe.run(range(elements))
    wall = time.perf_counter() - start
    return wall, pipe.stats.get("trace") or {}


class CalibratedSource:
    """A MeasureFn that tunes on a measurement-seeded simulator.

    Parameters
    ----------
    workload:
        The hand-written :class:`~repro.simcore.costmodel.WorkloadCosts`
        shape to calibrate (stage names, order, replicability).
    machine:
        Simulated platform for the tuning evaluations.
    elements:
        Stream length used everywhere — the calibration run, the fitted
        workload's ``n``, and each validation run — so simulated and
        measured makespans describe the same stream.
    time_budget:
        Target wall seconds of the serial calibration run; the model
        costs are scaled to hit it, and the fitted (real-second) costs
        inherit that scale.
    top_k:
        How many distinct best configurations :meth:`validate` re-runs
        for real.
    """

    def __init__(
        self,
        workload: Any,
        machine: Machine | None = None,
        elements: int = 32,
        time_budget: float = 0.4,
        backend: str = "thread",
        top_k: int = 3,
        seed: int = 0,
    ) -> None:
        self.workload = workload
        self.machine = machine or DEFAULT_MACHINE
        self.elements = max(1, min(elements, workload.n))
        self.backend = backend
        self.top_k = max(1, top_k)
        self.seed = seed
        per_element = workload.sequential_time() / max(workload.n, 1)
        sequential = per_element * self.elements
        self.scale = time_budget / sequential if sequential > 0 else 1.0
        self.calibration: CalibrationResult | None = None
        #: every simulator evaluation: (config, simulated makespan)
        self.evaluations: list[tuple[Config, float]] = []
        #: every validation: {config, simulated, measured, error}
        self.validations: list[dict[str, Any]] = []

    # ------------------------------------------------------------------
    # step 1: calibrate
    # ------------------------------------------------------------------
    def calibrate(self) -> CalibrationResult:
        """Run the workload once (serial, traced) and fit its costs."""
        wall, summary = run_traced(
            self.workload, self.elements, self.scale, backend="serial"
        )
        fitted = fit_workload(
            summary, n=self.elements, seed=self.seed, like=self.workload
        )
        self.calibration = CalibrationResult(
            fitted=fitted,
            summary=summary,
            measured_makespan=wall,
            simulated_makespan=replay_makespan(fitted, "serial"),
            backend="serial",
            elements=self.elements,
            meta={"scale": self.scale},
        )
        return self.calibration

    @property
    def fitted(self) -> Any:
        if self.calibration is None:
            self.calibrate()
        return self.calibration.fitted

    # ------------------------------------------------------------------
    # step 2: the MeasureFn contract (simulator on fitted costs)
    # ------------------------------------------------------------------
    def measure(self, config: Config) -> float:
        makespan = simulate_pipeline(
            self.fitted, self.machine, dict(config)
        ).makespan
        self.evaluations.append((dict(config), makespan))
        return makespan

    __call__ = measure

    # ------------------------------------------------------------------
    # step 3: validate the winners for real
    # ------------------------------------------------------------------
    def validate(self, top_k: int | None = None) -> list[dict[str, Any]]:
        """Re-run the top-k distinct simulated configs with real tracing.

        Fitted costs are already wall seconds, so validation replays them
        at ``scale=1.0``; each entry records the simulated makespan, the
        measured wall, and their relative gap.  Entries are sorted by
        measured wall — reality picks the winner.
        """
        k = self.top_k if top_k is None else max(1, top_k)
        ranked: list[tuple[Config, float]] = []
        seen: set[tuple] = set()
        for config, makespan in sorted(
            self.evaluations, key=lambda e: e[1]
        ):
            key = tuple(sorted(config.items()))
            if key in seen:
                continue
            seen.add(key)
            ranked.append((config, makespan))
            if len(ranked) == k:
                break
        self.validations = []
        for config, simulated in ranked:
            wall, _summary = run_traced(
                self.fitted,
                self.elements,
                scale=1.0,
                config=config,
                backend=self.backend,
            )
            gap = abs(simulated - wall) / wall if wall > 0 else 0.0
            self.validations.append(
                {
                    "config": dict(config),
                    "simulated": simulated,
                    "measured": wall,
                    "error": gap,
                }
            )
        self.validations.sort(key=lambda v: v["measured"])
        return self.validations

    def best_validated(self) -> dict[str, Any] | None:
        """The measured-fastest validated configuration, if any."""
        return self.validations[0] if self.validations else None

    def explain(self) -> str:
        """The calibrated cycle, summarized."""
        lines = []
        if self.calibration is not None:
            c = self.calibration
            lines.append(
                f"calibrated source: fitted {len(c.fitted.stages)} stage(s) "
                f"from a {c.measured_makespan * 1e3:.1f} ms serial run "
                f"({c.elements} elements, "
                f"makespan error {c.makespan_error * 100:.1f}%)"
            )
        lines.append(
            f"  {len(self.evaluations)} simulated evaluation(s), "
            f"{len(self.validations)} validated for real"
        )
        for v in self.validations:
            lines.append(
                f"  measured {v['measured'] * 1e3:8.2f} ms, simulated "
                f"{v['simulated'] * 1e3:8.2f} ms "
                f"(gap {v['error'] * 100:.0f}%)"
            )
        best = self.best_validated()
        if best is not None:
            knobs = ", ".join(
                f"{k}={v!r}"
                for k, v in sorted(best["config"].items())
                if v not in (False, 1) or k.startswith("BufferCapacity")
            )
            lines.append(f"  winner (by measurement): {knobs or 'defaults'}")
        return "\n".join(lines)
