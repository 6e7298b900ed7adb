"""Pattern simulators: makespan of tunable patterns on a simulated machine.

Each simulator accepts the *same tuning-configuration keys* as the real
runtime (:mod:`repro.runtime`), so the auto tuner and the benchmarks can
treat "run on the simulator" as a drop-in measurement backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.simcore.costmodel import StageCosts, WorkloadCosts
from repro.simcore.events import Environment, Resource, Store
from repro.simcore.machine import Machine


@dataclass
class SimResult:
    """Outcome of one simulated execution."""

    makespan: float
    sequential_time: float
    threads: int = 1
    core_utilization: float = 0.0
    buffer_high_water: list[int] = field(default_factory=list)
    stage_busy: dict[str, float] = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        if self.makespan <= 0:
            # a degenerate (empty) workload ran nothing — report a neutral
            # 1.0, not an infinity that poisons downstream comparisons
            # and is unrepresentable in strict JSON
            return 1.0
        return self.sequential_time / self.makespan


def simulate_sequential(workload: WorkloadCosts) -> SimResult:
    t = workload.sequential_time()
    return SimResult(makespan=t, sequential_time=t, threads=1)


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def _fuse_stages(
    stages: list[StageCosts], fusions: set[str]
) -> list[StageCosts]:
    out = list(stages)
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            a, b = out[i], out[i + 1]
            if f"{a.name}/{b.name}" in fusions:
                fa, fb = a.fn, b.fn
                out[i : i + 2] = [
                    StageCosts(
                        name=f"{a.name}+{b.name}",
                        fn=lambda k, fa=fa, fb=fb: fa(k) + fb(k),
                        replicable=a.replicable and b.replicable,
                    )
                ]
                changed = True
                break
    return out


def simulate_pipeline(
    workload: WorkloadCosts,
    machine: Machine,
    config: dict[str, Any] | None = None,
) -> SimResult:
    """Simulate a stage-bound pipeline under a tuning configuration.

    Honoured keys: ``StageReplication@<stage>``, ``OrderPreservation@<stage>``,
    ``StageFusion@<a>/<b>``, ``SequentialExecution@pipeline``,
    ``BufferCapacity@pipeline``.
    """
    config = dict(config or {})
    seq_time = workload.sequential_time()

    if config.get("SequentialExecution@pipeline"):
        return SimResult(makespan=seq_time, sequential_time=seq_time)

    fusions = {
        key.split("@", 1)[1]
        for key, val in config.items()
        if key.startswith("StageFusion@") and val
    }
    stages = _fuse_stages(list(workload.stages), fusions)
    replication = [
        int(config.get(f"StageReplication@{s.name}", 1)) for s in stages
    ]
    for s, r in zip(stages, replication):
        if r > 1 and not s.replicable:
            raise ValueError(f"stage {s.name!r} is not replicable")
    ordered = [
        bool(config.get(f"OrderPreservation@{s.name}", True)) for s in stages
    ]
    capacity = int(config.get("BufferCapacity@pipeline", 8))

    env = Environment()
    cores = Resource(env, machine.cores)
    n = workload.n
    nstages = len(stages)
    buffers = [Store(env, capacity) for _ in range(nstages + 1)]
    busy: dict[str, float] = {s.name: 0.0 for s in stages}

    # spawn: the main thread creates generator + replicas one after another
    total_threads = 1 + sum(replication)
    spawn_at: list[float] = [
        i * machine.thread_spawn for i in range(total_threads)
    ]
    spawn_iter = iter(spawn_at)

    def generator() -> Any:
        yield env.timeout(next(spawn_iter))
        for k in range(n):
            yield env.timeout(workload.generator_cost + machine.buffer_op)
            yield buffers[0].put(k)

    env.process(generator())

    # per-stage shared state
    issued = [0] * nstages
    turn_done: list[dict[int, Any]] = [dict() for _ in range(nstages)]

    def replica(i: int) -> Any:
        stage = stages[i]
        repl = replication[i]
        needs_order = repl > 1 and ordered[i]
        yield env.timeout(next(spawn_iter))
        while True:
            if issued[i] >= n:
                return
            issued[i] += 1
            k = yield buffers[i].get()
            req = cores.request()
            yield req
            dur = (
                stage.cost(k)
                + 2 * machine.buffer_op
                + machine.sync_op
                + (machine.reorder_op if needs_order else 0.0)
            )
            busy[stage.name] += dur
            yield env.timeout(dur)
            cores.release()
            if needs_order and k > 0:
                prev = turn_done[i].get(k - 1)
                if prev is None:
                    prev = env.event()
                    turn_done[i][k - 1] = prev
                if not prev.processed:
                    yield prev
            yield buffers[i + 1].put(k)
            if needs_order:
                ev = turn_done[i].get(k)
                if ev is None:
                    ev = env.event()
                    turn_done[i][k] = ev
                if not ev.triggered:
                    ev.succeed()

    for i in range(nstages):
        for _ in range(replication[i]):
            env.process(replica(i))

    done_at = [0.0]

    def collector() -> Any:
        for _ in range(n):
            yield buffers[nstages].get()
        done_at[0] = env.now

    env.process(collector())
    env.run()
    makespan = done_at[0]
    return SimResult(
        makespan=makespan,
        sequential_time=seq_time,
        threads=total_threads,
        core_utilization=cores.utilization(makespan),
        buffer_high_water=[b.max_occupancy for b in buffers],
        stage_busy={
            name: (t / makespan if makespan > 0 else 0.0)
            for name, t in busy.items()
        },
    )


# ---------------------------------------------------------------------------
# DOALL
# ---------------------------------------------------------------------------

def simulate_doall(
    element_costs: Sequence[float],
    machine: Machine,
    config: dict[str, Any] | None = None,
    per_element_overhead: float = 0.0,
) -> SimResult:
    """Simulate a data-parallel loop under DOALL tuning keys
    (``NumWorkers@loop``, ``ChunkSize@loop``, ``Schedule@loop``,
    ``SequentialExecution@loop``).

    ``Schedule@loop`` covers the full runtime domain: ``static`` stripes
    fixed chunks round-robin, ``dynamic`` claims fixed chunks from a
    shared counter, and ``guided`` claims the variable-size descriptor
    plan from :func:`repro.runtime.adaptive.plan_chunks`.  ``adaptive``
    is an alias of ``guided`` in the runtime, so the simulator runs the
    exact plan the runtime executes.
    """
    config = dict(config or {})
    costs = list(element_costs)
    n = len(costs)
    seq_time = sum(costs)

    workers = int(config.get("NumWorkers@loop", 4))
    chunk = max(1, int(config.get("ChunkSize@loop", 1)))
    schedule = str(config.get("Schedule@loop", "dynamic"))
    if config.get("SequentialExecution@loop") or workers <= 1 or n == 0:
        return SimResult(makespan=seq_time, sequential_time=seq_time)

    from repro.runtime.adaptive import plan_chunks

    chunks = plan_chunks(n, chunk, schedule, workers)
    nworkers = min(workers, len(chunks))

    env = Environment()
    cores = Resource(env, machine.cores)
    shared = {"next": 0}
    finish = [0.0]

    if schedule == "static":
        assignment: list[list[tuple[int, int]]] = [[] for _ in range(nworkers)]
        for idx, c in enumerate(chunks):
            assignment[idx % nworkers].append(c)

    def worker(w: int) -> Any:
        yield env.timeout((w + 1) * machine.thread_spawn)
        while True:
            if schedule != "static":
                # dynamic and guided both claim descriptors from the
                # shared counter; the plans differ, not the claim
                # discipline
                if shared["next"] >= len(chunks):
                    break
                lo, hi = chunks[shared["next"]]
                shared["next"] += 1
                yield env.timeout(machine.dispatch_op + machine.sync_op)
            else:
                if not assignment[w]:
                    break
                lo, hi = assignment[w].pop(0)
            req = cores.request()
            yield req
            dur = sum(costs[lo:hi]) + (hi - lo) * per_element_overhead
            yield env.timeout(dur)
            cores.release()
        finish[0] = max(finish[0], env.now)

    for w in range(nworkers):
        env.process(worker(w))
    env.run()
    makespan = finish[0]
    return SimResult(
        makespan=makespan,
        sequential_time=seq_time,
        threads=nworkers,
        core_utilization=cores.utilization(makespan),
    )


# ---------------------------------------------------------------------------
# master/worker
# ---------------------------------------------------------------------------

def simulate_masterworker(
    task_costs: Sequence[float],
    machine: Machine,
    workers: int | None = None,
    rounds: int = 1,
) -> SimResult:
    """Simulate a master distributing independent tasks to a worker pool.

    ``rounds`` models a master/worker nested in a loop: the task set is
    executed ``rounds`` times with a join barrier between rounds (exactly
    what the per-iteration MW transformation produces).
    """
    costs = list(task_costs)
    seq_time = rounds * sum(costs)
    w = workers or len(costs)
    if w <= 1 or not costs:
        return SimResult(makespan=seq_time, sequential_time=seq_time)

    env = Environment()
    cores = Resource(env, machine.cores)
    finish = [0.0]

    def run_rounds() -> Any:
        yield env.timeout(w * machine.thread_spawn)
        for _ in range(rounds):
            shared = {"next": 0}
            from repro.simcore.events import all_of

            def worker() -> Any:
                while True:
                    if shared["next"] >= len(costs):
                        return
                    i = shared["next"]
                    shared["next"] += 1
                    yield env.timeout(machine.sync_op)
                    req = cores.request()
                    yield req
                    yield env.timeout(costs[i])
                    cores.release()

            procs = [env.process(worker()) for _ in range(min(w, len(costs)))]
            yield all_of(env, procs)
        finish[0] = env.now

    env.process(run_rounds())
    env.run()
    makespan = finish[0]
    return SimResult(
        makespan=makespan,
        sequential_time=seq_time,
        threads=w,
        core_utilization=cores.utilization(makespan),
    )
