"""End-to-end benchmark of the parallel runtime: one command.

    python3 benchmarks/e2e/run.py [--workload NAME|all] [--seed N]
        [--seconds S] [--trace 0|1] [--trace-out FILE] [--out FILE]
        [--smoke]

Each workload runs in fresh interpreters (``e2e.measure``): set-up
probes around one process for the measured calls, so pools, caches and
memory never leak from one workload into another.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` makes the separate traced
run and reports the per-layer metrics (``--trace-out`` also writes the
spans of a few calls as Chrome-trace JSON).  Every metric is printed by
name with its unit; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is non-zero when any call failed or leaked, and 2 when the
runtime's sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE.parent))

from e2e import catalog  # noqa: E402
from e2e.stats import median  # noqa: E402
from e2e.workloads import WORKLOADS  # noqa: E402

#: the run length BENCHMARK.json names
DEFAULT_SECONDS = 16
#: fresh-interpreter set-up launches per workload (full, smoke)
SETUP_LAUNCHES = (8, 2)
#: wall-clock budget of one workload, every launch included
WORKLOAD_BUDGET = 175.0


class LaunchError(RuntimeError):
    pass


def launch(mode: str, name: str, args: argparse.Namespace, workdir: Path,
           deadline: float, trace_out: Path | None = None) -> dict[str, Any]:
    """Run ``e2e.measure`` in a fresh interpreter; its JSON result.

    The child gets its own process group so a timeout also takes down
    any pool workers it started; every process is waited for."""
    cmd = [
        sys.executable, "-m", "e2e.measure", "--mode", mode,
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--workdir", str(workdir),
    ]
    if args.smoke:
        cmd.append("--smoke")
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE.parent)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["TMPDIR"] = str(workdir)
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        out = None
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
    finally:
        # anything of the group still alive (a leaked worker the child's
        # leak check already counted) must not outlive the benchmark
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
    if out is None:
        raise LaunchError(f"{mode} run of {name} exceeded its time budget")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise LaunchError(
            f"{mode} run of {name} exited with code {proc.returncode}"
        )
    return json.loads(lines[-1])


def run_workload(name: str, args: argparse.Namespace,
                 trace_out: Path | None) -> dict[str, Any]:
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    deadline = time.monotonic() + WORKLOAD_BUDGET
    result: dict[str, Any] = {
        "workload": name, "attempted": 0, "failed": 0, "errors": [],
        "metrics": {},
    }

    def absorb(part: dict[str, Any]) -> None:
        result["attempted"] += part["attempted"]
        result["failed"] += part["failed"]
        result["errors"] += part["errors"]

    try:
        if args.trace:
            part = launch("traced", name, args, workdir, deadline, trace_out)
            absorb(part)
            result.update(
                {k: part[k] for k in ("metrics", "layers", "samples") if k in part}
            )
        else:
            probed: dict[str, list[float]] = {
                "setup_s": [], "setup_wall_s": [], "calibration_s": [],
            }

            def probes(count: int) -> None:
                for _ in range(count):
                    part = launch("probe", name, args, workdir, deadline)
                    absorb(part)
                    for key, values in probed.items():
                        values.append(part[key])

            # half the launches before the timed run and half after, so
            # the median spans the run rather than one moment of the host
            launches = SETUP_LAUNCHES[1] if args.smoke else SETUP_LAUNCHES[0]
            probes(launches // 2)
            timed = launch("timed", name, args, workdir, deadline)
            absorb(timed)
            probes(launches - launches // 2)
            result["metrics"] = {
                "setup_s": median(probed["setup_s"]), **timed["metrics"]
            }
            result["info"] = {
                **timed["info"],
                "setup_wall_s": median(probed["setup_wall_s"]),
            }
            result["samples"] = {**timed["samples"], **probed}
    except LaunchError as exc:
        result["attempted"] += 1
        result["failed"] += 1
        result["errors"].append(str(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()  # only when no other run is using it
    return result


def report(results: dict[str, dict[str, Any]], traced: bool) -> None:
    """Print every metric by name with its unit, one line each."""
    for name, res in results.items():
        for metric in catalog.names(traced):
            value = res["metrics"].get(metric)
            shown = "missing" if value is None else f"{value:.6g}"
            print(f"{name:<18} {metric:<38} {shown:>14} {catalog.UNITS[metric]}")
        for metric, value in res.get("info", {}).items():
            print(f"{name:<18} {metric:<38} {value:>14.6g} "
                  f"{catalog.UNITS[metric]} (info, not gated)")
        rate = res["failed"] / res["attempted"] if res["attempted"] else 0.0
        print(f"{name:<18} {'error_rate':<38} {rate:>14.6g} ratio "
              f"({res['failed']} of {res['attempted']} calls)")
        for err in res["errors"]:
            print(f"{name:<18} error: {err}")


def summary_line(results: dict[str, dict[str, Any]], traced: bool) -> dict[str, Any]:
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())

    def metrics(res: dict[str, Any]) -> dict[str, Any]:
        return {
            m: {"value": res["metrics"].get(m, 0.0), "unit": catalog.UNITS[m]}
            for m in catalog.names(traced)
        }

    line: dict[str, Any] = {
        "correct": failed == 0 and all(
            set(catalog.names(traced)) <= set(r["metrics"])
            for r in results.values()
        ),
        "attempted": max(1, attempted),
        "failed": failed,
    }
    if len(results) == 1:
        line["metrics"] = metrics(next(iter(results.values())))
    else:
        line["workloads"] = {n: metrics(r) for n, r in results.items()}
    return line


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the parallel runtime."
    )
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="how long the measured calls run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run, reporting per-layer metrics")
    parser.add_argument("--trace-out", type=Path,
                        help="with --trace 1: write Chrome-trace JSON here")
    parser.add_argument("--out", type=Path,
                        help="write every result and sample as JSON here")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and 5 calls per workload")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "runtime" / "__init__.py").is_file():
        print(f"run.py: no runtime sources under {ROOT / 'src'}; "
              "run from a full checkout", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        trace_out = args.trace_out
        if trace_out is not None and len(names) > 1:
            trace_out = trace_out.with_name(
                f"{trace_out.stem}-{name}{trace_out.suffix}"
            )
        results[name] = run_workload(name, args, trace_out)

    traced = bool(args.trace)
    report(results, traced)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "schema": "e2e-bench/v1",
            "mode": "traced" if traced else "timed",
            "seed": args.seed,
            "seconds": args.seconds,
            "smoke": args.smoke,
            "host": {
                "cpus": os.cpu_count(),
                "python": platform.python_version(),
                "machine": platform.machine(),
            },
            "workloads": results,
        }, indent=1) + "\n")
    line = summary_line(results, traced)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
