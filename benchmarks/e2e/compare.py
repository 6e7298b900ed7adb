"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 benchmarks/e2e/compare.py --a PARENT1.json PARENT2.json ... \\
        --b CHANGE1.json CHANGE2.json ... [--out FILE]

Each file is the ``--out`` of one ``run.py`` run (trace 0).  For every
workload and end-to-end metric it prints each side's median and
quartiles, how many of the index-paired runs ``b`` won, and a verdict:

* ``regressed`` — ``b``'s median is worse than ``a``'s by more than the
  metric's bound;
* ``gain`` — ``b`` won at least nine tenths of the pairs and the medians
  differ by more than ``a``'s inter-quartile distance;
* ``unresolved`` — ``a``'s own spread is wider than the bound, so
  "no worse" cannot be told from noise (unless every ``b`` run beats
  every ``a`` run);
* ``same`` otherwise.

The informational call times are summarized too, with no verdict, and
each side's failed and attempted calls are totalled.  The exit code is
1 when a row regressed or any ``b`` call failed.  Run the same commit as
both sides to measure the agreement of two independent sets; that is
how ``results/baseline.json`` was made.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from e2e.catalog import END_TO_END, INFO  # noqa: E402
from e2e.stats import quartiles  # noqa: E402


def load(paths: list[Path]) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> one value per run, in file order; the
    ``attempted`` and ``failed`` call counts ride along as two more."""
    out: dict[str, dict[str, list[float]]] = {}
    for path in paths:
        doc = json.loads(path.read_text())
        for name, res in doc["workloads"].items():
            values = {
                **res["metrics"], **res.get("info", {}),
                "attempted": res["attempted"], "failed": res["failed"],
            }
            for metric, value in values.items():
                out.setdefault(name, {}).setdefault(metric, []).append(value)
    return out


def error_rate(side: dict[str, list[float]]) -> dict[str, Any]:
    attempted, failed = sum(side["attempted"]), sum(side["failed"])
    return {
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted if attempted else 0.0,
    }


def verdict(
    a: list[float], b: list[float], better: str | None, bound: float | None
) -> dict[str, Any]:
    qa, qb = quartiles(a), quartiles(b)
    row: dict[str, Any] = {
        "a": {"q1": qa[0], "median": qa[1], "q3": qa[2], "values": a},
        "b": {"q1": qb[0], "median": qb[1], "q3": qb[2], "values": b},
    }
    if better is None or bound is None:
        return {**row, "verdict": "not gated"}
    sign = 1.0 if better == "lower" else -1.0
    # positive = b is worse than a, as a share of a's median
    worse = sign * (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    own_spread = (qa[2] - qa[0]) / abs(qa[1]) if qa[1] else 0.0
    if worse > bound:
        call = "regressed"
    elif (
        pairs and wins >= 0.9 * len(pairs)
        and abs(qb[1] - qa[1]) > qa[2] - qa[0]
    ):
        call = "gain"
    elif own_spread > bound and not all(
        sign * (y - x) < 0 for x in a for y in b
    ):
        call = "unresolved"
    else:
        call = "same"
    return {
        **row,
        "b_worse_by": worse,
        "bound": bound,
        "b_wins": wins,
        "pairs": len(pairs),
        "verdict": call,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", type=Path, nargs="+", required=True)
    parser.add_argument("--b", type=Path, nargs="+", required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    a, b = load(args.a), load(args.b)
    rules = [(n, u, better, bound) for n, u, better, bound in END_TO_END]
    rules += [(n, u, None, None) for n, u in INFO]
    table: dict[str, dict[str, Any]] = {}
    for workload in sorted(set(a) & set(b)):
        calls = {"a": error_rate(a[workload]), "b": error_rate(b[workload])}
        table.setdefault(workload, {})["calls"] = calls
        print(
            f"{workload:<18} {'error_rate':<18} "
            f"a {calls['a']['failed']}/{calls['a']['attempted']}  "
            f"b {calls['b']['failed']}/{calls['b']['attempted']}"
        )
        for name, unit, better, bound in rules:
            if name not in a[workload] or name not in b[workload]:
                continue
            row = verdict(a[workload][name], b[workload][name], better, bound)
            table.setdefault(workload, {})[name] = {"unit": unit, **row}
            gate = (
                f"worse {row['b_worse_by'] * 100:+6.2f}% "
                f"(bound {bound * 100:.0f}%) wins {row['b_wins']}/{row['pairs']}"
                if bound is not None else ""
            )
            sides = "  ".join(
                f"{side} {row[side]['median']:10.4f} "
                f"[{row[side]['q1']:.4f}, {row[side]['q3']:.4f}]"
                for side in ("a", "b")
            )
            print(
                f"{workload:<18} {name:<18} {sides} {unit:<3} {gate}  "
                f"{row['verdict']}"
            )
    if args.out is not None:
        args.out.write_text(json.dumps({
            "schema": "e2e-compare/v1",
            "a": [str(p) for p in args.a],
            "b": [str(p) for p in args.b],
            "workloads": table,
        }, indent=1) + "\n")
    regressed = any(
        row.get("verdict") == "regressed"
        for rows in table.values() for row in rows.values()
    )
    failed = any(
        rows["calls"]["b"]["failed"] for rows in table.values()
    )
    return 1 if regressed or failed else 0


if __name__ == "__main__":
    sys.exit(main())
