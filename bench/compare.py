"""Compare two sets of benchmark runs.

    python3 bench/compare.py BASE.jsonl NEW.jsonl [--trace 0|1]

Both files hold one JSON line per run, as `bench/series.py` writes them.
For each workload and metric the table gives each side's median and
quartiles, the spread (quartile distance over median), and how much worse
NEW's median is than BASE's, as a share of BASE's. With `--trace 0` that
share, and each side's spread (except for `setup_s`), is held against the
metric's bound in BENCHMARK.json, and the share of failed operations must
be equal. Exits 1 when anything is out of bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict[tuple[str, int], list[dict]]:
    """Results grouped by (workload, trace)."""
    groups: dict[tuple[str, int], list[dict]] = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                groups[record["workload"], record["trace"]].append(record["result"])
    return groups


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def series(results: list[dict], metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in results if metric in r["metrics"]]


def spreads(groups: dict, trace: int) -> dict[str, dict[str, float]]:
    return {
        workload: {m: spread(series(results, m)) for m in results[0]["metrics"]}
        for (workload, t), results in groups.items()
        if t == trace
    }


def failed_share(results: list[dict]) -> tuple[int, int]:
    return sum(r["failed"] for r in results), sum(r["attempted"] for r in results)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    base, new = load(args.base), load(args.new)
    ok = True
    print(f"{'workload':16} {'metric':32} {'base median [q1, q3]':>36} "
          f"{'new median [q1, q3]':>36} {'spread b/n':>13} {'worse':>8} {'bound':>6}")
    for workload in [w["name"] for w in spec["workloads"]]:
        a, b = base.get((workload, args.trace)), new.get((workload, args.trace))
        if not a or not b:
            print(f"{workload:16} missing from {'base' if not a else 'new'}")
            ok = False
            continue
        if not all(r["correct"] for r in a + b):
            print(f"{workload:16} has a run with wrong answers")
            ok = False
        if not args.trace:
            (fa, ta), (fb, tb) = failed_share(a), failed_share(b)
            same = fa * tb == fb * ta
            ok &= same
            print(f"{workload:16} failed operations {fa}/{ta} vs {fb}/{tb}"
                  f"{'' if same else '  DIFFERENT SHARE'}")
        for m in metrics:
            va, vb = series(a, m["name"]), series(b, m["name"])
            if not va or not vb:
                continue
            qa, qb = quartiles(va), quartiles(vb)
            base_median, new_median = qa[1], qb[1]
            change = (new_median - base_median) / abs(base_median) if base_median else 0.0
            worse = change if m["better"] == "lower" else -change
            bound = m.get("bound")
            verdict = ""
            if bound is not None and worse > bound:
                verdict = "  OUT OF BOUND"
                ok = False
            elif bound is not None and m["name"] != "setup_s" and max(spread(va), spread(vb)) > bound:
                verdict = "  SPREAD ABOVE BOUND"
                ok = False
            print(
                f"{workload:16} {m['name']:32} "
                f"{qa[1]:>12.5g} [{qa[0]:.5g}, {qa[2]:.5g}]".ljust(87)
                + f"{qb[1]:>12.5g} [{qb[0]:.5g}, {qb[2]:.5g}]".ljust(37)
                + f"{spread(va):6.3f}/{spread(vb):<6.3f} {worse:8.4f} "
                + (f"{bound:6.3f}" if bound is not None else "     -")
                + verdict
            )
    print("within bounds" if ok else "NOT within bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
