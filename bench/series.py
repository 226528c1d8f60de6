"""Run the benchmark over several seeds and collect the results in one file.

    python3 bench/series.py --out runs.jsonl [--workloads a,b] [--seeds 1-10] [--trace 0|1]

Each run is `bench/run.py` in its own process, one after another. Every
result becomes one JSON line {"workload", "seed", "trace", "result"}, the
input `bench/compare.py` reads. Run length comes from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from compare import load, spreads

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(args.out, "a") as out:
        for workload in args.workloads.split(","):
            for seed in args.seeds:
                cmd = [
                    sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
                ]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                    return 1
                result = json.loads(lines[-1])
                record = {"workload": workload, "seed": seed, "trace": args.trace, "result": result}
                out.write(json.dumps(record) + "\n")
                out.flush()
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for workload, metrics in spreads(load(args.out), args.trace).items():
        for name, spread in metrics.items():
            bound = bounds.get(name)
            flag = "" if bound is None or spread < bound / 3 else "  (above a third of the bound)"
            print(f"{workload:16} {name:32} spread {spread:8.4f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
