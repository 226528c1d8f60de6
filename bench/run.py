"""Seeded benchmark of the `rmis` command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Set-up writes the workload's corpus as edge
lists under `.bench_runs/`. Then:

- `--trace 0`: whole rounds of the workload's operations, one after another
  in this process, for about S seconds, with the set-up repeated after each
  round (`setup_s` is the median of those set-ups); then a counting pass
  that re-runs each operation once in a fresh child process for its peak
  memory and, for `simulate`, its message counts. Prints the end-to-end
  metrics.
- `--trace 1`: pairs of an untraced and a traced round for about S seconds,
  the traced one with a span around every call between `rmis` modules.
  Prints the per-layer metrics and writes the spans to `.bench_runs/`.

Every answer is checked against `checker`. The last line of standard output
is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
COMMANDS = ("find", "verify", "classify", "simulate")
SETUP_SAMPLE_S = 0.25  # least set-up time sampled after each round

END_TO_END_UNITS = {
    "setup_s": "s",
    **{f"{c}_kelem_per_s": "kelem/s" for c in COMMANDS},
    "peak_heap_mib": "MiB",
    "sim_rounds": "count",
    "sim_messages": "count",
    "sim_payload_entries": "count",
}
PER_LAYER_UNITS = {
    "graph.parse_s": "s",
    "graph.build_s": "s",
    "graph.build_calls": "count",
    "graph.blocks_s": "s",
    "graph.blocks_calls": "count",
    "graph.connectivity_calls": "count",
    "graph.bipartite_s": "s",
    "graph.bipartite_calls": "count",
    "graph.self_s": "s",
    "abctree.build_s": "s",
    "abctree.nodes_A": "count",
    "abctree.nodes_B": "count",
    "abctree.nodes_C": "count",
    "abctree.nodes_P": "count",
    "abctree.depth": "count",
    "findrmis.label_self_s": "s",
    "findrmis.probes": "count",
    "findrmis.witness_elems": "count",
    "twosat.solve_s": "s",
    "twosat.vars": "count",
    "twosat.clauses": "count",
    "oracle.robust_self_s": "s",
    "oracle.mis_s": "s",
    "classify.self_s": "s",
    "localsim.program_s": "s",
    "localsim.gather_s": "s",
    "localsim.engine_self_s": "s",
    "localsim.node_steps": "count",
    "localsim.flood_payload_entries": "count",
    "localsim.forest_messages": "count",
    "cli.self_s": "s",
    "trace.overhead_pct": "%",
}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def typical(rounds) -> dict[str, float]:
    """Each operation's median time over the rounds, in reference seconds."""
    samples: dict[str, list[float]] = {}
    for o in (o for r in rounds for o in r if o.seconds is not None):
        samples.setdefault(o.op.key, []).append(o.reference_seconds)
    return {key: statistics.median(times) for key, times in samples.items()}


def rounds_until(seconds: float, run_round) -> list:
    """Whole rounds, stopping before one that would overrun `seconds`."""
    rounds = []
    start = perf_counter()
    while True:
        begin = perf_counter()
        rounds.append(run_round())
        now = perf_counter()
        print(f"round {len(rounds)}: {now - begin:.2f} s", file=sys.stderr)
        if now - start + (now - begin) > seconds:
            return rounds


def end_to_end(session, rounds, setup_times) -> dict[str, float]:
    """Rates from each operation's median time, then the counting pass."""
    from harness import CAP_MIB, Outcome, run_child

    times = typical(rounds)
    size: Counter[str] = Counter()
    seconds: Counter[str] = Counter()
    for op in session.corpus.ops:
        if op.key in times:
            size[op.command] += session.corpus.graphs[op.graph].size
            seconds[op.command] += times[op.key]
    metrics = {"setup_s": statistics.median(setup_times)}
    for c in COMMANDS:
        metrics[f"{c}_kelem_per_s"] = size[c] / seconds[c] / 1000 if seconds[c] else 0.0
    peak = sim_rounds = messages = payload = 0
    for o in rounds[-1]:
        if o.seconds is None:
            continue
        mode = ["--cap-mib", str(CAP_MIB), "--measure"] if o.op.capped else ["--measure"]
        rc, record, err = run_child(mode, o.argv, ROOT)
        if record is None:
            session.errors.append(f"{o.op.key}: counting child exit {rc}: {err}")
            continue
        session.check(Outcome(o.op, o.argv, record["seconds"], record["rc"], record["out"]))
        peak = max(peak, record["peak_mib"])
        for sim in record["sim"]:
            messages += sim["messages"]
            payload += sim["payload_entries"]
        if o.op.command == "simulate":
            sim_rounds += json.loads(record["out"])["rounds_total"]
    metrics.update(
        peak_heap_mib=peak, sim_rounds=sim_rounds, sim_messages=messages, sim_payload_entries=payload
    )
    return metrics


def layer_metrics(tracer) -> dict[str, float]:
    totals = tracer.totals

    def pick(column: int, *names: str) -> int:
        return sum(totals[n][column] for n in names if n in totals)

    def seconds(column: int, *names: str) -> float:
        return pick(column, *names) / 1e9

    def layer_self(layer: str) -> float:
        return seconds(2, *(n for n in totals if n.startswith(layer + ".")))

    blocks = ("graph.articulation_points", "graph.bridges", "graph.biconnected_components")
    sims = [p.totals() for p in tracer.programs]
    return {
        "graph.parse_s": seconds(2, "graph.from_edge_list"),
        "graph.build_s": seconds(1, "graph.Graph"),
        "graph.build_calls": pick(0, "graph.Graph"),
        "graph.blocks_s": seconds(2, *blocks),
        "graph.blocks_calls": pick(0, *blocks),
        "graph.connectivity_calls": pick(0, "graph.is_connected", "graph.connected_components"),
        "graph.bipartite_s": seconds(1, "graph.is_bipartite"),
        "graph.bipartite_calls": pick(0, "graph.is_bipartite"),
        "graph.self_s": layer_self("graph"),
        "abctree.build_s": layer_self("abctree"),
        **{f"abctree.nodes_{k}": tracer.counters[f"abctree.nodes_{k}"] for k in "ABCP"},
        "abctree.depth": tracer.maxima.get("abctree.depth", 0),
        "findrmis.label_self_s": layer_self("findrmis"),
        "findrmis.probes": pick(0, "findrmis.test_rmis"),
        "findrmis.witness_elems": tracer.counters["findrmis.witness_elems"],
        "twosat.solve_s": layer_self("twosat"),
        "twosat.vars": tracer.counters["twosat.vars"],
        "twosat.clauses": tracer.counters["twosat.clauses"],
        "oracle.robust_self_s": seconds(2, "oracle.is_robust_mis"),
        "oracle.mis_s": seconds(2, "oracle.is_mis", "oracle.is_independent"),
        "classify.self_s": layer_self("classify"),
        "localsim.program_s": seconds(2, "localsim.program"),
        "localsim.gather_s": seconds(1, "localsim.gather"),
        "localsim.engine_self_s": seconds(2, "localsim.run_sync"),
        "localsim.node_steps": sum(s["node_steps"] for s in sims),
        "localsim.flood_payload_entries": sum(s["flood_payload_entries"] for s in sims),
        "localsim.forest_messages": sum(s["forest_messages"] for s in sims),
        "cli.self_s": seconds(2, "cli.main"),
    }


def per_layer(session, seconds: float, spans_path: Path) -> tuple[dict[str, float], list]:
    """Pairs of an untraced and a traced round; layer metrics are medians
    over the traced rounds, the overhead compares median operation times.
    """
    import tracing

    tracer = tracing.Tracer()
    untraced: list = []
    traced: list = []
    samples: list[dict[str, float]] = []

    def pair():
        untraced.append(session.run_round())
        tracer.reset_totals()
        uninstall = tracing.install(tracer)
        try:
            traced.append(session.run_round())
        finally:
            uninstall()
        samples.append(layer_metrics(tracer))
        return untraced[-1] + traced[-1]

    rounds = rounds_until(seconds, pair)
    tracer.write_spans(str(spans_path))
    metrics = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
    plain, wrapped = typical(untraced), typical(traced)
    both = [op.key for op in session.corpus.ops if not op.capped and op.key in plain.keys() & wrapped.keys()]
    metrics["trace.overhead_pct"] = 100 * (
        sum(wrapped[k] for k in both) / sum(plain[k] for k in both) - 1
    )
    return metrics, rounds


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "rmis" / "__init__.py").is_file():
        print(f"error: no rmis sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from rmis import cli
    from harness import Session
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    directory = RUNS / f"{args.workload}-seed{args.seed}"
    directory.mkdir(parents=True, exist_ok=True)

    setup_times: list[float] = []

    def set_up(speed: float | None = None):
        begin = perf_counter()
        corpus = WORKLOADS[args.workload](args.seed, directory)
        if speed is not None:
            setup_times.append((perf_counter() - begin) * speed)
        return corpus

    corpus = set_up()
    # look `main` up at call time, so the traced pass sees its wrapper
    session = Session(corpus, ROOT, lambda a: cli.main(a))
    if args.trace:
        metrics, rounds = per_layer(session, args.seconds, directory / "spans.tsv")
        units = PER_LAYER_UNITS
    else:

        def timed_round():
            outcomes = session.run_round()
            # set-up samples spread over the run, as rounds are; cheap
            # set-ups repeat so that their median rests on more samples
            begin = perf_counter()
            while True:
                set_up(outcomes[0].speed)
                if perf_counter() - begin >= SETUP_SAMPLE_S:
                    return outcomes

        rounds = rounds_until(args.seconds, timed_round)
        begin = perf_counter()
        metrics = end_to_end(session, rounds, setup_times)
        print(f"counting pass: {perf_counter() - begin:.2f} s", file=sys.stderr)
        units = END_TO_END_UNITS

    outcomes = [o for r in rounds for o in r]
    for o in outcomes:
        if o.seconds is None:
            print(f"failed: {o.op.key}: {o.error}", file=sys.stderr)
    for error in dict.fromkeys(session.errors):
        print(f"wrong answer: {error}", file=sys.stderr)
    print(f"{len(outcomes)} operations attempted", file=sys.stderr)
    result = {
        "correct": not session.errors,
        "attempted": len(outcomes),
        "failed": sum(o.seconds is None for o in outcomes),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
