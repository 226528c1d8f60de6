"""Command-line front end.

Exit codes: 0 for a positive result (set found, predicate holds, valid
simulation), 1 for a negative one, 2 for usage or input errors and for
internal failures.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys

from . import abctree, classify, findrmis, generators, localsim, oracle
from .graph import EdgeListParseError, Graph, GraphError, from_edge_list, to_edge_list


def _read_graph(path: str) -> Graph:
    """Parse an edge-list file, or standard input for "-", decoded strictly
    as UTF-8 so that undecodable bytes are an input error.
    """
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise EdgeListParseError(line, f"not UTF-8 text: byte {data[exc.start]:#04x}") from None
    return from_edge_list(text)


def _write(text: str) -> None:
    """Write `text` to standard output in pieces no longer than its buffer.
    One larger write returns a short count when the reader goes mid-stream,
    which nothing reads; a piece that finds the pipe closed raises instead.
    """
    for i in range(0, len(text), io.DEFAULT_BUFFER_SIZE):
        sys.stdout.write(text[i : i + io.DEFAULT_BUFFER_SIZE])


def _check_count(flag: str, value: int | None) -> None:
    if value is not None and value < 0:
        raise GraphError(f"bad {flag} value {value}; use a non-negative count")


def _labels_json(run: findrmis.LabelingRun) -> dict:
    if run.rooted is None:
        return {}
    witnesses = findrmis.all_witnesses(run)
    return {
        str(run.rooted.nodes[x]): {tag: sorted(w) for tag, w in sorted(tags.items())}
        for x, tags in sorted(witnesses.items())
    }


def _cmd_classify(args) -> int:
    g = _read_graph(args.file)
    verdict = classify.in_rmis_forall(g)
    payload = {
        "complete_bipartite": verdict.complete_bipartite,
        "sputnik": verdict.sputnik,
        "rmis_forall": verdict.rmis_forall,
    }
    if verdict.bipartition is not None:
        payload["bipartition"] = [sorted(verdict.bipartition[0]), sorted(verdict.bipartition[1])]
    print(json.dumps(payload))
    return 0 if verdict.rmis_forall else 1


def _cmd_abc(args) -> int:
    g = _read_graph(args.file)
    t = abctree.build_abc_tree(g)
    if args.dot:
        _write(abctree.tree_to_dot(t))
        return 0
    if args.dot_graph:
        _write(abctree.decomposition_dot(t))
        return 0
    if abctree.KIND_C in t.kinds:  # built rooted at the default root
        sys.stdout.writelines(abctree.render_text(t))
    else:
        for node in t.nodes:
            print(node)
    return 0


def _cmd_find(args) -> int:
    g = _read_graph(args.file)
    run = findrmis.run_labeling(g)
    if args.json:
        print(
            json.dumps(
                {
                    "exists": run.result is not None,
                    "set": sorted(run.result) if run.result is not None else None,
                    "labels": _labels_json(run),
                }
            )
        )
    else:
        if args.trace and run.rooted is not None:
            witnesses = findrmis.all_witnesses(run)

            def annotate(x):
                tags = witnesses[x]
                return " ".join(f"{t}{sorted(w)}" for t, w in sorted(tags.items())) or "-"

            sys.stdout.writelines(abctree.render_text(run.rooted, annotate))
        print(oracle.format_vertex_set(run.result) if run.result is not None else "NO-RMIS")
    return 0 if run.result is not None else 1


def _cmd_verify(args) -> int:
    g = _read_graph(args.file)
    s = oracle.parse_vertex_set(args.set)
    _check_count("--max-removable", args.max_removable)
    if args.brute:
        ok = oracle.is_robust_mis_bruteforce(g, s, max_removable=args.max_removable)
    else:
        ok = oracle.is_robust_mis(g, s)
    print("ROBUST" if ok else "NOT-ROBUST")
    return 0 if ok else 1


def _cmd_oracle(args) -> int:
    g = _read_graph(args.file)
    _check_count("--max-vertices", args.max_vertices)
    sets = oracle.enumerate_robust_mis(g, max_vertices=args.max_vertices)
    for s in sets:
        print(oracle.format_vertex_set(s))
    print(f"# {len(sets)} robust MIS(s)", file=sys.stderr)
    return 0 if sets else 1


def _cmd_gen(args) -> int:
    if args.family == "gk" and args.json:
        inst = generators.gen_gk(args.k)
        print(
            json.dumps(
                {
                    "edges": [list(e) for e in inst.graph.edges()],
                    "names": inst.names,
                    "m1": sorted(inst.m1),
                    "m2": sorted(inst.m2),
                }
            )
        )
        return 0
    _write(to_edge_list(args.make(args)))
    return 0


def _cmd_simulate(args) -> int:
    g = _read_graph(args.file)
    if args.ids == "identity":
        ids = localsim.identity_ids(g)
    elif args.ids.startswith("random:"):
        try:
            seed = int(args.ids.removeprefix("random:"))
        except ValueError:
            raise GraphError(f"bad --ids value {args.ids!r}; the seed must be an integer") from None
        ids = localsim.random_ids(g, seed)
    else:
        raise GraphError(f"bad --ids value {args.ids!r}; use identity or random:<seed>")
    _check_count("--max-rounds", args.max_rounds)
    result = localsim.run_sync(g, localsim.rmis_forall_program(), ids, args.max_rounds)
    chosen = {v for v, out in result.outputs.items() if out == localsim.IN}
    valid = oracle.is_mis(g, chosen)
    print(
        json.dumps(
            {
                "outputs": {str(v): out for v, out in sorted(result.outputs.items())},
                "rounds_total": result.rounds_total,
                "per_node_rounds": {
                    str(v): r for v, r in sorted(result.termination_round.items())
                },
                "valid_mis": valid,
            }
        )
    )
    return 0 if valid else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    `main` call; parsing leaves it unchanged.
    """
    parser = argparse.ArgumentParser(
        prog="rmis",
        description="Robust maximal independent sets: classify, decompose, find, verify, simulate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="complete-bipartite / sputnik / all-MISs-robust verdict")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("abc", help="print the ABC decomposition tree")
    p.add_argument("file")
    dot = p.add_mutually_exclusive_group()
    dot.add_argument("--dot", action="store_true", help="emit the tree as DOT")
    dot.add_argument("--dot-graph", action="store_true", help="emit the graph as DOT, colored by role")
    p.set_defaults(fn=_cmd_abc)

    p = sub.add_parser("find", help="compute a robust MIS if one exists")
    p.add_argument("file")
    shape = p.add_mutually_exclusive_group()
    shape.add_argument("--json", action="store_true")
    shape.add_argument("--trace", action="store_true", help="dump the labeled tree")
    p.set_defaults(fn=_cmd_find)

    p = sub.add_parser("verify", help="check a candidate set for robustness")
    p.add_argument("file")
    p.add_argument("--set", required=True, help="comma-separated vertex ids")
    p.add_argument("--brute", action="store_true", help="enumerate connected spanning subgraphs")
    p.add_argument("--max-removable", type=int, default=oracle.DEFAULT_REMOVABLE_CAP)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("oracle", help="enumerate every robust MIS (small graphs)")
    p.add_argument("file")
    p.add_argument("--max-vertices", type=int, default=oracle.DEFAULT_VERTEX_CAP)
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("gen", help="emit a named instance as an edge list")
    gsub = p.add_subparsers(dest="family", required=True)
    q = gsub.add_parser("gk")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--json", action="store_true", help="also emit the name map and both solutions")
    q.set_defaults(make=lambda a: generators.gen_gk(a.k).graph)
    q = gsub.add_parser("complete-bipartite")
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.set_defaults(make=lambda a: generators.gen_complete_bipartite(a.m, a.n))
    q = gsub.add_parser("cycle")
    q.add_argument("--n", type=int, required=True)
    q.set_defaults(make=lambda a: generators.gen_cycle(a.n))
    q = gsub.add_parser("path")
    q.add_argument("--n", type=int, required=True)
    q.set_defaults(make=lambda a: generators.gen_path(a.n))
    gsub.add_parser("bull").set_defaults(make=lambda a: generators.gen_bull())
    gsub.add_parser("triangle").set_defaults(make=lambda a: generators.gen_triangle())
    gsub.add_parser("square").set_defaults(make=lambda a: generators.gen_square())
    q = gsub.add_parser("lollipop")
    q.add_argument("--path-len", type=int, required=True)
    q.add_argument("--clique-size", type=int, required=True)
    q.set_defaults(make=lambda a: generators.gen_lollipop(a.path_len, a.clique_size))
    q = gsub.add_parser("random-connected")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--edge-prob", type=float, required=True)
    q.add_argument("--seed", type=int, required=True)
    q.set_defaults(make=lambda a: generators.gen_random_connected(a.n, a.edge_prob, a.seed))
    q = gsub.add_parser("sparse-connected")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--extra", type=int, required=True, help="random chords on top of the spanning tree")
    q.add_argument("--seed", type=int, required=True)
    q.set_defaults(make=lambda a: generators.gen_sparse_connected(a.n, a.extra, a.seed))
    q = gsub.add_parser("random-sputnik")
    q.add_argument("--size", type=int, required=True)
    q.add_argument("--seed", type=int, required=True)
    q.set_defaults(make=lambda a: generators.gen_random_sputnik(a.seed, a.size))
    q = gsub.add_parser("sparse-sputnik")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--extra", type=int, required=True, help="random chords on top of the spanning tree")
    q.add_argument("--seed", type=int, required=True)
    q.set_defaults(make=lambda a: generators.gen_sparse_sputnik(a.n, a.extra, a.seed))
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("simulate", help="run the distributed program in lock-step rounds")
    p.add_argument("file")
    p.add_argument("--ids", default="identity", help="identity or random:<seed>")
    p.add_argument("--max-rounds", type=int, default=None)
    p.set_defaults(fn=_cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (GraphError, OSError, localsim.SimulationTimeout) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        raise  # not an answer about the input; leave it to the caller
    except Exception as exc:  # TwoSatError, InternalLabelingError: a bug, not a bad input
        print(f"error: internal failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
