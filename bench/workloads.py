"""Seeded corpora and the operations each workload runs on them.

Set-up writes every graph of a workload as an edge-list file and returns
the list of operations one round runs, in order. The graphs themselves are
fixed (their make-up is listed in README.md); `--seed` picks what varies:
the order of the greedy MIS on the gadget ladder and the random identifier
assignments handed to `simulate`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from rmis import generators
from rmis.graph import Graph, to_edge_list

GK_LADDER = (100, 200, 400, 800, 1600)
GK_CAPPED = 6400  # `find` runs out of memory here; kept as a failing operation
GK_SIMULATED = 100
BIPARTITE_SHAPES = ((20, 20), (10, 40), (50, 50), (100, 100))
PATH_LENGTH = 1000


@dataclass
class CorpusGraph:
    name: str
    path: str
    n: int
    m: int

    @property
    def size(self) -> int:
        return self.n + self.m


@dataclass
class Op:
    """One `rmis` subcommand on one corpus graph.

    `set_from` names an earlier operation of the same round whose answer is
    passed as `verify --set`; `expect` holds workload-specific properties
    the answer must have on top of the independent checks.
    """

    key: str
    command: str
    graph: str
    extra: list[str] = field(default_factory=list)
    vertex_set: frozenset[int] | None = None
    set_from: str | None = None
    capped: bool = False
    expect: dict = field(default_factory=dict)


@dataclass
class Corpus:
    graphs: dict[str, CorpusGraph]
    ops: list[Op]


def _write(directory: Path, name: str, g: Graph, graphs: dict[str, CorpusGraph]) -> None:
    path = directory / f"{name}.edges"
    path.write_text(to_edge_list(g))
    graphs[name] = CorpusGraph(name, str(path), g.n, g.num_edges)


def greedy_mis(g: Graph, rng: random.Random) -> frozenset[int]:
    """Maximal independent set from a random vertex order; seldom robust."""
    order = list(g.vertices)
    rng.shuffle(order)
    chosen: set[int] = set()
    for v in order:
        if not g.neighbors(v) & chosen:
            chosen.add(v)
    return frozenset(chosen)


def gadget_ladder(seed: int, directory: Path) -> Corpus:
    rng = random.Random(f"gadget-ladder:{seed}")
    graphs: dict[str, CorpusGraph] = {}
    cheap: list[Op] = []
    finds: list[Op] = []
    for k in GK_LADDER:
        inst = generators.gen_gk(k)
        name = f"gk{k}"
        _write(directory, name, inst.graph, graphs)
        greedy = greedy_mis(inst.graph, rng)
        cheap += [
            Op(f"classify {name}", "classify", name, expect={"rmis_forall": False}),
            Op(f"verify {name} m1", "verify", name, vertex_set=inst.m1, expect={"robust": True}),
            Op(f"verify {name} m2", "verify", name, vertex_set=inst.m2, expect={"robust": True}),
            Op(f"verify {name} greedy", "verify", name, vertex_set=greedy, expect={"robust": False}),
        ]
        finds.append(Op(f"find {name}", "find", name, expect={"one_of": [sorted(inst.m1), sorted(inst.m2)]}))
    name = f"gk{GK_SIMULATED}"
    cheap.append(Op(f"simulate {name}", "simulate", name, ["--ids", "identity"]))
    inst = generators.gen_gk(GK_CAPPED)
    name = f"gk{GK_CAPPED}"
    _write(directory, name, inst.graph, graphs)
    solutions = [sorted(inst.m1), sorted(inst.m2)]
    finds.append(Op(f"find {name}", "find", name, capped=True, expect={"one_of": solutions}))
    # the small operations first, so none of them runs just after a `find`
    # has freed hundreds of MiB
    return Corpus(graphs, cheap + finds)


def lockstep_sim(seed: int, directory: Path) -> Corpus:
    rng = random.Random(f"lockstep-sim:{seed}")
    graphs: dict[str, CorpusGraph] = {}
    ops: list[Op] = []
    for a, b in BIPARTITE_SHAPES:
        name = f"k{a}x{b}"
        _write(directory, name, generators.gen_complete_bipartite(a, b), graphs)
        ids = f"random:{rng.randrange(2**31)}"
        side = {"full_side": True}
        ops += [
            Op(f"classify {name}", "classify", name, expect={"rmis_forall": True}),
            Op(f"find {name}", "find", name, expect=side),
            Op(f"verify {name} found", "verify", name, set_from=f"find {name}", expect={"robust": True}),
            Op(f"simulate {name}", "simulate", name, ["--ids", ids], expect={**side, "rounds": 3}),
            Op(f"verify {name} simulated", "verify", name, set_from=f"simulate {name}", expect={"robust": True}),
        ]
    name = f"path{PATH_LENGTH}"
    _write(directory, name, generators.gen_path(PATH_LENGTH), graphs)
    ops.append(Op(f"simulate {name}", "simulate", name, ["--ids", "identity"]))
    return Corpus(graphs, ops)


WORKLOADS = {
    "gadget-ladder": gadget_ladder,
    "lockstep-sim": lockstep_sim,
}
