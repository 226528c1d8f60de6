"""Deterministic 2-SAT on the implication graph.

A literal is the int `2*var + pol`, which is also its node in the
implication graph: `2v + 1` is v, `2v` is not-v, `lit ^ 1` negates it and
`lit >> 1` is its variable. Satisfiability and the model come from strongly
connected components of the implication graph with the usual
reverse-topological polarity choice; negative literals are indexed first so
a variable no clause touches comes out False. The components come from
Tarjan's lowlink search, in the form of the library's depth-first walk
(see `graph.blocks`): the walked node, its low point and its successor
iterator in locals, the path above it on three stacks. The library's other
walk is a list that grows as a breadth-first search reads it.

A formula made only of unit clauses, which is what most component probes
pose, skips the graph: it is unsatisfiable exactly when two units disagree,
and otherwise the strongly connected components give each unit's variable
its forced value and every other variable False, so that model is returned
directly.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import chain


class TwoSatError(ValueError):
    pass


class TwoSatFormula:
    """Conjunction of two-literal clauses over variables 0..num_vars-1,
    each literal the int `2*var + pol` (`2v + 1` is v, `2v` is not-v).

    A unit clause is stored as the pair (lit, lit).
    """

    def __init__(self, num_vars: int):
        if num_vars < 0:
            raise TwoSatError("variable count must be non-negative")
        self.num_vars = num_vars
        self.clauses: list[tuple[int, int]] = []

    def _check(self, lit: int) -> None:
        if type(lit) is not int or not 0 <= lit < 2 * self.num_vars:
            raise TwoSatError(f"literal {lit!r} is not an int in [0, {2 * self.num_vars})")

    def add_clause(self, l1: int, l2: int) -> None:
        self._check(l1)
        self._check(l2)
        self.clauses.append((l1, l2))

    def add_unit(self, lit: int) -> None:
        self._check(lit)
        self.clauses.append((lit, lit))


def solve(f: TwoSatFormula, assume: tuple[int, ...] = ()) -> list[bool] | None:
    """A satisfying assignment, or None. Deterministic for a fixed formula.

    Each literal of `assume` holds as a unit clause appended after the
    formula's own clauses, in order; `f` itself is left unchanged, so one
    formula can be solved under several assumptions.
    """
    for lit in assume:
        f._check(lit)
    units = [l1 for l1, l2 in f.clauses if l1 == l2]
    if len(units) == len(f.clauses):
        units += assume
        return _solve_units(f.num_vars, units)
    size = 2 * f.num_vars
    succ: list[list[int]] = [[] for _ in range(size)]
    for a, b in chain(f.clauses, zip(assume, assume)):
        succ[a ^ 1].append(b)  # not a implies b, not b implies a
        succ[b ^ 1].append(a)

    comp = _tarjan_scc(succ)
    assignment = []
    for v in range(f.num_vars):
        neg, pos = comp[2 * v], comp[2 * v + 1]
        if neg == pos:
            return None
        # components are numbered in reverse topological order; the literal
        # whose component closes first is the implied one
        assignment.append(pos < neg)
    return assignment


def _solve_units(num_vars: int, units: list[int]) -> list[bool] | None:
    # the model the implication graph gives when every clause is a unit:
    # each unit's value, every other variable False
    model = [False] * num_vars
    forced: dict[int, int] = {}  # variable -> its unit literal
    for lit in units:
        var = lit >> 1
        if forced.setdefault(var, lit) != lit:
            return None
        model[var] = lit & 1 == 1
    return model


def _tarjan_scc(succ: list[list[int]]) -> list[int]:
    """Component index per node, numbered in completion (reverse topological)
    order, after Tarjan. Iterative, so no recursion limit stands in the way,
    and in the form of `graph.blocks`: the node being walked lives in three
    locals, `v`, its running low point `lv` and its successor iterator `it`,
    and only the path above it waits, on three stacks of nodes, low points
    and iterators. A reached node waits on `reached` exactly while it has no
    component. On return, a node whose component is still open lowers its
    parent's low point; any other closes its component.
    """
    n = len(succ)
    index = [-1] * n
    comp = [-1] * n
    nodes: list[int] = []  # the path above v: nodes, low points, iterators
    lows: list[int] = []
    iters: list[Iterator[int]] = []
    reached: list[int] = []
    counter = 0
    num_comps = 0
    for start in range(n):
        if index[start] != -1:
            continue
        v = start
        index[v] = lv = counter
        counter += 1
        reached.append(v)
        it = iter(succ[v])
        while True:
            for w in it:
                k = index[w]
                if k == -1:
                    nodes.append(v)
                    lows.append(lv)
                    iters.append(it)
                    v = w
                    index[v] = lv = counter
                    counter += 1
                    reached.append(v)
                    it = iter(succ[w])
                    break
                if k < lv and comp[w] == -1:
                    lv = k
            else:
                if lv < index[v]:  # v's component is still open, so v has a parent
                    v = nodes.pop()
                    it = iters.pop()
                    lp = lows.pop()
                    if lp < lv:
                        lv = lp
                    continue
                while (w := reached.pop()) != v:
                    comp[w] = num_comps
                comp[v] = num_comps
                num_comps += 1
                if not nodes:
                    break
                v = nodes.pop()
                it = iters.pop()
                lv = lows.pop()
    return comp
