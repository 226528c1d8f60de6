"""Deterministic 2-SAT on the implication graph.

Literals are (variable, polarity) pairs. Satisfiability and the model come
from strongly connected components of the implication graph with the usual
reverse-topological polarity choice; negative literals are indexed first so
a variable no clause touches comes out False.
"""

from __future__ import annotations

Literal = tuple[int, bool]


class TwoSatError(ValueError):
    pass


class TwoSatFormula:
    """Conjunction of two-literal clauses over variables 0..num_vars-1.

    A unit clause is stored as the pair (lit, lit).
    """

    def __init__(self, num_vars: int):
        if num_vars < 0:
            raise TwoSatError("variable count must be non-negative")
        self.num_vars = num_vars
        self.clauses: list[tuple[Literal, Literal]] = []

    def _check(self, lit: Literal) -> None:
        var, pol = lit
        if not 0 <= var < self.num_vars:
            raise TwoSatError(f"variable {var} out of range [0, {self.num_vars})")
        if not isinstance(pol, bool):
            raise TwoSatError(f"polarity must be a bool, got {pol!r}")

    def add_clause(self, l1: Literal, l2: Literal) -> None:
        self._check(l1)
        self._check(l2)
        self.clauses.append((l1, l2))

    def add_unit(self, lit: Literal) -> None:
        self.add_clause(lit, lit)


def _node(lit: Literal) -> int:
    # negative literal of variable v -> 2v, positive -> 2v + 1
    var, pol = lit
    return 2 * var + (1 if pol else 0)


def _negate(node: int) -> int:
    return node ^ 1


def solve(f: TwoSatFormula) -> list[bool] | None:
    """A satisfying assignment, or None. Deterministic for a fixed formula."""
    size = 2 * f.num_vars
    succ: list[list[int]] = [[] for _ in range(size)]
    for l1, l2 in f.clauses:
        a, b = _node(l1), _node(l2)
        succ[_negate(a)].append(b)
        succ[_negate(b)].append(a)

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


def _tarjan_scc(succ: list[list[int]]) -> list[int]:
    """Component index per node, numbered in completion (reverse topological)
    order. Iterative to keep large formulas off the recursion limit.
    """
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    on_stack = [False] * n
    scc_stack: list[int] = []
    counter = 0
    num_comps = 0

    for start in range(n):
        if index[start] != -1:
            continue
        work: list[tuple[int, int]] = [(start, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                scc_stack.append(v)
                on_stack[v] = True
            advanced = False
            while pi < len(succ[v]):
                w = succ[v][pi]
                pi += 1
                if index[w] == -1:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                while True:
                    w = scc_stack.pop()
                    on_stack[w] = False
                    comp[w] = num_comps
                    if w == v:
                        break
                num_comps += 1
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
    return comp
