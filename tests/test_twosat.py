import random
from itertools import product

import pytest

from rmis.twosat import TwoSatError, TwoSatFormula, solve

from conftest import evaluate, implication_graph_model


def exhaustive_satisfiable(f: TwoSatFormula) -> bool:
    """Try all 2^k assignments at once: one bit per assignment in a big
    integer, one precomputed membership mask per variable.
    """
    k = f.num_vars
    total = 1 << k
    full = (1 << total) - 1
    masks = []
    for v in range(k):
        block = 1 << v
        pattern = ((1 << block) - 1) << block  # block zeros, then block ones
        width = 2 * block
        while width < total:
            pattern |= pattern << width
            width *= 2
        masks.append(pattern)
    sat = full
    for (a, pa), (b, pb) in f.clauses:
        ma = masks[a] if pa else full ^ masks[a]
        mb = masks[b] if pb else full ^ masks[b]
        sat &= ma | mb
        if not sat:
            return False
    return sat != 0


def random_formula(rng: random.Random, max_vars: int = 16) -> TwoSatFormula:
    k = rng.randint(1, max_vars)
    f = TwoSatFormula(k)
    for _ in range(rng.randint(0, 3 * k)):
        a = (rng.randrange(k), rng.random() < 0.5)
        b = (rng.randrange(k), rng.random() < 0.5)
        if rng.random() < 0.15:
            f.add_unit(a)
        else:
            f.add_clause(a, b)
    return f


class TestFormula:
    def test_unit_stored_as_doubled_literal(self):
        f = TwoSatFormula(2)
        f.add_unit((0, True))
        assert f.clauses == [((0, True), (0, True))]

    def test_binary_clause_stored(self):
        f = TwoSatFormula(2)
        f.add_clause((0, False), (1, False))
        assert f.clauses == [((0, False), (1, False))]

    def test_negative_variable_count_rejected(self):
        with pytest.raises(TwoSatError, match="^variable count must be non-negative$"):
            TwoSatFormula(-1)

    def test_out_of_range_rejected(self):
        f = TwoSatFormula(2)
        with pytest.raises(TwoSatError):
            f.add_clause((2, True), (0, True))
        with pytest.raises(TwoSatError):
            solve(f, ((2, True),))
        # an assumed literal is checked on the unit-only path too
        f.add_unit((0, True))
        for bad in ((2, True), (-1, False), (0, 1)):
            with pytest.raises(TwoSatError):
                solve(f, ((1, False), bad))
        assert f.clauses == [((0, True), (0, True))]


class TestSolve:
    def test_forced_chain(self):
        f = TwoSatFormula(2)
        f.add_unit((0, True))
        f.add_clause((0, False), (1, False))
        assert solve(f) == [True, False]

    def test_contradiction(self):
        f = TwoSatFormula(1)
        f.add_unit((0, True))
        f.add_unit((0, False))
        for assume in ((), ((0, True),), ((0, False),)):
            assert solve(f, assume) is None

    def test_unconstrained_variables_default_false(self):
        f = TwoSatFormula(4)
        assert solve(f) == [False, False, False, False]

    def test_deterministic(self):
        rng = random.Random(1)
        for _ in range(50):
            f = random_formula(rng, max_vars=10)
            assert solve(f) == solve(f)

    def test_agrees_with_exhaustive_search(self):
        rng = random.Random(2)
        for _ in range(1500):
            f = random_formula(rng)
            got = solve(f)
            if got is None:
                assert not exhaustive_satisfiable(f)
            else:
                assert exhaustive_satisfiable(f)
                assert evaluate(f, got)

    def test_unit_only_formulas_match_the_implication_graph(self):
        # every unit-only formula over up to 3 variables with up to 4 units,
        # every other unit written as a clause of one literal twice
        checked = 0
        for k in range(4):
            literals = [(v, pol) for v in range(k) for pol in (False, True)]
            for count in range(5):
                for units in product(literals, repeat=count):
                    f = TwoSatFormula(k)
                    for i, lit in enumerate(units):
                        if i % 2:
                            f.add_clause(lit, lit)
                        else:
                            f.add_unit(lit)
                    assert solve(f) == implication_graph_model(f), units
                    checked += 1
        assert checked == 1 + 31 + 341 + 1555

    def test_mixed_formulas_match_the_implication_graph(self):
        # the larger formulas hold long implication cycles, whose lowlinks
        # travel up many levels of the search
        rng = random.Random(3)
        for max_vars in (8, 30):
            for _ in range(500):
                f = random_formula(rng, max_vars=max_vars)
                assert solve(f) == implication_graph_model(f)

    def test_long_implication_chain_needs_no_recursion(self):
        # x0, then x_i implies x_{i+1}: a search path through every variable
        n = 100_000
        f = TwoSatFormula(n)
        f.add_unit((0, True))
        for i in range(n - 1):
            f.add_clause((i, False), (i + 1, True))
        assert solve(f) == [True] * n
        # x_{n-1} implies not x0 closes the chain into a contradiction
        f.add_clause((n - 1, False), (0, False))
        assert solve(f) is None

    def test_assumptions_act_as_appended_units(self):
        # solving under assumptions gives the model of the formula with the
        # assumed literals appended as unit clauses, and leaves it unchanged
        rng = random.Random(4)
        for units_only in (True, False):
            for _ in range(500):
                if units_only:
                    f = TwoSatFormula(rng.randint(1, 6))
                    for _ in range(rng.randint(0, 4)):
                        lit = (rng.randrange(f.num_vars), rng.random() < 0.5)
                        if rng.random() < 0.5:
                            f.add_clause(lit, lit)
                        else:
                            f.add_unit(lit)
                else:
                    f = random_formula(rng, max_vars=8)
                assume = tuple((rng.randrange(f.num_vars), rng.random() < 0.5) for _ in range(rng.randint(0, 3)))
                appended = TwoSatFormula(f.num_vars)
                for l1, l2 in f.clauses:
                    appended.add_clause(l1, l2)
                for lit in assume:
                    appended.add_unit(lit)
                before = list(f.clauses)
                assert solve(f, assume) == solve(appended) == implication_graph_model(appended)
                assert f.clauses == before
