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
    for a, b in f.clauses:
        ma = masks[a >> 1] if a & 1 else full ^ masks[a >> 1]
        mb = masks[b >> 1] if b & 1 else full ^ masks[b >> 1]
        sat &= ma | mb
        if not sat:
            return False
    return sat != 0


def random_formula(rng: random.Random, max_vars: int = 16) -> TwoSatFormula:
    k = rng.randint(1, max_vars)
    f = TwoSatFormula(k)
    for _ in range(rng.randint(0, 3 * k)):
        a = 2 * rng.randrange(k) + (rng.random() < 0.5)
        b = 2 * rng.randrange(k) + (rng.random() < 0.5)
        if rng.random() < 0.15:
            f.add_unit(a)
        else:
            f.add_clause(a, b)
    return f


# a literal is the int 2*var + pol: 2v + 1 is v, 2v is not-v
class TestFormula:
    def test_unit_stored_as_doubled_literal(self):
        f = TwoSatFormula(2)
        f.add_unit(1)
        assert f.clauses == [(1, 1)]

    def test_binary_clause_stored(self):
        f = TwoSatFormula(2)
        f.add_clause(0, 2)
        assert f.clauses == [(0, 2)]

    def test_negative_variable_count_rejected(self):
        with pytest.raises(TwoSatError, match="^variable count must be non-negative$"):
            TwoSatFormula(-1)

    # a bool, a (variable, polarity) pair, and the ints either side of [0, 4)
    BAD_LITERALS = [True, (0, True), -1, 4]

    @pytest.mark.parametrize("bad", BAD_LITERALS, ids=repr)
    def test_add_clause_rejects_a_non_literal(self, bad):
        f = TwoSatFormula(2)
        for l1, l2 in ((bad, 0), (0, bad)):
            with pytest.raises(TwoSatError, match="is not an int in"):
                f.add_clause(l1, l2)
        assert f.clauses == []

    @pytest.mark.parametrize("bad", BAD_LITERALS, ids=repr)
    def test_add_unit_rejects_a_non_literal(self, bad):
        f = TwoSatFormula(2)
        with pytest.raises(TwoSatError, match="is not an int in"):
            f.add_unit(bad)
        assert f.clauses == []

    @pytest.mark.parametrize("bad", BAD_LITERALS, ids=repr)
    @pytest.mark.parametrize("units_only", [True, False], ids=["unit-only", "mixed"])
    def test_solve_rejects_a_non_literal_assumption(self, bad, units_only):
        # the check runs on both paths, after a valid assumption too
        f = TwoSatFormula(2)
        f.add_unit(1)
        if not units_only:
            f.add_clause(0, 2)
        before = list(f.clauses)
        with pytest.raises(TwoSatError, match="is not an int in"):
            solve(f, (2, bad))
        assert f.clauses == before


class TestSolve:
    def test_forced_chain(self):
        f = TwoSatFormula(2)
        f.add_unit(1)
        f.add_clause(0, 2)
        assert solve(f) == [True, False]

    def test_contradiction(self):
        f = TwoSatFormula(1)
        f.add_unit(1)
        f.add_unit(0)
        for assume in ((), (1,), (0,)):
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
            literals = range(2 * k)
            for count in range(5):
                for units in product(literals, repeat=count):
                    f = TwoSatFormula(k)
                    for i, lit in enumerate(units):
                        if i % 2:
                            f.add_clause(lit, lit)
                        else:
                            f.add_unit(lit)
                    assert solve(f) == implication_graph_model(f.num_vars, f.clauses), units
                    checked += 1
        assert checked == 1 + 31 + 341 + 1555

    def test_mixed_formulas_match_the_implication_graph(self):
        # the larger formulas hold long implication cycles, whose lowlinks
        # travel up many levels of the search
        rng = random.Random(3)
        for max_vars in (8, 30):
            for _ in range(500):
                f = random_formula(rng, max_vars=max_vars)
                assert solve(f) == implication_graph_model(f.num_vars, f.clauses)

    def test_long_implication_chain_needs_no_recursion(self):
        # x0, then x_i implies x_{i+1}: a search path through every variable
        n = 100_000
        f = TwoSatFormula(n)
        f.add_unit(1)
        for i in range(n - 1):
            f.add_clause(2 * i, 2 * i + 3)
        assert solve(f) == [True] * n
        # x_{n-1} implies not x0 closes the chain into a contradiction
        f.add_clause(2 * n - 2, 0)
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
                        lit = 2 * rng.randrange(f.num_vars) + (rng.random() < 0.5)
                        if rng.random() < 0.5:
                            f.add_clause(lit, lit)
                        else:
                            f.add_unit(lit)
                else:
                    f = random_formula(rng, max_vars=8)
                assume = tuple(2 * rng.randrange(f.num_vars) + (rng.random() < 0.5) for _ in range(rng.randint(0, 3)))
                appended = TwoSatFormula(f.num_vars)
                for l1, l2 in f.clauses:
                    appended.add_clause(l1, l2)
                for lit in assume:
                    appended.add_unit(lit)
                before = list(f.clauses)
                model = implication_graph_model(appended.num_vars, appended.clauses)
                assert solve(f, assume) == solve(appended) == model
                assert f.clauses == before
