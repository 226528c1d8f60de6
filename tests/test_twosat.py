import random

import pytest

from rmis.twosat import TwoSatError, TwoSatFormula, solve

from conftest import evaluate


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

    def test_out_of_range_rejected(self):
        f = TwoSatFormula(2)
        with pytest.raises(TwoSatError):
            f.add_clause((2, True), (0, True))


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
        assert solve(f) is None

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
