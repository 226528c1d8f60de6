"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. Tolerances are exact
(zero mismatches) except where a wall-clock bound is stated explicitly.
"""

import random
import time
from contextlib import contextmanager

from rmis.classify import in_rmis_forall, is_complete_bipartite
from rmis.findrmis import find_rmis, run_labeling
from rmis.generators import (
    gen_bull,
    gen_complete_bipartite,
    gen_cycle,
    gen_gk,
    gen_random_connected,
    gen_random_sputnik,
)
from rmis.graph import pendant_vertices
from rmis.localsim import IN, indistinguishability_check, random_ids, rmis_forall_program, run_sync
from rmis.oracle import (
    enumerate_mis,
    enumerate_robust_mis,
    is_mis,
    is_robust_mis,
    is_robust_mis_bruteforce,
)
from rmis.twosat import solve

from conftest import evaluate
from test_findrmis import assert_well_labeled
from test_twosat import exhaustive_satisfiable, random_formula


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] criterion {num}: FAIL - {desc}")
        raise
    print(f"\n[acceptance] criterion {num}: PASS - {desc}")


def check_search_against_enumeration(g, *, brute_cap=24):
    expected = enumerate_robust_mis(g, max_vertices=max(16, g.n))
    got = find_rmis(g)
    assert (got is not None) == bool(expected), f"existence mismatch on {g.edges()}"
    if got is not None:
        assert is_robust_mis(g, got), f"bad witness on {g.edges()}"
        assert is_robust_mis_bruteforce(g, got, max_removable=brute_cap)


def test_criterion_1_exhaustive_equivalence(small_corpus):
    with criterion(1, "search vs enumeration on every connected graph with <= 6 vertices"):
        for g in small_corpus:
            check_search_against_enumeration(g)


def test_criterion_2_randomized_agreement():
    with criterion(2, "search vs enumeration on 2000 random connected graphs, n in [7,12]"):
        probs = (0.10, 0.15, 0.20, 0.25, 0.30, 0.35)
        for i in range(2000):
            n = 7 + i % 6
            g = gen_random_connected(n, probs[(i // 6) % len(probs)], seed=1000 + i)
            check_search_against_enumeration(g)


def test_criterion_3_forall_class_matches_per_mis_check(small_corpus):
    with criterion(3, "structural verdict equals the all-MISs-robust check, n <= 6"):
        for g in small_corpus:
            expected = all(is_robust_mis(g, s) for s in enumerate_mis(g))
            assert in_rmis_forall(g).rmis_forall == expected, f"mismatch on {g.edges()}"


def test_criterion_4_gadget_exactness():
    with criterion(4, "gadget family: exact solution pair, verbatim recovery, k=200 under 2s"):
        for k in range(4):
            inst = gen_gk(k)
            assert set(enumerate_robust_mis(inst.graph, max_vertices=24)) == {
                inst.m1,
                inst.m2,
            }
        for k in (0, 1, 2, 3, 5, 10, 25, 50, 120, 200):
            inst = gen_gk(k)
            got = find_rmis(inst.graph)
            assert got in (inst.m1, inst.m2), f"not a stored solution at k={k}"
            assert is_robust_mis(inst.graph, inst.m1)
            assert is_robust_mis(inst.graph, inst.m2)

        def timed(k):
            g = gen_gk(k).graph
            start = time.perf_counter()
            assert find_rmis(g) is not None
            return time.perf_counter() - start

        t50 = timed(50)
        t200 = timed(200)
        assert t200 < 2.0, f"k=200 took {t200:.2f}s"
        # growth should stay near linear (k=200 is four times k=50); the
        # slack covers noise
        assert t200 <= 10 * max(t50, 0.01), f"t50={t50:.3f}s t200={t200:.3f}s"


def test_criterion_5_vignettes():
    with criterion(5, "triangle has no solution; bull has one; square has two"):
        assert enumerate_robust_mis(gen_cycle(3)) == []
        assert find_rmis(gen_cycle(3)) is None

        bull = gen_bull()
        sets = enumerate_robust_mis(bull)
        assert len(sets) == 1 and len(sets[0]) == 3
        pendants = pendant_vertices(bull)
        horn = sets[0] - pendants
        assert pendants < sets[0] and len(horn) == 1
        assert not (bull.neighbors(next(iter(horn))) & pendants)

        square = gen_cycle(4)
        assert set(enumerate_robust_mis(square)) == set(enumerate_mis(square))
        assert len(enumerate_mis(square)) == 2


def test_criterion_6_label_soundness():
    with criterion(6, "labels match brute force on 500 random graphs, n in [4,8]"):
        rng = random.Random(600)
        labeled_runs = 0
        for i in range(500):
            n = rng.randint(4, 8)
            g = gen_random_connected(n, rng.uniform(0.2, 0.65), seed=6000 + i)
            run = run_labeling(g)
            if run.rooted is None:
                continue  # no labeling phase on acyclic graphs
            assert_well_labeled(g, run)
            labeled_runs += 1
        assert labeled_runs >= 250


def test_criterion_7_distributed_correctness():
    with criterion(7, "distributed outputs form an MIS on 500 instances; bipartite rounds = 3"):
        rng = random.Random(700)
        for i in range(500):
            if i % 2 == 0:
                if i % 100 == 0:
                    m, n = 100, 100  # hit the size ceiling occasionally
                else:
                    m, n = rng.randint(1, 30), rng.randint(1, 30)
                g = gen_complete_bipartite(m, n)
                bipartite = True
            else:
                size = 100 if i % 99 == 0 else rng.randint(1, 50)
                g = gen_random_sputnik(seed=7000 + i, size=size)
                bipartite = is_complete_bipartite(g) is not None
            assert g.n <= 200
            result = run_sync(g, rmis_forall_program(), random_ids(g, seed=i))
            chosen = {v for v, out in result.outputs.items() if out == IN}
            assert is_mis(g, chosen), f"invalid output on instance {i}"
            if bipartite:
                assert set(result.termination_round.values()) == {3}


def test_criterion_8_lower_bound_premise():
    with criterion(8, "extremity views coincide across relabeled gadget copies"):
        for k in (1, 2, 3, 5):
            assert indistinguishability_check(k), f"views differ at k={k}"


def test_criterion_9_twosat_soundness_completeness():
    with criterion(9, "solver vs exhaustive assignment search on 10000 formulas"):
        rng = random.Random(900)
        for _ in range(10000):
            f = random_formula(rng, max_vars=16)
            got = solve(f)
            if got is None:
                assert not exhaustive_satisfiable(f)
            else:
                assert exhaustive_satisfiable(f)
                assert evaluate(f, got)
