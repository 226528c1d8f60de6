"""Inside the polynomial search: decomposition, labels, and the gadget family.

Enumerating MISs until a robust one appears is hopeless in general (there
can be exponentially many), so the search decomposes the graph into a tree
of biconnected components, propagates per-subtree feasibility labels toward
a root component, and settles each component's membership constraints with
2-SAT.
"""

import time

from rmis import build_abc_tree, default_root, find_rmis, gen_bull, gen_gk, is_robust_mis, root_at
from rmis.abctree import render_text
from rmis.findrmis import all_witnesses, run_labeling

bull = gen_bull()
print("== decomposition of the bull graph")
tree = build_abc_tree(bull)
rooted = root_at(tree, default_root(tree))
print("".join(render_text(rooted)), end="")
print("   A = articulation point, B = bridge, C = big component, P = pendant")

print("\n== labeled run")
run = run_labeling(bull)
witnesses = all_witnesses(run)  # labels hold own vertices only


def tags(node):
    return " ".join(f"{t}{sorted(w)}" for t, w in sorted(witnesses[node].items()))


print("".join(render_text(run.rooted, tags)), end="")
print(f"   verdict: {sorted(run.result)}")
print("   PI/PO say the subtree works with its attachment vertex in/out;")
print("   PE says it works with the vertex out if an outside neighbor joins.")

print("\n== the two-solution ladder gadget")
for k in (0, 1, 2):
    inst = gen_gk(k)
    got = find_rmis(inst.graph)
    which = "m1" if got == inst.m1 else "m2"
    print(
        f"   k={k}: n={inst.graph.n}, exactly two robust MISs (complements); "
        f"search returned {which}"
    )
    assert is_robust_mis(inst.graph, inst.m1) and is_robust_mis(inst.graph, inst.m2)

print("\n== scaling (the search stays polynomial)")
for k in (25, 50, 100, 200):
    g = gen_gk(k).graph
    t0 = time.perf_counter()
    find_rmis(g)
    print(f"   k={k:>3} (n={g.n:>4}): {time.perf_counter() - t0:.3f}s")
