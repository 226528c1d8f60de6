"""Robust maximal independent sets.

A maximal independent set is *robust* when it stays maximal in every
connected spanning subgraph of its graph, so it survives any edge failures
that leave the network connected. This package provides ground-truth
oracles, a structural classifier for the graphs where every MIS is robust,
a polynomial constructive search over general graphs, instance generators,
and a synchronous message-passing simulator for the distributed setting.
"""

from .graph import (
    Blocks,
    Graph,
    GraphError,
    EdgeListParseError,
    articulation_points,
    ball,
    biconnected_components,
    blocks,
    bridges,
    connected_components,
    from_edge_list,
    induced_subgraph,
    is_bipartite,
    is_connected,
    pendant_vertices,
    remove_edges,
    to_dot,
    to_edge_list,
)
from .oracle import (
    enumerate_mis,
    enumerate_robust_mis,
    is_independent,
    is_mis,
    is_robust_mis,
    is_robust_mis_bruteforce,
)
from .classify import ClassVerdict, in_rmis_forall, is_complete_bipartite, is_sputnik
from .abctree import (
    AbcNode,
    AbcTree,
    build_abc_tree,
    default_root,
    root_at,
)
from .twosat import TwoSatFormula, solve
from .findrmis import LabelingRun, find_rmis, run_labeling
from .generators import (
    GkInstance,
    gen_bull,
    gen_complete_bipartite,
    gen_cycle,
    gen_gk,
    gen_lollipop,
    gen_path,
    gen_random_connected,
    gen_random_sputnik,
    gen_sparse_connected,
    gen_sparse_sputnik,
    gen_square,
    gen_triangle,
)
from .localsim import (
    IN,
    OUT,
    NodeProgram,
    SimResult,
    SimulationTimeout,
    identity_ids,
    indistinguishability_check,
    random_ids,
    rmis_forall_program,
    run_sync,
)

__version__ = "0.1.0"
