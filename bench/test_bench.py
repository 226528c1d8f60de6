"""Tests for the benchmark's tracing, counting and metric tables.

Run from the repository root: `PYTHONPATH=src python3 -m pytest bench -q`.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rmis import cli, findrmis, generators, localsim  # noqa: E402
from rmis.graph import to_edge_list  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def test_counting_program_is_transparent_and_counts_k22():
    g = generators.gen_complete_bipartite(2, 2)
    ids = localsim.identity_ids(g)
    plain = localsim.run_sync(g, localsim.rmis_forall_program(), ids)
    counting = tracing.CountingProgram(localsim.rmis_forall_program())
    counted = localsim.run_sync(g, counting, ids)
    assert counted == plain
    # 8 port-messages per round for 3 rounds: an id, then the sender's own
    # adjacency (1 key + 2 ids), then three such adjacency entries
    assert counting.totals() == {
        "messages": 24,
        "payload_entries": 8 * (1 + 3 + 9),
        "flood_payload_entries": 8 * (1 + 3 + 9),
        "forest_messages": 0,
        "node_steps": 12,
    }


def test_forest_stage_messages_counted_on_a_path():
    g = generators.gen_path(10)
    counting = tracing.CountingProgram(localsim.rmis_forall_program())
    result = localsim.run_sync(g, counting, localsim.identity_ids(g))
    totals = counting.totals()
    assert result.rounds_total > 3
    assert totals["forest_messages"] > 0
    assert totals["messages"] == sum(counting.messages.values())


def test_payload_entries():
    assert tracing.payload_entries(("status", 4, None)) == 3
    assert tracing.payload_entries({1: frozenset({2, 3}), 4: frozenset()}) == 4


def test_self_time_excludes_wrapped_callees():
    tracer = tracing.Tracer()

    def inner():
        return sum(range(20000))

    def outer():
        return tracer.call("b.inner", True, inner, (), {}) + 1

    tracer.call("a.outer", True, outer, (), {})
    (calls_a, total_a, self_a), (calls_b, total_b, self_b) = (
        tracer.totals["a.outer"], tracer.totals["b.inner"]
    )
    assert calls_a == calls_b == 1
    assert total_b == self_b
    assert self_a == total_a - total_b
    inner_span, outer_span = tracer.spans
    assert inner_span[4] == outer_span[0] and outer_span[4] is None


def test_traced_cli_run_matches_untraced_and_restores(tmp_path):
    path = tmp_path / "gk.edges"
    path.write_text(to_edge_list(generators.gen_gk(3).graph))

    def find() -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.main(["find", str(path)])
        return out.getvalue()

    original = findrmis.run_labeling
    before = find()
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        traced = find()
    finally:
        uninstall()
    assert traced == before
    assert findrmis.run_labeling is original and cli.main.__module__ == "rmis.cli"
    assert tracer.totals["findrmis.test_rmis"][0] > 0
    assert tracer.counters["abctree.nodes_C"] > 0
    metrics = run.layer_metrics(tracer)
    assert metrics["findrmis.probes"] == tracer.totals["findrmis.test_rmis"][0]
    assert metrics["abctree.depth"] > 0
    names = {span[1] for span in tracer.spans}
    assert {"cli.main", "graph.from_edge_list", "findrmis.run_labeling", "twosat.solve"} <= names
