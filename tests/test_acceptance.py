"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. The randomized criteria share one seeded corpus of
100 recipe/table pairs, so the whole suite stays well under its time budget.
"""

from __future__ import annotations

import json
import random
import time

import pytest

from refineflow import (
    SchemaState,
    build_collapsed,
    build_linear,
    build_parallel,
    dependency_edges,
    detail_model,
    emit_dot,
    emit_yw,
    parse_recipe,
    trace_effects,
)
from refineflow.cli import main as cli_main
from conftest import FIXTURES, GOLDEN
from dotcheck import parse_dot
from oracle import execute, execute_order
from recipegen import (
    CORPUS_SEED,
    CORPUS_SIZE,
    acceptance_corpus,
    has_unique_topological_order,
    random_topological_order,
)

ORDERS_PER_RECIPE = 20


@pytest.fixture(scope="module")
def corpus():
    return acceptance_corpus()


def _step_pairs(model) -> set[tuple[int, int]]:
    return {
        (int(e.src.split("_")[1]), int(e.dst.split("_")[1]))
        for e in model.edges
        if e.src.startswith("step_") and e.dst.startswith("step_")
    }


def test_criterion_1_linear_model_shape(menus_recipe):
    started = time.perf_counter()
    assert len(menus_recipe) == 8
    model = build_linear(menus_recipe)
    tables = [n.id for n in model.nodes if n.kind == "data_table"]
    steps = [n.id for n in model.nodes if n.kind == "step"]
    assert len(tables) == 9
    assert len(steps) == 8
    flow = {(e.src, e.dst) for e in model.edges if not e.src.startswith("step_") or not e.dst.startswith("step_")}
    # Single alternating path: table_i -> step_i -> table_{i+1}, nothing else
    # between tables and steps except the parameter feeds.
    for i in range(8):
        assert (f"table_{i}", f"step_{i}") in flow
        assert (f"step_{i}", f"table_{i + 1}") in flow
    table_step = [e for e in model.edges if e.src.startswith("table_") or e.dst.startswith("table_")]
    assert len(table_step) == 16
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: linear model is a 9-table / 8-step alternating chain ({elapsed:.3f}s)")


def test_criterion_2_parallel_component_count(menus_recipe):
    started = time.perf_counter()
    model = build_parallel(menus_recipe)
    assert len(model.components) == 3

    date_group = set(model.components[0])
    nodes = {n.id: n for n in model.nodes}
    splits = [nodes[s] for s in date_group if nodes[s].payload.get("pattern") == "split"]
    merges = [nodes[s] for s in date_group if nodes[s].payload.get("pattern") == "merge"]
    assert len(splits) == 1
    assert splits[0].payload["branches"] == 3
    assert len(merges) == 1
    merge_out_labels = [
        nodes[e.dst].label
        for e in model.edges
        if e.src == merges[0].id and nodes[e.dst].kind == "data_column"
    ]
    assert merge_out_labels == ["repaired_date"]
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"\nPASS criterion 2: 3 independent subworkflows; date thread splits x3 and merges into repaired_date ({elapsed:.3f}s)")


def test_criterion_3_commutativity_soundness(corpus):
    started = time.perf_counter()
    rng = random.Random(CORPUS_SEED + 1)
    checked_orders = 0
    for recipe, table in corpus:
        effects, _ = trace_effects(recipe, SchemaState.from_labels(table.labels))
        pairs = dependency_edges(effects)
        baseline = execute(recipe, table).by_label()
        for _ in range(ORDERS_PER_RECIPE):
            order = random_topological_order(len(recipe), pairs, rng)
            result = execute_order(recipe, order, table).by_label()
            assert result == baseline, (recipe, order)
            checked_orders += 1
    elapsed = time.perf_counter() - started
    assert checked_orders == CORPUS_SIZE * ORDERS_PER_RECIPE
    assert elapsed < 30.0
    print(
        f"\nPASS criterion 3: {checked_orders} reordered executions over "
        f"{CORPUS_SIZE} random recipes all equal the recorded order ({elapsed:.1f}s)"
    )


def test_criterion_4_conservative_fallback(corpus):
    rng = random.Random(CORPUS_SEED + 2)
    instances = 0
    for recipe, _ in corpus[:50]:
        entries = [{"op": op.op_id, **op.params} for op in recipe.operations]
        position = rng.randrange(len(entries) + 1)
        entries.insert(position, {"op": "vendor/unknown-step"})
        tainted = parse_recipe(json.dumps(entries))
        model = build_parallel(tainted)
        assert len(model.components) == 1
        pairs = _step_pairs(model)
        assert has_unique_topological_order(len(tainted), pairs)
        chain = list(range(len(tainted)))
        order = random_topological_order(len(tainted), pairs, rng)
        assert order == chain
        instances += 1
    assert instances == 50
    print(
        "\nPASS criterion 4: one unknown op forces a single component whose only "
        "topological order is the recorded order (50 instances)"
    )


def test_criterion_5_collapse_accounting(mass_edit_recipe, corpus, tmp_path):
    model = build_collapsed(mass_edit_recipe, threshold=3)
    summaries = [n for n in model.nodes if n.kind == "summary"]
    assert len(summaries) == 1
    assert summaries[0].payload["count"] == 10
    detail = detail_model(mass_edit_recipe, summaries[0])
    assert len([n for n in detail.nodes if n.kind == "step"]) == 10

    out = tmp_path / "collapsed.dot"
    status = cli_main(
        ["-i", str(FIXTURES / "mass_edit_run.json"), "-t", "collapsed",
         "--collapse-threshold", "3", "-o", str(out)]
    )
    assert status == 0
    detail_files = sorted(tmp_path.glob("collapsed.detail.*.dot"))
    assert len(detail_files) == 1
    inner = parse_dot(detail_files[0].read_text(encoding="utf-8"))
    assert len([n for n, a in inner.nodes.items() if a.get("fillcolor") == "#CCFFCC"]) == 10

    rng = random.Random(CORPUS_SEED + 3)
    for recipe, _ in corpus:
        threshold = rng.choice([2, 3, 5])
        collapsed = build_collapsed(recipe, threshold)
        steps = [n for n in collapsed.nodes if n.kind == "step"]
        counts = [n.payload["count"] for n in collapsed.nodes if n.kind == "summary"]
        assert len(steps) + sum(counts) == len(recipe)
    print(
        "\nPASS criterion 5: 10-step run collapses to one summary (count 10) with a "
        "10-step detail file; step counts conserved over the random corpus"
    )


def test_criterion_6_determinism_goldens(menus_recipe):
    linear = build_linear(menus_recipe)
    parallel = build_parallel(menus_recipe)
    cases = [
        (linear, "combined", "dot", "menus_linear_combined.dot"),
        (linear, "data", "dot", "menus_linear_data.dot"),
        (parallel, "combined", "dot", "menus_parallel_combined.dot"),
        (parallel, "process", "dot", "menus_parallel_process.dot"),
        (parallel, "data", "dot", "menus_parallel_data.dot"),
        (linear, "combined", "yw", "menus_linear_combined.yw"),
        (parallel, "combined", "yw", "menus_parallel_combined.yw"),
    ]
    for model, view, fmt, golden_name in cases:
        if fmt == "dot":
            first, second = emit_dot(model, view), emit_dot(model, view)
            parse_dot(first)  # grammar check by the independent parser
        else:
            first, second = emit_yw(model, view, name="menus"), emit_yw(model, view, name="menus")
        assert first == second
        assert first == (GOLDEN / golden_name).read_text(encoding="utf-8")
    print(
        "\nPASS criterion 6: DOT and YW emissions are byte-identical across runs, "
        "match the committed goldens, and parse under the DOT grammar"
    )


def test_criterion_7_schema_trace_agreement(corpus):
    for recipe, table in corpus:
        final = execute(recipe, table).labels
        traced = trace_effects(recipe, SchemaState.from_labels(table.labels))[1][-1]
        assert final == list(traced.labels())
    print(
        f"\nPASS criterion 7: interpreter final labels equal the traced schema's, left to right, "
        f"on all {CORPUS_SIZE} corpus recipes"
    )
