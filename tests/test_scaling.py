"""Scaling gates: a family of recipes built at n and 4n steps or terms must
grow its conversion's cost about linearly.

Each family runs through ``cli.run`` to a file at both sizes. The gate
compares deterministic measures: the ``tracemalloc`` peak of the
conversion, the output bytes, and the parallel model's node and edge
counts. Linear growth gives a ratio of about 4 and quadratic growth 16, so
each ratio must be at most 6. Times are printed, not asserted: they vary
too much between runs on a shared host.
"""

from __future__ import annotations

import io
import json
import time
import tracemalloc

import pytest

from refineflow import build_parallel, infer_initial_schema, parse_recipe, trace_effects
from refineflow.cli import RunConfig, run

MAX_RATIO = 6


def _transform_chain(n: int) -> list[dict]:
    """n transforms of one column: the dependency sweep's longest chain."""
    return [
        {"op": "core/text-transform", "columnName": "a", "expression": "value.trim()"}
        for _ in range(n)
    ]


def _wide_addition(n: int) -> list[dict]:
    """One addition whose expression names n columns."""
    expression = " + ".join(f'cells["c{k}"].value' for k in range(n))
    return [
        {"op": "core/column-addition", "baseColumnName": "c0", "newColumnName": "sum",
         "expression": expression}
    ]


def _deep_parentheses(n: int) -> list[dict]:
    """One transform whose expression nests ``value`` in n parentheses."""
    return [{"op": "core/text-transform", "columnName": "a", "expression": "(" * n + "value" + ")" * n}]


def _long_reorder(n: int) -> list[dict]:
    """One reorder listing n labels: the trace resolves n labels in one step."""
    return [{"op": "core/column-reorder", "columnNames": [f"c{k}" for k in range(n)]}]


FAMILIES = {
    "long-reorder": (_long_reorder, 2500),
    "transform-chain": (_transform_chain, 200),
    "wide-addition": (_wide_addition, 200),
    "deep-parentheses": (_deep_parentheses, 2000),
}


def _measure(entries: list[dict], tmp_path) -> tuple[dict[str, int], float]:
    text = json.dumps(entries)
    recipe_path, out = tmp_path / "recipe.json", tmp_path / "model.dot"
    recipe_path.write_text(text, encoding="utf-8")
    start = time.perf_counter()
    tracemalloc.start()
    try:
        status = run(RunConfig(str(recipe_path), str(out)), stderr=io.StringIO())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    elapsed = time.perf_counter() - start
    assert status == 0
    recipe = parse_recipe(text)
    initial = infer_initial_schema(recipe)
    model = build_parallel(recipe, trace_effects(recipe, initial)[0], initial)
    measures = {
        "tracemalloc peak": peak,
        "output bytes": out.stat().st_size,
        "nodes": len(model.nodes),
        "edges": len(model.edges),
    }
    return measures, elapsed


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_grows_linearly(tmp_path, family):
    build, n = FAMILIES[family]
    small, small_s = _measure(build(n), tmp_path)
    large, large_s = _measure(build(4 * n), tmp_path)
    print(f"{family}: n={n} {small_s:.3f} s, 4n={4 * n} {large_s:.3f} s")
    ratios = {name: large[name] / small[name] for name in small}
    assert all(ratio <= MAX_RATIO for ratio in ratios.values()), ratios
