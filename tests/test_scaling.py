"""Scaling gates: a family of recipes built at n and 4n steps or terms must
grow its conversion's cost about linearly.

Each family runs through ``cli.run`` to a file at both sizes, in the DOT
view it names. The gate compares deterministic measures: the
``tracemalloc`` peak of the conversion, the output bytes, and the parallel
model's node and edge counts. Linear growth gives a ratio of about 4 and quadratic growth 16, so
each ratio must be at most 6. Times are printed, not asserted: they vary
too much between runs on a shared host.
"""

from __future__ import annotations

import io
import json
import time

import pytest

from refineflow import build_parallel, parse_recipe
from refineflow.cli import RunConfig, run
from conftest import traced_peak

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


def _pinned_split_chain(n: int) -> list[dict]:
    """n splits into 100 parts each: of ``a``, then of ``a 2``, ``a 3``, …
    The schema gains 100 columns a step, so one per-step copy of it would
    grow with the square of n."""
    labels = ["a"] + [f"a {k}" for k in range(2, n + 1)]
    return [
        {"op": "core/column-split", "columnName": label, "separator": ",", "maxColumns": 100}
        for label in labels
    ]


def _cycling_renames(n: int) -> list[dict]:
    """n renames cycling over n/4 columns: each column is renamed four times."""
    width = n // 4
    return [
        {"op": "core/column-rename", "oldColumnName": f"c{k % width}_{k // width}",
         "newColumnName": f"c{k % width}_{k // width + 1}"}
        for k in range(n)
    ]


# name -> (recipe of size n, n, view). Families whose cost is in the trace
# run in the DOT process view, which builds no data node to outweigh it.
FAMILIES = {
    "long-reorder": (_long_reorder, 2500, "combined"),
    "transform-chain": (_transform_chain, 200, "combined"),
    "wide-addition": (_wide_addition, 200, "combined"),
    "deep-parentheses": (_deep_parentheses, 2000, "combined"),
    "pinned-split-chain": (_pinned_split_chain, 25, "process"),
    "cycling-renames": (_cycling_renames, 400, "process"),
}


def _measure(entries: list[dict], view: str, tmp_path) -> tuple[dict[str, int], float]:
    text = json.dumps(entries)
    recipe_path, out = tmp_path / "recipe.json", tmp_path / "model.dot"
    recipe_path.write_text(text, encoding="utf-8")

    def convert() -> None:
        assert run(RunConfig(str(recipe_path), str(out), view=view), stderr=io.StringIO()) == 0

    start = time.perf_counter()
    peak = traced_peak(convert)
    elapsed = time.perf_counter() - start
    model = build_parallel(parse_recipe(text))
    measures = {
        "tracemalloc peak": peak,
        "output bytes": out.stat().st_size,
        "nodes": len(model.nodes),
        "edges": len(model.edges),
    }
    return measures, elapsed


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_grows_linearly(tmp_path, family):
    build, n, view = FAMILIES[family]
    small, small_s = _measure(build(n), view, tmp_path)
    large, large_s = _measure(build(4 * n), view, tmp_path)
    print(f"{family}: n={n} {small_s:.3f} s, 4n={4 * n} {large_s:.3f} s")
    ratios = {name: large[name] / small[name] for name in small}
    assert all(ratio <= MAX_RATIO for ratio in ratios.values()), ratios
