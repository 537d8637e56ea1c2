from __future__ import annotations

import random

import pytest

from refineflow import (
    EngineError,
    SchemaState,
    Table,
    dependency_edges,
    execute,
    execute_order,
    trace_effects,
)
from conftest import make_recipe
from recipegen import random_recipe, random_topological_order


def _table(header: list[str], rows: list[list[str]]) -> Table:
    return Table(SchemaState.from_labels(header), rows)


def test_from_csv_assigns_ids_in_column_order():
    table = Table.from_csv("a,b\n1,2\n3,4\n")
    assert table.schema.labels() == ("a", "b")
    assert list(table.schema.ids()) == [0, 1]
    assert table.rows == [["1", "2"], ["3", "4"]]


def test_split_separator_semantics():
    recipe = make_recipe(
        [
            {
                "op": "core/column-split",
                "columnName": "date",
                "separator": "/",
                "maxColumns": 3,
                "removeOriginalColumn": True,
            }
        ]
    )
    table = _table(["date"], [["1/2/1900"], ["solo"], ["a/b/c/d"]])
    out = execute(recipe, table)
    assert out.schema.labels() == ("date 1", "date 2", "date 3")
    assert out.rows[0] == ["1", "2", "1900"]
    assert out.rows[1] == ["solo", "", ""]  # padded with empty strings
    assert out.rows[2] == ["a", "b", "c"]  # extras truncated


def test_identity_transform_leaves_table_unchanged():
    recipe = make_recipe(
        [{"op": "core/text-transform", "columnName": "a", "expression": "value"}]
    )
    table = _table(["a"], [["x"], [""], [" y "]])
    out = execute(recipe, table)
    assert out.rows == table.rows
    assert out.schema == table.schema


def test_rename_only_recipe_relabels():
    recipe = make_recipe(
        [{"op": "core/column-rename", "oldColumnName": "a", "newColumnName": "z"}]
    )
    table = _table(["a", "b"], [["1", "2"]])
    out = execute(recipe, table)
    assert out.rows == table.rows
    assert out.schema.labels() == ("z", "b")
    assert out.schema.ids() == table.schema.ids()


def test_transform_methods_and_concatenation():
    recipe = make_recipe(
        [
            {
                "op": "core/text-transform",
                "columnName": "a",
                "expression": 'grel:value.trim().toUppercase() + "-" + cells["b"].value.toLowercase()',
            }
        ]
    )
    table = _table(["a", "b"], [[" x ", "YY"]])
    out = execute(recipe, table)
    assert out.rows == [["X-yy", "YY"]]


def test_to_number_formatting():
    recipe = make_recipe(
        [{"op": "core/text-transform", "columnName": "a", "expression": "value.toNumber()"}]
    )
    table = _table(["a"], [["007"], ["1.50"], ["abc"], ["2e2"], [""]])
    out = execute(recipe, table)
    assert [row[0] for row in out.rows] == ["7", "1.5", "abc", "200", ""]


def test_numeric_addition_vs_concatenation():
    recipe = make_recipe(
        [
            {
                "op": "core/column-addition",
                "baseColumnName": "a",
                "newColumnName": "sum",
                "expression": 'grel:value.toNumber() + cells["b"].value.toNumber()',
            },
            {
                "op": "core/column-addition",
                "baseColumnName": "a",
                "newColumnName": "glue",
                "expression": 'grel:value + cells["b"].value.toNumber()',
            },
        ]
    )
    table = _table(["a", "b"], [["2", "3"], ["x", "4"]])
    out = execute(recipe, table)
    assert out.schema.labels() == ("a", "glue", "sum", "b")
    by_label = {label: i for i, (_, label) in enumerate(out.schema.columns)}
    assert [row[by_label["sum"]] for row in out.rows] == ["5", "x4"]
    assert [row[by_label["glue"]] for row in out.rows] == ["23", "x4"]


def test_mass_edit_from_to_and_blank():
    recipe = make_recipe(
        [
            {
                "op": "core/mass-edit",
                "columnName": "a",
                "expression": "value",
                "edits": [
                    {"from": ["old", "older"], "fromBlank": False, "to": "new"},
                    {"from": [], "fromBlank": True, "to": "filled"},
                ],
            }
        ]
    )
    table = _table(["a"], [["old"], ["older"], [""], ["other"]])
    out = execute(recipe, table)
    assert [row[0] for row in out.rows] == ["new", "new", "filled", "other"]


def test_fill_down():
    recipe = make_recipe([{"op": "core/fill-down", "columnName": "a"}])
    table = _table(["a"], [[""], ["x"], [""], [""], ["y"], [""]])
    out = execute(recipe, table)
    assert [row[0] for row in out.rows] == ["", "x", "x", "x", "y", "y"]


def test_blank_down():
    recipe = make_recipe([{"op": "core/blank-down", "columnName": "a"}])
    table = _table(["a"], [["x"], ["x"], ["x"], ["y"], ["x"]])
    out = execute(recipe, table)
    assert [row[0] for row in out.rows] == ["x", "", "", "y", "x"]


def test_unsupported_op_raises():
    recipe = make_recipe([{"op": "core/row-removal"}])
    with pytest.raises(EngineError) as info:
        execute(recipe, _table(["a"], [["1"]]))
    assert info.value.code == "unsupported-op"
    assert info.value.step_index == 0


def test_opaque_expression_raises():
    recipe = make_recipe(
        [{"op": "core/text-transform", "columnName": "a", "expression": "jython:1"}]
    )
    with pytest.raises(EngineError) as info:
        execute(recipe, _table(["a"], [["1"]]))
    assert info.value.code == "expression-error"


def test_rename_collision_rejected():
    recipe = make_recipe(
        [{"op": "core/column-rename", "oldColumnName": "a", "newColumnName": "b"}]
    )
    with pytest.raises(EngineError) as info:
        execute(recipe, _table(["a", "b"], [["1", "2"]]))
    assert info.value.code == "label-collision"


def test_disjoint_transforms_commute_both_orders():
    recipe = make_recipe(
        [
            {"op": "core/text-transform", "columnName": "a", "expression": "value.toUppercase()"},
            {"op": "core/text-transform", "columnName": "b", "expression": "value.trim()"},
        ]
    )
    table = _table(["a", "b"], [["x", " p "], ["y", "q"]])
    forward = execute_order(recipe, [0, 1], table)
    swapped = execute_order(recipe, [1, 0], table)
    assert forward.schema == swapped.schema
    assert forward.rows == swapped.rows
    assert forward.rows == [["X", "p"], ["Y", "q"]]


def test_identity_order_equals_execute(menus_recipe, menus_table):
    direct = execute(menus_recipe, menus_table)
    ordered = execute_order(menus_recipe, list(range(len(menus_recipe))), menus_table)
    assert ordered.schema == direct.schema
    assert ordered.rows == direct.rows


def test_invalid_order_not_a_permutation(menus_recipe, menus_table):
    with pytest.raises(EngineError) as info:
        execute_order(menus_recipe, [0, 0, 1, 2, 3, 4, 5, 6], menus_table)
    assert info.value.code == "invalid-order"


def test_invalid_order_violates_dependency(menus_recipe, menus_table):
    # The rename of "date 1" (step 1) cannot run before the split (step 0).
    order = [1, 0, 2, 3, 4, 5, 6, 7]
    with pytest.raises(EngineError) as info:
        execute_order(menus_recipe, order, menus_table)
    assert info.value.code == "invalid-order"


def test_final_schema_matches_trace(menus_recipe, menus_table):
    out = execute(menus_recipe, menus_table)
    _, schemas = trace_effects(menus_recipe, menus_table.schema)
    assert out.schema == schemas[-1]


def test_sorted_by_id_normalizes_column_order():
    recipe = make_recipe(
        [
            {
                "op": "core/column-addition",
                "baseColumnName": "a",
                "newColumnName": "n",
                "expression": "value",
            }
        ]
    )
    base = _table(["a", "b"], [["1", "2"]])
    out = execute(recipe, base).sorted_by_id()
    assert out.schema.labels() == ("a", "b", "n")
    assert out.rows == [["1", "2", "1"]]


def test_random_reorderings_agree(menus_recipe, menus_table):
    rng = random.Random(7)
    effects, _ = trace_effects(menus_recipe, menus_table.schema)
    pairs = dependency_edges(effects)
    baseline = execute(menus_recipe, menus_table).sorted_by_id()
    for _ in range(10):
        order = random_topological_order(len(menus_recipe), pairs, rng)
        result = execute_order(menus_recipe, order, menus_table).sorted_by_id()
        assert result.schema == baseline.schema
        assert result.rows == baseline.rows


def test_reorder_with_transient_label_reuse():
    """A rename frees label "a" and an addition recreates it. Replayed by
    label, the addition cannot run first: "a" is still taken, so the two
    steps are ordered."""
    recipe = make_recipe(
        [
            {"op": "core/column-rename", "oldColumnName": "a", "newColumnName": "b"},
            {
                "op": "core/column-addition",
                "baseColumnName": "c",
                "newColumnName": "a",
                "expression": "value.toUppercase()",
            },
        ]
    )
    table = _table(["a", "c"], [["1", "x"], ["2", "y"]])
    effects, _ = trace_effects(recipe, table.schema)
    assert dependency_edges(effects) == {(0, 1)}
    with pytest.raises(EngineError) as info:
        execute_order(recipe, [1, 0], table)
    assert info.value.code == "invalid-order"
    forward = execute_order(recipe, [0, 1], table)
    direct = execute(recipe, table)
    assert forward.schema == direct.schema
    assert forward.rows == direct.rows
    assert direct.schema.labels() == ("b", "c", "a")


def test_random_recipes_execute_and_match_trace():
    rng = random.Random(42)
    for _ in range(15):
        recipe, table = random_recipe(rng)
        out = execute(recipe, table)
        _, schemas = trace_effects(recipe, table.schema)
        assert out.schema == schemas[-1]
        assert all(len(row) == len(out.schema.columns) for row in out.rows)
