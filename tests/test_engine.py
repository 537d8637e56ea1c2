from __future__ import annotations

import ast
import json
import random
from pathlib import Path

import pytest

import oracle
from refineflow import SchemaState, dependency_edges, expressions, parse_recipe, trace_effects
from conftest import make_recipe
from oracle import OracleError, Table, execute, execute_order
from recipegen import random_recipe, random_topological_order


def _traced_labels(recipe, table: Table) -> list[str]:
    _, schemas = trace_effects(recipe, SchemaState.from_labels(table.labels))
    return [label for _, label in schemas[-1].columns]


def test_from_csv_keeps_header_order_and_pads_rows():
    table = Table.from_csv("a,b\n1,2\n3\n")
    assert table.labels == ["a", "b"]
    assert table.rows == [["1", "2"], ["3", ""]]


def test_table_rejects_duplicate_labels_and_ragged_rows():
    with pytest.raises(OracleError) as info:
        Table(["a", "a"], [])
    assert info.value.code == "label-collision"
    with pytest.raises(ValueError):
        Table(["a", "b"], [["1"]])


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
    table = Table(["date"], [["1/2/1900"], ["solo"], ["a/b/c/d"]])
    out = execute(recipe, table)
    assert out.labels == ["date 1", "date 2", "date 3"]
    assert out.rows[0] == ["1", "2", "1900"]
    assert out.rows[1] == ["solo", "", ""]  # padded with empty strings
    assert out.rows[2] == ["a", "b", "c"]  # extras truncated


def test_identity_transform_leaves_table_unchanged():
    recipe = make_recipe(
        [{"op": "core/text-transform", "columnName": "a", "expression": "value"}]
    )
    table = Table(["a"], [["x"], [""], [" y "]])
    out = execute(recipe, table)
    assert out == table


def test_rename_only_recipe_relabels():
    recipe = make_recipe(
        [{"op": "core/column-rename", "oldColumnName": "a", "newColumnName": "z"}]
    )
    table = Table(["a", "b"], [["1", "2"]])
    out = execute(recipe, table)
    assert out.rows == table.rows
    assert out.labels == ["z", "b"]


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
    table = Table(["a", "b"], [[" x ", "YY"]])
    out = execute(recipe, table)
    assert out.rows == [["X-yy", "YY"]]


def test_to_number_formatting():
    recipe = make_recipe(
        [{"op": "core/text-transform", "columnName": "a", "expression": "value.toNumber()"}]
    )
    table = Table(["a"], [["007"], ["1.50"], ["abc"], ["2e2"], [""]])
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
    table = Table(["a", "b"], [["2", "3"], ["x", "4"]])
    out = execute(recipe, table)
    assert out.labels == ["a", "glue", "sum", "b"]
    assert out.by_label()["sum"] == ["5", "x4"]
    assert out.by_label()["glue"] == ["23", "x4"]


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
    table = Table(["a"], [["old"], ["older"], [""], ["other"]])
    out = execute(recipe, table)
    assert [row[0] for row in out.rows] == ["new", "new", "filled", "other"]


def test_mass_edit_matches_its_key_expression():
    # The edits match the key, here another column's cell; the own column
    # is rewritten.
    recipe = make_recipe(
        [
            {
                "op": "core/mass-edit",
                "columnName": "a",
                "expression": 'grel:cells["b"].value.trim()',
                "edits": [{"from": ["x"], "to": "hit"}, {"fromBlank": True, "to": "blank"}],
            }
        ]
    )
    table = Table(["a", "b"], [["1", " x "], ["2", "x"], ["3", "y"], ["4", ""]])
    out = execute(recipe, table)
    assert out.by_label()["a"] == ["hit", "hit", "3", "blank"]
    assert out.by_label()["b"] == [" x ", "x", "y", ""]


def test_fill_down():
    recipe = make_recipe([{"op": "core/fill-down", "columnName": "a"}])
    table = Table(["a"], [[""], ["x"], [""], [""], ["y"], [""]])
    out = execute(recipe, table)
    assert [row[0] for row in out.rows] == ["", "x", "x", "x", "y", "y"]


def test_blank_down():
    recipe = make_recipe([{"op": "core/blank-down", "columnName": "a"}])
    table = Table(["a"], [["x"], ["x"], ["x"], ["y"], ["x"]])
    out = execute(recipe, table)
    assert [row[0] for row in out.rows] == ["x", "", "", "y", "x"]


def test_unsupported_op_raises():
    recipe = make_recipe([{"op": "core/row-removal"}])
    with pytest.raises(OracleError) as info:
        execute(recipe, Table(["a"], [["1"]]))
    assert info.value.code == "unsupported-op"
    assert info.value.step_index == 0


def test_opaque_expression_raises():
    recipe = make_recipe(
        [{"op": "core/text-transform", "columnName": "a", "expression": "jython:1"}]
    )
    with pytest.raises(OracleError) as info:
        execute(recipe, Table(["a"], [["1"]]))
    assert info.value.code == "expression-error"


@pytest.mark.parametrize(
    "entry, code",
    [
        ({"op": "core/text-transform", "columnName": "a"}, "expression-error"),
        ({"op": "core/mass-edit", "columnName": "a", "expression": "value"}, "unsupported-op"),
        (
            {"op": "core/mass-edit", "columnName": "a", "expression": "jython:1", "edits": []},
            "expression-error",
        ),
        (
            {"op": "core/column-split", "columnName": "a", "separator": ",", "regex": True},
            "unsupported-op",
        ),
        (
            {"op": "core/column-split", "columnName": "a", "mode": "lengths", "fieldLengths": [1]},
            "unsupported-op",
        ),
        (
            {"op": "core/text-transform", "columnName": "a", "expression": 'cells["gone"].value'},
            "unresolved-column",
        ),
        ({"op": "core/fill-down", "columnName": 7}, "unsupported-op"),
    ],
    ids=[
        "no-expression", "no-edits", "mass-edit-expression", "regex-split", "lengths-split",
        "gone-reference", "non-string-column",
    ],
)
def test_step_errors_name_their_step(entry, code):
    recipe = make_recipe([{"op": "core/blank-down", "columnName": "a"}, entry])
    with pytest.raises(OracleError) as info:
        execute(recipe, Table(["a"], [["1"]]))
    assert info.value.code == code
    assert info.value.step_index == 1


def test_rename_collision_rejected():
    recipe = make_recipe(
        [{"op": "core/column-rename", "oldColumnName": "a", "newColumnName": "b"}]
    )
    with pytest.raises(OracleError) as info:
        execute(recipe, Table(["a", "b"], [["1", "2"]]))
    assert info.value.code == "label-collision"


def test_disjoint_transforms_commute_both_orders():
    recipe = make_recipe(
        [
            {"op": "core/text-transform", "columnName": "a", "expression": "value.toUppercase()"},
            {"op": "core/text-transform", "columnName": "b", "expression": "value.trim()"},
        ]
    )
    table = Table(["a", "b"], [["x", " p "], ["y", "q"]])
    forward = execute_order(recipe, [0, 1], table)
    swapped = execute_order(recipe, [1, 0], table)
    assert forward == swapped
    assert forward.rows == [["X", "p"], ["Y", "q"]]


def test_identity_order_equals_execute(menus_recipe, menus_table):
    direct = execute(menus_recipe, menus_table)
    ordered = execute_order(menus_recipe, list(range(len(menus_recipe))), menus_table)
    assert ordered == direct


def test_invalid_order_not_a_permutation(menus_recipe, menus_table):
    with pytest.raises(OracleError) as info:
        execute_order(menus_recipe, [0, 0, 1, 2, 3, 4, 5, 6], menus_table)
    assert info.value.code == "invalid-order"


def test_invalid_order_violates_dependency(menus_recipe, menus_table):
    # The rename of "date 1" (step 1) cannot run before the split (step 0).
    order = [1, 0, 2, 3, 4, 5, 6, 7]
    with pytest.raises(OracleError) as info:
        execute_order(menus_recipe, order, menus_table)
    assert info.value.code == "invalid-order"


def test_final_schema_matches_trace(menus_recipe, menus_table):
    out = execute(menus_recipe, menus_table)
    assert out.labels == _traced_labels(menus_recipe, menus_table)


def test_execute_leaves_its_input_table_unchanged(menus_recipe, menus_table):
    before = Table(menus_table.labels, menus_table.rows)
    out = execute(menus_recipe, menus_table)
    assert menus_table == before
    assert out != before
    assert out.rows[0] is not menus_table.rows[0]


def test_by_label_ignores_column_order():
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
    base = Table(["a", "b"], [["1", "2"]])
    out = execute(recipe, base)
    assert out.labels == ["a", "n", "b"]
    assert out.by_label() == Table(["b", "n", "a"], [["2", "1", "1"]]).by_label()
    assert out.by_label() != Table(["b", "n", "a"], [["1", "1", "2"]]).by_label()


def test_random_reorderings_agree(menus_recipe, menus_table):
    rng = random.Random(7)
    effects, _ = trace_effects(menus_recipe, SchemaState.from_labels(menus_table.labels))
    pairs = dependency_edges(effects)
    baseline = execute(menus_recipe, menus_table).by_label()
    for _ in range(10):
        order = random_topological_order(len(menus_recipe), pairs, rng)
        assert execute_order(menus_recipe, order, menus_table).by_label() == baseline


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
    table = Table(["a", "c"], [["1", "x"], ["2", "y"]])
    effects, _ = trace_effects(recipe, SchemaState.from_labels(table.labels))
    assert dependency_edges(effects) == {(0, 1)}
    with pytest.raises(OracleError) as info:
        execute_order(recipe, [1, 0], table)
    assert info.value.code == "invalid-order"
    forward = execute_order(recipe, [0, 1], table)
    direct = execute(recipe, table)
    assert forward == direct
    assert direct.labels == ["b", "c", "a"]


def test_random_recipes_execute_and_match_trace():
    rng = random.Random(42)
    for _ in range(15):
        recipe, table = random_recipe(rng)
        out = execute(recipe, table)
        assert out.labels == _traced_labels(recipe, table)
        assert all(len(row) == len(out.labels) for row in out.rows)


def test_split_part_count_comes_from_the_operation_or_the_recipe():
    # No pinned count: the recipe's count for the column, else two parts.
    entry = {"op": "core/column-split", "columnName": "a", "separator": "/"}
    table = Table(["a"], [["1/2/3"]])
    assert execute(make_recipe([entry]), table).labels == ["a", "a 1", "a 2"]
    hinted = parse_recipe(json.dumps([entry]), {"a": 3})
    assert execute(hinted, table).rows == [["1/2/3", "1", "2", "3"]]
    # A pinned count wins over the recipe's, and a count past 1,000 is refused.
    pinned = parse_recipe(json.dumps([{**entry, "maxColumns": 1}]), {"a": 3})
    assert execute(pinned, table).labels == ["a", "a 1"]
    with pytest.raises(OracleError) as info:
        execute(make_recipe([{**entry, "maxColumns": 1001}]), table)
    assert info.value.code == "split-arity-too-large"
    assert info.value.step_index == 0


def test_oracle_shares_no_reading_with_the_package():
    """The oracle reads raw parameters with code of its own: it imports
    nothing of the expression analyzer and never reads a decoded step."""
    forbidden = {"expressions"} | {name for name in vars(expressions) if not name.startswith("__")}
    unread = {"Step", "steps", "gives", "error"}
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any("expressions" in alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("refineflow"):
            assert "expressions" not in node.module
            assert not (forbidden | unread) & {alias.name for alias in node.names}, ast.dump(node)
        elif isinstance(node, ast.Attribute):
            assert node.attr not in forbidden | unread, node.lineno
        elif isinstance(node, ast.Name):
            assert node.id != "Step", node.lineno
