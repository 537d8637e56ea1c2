"""Per-operation pins: one entry per recognized op id plus one unknown op.

Several of these ops (column-move, column-reorder, the row ops, unknown
ops) appear in no fixture, so this table is their only guard. Effects are
compared in label terms over the inferred schema of a one-step recipe.
"""

from __future__ import annotations

import pytest

from refineflow import EffectError, infer_initial_schema, trace_effects, validate_recipe
from refineflow.recipe import CATALOG
from conftest import make_recipe

UNKNOWN_OP = "vendor/unknown-op"

# op id -> (params of a valid one-step recipe, inferred labels,
#           (reads, writes, creates, deletes, renamed to, table-scoped))
OPS = {
    "core/text-transform": (
        {"columnName": "a", "expression": 'value + cells["b"].value'},
        ("a", "b"),
        (("a", "b"), ("a",), (), (), (), False),
    ),
    "core/mass-edit": (
        {"columnName": "a", "expression": 'cells["b"].value', "edits": [{"from": ["x"], "to": "y"}]},
        ("a", "b"),
        (("a", "b"), ("a",), (), (), (), False),
    ),
    "core/column-rename": (
        {"oldColumnName": "a", "newColumnName": "z"},
        ("a",),
        (("a",), ("a",), (), (), ("z",), False),
    ),
    "core/column-removal": (
        {"columnName": "a"},
        ("a",),
        (("a",), (), (), ("a",), (), False),
    ),
    "core/column-split": (
        {"columnName": "a", "separator": "/", "maxColumns": 2, "removeOriginalColumn": True},
        ("a",),
        (("a",), (), ("a 1", "a 2"), ("a",), (), False),
    ),
    "core/column-addition": (
        {"baseColumnName": "a", "newColumnName": "z", "expression": 'value + cells["b"].value'},
        ("a", "b"),
        (("a", "b"), (), ("z",), (), (), False),
    ),
    "core/column-move": (
        {"columnName": "a", "index": 0},
        ("a",),
        (("a",), ("a",), (), (), (), False),
    ),
    "core/column-reorder": (
        {"columnNames": ["b", "a"]},
        ("b", "a"),
        (("b", "a"), ("b", "a"), (), (), (), False),
    ),
    "core/fill-down": ({"columnName": "a"}, ("a",), (("a",), ("a",), (), (), (), False)),
    "core/blank-down": ({"columnName": "a"}, ("a",), (("a",), ("a",), (), (), (), False)),
    "core/row-removal": ({}, (), ((), (), (), (), (), True)),
    "core/row-reorder": ({}, (), ((), (), (), (), (), True)),
    "core/row-star": ({}, (), ((), (), (), (), (), True)),
    "core/row-flag": ({}, (), ((), (), (), (), (), True)),
    UNKNOWN_OP: ({}, (), ((), (), (), (), (), True)),
}

_NOT_A_STRING = "step 0 ({op}): column name parameter is not a string"
_LACKS = "step 0 ({op}) lacks required parameter {key!r}"
_REORDER = "core/column-reorder"

# (op id, column or label param, value) -> (code, message).
BAD_LABELS = [
    (op, key, value, ("missing-param", (_LACKS if value is None else _NOT_A_STRING).format(
        op=op, key=key
    )))
    for op, key in [
        ("core/text-transform", "columnName"),
        ("core/mass-edit", "columnName"),
        ("core/column-rename", "oldColumnName"),
        ("core/column-removal", "columnName"),
        ("core/column-split", "columnName"),
        ("core/column-addition", "baseColumnName"),
        ("core/column-move", "columnName"),
        ("core/fill-down", "columnName"),
        ("core/blank-down", "columnName"),
    ]
    for value in (None, 7)
] + [
    (op, "newColumnName", None, ("missing-param", _LACKS.format(op=op, key="newColumnName")))
    for op in ("core/column-rename", "core/column-addition")
] + [
    (op, "newColumnName", 7, ("missing-param", f"step 0 ({op}): newColumnName is not a string"))
    for op in ("core/column-rename", "core/column-addition")
] + [
    (_REORDER, "columnNames", value, ("missing-param", message))
    for value, message in [
        (None, _LACKS.format(op=_REORDER, key="columnNames")),
        (7, f"step 0 ({_REORDER}): columnNames is not a list"),
        ("a", f"step 0 ({_REORDER}): columnNames is not a list"),
        ([None], _NOT_A_STRING.format(op=_REORDER)),
        ([7], _NOT_A_STRING.format(op=_REORDER)),
    ]
]


def _one_step(op_id: str, params: dict):
    recipe = make_recipe([{"op": op_id, **params}])
    return recipe, infer_initial_schema(recipe)


def test_pins_cover_the_catalog():
    assert set(OPS) == set(CATALOG) | {UNKNOWN_OP}
    assert UNKNOWN_OP not in CATALOG


@pytest.mark.parametrize("op_id", sorted(CATALOG))
def test_rule_params_are_consumed_params(op_id):
    # The catalog reference names these params; validate_recipe reports
    # any key outside spec.params as unused.
    spec = CATALOG[op_id]
    named = [spec.own, spec.new_label, spec.deletes if isinstance(spec.deletes, str) else None]
    assert {key for key in named if key is not None} <= set(spec.params)


@pytest.mark.parametrize("op_id", sorted(OPS))
def test_inferred_schema_traces_and_covers_reads(op_id):
    params, labels, expected = OPS[op_id]
    recipe, initial = _one_step(op_id, params)
    assert tuple(label for _, label in initial.columns) == labels
    (effect,), states = trace_effects(recipe, initial)
    assert effect.reads <= {cid for cid, _ in initial.columns}

    def named(ids):
        return tuple(label for cid, label in initial.columns if cid in ids)

    shape = (
        named(effect.reads),
        named(effect.writes),
        tuple(label for _, label in effect.creates),
        named(effect.deletes),
        tuple(label for _, label in effect.renames),
        effect.table_scoped,
    )
    assert shape == expected
    assert len(states) == 2


@pytest.mark.parametrize("op_id,key,value,expected", BAD_LABELS)
def test_bad_label_params(op_id, key, value, expected):
    params = {**OPS[op_id][0], key: value}
    recipe, initial = _one_step(op_id, params)
    with pytest.raises(EffectError) as info:
        trace_effects(recipe, initial)
    assert (info.value.code, info.value.message) == expected
    assert info.value.step_index == 0


@pytest.mark.parametrize("op_id", sorted(op_id for op_id, spec in CATALOG.items() if spec.own))
def test_missing_own_param_is_a_validation_error(op_id):
    # The decoder's verdict on an absent own key is the step's error, with
    # the text of a null one: the trace raises it at that step, and
    # validate_recipe reports no error.
    spec = CATALOG[op_id]
    params = {key: value for key, value in OPS[op_id][0].items() if key != spec.own}
    recipe, initial = _one_step(op_id, params)
    assert [d for d in validate_recipe(recipe) if d.severity == "error"] == []
    with pytest.raises(EffectError) as info:
        trace_effects(recipe, initial)
    expected = ("missing-param", _LACKS.format(op=op_id, key=spec.own), 0)
    assert (info.value.code, info.value.message, info.value.step_index) == expected
