"""The contract of the record types.

Field-only records (``SchemaState`` among them) are named tuples;
records that validate, hold lists or define ``__len__`` are slotted
``FrozenRecord`` classes. Either way:
keyword construction, immutability (a record holding a list still
refuses assignment, though the list itself can change), comparison by
value, and no mutable default shared between instances.
"""

from __future__ import annotations

import copy
import operator
import pickle

import pytest

from refineflow import (
    ColumnEffect,
    Diagnostic,
    Edge,
    ExpressionAnalysis,
    Node,
    RawOperation,
    Recipe,
    SchemaState,
    WorkflowModel,
    parse_recipe,
)
from refineflow.cli import RunConfig
from refineflow.recipe import CATALOG, EMPTY_MAPPING, FrozenDict, OpSpec, Step
from oracle import Table

# Two equal instances of every frozen record, built independently.
FROZEN = [
    lambda: RawOperation(op_id="core/fill-down", index=0, params={"columnName": "a"}),
    # Defaulted params and payloads are the shared read-only empty mapping.
    lambda: Recipe(operations=(RawOperation("core/fill-down", 0),)),
    lambda: Node("data_table", "table_0", "table_0"),
    lambda: Diagnostic("warning", "unknown-op", "text", step_index=2),
    # Decoded steps: one that reads a cell, an unknown op, one carrying its
    # error, and one built by keyword.
    lambda: parse_recipe(
        '[{"op": "core/text-transform", "columnName": "a", "expression": "cells.b.value"}]'
    ).steps[0],
    lambda: parse_recipe('[{"op": "vendor/unknown-op"}]').steps[0],
    lambda: parse_recipe(
        '[{"op": "core/column-split", "columnName": "a", "separator": ",", "maxColumns": 5000}]'
    ).steps[0],
    lambda: Step(
        op=RawOperation("core/fill-down", 0, {"columnName": "a"}),
        spec=CATALOG["core/fill-down"],
        owns=("a",),
    ),
    lambda: ExpressionAnalysis(("a",), False),
    lambda: OpSpec(params=("columnName",), own="columnName", writes_own=True),
    lambda: SchemaState(columns=((0, "a"), (1, "b"))),
    lambda: ColumnEffect(reads=frozenset({0}), writes=frozenset({0}), labels=frozenset({"a"})),
    lambda: Edge(src="step_0", dst="step_1", label="a"),
    lambda: WorkflowModel(
        [Node("step", "step_0", "fill-down", 0)], [Edge("a_v0", "step_0")], [["step_0"]]
    ),
    lambda: RunConfig(input_path="x.json", query=("upstream", "a")),
    lambda: Table(["a", "b"], [["1", "2"]]),
]


@pytest.mark.parametrize("make", FROZEN)
def test_frozen_records_refuse_assignment(make):
    record = make()
    for name in getattr(record, "_fields", ()) or record.__slots__:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1


@pytest.mark.parametrize("make", FROZEN)
def test_records_compare_and_copy_by_value(make):
    first, second = make(), make()
    assert first == second
    assert not first != second
    assert copy.copy(first) == first
    assert copy.deepcopy(first) == first
    assert pickle.loads(pickle.dumps(first)) == first
    assert repr(first) == repr(second)
    assert type(first).__name__ + "(" in repr(first)


def test_hashable_records_hash_by_value():
    # Records holding a mapping or a list are unhashable.
    for make in FROZEN:
        first, second = make(), make()
        if isinstance(first, (RawOperation, Step, Recipe, Node, WorkflowModel, RunConfig, Table)):
            with pytest.raises(TypeError):
                hash(first)
        else:
            assert hash(first) == hash(second)
            assert len({first, second}) == 1


def test_records_of_different_values_differ():
    assert SchemaState.from_labels(["a"]) != SchemaState.from_labels(["b"])
    assert Recipe((RawOperation("core/fill-down", 0),)) != Recipe()
    assert Recipe() != SchemaState(())
    assert WorkflowModel([], [], []) != WorkflowModel([], [], [["step_0"]])
    assert RunConfig("a.json") != RunConfig("b.json")


def test_raw_operation_default_params_are_not_a_shared_mutable_dict():
    first, second = RawOperation("core/row-removal", 0), RawOperation("core/row-removal", 1)
    assert first.params == {}
    with pytest.raises(TypeError):
        first.params["columnName"] = "a"
    assert second.params == {}
    assert first.params is second.params
    assert copy.deepcopy(first.params) is first.params
    assert pickle.loads(pickle.dumps(first.params)) is first.params


MUTATORS = {
    "setitem": lambda d: d.__setitem__("a", 0),
    "delitem": lambda d: d.__delitem__("a"),
    "ior": lambda d: operator.ior(d, {"a": 0}),
    "clear": lambda d: d.clear(),
    "pop": lambda d: d.pop("a", None),
    "popitem": lambda d: d.popitem(),
    "setdefault": lambda d: d.setdefault("a", 0),
    "update": lambda d: d.update(a=0),
}


@pytest.mark.parametrize("mutate", MUTATORS.values(), ids=MUTATORS)
def test_a_frozen_dict_refuses_every_mutator(mutate):
    for frozen in (FrozenDict(a=1), EMPTY_MAPPING):
        with pytest.raises(TypeError):
            mutate(frozen)
    assert FrozenDict(a=1) == {"a": 1} and EMPTY_MAPPING == {}


def test_a_frozen_dict_pickles_and_copies_by_value():
    frozen = FrozenDict(key=[1])
    for copied in (pickle.loads(pickle.dumps(frozen)), copy.copy(frozen), copy.deepcopy(frozen)):
        assert type(copied) is FrozenDict and copied == frozen and copied is not frozen
    assert copy.deepcopy(frozen)["key"] is not frozen["key"]
    assert repr(frozen) == "{'key': [1]}"


def test_run_config_default_overrides_are_the_shared_read_only_mapping():
    first, second = RunConfig(input_path="x.json"), RunConfig(input_path="y.json")
    assert first.split_arity_overrides is EMPTY_MAPPING
    assert second.split_arity_overrides is EMPTY_MAPPING
    with pytest.raises(TypeError):
        first.split_arity_overrides["a"] = 3


def test_recipe_length_and_keyword_construction():
    ops = tuple(RawOperation(op_id="core/fill-down", index=i) for i in range(3))
    assert len(Recipe(operations=ops)) == 3
    assert len(Recipe()) == 0
    assert Recipe(ops).operations == ops
    with pytest.raises(TypeError):
        Recipe(operations=ops, unknown=1)


# Every kind of step: catalog ops, an unknown op, an unused key,
# malformed parameters the trace reports, and a split that pins no count.
ODD_STEPS = """[
 {"op": "core/column-split", "columnName": "a", "separator": ",", "maxColumns": 3},
 {"op": "vendor/unknown-op", "columnName": "a"},
 {"op": "core/column-rename", "oldColumnName": "a 1", "newColumnName": 7, "extra": true},
 {"op": "core/column-reorder", "columnNames": ["a 2", null]},
 {"op": "core/column-addition", "baseColumnName": "a", "newColumnName": "b", "expression": 5},
 {"op": "core/column-split", "columnName": "b", "separator": ","}
]"""


@pytest.mark.parametrize("text", ["menus", "odd"])
def test_recipe_decodes_its_operations_however_it_is_built(menus_text, text):
    parsed = parse_recipe(menus_text if text == "menus" else ODD_STEPS)
    assert len(parsed.steps) == len(parsed.operations)
    assert [step.op for step in parsed.steps] == list(parsed.operations)
    rebuilt = Recipe(parsed.operations)
    assert rebuilt == parsed
    assert rebuilt.steps == parsed.steps
    assert Recipe(parsed.operations[1:3]).steps == parsed.steps[1:3]
    # Split hints are part of the recipe: they change its decoded steps.
    hinted = Recipe(parsed.operations, {"b": 4})
    assert hinted != parsed
    # Only the odd steps hold a split that pins no part count.
    assert (hinted.steps == parsed.steps) is (text == "menus")
    for recipe in (parsed, hinted):
        for copied in (copy.copy(recipe), copy.deepcopy(recipe), pickle.loads(pickle.dumps(recipe))):
            assert copied == recipe
            assert copied.split_arity == recipe.split_arity
            assert copied.steps == recipe.steps
    assert repr(parsed) == f"Recipe(operations={parsed.operations!r}, split_arity=EMPTY_MAPPING)"

