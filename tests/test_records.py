"""The contract of the record types.

Field-only records (``SchemaState`` among them) are named tuples;
records that validate, hold lists or define ``__len__`` are slotted
``FrozenRecord`` classes. Either way:
keyword construction, immutability (a record holding a list still
refuses assignment, though the list itself can change), comparison by
value, and no mutable default shared between instances. A conversion
builds its records through ``tuple.__new__``, which checks no field:
the last tests check that those records keep the contract, and that no
record's Python-level constructor runs per step.
"""

from __future__ import annotations

import copy
import io
import json
import operator
import pickle
import sys
from collections.abc import Mapping

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
    build_collapsed,
    build_linear,
    build_parallel,
    detail_model,
    infer_initial_schema,
    parse_recipe,
    trace_effects,
)
from refineflow.cli import RunConfig, run
from refineflow.emit import _view, _view_steps
from refineflow.model import DATA_KINDS, STEP_KINDS
from refineflow.recipe import CATALOG, EMPTY_MAPPING, FrozenDict, OpSpec, Step
from conftest import FIXTURES
from oracle import Table
from recipegen import acceptance_corpus

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
    lambda: ColumnEffect(reads=frozenset({0}), writes=frozenset({0}), changes=frozenset({0, "a"})),
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


def test_a_frozen_dict_ignores_a_second_init():
    # Payloads are shared, so a write through ``__init__`` would reach every
    # node that holds the same one.
    frozen = FrozenDict(a=1)
    frozen.__init__(b=2)
    frozen.__init__({"c": 3})
    EMPTY_MAPPING.__init__(b=2)
    assert frozen == {"a": 1} and EMPTY_MAPPING == {}
    assert repr(EMPTY_MAPPING) == "EMPTY_MAPPING"
    assert pickle.loads(pickle.dumps(EMPTY_MAPPING)) is EMPTY_MAPPING
    assert copy.copy(EMPTY_MAPPING) is EMPTY_MAPPING and copy.deepcopy(EMPTY_MAPPING) is EMPTY_MAPPING


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


# The conversion path builds records through ``tuple.__new__``, which checks
# neither the count nor the order of the fields. Each field's type, by class:
FIELD_TYPES = {
    RawOperation: (str, int, Mapping),
    Diagnostic: (str, str, str, (int, type(None))),
    Step: (RawOperation, OpSpec, tuple, tuple, bool, tuple, tuple, (tuple, type(None)), tuple, tuple),
    ColumnEffect: (frozenset, frozenset, tuple, frozenset, tuple, bool, frozenset),
    Node: (str, str, str, (int, type(None)), Mapping),
    Edge: (str, str, (str, type(None))),
}
NODE_KINDS = (*STEP_KINDS, *DATA_KINDS, "param")


def _check_record(record, cls) -> None:
    assert type(record) is cls and len(record) == len(cls._fields), record
    assert all(isinstance(value, kind) for value, kind in zip(record, FIELD_TYPES[cls])), record
    assert cls(*record) == record
    assert pickle.loads(pickle.dumps(record)) == record and copy.copy(record) == record


def _check_model(workflow: WorkflowModel) -> None:
    node_ids = {node.id for node in workflow.nodes}
    for node in workflow.nodes:
        _check_record(node, Node)
        assert node.kind in NODE_KINDS
        payload = node.payload
        assert type(payload) is FrozenDict
        before = dict(payload)
        with pytest.raises(TypeError):
            payload["key"] = "value"
        payload.__init__(key="value")
        assert payload == before
    for view in ("combined", "data"):
        for edge in _view(workflow, view, _view_steps(workflow, view))[1]:
            _check_record(edge, Edge)
            assert edge.src in node_ids and edge.dst in node_ids
    assert {edge.label for edge in workflow.edges} <= {None}


def _contract_recipes() -> list[Recipe]:
    return [
        parse_recipe((FIXTURES / "menus_recipe.json").read_text(encoding="utf-8")),
        parse_recipe((FIXTURES / "mass_edit_run.json").read_text(encoding="utf-8")),
        *(recipe for recipe, _ in acceptance_corpus()),
    ]


def test_records_built_without_their_constructor_keep_the_contract():
    payload_kinds = set()
    for recipe in _contract_recipes():
        for op in recipe.operations:
            _check_record(op, RawOperation)
        for step, op in zip(recipe.steps, recipe.operations):
            _check_record(step, Step)
            assert step.op is op
            for diagnostic in step.diagnostics:
                _check_record(diagnostic, Diagnostic)
                assert diagnostic.severity in ("warning", "info") and diagnostic.step_index == op.index
        for effect in trace_effects(recipe, infer_initial_schema(recipe))[0]:
            _check_record(effect, ColumnEffect)
        models = [build_linear(recipe)]
        for dataflow in (True, False):
            models += [build_parallel(recipe, dataflow), build_collapsed(recipe, dataflow=dataflow)]
        models += [detail_model(recipe, node) for node in models[2].nodes if node.kind == "summary"]
        for workflow in models:
            _check_model(workflow)
            payload_kinds.update(node.kind for node in workflow.nodes if "column_id" in node.payload)
            payload_kinds.update(node.payload.get("pattern", node.kind) for node in workflow.nodes)
    # Every kind of payload a builder makes was checked.
    assert {"data_column", "split", "merge", "summary", "param", "step"} <= payload_kinds


def _gate_recipe(units: int) -> list[dict]:
    """A run of three fill-downs to fold, then ``units`` times: a merging
    addition with an unused key, a split that pins no part count, a
    transform of one part and a rename of the other; then an unknown op."""
    entries = [{"op": "core/fill-down", "columnName": "a"}] * 3
    for k in range(units):
        entries += [
            {"op": "core/column-addition", "baseColumnName": "a", "newColumnName": f"n{k}",
             "expression": 'value + cells["b"].value', "onError": "set-to-blank"},
            {"op": "core/column-split", "columnName": f"n{k}", "separator": ","},
            {"op": "core/text-transform", "columnName": f"n{k} 1", "expression": "value.trim()"},
            {"op": "core/column-rename", "oldColumnName": f"n{k} 2", "newColumnName": f"r{k}"},
        ]
    return [*entries, {"op": "vendor/custom"}]


# The Python-level ``__new__`` of each record a conversion makes per step,
# node or edge.
_PYTHON_NEW = {cls.__new__.__code__ for cls in FIELD_TYPES} | {FrozenDict.__new__.__code__}


def _constructor_calls(config: RunConfig) -> int:
    calls = 0

    def profile(frame, event, arg) -> None:
        nonlocal calls
        if event == "call" and frame.f_code in _PYTHON_NEW:
            calls += 1

    sys.setprofile(profile)
    try:
        assert run(config, stderr=io.StringIO()) == 0
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize(
    "kind, view", [("parallel", "combined"), ("parallel", "process"), ("collapsed", "combined")]
)
def test_a_conversion_calls_no_record_constructor_per_step(tmp_path, kind, view):
    counts = []
    for units in (10, 40):
        path = tmp_path / f"recipe_{units}.json"
        path.write_text(json.dumps(_gate_recipe(units)), encoding="utf-8")
        config = RunConfig(str(path), str(tmp_path / f"out_{units}.dot"), model_kind=kind, view=view)
        counts.append(_constructor_calls(config))
    # Only the payloads shared per op id are left, as many at 4n as at n.
    assert counts[0] == counts[1], counts
