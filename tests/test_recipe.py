from __future__ import annotations

import json
import random

import pytest

from refineflow import (
    EffectError,
    Recipe,
    RecipeError,
    infer_initial_schema,
    parse_recipe,
    trace_effects,
    validate_recipe,
)
from refineflow.recipe import CATALOG, TABLE_SCOPED, RawOperation
from conftest import LONG_INT, make_recipe, needs_int_digit_limit


def test_parse_single_rename():
    text = '[{"op":"core/column-rename","oldColumnName":"date 2","newColumnName":"year"}]'
    recipe = parse_recipe(text)
    assert len(recipe) == 1
    op = recipe.operations[0]
    assert op.op_id == "core/column-rename"
    assert op.params["oldColumnName"] == "date 2"
    assert op.params["newColumnName"] == "year"
    assert op.index == 0


def test_parse_empty_array():
    recipe = parse_recipe("[]")
    assert len(recipe) == 0


def test_parse_missing_op_field():
    with pytest.raises(RecipeError) as info:
        parse_recipe('[{"description":"x"}]')
    assert info.value.code == "missing-op-field"
    assert info.value.step_index == 0
    assert info.value.message == 'entry 0 lacks a non-empty string "op" key'


def test_parse_missing_op_names_later_index():
    with pytest.raises(RecipeError) as info:
        parse_recipe('[{"op":"core/fill-down","columnName":"a"}, {"op": 3}]')
    assert info.value.step_index == 1


def test_parse_empty_op_string_rejected():
    with pytest.raises(RecipeError) as info:
        parse_recipe('[{"op":""}]')
    assert info.value.code == "missing-op-field"


def test_parse_non_object_entry_rejected():
    with pytest.raises(RecipeError) as info:
        parse_recipe('[42]')
    assert info.value.code == "missing-op-field"
    assert info.value.step_index == 0
    assert info.value.message == 'entry 0 is not an operation object with a string "op" key'


def test_parse_malformed_json():
    with pytest.raises(RecipeError) as info:
        parse_recipe("{not json")
    assert info.value.code == "malformed-json"


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_parse_non_json_constant_is_malformed_json(constant):
    # Python's decoder reads these by default; JSON has no such value.
    text = '[{"op":"core/mass-edit","columnName":"a","expression":"value","edits":[1,%s]}]' % constant
    with pytest.raises(RecipeError) as info:
        parse_recipe(text)
    assert info.value.code == "malformed-json"
    assert info.value.message == f"input holds {constant}, which is not JSON"


@needs_int_digit_limit
def test_parse_integer_past_the_digit_limit_is_malformed_json():
    text = '[{"op":"core/text-transform","columnName":"a","repeatCount":' + LONG_INT + "}]"
    with pytest.raises(RecipeError) as info:
        parse_recipe(text)
    assert info.value.code == "malformed-json"
    assert "\n" not in str(info.value)
    assert "Traceback" not in str(info.value)


@pytest.mark.parametrize(
    "text",
    [
        r'[{"op":"core/text-transform","columnName":"a\ud800","expression":"value.trim()"}]',
        r'[{"op":"core/fill-down","columnName":"a","\uDFFF":1}]',
        r'[{"op":"core/mass-edit","columnName":"a","edits":[{"from":["x\udc00y"],"to":"z"}]}]',
        r'[{"op":"vendor/\ude00\ud83d"}]',
    ],
)
def test_parse_lone_surrogate_escape_is_malformed_json(text):
    with pytest.raises(RecipeError) as info:
        parse_recipe(text)
    assert info.value.code == "malformed-json"
    assert "surrogate" in info.value.message


@pytest.mark.parametrize(
    "text",
    [
        '[{"op":"core/text-transform","columnName":"a\ud800","expression":"value.trim()"}]',
        '[{"op":"core/fill-down","columnName":"a","\udfff":1}]',
        '[{"op":"vendor/\ud83d\ude00"}]',  # a pair of raw surrogates is two characters
        '[{"op":"core/fill-down","columnName":"caf\u00e9"}] \ud800',
    ],
)
def test_parse_raw_lone_surrogate_is_malformed_json(text):
    with pytest.raises(RecipeError) as info:
        parse_recipe(text)
    assert info.value.code == "malformed-json"
    assert "surrogate" in info.value.message


def test_parse_non_ascii_text_still_parses():
    recipe = parse_recipe('[{"op":"core/fill-down","columnName":"caf\u00e9 \u65e5 \U0001f600"}]')
    assert recipe.operations[0].params == {"columnName": "café 日 😀"}


def test_parse_surrogate_pairs_and_escaped_backslashes_still_parse():
    recipe = parse_recipe(r'[{"op":"core/fill-down","columnName":"\ud83d\uDE00","x":"\\ud800"}]')
    assert recipe.operations[0].params == {"columnName": "😀", "x": "\\ud800"}


def test_parse_surrogate_check_survives_the_deepest_nesting():
    def message(depth: int) -> str:
        text = '[{"op":"x","v":' + "[" * depth + r'"\ud800"' + "]" * depth + "}]"
        with pytest.raises(RecipeError) as info:
            parse_recipe(text)
        assert info.value.code == "malformed-json"
        return info.value.message

    low, high = 1, 100_000  # the decoder reads ``low`` levels, and not ``high``
    while high - low > 1:
        middle = (low + high) // 2
        low, high = (low, middle) if "too deeply" in message(middle) else (middle, high)
    assert "surrogate" in message(low)


def test_parse_not_an_array():
    with pytest.raises(RecipeError) as info:
        parse_recipe('"just a string"')
    assert info.value.code == "not-an-array"


def test_parse_single_object_wrapped():
    recipe = parse_recipe('{"op":"core/column-removal","columnName":"x"}')
    assert len(recipe) == 1
    assert recipe.operations[0].op_id == "core/column-removal"


def test_parse_duplicate_keys_last_wins():
    recipe = parse_recipe('[{"op":"core/column-removal","columnName":"a","columnName":"b"}]')
    assert recipe.operations[0].params["columnName"] == "b"


def test_parse_keeps_description():
    recipe = parse_recipe('[{"op":"core/fill-down","columnName":"a","description":"Fill down"}]')
    assert recipe.operations[0].params["description"] == "Fill down"


@pytest.mark.parametrize("wrap", [True, False], ids=["array", "single-object"])
def test_params_hold_every_other_key_in_file_order(wrap):
    entry = '{"z":1,"description":"d","op":"core/fill-down","columnName":"a","b":[2]}'
    recipe = parse_recipe(f"[{entry}]" if wrap else entry)
    params = recipe.operations[0].params
    assert list(params.items()) == [("z", 1), ("description", "d"), ("columnName", "a"), ("b", [2])]
    assert "op" not in params


def _random_json_value(rng: random.Random, depth: int = 0):
    choices = ["str", "int", "float", "bool", "null"]
    if depth < 2:
        choices += ["list", "dict"]
    kind = rng.choice(choices)
    if kind == "str":
        return "".join(rng.choice("abc é中\"\\/") for _ in range(rng.randint(0, 6)))
    if kind == "int":
        return rng.randint(-1000, 1000)
    if kind == "float":
        return rng.random()
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "null":
        return None
    if kind == "list":
        return [_random_json_value(rng, depth + 1) for _ in range(rng.randint(0, 3))]
    return {
        f"k{i}": _random_json_value(rng, depth + 1) for i in range(rng.randint(0, 3))
    }


def test_parse_fuzz_total_order_preserving_and_lossless():
    """Any JSON array of objects with string op keys parses; order and all
    parameter keys survive."""
    rng = random.Random(20260810)
    for _ in range(200):
        entries = []
        for index in range(rng.randint(0, 8)):
            entry = {"op": rng.choice(["core/x", "vendor/y z", "core/text-transform"])}
            for key_index in range(rng.randint(0, 5)):
                entry[f"p{key_index}"] = _random_json_value(rng)
            entries.append(entry)
        recipe = parse_recipe(json.dumps(entries))
        assert len(recipe) == len(entries)
        for op, entry in zip(recipe.operations, entries):
            assert op.op_id == entry["op"]
            rebuilt = {"op": op.op_id, **op.params}
            assert rebuilt == entry
        assert [op.index for op in recipe.operations] == list(range(len(entries)))


def test_validate_known_op_clean():
    recipe = make_recipe([{"op": "core/column-removal", "columnName": "a"}])
    diags = validate_recipe(recipe)
    assert diags == []


def test_validate_unknown_op_warns():
    recipe = make_recipe([{"op": "vendor/exotic-op"}])
    diags = validate_recipe(recipe)
    assert len(diags) == 1
    assert diags[0].severity == "warning"
    assert diags[0].code == "unknown-op"
    assert diags[0].step_index == 0


def test_validate_empty_recipe():
    assert validate_recipe(make_recipe([])) == []


def test_validate_unused_params_info():
    recipe = make_recipe(
        [{"op": "core/fill-down", "columnName": "a", "engineConfig": {}, "description": "d"}]
    )
    diags = validate_recipe(recipe)
    assert [d.code for d in diags] == ["unused-param"]
    assert diags[0].severity == "info"
    assert "engineConfig" in diags[0].message
    assert "description" not in diags[0].message


def test_each_unused_param_finding_is_worded_once_per_op_shape():
    recipe = make_recipe([
        {"op": "core/fill-down", "columnName": "a", "x": 1},
        {"op": "core/fill-down", "columnName": "b", "x": 2},
        {"op": "core/fill-down", "x": 3, "columnName": "c"},
        {"op": "core/blank-down", "columnName": "a", "x": 1},
        {"op": "core/fill-down", "columnName": "a", "description": "d"},
    ])
    messages = [[d.message for d in step.diagnostics] for step in recipe.steps]
    assert messages[0] == ["core/fill-down parameter(s) retained but not used by the model: x"]
    assert messages[1][0] is messages[0][0]
    # Another key order is another shape, worded alike.
    assert messages[2] == messages[0]
    assert messages[3] == ["core/blank-down parameter(s) retained but not used by the model: x"]
    assert messages[4] == []
    assert [d.step_index for d in validate_recipe(recipe)] == [0, 1, 2, 3]


def test_validate_missing_param_is_error():
    # An absent key is the step's error, which the trace raises at that
    # step; validation reports no error.
    recipe = make_recipe([{"op": "core/column-rename", "oldColumnName": "a"}])
    assert validate_recipe(recipe) == []
    with pytest.raises(EffectError) as info:
        trace_effects(recipe, infer_initial_schema(recipe))
    message = "step 0 (core/column-rename) lacks required parameter 'newColumnName'"
    assert (info.value.code, info.value.message, info.value.step_index) == ("missing-param", message, 0)


def test_each_present_param_is_rendered_once_in_catalog_order():
    recipe = make_recipe(
        [
            {"op": "core/mass-edit", "edits": [{"to": "y", "from": ["x"]}], "columnName": "a",
             "engineConfig": {"mode": "row-based"}},
            {"op": "core/column-split", "columnName": "d", "maxColumns": 3, "regex": None},
            {"op": "core/row-removal", "engineConfig": {}},
        ]
    )
    edit, split, rows = recipe.steps
    assert edit.params == (("columnName", "a"), ("edits", '[{"from":["x"],"to":"y"}]'))
    assert split.params == (("columnName", "d"), ("regex", "null"), ("maxColumns", "3"))
    assert rows.params == ()


def test_a_param_nested_too_deeply_to_render_is_the_step_error():
    nested: list = []
    for _ in range(100_000):  # past the encoder's limit in every Python version
        nested = [nested]
    deep = {"columnName": "a", "expression": "value", "edits": nested}
    recipe = Recipe(
        (
            RawOperation("core/mass-edit", 0, deep),
            RawOperation("core/mass-edit", 1, {**deep, "columnName": None}),
        )
    )
    # A malformed parameter is the error that comes first within a step.
    assert [step.error for step in recipe.steps] == [
        ("malformed-json", "step 0 (core/mass-edit): input nests arrays or objects too deeply"),
        ("missing-param", "step 1 (core/mass-edit) lacks required parameter 'columnName'"),
    ]
    assert validate_recipe(recipe) == []
    with pytest.raises(EffectError) as info:
        trace_effects(recipe, infer_initial_schema(recipe))
    assert (info.value.code, info.value.step_index) == ("malformed-json", 0)



def _self_containing_list() -> list:
    edits: list = [{"from": ["x"], "to": "y"}]
    edits.append(edits)
    return edits


def _self_containing_dict() -> dict:
    edits: dict = {"from": ["x"]}
    edits["to"] = edits
    return edits


# Param values a library caller may pass that JSON cannot write, with the
# encoder's reason; parsed JSON holds none of them.
UNWRITABLE = {
    "self-containing list": (_self_containing_list, "Circular reference detected"),
    "self-containing dict": (_self_containing_dict, "Circular reference detected"),
    "set": (lambda: [{"from": {"x"}, "to": "y"}], "Object of type set is not JSON serializable"),
    "tuple key": (lambda: {("x",): "y"}, "keys must be str, int, float, bool or None, not tuple"),
    "int too long": (lambda: 10 ** len(LONG_INT), "Exceeds the limit"),
}


@pytest.mark.parametrize(
    "make, reason",
    [
        pytest.param(*case, id=name, marks=[needs_int_digit_limit] if name == "int too long" else [])
        for name, case in UNWRITABLE.items()
    ],
)
def test_a_param_json_cannot_write_is_the_step_error(make, reason):
    params = {"columnName": "a", "expression": "value", "edits": make()}
    recipe = Recipe(
        (
            RawOperation("core/mass-edit", 0, params),
            RawOperation("core/mass-edit", 1, {**params, "columnName": None}),
        )
    )
    code, message = recipe.steps[0].error
    assert code == "malformed-json"
    assert message.startswith("step 0 (core/mass-edit): a value is not JSON: ") and reason in message
    # A malformed parameter is still the error that comes first within a step.
    assert recipe.steps[1].error == (
        "missing-param", "step 1 (core/mass-edit) lacks required parameter 'columnName'"
    )
    assert validate_recipe(recipe) == []
    with pytest.raises(EffectError) as info:
        trace_effects(recipe, infer_initial_schema(recipe))
    assert (info.value.code, info.value.step_index) == ("malformed-json", 0)

@pytest.mark.parametrize("params", [None, ["columnName", "a"], "columnName"], ids=["None", "list", "str"])
def test_an_operation_whose_params_is_not_a_mapping_is_refused(params):
    # Refused before any step is decoded, by the operation's index and op id.
    operations = (RawOperation("core/fill-down", 0, {"columnName": "a"}), RawOperation("core/mass-edit", 1, params))
    with pytest.raises(TypeError) as info:
        Recipe(operations)
    kind = type(params).__name__
    assert str(info.value) == f"operation 1 (core/mass-edit): params is a {kind}, not a mapping"


def test_validate_split_arity_warning_and_hint():
    entry = {
        "op": "core/column-split",
        "columnName": "date",
        "mode": "separator",
        "separator": "/",
        "maxColumns": 0,
    }
    recipe = make_recipe([entry])
    codes = [d.code for d in validate_recipe(recipe)]
    assert "split-arity-defaulted" in codes
    codes_with_hint = [d.code for d in validate_recipe(Recipe(recipe.operations, {"date": 3}))]
    assert "split-arity-defaulted" not in codes_with_hint
    pinned = make_recipe([{**entry, "maxColumns": 3}])
    assert "split-arity-defaulted" not in [d.code for d in validate_recipe(pinned)]


_UNPINNED_SPLIT = json.dumps(
    [{"op": "core/column-split", "columnName": "d", "separator": ",", "removeOriginalColumn": True}]
)


@pytest.mark.parametrize("hint", [0, -2, "3", 2.0, True, None])
def test_split_hint_must_be_a_positive_int(hint):
    # A zero hint used to decode a split with no parts (so d just vanished),
    # and a string hint ended in a TypeError inside the decoder.
    with pytest.raises(ValueError, match="split arity"):
        parse_recipe(_UNPINNED_SPLIT, split_arity={"d": hint})
    with pytest.raises(ValueError, match="split arity"):
        Recipe((), {"unused": hint})


def test_split_hint_of_one_is_accepted():
    recipe = parse_recipe(_UNPINNED_SPLIT, split_arity={"d": 1})
    assert recipe.steps[0].gives == ("d 1",)


def test_validate_never_mutates(menus_recipe):
    before = [op.params.copy() for op in menus_recipe.operations]
    validate_recipe(menus_recipe)
    assert [op.params for op in menus_recipe.operations] == before


def test_each_step_is_decoded_once_into_labels_and_findings():
    recipe = make_recipe(
        [
            {"op": "core/column-split", "columnName": "a", "separator": ",", "fieldLengths": [1, 2]},
            {"op": "vendor/unknown-op", "columnName": "a"},
            {"op": "core/column-rename", "oldColumnName": "a 1", "newColumnName": 7, "x": 1},
            {"op": "core/column-reorder", "columnNames": ["a 2", None]},
            {"op": "core/column-addition", "baseColumnName": "a", "newColumnName": "b",
             "expression": 'cells["c"].value + value'},
            {"op": "core/text-transform", "columnName": "b", "expression": ["value"]},
            {"op": "core/column-removal", "columnName": "c"},
        ]
    )
    split, unknown, rename, reorder, addition, transform, removal = recipe.steps
    assert split.spec is CATALOG["core/column-split"]
    assert (split.owns, split.gives, split.frees, split.error) == (("a",), ("a 1", "a 2"), (), None)
    assert unknown.spec is TABLE_SCOPED and unknown.owns == ()
    assert [d.code for d in unknown.diagnostics] == ["unknown-op"]
    # A malformed label is left out; the message waits for the trace.
    assert (rename.owns, rename.gives, rename.frees) == (("a 1",), (), ("a 1",))
    assert rename.error == (
        "missing-param", "step 2 (core/column-rename): newColumnName is not a string"
    )
    assert [d.code for d in rename.diagnostics] == ["unused-param"]
    assert reorder.owns == ("a 2",)
    assert reorder.error == (
        "missing-param", "step 3 (core/column-reorder): column name parameter is not a string"
    )
    assert (addition.owns, addition.references, addition.opaque) == (("a",), ("c",), False)
    assert (addition.gives, addition.error) == (("b",), None)
    assert (transform.references, transform.opaque) == ((), True)  # not a text
    assert (removal.owns, removal.frees) == (("c",), ("c",))

