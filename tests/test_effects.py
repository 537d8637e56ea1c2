from __future__ import annotations

import random
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from refineflow import (
    ColumnId,
    EffectError,
    Recipe,
    SchemaState,
    catalog_reference,
    dependency_edges,
    infer_initial_schema,
    trace_effects,
    validate_recipe,
)
from refineflow.effects import EMPTY_SET
from refineflow.recipe import MAX_SPLIT_PARTS
from conftest import make_recipe
from recipegen import acceptance_corpus, random_recipe


def _schema(*labels: str) -> SchemaState:
    return SchemaState.from_labels(labels)


def _labels(state: SchemaState) -> tuple[str, ...]:
    return tuple(label for _, label in state.columns)


def _ids(state: SchemaState) -> list[ColumnId]:
    return [cid for cid, _ in state.columns]


def _single(recipe_entry: dict):
    return make_recipe([recipe_entry]).steps[0]


MENUS_SCHEMA = _schema("date", "event", "dish_count")
MENUS_IDS = {label: cid for cid, label in MENUS_SCHEMA.columns}
MENUS_LIVE = set(MENUS_IDS.values())


def _step(recipe_entry: dict, schema: SchemaState = MENUS_SCHEMA):
    """Effect of a one-step recipe traced over ``schema``, and the schema after it."""
    (effect,), states = trace_effects(make_recipe([recipe_entry]), schema)
    return effect, states[-1]


def test_split_effect_creates_three_parts():
    effect, _ = _step(
        {
            "op": "core/column-split",
            "columnName": "date",
            "separator": "/",
            "maxColumns": 3,
            "removeOriginalColumn": True,
        }
    )
    date_id = MENUS_IDS["date"]
    assert effect.reads == {date_id}
    assert [label for _, label in effect.creates] == ["date 1", "date 2", "date 3"]
    assert effect.deletes == {date_id}
    assert len({cid for cid, _ in effect.creates}) == 3


def test_rename_effect_preserves_schema_size():
    schema = _schema("date 1", "date 2", "date 3")
    effect, after = _step(
        {"op": "core/column-rename", "oldColumnName": "date 2", "newColumnName": "month"}, schema
    )
    (old_id,) = [cid for cid, label in schema.columns if label == "date 2"]
    assert dict(effect.renames) == {old_id: "month"}
    assert effect.reads == {old_id}
    assert len(after.columns) == len(schema.columns)
    assert dict(after.columns)[old_id] == "month"
    assert _ids(after) == _ids(schema)


def test_trim_transform_is_intra_column():
    effect, _ = _step(
        {"op": "core/text-transform", "columnName": "event", "expression": "value.trim()"}
    )
    event_id = MENUS_IDS["event"]
    assert effect.reads == {event_id}
    assert effect.writes == {event_id}
    assert not effect.table_scoped


def test_transform_with_references_reads_them():
    effect, _ = _step(
        {
            "op": "core/text-transform",
            "columnName": "event",
            "expression": 'grel:cells["date"].value + value',
        }
    )
    assert effect.reads == {MENUS_IDS["event"], MENUS_IDS["date"]}


def test_opaque_expression_reads_everything():
    effect, _ = _step(
        {"op": "core/text-transform", "columnName": "event", "expression": "jython:x"}
    )
    assert effect.reads == MENUS_LIVE
    assert effect.writes == {MENUS_IDS["event"]}


def test_unknown_op_is_table_scoped():
    effect, _ = _step({"op": "vendor/exotic-op"})
    assert effect.table_scoped
    assert effect.reads == MENUS_LIVE
    assert effect.writes == MENUS_LIVE


def test_row_ops_are_table_scoped():
    for op_id in ("core/row-removal", "core/row-reorder", "core/row-star", "core/row-flag"):
        effect, _ = _step({"op": op_id})
        assert effect.table_scoped


def test_column_move_touches_only_moved_column():
    effect, after = _step({"op": "core/column-move", "columnName": "event", "index": 0})
    event_id = MENUS_IDS["event"]
    assert effect.reads == effect.writes == {event_id}
    assert not effect.table_scoped
    # Presentation-only: the schema itself is unchanged.
    assert after == MENUS_SCHEMA


def test_column_reorder_touches_listed_columns():
    effect, _ = _step({"op": "core/column-reorder", "columnNames": ["event", "date"]})
    expected = {MENUS_IDS["event"], MENUS_IDS["date"]}
    assert effect.reads == effect.writes == expected
    assert not effect.table_scoped


def test_column_reorder_unknown_label_errors():
    with pytest.raises(EffectError) as info:
        _step({"op": "core/column-reorder", "columnNames": ["ghost"]})
    assert info.value.code == "unresolved-column"


def test_unresolved_column_error():
    with pytest.raises(EffectError) as info:
        _step({"op": "core/column-removal", "columnName": "ghost"})
    assert info.value.code == "unresolved-column"
    assert "ghost" in info.value.message
    assert info.value.step_index == 0


def test_apply_split_placement():
    schema = _schema("date", "event")
    _, after = _step(
        {
            "op": "core/column-split",
            "columnName": "date",
            "separator": "/",
            "maxColumns": 3,
            "removeOriginalColumn": True,
        },
        schema,
    )
    assert _labels(after) == ("date 1", "date 2", "date 3", "event")


def test_apply_split_keeps_original_when_asked():
    schema = _schema("date", "event")
    _, after = _step(
        {
            "op": "core/column-split",
            "columnName": "date",
            "separator": "/",
            "maxColumns": 2,
            "removeOriginalColumn": False,
        },
        schema,
    )
    assert _labels(after) == ("date", "date 1", "date 2", "event")


def test_apply_addition_right_of_base():
    schema = _schema("a", "b")
    _, after = _step(
        {
            "op": "core/column-addition",
            "baseColumnName": "a",
            "newColumnName": "x",
            "expression": "value",
        },
        schema,
    )
    assert _labels(after) == ("a", "x", "b")


def test_apply_empty_effect_is_identity():
    # A step that creates, deletes and renames nothing leaves the schema as it was.
    schema = _schema("a")
    effect, after = _step({"op": "core/fill-down", "columnName": "a"}, schema)
    assert (effect.creates, effect.deletes, effect.renames) == ((), frozenset(), ())
    assert after == schema


def test_apply_rename_collision():
    schema = _schema("a", "b")
    with pytest.raises(EffectError) as info:
        _step({"op": "core/column-rename", "oldColumnName": "a", "newColumnName": "b"}, schema)
    assert info.value.code == "label-collision"


# Each step gives the label "b" while the column "b" is live.
GIVES_LIVE_LABEL = {
    "rename": {"op": "core/column-rename", "oldColumnName": "a", "newColumnName": "b"},
    "addition": {
        "op": "core/column-addition", "baseColumnName": "a", "newColumnName": "b",
        "expression": "value",
    },
}


@pytest.mark.parametrize("step", GIVES_LIVE_LABEL.values(), ids=GIVES_LIVE_LABEL.keys())
def test_trace_label_collision_names_its_step(step):
    recipe = make_recipe(
        [{"op": "core/text-transform", "columnName": "b", "expression": "value.trim()"}, step]
    )
    with pytest.raises(EffectError) as info:
        trace_effects(recipe, infer_initial_schema(recipe))
    assert info.value.code == "label-collision"
    assert info.value.step_index == 1
    assert info.value.message == "duplicate column label 'b'"


def test_split_collision_names_first_duplicate_in_column_order():
    # The split gives "a 1" before "a 2", but "a 2" comes first among the
    # columns after it: 'a 2', 'x', 'a', 'a 1', 'a 2', 'a 1'.
    split = {"op": "core/column-split", "columnName": "a", "separator": ",", "maxColumns": 2}
    with pytest.raises(EffectError) as info:
        _step(split, _schema("a 2", "x", "a", "a 1"))
    assert (info.value.code, info.value.step_index) == ("label-collision", 0)
    assert info.value.message == "duplicate column label 'a 2'"


def test_trace_menus_has_nine_states(menus_recipe, menus_trace):
    effects, schemas = menus_trace
    assert len(effects) == len(menus_recipe) == 8
    final = ((3, "day"), (6, "repaired_date"), (4, "month"), (5, "year"), (1, "event"), (2, "dish_count"))
    assert schemas == (infer_initial_schema(menus_recipe), SchemaState(final))


def test_trace_empty_recipe():
    initial = _schema("a")
    assert trace_effects(make_recipe([]), initial)[1] == (initial, initial)


def test_trace_error_names_step():
    recipe = make_recipe(
        [
            {"op": "core/text-transform", "columnName": "a", "expression": "value"},
            {"op": "core/column-removal", "columnName": "b"},
            {"op": "core/text-transform", "columnName": "b", "expression": "value"},
        ]
    )
    with pytest.raises(EffectError) as info:
        trace_effects(recipe, _schema("a", "b"))
    assert info.value.code == "unresolved-column"
    assert info.value.step_index == 2


def test_each_recipe_analyzes_each_distinct_text_once(analyzed):
    entries = [
        {"op": "core/text-transform", "columnName": f"c{j}", "expression": "value.trim()"}
        for j in range(5)
    ]
    entries.append(
        {"op": "core/column-addition", "baseColumnName": "c0", "newColumnName": "d",
         "expression": 'grel:cells["c1"].value + value'}
    )
    recipe = make_recipe(entries)
    assert sorted(analyzed) == ['grel:cells["c1"].value + value', "value.trim()"]
    # The passes read the decoded steps: validate, infer and trace analyze none.
    validate_recipe(recipe)
    trace_effects(recipe, infer_initial_schema(recipe))
    assert len(analyzed) == 2
    # Each recipe has its own memo: one built from the same operations analyzes again.
    Recipe(recipe.operations)
    assert len(analyzed) == 4


def test_repeated_text_resolves_against_its_own_schema():
    # Step 2 repeats step 0's text after the column it names was renamed:
    # the memo keeps the analysis, not the resolved id.
    recipe = make_recipe(
        [
            {"op": "core/text-transform", "columnName": "a", "expression": 'grel:cells["x"].value'},
            {"op": "core/column-rename", "oldColumnName": "x", "newColumnName": "y"},
            {"op": "core/text-transform", "columnName": "b", "expression": 'grel:cells["x"].value'},
        ]
    )
    initial = infer_initial_schema(recipe)
    assert _labels(initial) == ("a", "x", "b")
    with pytest.raises(EffectError) as info:
        trace_effects(recipe, initial)
    assert info.value.code == "unresolved-column"
    assert info.value.step_index == 2
    assert "'x'" in info.value.message


def test_output_ids_are_writes_creates_and_deletes(menus_recipe, mass_edit_recipe):
    recipes = [recipe for recipe, _ in acceptance_corpus()] + [menus_recipe, mass_edit_recipe]
    shapes = Counter()
    for recipe in recipes:
        for effect in trace_effects(recipe, infer_initial_schema(recipe))[0]:
            assert effect.output_ids() == effect.writes | effect.created_ids() | effect.deletes
            shapes[bool(effect.creates or effect.deletes)] += 1
    assert shapes[True] and shapes[False]  # both kinds of effect are checked


def test_every_empty_write_delete_and_label_set_is_the_shared_one(menus_recipe, mass_edit_recipe):
    recipes = [recipe for recipe, _ in acceptance_corpus()] + [menus_recipe, mass_edit_recipe]
    empty = Counter()
    for recipe in recipes:
        for effect in trace_effects(recipe, infer_initial_schema(recipe))[0]:
            for name in ("writes", "deletes", "labels"):
                if not getattr(effect, name):
                    assert getattr(effect, name) is EMPTY_SET, name
                    empty[name] += 1
    assert set(empty) == {"writes", "deletes", "labels"}


def test_infer_single_transform():
    recipe = make_recipe(
        [{"op": "core/text-transform", "columnName": "event", "expression": "value"}]
    )
    assert _labels(infer_initial_schema(recipe)) == ("event",)


def test_infer_menus_schema(menus_recipe):
    labels = set(_labels(infer_initial_schema(menus_recipe)))
    assert {"date", "event", "dish_count"} <= labels


def test_infer_skips_internally_created_columns():
    recipe = make_recipe(
        [
            {
                "op": "core/column-addition",
                "baseColumnName": "y",
                "newColumnName": "x",
                "expression": "value",
            },
            {"op": "core/text-transform", "columnName": "x", "expression": "value"},
        ]
    )
    schema = infer_initial_schema(recipe)
    assert _labels(schema) == ("y",)
    # Tracing over the inferred schema succeeds (minimality).
    assert trace_effects(recipe, schema)[1] == (schema, SchemaState(((0, "y"), (1, "x"))))


def test_infer_orders_expression_references_by_position():
    recipe = make_recipe(
        [
            {
                "op": "core/text-transform",
                "columnName": "own",
                "expression": 'grel:cells["b"].value + cells["a"].value',
            }
        ]
    )
    assert _labels(infer_initial_schema(recipe)) == ("own", "b", "a")


def test_static_and_hinted_split_arity():
    pinned = make_recipe([{"op": "core/column-split", "columnName": "d", "maxColumns": 4}])
    assert len(pinned.steps[0].gives) == 4
    # A count the operation pins beats a hint for its column.
    assert len(Recipe(pinned.operations, {"d": 5}).steps[0].gives) == 4
    assert len(_single(
        {"op": "core/column-split", "columnName": "d", "fieldLengths": [2, 2, 4]}
    ).gives) == 3
    loose = make_recipe([{"op": "core/column-split", "columnName": "d", "separator": "/"}])
    assert loose.steps[0].gives == ("d 1", "d 2")
    hinted = Recipe(loose.operations, {"d": 5})
    assert hinted.steps[0].gives == ("d 1", "d 2", "d 3", "d 4", "d 5")
    assert _labels(infer_initial_schema(hinted)) == ("d",)
    assert len(trace_effects(hinted, infer_initial_schema(hinted))[1][-1].columns) == 6
    # A count past the cap, pinned or hinted, gives nothing: the trace
    # raises the step's error when it reaches the step.
    over = Recipe(loose.operations, {"d": MAX_SPLIT_PARTS + 1})
    assert over.steps[0].gives == ()
    assert over.steps[0].error[0] == "split-arity-too-large"
    assert _labels(infer_initial_schema(over)) == ("d",)


def test_missing_param_raises():
    with pytest.raises(EffectError) as info:
        _step({"op": "core/column-rename", "oldColumnName": "a"}, _schema("a"))
    assert info.value.code == "missing-param"


def test_schema_rejects_duplicate_labels():
    with pytest.raises(EffectError) as info:
        trace_effects(make_recipe([]), _schema("a", "a"))
    assert (info.value.code, info.value.step_index) == ("label-collision", None)


def test_schema_rejects_duplicate_ids():
    # Two trims over one id were traced as one column under two labels, and
    # the sweep ordered the independent trims.
    recipe = make_recipe(
        [
            {"op": "core/text-transform", "columnName": label, "expression": "value.trim()"}
            for label in "ab"
        ]
    )
    with pytest.raises(EffectError) as info:
        trace_effects(recipe, SchemaState(((0, "a"), (0, "b"))))
    assert (info.value.code, info.value.step_index) == ("id-collision", None)
    assert info.value.message == "duplicate column id 0"
    with pytest.raises(EffectError) as info:
        trace_effects(make_recipe([]), SchemaState(((3, "a"), (5, "b"), (3, "c"), (5, "d"))))
    assert info.value.message == "duplicate column id 3"


def test_schema_names_first_duplicate_label_in_linear_time():
    labels = [f"c{k}" for k in range(40_000)]
    labels[-1] = "c20000"
    initial, empty = _schema(*labels), make_recipe([])
    start = time.perf_counter()
    with pytest.raises(EffectError) as info:
        trace_effects(empty, initial)
    elapsed = time.perf_counter() - start
    assert info.value.message == "duplicate column label 'c20000'"
    # About 0.01 s; counting each label's occurrences takes about 10 s.
    assert elapsed < 2


def _schema_after(recipe: Recipe, initial: SchemaState, k: int) -> SchemaState:
    """The schema after step k: the final one of tracing the first k operations."""
    return trace_effects(Recipe(recipe.operations[:k], recipe.split_arity), initial)[1][1]


def test_identity_stability_over_random_recipes():
    """Ids in state i+1 are exactly state i minus deletes plus creates."""
    rng = random.Random(101)
    for _ in range(30):
        recipe, _ = random_recipe(rng)
        initial = infer_initial_schema(recipe)
        effects = trace_effects(recipe, initial)[0]
        schemas = [_schema_after(recipe, initial, k) for k in range(len(recipe) + 1)]
        handed_out = set(_ids(initial))
        for effect, before, after in zip(effects, schemas, schemas[1:]):
            expected = Counter(cid for cid in _ids(before) if cid not in effect.deletes)
            expected.update(cid for cid, _ in effect.creates)
            assert Counter(_ids(after)) == expected
            assert handed_out.isdisjoint(effect.created_ids())
            handed_out |= effect.created_ids()


def test_conservative_fallback_reads_all_live():
    rng = random.Random(102)
    for _ in range(20):
        recipe, _ = random_recipe(rng)
        initial = infer_initial_schema(recipe)
        position = rng.randrange(len(recipe) + 1)
        live = _schema_after(recipe, initial, position)
        effect, _ = _step({"op": "vendor/mystery"}, live)
        assert effect.reads >= set(_ids(live))


def test_infer_minimality_over_random_recipes(menus_recipe, mass_edit_recipe):
    """The inferred schema suffices (tracing succeeds) and is minimal:
    some step reads each of its columns."""
    rng = random.Random(103)
    recipes = [random_recipe(rng)[0] for _ in range(30)]
    recipes += [recipe for recipe, _ in acceptance_corpus()]
    for recipe in (*recipes, menus_recipe, mass_edit_recipe):
        schema = infer_initial_schema(recipe)
        effects, states = trace_effects(recipe, schema)  # must not raise
        assert len(effects) == len(recipe)
        assert states[0] is schema
        assert set(_ids(schema)) <= frozenset().union(*(effect.reads for effect in effects))


def test_ids_never_reused():
    recipe = make_recipe(
        [
            {"op": "core/column-removal", "columnName": "b"},
            {
                "op": "core/column-addition",
                "baseColumnName": "a",
                "newColumnName": "c",
                "expression": "value",
            },
        ]
    )
    schemas = trace_effects(recipe, _schema("a", "b"))[1]
    assert schemas[-1] == SchemaState(((0, "a"), (2, "c")))
    # The split of c gets new ids, not the id of the c it deletes.
    mixed = make_recipe(
        [
            {"op": "core/text-transform", "columnName": "a", "expression": "value.trim()"},
            {"op": "core/column-rename", "oldColumnName": "a", "newColumnName": "b"},
            {"op": "core/fill-down", "columnName": "b"},
            {"op": "core/column-addition", "baseColumnName": "b", "newColumnName": "c",
             "expression": "value"},
            {"op": "core/row-removal"},
            {"op": "core/column-split", "columnName": "c", "separator": ",", "maxColumns": 2,
             "removeOriginalColumn": True},
            {"op": "core/column-reorder", "columnNames": ["c 2", "b"]},
            {"op": "core/column-removal", "columnName": "b"},
            {"op": "core/blank-down", "columnName": "c 1"},
        ]
    )
    assert trace_effects(mixed, infer_initial_schema(mixed))[1][-1] == SchemaState(((2, "c 1"), (3, "c 2")))


def test_new_ids_start_above_the_highest_initial_id():
    # A hand-built schema whose ids are neither contiguous nor in order.
    recipe = make_recipe(
        [
            {"op": "core/column-addition", "baseColumnName": "a", "newColumnName": "c",
             "expression": "value"},
            {"op": "core/column-split", "columnName": "c", "separator": ",", "maxColumns": 2,
             "removeOriginalColumn": True},
        ]
    )
    effects, states = trace_effects(recipe, SchemaState(((7, "a"), (2, "b"))))
    assert effects[0].creates == ((8, "c"),)
    assert states[-1] == SchemaState(((7, "a"), (9, "c 1"), (10, "c 2"), (2, "b")))
    for state in states:
        assert len(set(_ids(state))) == len(state.columns)


def test_created_column_never_shares_an_initial_id():
    # An addition of c, then trims of b and of c: only the trim of c
    # follows the addition, whatever ids the initial schema holds.
    recipe = make_recipe(
        [
            {"op": "core/column-addition", "baseColumnName": "a", "newColumnName": "c",
             "expression": "value"},
            {"op": "core/text-transform", "columnName": "b", "expression": "value.trim()"},
            {"op": "core/text-transform", "columnName": "c", "expression": "value.trim()"},
        ]
    )
    effects, _ = trace_effects(recipe, SchemaState(((0, "a"), (1, "b"))))
    assert sorted(dependency_edges(effects)) == [(0, 2)]


def _trim(k: int) -> dict:
    return {"op": "core/text-transform", "columnName": f"c{k % 500}", "expression": "value.trim()"}


def _rename(k: int) -> dict:
    rounds, column = divmod(k, 500)
    old = f"c{column}_{rounds}" if rounds else f"c{column}"
    new = f"c{column}_{rounds + 1}"
    return {"op": "core/column-rename", "oldColumnName": old, "newColumnName": new}


@pytest.mark.parametrize("entry,bound_mb", [(_trim, 10), (_rename, 3)], ids=["trims", "renames"])
def test_trace_memory_over_wide_schema(entry, bound_mb):
    # 2,000 steps over 500 columns. The trace keeps one running column list
    # and no per-step schema, so its peak is the effects plus one copy of
    # the columns: about 1.2 MiB for the renames, where a snapshot of the
    # list after every rename took about 9 MiB.
    recipe = make_recipe([entry(k) for k in range(2000)])
    initial = _schema(*(f"c{k}" for k in range(500)))
    tracemalloc.start()
    try:
        trace_effects(recipe, initial)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 2**20


def test_catalog_reference_matches_committed_file():
    committed = Path(__file__).parent.parent / "docs" / "operation-catalog.md"
    assert committed.read_text(encoding="utf-8") == catalog_reference()
