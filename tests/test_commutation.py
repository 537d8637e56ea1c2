"""Two-step commutation checks: exhaustive on a small alphabet, and in
context on the acceptance corpus.

Every ordered pair of steps from a small alphabet of the catalog ops the
interpreter runs, on labels ``a``, ``b`` and ``c``, is replayed on two
adversarial tables. When the recorded order runs and the model puts no
ordering pair between the two steps, the swapped order must run too and
give the same table by label. New labels collide on purpose (a rename or
an addition onto a live label, split parts, a label another step frees),
mass edits are keyed on their own or on another column, and transforms
read across columns. Pairs that the model orders although both tables
replay them the same either way are printed as its loss of precision,
not asserted.

Independence must also hold where a pair occurs: every pair of steps of a
corpus recipe that the model leaves unordered is swapped in the state the
recipe reaches just before them (Mazurkiewicz traces are equivalent
exactly when they differ by swaps of adjacent independent steps).
"""

from __future__ import annotations

import time

from refineflow import SchemaState, dependency_edges, trace_effects
from conftest import make_recipe
from oracle import OracleError, Table, execute, execute_order
from recipegen import CORPUS_SIZE, acceptance_corpus

LABELS = ("a", "b", "c")


def _next(label: str) -> str:
    return LABELS[(LABELS.index(label) + 1) % len(LABELS)]


EDITS = [{"from": ["x"], "to": "hit"}, {"from": [], "fromBlank": True, "to": "x"}]


def _alphabet() -> list[dict]:
    steps = []
    for own in LABELS:
        other = _next(own)
        cross = f'grel:cells["{other}"].value + value'
        steps += [
            {"op": "core/text-transform", "columnName": own, "expression": "value.toUppercase()"},
            {"op": "core/text-transform", "columnName": own, "expression": cross},
            {"op": "core/mass-edit", "columnName": own, "expression": "value", "edits": EDITS},
            {
                "op": "core/mass-edit",
                "columnName": own,
                "expression": f'grel:cells["{other}"].value',
                "edits": EDITS,
            },
            {"op": "core/column-rename", "oldColumnName": own, "newColumnName": "d"},
            {"op": "core/column-rename", "oldColumnName": own, "newColumnName": other},
            {"op": "core/column-removal", "columnName": own},
            {"op": "core/fill-down", "columnName": own},
            {"op": "core/blank-down", "columnName": own},
            {
                "op": "core/column-addition",
                "baseColumnName": own,
                "newColumnName": "d",
                "expression": cross,
            },
            {
                "op": "core/column-addition",
                "baseColumnName": own,
                "newColumnName": other,
                "expression": "value",
            },
        ]
        for remove in (False, True):
            steps.append(
                {
                    "op": "core/column-split",
                    "columnName": own,
                    "separator": "/",
                    "maxColumns": 2,
                    "removeOriginalColumn": remove,
                }
            )
    steps.append(
        {
            "op": "core/column-addition",
            "baseColumnName": "c",
            "newColumnName": "a 1",
            "expression": "value.toUppercase()",
        }
    )
    return steps


# Blanks to fill and blank down, repeats, "x" in both cases for the
# transforms and edits to turn into each other, and separators to split.
TABLES = [
    Table(LABELS, [["x", "x", ""], ["", "X", "x/y"], ["x/y", "", "x"], ["x", "x", "x"]]),
    Table(LABELS, [["X", "", "x"], ["x", "x/y", ""], ["", "", "X"], ["x/y", "x", "x/y"]]),
]


def _replay(recipe, table: Table):
    """The table by label, or the error code when the replay fails."""
    try:
        return execute(recipe, table).by_label()
    except OracleError as exc:
        return exc.code


def test_every_unordered_pair_commutes():
    started = time.perf_counter()
    alphabet = _alphabet()
    cases = 0
    unsound = []
    ordered_pairs = lost_pairs = 0
    for first in alphabet:
        for second in alphabet:
            recipe, reversed_recipe = make_recipe([first, second]), make_recipe([second, first])
            ordered = tells_apart = False
            for table in TABLES:
                recorded = _replay(recipe, table)
                if isinstance(recorded, str):
                    continue
                cases += 1
                effects, _ = trace_effects(recipe, SchemaState.from_labels(table.labels))
                swapped = _replay(reversed_recipe, table)
                if dependency_edges(effects):
                    ordered = True
                    tells_apart = tells_apart or swapped != recorded
                elif swapped != recorded:
                    unsound.append((first, second, table.rows, swapped))
            ordered_pairs += ordered
            lost_pairs += ordered and not tells_apart
    elapsed = time.perf_counter() - started
    assert unsound == [], f"{len(unsound)} unordered (pair, table) cases replay differently: {unsound[:3]}"
    print(
        f"\n{len(alphabet)} ops, {cases} runnable (pair, table) cases, none unsound "
        f"({elapsed:.2f}s); {lost_pairs} of {ordered_pairs} ordered pairs replay the "
        "same either way on both tables"
    )


def _ancestors(step_count: int, pairs: set[tuple[int, int]]) -> list[set[int]]:
    """Each step's ancestors under the ordering pairs, which run forward."""
    ancestors: list[set[int]] = [set() for _ in range(step_count)]
    for i, j in sorted(pairs):
        ancestors[j] |= ancestors[i] | {i}
    return ancestors


def test_every_unordered_pair_commutes_in_context():
    started = time.perf_counter()
    swaps = 0
    for recipe, table in acceptance_corpus():
        effects, _ = trace_effects(recipe, SchemaState.from_labels(table.labels))
        ancestors = _ancestors(len(recipe), dependency_edges(effects))
        for j in range(len(recipe)):
            for i in range(j):
                if i in ancestors[j]:
                    continue
                context = ancestors[i] | ancestors[j]
                before = sorted(context)
                after = [k for k in range(len(recipe)) if k not in context and k not in (i, j)]
                forward = execute_order(recipe, before + [i, j] + after, table).by_label()
                swapped = execute_order(recipe, before + [j, i] + after, table).by_label()
                assert forward == swapped, (recipe, i, j)
                swaps += 1
    elapsed = time.perf_counter() - started
    assert swaps > 1000
    assert elapsed < 30.0
    print(
        f"\n{swaps} unordered pairs of {CORPUS_SIZE} corpus recipes each replay the same "
        f"table swapped in place ({elapsed:.1f}s)"
    )
