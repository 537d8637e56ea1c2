"""Seeded random recipes, tables, and topological orders for property tests.

Recipes are emitted as JSON text and fed through the real parser, so every
generated case also exercises the parsing path. Generation tracks live
column labels, so the recipes are always schema-valid; the content of the
cells is adversarial instead (blanks, separators, duplicates, padding).
"""

from __future__ import annotations

import json
import random

from refineflow import Recipe, parse_recipe
from oracle import Table

CELL_POOL = [
    "",
    "a",
    "B c",
    "x/y",
    "1/2/1900",
    "3/4",
    "7",
    "007",
    "0.5",
    " padded ",
    "x-y-z",
    "q,r",
    "dup",
    "dup",
    "MiXeD",
]

EXPRESSION_TEMPLATES = [
    "value.toLowercase()",
    "value.toUppercase()",
    "value.trim()",
    "value.toNumber()",
    "grel:value.toString()",
    "value.trim().toLowercase()",
]


def _cross_expression(rng: random.Random, live: list[str]) -> str:
    first = rng.choice(live)
    if rng.random() < 0.5:
        return f'grel:cells["{first}"].value + "-" + value'
    second = rng.choice(live)
    return f'grel:cells["{first}"].value + cells["{second}"].value'


def _expression(rng: random.Random, live: list[str]) -> str:
    if rng.random() < 0.35:
        return _cross_expression(rng, live)
    return rng.choice(EXPRESSION_TEMPLATES)


def random_recipe_entries(
    rng: random.Random,
    op_count: int,
    initial_labels: list[str],
) -> list[dict]:
    """Operation objects (JSON-shaped) valid over the given starting labels."""
    live = list(initial_labels)
    freed: list[str] = []
    fresh = 0
    entries: list[dict] = []

    def fresh_label() -> str:
        # Occasionally resurrect a freed label: the dependency analysis must
        # order the step that frees a label before the one that takes it
        # back, or a reordered replay by label would collide.
        nonlocal fresh
        if freed and rng.random() < 0.3:
            return freed.pop(rng.randrange(len(freed)))
        fresh += 1
        return f"new{fresh}"

    def retire(label: str) -> None:
        freed.append(label)

    while len(entries) < op_count:
        kind = rng.choice(
            [
                "transform",
                "transform",
                "mass_edit",
                "mass_edit",
                "rename",
                "removal",
                "split",
                "addition",
                "fill_down",
                "blank_down",
            ]
        )
        if kind == "transform":
            entries.append(
                {
                    "op": "core/text-transform",
                    "columnName": rng.choice(live),
                    "expression": _expression(rng, live),
                    "onError": "keep-original",
                }
            )
        elif kind == "mass_edit":
            source = rng.sample(CELL_POOL, k=rng.randint(1, 3))
            entries.append(
                {
                    "op": "core/mass-edit",
                    "columnName": rng.choice(live),
                    "expression": "value",
                    "edits": [
                        {
                            "from": source,
                            "fromBlank": rng.random() < 0.3,
                            "fromError": False,
                            "to": rng.choice(["z", "0", "fixed", ""]),
                        }
                    ],
                }
            )
        elif kind == "rename":
            old = rng.choice(live)
            new = fresh_label()
            live.remove(old)
            live.append(new)
            retire(old)
            entries.append(
                {"op": "core/column-rename", "oldColumnName": old, "newColumnName": new}
            )
        elif kind == "removal":
            if len(live) <= 2:
                continue
            label = rng.choice(live)
            live.remove(label)
            retire(label)
            entries.append({"op": "core/column-removal", "columnName": label})
        elif kind == "split":
            if len(live) >= 9:
                continue
            label = rng.choice(live)
            arity = rng.randint(2, 3)
            parts = [f"{label} {k + 1}" for k in range(arity)]
            if any(p in live for p in parts):
                continue
            remove_original = rng.random() < 0.6
            for p in parts:
                live.append(p)
                if p in freed:
                    freed.remove(p)
            if remove_original:
                live.remove(label)
                retire(label)
            entries.append(
                {
                    "op": "core/column-split",
                    "columnName": label,
                    "mode": "separator",
                    "separator": rng.choice(["/", "-", ","]),
                    "regex": False,
                    "maxColumns": arity,
                    "removeOriginalColumn": remove_original,
                    "guessCellType": False,
                }
            )
        elif kind == "addition":
            if len(live) >= 9:
                continue
            new = fresh_label()
            entries.append(
                {
                    "op": "core/column-addition",
                    "baseColumnName": rng.choice(live),
                    "newColumnName": new,
                    "expression": _expression(rng, live),
                    "onError": "set-to-blank",
                }
            )
            live.append(new)
        elif kind == "fill_down":
            entries.append({"op": "core/fill-down", "columnName": rng.choice(live)})
        else:
            entries.append({"op": "core/blank-down", "columnName": rng.choice(live)})
    return entries


# The seeded recipe/table pairs the acceptance criteria and the dependency
# oracle share.
CORPUS_SEED = 20260810
CORPUS_SIZE = 100


def acceptance_corpus() -> list[tuple[Recipe, Table]]:
    rng = random.Random(CORPUS_SEED)
    return [random_recipe(rng) for _ in range(CORPUS_SIZE)]


def random_recipe(rng: random.Random) -> tuple[Recipe, Table]:
    """A schema-valid random recipe plus a matching random input table."""
    column_count = rng.randint(3, 6)
    labels = [f"c{k}" for k in range(column_count)]
    op_count = rng.randint(5, 15)
    entries = random_recipe_entries(rng, op_count, labels)
    recipe = parse_recipe(json.dumps(entries))
    table = random_table(rng, labels, rows=20)
    return recipe, table


def random_table(rng: random.Random, labels: list[str], rows: int = 20) -> Table:
    grid = [[rng.choice(CELL_POOL) for _ in labels] for _ in range(rows)]
    return Table(labels, grid)


def random_topological_order(
    step_count: int, pairs: set[tuple[int, int]], rng: random.Random
) -> list[int]:
    """One uniformly-perturbed topological order of the dependency DAG."""
    indegree = {i: 0 for i in range(step_count)}
    successors: dict[int, list[int]] = {i: [] for i in range(step_count)}
    for i, j in pairs:
        indegree[j] += 1
        successors[i].append(j)
    ready = [i for i in range(step_count) if indegree[i] == 0]
    order: list[int] = []
    while ready:
        node = ready.pop(rng.randrange(len(ready)))
        order.append(node)
        for successor in successors[node]:
            indegree[successor] -= 1
            if indegree[successor] == 0:
                ready.append(successor)
    assert len(order) == step_count, "dependency pairs contain a cycle"
    return order


def has_unique_topological_order(step_count: int, pairs: set[tuple[int, int]]) -> bool:
    """True when the DAG admits exactly one topological order."""
    indegree = {i: 0 for i in range(step_count)}
    successors: dict[int, list[int]] = {i: [] for i in range(step_count)}
    for i, j in pairs:
        indegree[j] += 1
        successors[i].append(j)
    ready = [i for i in range(step_count) if indegree[i] == 0]
    while ready:
        if len(ready) != 1:
            return False
        node = ready.pop()
        for successor in successors[node]:
            indegree[successor] -= 1
            if indegree[successor] == 0:
                ready.append(successor)
    return True
