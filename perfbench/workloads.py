"""Workload inputs: the real fixture exports and seeded synthetic recipes.

Every input is a recipe file written into the run's work directory; the
program under test sees nothing else. The same workload name and seed
always give the same files and the same conversion set.
"""

from __future__ import annotations

import json
import os
import random
import shutil
from dataclasses import dataclass

MODELS = ("linear", "parallel", "collapsed")
VIEWS = ("combined", "process", "data")
FORMATS = ("dot", "yw")

# Menus conversions whose output must equal a committed golden file.
GOLDENS = {
    ("linear", "combined", "dot"): "menus_linear_combined.dot",
    ("linear", "data", "dot"): "menus_linear_data.dot",
    ("parallel", "combined", "dot"): "menus_parallel_combined.dot",
    ("parallel", "process", "dot"): "menus_parallel_process.dot",
    ("parallel", "data", "dot"): "menus_parallel_data.dot",
    ("linear", "combined", "yw"): "menus_linear_combined.yw",
    ("parallel", "combined", "yw"): "menus_parallel_combined.yw",
}

MENUS_QUERIES = (("upstream", "repaired_date"), ("downstream", "date_v0"))


@dataclass(frozen=True)
class Shape:
    """Size of one synthetic recipe."""

    steps: int
    columns: int


# Each long-narrow run converts one recipe of this shape. The size is fixed
# so that run-to-run differences come from the seed's choice of columns and
# op order, not from the amount of work. It keeps one conversion under a
# tenth of a second, so that a run repeats each conversion hundreds of times.
SHAPE = Shape(steps=250, columns=50)
TINY_SHAPE = Shape(steps=40, columns=8)
WORKLOADS = ("fixtures", "long-narrow")


@dataclass(frozen=True)
class Conversion:
    """One CLI conversion: a recipe file through one model, view and format."""

    key: str
    recipe_path: str
    steps: int
    model: str
    view: str
    format: str
    query: tuple[str, str] | None = None
    golden: str | None = None
    # Synthetic process views are checked against the brute-force
    # commutation closure of their recipe.
    check_order: bool = False


# Op-kind weights of the synthetic generator: column-local operations only.
# Assumed, not measured; spec.json (generator_assumptions) gives their
# effect on long-narrow.
_KIND_WEIGHTS = {
    "transform": 30,
    "mass_edit": 20,
    "fill_down": 10,
    "blank_down": 10,
    "rename": 8,
    "addition": 8,
    "split": 4,
    "removal": 10,
}

_SIMPLE_EXPRESSIONS = (
    "value.trim()",
    "value.toLowercase()",
    "value.toUppercase()",
    "value.toNumber()",
    "grel:value.toString()",
    "value.trim().toLowercase()",
)

# Outside the analyzable subset: these read every live column.
_OPAQUE_EXPRESSIONS = (
    'if(isBlank(value), "n/a", value)',
    'value.replace("-", "/")',
    "toDate(value)",
    "jython:return value.strip()",
)

# One expression in OPAQUE_EVERY is opaque and one is cross-column, an
# assumed share like the weights above. It is fixed so that every seed
# carries the same analysis cost.
OPAQUE_EVERY = 20

_ENGINE = {"facets": [], "mode": "row-based"}


def synthetic_entries(rng: random.Random, shape: Shape) -> list[dict]:
    """A schema-valid recipe of exactly ``shape.steps`` operations.

    Live columns stay between ``shape.columns`` and 1% (at least two)
    above it, so schema snapshots have nearly the same size on every seed.
    Every initial column is mentioned before any other column is reused, so
    the inferred initial schema has all of them. Labels are never reused
    after a rename or removal.
    """
    live = [f"c{k}" for k in range(shape.columns)]
    unmentioned = list(live)
    rng.shuffle(unmentioned)
    low, high = shape.columns, shape.columns + max(2, shape.columns // 100)
    fresh = 0
    expressions = 0
    kinds = list(_KIND_WEIGHTS)
    weights = list(_KIND_WEIGHTS.values())
    entries: list[dict] = []

    def target() -> str:
        return unmentioned.pop() if unmentioned else rng.choice(live)

    def expression(own: str) -> str:
        nonlocal expressions
        expressions += 1
        slot = expressions % OPAQUE_EVERY
        if slot == 0:
            return rng.choice(_OPAQUE_EXPRESSIONS)
        if slot == OPAQUE_EVERY // 2:
            other = rng.choice([label for label in live if label != own] or [own])
            return f'grel:cells["{other}"].value + "-" + value'
        return rng.choice(_SIMPLE_EXPRESSIONS)

    while len(entries) < shape.steps:
        kind = rng.choices(kinds, weights)[0]
        if kind == "removal" and len(live) <= low:
            kind = "transform"
        if kind in ("addition", "split") and len(live) >= high:
            kind = "mass_edit"
        column = target()
        if kind == "transform":
            entries.append(
                {
                    "op": "core/text-transform",
                    "engineConfig": _ENGINE,
                    "columnName": column,
                    "expression": expression(column),
                    "onError": "keep-original",
                    "repeat": False,
                    "repeatCount": 10,
                    "description": f"Text transform on cells in column {column}",
                }
            )
        elif kind == "mass_edit":
            entries.append(
                {
                    "op": "core/mass-edit",
                    "engineConfig": _ENGINE,
                    "columnName": column,
                    "expression": "value",
                    "edits": [
                        {
                            "from": [f"v{rng.randrange(100)}"],
                            "fromBlank": False,
                            "fromError": False,
                            "to": f"w{rng.randrange(100)}",
                        }
                    ],
                    "description": f"Mass edit cells in column {column}",
                }
            )
        elif kind in ("fill_down", "blank_down"):
            op = "core/fill-down" if kind == "fill_down" else "core/blank-down"
            entries.append(
                {"op": op, "engineConfig": _ENGINE, "columnName": column, "description": op}
            )
        elif kind == "rename":
            fresh += 1
            new = f"r{fresh}"
            live[live.index(column)] = new
            entries.append(
                {
                    "op": "core/column-rename",
                    "oldColumnName": column,
                    "newColumnName": new,
                    "description": f"Rename column {column} to {new}",
                }
            )
        elif kind == "addition":
            fresh += 1
            new = f"a{fresh}"
            text = expression(column)
            live.insert(live.index(column) + 1, new)
            entries.append(
                {
                    "op": "core/column-addition",
                    "engineConfig": _ENGINE,
                    "baseColumnName": column,
                    "expression": text,
                    "onError": "set-to-blank",
                    "newColumnName": new,
                    "description": f"Create column {new} based on column {column}",
                }
            )
        elif kind == "split":
            # The original is always removed, so "<label> k" is never reused.
            position = live.index(column)
            live[position : position + 1] = [f"{column} 1", f"{column} 2"]
            entries.append(
                {
                    "op": "core/column-split",
                    "engineConfig": _ENGINE,
                    "columnName": column,
                    "guessCellType": False,
                    "removeOriginalColumn": True,
                    "mode": "separator",
                    "separator": rng.choice(["/", "-", ","]),
                    "regex": False,
                    "maxColumns": 2,
                    "description": f"Split column {column} by separator",
                }
            )
        else:
            live.remove(column)
            entries.append(
                {
                    "op": "core/column-removal",
                    "columnName": column,
                    "description": f"Remove column {column}",
                }
            )
    return entries


def build_inputs(
    workload: str, seed: int, root: str, work: str, tiny: bool = False
) -> list[Conversion]:
    """Write the workload's recipe files into ``work`` and list its conversions.

    The seed picks the synthetic recipes and the order of the fixture
    conversions.
    """
    rng = random.Random(f"{workload}:{seed}")
    in_dir = os.path.join(work, "in")
    os.makedirs(in_dir, exist_ok=True)
    conversions: list[Conversion] = []

    if workload == "fixtures":
        fixtures = os.path.join(root, "tests", "fixtures")
        # Named "menus" so that YW output carries the goldens' workflow name.
        for name, source in (("menus", "menus_recipe.json"), ("mass_edit_run", "mass_edit_run.json")):
            path = os.path.join(in_dir, f"{name}.json")
            shutil.copyfile(os.path.join(fixtures, source), path)
            with open(path, encoding="utf-8") as stream:
                steps = len(json.load(stream))
            for model in MODELS:
                for view in VIEWS:
                    for fmt in FORMATS:
                        golden = GOLDENS.get((model, view, fmt)) if name == "menus" else None
                        conversions.append(
                            Conversion(f"{name}-{model}-{view}-{fmt}", path, steps, model, view, fmt, golden=golden)
                        )
            if name == "menus":
                for direction, node in MENUS_QUERIES:
                    conversions.append(
                        Conversion(
                            f"menus-query-{direction}", path, steps, "parallel", "combined", "dot",
                            query=(direction, node),
                        )
                    )
        rng.shuffle(conversions)
        return conversions

    shape = TINY_SHAPE if tiny else SHAPE
    path = os.path.join(in_dir, f"{workload}.json")
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(synthetic_entries(rng, shape), stream, indent=1)
    # The data view is left out: its edges grow with the square of the
    # columns, not with the steps whose pairwise analysis long-narrow is for.
    return [
        Conversion(
            f"{workload}-{view}", path, shape.steps, "parallel", view, "dot",
            check_order=view == "process",
        )
        for view in ("combined", "process")
    ]


def recipe_properties(recipe_paths: list[str], threshold: int) -> dict[str, float]:
    """Measured shape of a set of recipes, from the program's own effect trace.

    Opaque share counts the expressions the effect rules analyze
    (transforms and column additions). A step is foldable when it sits in a
    run of at least ``threshold`` consecutive steps with the same op id and
    the same output columns, which the collapsed model folds.
    """
    from refineflow import effects, parse_recipe
    from refineflow.expressions import analyze_expression

    steps = initial = live_max = table_scoped = expressions = opaque = foldable = 0
    for path in recipe_paths:
        with open(path, encoding="utf-8") as stream:
            recipe = parse_recipe(stream.read())
        schema = effects.infer_initial_schema(recipe)
        step_effects, schemas = effects.trace_effects(recipe, schema)
        steps += len(recipe)
        initial += len(schema.columns)
        live_max = max([live_max] + [len(state.columns) for state in schemas])
        table_scoped += sum(1 for effect in step_effects if effect.table_scoped)
        for op in recipe.operations:
            if op.op_id in ("core/text-transform", "core/column-addition") and "expression" in op.params:
                expressions += 1
                opaque += analyze_expression(str(op.params["expression"])).opaque
        run_start = 0
        for index in range(1, len(recipe) + 1):
            same = index < len(recipe) and (
                recipe.operations[index].op_id == recipe.operations[run_start].op_id
                and step_effects[index].output_ids() == step_effects[run_start].output_ids()
            )
            if not same:
                if index - run_start >= threshold:
                    foldable += index - run_start
                run_start = index
    count = len(recipe_paths)
    return {
        "recipes": count,
        "steps_per_recipe": steps / count,
        "initial_columns": initial / count,
        "max_live_columns": live_max,
        "table_scoped_share": table_scoped / steps,
        "opaque_expression_share": opaque / expressions if expressions else 0.0,
        "foldable_share": foldable / steps,
    }
