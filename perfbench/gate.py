"""Correctness checks on conversion outputs, run outside the timed region.

* menus outputs equal the goldens in ``tests/golden``;
* every DOT output parses under the independent ``tests/dotcheck.py``;
* repeated conversions of one input give identical bytes (checked by the
  caller as it converts);
* for synthetic recipes, reachability in the emitted process view equals
  the transitive closure of the brute-force ``commutes`` conflict pairs,
  or of the full recorded chain when any step is table-scoped.
"""

from __future__ import annotations

import os

from dotcheck import DotSyntaxError, parse_dot
from refineflow import effects as rf_effects
from refineflow import model as rf_model
from refineflow.recipe import parse_recipe


def _closure(n: int, pairs) -> list[int] | None:
    """Reachable set of every step as a bit mask; None if a pair points back."""
    successors: list[list[int]] = [[] for _ in range(n)]
    for i, j in pairs:
        if not 0 <= i < j < n:
            return None
        successors[i].append(j)
    reach = [0] * n
    for i in range(n - 1, -1, -1):
        mask = 0
        for j in successors[i]:
            mask |= reach[j] | (1 << j)
        reach[i] = mask
    return reach


def _step_identifiers(recipe) -> dict[str, int]:
    """Process-view node name of every step: its sanitized op name, with
    ``_<index>`` appended when several steps share that name."""
    names = [
        "".join(ch if ch.isalnum() else "_" for ch in op.op_id.rsplit("/", 1)[-1])
        for op in recipe.operations
    ]
    return {
        (name if names.count(name) == 1 else f"{name}_{index}"): index
        for index, name in enumerate(names)
    }


def expected_order(recipe_text: str) -> list[int]:
    """Closure of the pairs that must not be reordered, by brute force."""
    recipe = parse_recipe(recipe_text)
    initial = rf_effects.infer_initial_schema(recipe)
    step_effects, _ = rf_effects.trace_effects(recipe, initial)
    n = len(step_effects)
    if any(effect.table_scoped for effect in step_effects):
        pairs = [(i, i + 1) for i in range(n - 1)]
    else:
        pairs = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if not rf_model.commutes(step_effects[i], step_effects[j])
        ]
    return _closure(n, pairs)


def check_process_view(recipe_text: str, dot_text: str) -> str | None:
    """Why the process view's reachability is wrong, or None when it is right."""
    recipe = parse_recipe(recipe_text)
    identifiers = _step_identifiers(recipe)
    graph = parse_dot(dot_text)
    if set(graph.nodes) != set(identifiers):
        return "process view nodes are not the recipe's steps"
    emitted = _closure(
        len(identifiers), [(identifiers[src], identifiers[dst]) for src, dst, _ in graph.edges]
    )
    if emitted is None:
        return "process view has an edge against recorded order"
    if emitted != expected_order(recipe_text):
        return "process view reachability differs from the commutes closure"
    return None


def check_outputs(outputs: dict[str, bytes], golden_path: str | None) -> str | None:
    """Golden equality of the main file and DOT grammar of every file."""
    if not any(name.startswith("main.") for name in outputs):
        return "no main output file"
    if golden_path is not None:
        main = next(data for name, data in outputs.items() if name.startswith("main."))
        with open(golden_path, "rb") as stream:
            if main != stream.read():
                return f"differs from golden {os.path.basename(golden_path)}"
    for name, data in outputs.items():
        if name.endswith(".dot"):
            try:
                parse_dot(data.decode("utf-8"))
            except DotSyntaxError as exc:
                return f"{name} is not valid DOT: {exc}"
    return None
