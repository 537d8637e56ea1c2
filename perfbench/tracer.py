"""In-memory spans around the public calls of each refineflow layer.

While a :class:`Tracer` is installed, every function in ``LAYER_CALLS`` is
replaced, in each ``refineflow`` module that holds it, by a wrapper that
records one span per call: name, start, end and parent span. The program's
own code does not change, and the originals come back on exit. A few counts
are read from each call's result after its span ends; the time they take is
kept apart so that it is not charged to the enclosing span.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


def _recipe_counts(args, kwargs, result) -> dict:
    return {"steps": len(result.operations)}


def _analysis_counts(args, kwargs, result) -> dict:
    return {"opaque": int(result.opaque)}


def _trace_counts(args, kwargs, result) -> dict:
    effects, schemas = result
    return {
        "schema_cells": sum(len(schema.columns) for schema in schemas),
        "table_scoped": sum(1 for effect in effects if effect.table_scoped),
    }


def _pair_counts(args, kwargs, result) -> dict:
    return {"pairs": len(result)}


def _model_counts(args, kwargs, result) -> dict:
    model = result[0] if isinstance(result, tuple) else result
    step_like = {node.id for node in model.nodes if node.kind in ("step", "summary")}
    return {
        "nodes": len(model.nodes),
        "edges": len(model.edges),
        "components": len(model.components),
        "process_edges": sum(
            1 for edge in model.edges if edge.src in step_like and edge.dst in step_like
        ),
    }


def _emit_counts(args, kwargs, result) -> dict:
    view = args[1] if len(args) > 1 else kwargs["view"]
    return {
        "view": getattr(view, "value", view),
        "bytes": len(result.encode("utf-8")),
        "dot_edges": result.count('" -> "'),
    }


# (module, public function, counts read from the result) in pipeline order.
LAYER_CALLS = (
    ("refineflow.cli", "run", None),
    ("refineflow.recipe", "parse_recipe", _recipe_counts),
    ("refineflow.recipe", "validate_recipe", None),
    ("refineflow.expressions", "analyze_expression", _analysis_counts),
    ("refineflow.effects", "infer_initial_schema", None),
    ("refineflow.effects", "trace_effects", _trace_counts),
    ("refineflow.model", "dependency_edges", _pair_counts),
    ("refineflow.model", "build_linear", _model_counts),
    ("refineflow.model", "build_parallel", _model_counts),
    ("refineflow.model", "build_collapsed", _model_counts),
    ("refineflow.model", "upstream_lineage", None),
    ("refineflow.model", "downstream_impact", None),
    ("refineflow.emit", "emit_dot", _emit_counts),
    ("refineflow.emit", "emit_yw", _emit_counts),
)

ROOT = "cli.run"


class Tracer:
    """Records spans as ``[name, start, end, parent, counts]`` lists.

    ``counts["count_s"]`` is the time spent reading a result's counts; it
    falls inside the parent span and is subtracted from the parent's self
    time.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = [
            module for name, module in sys.modules.items()
            if name == "refineflow" or name.startswith("refineflow.")
        ]
        for module_name, function_name, counter in LAYER_CALLS:
            original = getattr(sys.modules[module_name], function_name)
            span_name = f"{module_name.rsplit('.', 1)[-1]}.{function_name}"
            wrapper = self._wrap(original, span_name, counter)
            for module in modules:
                for attribute, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attribute, original))
                        setattr(module, attribute, wrapper)
        return self

    def __exit__(self, *exc_info) -> None:
        for module, attribute, original in reversed(self._patched):
            setattr(module, attribute, original)
        self._patched.clear()

    def _wrap(self, function, span_name: str, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [span_name, 0.0, 0.0, stack[-1] if stack else None, {}]
            spans.append(span)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                span[1] = start
                stack.pop()
            if counter is not None:
                counts = counter(args, kwargs, result)
                counts["count_s"] = time.perf_counter() - span[2]
                span[4] = counts
            return result

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "counts"], "spans": self.spans},
                stream,
                separators=(",", ":"),
            )


# Layer metric for the self time of each span name; emit_dot goes by view.
_SELF_METRIC = {
    "cli.run": "cli.self_s",
    "recipe.parse_recipe": "recipe.parse_s",
    "recipe.validate_recipe": "recipe.validate_s",
    "expressions.analyze_expression": "expressions.analyze_s",
    "effects.infer_initial_schema": "effects.infer_s",
    "effects.trace_effects": "effects.trace_s",
    "model.dependency_edges": "model.dependency_s",
    "model.build_linear": "model.build_s",
    "model.build_parallel": "model.build_s",
    "model.build_collapsed": "model.build_s",
    "model.upstream_lineage": "model.query_s",
    "model.downstream_impact": "model.query_s",
    "emit.emit_yw": "emit.yw_s",
}

# Layer metrics reported as a mean per traced conversion.
MEAN_METRICS = (
    "recipe.parse_s", "recipe.validate_s", "recipe.steps",
    "expressions.analyze_s", "expressions.analyzed",
    "effects.infer_s", "effects.trace_s", "effects.schema_cells", "effects.table_scoped",
    "model.dependency_s", "model.dependency_pairs", "model.build_s", "model.process_edges",
    "model.nodes", "model.edges", "model.components", "model.query_s",
    "emit.combined_s", "emit.process_s", "emit.data_s", "emit.data_edges", "emit.bytes", "emit.yw_s",
    "cli.self_s", "cli.files_written",
)

# Per-conversion counts summed from span results.
_COUNT_METRIC = {
    ("recipe.parse_recipe", "steps"): "recipe.steps",
    ("effects.trace_effects", "schema_cells"): "effects.schema_cells",
    ("effects.trace_effects", "table_scoped"): "effects.table_scoped",
    ("model.dependency_edges", "pairs"): "model.dependency_pairs",
    ("emit.emit_dot", "bytes"): "emit.bytes",
    ("emit.emit_yw", "bytes"): "emit.bytes",
}


def layer_totals(spans: list[list]) -> tuple[int, dict[str, float]]:
    """Number of root conversions and the layer metrics summed over them.

    ``ordering_pairs`` is what the model builder reduces to process edges:
    the ``dependency_edges`` pairs when the program asks for them, else the
    recorded chain of ``steps - 1`` pairs.

    A call that raised has no counts. Its time is still charged to its
    layer, except an ``emit_dot`` call's, whose view is read from its
    counts; so a failing conversion reaches the failure count instead of
    stopping the aggregation.
    """
    child_time = defaultdict(float)
    for name, start, end, parent, counts in spans:
        if parent is not None:
            child_time[parent] += end - start + counts.get("count_s", 0.0)

    totals: dict[str, float] = defaultdict(float)
    per_root: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    root_of: dict[int, int] = {}
    for index, (name, start, end, parent, counts) in enumerate(spans):
        root = index if parent is None else root_of[parent]
        root_of[index] = root
        own = end - start - child_time[index]
        if name == "emit.emit_dot":
            if "view" in counts:
                totals[f"emit.{counts['view']}_s"] += own
            if counts.get("view") == "data":
                totals["emit.data_edges"] += counts["dot_edges"]
        else:
            totals[_SELF_METRIC[name]] += own
        if name == ROOT:
            totals["cli.files_written"] += counts.get("files_written", 0)
        if name == "expressions.analyze_expression":
            totals["expressions.analyzed"] += 1
            totals["opaque"] += counts.get("opaque", 0)
        if name.startswith("model.build_"):
            for key in ("nodes", "edges", "components", "process_edges"):
                totals[f"model.{key}"] += counts.get(key, 0)
        for (span_name, key), metric in _COUNT_METRIC.items():
            if name == span_name:
                totals[metric] += counts.get(key, 0)
                per_root[root][metric] += counts.get(key, 0)
        if name == "model.dependency_edges":
            per_root[root]["dependency_calls"] += 1

    roots = [index for index, span in enumerate(spans) if span[0] == ROOT]
    for root in roots:
        own = per_root[root]
        if own["dependency_calls"]:
            totals["ordering_pairs"] += own["model.dependency_pairs"]
        else:
            totals["ordering_pairs"] += max(own["recipe.steps"] - 1, 0)
    return len(roots), totals
