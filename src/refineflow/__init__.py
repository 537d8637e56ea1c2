"""Dataflow workflow models and diagrams from OpenRefine cleaning recipes.

Pipeline: parse an exported operation history, resolve each step's column
read/write effect, build a linear / parallel / collapsed workflow graph,
and emit it as Graphviz DOT or YesWorkflow annotations. A small reference
interpreter doubles as the oracle that reordered execution along the
parallel model preserves results.
"""

from .effects import (
    ColumnEffect,
    ColumnId,
    SchemaState,
    apply_effect,
    catalog_reference,
    effect_of,
    infer_initial_schema,
    trace_effects,
)
from .emit import emit_dot, emit_yw
from .errors import (
    EffectError,
    EngineError,
    ModelError,
    RecipeError,
    RefineflowError,
)
from .expressions import ExpressionAnalysis, analyze_expression
from .model import (
    Edge,
    Node,
    WorkflowModel,
    build_collapsed,
    build_linear,
    build_parallel,
    commutes,
    dependency_edges,
    detail_model,
    downstream_impact,
    upstream_lineage,
)
from .recipe import Diagnostic, RawOperation, Recipe, parse_recipe, validate_recipe

__version__ = "0.1.0"

# The reference interpreter (and its csv import) loads on first use: the
# converter never runs it, so importing the CLI does not pay for it.
_ENGINE_NAMES = ("Table", "execute", "execute_order")


def __getattr__(name: str):
    if name in _ENGINE_NAMES:
        from . import engine

        return getattr(engine, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ColumnEffect",
    "ColumnId",
    "Diagnostic",
    "Edge",
    "EffectError",
    "EngineError",
    "ExpressionAnalysis",
    "ModelError",
    "Node",
    "RawOperation",
    "Recipe",
    "RecipeError",
    "RefineflowError",
    "SchemaState",
    "Table",
    "WorkflowModel",
    "analyze_expression",
    "apply_effect",
    "build_collapsed",
    "build_linear",
    "build_parallel",
    "catalog_reference",
    "commutes",
    "dependency_edges",
    "detail_model",
    "downstream_impact",
    "effect_of",
    "emit_dot",
    "emit_yw",
    "execute",
    "execute_order",
    "infer_initial_schema",
    "parse_recipe",
    "trace_effects",
    "upstream_lineage",
    "validate_recipe",
]
