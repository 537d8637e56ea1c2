"""Dataflow workflow models and diagrams from OpenRefine cleaning recipes.

Pipeline: parse an exported operation history, resolve each step's column
read/write effect, build a linear / parallel / collapsed workflow graph,
and emit it as Graphviz DOT or YesWorkflow annotations.
"""

from .effects import (
    ColumnEffect,
    ColumnId,
    SchemaState,
    infer_initial_schema,
    trace_effects,
)
from .emit import emit_dot, emit_yw
from .errors import EffectError, ModelError, RecipeError, RefineflowError
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
from .recipe import (
    Diagnostic,
    RawOperation,
    Recipe,
    catalog_reference,
    parse_recipe,
    validate_recipe,
)

__version__ = "0.1.0"

__all__ = [
    "ColumnEffect",
    "ColumnId",
    "Diagnostic",
    "Edge",
    "EffectError",
    "ExpressionAnalysis",
    "ModelError",
    "Node",
    "RawOperation",
    "Recipe",
    "RecipeError",
    "RefineflowError",
    "SchemaState",
    "WorkflowModel",
    "analyze_expression",
    "build_collapsed",
    "build_linear",
    "build_parallel",
    "catalog_reference",
    "commutes",
    "dependency_edges",
    "detail_model",
    "downstream_impact",
    "emit_dot",
    "emit_yw",
    "infer_initial_schema",
    "parse_recipe",
    "trace_effects",
    "upstream_lineage",
    "validate_recipe",
]
