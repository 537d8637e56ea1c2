"""Deterministic serialization of workflow models.

Two formats, three views each:

* Graphviz DOT (``emit_dot``) for rendering with the external ``dot`` tool.
* YesWorkflow comment annotations (``emit_yw``) for the YW toolchain.

The combined view carries steps, data, and parameters; the process view
keeps steps and their ordering constraints; the data view keeps data nodes
with edges labeled by the deriving step. Output is byte-deterministic:
node statements follow model (step/version) order and edge statements are
sorted lexicographically.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .model import DATA_KINDS, STEP_KINDS, Edge, Node, WorkflowModel, sanitize_identifier

VIEWS = ("combined", "process", "data")

STEP_FILL = "#CCFFCC"
DATA_FILL = "#FAFAD2"
PARAM_FILL = "#FFFFFF"

_NODE_ATTRS = {
    "summary": f'shape=box, style=filled, fillcolor="{STEP_FILL}", peripheries=2',
    "step": f'shape=box, style=filled, fillcolor="{STEP_FILL}"',
    "param": f'shape=box, style=filled, fillcolor="{PARAM_FILL}"',
}
_DATA_ATTRS = f'shape=box, style="rounded,filled", fillcolor="{DATA_FILL}"'


class _EdgeRoles(NamedTuple):
    """Every model edge in exactly one role: ``process`` holds the
    step-to-step edges, and ``flow``, in model order, every other one, which
    joins a step to one of its data or param nodes. ``steps`` and ``params``
    are the ids of the step and summary nodes and of the param nodes."""

    flow: list[Edge]
    process: list[Edge]
    steps: set[str]
    params: set[str]


def _edge_roles(model: WorkflowModel, view: str) -> _EdgeRoles:
    """One pass over the edges, by endpoint kind. Rejects a view not in VIEWS."""
    if view not in VIEWS:
        raise ValueError(f"unknown view {view!r}; expected one of {', '.join(VIEWS)}")
    steps = {n.id for n in model.nodes if n.kind in STEP_KINDS}
    roles = _EdgeRoles([], [], steps, {n.id for n in model.nodes if n.kind == "param"})
    for edge in model.edges:
        (roles.process if edge.src in steps and edge.dst in steps else roles.flow).append(edge)
    return roles


def _ports(roles: _EdgeRoles) -> tuple[dict[str, list[str]], ...]:
    """Each step's data inputs, param nodes and data outputs, in model order."""
    ins, params, outs = {}, {}, {}
    for src, dst, _ in roles.flow:
        if dst not in roles.steps:
            outs.setdefault(src, []).append(dst)
        else:
            (params if src in roles.params else ins).setdefault(dst, []).append(src)
    return ins, params, outs


def identifier_map(model: WorkflowModel) -> dict[str, str]:
    """Stable emission identifier per node id.

    Step and summary identifiers come from sanitized labels, and are named
    first, among themselves: a step has the same identifier in every view,
    whether or not the model holds data and param nodes. Param identifiers
    come from sanitized keys; data node ids are already unique, readable
    identifiers. Within each of the two groups, colliding identifiers get
    the step index appended; a name already taken gets "_" appended. Every
    identifier holds word characters only, so it needs no escaping inside
    DOT quotes.
    """
    steps: list[tuple[Node, str]] = []
    others: list[tuple[Node, str]] = []
    # Labels and keys repeat from step to step: each is sanitized once.
    sanitized: dict[str, str] = {}
    for node in model.nodes:
        if node.kind in STEP_KINDS:
            group, text = steps, node.label
        elif node.kind == "param":
            group, text = others, node.payload.get("key", node.label)
        else:
            others.append((node, sanitize_identifier(node.id)))
            continue
        name = sanitized.get(text)
        if name is None:
            name = sanitized[text] = sanitize_identifier(text)
        group.append((node, name))
    result: dict[str, str] = {}
    used: set[str] = set()
    for group in (steps, others):
        counts = Counter(name for _, name in group)
        for node, name in group:
            if counts[name] > 1 and node.step_index is not None:
                name = f"{name}_{node.step_index}"
            while name in used:
                name += "_"
            used.add(name)
            result[node.id] = name
    return result


def _quote(text: str) -> str:
    if '"' in text or "\\" in text or "\n" in text or "\r" in text:
        escaped = text.replace("\\", "\\\\").replace('"', '\\"')
        return '"' + escaped.replace("\n", "\\n").replace("\r", "\\r") + '"'
    return f'"{text}"'


def _component_of(model: WorkflowModel, roles: _EdgeRoles) -> dict[str, int | None]:
    """Cluster assignment, the same for every view: steps by their group,
    and every data and param node by the steps it touches; a node shared
    between groups maps to None and stays unclustered."""
    assignment: dict[str, int | None] = {}
    for index, group in enumerate(model.components):
        for node_id in group:
            assignment[node_id] = index
    for src, dst, _ in roles.flow:
        step_id, node_id = (dst, src) if dst in roles.steps else (src, dst)
        component = assignment.get(step_id)
        if component is not None and assignment.setdefault(node_id, component) != component:
            assignment[node_id] = None
    return assignment


def _view(model: WorkflowModel, view: str, roles: _EdgeRoles) -> tuple[list[Node], list[Edge]]:
    """Nodes and edges of one view. The data view has one edge per (input,
    output) pair of every step, labeled with the deriving step."""
    if view == "combined":
        return model.nodes, roles.flow
    if view == "process":
        return [n for n in model.nodes if n.kind in STEP_KINDS], roles.process
    ins, _, outs = _ports(roles)
    derived = [
        Edge(src, dst, node.label)
        for node in model.nodes
        if node.kind in STEP_KINDS
        for src in ins.get(node.id, ())
        for dst in outs.get(node.id, ())
    ]
    return [n for n in model.nodes if n.kind in DATA_KINDS], derived


def emit_dot(model: WorkflowModel, view: str, *, idents: dict[str, str] | None = None) -> str:
    """Serialize one view of a model as a Graphviz DOT digraph.

    Independent subworkflow groups are wrapped in ``cluster`` subgraphs so
    the layout keeps them visually separate. ``idents`` names the nodes
    (default: the model's own :func:`identifier_map`); the CLI passes the
    whole model's map to name a query's subgraph.
    """
    return "\n".join(_dot_lines(model, view, idents or identifier_map(model)))


def _dot_lines(model: WorkflowModel, view: str, idents: dict[str, str]) -> list[str]:
    """The digraph's lines; the identifiers die before they are joined."""
    lines = ["digraph workflow {", "rankdir=TB;"]
    edges = _node_statements(lines, model, view, idents)
    # Sorting the statements sorts by endpoints: identifiers hold word
    # characters only, which sort after '"', and no two edges of a view
    # share both endpoints.
    lines.extend(sorted(
        f'"{idents[src]}" -> "{idents[dst]}"' + (f" [label={_quote(label)}];" if label else ";")
        for src, dst, label in edges
    ))
    lines.append("}\n")
    return lines


def _node_statements(lines: list[str], model: WorkflowModel, view: str, idents: dict[str, str]) -> list[Edge]:
    """Append the view's node statements, in clusters, to ``lines``, and
    return its edges. The edge roles and the cluster assignment die on
    return, before the edge statements are made."""
    roles = _edge_roles(model, view)
    nodes, edges = _view(model, view, roles)

    def statement(node: Node) -> str:
        attrs = _NODE_ATTRS.get(node.kind, _DATA_ATTRS)
        return f'"{idents[node.id]}" [label={_quote(node.label)}, {attrs}];'

    clusters: dict[int, list[Node]] = {}
    loose = nodes
    if len(model.components) > 1:
        assignment = _component_of(model, roles)
        loose = []
        for node in nodes:
            index = assignment.get(node.id)
            if index is None:
                loose.append(node)
            else:
                clusters.setdefault(index, []).append(node)
    for index in sorted(clusters):
        lines.append(f"subgraph cluster_{index} {{")
        lines.extend(statement(node) for node in clusters[index])
        lines.append("}")
    lines.extend(statement(node) for node in loose)
    return edges


def emit_yw(
    model: WorkflowModel, view: str, name: str = "workflow", *, idents: dict[str, str] | None = None
) -> str:
    """Serialize one view of a model as YesWorkflow comment annotations.

    Each step becomes a ``@begin``/``@end`` block listing its data inputs
    and outputs; parameters appear only in the combined view. ``idents``
    is as for :func:`emit_dot`.
    """
    ins, params, outs = _ports(_edge_roles(model, view))
    idents = idents or identifier_map(model)
    node_order = {node.id: position for position, node in enumerate(model.nodes)}

    lines = [f"# @begin {sanitize_identifier(name)}"]
    steps = sorted(
        (n for n in model.nodes if n.kind in STEP_KINDS),
        key=lambda n: (n.step_index if n.step_index is not None else 0),
    )
    for step in steps:
        lines.append(f"# @begin {idents[step.id]}")
        for data_id in sorted(ins.get(step.id, ()), key=node_order.get):
            lines.append(f"# @in {idents[data_id]}")
        if view == "combined":
            for param_id in sorted(params.get(step.id, ()), key=node_order.get):
                lines.append(f"# @param {idents[param_id]}")
        for data_id in sorted(outs.get(step.id, ()), key=node_order.get):
            lines.append(f"# @out {idents[data_id]}")
        lines.append(f"# @end {idents[step.id]}")
    lines.append(f"# @end {sanitize_identifier(name)}\n")
    return "\n".join(lines)
