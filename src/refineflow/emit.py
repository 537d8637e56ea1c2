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

import enum

from .model import Edge, Node, WorkflowModel, sanitize_identifier

STEP_FILL = "#CCFFCC"
DATA_FILL = "#FAFAD2"
PARAM_FILL = "#FFFFFF"

STEP_KINDS = ("step", "summary")
DATA_KINDS = ("data_table", "data_column")

_NODE_ATTRS = {
    "summary": f'shape=box, style=filled, fillcolor="{STEP_FILL}", peripheries=2',
    "step": f'shape=box, style=filled, fillcolor="{STEP_FILL}"',
    "param": f'shape=box, style=filled, fillcolor="{PARAM_FILL}"',
}
_DATA_ATTRS = f'shape=box, style="rounded,filled", fillcolor="{DATA_FILL}"'


class ViewKind(enum.Enum):
    COMBINED = "combined"
    PROCESS = "process"
    DATA = "data"


def _as_view(view) -> ViewKind:
    if isinstance(view, ViewKind):
        return view
    return ViewKind(view)


def identifier_map(model: WorkflowModel) -> dict[str, str]:
    """Stable emission identifier per node id.

    Step, summary, and param identifiers come from sanitized labels/keys;
    colliding ones get the step index appended. Data node ids are already
    unique, readable identifiers. Every identifier holds word characters
    only, so it needs no escaping inside DOT quotes.
    """
    sanitized: dict[str, str] = {}
    base: dict[str, str] = {}
    for node in model.nodes:
        if node.kind == "param":
            text = node.payload.get("key", node.label)
        elif node.kind in STEP_KINDS:
            text = node.label
        else:
            text = node.id
        name = sanitized.get(text)
        if name is None:
            name = sanitized[text] = sanitize_identifier(text)
        base[node.id] = name
    counts: dict[str, int] = {}
    for name in base.values():
        counts[name] = counts.get(name, 0) + 1
    result: dict[str, str] = {}
    used: set[str] = set()
    for node in model.nodes:
        name = base[node.id]
        if counts[name] > 1 and node.step_index is not None:
            name = f"{name}_{node.step_index}"
        while name in used:
            name += "_"
        used.add(name)
        result[node.id] = name
    return result


def _quote(text: str) -> str:
    escaped = text.replace("\\", "\\\\").replace('"', '\\"')
    return '"' + escaped.replace("\n", "\\n").replace("\r", "\\r") + '"'


def _component_of(model: WorkflowModel, kinds: dict[str, str]) -> dict[str, int]:
    """Cluster assignment: steps by their group, data/param nodes by the
    steps they touch; nodes shared between groups stay unassigned."""
    assignment: dict[str, int] = {}
    for index, group in enumerate(model.components):
        for node_id in group:
            assignment[node_id] = index
    candidates: dict[str, set[int]] = {}
    for src, dst, _ in model.edges:
        for this, other in ((src, dst), (dst, src)):
            if kinds[this] in STEP_KINDS:
                continue
            component = assignment.get(other)
            if component is not None:
                candidates.setdefault(this, set()).add(component)
    for node_id, components in candidates.items():
        if len(components) == 1:
            assignment[node_id] = components.pop()
    return assignment


def _view_nodes(model: WorkflowModel, view: ViewKind) -> list[Node]:
    if view is ViewKind.COMBINED:
        return list(model.nodes)
    if view is ViewKind.PROCESS:
        return [n for n in model.nodes if n.kind in STEP_KINDS]
    return [n for n in model.nodes if n.kind in DATA_KINDS]


def _view_edges(model: WorkflowModel, view: ViewKind, kinds: dict[str, str]) -> list[Edge]:
    if view is not ViewKind.DATA:
        # Step-to-step edges make the process view; the rest the combined one.
        process = view is ViewKind.PROCESS
        return [
            e for e in model.edges
            if (kinds[e.src] in STEP_KINDS and kinds[e.dst] in STEP_KINDS) == process
        ]
    # Data view: one edge per (input, output) pair of every step, labeled
    # with the deriving step.
    ins: dict[str, list[str]] = {}
    outs: dict[str, list[str]] = {}
    for src, dst, _ in model.edges:
        if kinds[src] in DATA_KINDS and kinds[dst] in STEP_KINDS:
            ins.setdefault(dst, []).append(src)
        elif kinds[src] in STEP_KINDS and kinds[dst] in DATA_KINDS:
            outs.setdefault(src, []).append(dst)
    derived = []
    for node in model.nodes:
        if node.kind not in STEP_KINDS:
            continue
        for src in ins.get(node.id, ()):
            for dst in outs.get(node.id, ()):
                derived.append(Edge(src, dst, node.label))
    return derived


def emit_dot(model: WorkflowModel, view) -> str:
    """Serialize one view of a model as a Graphviz DOT digraph.

    Independent subworkflow groups are wrapped in ``cluster`` subgraphs so
    the layout keeps them visually separate.
    """
    view = _as_view(view)
    kinds = {n.id: n.kind for n in model.nodes}
    idents = identifier_map(model)
    nodes = _view_nodes(model, view)
    edges = _view_edges(model, view, kinds)

    def statement(node: Node) -> str:
        attrs = _NODE_ATTRS.get(node.kind, _DATA_ATTRS)
        return f'"{idents[node.id]}" [label={_quote(node.label)}, {attrs}];'

    lines = ["digraph workflow {", "rankdir=TB;"]
    clusters: dict[int, list[Node]] = {}
    loose = nodes
    if len(model.components) > 1:
        assignment = _component_of(model, kinds)
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

    rendered = []
    for src, dst, label in edges:
        attrs = f" [label={_quote(label)}]" if label else ""
        rendered.append((idents[src], idents[dst], label or "", attrs))
    for src, dst, _, attrs in sorted(rendered):
        lines.append(f'"{src}" -> "{dst}"{attrs};')

    lines.append("}")
    return "\n".join(lines) + "\n"


def emit_yw(model: WorkflowModel, view, name: str = "workflow") -> str:
    """Serialize one view of a model as YesWorkflow comment annotations.

    Each step becomes a ``@begin``/``@end`` block listing its data inputs
    and outputs; parameters appear only in the combined view.
    """
    view = _as_view(view)
    idents = identifier_map(model)
    node_order = {node.id: position for position, node in enumerate(model.nodes)}
    kinds = {n.id: n.kind for n in model.nodes}

    ins: dict[str, list[str]] = {}
    outs: dict[str, list[str]] = {}
    params: dict[str, list[str]] = {}
    for src, dst, _ in model.edges:
        src_kind, dst_kind = kinds[src], kinds[dst]
        if dst_kind in STEP_KINDS:
            if src_kind in DATA_KINDS:
                ins.setdefault(dst, []).append(src)
            elif src_kind == "param":
                params.setdefault(dst, []).append(src)
        elif src_kind in STEP_KINDS and dst_kind in DATA_KINDS:
            outs.setdefault(src, []).append(dst)

    lines = [f"# @begin {sanitize_identifier(name)}"]
    steps = sorted(
        (n for n in model.nodes if n.kind in STEP_KINDS),
        key=lambda n: (n.step_index if n.step_index is not None else 0),
    )
    for step in steps:
        lines.append(f"# @begin {idents[step.id]}")
        for data_id in sorted(ins.get(step.id, ()), key=node_order.get):
            lines.append(f"# @in {idents[data_id]}")
        if view is ViewKind.COMBINED:
            for param_id in sorted(params.get(step.id, ()), key=node_order.get):
                lines.append(f"# @param {idents[param_id]}")
        for data_id in sorted(outs.get(step.id, ()), key=node_order.get):
            lines.append(f"# @out {idents[data_id]}")
        lines.append(f"# @end {idents[step.id]}")
    lines.append(f"# @end {sanitize_identifier(name)}")
    return "\n".join(lines) + "\n"
