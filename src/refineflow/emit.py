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
from collections.abc import Iterable, Iterator
from itertools import islice
from typing import NamedTuple

from .model import DATA_KINDS, STEP_KINDS, Edge, Node, WorkflowModel, sanitize_identifier
from .recipe import _record

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
    """The view's model edges, each in one role: ``process`` holds the
    step-to-step edges, and ``flow``, in model order, every other one, which
    joins a step to one of its data or param nodes; only the combined view
    draws a param node, so only its ``flow`` holds their edges. ``steps``
    and ``params`` are the ids of the step and summary nodes and of the
    param nodes."""

    flow: list[Edge]
    process: list[Edge]
    steps: set[str]
    params: set[str]


def _edge_roles(model: WorkflowModel, view: str) -> _EdgeRoles:
    """One pass over the edges, by endpoint kind. Rejects a view not in VIEWS."""
    if view not in VIEWS:
        raise ValueError(f"unknown view {view!r}; expected one of {', '.join(VIEWS)}")
    steps = {n.id for n in model.nodes if n.kind in STEP_KINDS}
    params = {n.id for n in model.nodes if n.kind == "param"}
    roles = _EdgeRoles([], [], steps, params)
    for edge in model.edges:
        if edge.src in steps and edge.dst in steps:
            roles.process.append(edge)
        elif view == "combined" or edge.src not in params:
            roles.flow.append(edge)
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
    # The nodes of each group, and the name each would take alone, in two
    # lists rather than a pair per node. Labels and keys repeat from step to
    # step: each is sanitized once.
    steps: tuple[list[Node], list[str]] = ([], [])
    others: tuple[list[Node], list[str]] = ([], [])
    sanitized: dict[str, str] = {}
    for node in model.nodes:
        if node.kind in STEP_KINDS:
            group, text = steps, node.label
        elif node.kind == "param":
            group, text = others, node.payload.get("key", node.label)
        else:
            others[0].append(node)
            others[1].append(sanitize_identifier(node.id))
            continue
        name = sanitized.get(text)
        if name is None:
            name = sanitized[text] = sanitize_identifier(text)
        group[0].append(node)
        group[1].append(name)
    result: dict[str, str] = {}
    used: set[str] = set()
    for nodes, names in (steps, others):
        counts = Counter(names)
        for node, name in zip(nodes, names):
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
    """Cluster assignment of the nodes a view draws, the same in every view:
    steps by their group, and every data and param node by the steps it
    touches; a node shared between groups maps to None and stays
    unclustered."""
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
        _record(Edge, (src, dst, node.label))
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
    return "".join(_dot_chunks(model, view, idents or identifier_map(model)))


# Lines per chunk: a chunk's string costs little more than its text, where
# each line's string costs its text and about 50 bytes besides; and few
# lines are alive at once beside a small model's text.
_BATCH = 16


def _chunks(lines: Iterable[str]) -> Iterator[str]:
    """``lines``, each ended by a newline, joined in batches of ``_BATCH``."""
    lines = iter(lines)
    while batch := list(islice(lines, _BATCH)):
        batch.append("")
        yield "\n".join(batch)


def _drained_chunks(descending: list[str]) -> Iterator[str]:
    """The chunks of ``descending`` read from its end, so in ascending
    order; each batch leaves the list before it is joined, so its strings
    are freed once its chunk is made."""
    while descending:
        batch = descending[: -_BATCH - 1 : -1]
        del descending[-_BATCH:]
        batch.append("")
        yield "\n".join(batch)


def _dot_chunks(model: WorkflowModel, view: str, idents: dict[str, str]) -> list[str]:
    """The digraph's text in chunks; the identifiers die before they are joined."""
    chunks = ["digraph workflow {\nrankdir=TB;\n"]
    edges = _node_chunks(chunks, model, view, idents)
    # Sorting the statements sorts by endpoints: identifiers hold word
    # characters only, which sort after '"', and no two edges of a view
    # share both endpoints.
    statements = sorted((
        f'"{idents[src]}" -> "{idents[dst]}"' + (f" [label={_quote(label)}];" if label else ";")
        for src, dst, label in edges
    ), reverse=True)
    chunks.extend(_drained_chunks(statements))
    chunks.append("}\n")
    return chunks


def _node_chunks(chunks: list[str], model: WorkflowModel, view: str, idents: dict[str, str]) -> list[Edge]:
    """Append the view's node statements, in clusters, to ``chunks``, and
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

    def lines() -> Iterator[str]:
        for index in sorted(clusters):
            yield f"subgraph cluster_{index} {{"
            yield from map(statement, clusters[index])
            yield "}"
        yield from map(statement, loose)

    chunks.extend(_chunks(lines()))
    return edges


def emit_yw(
    model: WorkflowModel, view: str, name: str = "workflow", *, idents: dict[str, str] | None = None
) -> str:
    """Serialize one view of a model as YesWorkflow comment annotations.

    Each step becomes a ``@begin``/``@end`` block listing its data inputs
    and outputs; parameters appear only in the combined view. ``idents``
    is as for :func:`emit_dot`.
    """
    return "".join(_yw_chunks(model, view, sanitize_identifier(name), idents or identifier_map(model)))


def _yw_chunks(model: WorkflowModel, view: str, name: str, idents: dict[str, str]) -> list[str]:
    """The annotations in chunks; the ports, the node positions and the
    identifiers die before they are joined."""
    ins, params, outs = _ports(_edge_roles(model, view))
    # The position of each node a port names; steps are not ports.
    node_order = {
        node.id: position for position, node in enumerate(model.nodes)
        if node.kind in DATA_KINDS or (node.kind == "param" and view == "combined")
    }
    steps = sorted(
        (n for n in model.nodes if n.kind in STEP_KINDS),
        key=lambda n: (n.step_index if n.step_index is not None else 0),
    )

    def lines() -> Iterator[str]:
        yield f"# @begin {name}"
        for step in steps:
            yield f"# @begin {idents[step.id]}"
            for tag, ports in (("in", ins), ("param", params), ("out", outs)):
                for node_id in sorted(ports.get(step.id, ()), key=node_order.get):
                    yield f"# @{tag} {idents[node_id]}"
            yield f"# @end {idents[step.id]}"
        yield f"# @end {name}"

    return list(_chunks(lines()))
