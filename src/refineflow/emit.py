"""Deterministic serialization of workflow models.

Two formats, three views each:

* Graphviz DOT (``emit_dot``) for rendering with the external ``dot`` tool.
* YesWorkflow comment annotations (``emit_yw``) for the YW toolchain.

The combined view carries steps, data, and parameters; the process view
keeps steps and their ordering constraints; the data view keeps data nodes
with edges labeled by the deriving step. Output is byte-deterministic:
node statements follow model (step/version) order and edge statements are
sorted lexicographically. YW lists the steps in node order, and each
step's ports in edge order.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator
from itertools import islice

from .model import DATA_KINDS, STEP_KINDS, Edge, Node, WorkflowModel, sanitize_identifier
from .model import _flow_edges, _step_ids
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


def _view_steps(model: WorkflowModel, view: str) -> set[str]:
    """The model's step and summary ids. Rejects a view not in VIEWS."""
    if view not in VIEWS:
        raise ValueError(f"unknown view {view!r}; expected one of {', '.join(VIEWS)}")
    return _step_ids(model)


def _ports(model: WorkflowModel, steps: set[str], view: str) -> tuple[dict[str, list[str]], ...]:
    """Each step's data inputs, param nodes (in the combined view only, the
    one view that draws them) and data outputs, in edge order."""
    param_ids = {n.id for n in model.nodes if n.kind == "param"}
    ins, params, outs = {}, {}, {}
    for src, dst, _ in _flow_edges(model, steps):
        if dst not in steps:
            outs.setdefault(src, []).append(dst)
        elif src not in param_ids:
            ins.setdefault(dst, []).append(src)
        elif view == "combined":
            params.setdefault(dst, []).append(src)
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


def _component_of(model: WorkflowModel, steps: set[str]) -> dict[str, int | None]:
    """Cluster assignment of the model's nodes, the same in every view:
    steps by their group, and every data and param node by the steps it
    touches; a node shared between groups maps to None and stays
    unclustered."""
    assignment: dict[str, int | None] = {}
    for index, group in enumerate(model.components):
        for node_id in group:
            assignment[node_id] = index
    for src, dst, _ in _flow_edges(model, steps):
        step_id, node_id = (dst, src) if dst in steps else (src, dst)
        component = assignment.get(step_id)
        if component is not None and assignment.setdefault(node_id, component) != component:
            assignment[node_id] = None
    return assignment


def _view(model: WorkflowModel, view: str, steps: set[str]) -> tuple[list[Node], Iterable[Edge]]:
    """Nodes and edges of one view: the combined view's are the flow edges,
    the process view's the rest. The data view has one edge per (input,
    output) pair of every step, labeled with the deriving step."""
    if view == "combined":
        return model.nodes, _flow_edges(model, steps)
    if view == "process":
        nodes = [n for n in model.nodes if n.kind in STEP_KINDS]
        # A model of steps alone, as the CLI builds for this view, has order
        # edges alone: the step set need not outlive the node statements.
        if len(nodes) == len(model.nodes):
            return nodes, model.edges
        return nodes, (edge for edge in model.edges if edge.src in steps and edge.dst in steps)
    ins, _, outs = _ports(model, steps, view)
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


def _dot_chunks(model: WorkflowModel, view: str, idents: dict[str, str]) -> list[str]:
    """The digraph's text in chunks; the identifiers die before they are joined."""
    chunks = ["digraph workflow {\nrankdir=TB;\n"]
    edges = _node_chunks(chunks, model, view, idents)
    # Sorting the statements sorts by endpoints: identifiers hold word
    # characters only, which sort after '"', and no two edges of a view
    # share both endpoints. They are popped from the end, in ascending
    # order, so each batch's strings are freed once its chunk is made.
    statements = sorted((
        f'"{idents[src]}" -> "{idents[dst]}"' + (f" [label={_quote(label)}];" if label else ";")
        for src, dst, label in edges
    ), reverse=True)
    chunks.extend(_chunks(statements.pop() for _ in range(len(statements))))
    chunks.append("}\n")
    return chunks


def _node_chunks(chunks: list[str], model: WorkflowModel, view: str, idents: dict) -> Iterable[Edge]:
    """Append the view's node statements, in clusters, to ``chunks``, and
    return its edges. The cluster assignment dies on return, before the
    edge statements are made."""
    steps = _view_steps(model, view)
    nodes, edges = _view(model, view, steps)

    def statement(node: Node) -> str:
        attrs = _NODE_ATTRS.get(node.kind, _DATA_ATTRS)
        return f'"{idents[node.id]}" [label={_quote(node.label)}, {attrs}];'

    clusters: dict[int, list[Node]] = {}
    loose = nodes
    if len(model.components) > 1:
        assignment = _component_of(model, steps)
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
    """The annotations in chunks; the ports and identifiers die before they are joined."""
    ins, params, outs = _ports(model, _view_steps(model, view), view)

    def lines() -> Iterator[str]:
        yield f"# @begin {name}"
        for step in model.nodes:
            if step.kind not in STEP_KINDS:
                continue
            yield f"# @begin {idents[step.id]}"
            for tag, ports in (("in", ins), ("param", params), ("out", outs)):
                for node_id in ports.get(step.id, ()):
                    yield f"# @{tag} {idents[node_id]}"
            yield f"# @end {idents[step.id]}"
        yield f"# @end {name}"

    return list(_chunks(lines()))
