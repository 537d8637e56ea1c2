"""Workflow graph construction: linear, parallel, and collapsed models.

The linear model mirrors the recorded execution order as an alternating
chain of table snapshots and steps. The parallel model works at column
granularity: two steps stay unordered exactly when their effects commute,
so independent cleaning threads become disconnected subworkflows. The
collapsed model additionally folds long runs of near-identical steps into
summary nodes. Each builder returns one :class:`WorkflowModel`: a summary
node's payload names the steps it folds, and :func:`detail_model` expands
it into their linear model.

Any table-scoped effect (row operations, unknown ops) forces total
serialization: the parallel step order degenerates to the recorded chain,
which keeps every reordering conclusion sound. An opaque expression does
not serialize the model: its step reads every live column, so it is
ordered against every step that changes one, but it stays column-scoped
and leaves the steps around it free to run in parallel with each other.
Two steps that give or take away the same column label (a rename freeing
"a" and an addition creating "a", or a removal of "d 1" and a split of
"d") are ordered too, so every order the model allows replays by label
as OpenRefine would replay it.

:func:`commutes` is the pairwise definition of a conflict.
:func:`dependency_edges` orders the steps: the chain above, or one sweep's
generating set of conflicts, linear in the total effect size, whose
transitive closure is the conflict relation. A DAG has exactly one
transitive reduction, so the process edges are those of the full relation.

Each builder takes the recipe alone and runs the trace itself
(:func:`effects.trace_effects` from :func:`effects.infer_initial_schema`),
so every builder refuses what the trace refuses. The builders read the
recipe's decoded steps (a param node shows a step's rendered ``params``),
never a parameter. The column-level models keep the effects and the
initial schema, not the trace's final schema, and follow each column's
current label from the initial columns through the effects' renames and
creates. A data node is made exactly when its column version is born (an
initial column, a write or a create), and a read looks up its column's
current node; a group's reads are added in the order their nodes were made.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from itertools import groupby
from typing import Any, NamedTuple

from .effects import ColumnEffect, ColumnId, infer_initial_schema, trace_effects
from .errors import EffectError, ModelError
from .recipe import CATALOG, EMPTY_MAPPING, FrozenDict, FrozenRecord, Recipe, Step, _record

LINEAR = "linear"
PARALLEL = "parallel"
COLLAPSED = "collapsed"
MODEL_KINDS = (LINEAR, PARALLEL, COLLAPSED)

DEFAULT_COLLAPSE_THRESHOLD = 3


_NON_WORD = re.compile(r"[\W_]")


def sanitize_identifier(text: str) -> str:
    """Map arbitrary text to an identifier: non-alphanumerics become '_'.

    In a ``str`` pattern, a word character is one that ``str.isalnum()``
    accepts, or ``_``, so the result holds word characters only, and a
    text that holds only those is returned as it is, without the regex.
    """
    if text.replace("_", "").isalnum():
        return text
    return _NON_WORD.sub("_", text)


# Node kinds: steps (a summary folds a run of steps), data, and "param".
STEP_KINDS = ("step", "summary")
DATA_KINDS = ("data_table", "data_column")


class Node(NamedTuple):
    """One model node; immutable. The builders make each one through
    ``recipe._record``, from all five fields in order, and fill each payload
    they make with ``FrozenDict``'s two C calls. A builder's payloads are
    read-only dicts: the param nodes of one key share one, and so do the
    steps of one op id that are not a split or a merge."""

    kind: str  # one of STEP_KINDS, DATA_KINDS or "param"
    id: str
    label: str
    step_index: int | None = None
    payload: Mapping[str, Any] = EMPTY_MAPPING


class Edge(NamedTuple):
    src: str
    dst: str
    label: str | None = None


class WorkflowModel(FrozenRecord):
    """A DAG of step/data/param/summary nodes, built once.

    ``edges`` holds both dataflow edges (those touching a data or param
    node) and step-to-step dependency edges; an edge's role follows from
    its endpoint kinds. ``components`` partitions the step and summary
    nodes into independent subworkflow groups. Each model owns its lists.
    Step and summary nodes come in step order, and each step's input, param
    and output edges in the order of their data and param nodes.
    """

    __slots__ = ("nodes", "edges", "components")

    def __init__(self, nodes: list[Node], edges: list[Edge], components: list[list[str]]):
        self._set(nodes, edges, components)


def commutes(a: ColumnEffect, b: ColumnEffect) -> bool:
    """Whether two effects can swap without changing any result.

    Holds when neither is table-scoped, neither one's output columns
    (writes, creates, deletes) meet what the other reads or changes, and
    the labels they give or take away are disjoint: a replay resolves
    columns by label, so a label one step frees and the other takes (or
    both take) fixes their order.
    """
    if a.table_scoped or b.table_scoped:
        return False
    if a.labels and b.labels and not a.labels.isdisjoint(b.labels):
        return False
    if a.output_ids() & (b.reads | b.writes | b.deletes):
        return False
    if b.output_ids() & a.reads:
        return False
    return True


def dependency_edges(effects: list[ColumnEffect]) -> set[tuple[int, int]]:
    """Step pairs (i, j), i < j, that every execution order must respect.

    The recorded chain when any effect is table-scoped. Otherwise their
    transitive closure is the conflict relation, of which :func:`commutes`
    is the pairwise definition, but not every conflict is returned: one
    forward sweep keeps, per column id, the last step that changed it and
    the steps that read it since, and per label the last step that gave or
    took it away. A read follows the last change; a change follows the last
    change and every read since; a label follows its last holder.
    """
    if any(effect.table_scoped for effect in effects):
        return {(i, i + 1) for i in range(len(effects) - 1)}
    pairs: set[tuple[int, int]] = set()
    changer: dict[ColumnId, int] = {}
    readers: dict[ColumnId, list[int]] = {}
    holder: dict[str, int] = {}
    for j, effect in enumerate(effects):
        outputs = effect.output_ids()
        for cid in effect.reads:
            if cid in changer:
                pairs.add((changer[cid], j))
            if cid not in outputs:
                readers.setdefault(cid, []).append(j)
        for cid in outputs:
            if cid in changer:
                pairs.add((changer[cid], j))
            pairs.update((i, j) for i in readers.pop(cid, ()))
            changer[cid] = j
        for label in effect.labels:
            if label in holder:
                pairs.add((holder[label], j))
            holder[label] = j
    return pairs


def _transitive_reduction(n: int, pairs: set[tuple[int, int]]) -> list[tuple[int, int]]:
    """Minimal forward-edge set with the same reachability. Pairs are i < j.

    Reachable sets are int bit masks. Taking the successors of a step in
    ascending order, a pair (i, j) is redundant exactly when an earlier
    successor of i already reaches j. Only j's predecessors read its mask,
    so the lowest one frees it, and a step that nothing precedes keeps none.
    """
    successors: list[list[int]] = [[] for _ in range(n)]
    lowest = [n] * n  # each step's lowest predecessor; n for none
    for i, j in pairs:
        successors[i].append(j)
        if i < lowest[j]:
            lowest[j] = i
    reach = [0] * n
    kept = []
    for i in range(n - 1, -1, -1):
        mask = 0
        for j in sorted(successors[i]):
            if not mask >> j & 1:
                kept.append((i, j))
            mask |= reach[j] | 1 << j
            if lowest[j] == i:
                reach[j] = 0
        if lowest[i] < n:
            reach[i] = mask
    return sorted(kept)


def _group_order(
    effects: list[ColumnEffect], runs: dict[int, int]
) -> tuple[list[tuple[int, int]], list[list[int]]]:
    """The transitive reduction of the dependency pairs, quotiented by the
    runs, between groups named by their first steps; and, by one union-find
    over the kept pairs, the groups' weak components, ascending and in the
    order of their first groups. The pairs and reach masks die here."""
    n = len(effects)
    pairs = dependency_edges(effects)
    # A run's steps share its summary node.
    group_of = list(range(n))
    if runs:
        for start, end in runs.items():
            group_of[start : end + 1] = [start] * (end - start + 1)
        pairs = {(group_of[i], group_of[j]) for i, j in pairs if group_of[i] != group_of[j]}
    kept = _transitive_reduction(n, pairs)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in kept:
        parent[find(i)] = find(j)
    components: dict[int, list[int]] = {}
    for i in range(n):
        if group_of[i] == i:
            components.setdefault(find(i), []).append(i)
    return kept, list(components.values())


# One payload per param key: a step renders only its catalog keys.
_PARAM_PAYLOADS = {key: FrozenDict(key=key) for spec in CATALOG.values() for key in spec.params}


def _param_nodes(step: Step, step_index: int, labels: dict[str, str]) -> list[Node]:
    """A step's param nodes. Equal labels are one string, kept in ``labels``."""
    nodes = []
    for key, text in step.params:
        label = f"{key} = {text}"
        label = labels.setdefault(label, label)
        node_id = f"param_{step_index}_{key}"
        nodes.append(_record(Node, ("param", node_id, label, step_index, _PARAM_PAYLOADS[key])))
    return nodes


def _plain_step(op_id: str, shared: dict) -> tuple[str, Mapping[str, Any]]:
    """A step's label, the op id after its last "/" (or the whole id when
    nothing follows), and the payload of a step that is neither a split nor
    a merge, the op id alone: one pair per op id, kept in ``shared``."""
    if op_id not in shared:
        shared[op_id] = (op_id.rsplit("/", 1)[-1] or op_id, FrozenDict(op_id=op_id))
    return shared[op_id]


def build_linear(recipe: Recipe) -> WorkflowModel:
    """Alternating chain of table snapshots and steps, with param nodes.

    Runs the trace first, so it raises the trace's :class:`EffectError`
    for a recipe the trace refuses.
    """
    trace_effects(recipe, infer_initial_schema(recipe))
    return _linear(recipe.steps)


def _linear(steps: tuple[Step, ...]) -> WorkflowModel:
    n = len(steps)
    nodes, edges = [_record(Node, ("data_table", "table_0", "table_0", None, EMPTY_MAPPING))], []
    shared: dict[str, tuple] = {}
    param_labels: dict[str, str] = {}
    for pos, step in enumerate(steps):
        op = step.op
        if step.error is not None:
            raise EffectError(*step.error, step_index=op.index)
        step_id = f"step_{pos}"
        table_in, table_out = f"table_{pos}", f"table_{pos + 1}"
        label, payload = _plain_step(op.op_id, shared)
        nodes.append(_record(Node, ("step", step_id, label, pos, payload)))
        params = _param_nodes(step, pos, param_labels)
        nodes.extend(params)
        nodes.append(_record(Node, ("data_table", table_out, table_out, None, EMPTY_MAPPING)))
        edges.append(_record(Edge, (table_in, step_id, None)))
        edges.append(_record(Edge, (step_id, table_out, None)))
        edges.extend([_record(Edge, (p.id, step_id, None)) for p in params])
        if pos > 0:
            edges.append(_record(Edge, (f"step_{pos - 1}", step_id, None)))
    components = [[f"step_{i}" for i in range(n)]] if n else []
    return WorkflowModel(nodes, edges, components)


def _collapse_runs(recipe: Recipe, effects: list[ColumnEffect], threshold: int) -> dict[int, int]:
    """Maximal runs of >= threshold consecutive steps sharing op id and output
    column set, as start → last step; a run closes where that key changes."""
    keys = [(op.op_id, effect.output_ids()) for op, effect in zip(recipe.operations, effects)]
    runs: dict[int, int] = {}
    for _, group in groupby(range(len(keys)), keys.__getitem__):
        steps = list(group)
        if len(steps) >= threshold:
            runs[steps[0]] = steps[-1]
    return runs


def _build_column_model(recipe: Recipe, threshold: int | None, dataflow: bool) -> WorkflowModel:
    """Column-granularity model of the recipe's traced effects; with a
    ``threshold``, runs of at least that many steps fold into summaries.

    Steps are taken in groups: a folded run, or one step. A group reads the
    current data node of each column its steps read, and every one of its
    steps bumps the version of the columns it writes. Its outputs are its
    first step's writes, at the labels they have after it, and its creates:
    the steps of a run share their output columns, so none of them creates
    a column. Each output is a new data node, which becomes its column's
    current one. Without ``dataflow`` only the step layer is built: no data
    or param node, and no edge that touches one.

    Each group's effects are dropped once its nodes and edges are made, and
    the loop's tables before the process edges are: the model does not grow
    beside every effect.
    """
    initial = infer_initial_schema(recipe)
    effects = trace_effects(recipe, initial)[0]
    runs = {} if threshold is None else _collapse_runs(recipe, effects, threshold)
    kept, component_starts = _group_order(effects, runs)
    n = len(effects)
    nodes: list[Node] = []
    edges: list[Edge] = []
    labels = dict(initial.columns)
    version: dict[ColumnId, int] = {}
    # Position in ``nodes`` and node id of each column's current version.
    current: dict[ColumnId, tuple[int, str]] = {}
    used_ids: set[str] = set()

    def born(cid: ColumnId, at: int, label: str) -> str:
        node_id = f"{sanitize_identifier(label)}_v{at}"
        if node_id in used_ids:
            node_id = f"{node_id}_c{cid}"
        used_ids.add(node_id)
        current[cid] = (len(nodes), node_id)
        payload = dict.__new__(FrozenDict)
        dict.update(payload, column_id=cid, version=at)
        nodes.append(_record(Node, ("data_column", node_id, label, None, payload)))
        return node_id

    if dataflow:
        for cid, name in initial.columns:
            born(cid, 0, name)

    # Node id of each group, by the index of its first step.
    group_ids: list[str | None] = [None] * n
    shared: dict[str, tuple] = {}
    param_labels: dict[str, str] = {}

    start = 0
    while start < n:
        end = runs.get(start, start)
        op = recipe.operations[start]
        first = effects[start]
        if end > start:
            count = end - start + 1
            node_id = f"summary_{start}"
            payload = dict.__new__(FrozenDict)
            dict.update(payload, op_id=op.op_id, count=count, first_index=start, last_index=end)
            nodes.append(_record(Node, ("summary", node_id, f"{op.op_id} × {count}", start, payload)))
        else:
            node_id = f"step_{start}"
            label, payload = _plain_step(op.op_id, shared)
            if len(first.creates) >= 2:
                payload = dict.__new__(FrozenDict)
                dict.update(payload, op_id=op.op_id, pattern="split", branches=len(first.creates))
            elif len(first.reads) >= 2 and len(first.writes | first.created_ids()) == 1:
                payload = dict.__new__(FrozenDict)
                dict.update(payload, op_id=op.op_id, pattern="merge")
            nodes.append(_record(Node, ("step", node_id, label, start, payload)))
        group_ids[start] = node_id

        if dataflow:
            group = effects[start : end + 1]
            reads = first.reads if end == start else frozenset().union(*(e.reads for e in group))
            edges.extend([_record(Edge, (src, node_id, None)) for _, src in sorted(map(current.get, reads))])
            if end == start:
                params = _param_nodes(recipe.steps[start], start, param_labels)
                nodes.extend(params)
                edges.extend([_record(Edge, (param.id, node_id, None)) for param in params])
            for effect in group:
                for cid in effect.writes:
                    version[cid] = version.get(cid, 0) + 1
                labels.update(effect.renames)
                labels.update(effect.creates)
            for cid in sorted(first.writes):
                edges.append(_record(Edge, (node_id, born(cid, version[cid], labels[cid]), None)))
            for cid, name in first.creates:
                edges.append(_record(Edge, (node_id, born(cid, 0, name), None)))
        effects[start : end + 1] = [None] * (end + 1 - start)
        start = end + 1

    del used_ids, current, labels, version
    edges.extend([_record(Edge, (group_ids[i], group_ids[j], None)) for i, j in kept])
    components = [[group_ids[i] for i in starts] for starts in component_starts]
    return WorkflowModel(nodes, edges, components)


def build_parallel(recipe: Recipe, dataflow: bool = True) -> WorkflowModel:
    """Column-granularity model exposing independent subworkflow branches.

    Traces the recipe, and raises the trace's :class:`EffectError`.
    ``dataflow=False`` builds the step layer only: the steps, their
    ordering edges and their components, which is all the process view
    draws.
    """
    return _build_column_model(recipe, None, dataflow)


def check_collapse_threshold(threshold: int) -> None:
    """Raises ``ValueError`` unless ``threshold`` is an int >= 2."""
    if type(threshold) is not int or threshold < 2:
        raise ValueError("a collapse threshold must be an int >= 2")


def build_collapsed(
    recipe: Recipe, threshold: int = DEFAULT_COLLAPSE_THRESHOLD, dataflow: bool = True
) -> WorkflowModel:
    """Parallel model with long same-shaped runs folded into summary nodes.

    A run is a maximal group of >= threshold consecutive steps sharing the
    same op id and the same output column set. :func:`detail_model` expands
    a summary node into the linear model of its run. The trace and
    ``dataflow`` are as for :func:`build_parallel`.
    """
    check_collapse_threshold(threshold)
    return _build_column_model(recipe, threshold, dataflow)


def detail_model(recipe: Recipe, summary: Node) -> WorkflowModel:
    """Linear model of the steps a collapsed model's summary node folds.

    The collapsed builder has traced the recipe already, so this does not
    trace again; it raises a step's ``error`` as the trace does, and
    ``not-a-summary`` for any other node.
    """
    if summary.kind != "summary":
        raise ModelError("not-a-summary", f"node {summary.id!r} is not a summary")
    first, last = summary.payload["first_index"], summary.payload["last_index"]
    return _linear(recipe.steps[first : last + 1])


def _induced_subgraph(model: WorkflowModel, keep: set[str]) -> WorkflowModel:
    nodes = [node for node in model.nodes if node.id in keep]
    edges = [edge for edge in model.edges if edge.src in keep and edge.dst in keep]
    components = [
        [node_id for node_id in group if node_id in keep] for group in model.components
    ]
    return WorkflowModel(nodes, edges, [g for g in components if g])


def _closure(model: WorkflowModel, node_id: str, reverse: bool) -> set[str]:
    if not any(node.id == node_id for node in model.nodes):
        raise ModelError("unknown-node", f"no node with id {node_id!r}")
    adjacency: dict[str, list[str]] = {}
    for edge in model.edges:
        src, dst = (edge.dst, edge.src) if reverse else (edge.src, edge.dst)
        adjacency.setdefault(src, []).append(dst)
    seen = {node_id}
    frontier = [node_id]
    while frontier:
        current = frontier.pop()
        for neighbor in adjacency.get(current, ()):
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    return seen


def upstream_lineage(model: WorkflowModel, node_id: str) -> WorkflowModel:
    """Induced subgraph of a node and everything it was derived from."""
    return _induced_subgraph(model, _closure(model, node_id, reverse=True))


def downstream_impact(model: WorkflowModel, node_id: str) -> WorkflowModel:
    """Induced subgraph of a node and everything derived from it."""
    return _induced_subgraph(model, _closure(model, node_id, reverse=False))
