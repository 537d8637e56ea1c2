"""Workflow graph construction: linear, parallel, and collapsed models.

The linear model mirrors the recorded execution order as an alternating
chain of table snapshots and steps. The parallel model works at column
granularity: two steps stay unordered exactly when their effects commute,
so independent cleaning threads become disconnected subworkflows. The
collapsed model additionally folds long runs of near-identical steps into
summary nodes, with the folded steps preserved in per-run detail models.

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
:func:`dependency_edges` sweeps the steps once and returns a generating
set of conflicts, linear in the total effect size, whose transitive
closure is the conflict relation. A DAG has exactly one transitive
reduction, so the process edges are those of the full relation.

The builders read the recipe, the step effects and the initial schema,
nothing else: the column-level models follow each column's current label
from the initial columns through the effects' renames and creates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from .effects import ColumnEffect, ColumnId, SchemaState
from .errors import ModelError
from .recipe import RawOperation, Recipe
from . import effects as _effects

LINEAR = "linear"
PARALLEL = "parallel"
COLLAPSED = "collapsed"

DEFAULT_COLLAPSE_THRESHOLD = 3


def sanitize_identifier(text: str) -> str:
    """Map arbitrary text to an identifier: non-alphanumerics become '_'."""
    return "".join(ch if ch.isalnum() else "_" for ch in text)


@dataclass(frozen=True)
class Node:
    kind: str  # "step" | "data_table" | "data_column" | "param" | "summary"
    id: str
    label: str
    step_index: int | None = None
    payload: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    label: str | None = None


@dataclass
class WorkflowModel:
    """A DAG of step/data/param/summary nodes.

    ``edges`` holds both dataflow edges (those touching a data or param
    node) and step-to-step dependency edges; an edge's role follows from
    its endpoint kinds. ``components`` partitions the step and summary
    nodes into independent subworkflow groups.
    """

    model_kind: str
    nodes: list[Node] = field(default_factory=list)
    edges: list[Edge] = field(default_factory=list)
    components: list[list[str]] = field(default_factory=list)

    def node_map(self) -> dict[str, Node]:
        return {node.id: node for node in self.nodes}


@dataclass(frozen=True)
class DetailModel:
    """Linear expansion of one collapsed run, kept for separate emission."""

    parent_summary_id: str
    inner: WorkflowModel


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
    """Step pairs (i, j), i < j, whose transitive closure is the conflict relation.

    :func:`commutes` is the pairwise definition. Every returned pair is a
    conflict, but not every conflict is returned: one forward sweep keeps,
    per column id, the last step that changed it and the steps that read it
    since, and per label the last step that gave or took it away. A read
    follows the last change; a change follows the last change and every
    read since; a label follows its last holder. A table-scoped step is a
    barrier: it follows the previous barrier and every step since, and
    every later step follows it.
    """
    pairs: set[tuple[int, int]] = set()
    changer: dict[ColumnId, int] = {}
    readers: dict[ColumnId, list[int]] = {}
    holder: dict[str, int] = {}
    barrier = None
    since_barrier: list[int] = []
    for j, effect in enumerate(effects):
        if effect.table_scoped:
            pairs.update((i, j) for i in since_barrier)
            changer.clear()
            readers.clear()
            holder.clear()
            barrier = j
            since_barrier = [j]
            continue
        if barrier is not None:
            pairs.add((barrier, j))
        since_barrier.append(j)
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


def ordering_pairs(effects: list[ColumnEffect]) -> set[tuple[int, int]]:
    """Step pairs (i, j), i < j, that every execution order must respect.

    Any table-scoped effect forces the full recorded chain, so that
    conservative steps are never reordered across.
    """
    if any(effect.table_scoped for effect in effects):
        return {(i, i + 1) for i in range(len(effects) - 1)}
    return dependency_edges(effects)


def _transitive_reduction(n: int, pairs: set[tuple[int, int]]) -> list[tuple[int, int]]:
    """Minimal forward-edge set with the same reachability. Pairs are i < j.

    Reachable sets are int bit masks. Taking the successors of a step in
    ascending order, a pair (i, j) is redundant exactly when an earlier
    successor of i already reaches j.
    """
    successors: list[list[int]] = [[] for _ in range(n)]
    for i, j in pairs:
        successors[i].append(j)
    reach = [0] * n
    kept = []
    for i in range(n - 1, -1, -1):
        mask = 0
        for j in sorted(successors[i]):
            if not mask >> j & 1:
                kept.append((i, j))
            mask |= reach[j] | 1 << j
        reach[i] = mask
    return sorted(kept)


def _weak_components(members: list[int], pairs: set[tuple[int, int]]) -> list[list[int]]:
    parent = {m: m for m in members}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in pairs:
        parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for m in members:
        groups.setdefault(find(m), []).append(m)
    return sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])


def _short_label(op: RawOperation) -> str:
    return op.op_id.rsplit("/", 1)[-1]


def _render_param_value(value) -> str:
    if isinstance(value, str):
        return value
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _param_nodes(op: RawOperation, step_index: int) -> list[Node]:
    nodes = []
    for key in _effects.spec_of(op.op_id).params:
        if key in op.params:
            nodes.append(
                Node(
                    kind="param",
                    id=f"param_{step_index}_{key}",
                    label=f"{key} = {_render_param_value(op.params[key])}",
                    step_index=step_index,
                    payload={"key": key},
                )
            )
    return nodes


def build_linear(recipe: Recipe) -> WorkflowModel:
    """Alternating chain of table snapshots and steps, with param nodes."""
    n = len(recipe.operations)
    model = WorkflowModel(model_kind=LINEAR)
    model.nodes.append(Node(kind="data_table", id="table_0", label="table_0"))
    for pos, op in enumerate(recipe.operations):
        step_id = f"step_{pos}"
        model.nodes.append(
            Node(
                kind="step",
                id=step_id,
                label=_short_label(op),
                step_index=pos,
                payload={"op_id": op.op_id},
            )
        )
        params = _param_nodes(op, pos)
        model.nodes.extend(params)
        model.nodes.append(Node(kind="data_table", id=f"table_{pos + 1}", label=f"table_{pos + 1}"))
        model.edges.append(Edge(f"table_{pos}", step_id))
        model.edges.append(Edge(step_id, f"table_{pos + 1}"))
        model.edges.extend(Edge(p.id, step_id) for p in params)
        if pos > 0:
            model.edges.append(Edge(f"step_{pos - 1}", step_id))
    model.components = [[f"step_{i}" for i in range(n)]] if n else []
    return model


@dataclass
class _ColumnNodes:
    """Per-column version bookkeeping while building column-level models."""

    version: dict[ColumnId, int] = field(default_factory=dict)
    node_id: dict[tuple[ColumnId, int], str] = field(default_factory=dict)
    used_ids: set[str] = field(default_factory=set)

    def materialize(self, model: WorkflowModel, cid: ColumnId, version: int, label: str) -> str:
        key = (cid, version)
        existing = self.node_id.get(key)
        if existing is not None:
            return existing
        node_id = f"{sanitize_identifier(label)}_v{version}"
        if node_id in self.used_ids:
            node_id = f"{node_id}_c{cid}"
        self.used_ids.add(node_id)
        self.node_id[key] = node_id
        model.nodes.append(
            Node(
                kind="data_column",
                id=node_id,
                label=label,
                payload={"column_id": cid, "version": version},
            )
        )
        return node_id

    def current(self, cid: ColumnId) -> int:
        return self.version.get(cid, 0)


def _collapse_runs(recipe: Recipe, effects: list[ColumnEffect], threshold: int) -> list[tuple[int, int]]:
    """Maximal runs (start, end inclusive) of >= threshold consecutive steps
    sharing op id and output column set."""
    runs = []
    n = len(effects)
    i = 0
    while i < n:
        j = i
        key = (recipe.operations[i].op_id, effects[i].output_ids())
        while (
            j + 1 < n
            and recipe.operations[j + 1].op_id == key[0]
            and effects[j + 1].output_ids() == key[1]
        ):
            j += 1
        if j - i + 1 >= threshold:
            runs.append((i, j))
        i = j + 1
    return runs


def _build_column_model(
    recipe: Recipe,
    effects: list[ColumnEffect],
    initial: SchemaState,
    runs: list[tuple[int, int]] | None,
) -> WorkflowModel:
    """Column-granularity model; ``runs`` folds step ranges into summaries.

    Steps are taken in groups: a folded run, or one step. A group reads the
    union of its steps' reads, at the labels they have before it, and every
    one of its steps bumps the version of the columns it writes. Its outputs
    are its first step's writes, at the labels they have after it, and its
    creates: the steps of a run share their output columns, so none of them
    creates a column.
    """
    n = len(recipe.operations)
    if len(effects) != n:
        raise ValueError("effects misaligned with recipe")

    run_end = dict(runs or ())
    model = WorkflowModel(model_kind=PARALLEL if runs is None else COLLAPSED)
    tracker = _ColumnNodes()
    labels = dict(initial.columns)

    for cid, name in initial.columns:
        tracker.materialize(model, cid, 0, name)

    # Representative node id per step index (its own node, or its run's summary).
    representative: dict[int, str] = {}

    start = 0
    while start < n:
        end = run_end.get(start, start)
        op = recipe.operations[start]
        first = effects[start]
        group = effects[start : end + 1]
        reads = set().union(*(effect.reads for effect in group))
        in_ids = [
            tracker.materialize(model, cid, tracker.current(cid), labels[cid])
            for cid in sorted(reads)
        ]
        if end > start:
            count = end - start + 1
            payload = {"op_id": op.op_id, "count": count, "first_index": start, "last_index": end}
            node = Node(
                kind="summary",
                id=f"summary_{start}",
                label=f"{op.op_id} × {count}",
                step_index=start,
                payload=payload,
            )
            params = []
        else:
            payload = {"op_id": op.op_id}
            if len(first.creates) >= 2:
                payload["pattern"] = "split"
                payload["branches"] = len(first.creates)
            elif len(first.reads) >= 2 and len(first.writes | first.created_ids()) == 1:
                payload["pattern"] = "merge"
            node = Node(
                kind="step",
                id=f"step_{start}",
                label=_short_label(op),
                step_index=start,
                payload=payload,
            )
            params = _param_nodes(op, start)
        model.nodes.append(node)
        model.nodes.extend(params)

        for i, effect in enumerate(group, start):
            representative[i] = node.id
            for cid in effect.writes:
                tracker.version[cid] = tracker.current(cid) + 1
            labels.update(effect.renames)
            labels.update(effect.creates)
        out_ids = [
            tracker.materialize(model, cid, tracker.current(cid), labels[cid])
            for cid in sorted(first.writes)
        ]
        out_ids.extend(tracker.materialize(model, cid, 0, name) for cid, name in first.creates)

        model.edges.extend(Edge(src, node.id) for src in in_ids)
        model.edges.extend(Edge(p.id, node.id) for p in params)
        model.edges.extend(Edge(node.id, dst) for dst in out_ids)
        start = end + 1

    step_pairs = ordering_pairs(effects)
    quotient_pairs: set[tuple[int, int]] = set()
    rep_index = {}
    for i in range(n):
        rep = representative[i]
        rep_index.setdefault(rep, i)
    for i, j in step_pairs:
        a, b = representative[i], representative[j]
        if a != b:
            quotient_pairs.add((rep_index[a], rep_index[b]))

    members = sorted(rep_index.values())
    reduced = _transitive_reduction(n, quotient_pairs)
    by_index = {index: rep for rep, index in rep_index.items()}
    model.edges.extend(Edge(by_index[i], by_index[j]) for i, j in reduced)
    model.components = [
        [by_index[i] for i in group] for group in _weak_components(members, quotient_pairs)
    ]
    return model


def build_parallel(
    recipe: Recipe, effects: list[ColumnEffect], initial: SchemaState
) -> WorkflowModel:
    """Column-granularity model exposing independent subworkflow branches.

    ``effects`` are the recipe's step effects traced from ``initial``.
    """
    return _build_column_model(recipe, effects, initial, runs=None)


def build_collapsed(
    recipe: Recipe,
    effects: list[ColumnEffect],
    initial: SchemaState,
    threshold: int = DEFAULT_COLLAPSE_THRESHOLD,
) -> tuple[WorkflowModel, list[DetailModel]]:
    """Parallel model with long same-shaped runs folded into summary nodes.

    A run is a maximal group of >= threshold consecutive steps sharing the
    same op id and the same output column set. Each folded run is returned
    as a linear :class:`DetailModel` for separate emission.
    """
    if threshold < 2:
        raise ValueError("collapse threshold must be >= 2")
    runs = _collapse_runs(recipe, effects, threshold)
    model = _build_column_model(recipe, effects, initial, runs=runs)
    details = []
    for start, end in runs:
        sub_ops = tuple(
            replace(op, index=pos)
            for pos, op in enumerate(recipe.operations[start : end + 1])
        )
        sub_recipe = Recipe(operations=sub_ops, source_name=recipe.source_name)
        inner = build_linear(sub_recipe)
        details.append(DetailModel(parent_summary_id=f"summary_{start}", inner=inner))
    return model, details


def _induced_subgraph(model: WorkflowModel, keep: set[str]) -> WorkflowModel:
    nodes = [node for node in model.nodes if node.id in keep]
    edges = [edge for edge in model.edges if edge.src in keep and edge.dst in keep]
    components = [
        [node_id for node_id in group if node_id in keep] for group in model.components
    ]
    return WorkflowModel(
        model_kind=model.model_kind,
        nodes=nodes,
        edges=edges,
        components=[g for g in components if g],
    )


def _closure(model: WorkflowModel, node_id: str, reverse: bool) -> set[str]:
    if node_id not in model.node_map():
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
