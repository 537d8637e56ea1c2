"""Per-step column effects and schema simulation: the id level.

Columns are tracked by synthetic stable integer ids so that dependency
analysis stays well-defined across renames, splits, and derived columns.
The effect of a step records which column ids it reads and writes, which
columns it creates or deletes (with their labels) and which it renames, and
whether it touches the row structure of the whole table (``table_scoped``),
in which case it reads and changes everything. Its resources are what it
``reads`` and what it ``changes``: the ids it writes, creates or deletes
and the labels it gives or frees, which the trace puts in one set where it
already knows each part. Two steps conflict when either one's ``changes``
meets what the other reads or changes. The trace resolves labels
through one running label index and keeps no per-step schema: it returns
the effects with the schema before and after the recipe. Each model builder
runs the trace on its recipe and keeps the effects only.

Both passes here read the recipe's decoded steps (:class:`recipe.Step`),
never the parameters: :func:`infer_initial_schema` collects their labels,
and :func:`trace_effects`, the one pass that computes effects, resolves
those labels to ids and raises a step's error when it reaches that step.
The labels a split gives, and so its part count, are the step's
``gives``. Unknown operation ids fall back to the table-scoped rule: the
analysis degrades to the sequential interpretation instead of failing.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .errors import EffectError
from .recipe import RawOperation, Recipe, Step, _record

# Stable identity of a column: survives renames, never reused.
ColumnId = int

# The one empty set of every effect: each ``frozenset()`` call makes a new one.
EMPTY_SET: frozenset = frozenset()


class SchemaState(NamedTuple):
    """The live columns, as ``(id, label)`` pairs in left-to-right order,
    before or after a recipe. :func:`trace_effects` checks that the initial
    labels and ids are distinct, and allocates every new id."""

    columns: tuple[tuple[ColumnId, str], ...]

    @classmethod
    def from_labels(cls, labels) -> "SchemaState":
        return cls(tuple(enumerate(labels)))


def _collision(values: list, kind: str = "label", step_index: int | None = None) -> EffectError:
    """``label-collision`` (or ``id-collision``) naming the first value, in
    column order, that ``values`` holds twice."""
    counts = Counter(values)
    duplicate = next(value for value in values if counts[value] > 1)
    return EffectError(f"{kind}-collision", f"duplicate column {kind} {duplicate!r}", step_index)


class ColumnEffect(NamedTuple):
    """Read/write/create/delete sets of one step, over column ids.

    ``creates`` keeps creation order. ``changes`` is the step's resource
    set, the one that conflicts: its output ids (:meth:`output_ids`) and
    the labels it gives (those of the columns it creates, a rename's new
    label) and frees (the current label of a column it renames or deletes),
    since a replay resolves columns by label. Labels are ``str`` and ids
    ``int``, so the two never meet. The trace fills it; an effect built by
    hand must list its output ids and labels there.
    """

    reads: frozenset[ColumnId] = EMPTY_SET
    writes: frozenset[ColumnId] = EMPTY_SET
    creates: tuple[tuple[ColumnId, str], ...] = ()
    deletes: frozenset[ColumnId] = EMPTY_SET
    renames: tuple[tuple[ColumnId, str], ...] = ()
    table_scoped: bool = False
    changes: frozenset[ColumnId | str] = EMPTY_SET

    def created_ids(self) -> frozenset[ColumnId]:
        return frozenset(cid for cid, _ in self.creates)

    def output_ids(self) -> frozenset[ColumnId]:
        """Columns whose content or existence this step changes: its writes,
        creates and deletes. Most steps only write, and get ``writes`` itself."""
        if not (self.creates or self.deletes):
            return self.writes
        return self.writes | self.created_ids() | self.deletes


def _resolve(label: str, index: dict[str, ColumnId], op: RawOperation) -> ColumnId:
    cid = index.get(label)
    if cid is None:
        raise EffectError(
            "unresolved-column",
            f"step {op.index} ({op.op_id}) references column {label!r} "
            "which is not live at that point",
            step_index=op.index,
        )
    return cid


def _effect_of(step: Step, index: dict[str, ColumnId], next_id: int) -> ColumnEffect:
    """Column effect of one step against the live columns' label index;
    new columns get ids from ``next_id`` on.

    Raises :class:`EffectError`: the step's own ``error``, the decoder's
    one verdict on its parameters (``missing-param``,
    ``split-arity-too-large`` or ``malformed-json``), then
    ``unresolved-column`` for a label that is not live.
    """
    op, spec = step.op, step.spec
    if spec.table_scoped:
        live = frozenset(index.values()) or EMPTY_SET
        return _record(ColumnEffect, (live, live, (), EMPTY_SET, (), True, live))
    if step.error is not None:
        raise EffectError(*step.error, step_index=op.index)

    own_ids = [_resolve(label, index, op) for label in step.owns]
    own = frozenset(own_ids) or EMPTY_SET
    reads = frozenset(index.values()) if step.opaque else own  # opaque means no references
    if step.references:
        reads = own | frozenset(_resolve(name, index, op) for name in step.references)
    writes = own if spec.writes_own else EMPTY_SET
    creates = () if spec.rename else tuple(enumerate(step.gives, next_id))
    deletes = own if step.frees and not spec.rename else EMPTY_SET
    changes = writes  # a step that gives and frees no label creates and deletes nothing
    if step.gives or step.frees:
        changes = writes.union(deletes, range(next_id, next_id + len(creates)), step.gives, step.frees)
    renames = ((own_ids[0], step.gives[0]),) if spec.rename else ()
    return _record(ColumnEffect, (reads, writes, creates, deletes, renames, False, changes))


def trace_effects(
    recipe: Recipe, initial: SchemaState
) -> tuple[list[ColumnEffect], tuple[SchemaState, SchemaState]]:
    """Effects in recipe order, and the schema before and after the recipe.

    One running column list and one label → id index stand for the live
    schema, and every label resolves through the index; no per-step schema
    is kept. A repeated initial label or id raises ``label-collision`` or
    ``id-collision``, and new columns get ids above the highest one. A step
    that creates, deletes or renames edits the list once, at its one own
    column: that column is replaced by what is left of it (itself, its new
    label, or nothing), then the columns it creates. A given label live on
    another column raises ``label-collision``, naming the first label in
    column order that the columns hold twice. Every error is raised whole,
    with the step's index, where it is found. The schema after step k is
    the final one of tracing the recipe's first k operations.
    """
    columns = list(initial.columns)
    index = {label: cid for cid, label in columns}
    if len(index) != len(columns):
        raise _collision([label for _, label in columns])
    if len({cid for cid, _ in columns}) != len(columns):
        raise _collision([cid for cid, _ in columns], "id")
    next_id = max((cid for cid, _ in columns), default=-1) + 1
    effects: list[ColumnEffect] = []
    for step in recipe.steps:
        effect = _effect_of(step, index, next_id)
        effects.append(effect)
        if not (effect.creates or effect.deletes or effect.renames):
            continue
        own = (index[step.owns[0]], step.owns[0])
        at = columns.index(own)
        columns[at : at + 1] = (() if effect.deletes else effect.renames or (own,)) + effect.creates
        if effect.renames or effect.deletes:
            del index[own[1]]
        entering = effect.renames + effect.creates
        size = len(index) + len(entering)
        index.update([(label, cid) for cid, label in entering])
        if len(index) != size:
            raise _collision([label for _, label in columns], step_index=step.op.index)
        next_id += len(effect.creates)
    return effects, (initial, SchemaState(tuple(columns)))


def infer_initial_schema(recipe: Recipe) -> SchemaState:
    """Minimal schema a recipe can run on: every label read before created.

    Ids are assigned in first-mention order: a step's own column, then its
    expression's references in the order the expression names them, so the
    result never depends on hash order. Labels that were live but got
    renamed or deleted earlier are not re-assumed; such reads surface as
    ``unresolved-column`` during tracing, which is the correct report for
    a recipe no schema can satisfy.
    """
    assumed: list[str] = []
    known: set[str] = set()  # labels assumed, given or freed so far
    for step in recipe.steps:
        for label in step.owns + step.references:
            if label not in known:
                assumed.append(label)
                known.add(label)
        known.update(step.gives + step.frees)
    return SchemaState.from_labels(assumed)
