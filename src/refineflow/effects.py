"""Per-step column effects and schema simulation: the id level.

Columns are tracked by synthetic stable integer ids so that dependency
analysis stays well-defined across renames, splits, and derived columns.
The effect of a step records which column ids it reads and writes, which
columns it creates or deletes (with their labels) and which it renames, and
whether it touches the row structure of the whole table (``table_scoped``),
in which case it reads and writes everything. The model builders read
the effects and the initial schema only; the schema snapshots of a trace
serve label resolution and callers that want the live columns at a step.

Both passes here read the recipe's decoded steps (:class:`recipe.Step`),
never the parameters: :func:`infer_initial_schema` collects their labels,
and :func:`trace_effects`, the one pass that computes effects, resolves
those labels to ids and raises a step's error when it reaches that step.
The labels a split gives, and so its part count, are the step's
``gives``. Unknown operation ids fall back to the table-scoped rule: the
analysis degrades to the sequential interpretation instead of failing.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import EffectError
from .recipe import FrozenRecord, RawOperation, Recipe, Step

# Stable identity of a column: survives renames, never reused.
ColumnId = int


class SchemaState(FrozenRecord):
    """The live columns, in left-to-right order, at one point of a pipeline.

    ``next_id`` is the allocation high-water mark for the whole trace, so
    ids of deleted columns are never handed out again.
    """

    __slots__ = ("columns", "next_id")

    def __init__(self, columns: tuple[tuple[ColumnId, str], ...] = (), next_id: int = 0):
        labels = [label for _, label in columns]
        if len(set(labels)) != len(labels):
            duplicate = next(l for l in labels if labels.count(l) > 1)
            raise EffectError("label-collision", f"duplicate column label {duplicate!r}")
        self._set(columns, next_id)

    @classmethod
    def from_labels(cls, labels) -> "SchemaState":
        labels = list(labels)
        return cls(
            columns=tuple(enumerate(labels)),
            next_id=len(labels),
        )

    def labels(self) -> tuple[str, ...]:
        return tuple(label for _, label in self.columns)

    def ids(self) -> tuple[ColumnId, ...]:
        return tuple(cid for cid, _ in self.columns)

    def live_ids(self) -> frozenset[ColumnId]:
        return frozenset(cid for cid, _ in self.columns)

    def id_of(self, label: str) -> ColumnId | None:
        for cid, current in self.columns:
            if current == label:
                return cid
        return None


class ColumnEffect(NamedTuple):
    """Read/write/create/delete sets of one step, over column ids.

    ``creates`` keeps creation order; new columns are inserted immediately
    to the right of ``anchor`` (their source column) when it is live.
    ``labels`` holds the labels the step gives (those of the columns it
    creates, a rename's new label) and frees (the current label of a column
    it renames or deletes). A replay resolves columns by label, so two
    steps that share one must keep their order.
    """

    reads: frozenset[ColumnId] = frozenset()
    writes: frozenset[ColumnId] = frozenset()
    creates: tuple[tuple[ColumnId, str], ...] = ()
    deletes: frozenset[ColumnId] = frozenset()
    renames: tuple[tuple[ColumnId, str], ...] = ()
    table_scoped: bool = False
    anchor: ColumnId | None = None
    labels: frozenset[str] = frozenset()

    def created_ids(self) -> frozenset[ColumnId]:
        return frozenset(cid for cid, _ in self.creates)

    def output_ids(self) -> frozenset[ColumnId]:
        """Columns whose content or existence this step changes: its writes,
        creates and deletes. Most steps only write, and get ``writes`` itself."""
        if not (self.creates or self.deletes):
            return self.writes
        return self.writes | self.created_ids() | self.deletes


def _resolve(label: str, schema: SchemaState, op: RawOperation) -> ColumnId:
    cid = schema.id_of(label)
    if cid is None:
        raise EffectError(
            "unresolved-column",
            f"step {op.index} ({op.op_id}) references column {label!r} "
            "which is not live at that point",
            step_index=op.index,
        )
    return cid


def _effect_of(step: Step, schema: SchemaState) -> ColumnEffect:
    """Column effect of one step against the schema it runs on.

    Raises :class:`EffectError`: the step's own ``error``, the decoder's
    one verdict on its parameters (``missing-param``,
    ``split-arity-too-large`` or ``malformed-json``), then
    ``unresolved-column`` for a label that is not live.
    """
    op, spec = step.op, step.spec
    if spec.table_scoped:
        live = schema.live_ids()
        return ColumnEffect(reads=live, writes=live, table_scoped=True)
    if step.error is not None:
        raise EffectError(*step.error, step_index=op.index)

    own_ids = [_resolve(label, schema, op) for label in step.owns]
    own = frozenset(own_ids)
    anchor = None if spec.own_list else own_ids[0]
    reads = schema.live_ids() if step.opaque else own  # opaque means no references
    if step.references:
        reads = own | frozenset(_resolve(name, schema, op) for name in step.references)
    creates = () if spec.rename else tuple(enumerate(step.gives, schema.next_id))
    return ColumnEffect(
        reads=reads,
        writes=own if spec.writes_own else frozenset(),
        creates=creates,
        deletes=own if step.frees and not spec.rename else frozenset(),
        renames=((anchor, step.gives[0]),) if spec.rename else (),
        anchor=anchor if creates else None,
        labels=frozenset(step.gives + step.frees),
    )


def _apply_effect(schema: SchemaState, effect: ColumnEffect) -> SchemaState:
    """Next schema after an effect produced against ``schema``.

    New columns land immediately right of the effect's anchor (or at the
    end when there is none). Raises ``label-collision`` if a create or
    rename would duplicate a live label. An effect that creates, deletes
    and renames nothing returns ``schema`` itself: snapshots are frozen,
    so consecutive states share it. Other effects share the unchanged
    ``(id, label)`` pairs.
    """
    if not (effect.creates or effect.deletes or effect.renames):
        return schema
    rename_map = dict(effect.renames)
    columns = [
        (column[0], rename_map[column[0]]) if column[0] in rename_map else column
        for column in schema.columns
    ]

    if effect.creates:
        anchor_pos = len(columns)
        if effect.anchor is not None:
            for pos, (cid, _) in enumerate(columns):
                if cid == effect.anchor:
                    anchor_pos = pos + 1
                    break
        columns[anchor_pos:anchor_pos] = list(effect.creates)

    columns = [column for column in columns if column[0] not in effect.deletes]

    next_id = max([schema.next_id] + [cid + 1 for cid, _ in effect.creates])
    return SchemaState(columns=tuple(columns), next_id=next_id)


def trace_effects(recipe: Recipe, initial: SchemaState) -> tuple[list[ColumnEffect], list[SchemaState]]:
    """Effects and schema snapshots together, aligned with recipe order.

    n operations yield n effects and n+1 states. A step that leaves the
    columns as they were (no create, delete or rename) shares its
    predecessor's state, so the trace allocates only where columns change.
    """
    states = [initial]
    effects: list[ColumnEffect] = []
    for step in recipe.steps:
        try:
            effect = _effect_of(step, states[-1])
            states.append(_apply_effect(states[-1], effect))
        except EffectError as exc:
            if exc.step_index is None:
                exc.step_index = step.op.index
            raise
        effects.append(effect)
    return effects, states


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
