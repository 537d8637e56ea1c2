"""Per-operation column effects and schema simulation.

Columns are tracked by synthetic stable integer ids so that dependency
analysis stays well-defined across renames, splits, and derived columns.
The effect of a step records which column ids it reads and writes, which
columns it creates or deletes (with their labels) and which it renames, and
whether it touches the row structure of the whole table (``table_scoped``),
in which case it reads and writes everything. The model builders read
the effects and the initial schema only; the schema snapshots of a trace
serve label resolution and callers that want the live columns at a step.

Each recognized operation id is described once, by an :class:`OpSpec` in
``CATALOG``; one reader turns a step's params into labels for both
:func:`trace_effects` and :func:`infer_initial_schema`. Unknown operation
ids fall back to the table-scoped rule: the analysis degrades to the
sequential interpretation instead of failing. A step's effect is computed
only inside :func:`trace_effects`, the one pass that sees the whole recipe.

Recipes repeat expression texts step after step (one ``value.trim()`` per
column), so each pass (one :func:`infer_initial_schema` or one
:func:`trace_effects` call) analyzes each distinct text once. The memo
holds analyses, never resolved ids, and lives for that call only: nothing
is cached across calls.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import EffectError
from .expressions import ExpressionAnalysis, analyze_expression
from .recipe import FrozenRecord, RawOperation, Recipe

DEFAULT_SPLIT_ARITY = 2

# Upper bound on the columns one split may create. Every later schema
# snapshot holds the parts, so without a bound one recipe entry could
# make the trace allocate without limit.
MAX_SPLIT_PARTS = 1000


class OpSpec(NamedTuple):
    """Everything the model knows about one operation id.

    ``params`` are the keys that shape what a step of the op id does;
    other keys are retained verbatim but do not influence the model
    (validate_recipe reports them). ``own`` and ``new_label`` must be
    present.

    The effect rule: ``own`` names the parameter holding the column the
    step runs on (a list of columns when ``own_list``). The step reads it,
    plus its expression's references when ``expression`` (every live
    column when the expression is opaque or absent), and writes it when
    ``writes_own``. ``new_label`` names the parameter holding a label the
    step gives the own column (``rename``) or a new column it creates to
    the right of the own column. A ``split`` creates "<own> 1" ... "<own> k".
    ``deletes`` removes the own column: always when True, or when the
    parameter it names is truthy. A ``table_scoped`` step reads and
    writes every live column. :func:`catalog_reference` renders these
    fields as the catalog reference.
    """

    params: tuple[str, ...] = ()
    own: str | None = None
    own_list: bool = False
    expression: bool = False
    writes_own: bool = False
    new_label: str | None = None
    rename: bool = False
    split: bool = False
    deletes: bool | str = False
    table_scoped: bool = False


# The conservative rule: row operations, and any op id outside the catalog.
TABLE_SCOPED = OpSpec(table_scoped=True)


CATALOG: dict[str, OpSpec] = {
    "core/text-transform": OpSpec(
        params=("columnName", "expression"),
        own="columnName", expression=True, writes_own=True,
    ),
    "core/mass-edit": OpSpec(
        params=("columnName", "expression", "edits"),
        own="columnName", expression=True, writes_own=True,
    ),
    "core/column-rename": OpSpec(
        params=("oldColumnName", "newColumnName"),
        own="oldColumnName", writes_own=True, new_label="newColumnName", rename=True,
    ),
    "core/column-removal": OpSpec(
        params=("columnName",),
        own="columnName", deletes=True,
    ),
    "core/column-split": OpSpec(
        params=(
            "columnName", "mode", "separator", "regex", "maxColumns", "fieldLengths",
            "removeOriginalColumn",
        ),
        own="columnName", split=True, deletes="removeOriginalColumn",
    ),
    "core/column-addition": OpSpec(
        params=("baseColumnName", "newColumnName", "expression"),
        own="baseColumnName", expression=True, new_label="newColumnName",
    ),
    "core/column-move": OpSpec(
        params=("columnName",),
        own="columnName", writes_own=True,
    ),
    "core/column-reorder": OpSpec(
        params=("columnNames",),
        own="columnNames", own_list=True, writes_own=True,
    ),
    "core/fill-down": OpSpec(
        params=("columnName",),
        own="columnName", writes_own=True,
    ),
    "core/blank-down": OpSpec(
        params=("columnName",),
        own="columnName", writes_own=True,
    ),
    "core/row-removal": TABLE_SCOPED,
    "core/row-reorder": TABLE_SCOPED,
    "core/row-star": TABLE_SCOPED,
    "core/row-flag": TABLE_SCOPED,
}


def spec_of(op_id: str) -> OpSpec:
    """Catalog entry of an op id; unknown ids get the table-scoped rule."""
    return CATALOG.get(op_id, TABLE_SCOPED)


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


def _resolve(label, schema: SchemaState, op: RawOperation) -> ColumnId:
    if not isinstance(label, str):
        raise EffectError(
            "missing-param",
            f"step {op.index} ({op.op_id}): column name parameter is not a string",
            step_index=op.index,
        )
    cid = schema.id_of(label)
    if cid is None:
        raise EffectError(
            "unresolved-column",
            f"step {op.index} ({op.op_id}) references column {label!r} "
            "which is not live at that point",
            step_index=op.index,
        )
    return cid


def _present(value, op: RawOperation, key: str):
    if value is None:
        raise EffectError(
            "missing-param",
            f"step {op.index} ({op.op_id}) lacks required parameter {key!r}",
            step_index=op.index,
        )
    return value


def _typed(value, op: RawOperation, key: str, kind: type, noun: str):
    if not isinstance(_present(value, op, key), kind):
        raise EffectError(
            "missing-param",
            f"step {op.index} ({op.op_id}): {key} is not {noun}",
            step_index=op.index,
        )
    return value


def static_split_arity(op: RawOperation) -> int | None:
    """Part count of a split when the recipe pins it; None when data-dependent."""
    field_lengths = op.params.get("fieldLengths")
    if isinstance(field_lengths, list) and field_lengths:
        return len(field_lengths)
    max_columns = op.params.get("maxColumns")
    if isinstance(max_columns, int) and not isinstance(max_columns, bool) and max_columns > 0:
        return max_columns
    return None


def split_arity(op: RawOperation, arity_hints: dict[str, int] | None = None) -> int:
    """Resolve a split's part count: static params, then hints, then default.

    Raises ``split-arity-too-large`` past :data:`MAX_SPLIT_PARTS`.
    """
    parts = static_split_arity(op)
    if parts is None:
        column = op.params.get("columnName")
        hinted = arity_hints and isinstance(column, str) and column in arity_hints
        parts = arity_hints[column] if hinted else DEFAULT_SPLIT_ARITY
    if parts > MAX_SPLIT_PARTS:
        raise EffectError(
            "split-arity-too-large",
            f"step {op.index} ({op.op_id}) splits into {parts} columns; "
            f"at most {MAX_SPLIT_PARTS} are supported",
            step_index=op.index,
        )
    return parts


# One pass's expression analyses, keyed by expression text.
Analyses = dict[str, ExpressionAnalysis]


def _read_labels(
    spec: OpSpec, op: RawOperation, arity_hints: dict[str, int] | None, analyses: Analyses
):
    """A column-scoped step's rule in label terms, read from its params.

    Returns ``(owns, references, opaque, gives, frees)``: the own labels
    (one, or the listed ones when ``own_list``); the expression's
    references, and whether it is opaque (an absent expression is); the
    labels the step gives (split parts, or the ``new_label`` value); the
    labels it frees (its own, when it renames or deletes it). Values stay
    as the recipe wrote them, so callers check their types; split parts
    are read only when the own label is a string. An expression text
    missing from the pass's ``analyses`` is analyzed and added.
    """
    params = op.params
    own = params.get(spec.own)
    if spec.own_list:
        owns = tuple(own) if isinstance(own, list) else ()
    else:
        owns = (own,)
    references, opaque = (), False
    if spec.expression:
        expression = params.get("expression")
        if expression is None:
            opaque = True
        else:
            text = str(expression)
            analysis = analyses.get(text)
            if analysis is None:
                analysis = analyses[text] = analyze_expression(text)
            references, opaque = analysis
    gives = ()
    if spec.split and isinstance(own, str):
        gives = tuple(f"{own} {k + 1}" for k in range(split_arity(op, arity_hints)))
    elif spec.new_label is not None:
        gives = (params.get(spec.new_label),)
    frees = ()
    if spec.rename or spec.deletes is True or (spec.deletes and params.get(spec.deletes)):
        frees = owns
    return owns, references, opaque, gives, frees


def _effect_of(
    op: RawOperation,
    schema: SchemaState,
    arity_hints: dict[str, int] | None,
    analyses: Analyses,
) -> ColumnEffect:
    """Column effect of one operation against the schema it runs on.

    Raises :class:`EffectError` (``unresolved-column`` / ``missing-param``)
    when a referenced column is not live or a required parameter is absent
    or of the wrong type.
    """
    spec = spec_of(op.op_id)
    if spec.table_scoped:
        live = schema.live_ids()
        return ColumnEffect(reads=live, writes=live, table_scoped=True)

    owns, references, opaque, gives, frees = _read_labels(spec, op, arity_hints, analyses)
    anchor = None
    if spec.own_list:
        _typed(op.params.get(spec.own), op, spec.own, list, "a list")
        own = frozenset(_resolve(name, schema, op) for name in owns)
    else:
        anchor = _resolve(_present(owns[0], op, spec.own), schema, op)
        own = frozenset({anchor})

    if spec.new_label is not None:
        new_label = _typed(gives[0], op, spec.new_label, str, "a string")

    reads = schema.live_ids() if opaque else own  # opaque means no references
    if references:
        reads = own | frozenset(_resolve(name, schema, op) for name in references)
    creates = () if spec.rename or not gives else tuple(
        (schema.next_id + k, name) for k, name in enumerate(gives)
    )
    return ColumnEffect(
        reads=reads,
        writes=own if spec.writes_own else frozenset(),
        creates=creates,
        deletes=own if frees and not spec.rename else frozenset(),
        renames=((anchor, new_label),) if spec.rename else (),
        anchor=anchor if creates else None,
        labels=frozenset(gives + frees),
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


def trace_effects(
    recipe: Recipe,
    initial: SchemaState,
    arity_hints: dict[str, int] | None = None,
) -> tuple[list[ColumnEffect], list[SchemaState]]:
    """Effects and schema snapshots together, aligned with recipe order.

    n operations yield n effects and n+1 states. A step that leaves the
    columns as they were (no create, delete or rename) shares its
    predecessor's state, so the trace allocates only where columns change.
    """
    states = [initial]
    effects: list[ColumnEffect] = []
    analyses: Analyses = {}
    for op in recipe.operations:
        try:
            effect = _effect_of(op, states[-1], arity_hints, analyses)
            states.append(_apply_effect(states[-1], effect))
        except EffectError as exc:
            if exc.step_index is None:
                exc.step_index = op.index
            raise
        effects.append(effect)
    return effects, states


def infer_initial_schema(
    recipe: Recipe, arity_hints: dict[str, int] | None = None
) -> SchemaState:
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
    analyses: Analyses = {}
    for op in recipe.operations:
        spec = spec_of(op.op_id)
        if spec.table_scoped:
            continue
        owns, references, _, gives, frees = _read_labels(spec, op, arity_hints, analyses)
        for label in owns + references:
            if isinstance(label, str) and label not in known:
                assumed.append(label)
                known.add(label)
        for label in gives + frees:
            if isinstance(label, str):
                known.add(label)
    return SchemaState.from_labels(assumed)


def catalog_reference() -> str:
    """Markdown reference of the operation catalog, one row per op id,
    derived from each :class:`OpSpec`'s rule fields."""
    lines = [
        "# Operation effect catalog",
        "",
        "Column effects assigned to each recognized operation id. A name in",
        "backticks is the recipe parameter that holds the column label.",
        "Operations marked table-scoped touch the row structure of every",
        "column and are never reordered against anything.",
        "",
        "| op id | reads | writes | creates | deletes | table-scoped |",
        "|---|---|---|---|---|---|",
    ]
    for op_id, spec in [*CATALOG.items(), ("(any other op id)", TABLE_SCOPED)]:
        if spec.table_scoped:
            lines.append(f"| {op_id} | all live columns | all live columns | - | - | yes |")
            continue
        own = f"columns listed in `{spec.own}`" if spec.own_list else f"`{spec.own}`"
        reads = own
        if spec.expression:
            reads += " + expression references (all live columns when opaque)"
        writes = own if spec.writes_own else "-"
        if spec.rename:
            writes += f" (relabeled `{spec.new_label}`)"
        creates = "-"
        if spec.split:
            creates = f'"<{own}> 1" ... "<{own}> k"'
        elif spec.new_label is not None and not spec.rename:
            creates = f"`{spec.new_label}`"
        deletes = "-"
        if spec.deletes:
            deletes = own if spec.deletes is True else f"{own} when `{spec.deletes}`"
        lines.append(f"| {op_id} | {reads} | {writes} | {creates} | {deletes} | no |")
    lines.append("")
    return "\n".join(lines)
