"""Parsing, decoding and validation of exported OpenRefine operation histories.

The input is the JSON document produced by OpenRefine's "Extract" dialog:
a top-level array of operation objects, each with an "op" identifier,
an optional "description", and operation-specific parameter keys.

This is the label level. Each recognized operation id is described once,
by an :class:`OpSpec` in ``CATALOG``, and a :class:`Recipe` decodes each of
its operations once, when it is built, into a checked :class:`Step`: the
labels the step reads, gives and frees, its rendered parameters, and what
is wrong with it. The decoder is the only code that reads a parameter or a
split hint; validation, inference, the trace and the models read steps.
Recipes repeat expression texts step after step (one ``value.trim()`` per
column), so a recipe analyzes each distinct text once, and words each
unused-param finding once per op id and key list. The base of the package's
slotted records, which are all immutable, lives here too, at the bottom of
the import graph, with ``_record``, through which the conversion path
builds the named-tuple records it makes per step, node or edge.
"""

from __future__ import annotations

import json
import re
from collections.abc import Mapping
from typing import Any, NamedTuple

from .errors import RecipeError
from .expressions import ExpressionAnalysis, analyze_expression


class FrozenRecord:
    """Base of the slotted records. ``__slots__`` lists the fields in
    constructor order, and only ``__init__`` sets them: a record is
    immutable, and it compares, hashes, prints and pickles by its fields
    (``_values``). A record whose last slots are derived from its fields
    narrows ``_values`` to the fields."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class FrozenDict(dict):
    """A read-only dict: every mutator raises ``TypeError``, and reads stay
    the C dict's. One instance may be shared by every holder of its value.
    ``__new__`` fills it, so calling ``__init__`` again changes nothing; a
    C-level write, ``dict.__setitem__(frozen, key, value)``, still gets in.
    The conversion path fills a payload with the two C calls ``__new__``
    makes, ``dict.__new__(FrozenDict)`` then ``dict.update``, and so makes
    the same object without this method's Python frame.
    Pickling and copying give an equal instance; the empty one,
    :data:`EMPTY_MAPPING`, prints, pickles and copies as that instance."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = dict.__new__(cls)
        dict.update(self, *args, **kwargs)
        return self

    __init__ = object.__init__  # which ignores its arguments: the class defines __new__

    def __setitem__(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} is read-only")

    __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = __setitem__

    def __repr__(self) -> str:
        return dict.__repr__(self) if self else "EMPTY_MAPPING"

    def __reduce__(self):
        return (type(self), (dict(self),)) if self else "EMPTY_MAPPING"


EMPTY_MAPPING: Mapping[str, Any] = FrozenDict()

# ``_record(Cls, fields)`` makes the named tuple ``Cls(*fields)`` makes,
# without its Python-level ``__new__``. It checks neither the count nor the
# order of ``fields``, so each call passes every field in ``Cls._fields`` order.
_record = tuple.__new__


class RawOperation(NamedTuple):
    """One entry of an operation history, with its parameters kept verbatim.

    ``params`` holds every key of the original JSON object except "op",
    so nothing an unknown or extended operation recorded is lost.
    """

    op_id: str
    index: int
    params: Mapping[str, Any] = EMPTY_MAPPING


class Diagnostic(NamedTuple):
    """A finding about a recipe, one CLI line. Validation finds warnings
    and infos, which never affect processing; a fault that stops the run
    (a step's ``error``, among others) is reported as one ``error``.
    """

    severity: str  # "error" | "warning" | "info"
    code: str
    message: str
    step_index: int | None = None


DEFAULT_SPLIT_ARITY = 2

# Upper bound on the columns one split may create. No schema snapshot
# holds the parts now, but the split's effect and the trace's columns do,
# so without a bound one recipe entry could allocate without limit.
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


class Step(NamedTuple):
    """One operation, decoded once against its :class:`OpSpec` and the
    recipe's split hints.

    ``owns`` are the own labels (one, or the listed ones when
    ``own_list``); ``references`` are the expression's, and ``opaque``
    says the expression is outside the subset or absent. ``gives`` are the
    labels the step gives: a rename's or addition's new label, or a
    split's "<own> 1" ... "<own> k". ``frees`` are the labels it takes
    away (its own, when it renames or deletes it). Every label is a
    string: a malformed one is left out. ``error`` is the ``(code,
    message)`` the trace and the linear model raise at this step, the one
    verdict on its parameters: ``missing-param`` for its first absent or
    malformed one, else ``split-arity-too-large``, else ``malformed-json``
    for a value nested too deeply to render, or one JSON cannot write (a
    library caller's self-containing list or dict, a ``set``, a tuple key
    or an int too long to convert). ``diagnostics`` are its
    validation findings. ``params`` renders each present key of
    ``spec.params``, in that order: a string as it is, any other value as
    compact, key-sorted JSON.
    """

    op: RawOperation
    spec: OpSpec
    owns: tuple[str, ...] = ()
    references: tuple[str, ...] = ()
    opaque: bool = False
    gives: tuple[str, ...] = ()
    frees: tuple[str, ...] = ()
    error: tuple[str, str] | None = None
    diagnostics: tuple[Diagnostic, ...] = ()
    params: tuple[tuple[str, str], ...] = ()


# One encoder for every param value: json.dumps with options builds a new one.
_encode_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_TOO_DEEP = "input nests arrays or objects too deeply"


def _decode(
    op: RawOperation, analyses: dict[str, ExpressionAnalysis], findings: dict, split_arity: Mapping[str, int]
) -> Step:
    """The step of one operation; what the recipe's ``analyses`` and
    ``findings`` lack is added: an expression text's analysis, and an op id
    and key list's unused-param message, if any. A split's part count is
    the one the operation pins, else ``split_arity``'s for its column,
    else :data:`DEFAULT_SPLIT_ARITY` with a warning."""
    spec = CATALOG.get(op.op_id)
    if spec is None:
        message = (
            f"operation id {op.op_id!r} is not in the effect catalog; "
            "treated conservatively as touching the whole table"
        )
        diagnostic = _record(Diagnostic, ("warning", "unknown-op", message, op.index))
        return _record(Step, (op, TABLE_SCOPED, (), (), False, (), (), None, (diagnostic,), ()))
    params = op.params
    diagnostics = []
    shape = (op.op_id, tuple(params))
    if shape not in findings:
        unused = ", ".join(sorted(params.keys() - spec.params - {"description"}))
        findings[shape] = unused and f"{op.op_id} parameter(s) retained but not used by the model: {unused}"
    if findings[shape]:
        diagnostics.append(_record(Diagnostic, ("info", "unused-param", findings[shape], op.index)))
    if spec.table_scoped:
        return _record(Step, (op, spec, (), (), False, (), (), None, tuple(diagnostics), ()))

    # The own labels that are strings, and what is wrong with the step's
    # first malformed parameter, if anything.
    own = params.get(spec.own)
    if spec.own_list:
        listed = own if isinstance(own, list) else ()
        owns = tuple([label for label in listed if isinstance(label, str)])
    else:
        listed = (own,)
        owns = listed if isinstance(own, str) else ()
    problem = None
    if own is None:
        problem = f" lacks required parameter {spec.own!r}"
    elif spec.own_list and not isinstance(own, list):
        problem = f": {spec.own} is not a list"
    elif len(owns) < len(listed):
        problem = ": column name parameter is not a string"
    new_label = params.get(spec.new_label) if spec.new_label else None
    gives = (new_label,) if isinstance(new_label, str) else ()
    if spec.new_label and not gives and problem is None:
        problem = (
            f" lacks required parameter {spec.new_label!r}" if new_label is None
            else f": {spec.new_label} is not a string"
        )
    error = None if problem is None else ("missing-param", f"step {op.index} ({op.op_id}){problem}")

    references, opaque = (), False
    if spec.expression:
        expression = params.get("expression")
        if isinstance(expression, str):
            analysis = analyses.get(expression)
            if analysis is None:
                analysis = analyses[expression] = analyze_expression(expression)
            references, opaque = analysis
        else:  # absent, or no text: none spells a term of the subset
            opaque = True
    if spec.split:
        field_lengths, max_columns = params.get("fieldLengths"), params.get("maxColumns")
        if isinstance(field_lengths, list) and field_lengths:
            parts = len(field_lengths)
        elif isinstance(max_columns, int) and not isinstance(max_columns, bool) and max_columns > 0:
            parts = max_columns
        elif isinstance(own, str) and own in split_arity:
            parts = split_arity[own]
        else:
            parts = DEFAULT_SPLIT_ARITY
            message = (
                f"split of column {own!r} has no static part count; "
                f"defaulting to {DEFAULT_SPLIT_ARITY} (override with --split-arity)"
            )
            diagnostics.append(_record(Diagnostic, ("warning", "split-arity-defaulted", message, op.index)))
        if error is None and parts > MAX_SPLIT_PARTS:
            message = f"splits into {parts} columns; at most {MAX_SPLIT_PARTS} are supported"
            error = ("split-arity-too-large", f"step {op.index} ({op.op_id}) {message}")
        elif error is None:
            gives = tuple(f"{own} {k + 1}" for k in range(parts))
    deletes = spec.deletes is True or bool(spec.deletes and params.get(spec.deletes))
    frees = owns if spec.rename or deletes else ()
    # A loop, not a comprehension, whose frame would cost the encoder a nesting level.
    rendered = []
    try:
        for key in spec.params:
            if key in params:
                value = params[key]
                rendered.append((key, value if isinstance(value, str) else _encode_json(value)))
    except RecursionError:
        error = error or ("malformed-json", f"step {op.index} ({op.op_id}): {_TOO_DEEP}")
    except (ValueError, TypeError) as exc:  # a library caller's value: parsed JSON holds none
        error = error or ("malformed-json", f"step {op.index} ({op.op_id}): a value is not JSON: {exc}")
    return _record(
        Step, (op, spec, owns, references, opaque, gives, frees, error, tuple(diagnostics), tuple(rendered))
    )


def check_split_arity(split_arity: Mapping[str, int]) -> None:
    """Raises ``ValueError`` unless every part count is an int >= 1."""
    if any(type(parts) is not int or parts < 1 for parts in split_arity.values()):
        raise ValueError("a split arity must be an int >= 1")


class Recipe(FrozenRecord):
    """An ordered operation history, the split part counts given for its
    columns (``split_arity``, ints >= 1, which a split that pins no count
    reads), and its decoded steps, one per operation. An empty history is
    valid. The steps follow from the other two fields, so a recipe compares,
    prints and pickles by those. An operation whose ``params`` is not a
    mapping raises ``TypeError`` before any is decoded.
    """

    __slots__ = ("operations", "split_arity", "steps")

    def __init__(
        self, operations: tuple[RawOperation, ...] = (), split_arity: Mapping[str, int] = EMPTY_MAPPING
    ):
        check_split_arity(split_arity)
        for op in operations:  # parsed params are dicts: the type test is the fast path
            if type(op.params) is not dict and not isinstance(op.params, Mapping):
                kind = type(op.params).__name__
                raise TypeError(f"operation {op.index} ({op.op_id}): params is a {kind}, not a mapping")
        analyses: dict[str, ExpressionAnalysis] = {}
        findings: dict[tuple[str, tuple[str, ...]], str] = {}  # unused-param messages
        steps = tuple([_decode(op, analyses, findings, split_arity) for op in operations])
        self._set(operations, split_arity, steps)

    def _values(self) -> tuple:
        return (self.operations, self.split_arity)

    def __len__(self) -> int:
        return len(self.operations)


# A \uD800-\uDFFF escape: the only way a text decoded from UTF-8 can give
# the JSON decoder a surrogate.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
_SURROGATE = re.compile(r"[\ud800-\udfff]")


def _holds_surrogate(document) -> bool:
    """Whether a key or string value holds a lone surrogate, which no UTF-8
    output can carry (an escaped pair decodes to one character). A loop,
    not recursion: the document may nest up to the decoder's limit."""
    pending = [document]
    while pending:
        value = pending.pop()
        if isinstance(value, str):
            if _SURROGATE.search(value):
                return True
        elif isinstance(value, dict):
            pending.extend(value)
            pending.extend(value.values())
        elif isinstance(value, list):
            pending.extend(value)
    return False


def _refuse_constant(name: str):
    raise RecipeError("malformed-json", f"input holds {name}, which is not JSON")


def parse_recipe(text: str, split_arity: Mapping[str, int] = EMPTY_MAPPING) -> Recipe:
    """Parse an exported operation history into a :class:`Recipe` with
    the given split part counts (each an int >= 1, else ``ValueError``).

    Accepts the usual top-level array, or a single operation object which
    is treated as a one-element history (tolerates hand-edited fixtures).

    Raises :class:`RecipeError` with code ``malformed-json`` (also for an
    integer too long for Python to convert, for ``NaN``, ``Infinity`` or
    ``-Infinity``, and for a lone surrogate, raw or escaped as
    ``"\\ud800"``, which cannot be written as UTF-8),
    ``not-an-array`` or ``missing-op-field``.
    """
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            raise RecipeError("malformed-json", "input holds a lone surrogate, which is not UTF-8 text") from None
    try:
        document = json.loads(text, parse_constant=_refuse_constant)
    except json.JSONDecodeError as exc:
        raise RecipeError("malformed-json", f"input is not valid JSON: {exc}") from exc
    except ValueError:
        # Python's limit on integer string conversion (4,300 digits by default).
        raise RecipeError("malformed-json", "input holds an integer with too many digits to read") from None
    except RecursionError:
        raise RecipeError("malformed-json", _TOO_DEEP) from None
    if _SURROGATE_ESCAPE.search(text) and _holds_surrogate(document):
        raise RecipeError("malformed-json", "input holds a lone surrogate escape, which is not UTF-8 text")

    if isinstance(document, dict):
        document = [document]
    if not isinstance(document, list):
        raise RecipeError(
            "not-an-array",
            f"top-level JSON value must be an array of operations, got {type(document).__name__}",
        )

    operations = []
    for index, entry in enumerate(document):
        op_id = entry.get("op") if isinstance(entry, dict) else None
        if not isinstance(op_id, str) or not op_id:
            problem = "lacks a non-empty" if isinstance(entry, dict) else "is not an operation object with a"
            raise RecipeError("missing-op-field", f'entry {index} {problem} string "op" key', step_index=index)
        # The decoded document is the parser's own: the entry, less its
        # "op", becomes the params, keys in file order.
        del entry["op"]
        operations.append(_record(RawOperation, (op_id, index, entry)))
    return Recipe(tuple(operations), split_arity)


def validate_recipe(recipe: Recipe) -> list[Diagnostic]:
    """Each step's findings, warnings and infos only: unknown operations,
    unused parameter keys and defaulted splits. A step's faults are its
    ``error``, which the trace raises. Never mutates the recipe."""
    return [diagnostic for step in recipe.steps for diagnostic in step.diagnostics]


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
