"""Reference interpreter for a supported subset of operations.

This is the tests' brute-force oracle behind the parallel model (the
converter never runs a recipe, so the package does not ship it):
replaying a recipe in any topological order of its dependency DAG must
produce the same table as the recorded order. ``execute`` interprets
operations the way OpenRefine replays a history: columns are addressed
by label only, resolved step by step, independent of the effect catalog
and its column ids. ``execute_order`` checks a permutation against the
model's ordering pairs and replays the permuted operations the same way.
Agreement with the recorded order (``by_label()`` equal) is exactly what
the commutativity rule promises.

The interpreter reads each operation's raw ``params`` and nothing the
package decodes from them: it reads and evaluates expressions with its
own reader (``read_expression``), written from the subset's definition,
and works out a split's part count itself. So a fault in the package's
read sets is not repeated here, and a replay can expose it.

Cells are untyped strings; the empty string counts as blank (fill-down
fills it, mass-edit's fromBlank matches it). ``toNumber`` yields a number
(left unchanged when the text does not parse); numbers are formatted back
without a decimal point when integral, else in shortest round-trip
decimal form.
"""

from __future__ import annotations

import csv
import io

from refineflow.effects import SchemaState, trace_effects
from refineflow.errors import RefineflowError
from refineflow.model import dependency_edges
from refineflow.recipe import FrozenRecord, RawOperation, Recipe


class OracleError(RefineflowError):
    """Raised by the interpreter for unsupported or invalid steps."""


class Table(FrozenRecord):
    """An in-memory grid: unique column labels, left to right, and rows
    aligned to them. ``execute`` works on a copy; its label operations
    raise :class:`OracleError` naming the step."""

    __slots__ = ("labels", "rows")

    def __init__(self, labels, rows):
        labels = list(labels)
        if len(set(labels)) != len(labels):
            duplicate = next(l for l in labels if labels.count(l) > 1)
            raise OracleError("label-collision", f"duplicate column label {duplicate!r}")
        rows = [list(row) for row in rows]
        for row in rows:
            if len(row) != len(labels):
                raise ValueError(f"row width {len(row)} does not match schema width {len(labels)}")
        self._set(labels, rows)

    @classmethod
    def from_csv(cls, text: str) -> "Table":
        records = list(csv.reader(io.StringIO(text)))
        if not records:
            return cls([], [])
        header, *rows = records
        width = len(header)
        return cls(header, [row[:width] + [""] * (width - len(row)) for row in rows])

    def by_label(self) -> dict[str, list[str]]:
        """Label -> cells: equal for tables holding the same columns in any order."""
        return {label: [row[i] for row in self.rows] for i, label in enumerate(self.labels)}

    def position(self, label: str, op: RawOperation) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise OracleError(
                "unresolved-column",
                f"step {op.index} ({op.op_id}) references column {label!r} "
                "which is not live at that point",
                step_index=op.index,
            ) from None

    def require_free(self, label: str, op: RawOperation):
        if label in self.labels:
            raise OracleError(
                "label-collision",
                f"step {op.index} ({op.op_id}) would duplicate column label {label!r}",
                step_index=op.index,
            )

    def set_column(self, position: int, values: list[str]):
        for row, value in zip(self.rows, values):
            row[position] = value

    def evaluate(self, operands: list[Operand], position: int, op: RawOperation) -> list[str]:
        """The expression on every row, ``value`` being the cell at ``position``."""
        return [
            evaluate_expression(operands, row[position], lambda name: row[self.position(name, op)])
            for row in self.rows
        ]

    def insert_column(self, position: int, label: str, values: list[str]):
        self.labels.insert(position, label)
        for row, value in zip(self.rows, values):
            row.insert(position, value)

    def remove_column(self, position: int):
        del self.labels[position]
        for row in self.rows:
            del row[position]


# Expressions, read from the definition of the subset the oracle runs:
#
#   expression := ["grel:"] operand ("+" operand)*
#   operand    := (string | "value" | "cells" ("[" string "]" | "." name) "." "value")
#                 ("." method "(" ")")*
#
# Whitespace (as str.isspace) may separate any two tokens. A string is
# quoted with " or '; a backslash takes the character after it literally.
# A word is a run of letters, digits and "_" (as str.isalnum); a name is a
# word that starts with a letter or "_" and is not "value". A leading tag
# other than "grel:" (a word of letters before the first ":") and
# anything else the grammar does not derive are outside the subset.

METHODS = frozenset({"toLowercase", "toUppercase", "trim", "toNumber", "toString"})

# One operand: its kind ("literal", "value" or "cell"), its text (the
# literal's value, empty, or the cell's label) and its method calls.
Operand = tuple[str, str, tuple[str, ...]]


class _Cursor:
    """A position in an expression's text; each reader skips whitespace first."""

    def __init__(self, text: str):
        self.text, self.at = text, 0

    def _skip_space(self):
        while self.at < len(self.text) and self.text[self.at].isspace():
            self.at += 1

    def at_end(self) -> bool:
        self._skip_space()
        return self.at == len(self.text)

    def take(self, symbol: str) -> bool:
        self._skip_space()
        if self.text.startswith(symbol, self.at):
            self.at += len(symbol)
            return True
        return False

    def word(self) -> str:
        self._skip_space()
        text, start = self.text, self.at
        while self.at < len(text) and (text[self.at].isalnum() or text[self.at] == "_"):
            self.at += 1
        return text[start : self.at]

    def string(self) -> str | None:
        """A quoted string's value; None, not moving on, when none starts here."""
        self._skip_space()
        quote = self.text[self.at : self.at + 1]
        if quote not in ('"', "'"):
            return None
        chars, at = [], self.at + 1
        while at < len(self.text):
            char = self.text[at]
            if char == quote:
                self.at = at + 1
                return "".join(chars)
            if char == "\\":
                at += 1
                if at == len(self.text):
                    break
                char = self.text[at]
            chars.append(char)
            at += 1
        return None


def _read_operand(cursor: _Cursor) -> Operand | None:
    text = cursor.string()
    if text is not None:
        kind = "literal"
    else:
        word = cursor.word()
        if word == "value":
            kind, text = "value", ""
        elif word != "cells":
            return None
        elif cursor.take("["):
            kind, text = "cell", cursor.string()
            if text is None or not cursor.take("]"):
                return None
        elif cursor.take("."):
            kind, text = "cell", cursor.word()
            if not (text[:1].isalpha() or text[:1] == "_") or text == "value":
                return None
        else:
            return None
        if kind == "cell" and not (cursor.take(".") and cursor.word() == "value"):
            return None
    methods = []
    while cursor.take("."):
        method = cursor.word()
        if method not in METHODS or not (cursor.take("(") and cursor.take(")")):
            return None
        methods.append(method)
    return kind, text, tuple(methods)


def read_expression(expression: str) -> list[Operand] | None:
    """The operands of an expression, or None when it is outside the subset."""
    text = expression.lstrip()
    tag, colon, rest = text.partition(":")
    if colon and tag.isalpha():
        if tag != "grel":
            return None
        text = rest
    cursor = _Cursor(text)
    operands = []
    while (operand := _read_operand(cursor)) is not None:
        operands.append(operand)
        if not cursor.take("+"):
            return operands if cursor.at_end() else None
    return None


def format_value(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _to_number(value):
    if not isinstance(value, str):
        return value
    text = value.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return value


def _apply_method(value, method: str):
    if method == "toNumber":
        return _to_number(value)
    if method == "toString":
        return format_value(value)
    text = format_value(value)
    if method == "toLowercase":
        return text.lower()
    if method == "toUppercase":
        return text.upper()
    if method == "trim":
        return text.strip()
    raise AssertionError(f"unreachable method {method}")


def evaluate_expression(operands: list[Operand], own_value: str, lookup) -> str:
    """Evaluate an expression's operands; ``lookup(label)`` resolves cells."""
    result = None
    for kind, text, methods in operands:
        if kind == "value":
            value = own_value
        elif kind == "literal":
            value = text
        else:
            value = lookup(text)
        for method in methods:
            value = _apply_method(value, method)
        if result is None:
            result = value
        elif isinstance(result, (int, float)) and isinstance(value, (int, float)):
            result = result + value
        else:
            result = format_value(result) + format_value(value)
    return format_value(result if result is not None else "")


def _expression_operands(op: RawOperation) -> list[Operand]:
    expression = op.params.get("expression")
    if expression is None:
        raise OracleError(
            "expression-error",
            f"step {op.index} ({op.op_id}) carries no expression",
            step_index=op.index,
        )
    operands = read_expression(str(expression))
    if operands is None:
        raise OracleError(
            "expression-error",
            f"step {op.index} ({op.op_id}) expression is outside the supported subset: "
            f"{expression!r}",
            step_index=op.index,
        )
    return operands


def _compile_edits(op: RawOperation) -> list[tuple[set[str], bool, str]]:
    edits = op.params.get("edits")
    if not isinstance(edits, list):
        raise OracleError(
            "unsupported-op",
            f"step {op.index} (core/mass-edit) lacks an edits list",
            step_index=op.index,
        )
    compiled = []
    for entry in edits:
        if not isinstance(entry, dict):
            continue
        sources = entry.get("from") or []
        matches = {format_value(v) for v in sources if isinstance(v, (str, int, float))}
        from_blank = bool(entry.get("fromBlank"))
        to = entry.get("to", "")
        compiled.append((matches, from_blank, format_value(to)))
    return compiled


def _apply_edits(key: str, cell: str, compiled) -> str:
    """The first matching edit's ``to`` for a row whose key is ``key``;
    the cell unchanged when no edit matches."""
    for matches, from_blank, to in compiled:
        if key in matches or (from_blank and key == ""):
            return to
    return cell


def _fill_down(cells: list[str]) -> list[str]:
    carry = None
    values = []
    for cell in cells:
        if cell != "":
            carry = cell
        elif carry is not None:
            cell = carry
        values.append(cell)
    return values


def _blank_down(cells: list[str]) -> list[str]:
    return ["" if r and cell == cells[r - 1] else cell for r, cell in enumerate(cells)]


# Steps that rewrite their own column from that column alone, run on a
# plain list of the column's cells.
_COLUMN_KERNELS = {
    "core/fill-down": _fill_down,
    "core/blank-down": _blank_down,
}


# The most columns one split may create here; the interpreter refuses more.
MAX_SPLIT_PARTS = 1000


def _split_separator(op: RawOperation) -> str:
    if op.params.get("regex") or op.params.get("mode") == "lengths":
        raise OracleError(
            "unsupported-op",
            f"step {op.index} (core/column-split) only supports plain separator splits",
            step_index=op.index,
        )
    return _require_string_param(op, "separator")


def _split_arity(op: RawOperation, label: str, split_arity) -> int:
    """The part count the step pins (its ``fieldLengths`` or ``maxColumns``),
    else the recipe's count for the column, else 2."""
    field_lengths, max_columns = op.params.get("fieldLengths"), op.params.get("maxColumns")
    if isinstance(field_lengths, list) and field_lengths:
        arity = len(field_lengths)
    elif isinstance(max_columns, int) and not isinstance(max_columns, bool) and max_columns > 0:
        arity = max_columns
    else:
        arity = split_arity.get(label, 2)
    if arity > MAX_SPLIT_PARTS:
        raise OracleError(
            "split-arity-too-large",
            f"step {op.index} (core/column-split) splits into {arity} columns; "
            f"the interpreter runs at most {MAX_SPLIT_PARTS}",
            step_index=op.index,
        )
    return arity


def _split_parts(cell: str, separator: str, arity: int) -> list[str]:
    parts = cell.split(separator) if separator else [cell]
    parts = parts[:arity]
    return parts + [""] * (arity - len(parts))


def _require_string_param(op: RawOperation, key: str) -> str:
    value = op.params.get(key)
    if not isinstance(value, str):
        raise OracleError(
            "unsupported-op",
            f"step {op.index} ({op.op_id}) lacks a usable {key!r} parameter",
            step_index=op.index,
        )
    return value


def execute(recipe: Recipe, table: Table) -> Table:
    """Run a recipe over a table in the recorded order.

    Raises :class:`OracleError` with ``unsupported-op`` for steps outside
    the subset and ``expression-error`` for opaque expressions.
    """
    return _replay(recipe.operations, recipe.split_arity, table)


def _replay(operations, split_arity, table: Table) -> Table:
    state = Table(table.labels, table.rows)
    for op in operations:
        _execute_step(state, op, split_arity)
    return state


def _execute_step(state: Table, op: RawOperation, split_arity):
    op_id = op.op_id
    kernel = _COLUMN_KERNELS.get(op_id)

    if kernel is not None:
        position = state.position(_require_string_param(op, "columnName"), op)
        state.set_column(position, kernel([row[position] for row in state.rows]))

    elif op_id == "core/mass-edit":
        # OpenRefine matches the edits against the key expression, evaluated
        # on each row, and rewrites the cell of the own column.
        position = state.position(_require_string_param(op, "columnName"), op)
        compiled = _compile_edits(op)
        keys = state.evaluate(_expression_operands(op), position, op)
        state.set_column(
            position,
            [_apply_edits(key, row[position], compiled) for key, row in zip(keys, state.rows)],
        )

    elif op_id == "core/text-transform":
        position = state.position(_require_string_param(op, "columnName"), op)
        state.set_column(position, state.evaluate(_expression_operands(op), position, op))

    elif op_id == "core/column-rename":
        position = state.position(_require_string_param(op, "oldColumnName"), op)
        new_label = _require_string_param(op, "newColumnName")
        if new_label != state.labels[position]:
            state.require_free(new_label, op)
        state.labels[position] = new_label

    elif op_id == "core/column-removal":
        state.remove_column(state.position(_require_string_param(op, "columnName"), op))

    elif op_id == "core/column-split":
        label = _require_string_param(op, "columnName")
        separator = _split_separator(op)
        position = state.position(label, op)
        arity = _split_arity(op, label, split_arity)
        part_rows = [_split_parts(row[position], separator, arity) for row in state.rows]
        for k in range(arity):
            new_label = f"{label} {k + 1}"
            state.require_free(new_label, op)
            state.insert_column(position + 1 + k, new_label, [parts[k] for parts in part_rows])
        if op.params.get("removeOriginalColumn"):
            state.remove_column(position)

    elif op_id == "core/column-addition":
        base_position = state.position(_require_string_param(op, "baseColumnName"), op)
        new_label = _require_string_param(op, "newColumnName")
        values = state.evaluate(_expression_operands(op), base_position, op)
        state.require_free(new_label, op)
        state.insert_column(base_position + 1, new_label, values)

    else:
        raise OracleError(
            "unsupported-op",
            f"step {op.index} ({op_id}) is outside the interpreter subset",
            step_index=op.index,
        )


def execute_order(recipe: Recipe, order: list[int], table: Table) -> Table:
    """Run a recipe in a caller-chosen topological order of its dependency DAG.

    The order must be a permutation of the step indices respecting every
    ordering pair; otherwise ``invalid-order`` is raised (that signals a
    bug in the calling harness, not a data problem). The permuted recipe
    is replayed by label with :func:`execute`; for a valid order its
    ``by_label()`` equals that of ``execute(recipe, table)``.
    """
    n = len(recipe.operations)
    effects, _ = trace_effects(recipe, SchemaState.from_labels(table.labels))

    if sorted(order) != list(range(n)):
        raise OracleError("invalid-order", f"order {order!r} is not a permutation of 0..{n - 1}")
    position = {step: rank for rank, step in enumerate(order)}
    for i, j in dependency_edges(effects):
        if position[i] > position[j]:
            raise OracleError(
                "invalid-order", f"order {order!r} violates dependency {i} -> {j}"
            )

    return _replay([recipe.operations[step] for step in order], recipe.split_arity, table)
