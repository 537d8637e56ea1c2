"""Parsing and validation of exported OpenRefine operation histories.

The input is the JSON document produced by OpenRefine's "Extract" dialog:
a top-level array of operation objects, each with an "op" identifier,
an optional "description", and operation-specific parameter keys.
The base of the package's slotted records, which are all immutable, lives
here too, at the bottom of the import graph.
"""

from __future__ import annotations

import json
import re
from collections.abc import Mapping
from typing import Any, NamedTuple

from .errors import RecipeError


class FrozenRecord:
    """Base of the slotted records. ``__slots__`` lists the fields in
    constructor order, and only ``__init__`` sets them: a record is
    immutable, and it compares, hashes, prints and pickles by its fields."""

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
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class _EmptyMapping(Mapping):
    """The records' empty mapping default: read-only, so one instance is
    shared, and it pickles and copies as that instance."""

    __slots__ = ()

    def __getitem__(self, key):
        raise KeyError(key)

    def __iter__(self):
        return iter(())

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "EMPTY_MAPPING"

    def __reduce__(self) -> str:
        return "EMPTY_MAPPING"


EMPTY_MAPPING: Mapping[str, Any] = _EmptyMapping()


class RawOperation(NamedTuple):
    """One entry of an operation history, with its parameters kept verbatim.

    ``params`` holds every key of the original JSON object except "op",
    so nothing an unknown or extended operation recorded is lost.
    """

    op_id: str
    index: int
    params: Mapping[str, Any] = EMPTY_MAPPING


class Recipe(FrozenRecord):
    """An ordered operation history. An empty history is valid."""

    __slots__ = ("operations",)

    def __init__(self, operations: tuple[RawOperation, ...] = ()):
        self._set(operations)

    def __len__(self) -> int:
        return len(self.operations)


class Diagnostic(NamedTuple):
    """A non-fatal finding about a recipe.

    ``error`` severity is reserved for conditions that prevent model
    construction; warnings and infos never affect processing.
    """

    severity: str  # "error" | "warning" | "info"
    code: str
    message: str
    step_index: int | None = None


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


def parse_recipe(text: str) -> Recipe:
    """Parse an exported operation history into a :class:`Recipe`.

    Accepts the usual top-level array, or a single operation object which
    is treated as a one-element history (tolerates hand-edited fixtures).

    Raises :class:`RecipeError` with code ``malformed-json`` (also for an
    integer too long for Python to convert, and for a lone surrogate,
    raw or escaped as ``"\\ud800"``, which cannot be written as UTF-8),
    ``not-an-array`` or ``missing-op-field``.
    """
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            raise RecipeError("malformed-json", "input holds a lone surrogate, which is not UTF-8 text") from None
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise RecipeError("malformed-json", f"input is not valid JSON: {exc}") from exc
    except ValueError:
        # Python's limit on integer string conversion (4,300 digits by default).
        raise RecipeError("malformed-json", "input holds an integer with too many digits to read") from None
    except RecursionError:
        raise RecipeError("malformed-json", "input nests arrays or objects too deeply") from None
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
        if not isinstance(entry, dict):
            raise RecipeError(
                "missing-op-field",
                f'entry {index} is not an operation object with a string "op" key',
                step_index=index,
            )
        op_id = entry.get("op")
        if not isinstance(op_id, str) or not op_id:
            raise RecipeError(
                "missing-op-field",
                f'entry {index} lacks a non-empty string "op" key',
                step_index=index,
            )
        params = {key: value for key, value in entry.items() if key != "op"}
        operations.append(RawOperation(op_id=op_id, index=index, params=params))
    return Recipe(operations=tuple(operations))


def validate_recipe(
    recipe: Recipe, arity_hints: dict[str, int] | None = None
) -> list[Diagnostic]:
    """Report unknown operations, unused parameter keys, and defaulted splits.

    Never mutates the recipe; diagnostics are the only output.
    """
    # Imported here: the operation catalog lives with the effect rules.
    from . import effects

    diagnostics: list[Diagnostic] = []
    hints = arity_hints or {}
    for op in recipe.operations:
        spec = effects.CATALOG.get(op.op_id)
        if spec is None:
            diagnostics.append(
                Diagnostic(
                    "warning",
                    "unknown-op",
                    f"operation id {op.op_id!r} is not in the effect catalog; "
                    "treated conservatively as touching the whole table",
                    step_index=op.index,
                )
            )
            continue
        required = (spec.own, spec.new_label)
        missing = [key for key in required if key is not None and key not in op.params]
        if missing:
            diagnostics.append(
                Diagnostic(
                    "error",
                    "missing-param",
                    f"{op.op_id} lacks required parameter(s): {', '.join(missing)}",
                    step_index=op.index,
                )
            )
        unused = sorted(key for key in op.params if key not in spec.params and key != "description")
        if unused:
            diagnostics.append(
                Diagnostic(
                    "info",
                    "unused-param",
                    f"{op.op_id} parameter(s) retained but not used by the model: "
                    + ", ".join(unused),
                    step_index=op.index,
                )
            )
        if spec.split and effects.static_split_arity(op) is None:
            column = op.params.get("columnName")
            if not (isinstance(column, str) and column in hints):
                diagnostics.append(
                    Diagnostic(
                        "warning",
                        "split-arity-defaulted",
                        f"split of column {column!r} has no static part count; "
                        f"defaulting to {effects.DEFAULT_SPLIT_ARITY} "
                        "(override with --split-arity)",
                        step_index=op.index,
                    )
                )
    return diagnostics
