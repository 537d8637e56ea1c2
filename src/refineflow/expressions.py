"""Static read-set extraction for a small transformation-expression subset.

Column dependencies can hide inside cell expressions ("cells" lookups), so
steps carrying an expression are classified here: either the expression is
in the supported subset and its column reads are known exactly, or it is
opaque and the caller must fall back to reading every live column.

Supported subset: an optional ``grel:`` tag, the token ``value``, chained
pure calls from ``{toLowercase, toUppercase, trim, toNumber, toString}``,
cell references ``cells["label"].value`` / ``cells.name.value``, string
literals, and concatenation with ``+``. Anything else is opaque; opacity is
reported, never raised.

The analysis answers one question, which labels a text reads, and builds
no term tree: nothing in the package evaluates an expression. The tests'
replay reads and evaluates expressions with a reader of its own, so a
read-set fault here cannot hide from the check that replays it.
"""

from __future__ import annotations

import re
from typing import NamedTuple

VALUE_METHODS = frozenset({"toLowercase", "toUppercase", "trim", "toNumber", "toString"})


class ExpressionAnalysis(NamedTuple):
    """What an expression reads: ``references`` are the column labels it
    names, in the order it first names them. ``opaque`` means: not in the
    subset, no references, and callers must apply the conservative
    fallback."""

    references: tuple[str, ...]
    opaque: bool


OPAQUE_ANALYSIS = ExpressionAnalysis((), True)

# A quoted string; a backslash escapes the character after it.
_STRING = r""" "[^"\\]*(?:\\.[^"\\]*)*" | '[^'\\]*(?:\\.[^'\\]*)*' """
# One term and what follows it: "+" or the end. Whitespace may separate
# any two tokens. ``\w`` and ``\s`` match exactly what ``str.isalnum`` (or
# "_") and ``str.isspace`` accept; a name's first character is checked in
# Python, since ``[^\W\d]`` would also accept characters such as "²".
_TERM = re.compile(
    rf"""
    \s*
    (?: {_STRING}
      | value
      | cells \s* (?: \[ \s* (?P<label> {_STRING}) \s* \] | \. \s* (?P<name> \w+) )
        \s* \. \s* value
    )
    (?: \s* \. \s* (?: {'|'.join(sorted(VALUE_METHODS))}) \s* \( \s* \) )*
    \s* (?: (?P<plus> \+ ) | \Z )
    """,
    re.VERBOSE | re.DOTALL,
)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


def _unquote(quoted: str) -> str:
    body = quoted[1:-1]
    return _ESCAPE.sub(r"\1", body) if "\\" in body else body


def strip_language_tag(expression: str) -> str | None:
    """Remove a leading ``grel:`` tag; None for any other language tag."""
    stripped = expression.lstrip()
    head, sep, rest = stripped.partition(":")
    if sep and head.isalpha():
        return rest if head == "grel" else None
    return stripped


def analyze_expression(expression: str) -> ExpressionAnalysis:
    """Classify an expression and collect the column labels it reads.

    The read of the column the expression runs against is implied by the
    owning operation, not reported by this analysis.
    """
    body = strip_language_tag(expression)
    referenced: dict[str, None] = {}
    position = 0
    while body is not None and (match := _TERM.match(body, position)):
        label, name = match["label"], match["name"]
        if label is not None:
            referenced[_unquote(label)] = None
        elif name is not None:
            if not (name[0].isalpha() or name[0] == "_") or name == "value":
                return OPAQUE_ANALYSIS
            referenced[name] = None
        if match["plus"] is None:
            return ExpressionAnalysis(tuple(referenced), opaque=False)
        position = match.end()
    return OPAQUE_ANALYSIS
