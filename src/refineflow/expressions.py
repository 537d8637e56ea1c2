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
"""

from __future__ import annotations

import re
from typing import NamedTuple

VALUE_METHODS = frozenset({"toLowercase", "toUppercase", "trim", "toNumber", "toString"})


class Term(NamedTuple):
    """One ``+`` operand: a ``"literal"`` (``text`` is its value), the own
    ``"value"`` (``text`` is empty) or a ``"cell"`` reference (``text`` is
    the label), with the pure method calls applied to it, in order."""

    kind: str
    text: str
    methods: tuple[str, ...] = ()


# A parsed expression is the '+'-joined sequence of its terms.
ParsedExpression = tuple[Term, ...]


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
    (?: (?P<literal> {_STRING})
      | (?P<value> value)
      | cells \s* (?: \[ \s* (?P<label> {_STRING}) \s* \] | \. \s* (?P<name> \w+) )
        \s* \. \s* value
    )
    (?P<methods> (?: \s* \. \s* (?: {'|'.join(sorted(VALUE_METHODS))}) \s* \( \s* \) )* )
    \s* (?: (?P<plus> \+ ) | \Z )
    """,
    re.VERBOSE | re.DOTALL,
)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_WORD = re.compile(r"\w+")


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


def parse_expression(expression: str) -> ParsedExpression | None:
    """Parse into terms, or None when the expression is outside the subset."""
    body = strip_language_tag(expression)
    terms: list[Term] = []
    position = 0
    while body is not None and (match := _TERM.match(body, position)):
        literal, label, name = match["literal"], match["label"], match["name"]
        if literal is not None:
            kind, text = "literal", _unquote(literal)
        elif match["value"] is not None:
            kind, text = "value", ""
        elif label is not None:
            kind, text = "cell", _unquote(label)
        elif (name[0].isalpha() or name[0] == "_") and name != "value":
            kind, text = "cell", name
        else:
            return None
        terms.append(Term(kind, text, tuple(_WORD.findall(match["methods"]))))
        if match["plus"] is None:
            return tuple(terms)
        position = match.end()
    return None


def analyze_expression(expression: str) -> ExpressionAnalysis:
    """Classify an expression and collect the column labels it reads.

    The read of the column the expression runs against is implied by the
    owning operation, not reported by this analysis.
    """
    parsed = parse_expression(expression)
    if parsed is None:
        return OPAQUE_ANALYSIS
    referenced = dict.fromkeys(term.text for term in parsed if term.kind == "cell")
    return ExpressionAnalysis(tuple(referenced), opaque=False)
