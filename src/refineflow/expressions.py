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

from typing import NamedTuple

VALUE_METHODS = frozenset({"toLowercase", "toUppercase", "trim", "toNumber", "toString"})


# As tuples, nodes of different kinds can compare equal (Literal("c") ==
# CellRef("c")): tell them apart by type, as the analysis does.
class Literal(NamedTuple):
    text: str


class OwnValue(NamedTuple):
    pass


class CellRef(NamedTuple):
    label: str


class Term(NamedTuple):
    """A primary expression with a chain of pure method calls applied to it."""

    base: Literal | OwnValue | CellRef
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

_TOKEN_CHARS = {"+": "plus", ".": "dot", "[": "lbracket", "]": "rbracket",
                "(": "lparen", ")": "rparen"}


def _tokenize(text: str) -> list[tuple[str, str]] | None:
    """Split into (kind, text) tokens; None if a character is unsupported."""
    tokens: list[tuple[str, str]] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_CHARS:
            tokens.append((_TOKEN_CHARS[ch], ch))
            i += 1
            continue
        if ch in "\"'":
            quote = ch
            i += 1
            buf = []
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    buf.append(text[i + 1])
                    i += 2
                else:
                    buf.append(text[i])
                    i += 1
            if i >= n:
                return None  # unterminated literal
            tokens.append(("string", "".join(buf)))
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(("ident", text[start:i]))
            continue
        return None
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> tuple[str, str] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, kind: str) -> str | None:
        tok = self.peek()
        if tok is None or tok[0] != kind:
            return None
        self.pos += 1
        return tok[1]

    def parse_expression(self) -> ParsedExpression | None:
        terms = [self.parse_term()]
        if terms[0] is None:
            return None
        while self.take("plus") is not None:
            term = self.parse_term()
            if term is None:
                return None
            terms.append(term)
        if self.pos != len(self.tokens):
            return None
        return tuple(t for t in terms if t is not None)

    def parse_term(self) -> Term | None:
        base = self.parse_primary()
        if base is None:
            return None
        methods = []
        while self.take("dot") is not None:
            name = self.take("ident")
            if name is None or name not in VALUE_METHODS:
                return None
            if self.take("lparen") is None or self.take("rparen") is None:
                return None
            methods.append(name)
        return Term(base=base, methods=tuple(methods))

    def parse_primary(self) -> Literal | OwnValue | CellRef | None:
        literal = self.take("string")
        if literal is not None:
            return Literal(literal)
        ident = self.take("ident")
        if ident == "value":
            return OwnValue()
        if ident == "cells":
            return self.parse_cell_ref()
        return None

    def parse_cell_ref(self) -> CellRef | None:
        # cells["label"].value  or  cells.name.value
        if self.take("lbracket") is not None:
            label = self.take("string")
            if label is None or self.take("rbracket") is None:
                return None
        else:
            if self.take("dot") is None:
                return None
            label = self.take("ident")
            if label is None or label == "value":
                return None
        if self.take("dot") is None or self.take("ident") != "value":
            return None
        return CellRef(label)


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
    if body is None or not body.strip():
        return None
    tokens = _tokenize(body)
    if tokens is None:
        return None
    return _Parser(tokens).parse_expression()


def analyze_expression(expression: str) -> ExpressionAnalysis:
    """Classify an expression and collect the column labels it reads.

    The read of the column the expression runs against is implied by the
    owning operation, not reported by this analysis.
    """
    parsed = parse_expression(expression)
    if parsed is None:
        return OPAQUE_ANALYSIS
    referenced = []
    for term in parsed:
        if isinstance(term.base, CellRef) and term.base.label not in referenced:
            referenced.append(term.base.label)
    return ExpressionAnalysis(tuple(referenced), opaque=False)
