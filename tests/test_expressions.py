from __future__ import annotations

import re

import pytest

from refineflow import analyze_expression
from refineflow.expressions import CellRef, Literal, OwnValue, parse_expression

# Independent reference extractor: regex over the two cell-reference forms.
_BRACKET_REF = re.compile(r'cells\["((?:[^"\\]|\\.)*)"\]\.value')
_DOT_REF = re.compile(r"cells\.([A-Za-z_][A-Za-z0-9_]*)\.value")


def regex_references(expression: str) -> set[str]:
    found = {match.group(1).replace('\\"', '"') for match in _BRACKET_REF.finditer(expression)}
    found |= {match.group(1) for match in _DOT_REF.finditer(expression)}
    return found


def test_to_lowercase_is_own_column_only():
    analysis = analyze_expression("value.toLowercase()")
    assert analysis.references == ()
    assert not analysis.opaque


def test_bare_value():
    analysis = analyze_expression("value")
    assert analysis.references == ()
    assert not analysis.opaque


def test_cell_reference_concatenation():
    expr = 'cells["day"].value + "/" + cells["year"].value'
    analysis = analyze_expression(expr)
    assert analysis.references == ("day", "year")
    assert not analysis.opaque
    assert set(analysis.references) == regex_references(expr)


def test_grel_tag_stripped():
    analysis = analyze_expression("grel:value.trim()")
    assert not analysis.opaque
    assert analysis.references == ()


def test_non_grel_tags_opaque():
    for expr in ("jython:return value", "clojure:(identity value)"):
        analysis = analyze_expression(expr)
        assert analysis.opaque
        assert analysis.references == ()


def test_dot_form_reference():
    analysis = analyze_expression("cells.month.value")
    assert analysis.references == ("month",)


def test_methods_allowed_on_references():
    analysis = analyze_expression('cells["a"].value.trim().toUppercase()')
    assert analysis.references == ("a",)
    assert not analysis.opaque


def test_literal_only():
    analysis = analyze_expression('"abc" + \'def\'')
    assert not analysis.opaque
    assert analysis.references == ()


def test_escaped_quote_in_label():
    analysis = analyze_expression('cells["a\\"b"].value')
    assert analysis.references == ('a"b',)


@pytest.mark.parametrize(
    "expression",
    [
        "",
        "   ",
        "value.match(/x/)",
        "if(value == 1, 2, 3)",
        "1 + 2",
        "row.index",
        "value.toLowercase",
        "value.unknownMethod()",
        "cells[\"a\"]",
        "cells.a",
        "cells[day].value",
        'value + "unterminated',
        "value ++ value",
        "value.toLowercase(1)",
        "value!",
        "cells.value.value",
    ],
)
def test_unsupported_constructs_opaque(expression):
    analysis = analyze_expression(expression)
    assert analysis.opaque
    assert analysis.references == ()


CORPUS = [
    "value",
    "value.toLowercase()",
    "grel:value.toUppercase().trim()",
    'cells["day"].value + "/" + cells["year"].value',
    "cells.month.value + value",
    '"lit" + value.toString()',
    'grel:cells["a b"].value.toNumber() + cells["c"].value',
    'value.trim() + cells["q,r"].value',
]


def test_soundness_against_regex_oracle():
    """Non-opaque analyses list exactly the syntactically present references."""
    for expression in CORPUS:
        analysis = analyze_expression(expression)
        assert not analysis.opaque, expression
        assert len(set(analysis.references)) == len(analysis.references), expression
        assert set(analysis.references) == regex_references(expression), expression


def test_monotonic_reference_append():
    """Appending one more cell reference adds that column and nothing else."""
    for expression in CORPUS:
        base = analyze_expression(expression)
        extended = analyze_expression(expression + ' + cells["zz9"].value')
        assert not extended.opaque
        assert extended.references == base.references + ("zz9",)


def test_parse_expression_shape():
    parsed = parse_expression('grel:"x" + value.trim() + cells["c"].value')
    assert parsed is not None
    bases = [term.base for term in parsed]
    # Nodes are tuples, so Literal("c") == CellRef("c"): compare types too.
    assert [(type(base), base) for base in bases] == [
        (Literal, Literal("x")), (OwnValue, OwnValue()), (CellRef, CellRef("c"))
    ]
    assert parsed[1].methods == ("trim",)


def test_references_keep_first_mention_order():
    # "a" is a prefix of "ab", and the escaped label is spelled differently
    # in the source: neither may fall back to hash order.
    analysis = analyze_expression(
        'cells["ab"].value + cells["a"].value + cells["q\\"x"].value + cells["ab"].value'
    )
    assert analysis.references == ("ab", "a", 'q"x')
    assert analyze_expression("value.replace(1)").references == ()
