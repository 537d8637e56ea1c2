from __future__ import annotations

import re
import time

import pytest

from refineflow import analyze_expression
from refineflow.expressions import Term, parse_expression

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
    assert parsed == (Term("literal", "x"), Term("value", "", ("trim",)), Term("cell", "c"))
    assert Term("literal", "c") != Term("cell", "c")


def test_references_keep_first_mention_order():
    # "a" is a prefix of "ab", and the escaped label is spelled differently
    # in the source: neither may fall back to hash order.
    analysis = analyze_expression(
        'cells["ab"].value + cells["a"].value + cells["q\\"x"].value + cells["ab"].value'
    )
    assert analysis.references == ("ab", "a", 'q"x')
    assert analyze_expression("value.replace(1)").references == ()


@pytest.mark.parametrize(
    ("expression", "references", "opaque"),
    [
        # A name after "cells." starts with a letter or "_" and is not "value".
        ("cells.value.value", (), True),
        ("cells.\u00b2x.value", (), True),
        ("cells.2a.value", (), True),
        ("cells.a\u00b2.value", ("a\u00b2",), False),
        ("cells._x9.value", ("_x9",), False),
        # Keywords are whole identifiers.
        ("valuex", (), True),
        ("cells.a.valuex", (), True),
        ("value.trimx()", (), True),
        # Every "+" needs a term after it, and nothing may follow the last.
        ("value +", (), True),
        ("value )", (), True),
        ("value.trim() value", (), True),
        ("cells", (), True),
        ('cells["a".value', (), True),
        # A backslash escapes the next character, so this string never ends.
        ('value + "abc\\', (), True),
        ("'a\\'", (), True),
        ('cells["a\\\\"].value', ("a\\",), False),
        # Only a leading "grel:" tag, in lower case, is stripped.
        ("GREL:value", (), True),
        (" grel:value", (), False),
        ("grel:", (), True),
        ("grel: ", (), True),
        # Any whitespace (as str.isspace) may separate tokens.
        ("value . trim ( ) + cells . a . value + cells [ 'b' ] . value", ("a", "b"), False),
        ("value\x1c.trim()\x1c+\x1ccells.c\x1c.value", ("c",), False),
        ("\u3000value\n", (), False),
    ],
)
def test_subset_boundary_cases(expression, references, opaque):
    analysis = analyze_expression(expression)
    assert analysis == (references, opaque)
    assert (parse_expression(expression) is None) == opaque


def test_many_references_keep_first_mention_order_in_linear_time():
    labels = [f"c{i}" for i in range(50_000)]
    expression = " + ".join(f'cells["{label}"].value' for label in labels + labels[::-1])
    start = time.perf_counter()
    analysis = analyze_expression(expression)
    elapsed = time.perf_counter() - start
    assert analysis.references == tuple(labels)
    assert not analysis.opaque
    # About 0.2 s; a quadratic dedup takes minutes.
    assert elapsed < 20
