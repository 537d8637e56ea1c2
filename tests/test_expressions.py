from __future__ import annotations

import random
import re
import time

import pytest

from refineflow import analyze_expression
from oracle import evaluate_expression, read_expression
from recipegen import EXPRESSION_TEMPLATES, acceptance_corpus, random_recipe_entries

# Independent reference extractor: regex over the two cell-reference forms.
_BRACKET_REF = re.compile(r'cells\["((?:[^"\\]|\\.)*)"\]\.value')
_DOT_REF = re.compile(r"cells\.([A-Za-z_][A-Za-z0-9_]*)\.value")


def regex_references(expression: str) -> set[str]:
    found = {match.group(1).replace('\\"', '"') for match in _BRACKET_REF.finditer(expression)}
    found |= {match.group(1) for match in _DOT_REF.finditer(expression)}
    return found


def oracle_reading(expression: str) -> tuple[tuple[str, ...], bool]:
    """The oracle's reading as (cell labels in first-mention order, opaque)."""
    operands = read_expression(expression)
    if operands is None:
        return (), True
    return tuple(dict.fromkeys(text for kind, text, _ in operands if kind == "cell")), False


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


UNSUPPORTED = [
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
]


@pytest.mark.parametrize("expression", UNSUPPORTED)
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


def test_oracle_evaluates_one_row():
    operands = read_expression('grel:"x" + value.trim() + cells["c"].value')
    assert operands == [("literal", "x", ()), ("value", "", ("trim",)), ("cell", "c", ())]
    row = {"c": "z"}
    assert evaluate_expression(operands, " y ", row.__getitem__) == "xyz"


def test_references_keep_first_mention_order():
    # "a" is a prefix of "ab", and the escaped label is spelled differently
    # in the source: neither may fall back to hash order.
    analysis = analyze_expression(
        'cells["ab"].value + cells["a"].value + cells["q\\"x"].value + cells["ab"].value'
    )
    assert analysis.references == ("ab", "a", 'q"x')
    assert analyze_expression("value.replace(1)").references == ()


BOUNDARY_CASES = [
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
]


@pytest.mark.parametrize(("expression", "references", "opaque"), BOUNDARY_CASES)
def test_subset_boundary_cases(expression, references, opaque):
    analysis = analyze_expression(expression)
    assert analysis == (references, opaque)
    assert oracle_reading(expression) == analysis


def _generated_expressions() -> set[str]:
    """Every expression text the recipe generator emits into the acceptance
    corpus and over non-ASCII labels, and every template it draws from."""
    entries = [op.params for recipe, _ in acceptance_corpus() for op in recipe.operations]
    entries += random_recipe_entries(random.Random(1), 300, ["café", "日付", "naïve x", "c3"])
    texts = {entry["expression"] for entry in entries if "expression" in entry}
    return texts | {"value", *EXPRESSION_TEMPLATES}


def test_oracle_reader_agrees_with_the_analysis():
    """The oracle reads expressions with its own reader; both readers give
    the same opacity and the same labels on every text the tests use."""
    boundary = [case[0] for case in BOUNDARY_CASES]
    generated = _generated_expressions()
    assert any("cells[" in text for text in generated)
    texts = [*CORPUS, *boundary, *UNSUPPORTED, *sorted(generated)]
    for expression in texts:
        assert oracle_reading(expression) == analyze_expression(expression), expression


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
