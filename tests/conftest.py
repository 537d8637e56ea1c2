from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from refineflow import Recipe, analyze_expression, infer_initial_schema, parse_recipe, trace_effects
from oracle import Table

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"

# pytest's ``pythonpath`` setting reaches this process only; child
# interpreters (``launch``) import the checkout's package too.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).parent.parent / "src"), os.environ.get("PYTHONPATH")])
)

# Python 3.11 (and 3.10.7) converts integer strings of at most 4,300 digits
# by default; the tests of a longer JSON integer need such a limit.
LONG_INT = "9" * 5001
needs_int_digit_limit = pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < len(LONG_INT),
    reason="no integer string conversion limit below 5,001 digits",
)


def launch(*args: str, env=None, timeout: float = 60, **kwargs) -> subprocess.CompletedProcess:
    """Run the CLI with ``args`` in a fresh interpreter, in development mode
    with every warning an error, and Python's default integer digit limit.
    ``env`` adds to the environment; other keywords go to ``subprocess.run``.
    Output that no keyword redirects is captured as bytes."""
    environ = {key: value for key, value in os.environ.items() if key != "PYTHONINTMAXSTRDIGITS"}
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "refineflow.cli", *args],
        stderr=subprocess.PIPE, env={**environ, **(env or {})}, timeout=timeout, **kwargs,
    )


@pytest.fixture
def analyzed(monkeypatch) -> list[str]:
    """Every expression text the decoder analyzes, in call order."""
    texts: list[str] = []

    def counting(text: str):
        texts.append(text)
        return analyze_expression(text)

    monkeypatch.setattr("refineflow.recipe.analyze_expression", counting)
    return texts


@pytest.fixture(scope="session")
def menus_text() -> str:
    return (FIXTURES / "menus_recipe.json").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def menus_recipe(menus_text) -> Recipe:
    return parse_recipe(menus_text)


@pytest.fixture(scope="session")
def menus_trace(menus_recipe):
    """(effects, (initial, final)) of the menus recipe over its inferred
    schema: the trace returns the schema before and after the recipe."""
    initial = infer_initial_schema(menus_recipe)
    return trace_effects(menus_recipe, initial)


@pytest.fixture(scope="session")
def menus_table() -> Table:
    return Table.from_csv((FIXTURES / "menus_sample.csv").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def mass_edit_recipe() -> Recipe:
    text = (FIXTURES / "mass_edit_run.json").read_text(encoding="utf-8")
    return parse_recipe(text)


def make_recipe(entries: list[dict]) -> Recipe:
    """Build a Recipe through the real parser from JSON-shaped entries."""
    return parse_recipe(json.dumps(entries))
