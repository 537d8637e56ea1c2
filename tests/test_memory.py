"""A conversion's peak memory is its largest stage, not the sum of them.

``cli.run`` holds the input text only until it is parsed, and the recipe
only until the models are built; the model builder frees its dependency
pairs before it makes a node. So the ``tracemalloc`` peak of a whole
conversion stays near the peak of its largest stage measured alone. Each
measurement follows a warm-up conversion, so that caches and the
interpreter's free lists are filled alike.
"""

from __future__ import annotations

import gc
import io
import json
import random
import tracemalloc

import pytest

from refineflow import cli, emit_dot, emit_yw, model, parse_recipe
from refineflow.cli import RunConfig
from refineflow.recipe import Recipe
from recipegen import random_recipe_entries

STEPS = 2000
# The whole conversion may exceed its largest stage by this factor.
SLACK = 1.15

EMITTERS = {"dot": emit_dot, "yw": emit_yw}


@pytest.fixture(scope="module")
def recipe_path(tmp_path_factory) -> str:
    entries = random_recipe_entries(random.Random(2000), STEPS, [f"c{k}" for k in range(50)])
    path = tmp_path_factory.mktemp("memory") / "recipe.json"
    path.write_text(json.dumps(entries), encoding="utf-8")
    return str(path)


def _convert(path: str, fmt: str, out: str) -> None:
    assert cli.run(RunConfig(path, out, format=fmt), stderr=io.StringIO()) == 0


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as stream:
        return stream.read()


def _traced_peak(stage, *args) -> int:
    """Peak traced bytes while ``stage(*args)`` runs, what is traced
    already included; the stage's result is dropped at once."""
    tracemalloc.reset_peak()
    stage(*args)
    return tracemalloc.get_traced_memory()[1]


def _parse_peak(path: str) -> int:
    # The text is read under tracing, so the stage counts it.
    return _traced_peak(lambda: parse_recipe(_read(path)))


def _build_peak(path: str) -> int:
    recipe = parse_recipe(_read(path))
    return _traced_peak(model.build_parallel, recipe)


def _emit_peak(path: str, fmt: str) -> int:
    workflow = model.build_parallel(parse_recipe(_read(path)))
    return _traced_peak(EMITTERS[fmt], workflow, "combined")


def _traced(measure, *args) -> int:
    tracemalloc.start()
    try:
        return measure(*args)
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fmt", sorted(EMITTERS))
def test_a_conversion_peaks_at_its_largest_stage(tmp_path, recipe_path, fmt):
    out = str(tmp_path / f"out.{fmt}")
    _convert(recipe_path, fmt, out)  # warm-up
    stages = {
        "parse": _traced(_parse_peak, recipe_path),
        "build": _traced(_build_peak, recipe_path),
        "emit": _traced(_emit_peak, recipe_path, fmt),
    }
    conversion = _traced(_traced_peak, _convert, recipe_path, fmt, out)
    largest = max(stages.values())
    assert conversion <= SLACK * largest, (
        f"conversion peak {conversion / 1e6:.2f} MB; stage peaks "
        + ", ".join(f"{name} {peak / 1e6:.2f} MB" for name, peak in stages.items())
    )


# emit_dot's traced transient memory, per byte of the text it returns. The
# text and its lines are alive together while they are joined, so the
# floor is about two; the edge roles, the cluster assignment and the
# identifiers are freed before that.
EMIT_BOUND = 3.5


@pytest.mark.parametrize("view", ["combined", "process"])
def test_emit_dot_holds_little_beside_its_text(recipe_path, view):
    # The process view is drawn from the step-only model, as the CLI builds it.
    workflow = model.build_parallel(parse_recipe(_read(recipe_path)), dataflow=view != "process")
    emit_dot(workflow, view)  # warm-up
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        text = emit_dot(workflow, view)
        transient = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert transient <= EMIT_BOUND * len(text), f"{transient / len(text):.2f} bytes per byte of text"


@pytest.mark.parametrize("fmt", sorted(EMITTERS))
def test_no_recipe_is_alive_while_the_output_is_emitted(tmp_path, recipe_path, fmt, monkeypatch):
    emit = cli._emit
    alive: list[int] = []

    def counting(*args, **kwargs):
        alive.append(sum(
            1 for obj in gc.get_objects() if isinstance(obj, Recipe) and len(obj) == STEPS
        ))
        return emit(*args, **kwargs)

    monkeypatch.setattr(cli, "_emit", counting)
    _convert(recipe_path, fmt, str(tmp_path / f"out.{fmt}"))
    assert alive == [0]
