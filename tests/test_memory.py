"""A conversion's peak memory is its largest stage, not the sum of them.

``cli.run`` holds the input text only until it is parsed, and the recipe
only until the models are built. The model builder frees its dependency
pairs before it makes a node, and each group's effects once it has made
that group's nodes; the emitters free their tables before they join their
chunks, and the CLI writes one output text at a time, in slices. So the
``tracemalloc`` peak of a whole conversion stays near the peak of its
largest stage measured alone; the build and the emission peak about
alike. Each measurement follows a warm-up conversion, so that caches and
the interpreter's free lists are filled alike.
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
from conftest import traced_peak
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


# Each stage's inputs are made under tracing, and the peak is reset before
# the stage runs: its peak counts the inputs it holds, as in a conversion.
def _parse_stage(path: str) -> None:
    # The text is read under tracing, so the stage counts it.
    parse_recipe(_read(path))


def _build_stage(path: str) -> None:
    recipe = parse_recipe(_read(path))
    tracemalloc.reset_peak()
    model.build_parallel(recipe)


def _emit_stage(path: str, fmt: str) -> None:
    workflow = model.build_parallel(parse_recipe(_read(path)))
    tracemalloc.reset_peak()
    EMITTERS[fmt](workflow, "combined")


@pytest.mark.parametrize("fmt", sorted(EMITTERS))
def test_a_conversion_peaks_at_its_largest_stage(tmp_path, recipe_path, fmt):
    out = str(tmp_path / f"out.{fmt}")
    _convert(recipe_path, fmt, out)  # warm-up
    stages = {
        "parse": traced_peak(_parse_stage, recipe_path),
        "build": traced_peak(_build_stage, recipe_path),
        "emit": traced_peak(_emit_stage, recipe_path, fmt),
    }
    conversion = traced_peak(_convert, recipe_path, fmt, out)
    largest = max(stages.values())
    assert conversion <= SLACK * largest, (
        f"conversion peak {conversion / 1e6:.2f} MB; stage peaks "
        + ", ".join(f"{name} {peak / 1e6:.2f} MB" for name, peak in stages.items())
    )


# The build of the 2,000-step recipe's parallel model, in 10^6 bytes: it
# peaked at 4.3 while every effect stayed alive beside the model, and
# peaks at about 3.2 now that each group's effects die once it is built.
BUILD_BOUND_MB = 3.8


def test_the_build_frees_each_effect_once_used(recipe_path):
    recipe = parse_recipe(_read(recipe_path))
    model.build_parallel(recipe)  # warm-up
    peak = traced_peak(model.build_parallel, recipe)
    assert peak <= BUILD_BOUND_MB * 1e6, f"{peak / 1e6:.2f} MB"


# An emitter's traced transient memory, per byte of the text it returns.
# The chunks and the text are alive together while they are joined, so
# the floor is about two: a chunk of 16 lines costs little more than its
# text, and the tables are freed before the join. DOT's combined and
# process views sit near that floor. Its data view first makes an edge
# for each (input, output) pair of a step. YW's text holds identifiers
# only, about 85 bytes per step in the process view, while the identifier
# map and the ports cost about a hundred bytes per node. The combined
# view's text lists the param nodes too, so it holds less beside its
# text: about 5.8 times it, against 7.7 for the process view.
EMIT_BOUND = 2.5
DOT_DATA_BOUND = 6.0
YW_BOUNDS = {"combined": 6.5, "process": 9.0}


def _transient_per_byte(recipe_path: str, emit, view: str) -> float:
    # The DOT process view is drawn from the step-only model, as the CLI builds it.
    dataflow = (emit, view) != (emit_dot, "process")
    workflow = model.build_parallel(parse_recipe(_read(recipe_path)), dataflow=dataflow)
    text = emit(workflow, view)  # warm-up
    return traced_peak(emit, workflow, view) / len(text)


@pytest.mark.parametrize("view", ["combined", "process", "data"])
def test_emit_dot_holds_little_beside_its_text(recipe_path, view):
    ratio = _transient_per_byte(recipe_path, emit_dot, view)
    assert ratio <= (DOT_DATA_BOUND if view == "data" else EMIT_BOUND), f"{ratio:.2f} bytes per byte of text"


@pytest.mark.parametrize("view", sorted(YW_BOUNDS))
def test_emit_yw_holds_little_beside_its_text(recipe_path, view):
    ratio = _transient_per_byte(recipe_path, emit_yw, view)
    assert ratio <= YW_BOUNDS[view], f"{ratio:.2f} bytes per byte of text"


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
