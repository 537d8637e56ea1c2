"""The cyclic garbage collector around a conversion.

``cli.run`` pauses the collector and restores the caller's state on every
exit. The pause is safe because a conversion makes no reference cycle: a
collection during it would walk a growing heap and free nothing.
"""

from __future__ import annotations

import gc
import io
import json
import random
import sys
import threading

import pytest

from refineflow import model
from refineflow.cli import FORMATS, RunConfig, run
from refineflow.emit import VIEWS
from conftest import FIXTURES
from recipegen import acceptance_corpus, random_recipe_entries
from test_cli import ERROR_NAMES, ERROR_ORDER

MENUS = str(FIXTURES / "menus_recipe.json")
MASS_EDIT = str(FIXTURES / "mass_edit_run.json")
MENUS_TEXT = (FIXTURES / "menus_recipe.json").read_text(encoding="utf-8")


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request) -> bool:
    """Whether the collector is enabled when the test converts; the
    process's own state comes back afterwards."""
    was_enabled = gc.isenabled()
    if request.param:
        gc.enable()
    else:
        gc.disable()
    yield request.param
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


# name: (recipe text, or None for no input file; output path under the
# test's directory; exit status). The recipes the CLI refuses, with exit
# 1, are those of test_cli's ERROR_ORDER.
CASES = {
    "converted": (MENUS_TEXT, "out.dot", 0),
    "unreadable-input": (None, "out.dot", 2),
    "unwritable-output": (MENUS_TEXT, "missing/out.dot", 2),
}


def _case(tmp_path, name: str) -> tuple[RunConfig, int]:
    if name in ERROR_ORDER:
        case = ERROR_ORDER[name]
        recipe = str(case.write(tmp_path))
        return RunConfig(recipe, str(tmp_path / "out.dot"), split_arity_overrides=case.hints), 1
    text, output, status = CASES[name]
    recipe = tmp_path / "recipe.json"
    if text is not None:
        recipe.write_text(text, encoding="utf-8")
    return RunConfig(str(recipe), str(tmp_path / output)), status


@pytest.mark.parametrize(
    "name", ["converted", "malformed-json", "unreadable-input", "unwritable-output"]
)
def test_run_restores_the_collector(tmp_path, collector, name):
    config, status = _case(tmp_path, name)
    assert run(config, stderr=io.StringIO()) == status
    assert gc.isenabled() == collector


def test_run_restores_the_collector_when_an_exception_escapes(tmp_path, collector, monkeypatch):
    enabled_in_builder = []

    def failing(*args, **kwargs):
        enabled_in_builder.append(gc.isenabled())
        raise RuntimeError("builder failed")

    monkeypatch.setattr(model, "build_parallel", failing)
    with pytest.raises(RuntimeError, match="builder failed"):
        run(RunConfig(MENUS, str(tmp_path / "out.dot")), stderr=io.StringIO())
    assert enabled_in_builder == [False]
    assert gc.isenabled() == collector


THREADS = 8
ROUNDS = 5


def test_threads_converting_at_once_keep_the_collector_paused(tmp_path, collector, monkeypatch):
    statuses: list[int] = []
    paused: list[bool] = []
    build = model.build_parallel
    barrier = threading.Barrier(THREADS)

    def recording(*args, **kwargs):
        barrier.wait(timeout=30)  # every thread has a conversion in flight
        workflow = build(*args, **kwargs)
        paused.append(not gc.isenabled())
        return workflow

    def convert(thread: int) -> None:
        for _ in range(ROUNDS):
            config = RunConfig(MENUS, str(tmp_path / f"out_{thread}.dot"))
            statuses.append(run(config, stderr=io.StringIO()))

    monkeypatch.setattr(model, "build_parallel", recording)
    threads = [threading.Thread(target=convert, args=(k,)) for k in range(THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert statuses == [0] * (THREADS * ROUNDS)
    # Each build ran paused, with all eight conversions in flight.
    assert paused == [True] * (THREADS * ROUNDS)
    assert gc.isenabled() == collector


@pytest.mark.parametrize("collector", [True], indirect=True)
def test_a_long_conversion_runs_no_collection(tmp_path, collector):
    entries = random_recipe_entries(random.Random(2000), 2000, [f"c{k}" for k in range(50)])
    recipe = tmp_path / "recipe.json"
    recipe.write_text(json.dumps(entries), encoding="utf-8")
    collections: list[int] = []

    def count(phase: str, info: dict) -> None:
        if phase == "start":
            collections.append(info["generation"])

    gc.callbacks.append(count)
    try:
        status = run(RunConfig(str(recipe), str(tmp_path / "out.dot")), stderr=io.StringIO())
    finally:
        gc.callbacks.remove(count)
    assert status == 0
    assert collections == []


def _assert_cycle_free(config: RunConfig, status: int) -> str:
    """The conversion leaves no unreachable object for the collector;
    returns its diagnostics."""
    gc.collect()
    stderr = io.StringIO()
    assert run(config, stderr=stderr) == status
    assert gc.collect() == 0
    return stderr.getvalue()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("view", VIEWS)
@pytest.mark.parametrize("kind", model.MODEL_KINDS)
@pytest.mark.parametrize("recipe", [MENUS, MASS_EDIT], ids=["menus", "mass_edit"])
def test_a_conversion_makes_no_cycle(tmp_path, recipe, kind, view, fmt):
    config = RunConfig(recipe, str(tmp_path / f"out.{fmt}"), kind, view, fmt)
    _assert_cycle_free(config, 0)


@pytest.mark.parametrize("query", [("upstream", "repaired_date"), ("downstream", "step_6")])
def test_a_query_makes_no_cycle(tmp_path, query):
    _assert_cycle_free(RunConfig(MENUS, str(tmp_path / "out.dot"), query=query), 0)


@pytest.mark.parametrize("collector", [False], indirect=True)
def test_the_acceptance_corpus_makes_no_cycle(tmp_path, collector):
    # With the collector off throughout, a cycle any conversion made would
    # still be there for the one collection at the end.
    corpus = [recipe for recipe, _ in acceptance_corpus()]
    path = tmp_path / "recipe.json"
    gc.collect()
    for recipe in corpus:
        entries = [{"op": op.op_id, **op.params} for op in recipe.operations]
        path.write_text(json.dumps(entries), encoding="utf-8")
        assert run(RunConfig(str(path), str(tmp_path / "out.dot")), stderr=io.StringIO()) == 0
    assert gc.collect() == 0


@pytest.mark.parametrize("name", [*ERROR_NAMES, "unreadable-input", "unwritable-output"])
def test_an_error_makes_no_cycle(tmp_path, name):
    config, status = _case(tmp_path, name)
    diagnostics = _assert_cycle_free(config, status)
    if name in ERROR_ORDER:
        ERROR_ORDER[name].check(diagnostics)
    else:  # named by its code
        errors = [line for line in diagnostics.splitlines() if line.startswith("error ")]
        assert len(errors) == 1 and errors[0].startswith(f"error {name} ")
