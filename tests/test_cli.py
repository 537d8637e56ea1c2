from __future__ import annotations

import errno
import importlib.util
import io
import json
import os
import random
import re
import shutil
import sys
import weakref
from collections.abc import Mapping
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import pytest

import refineflow
from refineflow import cli, model
from refineflow.cli import FORMATS, RunConfig, main, run
from refineflow.emit import VIEWS
from refineflow.recipe import EMPTY_MAPPING, MAX_SPLIT_PARTS
from conftest import FIXTURES, GOLDEN, LONG_INT, launch, needs_int_digit_limit
from dotcheck import parse_dot
from recipegen import random_recipe_entries

MENUS = str(FIXTURES / "menus_recipe.json")
MASS_EDIT = str(FIXTURES / "mass_edit_run.json")


def run_cli(argv: list[str]) -> int:
    return main(argv)


def test_linear_dot_combined(tmp_path):
    out = tmp_path / "model.dot"
    status = run_cli(["-i", MENUS, "-t", "linear", "-f", "dot", "-v", "combined", "-o", str(out)])
    assert status == 0
    graph = parse_dot(out.read_text(encoding="utf-8"))
    steps = [n for n, attrs in graph.nodes.items() if attrs.get("fillcolor") == "#CCFFCC"]
    assert len(steps) == 8


def test_collapsed_writes_detail_file(tmp_path, analyzed):
    out = tmp_path / "model.dot"
    status = run_cli(["-i", MASS_EDIT, "-t", "collapsed", "-o", str(out)])
    assert status == 0
    # The detail model reads the recipe's decoded steps: nothing is decoded again.
    assert analyzed == ["value"]
    assert out.exists()
    details = sorted(tmp_path.glob("model.detail.*.dot"))
    assert len(details) == 1
    assert details[0].name == "model.detail.summary_0.dot"
    inner = parse_dot(details[0].read_text(encoding="utf-8"))
    greens = [n for n, attrs in inner.nodes.items() if attrs.get("fillcolor") == "#CCFFCC"]
    assert len(greens) == 10


def test_missing_input_exits_2(tmp_path, capsys):
    out = tmp_path / "never.dot"
    status = run_cli(["-i", str(tmp_path / "nope.json"), "-o", str(out)])
    assert status == 2
    assert not out.exists()
    assert "unreadable-input" in capsys.readouterr().err


def test_output_files_follow_the_umask(tmp_path):
    out = tmp_path / "model.dot"
    previous = os.umask(0o022)
    try:
        status = run_cli(["-i", MASS_EDIT, "-t", "collapsed", "-o", str(out)])
    finally:
        os.umask(previous)
    assert status == 0
    written = sorted(tmp_path.iterdir())
    assert [path.name for path in written] == ["model.detail.summary_0.dot", "model.dot"]
    assert all(path.stat().st_mode & 0o777 == 0o644 for path in written)


def test_output_in_missing_directory_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "model.dot"
    status = run_cli(["-i", MENUS, "-o", str(out)])
    assert status == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error")]
    assert len(errors) == 1 and errors[0].startswith(f"error unwritable-output - {out}: ")
    assert list(tmp_path.iterdir()) == []


def test_directory_as_output_exits_2(tmp_path, capsys):
    out = tmp_path / "model.dot"
    out.mkdir()
    status = run_cli(["-i", MENUS, "-o", str(out)])
    assert status == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error")]
    assert len(errors) == 1 and errors[0].startswith(f"error unwritable-output - {out}: ")
    assert list(tmp_path.iterdir()) == [out]
    assert list(out.iterdir()) == []


def test_failed_detail_write_keeps_main_output_unwritten(tmp_path, capsys):
    out = tmp_path / "model.dot"
    blocker = tmp_path / "model.detail.summary_0.dot"
    blocker.mkdir()
    status = run_cli(["-i", MASS_EDIT, "-t", "collapsed", "-o", str(out)])
    assert status == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error")]
    assert len(errors) == 1 and errors[0].startswith(f"error unwritable-output - {blocker}: ")
    assert list(tmp_path.iterdir()) == [blocker]
    assert list(blocker.iterdir()) == []


class _FullDisk:
    """A file stream that writes half of its text, then reports a full disk."""

    def __init__(self, stream):
        self.stream = stream

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.stream.close()

    def write(self, text: str):
        self.stream.write(text[: len(text) // 2])
        self.stream.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_write_failing_mid_file_keeps_previous_output(tmp_path, capsys, monkeypatch):
    out = tmp_path / "model.dot"
    out.write_text("previous\n", encoding="utf-8")
    fdopen = os.fdopen
    monkeypatch.setattr(cli.os, "fdopen", lambda *args, **kw: _FullDisk(fdopen(*args, **kw)))
    status = run_cli(["-i", MENUS, "-o", str(out)])
    assert status == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error")]
    assert errors == [f"error unwritable-output - {out}: {os.strerror(errno.ENOSPC)}"]
    assert list(tmp_path.iterdir()) == [out]
    assert out.read_text(encoding="utf-8") == "previous\n"


class ErrorCase(NamedTuple):
    """A recipe the CLI refuses with exit 1: its entries or raw text, its
    split hints, and its standard error. That is one line: ``stderr`` is
    the whole line when it ends in a newline, else the line's start."""

    recipe: list | str
    stderr: str
    hints: Mapping[str, int] = EMPTY_MAPPING

    def write(self, directory: Path) -> Path:
        path = directory / "recipe.json"
        text = self.recipe if isinstance(self.recipe, str) else json.dumps(self.recipe)
        path.write_text(text, encoding="utf-8")
        return path

    def check(self, stderr: str) -> None:
        assert stderr.startswith(self.stderr) and stderr.count("\n") == 1, stderr
        assert stderr.endswith("\n"), stderr


_REMOVE_A = {"op": "core/column-removal", "columnName": "a"}
_TRIM_A = {"op": "core/text-transform", "columnName": "a", "expression": "value.trim()"}
_TAKE_B = {"op": "core/text-transform", "columnName": "b", "expression": "value"}
_SPLIT_DATE = {"op": "core/column-split", "columnName": "date", "separator": "/"}
_FILL_DATE = {"op": "core/fill-down", "columnName": "date"}
_TOO_MANY_PARTS = (
    "error split-arity-too-large 0 step 0 (core/column-split) splits into 1001 columns; "
    "at most 1000 are supported\n"
)

# The one table of recipes the CLI refuses, each run in process and in a
# fresh interpreter. A row named by an error code is the plain case of it.
ERROR_ORDER = {
    "malformed-json": ErrorCase("{broken", "error malformed-json - input is not valid JSON: "),
    "deep-nesting": ErrorCase(
        "[" * 100000, "error malformed-json - input nests arrays or objects too deeply\n"
    ),
    # Python reads an integer past 4,300 digits only without a digit limit.
    "long-integer": ErrorCase(
        '[{"op": "core/text-transform", "columnName": "a", "expression": "value.trim()", '
        '"repeatCount": ' + LONG_INT + "}]",
        "error malformed-json - input holds an integer with too many digits to read\n",
    ),
    # Python's decoder reads NaN, Infinity and -Infinity; JSON has none of them.
    "non-json-constants": ErrorCase(
        '[{"op":"core/mass-edit","columnName":"a","expression":"value","edits":[NaN,Infinity,-Infinity]}]',
        "error malformed-json - input holds NaN, which is not JSON\n",
    ),
    # No UTF-8 output can carry a lone surrogate.
    "lone-surrogate": ErrorCase(
        r'[{"op":"core/text-transform","columnName":"a\ud800","expression":"value.trim()"}]',
        "error malformed-json - input holds a lone surrogate escape, which is not UTF-8 text\n",
    ),
    # A reorder whose columnNames is not a list is not a step that reads
    # and writes nothing.
    "reorder-names-not-a-list": ErrorCase(
        [_TRIM_A, {"op": "core/column-reorder", "columnNames": "a"}, _TRIM_A],
        "error missing-param 1 step 1 (core/column-reorder): columnNames is not a list\n",
    ),
    "missing-param": ErrorCase(
        [{"op": "core/fill-down"}],
        "error missing-param 0 step 0 (core/fill-down) lacks required parameter 'columnName'\n",
    ),
    "split-past-the-cap": ErrorCase(
        [{**_SPLIT_DATE, "maxColumns": MAX_SPLIT_PARTS + 1}, _FILL_DATE], _TOO_MANY_PARTS,
    ),
    "split-past-the-cap-fieldLengths": ErrorCase(
        [{**_SPLIT_DATE, "fieldLengths": [1] * (MAX_SPLIT_PARTS + 1)}, _FILL_DATE],
        _TOO_MANY_PARTS,
    ),
    "split-past-the-cap-hint": ErrorCase(
        [_SPLIT_DATE, _FILL_DATE], _TOO_MANY_PARTS, {"date": MAX_SPLIT_PARTS + 1},
    ),
    "unresolved-column": ErrorCase(
        [_REMOVE_A, {"op": "core/text-transform", "columnName": "a", "expression": "value"}],
        "error unresolved-column 1 step 1 (core/text-transform) references column 'a' "
        "which is not live at that point\n",
    ),
    "label-collision": ErrorCase(
        [_TAKE_B, {"op": "core/column-rename", "oldColumnName": "a", "newColumnName": "b"}],
        "error label-collision 1 duplicate column label 'b'\n",
    ),
    "label-collision-of-an-addition": ErrorCase(
        [_TAKE_B, {"op": "core/column-addition", "baseColumnName": "a", "newColumnName": "b",
                   "expression": "value"}],
        "error label-collision 1 duplicate column label 'b'\n",
    ),
    # Named in linear time: after 40 pinned 1,000-part splits, an addition
    # named like a middle column.
    "label-collision-after-40-splits": ErrorCase(
        [
            {"op": "core/column-split", "columnName": f"a {k}" if k > 1 else "a",
             "separator": ",", "maxColumns": 1000, "removeOriginalColumn": False}
            for k in range(1, 41)
        ]
        + [{"op": "core/column-addition", "baseColumnName": "a 1000", "newColumnName": "a 20 500",
            "expression": "value"}],
        "error label-collision 40 duplicate column label 'a 20 500'\n",
    ),
    # Several faults. Within a step, a malformed parameter comes before an
    # unresolved label or a part count past the cap; across steps, the
    # first failing step is reported, whether the count past the cap is
    # pinned or hinted and whether a key is null or absent.
    "rename-to-int-of-removed": ErrorCase(
        [_REMOVE_A, {"op": "core/column-rename", "oldColumnName": "a", "newColumnName": 7}],
        "error missing-param 1 step 1 (core/column-rename): newColumnName is not a string\n",
    ),
    "reorder-int-after-removed": ErrorCase(
        [_REMOVE_A, {"op": "core/column-reorder", "columnNames": ["a", 7]}],
        "error missing-param 1 step 1 (core/column-reorder): "
        "column name parameter is not a string\n",
    ),
    "split-int-over-cap": ErrorCase(
        [{"op": "core/column-split", "columnName": 7, "separator": ",", "maxColumns": 5000}],
        "error missing-param 0 step 0 (core/column-split): column name parameter is not a string\n",
    ),
    "null-fill-down-then-split-over-cap": ErrorCase(
        [
            {"op": "core/fill-down", "columnName": None},
            {"op": "core/column-split", "columnName": "d", "separator": ",", "maxColumns": 5000},
        ],
        "error missing-param 0 step 0 (core/fill-down) lacks required parameter 'columnName'\n",
    ),
    "null-fill-down-then-hinted-split-over-cap": ErrorCase(
        [
            {"op": "core/fill-down", "columnName": None},
            {"op": "core/column-split", "columnName": "d", "separator": ","},
        ],
        "error missing-param 0 step 0 (core/fill-down) lacks required parameter 'columnName'\n",
        {"d": 5000},
    ),
    "null-new-label-reading-removed": ErrorCase(
        [
            {"op": "core/column-removal", "columnName": "b"},
            {"op": "core/column-addition", "baseColumnName": "a", "newColumnName": None,
             "expression": "grel:cells.b.value"},
        ],
        "error missing-param 1 step 1 (core/column-addition) "
        "lacks required parameter 'newColumnName'\n",
    ),
    "null-fill-down-then-absent-fill-down": ErrorCase(
        [{"op": "core/fill-down", "columnName": None}, {"op": "core/fill-down"}],
        "error missing-param 0 step 0 (core/fill-down) lacks required parameter 'columnName'\n",
    ),
    "unresolved-read-then-absent-new-label": ErrorCase(
        [
            _REMOVE_A,
            {"op": "core/fill-down", "columnName": "a"},
            {"op": "core/column-rename", "oldColumnName": "b"},
        ],
        "error unresolved-column 1 step 1 (core/fill-down) references column 'a' "
        "which is not live at that point\n",
    ),
}
ERROR_NAMES = [
    pytest.param(name, marks=needs_int_digit_limit if name == "long-integer" else ())
    for name in sorted(ERROR_ORDER)
]


@pytest.mark.parametrize("name", ERROR_NAMES)
def test_error_order_of_a_recipe_with_several_faults(tmp_path, capsys, name):
    # The builder runs the trace, so every model kind reports the same.
    case = ERROR_ORDER[name]
    recipe = str(case.write(tmp_path))
    for kind in model.MODEL_KINDS:
        for output in (str(tmp_path / "never.dot"), "-"):
            stderr = io.StringIO()
            config = RunConfig(recipe, output, model_kind=kind, split_arity_overrides=case.hints)
            assert run(config, stderr=stderr) == 1
            case.check(stderr.getvalue())
            assert capsys.readouterr().out == ""
            assert os.listdir(tmp_path) == ["recipe.json"]


@pytest.mark.parametrize("name", ERROR_NAMES)
def test_error_order_in_a_fresh_interpreter(tmp_path, name):
    # Each refusal is quick; the bound catches one that is not linear.
    case = ERROR_ORDER[name]
    argv = ["-i", str(case.write(tmp_path)), "-o", str(tmp_path / "never.dot")]
    for label, parts in case.hints.items():
        argv += ["--split-arity", f"{label}={parts}"]
    result = launch(*argv, timeout=5)
    assert result.returncode == 1
    case.check(result.stderr.decode("utf-8"))
    assert result.stdout == b""
    assert os.listdir(tmp_path) == ["recipe.json"]


@pytest.mark.parametrize("output", ["file", "-"])
def test_lone_surrogate_escape_exits_1_without_output(tmp_path, capsys, output):
    # Through main's argument parsing, to a file and to standard output.
    case = ERROR_ORDER["lone-surrogate"]
    recipe = str(case.write(tmp_path))
    status = run_cli(["-i", recipe, "-o", str(tmp_path / "never.dot") if output == "file" else "-"])
    assert status == 1
    assert os.listdir(tmp_path) == ["recipe.json"]
    captured = capsys.readouterr()
    assert captured.out == ""
    case.check(captured.err)


def test_non_utf8_input_exits_2(tmp_path, capsys):
    recipe = tmp_path / "latin1.json"
    recipe.write_bytes(b'[{"op": "core/fill-down", "columnName": "caf\xe9"}]')
    out = tmp_path / "never.dot"
    status = run_cli(["-i", str(recipe), "-o", str(out)])
    assert status == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error unreadable-input - ")
    assert err.count("\n") == 1


def _deep_mass_edits(depth: int, key: str = "edits") -> str:
    """Three mass edits whose ``key`` nests ``depth`` arrays. Under another
    key than "edits", the edits are empty."""
    nested = "[" * depth + "]" * depth
    fields = f'"edits": {nested}' if key == "edits" else f'"edits": [], "{key}": {nested}'
    entry = '{"op": "core/mass-edit", "columnName": "a", "expression": "value", %s}' % fields
    return "[" + ", ".join([entry] * 3) + "]"


def test_params_nested_near_the_json_depth_limit_end_in_a_diagnostic(tmp_path):
    # The deepest nesting the CLI reads, found with the nesting under a key
    # no step renders. Near it, whether a step's params render is decided
    # once, by the decoder: every model, view and format exits the same way.
    recipe = tmp_path / "deep.json"
    # Too deep to read (no step), or to render (the first step).
    too_deep = {
        f"error malformed-json {step} input nests arrays or objects too deeply\n"
        for step in ("-", "0 step 0 (core/mass-edit):")
    }

    def status(kind: str, view: str, fmt: str) -> int:
        stderr = io.StringIO()
        config = RunConfig(str(recipe), str(tmp_path / f"out.{fmt}"), kind, view, fmt)
        code = run(config, stderr=stderr)
        assert stderr.getvalue() in too_deep if code else stderr.getvalue() == ""
        return code

    low, high = 1, 100_000  # the CLI reads ``low`` levels, and not ``high``
    while high - low > 1:
        middle = (low + high) // 2
        recipe.write_text(_deep_mass_edits(middle, key="description"), encoding="utf-8")
        low, high = (middle, high) if status(model.PARALLEL, "combined", "dot") == 0 else (low, middle)
    for depth in range(low - 3, low + 1):
        for key in ("edits", "expression"):
            recipe.write_text(_deep_mass_edits(depth, key), encoding="utf-8")
            codes = set()
            for kind in model.MODEL_KINDS:  # loops: a comprehension is one frame deeper
                for view in ("combined", "process"):
                    for fmt in FORMATS:
                        codes.add(status(kind, view, fmt))
            assert len(codes) == 1, (depth, key)


class _FailsOnSecondWrite:
    """A sink that takes one write, then reports a full disk; ``writes``
    counts the attempts."""

    def __init__(self, stream):
        self.stream = stream
        self.writes = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.stream.close()

    def write(self, data):
        self.writes += 1
        if self.writes > 1:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self.stream.write(data)

    def flush(self):
        self.stream.flush()


def _long_recipe(tmp_path) -> str:
    """A recipe whose combined DOT is several slices long."""
    path = tmp_path / "long.json"
    path.write_text(json.dumps(random_recipe_entries(random.Random(7), 200, ["a", "b", "c"])), encoding="utf-8")
    return str(path)


def test_write_failing_on_its_second_slice_keeps_previous_output(tmp_path, monkeypatch):
    # The text goes to the file in slices: a write fails part way, and the
    # temporary file goes, as after a failed single write.
    out = tmp_path / "model.dot"
    out.write_text("previous\n", encoding="utf-8")
    recipe = _long_recipe(tmp_path)
    sinks = []

    def failing(*args, **kwargs):
        sinks.append(_FailsOnSecondWrite(fdopen(*args, **kwargs)))
        return sinks[-1]

    fdopen = os.fdopen
    monkeypatch.setattr(cli.os, "fdopen", failing)
    stderr = io.StringIO()
    assert run(RunConfig(recipe, str(out)), stderr=stderr) == 2
    assert [sink.writes for sink in sinks] == [2]
    errors = [line for line in stderr.getvalue().splitlines() if line.startswith("error")]
    assert errors == [f"error unwritable-output - {out}: {os.strerror(errno.ENOSPC)}"]
    assert sorted(path.name for path in tmp_path.iterdir()) == ["long.json", "model.dot"]
    assert out.read_text(encoding="utf-8") == "previous\n"


def test_stdout_failing_on_its_second_slice_exits_2(tmp_path, monkeypatch):
    sink = _FailsOnSecondWrite(io.BytesIO())
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(buffer=sink, flush=lambda: None))
    stderr = io.StringIO()
    assert run(RunConfig(_long_recipe(tmp_path), "-"), stderr=stderr) == 2
    assert sink.writes == 2
    errors = [line for line in stderr.getvalue().splitlines() if line.startswith("error")]
    assert errors == [f"error unwritable-output - <stdout>: {os.strerror(errno.ENOSPC)}"]


class _Text(str):
    """An output text that a weak reference can follow."""


def test_one_output_text_is_alive_at_a_time(tmp_path, monkeypatch):
    # The main file and each detail file are emitted only as they are
    # written, and each text is freed before the next is emitted.
    emit = cli._emit
    texts: list[weakref.ref] = []
    alive: list[int] = []

    def tracking(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in texts))
        text = _Text(emit(*args, **kwargs))
        texts.append(weakref.ref(text))
        return text

    monkeypatch.setattr(cli, "_emit", tracking)
    recipe = tmp_path / "runs.json"
    trims = [
        {"op": "core/text-transform", "columnName": column, "expression": "value.trim()"}
        for column in "aaabbb"
    ]
    recipe.write_text(json.dumps(trims), encoding="utf-8")
    out = tmp_path / "model.dot"
    assert run(RunConfig(str(recipe), str(out), model.COLLAPSED), stderr=io.StringIO()) == 0
    assert alive == [0, 0, 0]
    assert sorted(path.name for path in tmp_path.glob("model.*")) == [
        "model.detail.summary_0.dot", "model.detail.summary_3.dot", "model.dot",
    ]


def test_failed_write_to_stdout_exits_2(monkeypatch):
    class FullDevice(io.BytesIO):
        def write(self, data):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(FullDevice(), encoding="utf-8"))
    stderr = io.StringIO()
    assert run(RunConfig(MASS_EDIT, "-"), stderr=stderr) == 2
    lines = stderr.getvalue().splitlines()
    assert [line for line in lines if not line.startswith("info unused-param ")] == [
        f"error unwritable-output - <stdout>: {os.strerror(errno.ENOSPC)}"
    ]


def test_warnings_do_not_change_exit_status(tmp_path, capsys):
    recipe = tmp_path / "recipe.json"
    recipe.write_text(json.dumps([{"op": "vendor/exotic"}]), encoding="utf-8")
    out = tmp_path / "model.dot"
    status = run_cli(["-i", str(recipe), "-o", str(out)])
    assert status == 0
    assert out.exists()
    assert "warning unknown-op 0 " in capsys.readouterr().err


def test_findings_reach_stderr_in_one_write_before_the_error(tmp_path):
    # A line-buffered stderr makes a system call per write.
    class Writes(io.StringIO):
        def __init__(self):
            super().__init__()
            self.writes: list[str] = []

        def write(self, text: str) -> int:
            self.writes.append(text)
            return super().write(text)

    transform = {
        "op": "core/text-transform", "columnName": "a", "expression": "value",
        "engineConfig": {"mode": "row-based"},
    }
    recipe = tmp_path / "recipe.json"
    recipe.write_text(
        json.dumps([transform, transform, {"op": "core/column-removal", "columnName": "b"},
                    {"op": "core/fill-down", "columnName": "b"}]),
        encoding="utf-8",
    )
    stderr = Writes()
    assert run(RunConfig(str(recipe), str(tmp_path / "never.dot")), stderr=stderr) == 1
    findings, error = stderr.writes
    assert [line.split(" ", 3)[:3] for line in findings.splitlines()] == [
        ["info", "unused-param", "0"], ["info", "unused-param", "1"],
    ]
    assert error.startswith("error unresolved-column 3 ") and error.count("\n") == 1


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as info:
        run_cli(["-i", MENUS, "-t", "sideways"])
    assert info.value.code == 2


def test_bad_split_arity_value_exits_2():
    with pytest.raises(SystemExit) as info:
        run_cli(["-i", MENUS, "--split-arity", "datefour"])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--split-arity", "a=x"], "split arity 'x' is not an integer"),
        (["--split-arity", "a=0"], "split arity must be >= 1"),
        (["--split-arity", "a3"], "--split-arity expects <column>=<parts>, got 'a3'"),
        (["--query", "sideways:x"], "--query expects upstream:<node> or downstream:<node>"),
    ],
)
def test_bad_option_value_exits_2_with_usage(capsys, argv, message):
    with pytest.raises(SystemExit) as info:
        run_cli(["-i", MENUS, *argv])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: refineflow ")
    assert message in err.splitlines()[-1]
    assert "Traceback" not in err


def test_low_collapse_threshold_exits_2():
    with pytest.raises(SystemExit) as info:
        run_cli(["-i", MENUS, "--collapse-threshold", "1"])
    assert info.value.code == 2


def test_byte_identical_across_runs(tmp_path):
    first = tmp_path / "a.yw"
    second = tmp_path / "b.yw"
    for path in (first, second):
        assert run_cli(["-i", MENUS, "-t", "parallel", "-f", "yw", "-o", str(path)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_stdout_output(capsys):
    status = run_cli(["-i", MENUS, "-t", "linear", "-v", "data", "-o", "-"])
    assert status == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph workflow {")
    parse_dot(out)


def test_a_taken_temporary_name_is_skipped_and_left_alone(tmp_path, monkeypatch):
    taken = tmp_path / f".refineflow-{bytes(6).hex()}.tmp"
    taken.write_bytes(b"not ours\n")
    names = [bytes(6), b"\x01" * 6]
    monkeypatch.setattr(os, "urandom", lambda size: names.pop(0))
    out = tmp_path / "model.dot"
    assert run_cli(["-i", MENUS, "-o", str(out)]) == 0
    assert names == []
    assert taken.read_bytes() == b"not ours\n"
    assert out.read_text(encoding="utf-8").startswith("digraph workflow {")
    assert sorted(os.listdir(tmp_path)) == sorted([taken.name, "model.dot"])


def test_stdout_collapsed_warns_about_details(capsys):
    status = run_cli(["-i", MASS_EDIT, "-t", "collapsed", "-o", "-"])
    assert status == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("digraph workflow {")
    assert "details-skipped" in captured.err


def test_stdout_collapsed_builds_no_detail_model(monkeypatch, capsys):
    emitted, built = [], []
    emit_dot, build_linear = cli.emit_dot, model.build_linear

    def counting_emit(*args, **kwargs):
        emitted.append(args)
        return emit_dot(*args, **kwargs)

    def counting_build(*args, **kwargs):
        built.append(args)
        return build_linear(*args, **kwargs)

    monkeypatch.setattr(cli, "emit_dot", counting_emit)
    monkeypatch.setattr(model, "build_linear", counting_build)
    assert run_cli(["-i", MASS_EDIT, "-t", "collapsed", "-o", "-"]) == 0
    assert (len(emitted), len(built)) == (1, 0)
    assert capsys.readouterr().err.splitlines()[-1] == (
        "warning details-skipped - 1 collapsed-run detail file(s) require a file "
        "output path; none were written"
    )


def test_query_upstream_restricts_output(tmp_path):
    out = tmp_path / "lineage.dot"
    status = run_cli(
        ["-i", MENUS, "-t", "parallel", "-v", "data", "--query", "upstream:repaired_date", "-o", str(out)]
    )
    assert status == 0
    graph = parse_dot(out.read_text(encoding="utf-8"))
    labels = {attrs["label"] for attrs in graph.nodes.values()}
    assert "repaired_date" in labels
    assert "date" in labels
    assert "event" not in labels


def test_query_downstream(tmp_path):
    out = tmp_path / "impact.dot"
    status = run_cli(
        ["-i", MENUS, "-t", "parallel", "-v", "data", "--query", "downstream:date_v0", "-o", str(out)]
    )
    assert status == 0
    graph = parse_dot(out.read_text(encoding="utf-8"))
    labels = {attrs["label"] for attrs in graph.nodes.values()}
    assert {"date", "day", "month", "year", "repaired_date"} <= labels
    assert "dish_count" not in labels


def test_query_by_the_identifier_the_output_shows(tmp_path):
    whole = tmp_path / "whole.dot"
    assert run_cli(["-i", MENUS, "-o", str(whole)]) == 0
    assert '"text_transform_5"' in whole.read_text(encoding="utf-8")
    outputs = []
    for node in ("step_5", "text_transform_5"):
        out = tmp_path / f"{node}.dot"
        assert run_cli(["-i", MENUS, "--query", f"downstream:{node}", "-o", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    ("query", "names"),
    [
        # Outside the whole model, these nodes would lose the collisions
        # that give them their step index.
        ("downstream:step_6", {"text_transform_6"}),
        ("upstream:repaired_date", {"columnName_0", "expression_4"}),
        ("downstream:date_v0", {"column_split", "column_addition"}),
    ],
)
def test_query_output_names_nodes_as_the_whole_model_does(tmp_path, query, names):
    shown = set()
    for view in ("combined", "process"):
        whole, part = tmp_path / f"whole_{view}.dot", tmp_path / f"part_{view}.dot"
        assert run_cli(["-i", MENUS, "-v", view, "-o", str(whole)]) == 0
        assert run_cli(["-i", MENUS, "-v", view, "--query", query, "-o", str(part)]) == 0
        whole_nodes = parse_dot(whole.read_text(encoding="utf-8")).nodes
        part_nodes = parse_dot(part.read_text(encoding="utf-8")).nodes
        assert part_nodes
        assert {node: whole_nodes.get(node) for node in part_nodes} == part_nodes
        shown |= set(part_nodes)
    assert names <= shown
    whole, part = tmp_path / "whole.yw", tmp_path / "part.yw"
    assert run_cli(["-i", MENUS, "-f", "yw", "-o", str(whole)]) == 0
    assert run_cli(["-i", MENUS, "-f", "yw", "--query", query, "-o", str(part)]) == 0
    lines = set(whole.read_text(encoding="utf-8").splitlines())
    assert set(part.read_text(encoding="utf-8").splitlines()) <= lines


def test_query_label_resolves_to_the_column_that_holds_it_last(tmp_path):
    # "a" is removed, then a new column takes the label: a query by label
    # names the new column, not the removed one. The removed "a" is ordered
    # before the addition by the label alone, so it is not in the lineage.
    recipe = tmp_path / "reused.json"
    recipe.write_text(
        json.dumps(
            [
                {"op": "core/column-removal", "columnName": "a"},
                {"op": "core/column-addition", "baseColumnName": "b", "newColumnName": "a", "expression": "value"},
            ]
        ),
        encoding="utf-8",
    )
    out = tmp_path / "lineage.dot"
    for direction, expected in (("upstream", {"b_v0", "a_v0_c2"}), ("downstream", {"a_v0_c2"})):
        status = run_cli(["-i", str(recipe), "-v", "data", "--query", f"{direction}:a", "-o", str(out)])
        assert status == 0
        assert set(parse_dot(out.read_text(encoding="utf-8")).nodes) == expected


def test_query_unknown_node_exits_1(tmp_path, capsys):
    status = run_cli(["-i", MENUS, "--query", "upstream:ghost", "-o", str(tmp_path / "x.dot")])
    assert status == 1
    assert "unknown-node" in capsys.readouterr().err


def test_query_keeps_only_reachable_details(tmp_path):
    # Lineage of the summarized column keeps the detail file; lineage of an
    # unrelated column drops it.
    entries = json.loads((FIXTURES / "mass_edit_run.json").read_text(encoding="utf-8"))
    entries.append({"op": "core/fill-down", "columnName": "other"})
    recipe = tmp_path / "recipe.json"
    recipe.write_text(json.dumps(entries), encoding="utf-8")

    kept = tmp_path / "kept.dot"
    status = run_cli(
        ["-i", str(recipe), "-t", "collapsed", "--query", "upstream:status", "-o", str(kept)]
    )
    assert status == 0
    assert sorted(tmp_path.glob("kept.detail.*.dot")) != []

    dropped = tmp_path / "dropped.dot"
    status = run_cli(
        ["-i", str(recipe), "-t", "collapsed", "--query", "upstream:other", "-o", str(dropped)]
    )
    assert status == 0
    assert sorted(tmp_path.glob("dropped.detail.*.dot")) == []


def test_split_arity_override(tmp_path, capsys):
    recipe = tmp_path / "recipe.json"
    recipe.write_text(
        json.dumps(
            [
                {
                    "op": "core/column-split",
                    "columnName": "date",
                    "mode": "separator",
                    "separator": "/",
                }
            ]
        ),
        encoding="utf-8",
    )
    out = tmp_path / "model.dot"
    status = run_cli(["-i", str(recipe), "-t", "linear", "-o", str(out)])
    assert status == 0
    assert "split-arity-defaulted" in capsys.readouterr().err

    status = run_cli(
        ["-i", str(recipe), "-t", "parallel", "-v", "data", "--split-arity", "date=4", "-o", str(out)]
    )
    assert status == 0
    err = capsys.readouterr().err
    assert "split-arity-defaulted" not in err
    graph = parse_dot(out.read_text(encoding="utf-8"))
    labels = {attrs["label"] for attrs in graph.nodes.values()}
    assert {"date 1", "date 2", "date 3", "date 4"} <= labels


_UPPER_B = {"op": "core/text-transform", "columnName": "b", "expression": "value.toUppercase()"}


@pytest.mark.parametrize(
    "reader",
    [
        # A mass edit matches its edits against its key expression.
        {"op": "core/mass-edit", "columnName": "a", "expression": 'grel:cells["b"].value',
         "edits": [{"from": ["x"], "to": "hit"}]},
        {"op": "core/column-addition", "baseColumnName": "a", "newColumnName": "c",
         "expression": "grel:cells.b.value + value"},
    ],
    ids=["keyed-mass-edit", "dotted-reference"],
)
def test_a_read_of_b_is_ordered_after_the_step_that_rewrites_b(tmp_path, reader):
    recipe, out = tmp_path / "recipe.json", tmp_path / "process.dot"
    recipe.write_text(json.dumps([_UPPER_B, reader]), encoding="utf-8")
    assert run(RunConfig(str(recipe), str(out), view="process"), stderr=io.StringIO()) == 0
    (edge,) = parse_dot(out.read_text(encoding="utf-8")).edges
    assert edge[0] == "text_transform"


# Odd parameter values: wrong types, huge and fractional numbers, empty and
# long strings, nested containers, lone surrogates (which the JSON file
# carries as escapes) and a label like one a split gives.
HOSTILE = [
    None, True, -1, 10**12, 2**63, 1.5, "", "x" * 5000, "a 1", "\ud800", "a\udfff",
    [], [1, "x"], [["a", ["b"]], []], {}, {"k": None},
]
# Ids a mutated entry now and then takes instead of its own.
OTHER_OPS = ["core/row-removal", "core/column-move", "core/column-reorder", "example/unknown-op"]


def _mutations(entry: dict, rng: random.Random):
    """Seeded hostile variants of one recipe entry: one or two parameters
    set to odd values or dropped, now and then under another op id."""
    keys = [key for key in entry if key != "op"]
    for _ in range(5):
        mutated = dict(entry)
        for key in rng.sample(keys, rng.randint(1, min(2, len(keys)))):
            if rng.random() < 0.25:
                del mutated[key]
            else:
                mutated[key] = rng.choice(HOSTILE)
        if rng.random() < 0.1:
            mutated["op"] = rng.choice(OTHER_OPS)
        yield mutated
    if entry["op"] == "core/column-split":
        yield {**entry, "maxColumns": rng.choice([MAX_SPLIT_PARTS + 1, 10**9, 2**63])}


def _fuzz_recipes(rng: random.Random):
    """Each fixture and seeded generated recipe with one entry mutated."""
    sources = [
        json.loads((FIXTURES / fixture).read_text(encoding="utf-8"))
        for fixture in ("menus_recipe.json", "mass_edit_run.json")
    ]
    sources += [
        random_recipe_entries(rng, rng.randint(3, 12), [f"c{k}" for k in range(rng.randint(1, 5))])
        for _ in range(130)
    ]
    for entries in sources:
        for position, entry in enumerate(entries):
            for mutated in _mutations(entry, rng):
                yield entries[:position] + [mutated] + entries[position + 1 :]


_DIAGNOSTIC = re.compile(r"^(error|warning|info) \S+ (-|\d+) ")


def test_cli_fuzz_gives_exit_code_and_one_line_diagnostics(tmp_path, capsys):
    rng = random.Random(2024)
    recipe = tmp_path / "fuzz.json"
    statuses = []
    for entries in _fuzz_recipes(rng):
        recipe.write_text(json.dumps(entries))
        # The model, view, format, threshold, query and output all vary.
        query = rng.choice([None, None, None, "step_0", "step_1", "c0", "a 1", "missing"])
        config = RunConfig(
            str(recipe),
            rng.choice([str(tmp_path / "model.out"), "-"]),
            rng.choice(model.MODEL_KINDS),
            rng.choice(VIEWS),
            rng.choice(FORMATS),
            rng.choice([2, 3]),
            query=query and (rng.choice(["upstream", "downstream"]), query),
        )
        stderr = io.StringIO()
        try:
            status = run(config, stderr=stderr)
        except Exception as exc:
            raise AssertionError(f"{config} on {entries}") from exc
        capsys.readouterr()
        assert status in (0, 1), (config, entries)
        for line in stderr.getvalue().splitlines():
            assert _DIAGNOSTIC.match(line), (config, entries, line)
        statuses.append(status)
    assert len(statuses) >= 4500
    assert {0, 1} <= set(statuses)


def test_console_script_entry_point(tmp_path):
    out = tmp_path / "cli.dot"
    result = launch("-i", MENUS, "-o", str(out))
    assert result.returncode == 0, result.stderr
    assert out.exists()


@pytest.mark.parametrize("golden", sorted(path.name for path in GOLDEN.glob("menus_*")))
def test_golden_from_a_fresh_interpreter(tmp_path, golden):
    # The YW goldens carry the workflow name "menus", the input's stem.
    kind, view, fmt = re.fullmatch(r"menus_([a-z]+)_([a-z]+)\.([a-z]+)", golden).groups()
    recipe, out = tmp_path / "menus.json", tmp_path / f"out.{fmt}"
    shutil.copyfile(MENUS, recipe)
    result = launch("-i", str(recipe), "-t", kind, "-v", view, "-f", fmt, "-o", str(out))
    assert result.returncode == 0, result.stderr
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


def test_detail_files_from_a_fresh_interpreter(tmp_path):
    # One detail file per summary beside a file output, and none beside
    # standard output.
    files, stdout = tmp_path / "files", tmp_path / "stdout"
    files.mkdir()
    stdout.mkdir()
    assert launch("-i", MASS_EDIT, "-t", "collapsed", "-o", str(files / "out.dot")).returncode == 0
    assert sorted(os.listdir(files)) == ["out.detail.summary_0.dot", "out.dot"]
    result = launch("-i", MASS_EDIT, "-t", "collapsed", "-o", "-", cwd=stdout)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith(b"digraph workflow {")
    assert b"\nwarning details-skipped - " in result.stderr
    assert os.listdir(stdout) == []


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_stdout_from_a_fresh_interpreter():
    with open("/dev/full", "wb") as full:
        result = launch("-i", MENUS, "-o", "-", stdout=full)
    assert result.returncode == 2
    lines = result.stderr.decode("utf-8").splitlines()
    assert [line for line in lines if not line.startswith("info unused-param ")] == [
        f"error unwritable-output - <stdout>: {os.strerror(errno.ENOSPC)}"
    ]


def test_stdout_of_any_encoding_gets_the_file_bytes(tmp_path):
    # Output files are UTF-8; standard output gets the same bytes even when
    # it declares an encoding that cannot spell the labels.
    recipe = tmp_path / "recipe.json"
    step = {"op": "core/text-transform", "columnName": "café 日", "expression": "value.trim()"}
    recipe.write_text(json.dumps([step], ensure_ascii=False), encoding="utf-8")
    out = tmp_path / "model.dot"
    assert run_cli(["-i", str(recipe), "-o", str(out)]) == 0
    result = launch("-i", str(recipe), "-o", "-", env={"PYTHONIOENCODING": "ascii"})
    assert result.returncode == 0, result.stderr
    assert b"Traceback" not in result.stderr
    if os.name == "posix":
        assert result.stdout == out.read_bytes()


def test_files_hold_the_bytes_standard_output_gets_where_lines_end_in_crlf(tmp_path, monkeypatch):
    # A text stream opened with the default newline handling writes
    # os.linesep for each "\n", "\r\n" on Windows. Each stream the CLI
    # opens here is opened as Windows would open it.
    fdopen = os.fdopen

    def windows_fdopen(fd, mode="r", *args, **kwargs):
        if "b" not in mode and kwargs.get("newline") is None:
            kwargs["newline"] = "\r\n"
        return fdopen(fd, mode, *args, **kwargs)

    out = tmp_path / "model.dot"
    sink = io.BytesIO()
    monkeypatch.setattr(cli.os, "fdopen", windows_fdopen)
    assert run_cli(["-i", MENUS, "-o", str(out)]) == 0
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(buffer=sink, flush=lambda: None))
    assert run_cli(["-i", MENUS, "-o", "-"]) == 0
    assert b"\r" not in sink.getvalue() and out.read_bytes() == sink.getvalue()


@pytest.fixture(scope="module")
def north_star_recipe(tmp_path_factory) -> Path:
    """A seeded 10,000-step recipe over 50 columns."""
    path = tmp_path_factory.mktemp("north_star") / "long.json"
    entries = random_recipe_entries(random.Random(10000), 10000, [f"c{k}" for k in range(50)])
    path.write_text(json.dumps(entries), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "kind, view, fmt",
    [
        ("parallel", "combined", "dot"), ("parallel", "process", "dot"),
        ("parallel", "combined", "yw"), ("collapsed", "combined", "dot"),
    ],
)
def test_north_star_recipe_from_a_fresh_interpreter(tmp_path, north_star_recipe, kind, view, fmt):
    # Both emitters, and the collapsed model with its detail files. A
    # conversion takes about a second; the bound catches hangs and blow-ups.
    out = tmp_path / f"out.{fmt}"
    argv = ["-i", str(north_star_recipe), "-t", kind, "-v", view, "-f", fmt, "-o", str(out)]
    result = launch(*argv, timeout=120)
    assert result.returncode == 0, result.stderr
    for line in result.stderr.decode("utf-8").splitlines():
        assert _DIAGNOSTIC.match(line), line
    assert out.exists()


def test_stdout_without_a_byte_layer_gets_text(monkeypatch):
    stream = io.StringIO()
    monkeypatch.setattr(sys, "stdout", stream)
    assert run_cli(["-i", MENUS, "-o", "-"]) == 0
    assert stream.getvalue().startswith("digraph workflow {")


def test_cli_import_does_not_load_the_interpreter():
    # A CLI launch does not pay for csv, which only the tests' reference
    # interpreter reads. The package's records are named tuples and slotted
    # classes, so it does not pay for dataclasses (and the inspect module
    # it imports) either. Each import prints one line "... | <module>".
    result = launch("-i", MENUS, env={"PYTHONPROFILEIMPORTTIME": "1"})
    assert result.returncode == 0, result.stderr
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in result.stderr.decode("utf-8").splitlines() if line.startswith("import time:")
    }
    assert "refineflow.model" in imported
    assert {"csv", "dataclasses", "inspect"} & imported == set()


def test_public_names_resolve_and_no_interpreter_ships():
    assert [name for name in refineflow.__all__ if not hasattr(refineflow, name)] == []
    assert importlib.util.find_spec("refineflow.engine") is None
    assert "__getattr__" not in vars(refineflow)
    # A step's effect is taken from a trace only.
    for name in ("effect_of", "apply_effect"):
        assert name not in refineflow.__all__
        assert not hasattr(refineflow, name)
        assert not hasattr(refineflow.effects, name)


# Expressions whose references the source text does not order: "a" is a
# prefix of "ab", and escaped labels are spelled differently in the source.
HASH_SEED_EXPRESSIONS = {
    "prefix": 'grel:cells["ab"].value + cells["a"].value + cells["abc"].value',
    "escaped": (
        'grel:cells["q\\"1"].value + cells["q\\"2"].value'
        ' + cells["b\\\\1"].value + cells["b\\\\2"].value'
    ),
}


@pytest.mark.parametrize("name", sorted(HASH_SEED_EXPRESSIONS))
def test_output_does_not_depend_on_the_hash_seed(tmp_path, name):
    recipe = tmp_path / "recipe.json"
    step = {"op": "core/text-transform", "columnName": "x", "expression": HASH_SEED_EXPRESSIONS[name]}
    recipe.write_text(json.dumps([step]), encoding="utf-8")
    outputs = set()
    for seed in ("1", "2", "3", "4", "5", "6"):
        result = launch("-i", str(recipe), env={"PYTHONHASHSEED": seed})
        assert result.returncode == 0, result.stderr
        outputs.add(result.stdout)
    assert len(outputs) == 1


def test_run_config_defaults():
    config = RunConfig(input_path="x.json")
    assert config.model_kind == "parallel"
    assert config.view == "combined"
    assert config.format == "dot"
    assert config.collapse_threshold == 3


@pytest.mark.parametrize(
    "field, value",
    [
        ("model_kind", "linaer"), ("view", "bogus"), ("format", "svg"),
        ("query", ("sideways", "step_1")), ("collapse_threshold", 1),
        ("split_arity_overrides", {"a": 0}),
    ],
)
def test_run_refuses_a_config_outside_the_choices_before_reading(tmp_path, field, value):
    # The input does not exist: a config read any further would exit 2.
    # The threshold is refused for every model kind, as the CLI refuses it.
    config = RunConfig(str(tmp_path / "missing.json"), "-")._replace(**{field: value})
    message = {
        "collapse_threshold": "a collapse threshold must be an int >= 2",
        "split_arity_overrides": "a split arity must be an int >= 1",
    }.get(field, f"{field} must be one of ")
    with pytest.raises(ValueError, match=f"^{message}"):
        run(config, stderr=io.StringIO())


@pytest.mark.parametrize(
    "field, value",
    [
        ("query", ("upstream",)), ("query", ("upstream", "date", "x")), ("query", ("upstream", 5)),
        ("query", "upstream:date"), ("split_arity_overrides", [("date", 3)]),
        ("split_arity_overrides", {3: 2}), ("split_arity_overrides", None),
    ],
)
def test_run_refuses_a_query_or_split_arity_of_the_wrong_shape_before_reading(tmp_path, field, value):
    # A one-item query used to read and build, then fail to unpack; a list
    # of hints ended in an AttributeError, and a hint keyed by an int was
    # never read.
    config = RunConfig(str(tmp_path / "missing.json"), "-")._replace(**{field: value})
    message = {
        "query": "query must be None or a (direction, node id) pair",
        "split_arity_overrides": "a split arity must be a mapping of str column labels",
    }[field]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        run(config, stderr=io.StringIO())
