from __future__ import annotations

import errno
import importlib.util
import io
import json
import os
import random
import re
import subprocess
import sys

import pytest

import refineflow
from refineflow import cli, model
from refineflow.cli import FORMATS, RunConfig, main, run
from refineflow.recipe import MAX_SPLIT_PARTS
from conftest import FIXTURES, LONG_INT, needs_int_digit_limit
from dotcheck import parse_dot

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


def test_recipe_error_exits_1_without_output(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken", encoding="utf-8")
    out = tmp_path / "never.dot"
    status = run_cli(["-i", str(bad), "-o", str(out)])
    assert status == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error malformed-json")


def test_unresolved_column_exits_1(tmp_path, capsys):
    recipe = tmp_path / "recipe.json"
    recipe.write_text(
        json.dumps(
            [
                {"op": "core/column-removal", "columnName": "a"},
                {"op": "core/fill-down", "columnName": "a"},
            ]
        ),
        encoding="utf-8",
    )
    out = tmp_path / "never.dot"
    status = run_cli(["-i", str(recipe), "-o", str(out)])
    assert status == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert "error unresolved-column 1 " in err


_REMOVE_A = {"op": "core/column-removal", "columnName": "a"}


# (recipe, exact stderr[, split hints]): which of several faults a run
# reports. Within a step, a malformed parameter comes before an unresolved
# label or a part count past the cap; across steps, the first failing step
# is reported, whether the count past the cap is pinned or hinted and
# whether a key is null or absent.
ERROR_ORDER = {
    "rename-to-int-of-removed": (
        [_REMOVE_A, {"op": "core/column-rename", "oldColumnName": "a", "newColumnName": 7}],
        "error missing-param 1 step 1 (core/column-rename): newColumnName is not a string\n",
    ),
    "reorder-int-after-removed": (
        [_REMOVE_A, {"op": "core/column-reorder", "columnNames": ["a", 7]}],
        "error missing-param 1 step 1 (core/column-reorder): "
        "column name parameter is not a string\n",
    ),
    "split-int-over-cap": (
        [{"op": "core/column-split", "columnName": 7, "separator": ",", "maxColumns": 5000}],
        "error missing-param 0 step 0 (core/column-split): column name parameter is not a string\n",
    ),
    "null-fill-down-then-split-over-cap": (
        [
            {"op": "core/fill-down", "columnName": None},
            {"op": "core/column-split", "columnName": "d", "separator": ",", "maxColumns": 5000},
        ],
        "error missing-param 0 step 0 (core/fill-down) lacks required parameter 'columnName'\n",
    ),
    "null-fill-down-then-hinted-split-over-cap": (
        [
            {"op": "core/fill-down", "columnName": None},
            {"op": "core/column-split", "columnName": "d", "separator": ","},
        ],
        "error missing-param 0 step 0 (core/fill-down) lacks required parameter 'columnName'\n",
        {"d": 5000},
    ),
    "null-new-label-reading-removed": (
        [
            {"op": "core/column-removal", "columnName": "b"},
            {"op": "core/column-addition", "baseColumnName": "a", "newColumnName": None,
             "expression": "grel:cells.b.value"},
        ],
        "error missing-param 1 step 1 (core/column-addition) "
        "lacks required parameter 'newColumnName'\n",
    ),
    "null-fill-down-then-absent-fill-down": (
        [{"op": "core/fill-down", "columnName": None}, {"op": "core/fill-down"}],
        "error missing-param 0 step 0 (core/fill-down) lacks required parameter 'columnName'\n",
    ),
    "unresolved-read-then-absent-new-label": (
        [
            _REMOVE_A,
            {"op": "core/fill-down", "columnName": "a"},
            {"op": "core/column-rename", "oldColumnName": "b"},
        ],
        "error unresolved-column 1 step 1 (core/fill-down) references column 'a' "
        "which is not live at that point\n",
    ),
}


@pytest.mark.parametrize("name", sorted(ERROR_ORDER))
def test_error_order_of_a_recipe_with_several_faults(tmp_path, name):
    # The builder runs the trace, so every model kind reports the same.
    entries, expected, *hints = ERROR_ORDER[name]
    recipe = tmp_path / "recipe.json"
    recipe.write_text(json.dumps(entries), encoding="utf-8")
    out = tmp_path / "never.dot"
    for kind in model.MODEL_KINDS:
        stderr = io.StringIO()
        config = RunConfig(
            str(recipe), str(out), model_kind=kind,
            split_arity_overrides=hints[0] if hints else {},
        )
        assert run(config, stderr=stderr) == 1
        assert stderr.getvalue() == expected
        assert not out.exists()


@pytest.mark.parametrize(
    "step",
    [
        {"op": "core/column-rename", "oldColumnName": "a", "newColumnName": "b"},
        {
            "op": "core/column-addition", "baseColumnName": "a", "newColumnName": "b",
            "expression": "value",
        },
    ],
    ids=["rename", "addition"],
)
def test_label_collision_names_its_step(tmp_path, capsys, step):
    recipe = tmp_path / "recipe.json"
    recipe.write_text(
        json.dumps([{"op": "core/text-transform", "columnName": "b", "expression": "value"}, step]),
        encoding="utf-8",
    )
    out = tmp_path / "never.dot"
    for kind in model.MODEL_KINDS:
        assert run_cli(["-i", str(recipe), "-t", kind, "-o", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err == "error label-collision 1 duplicate column label 'b'\n"


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


def test_deeply_nested_json_exits_1(tmp_path, capsys):
    recipe = tmp_path / "deep.json"
    recipe.write_text("[" * 100000, encoding="utf-8")
    out = tmp_path / "never.dot"
    status = run_cli(["-i", str(recipe), "-o", str(out)])
    assert status == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error malformed-json - ")
    assert err.count("\n") == 1


@needs_int_digit_limit
def test_integer_past_the_digit_limit_exits_1(tmp_path):
    recipe = tmp_path / "long_int.json"
    recipe.write_text(
        '[{"op": "core/text-transform", "columnName": "a", "expression": "value.trim()", '
        '"repeatCount": ' + LONG_INT + "}]",
        encoding="utf-8",
    )
    out = tmp_path / "never.dot"
    env = {key: value for key, value in os.environ.items() if key != "PYTHONINTMAXSTRDIGITS"}
    result = subprocess.run(
        [sys.executable, "-m", "refineflow.cli", "-i", str(recipe), "-o", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 1
    assert not out.exists()
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error malformed-json - ")
    assert result.stderr.count("\n") == 1


@pytest.mark.parametrize("output", ["file", "-"])
def test_lone_surrogate_escape_exits_1_without_output(tmp_path, capsys, output):
    recipe = tmp_path / "surrogate.json"
    recipe.write_text(
        r'[{"op":"core/text-transform","columnName":"a\ud800","expression":"value.trim()"}]',
        encoding="utf-8",
    )
    status = run_cli(["-i", str(recipe), "-o", str(tmp_path / "never.dot") if output == "file" else "-"])
    assert status == 1
    assert os.listdir(tmp_path) == ["surrogate.json"]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error malformed-json - ")
    assert captured.err.count("\n") == 1


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
    # names the new column, not the removed one.
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
    for direction, expected in (("upstream", {"a_v0", "b_v0", "a_v0_c2"}), ("downstream", {"a_v0_c2"})):
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


@pytest.mark.parametrize(
    "split, argv",
    [
        ({"maxColumns": MAX_SPLIT_PARTS + 1}, []),
        ({"fieldLengths": [1] * (MAX_SPLIT_PARTS + 1)}, []),
        ({}, ["--split-arity", f"date={MAX_SPLIT_PARTS + 1}"]),
    ],
    ids=["maxColumns", "fieldLengths", "split-arity-flag"],
)
def test_split_arity_over_cap_exits_1(tmp_path, capsys, split, argv):
    recipe = tmp_path / "recipe.json"
    entry = {"op": "core/column-split", "columnName": "date", "separator": "/", **split}
    recipe.write_text(json.dumps([entry, {"op": "core/fill-down", "columnName": "date"}]))
    out = tmp_path / "never.dot"
    status = run_cli(["-i", str(recipe), "-o", str(out), *argv])
    assert status == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error split-arity-too-large 0 ")
    assert err.count("\n") == 1


def _mutations(entry: dict, rng: random.Random):
    """Seeded hostile variants of one recipe entry: odd values, dropped keys."""
    hostile = [None, True, -1, 10**12, "", [], {}, [1, "x"], {"k": None}]
    keys = [key for key in entry if key != "op"]
    for _ in range(5):
        mutated = dict(entry)
        for key in rng.sample(keys, rng.randint(1, min(2, len(keys)))):
            if rng.random() < 0.25:
                del mutated[key]
            else:
                mutated[key] = rng.choice(hostile)
        yield mutated
    if entry["op"] == "core/column-split":
        yield {**entry, "maxColumns": rng.choice([MAX_SPLIT_PARTS + 1, 10**9, 2**63])}


_DIAGNOSTIC = re.compile(r"^(error|warning|info) \S+ (-|\d+) ")


def test_cli_fuzz_gives_exit_code_and_one_line_diagnostics(tmp_path, capsys):
    rng = random.Random(2024)
    out = tmp_path / "model.dot"
    statuses = []
    for fixture in ("menus_recipe.json", "mass_edit_run.json"):
        entries = json.loads((FIXTURES / fixture).read_text(encoding="utf-8"))
        for position, entry in enumerate(entries):
            for mutated in _mutations(entry, rng):
                recipe = tmp_path / "fuzz.json"
                recipe.write_text(json.dumps(entries[:position] + [mutated] + entries[position + 1 :]))
                for model_kind in ("linear", "parallel", "collapsed"):
                    status = run_cli(["-i", str(recipe), "-t", model_kind, "-o", str(out)])
                    err = capsys.readouterr().err
                    assert status in (0, 1, 2), (mutated, model_kind)
                    assert "Traceback" not in err
                    for line in err.splitlines():
                        assert _DIAGNOSTIC.match(line), (mutated, model_kind, line)
                    statuses.append(status)
    assert len(statuses) >= 250
    assert {0, 1} <= set(statuses)


def test_console_script_entry_point(tmp_path):
    out = tmp_path / "cli.dot"
    result = subprocess.run(
        [sys.executable, "-m", "refineflow.cli", "-i", MENUS, "-o", str(out)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert out.exists()


def test_stdout_of_any_encoding_gets_the_file_bytes(tmp_path):
    # Output files are UTF-8; standard output gets the same bytes even when
    # it declares an encoding that cannot spell the labels.
    recipe = tmp_path / "recipe.json"
    step = {"op": "core/text-transform", "columnName": "café 日", "expression": "value.trim()"}
    recipe.write_text(json.dumps([step], ensure_ascii=False), encoding="utf-8")
    out = tmp_path / "model.dot"
    assert run_cli(["-i", str(recipe), "-o", str(out)]) == 0
    result = subprocess.run(
        [sys.executable, "-m", "refineflow.cli", "-i", str(recipe), "-o", "-"],
        capture_output=True,
        env={**os.environ, "PYTHONIOENCODING": "ascii"},
    )
    assert result.returncode == 0, result.stderr
    assert b"Traceback" not in result.stderr
    if os.name == "posix":
        assert result.stdout == out.read_bytes()


def test_stdout_without_a_byte_layer_gets_text(monkeypatch):
    stream = io.StringIO()
    monkeypatch.setattr(sys, "stdout", stream)
    assert run_cli(["-i", MENUS, "-o", "-"]) == 0
    assert stream.getvalue().startswith("digraph workflow {")


def test_cli_import_does_not_load_the_interpreter():
    # A CLI launch does not pay for csv, which only the tests' reference
    # interpreter reads. The package's records are named tuples and slotted
    # classes, so it does not pay for dataclasses (and the inspect module
    # it imports) either.
    probe = (
        "import sys, refineflow.cli; "
        "print(sorted({'csv', 'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]"]


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
        result = subprocess.run(
            [sys.executable, "-m", "refineflow.cli", "-i", str(recipe)],
            capture_output=True,
            env={**os.environ, "PYTHONHASHSEED": seed},
        )
        assert result.returncode == 0, result.stderr
        outputs.add(result.stdout)
    assert len(outputs) == 1


def test_run_config_defaults():
    config = RunConfig(input_path="x.json")
    assert config.model_kind == "parallel"
    assert config.view == "combined"
    assert config.format == "dot"
    assert config.collapse_threshold == 3
