"""Every function the package defines runs for the CLI or the documented
library.

The test records, under ``sys.setprofile``, each code object of
``src/refineflow`` that the CLI and the README's library example enter:
both fixtures through every model, view and format, two queries, the
acceptance corpus, the recipes of ``test_cli.ERROR_ORDER``, and
``cli.main`` with its options. A function none of them enters must be
public API (a name in ``refineflow.__all__``, or a method of a public class
or of the record base ``FrozenRecord``), a dunder, or dead code.
"""

from __future__ import annotations

import errno
import io
import json
import os
import sys
import types
from pathlib import Path

import refineflow
from refineflow import model
from refineflow.cli import FORMATS, RunConfig, main, run
from refineflow.emit import VIEWS
from conftest import FIXTURES
from recipegen import acceptance_corpus
from test_cli import ERROR_ORDER
from test_readme import README, _python_block

PACKAGE = Path(refineflow.__file__).parent
MENUS = str(FIXTURES / "menus_recipe.json")
MASS_EDIT = str(FIXTURES / "mass_edit_run.json")
PUBLIC_CLASSES = {
    name for name in refineflow.__all__ if isinstance(getattr(refineflow, name), type)
} | {"FrozenRecord"}


def _defined_functions() -> dict[tuple[str, int, str], str]:
    """(file, first line, name) → dotted name of every function and method
    the package's sources define; lambdas and comprehensions are left out."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        pending = [(compile(path.read_text(encoding="utf-8"), str(path), "exec"), path.stem)]
        while pending:
            code, prefix = pending.pop()
            for const in code.co_consts:
                if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
                    dotted = f"{prefix}.{const.co_name}"
                    if const.co_flags & 0x1:  # CO_OPTIMIZED: a function, not a class body
                        found[(str(path), const.co_firstlineno, const.co_name)] = dotted
                    pending.append((const, dotted))
    return found


def _exempt(dotted: str) -> bool:
    """A dunder, a public function, or a method of a public class."""
    *owners, name = dotted.split(".")[1:]  # less the module
    if name.startswith("__") and name.endswith("__"):
        return True
    if not owners:
        return name in refineflow.__all__
    return len(owners) == 1 and owners[0] in PUBLIC_CLASSES


class _FullDevice(io.BytesIO):
    def write(self, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def _conversions(tmp_path: Path, monkeypatch) -> None:
    """Every conversion the audit covers."""
    stderr = io.StringIO()
    for recipe in (MENUS, MASS_EDIT):
        for kind in model.MODEL_KINDS:
            for view in VIEWS:
                for fmt in FORMATS:
                    out = str(tmp_path / f"out.{fmt}")
                    assert run(RunConfig(recipe, out, kind, view, fmt), stderr=stderr) == 0
    for query in [("upstream", "repaired_date"), ("downstream", "step_6")]:
        assert run(RunConfig(MENUS, str(tmp_path / "q.dot"), query=query), stderr=stderr) == 0

    path = tmp_path / "recipe.json"
    for recipe, _ in acceptance_corpus():
        path.write_text(json.dumps([{"op": op.op_id, **op.params} for op in recipe.operations]))
        assert run(RunConfig(str(path), str(tmp_path / "out.dot")), stderr=stderr) == 0
    for case in ERROR_ORDER.values():
        recipe = str(case.write(tmp_path))
        config = RunConfig(recipe, str(tmp_path / "never.dot"), split_arity_overrides=case.hints)
        assert run(config, stderr=stderr) == 1
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", io.TextIOWrapper(_FullDevice(), encoding="utf-8"))
        assert run(RunConfig(MENUS, "-"), stderr=stderr) == 2

    argv = ["-i", MENUS, "--split-arity", "date=3", "--query", "downstream:step_5"]
    assert main([*argv, "-o", str(tmp_path / "main.dot")]) == 0

    path.write_text(Path(MENUS).read_text(encoding="utf-8"), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(_python_block("Library"), str(README), "exec"), {"__name__": "readme"})


def test_every_package_function_runs_for_the_cli_or_is_public(tmp_path, monkeypatch, capsys):
    entered: set[tuple[str, int, str]] = set()

    def record(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno, code.co_name))

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        _conversions(tmp_path, monkeypatch)
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    defined = _defined_functions()
    assert len(defined) > 50
    unreached = sorted(
        dotted for key, dotted in defined.items() if key not in entered and not _exempt(dotted)
    )
    assert unreached == []
