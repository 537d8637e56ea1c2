"""The README's examples run as written."""

from __future__ import annotations

import re
import shutil
from pathlib import Path

from conftest import FIXTURES

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_block(section: str) -> str:
    """The first ```python block after the ``## <section>`` heading."""
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n## {section}\n")
    match = re.compile(r"```python\n(.*?)```", re.DOTALL).search(text, start)
    assert match is not None, f"no python block under ## {section}"
    return match.group(1)


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    shutil.copy(FIXTURES / "menus_recipe.json", tmp_path / "recipe.json")
    monkeypatch.chdir(tmp_path)
    exec(compile(_python_block("Library"), str(README), "exec"), {"__name__": "readme"})
    out = capsys.readouterr().out
    assert out.startswith("3 independent subworkflows\n")
    assert "digraph" in out and "# @begin recipe" in out
