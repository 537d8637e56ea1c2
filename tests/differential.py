"""Digest every CLI output over a fixed set of inputs, to compare two checkouts.

Usage, from a checkout whose package is on the path:

    PYTHONPATH=src python tests/differential.py [--recipes N] [--seed S] > digests.txt

Run it against two checkouts and ``diff`` the two files: each line is
``<case key> <sha256>``, and the hash covers the case's exit code, standard
output, standard error, and the names and bytes of the files it wrote.

The inputs are both fixtures plus N seeded generated recipes. The generated
recipes start from non-ASCII labels; some carry a row op or an unknown op,
some opaque expressions, some a read of a column they removed (by a step
that may also have a malformed parameter), and some one or two malformed
parameters: a null, integer or absent own label, an integer or absent
``newColumnName``, a string ``columnNames`` or a ``maxColumns`` past the
split cap.
Each input runs through ``cli.run`` in every model/view/format combination,
to a file and to standard output, then as a collapsed model at threshold 2
and as upstream and downstream queries. Standard library only; pytest does
not collect this file.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

from refineflow import cli
from refineflow.cli import FORMATS, RunConfig
from refineflow.emit import VIEWS
from refineflow.model import MODEL_KINDS, PARALLEL

from recipegen import random_recipe_entries

FIXTURES = Path(__file__).parent / "fixtures"

LABELS = ("café", "日付", "naïve x", "c3", "c4")

OPAQUE_EXPRESSIONS = (
    'value.replace("a", "b")',
    'if(isBlank(value), "ø", value)',
    "jython:return value",
)

# Readers of a removed column that are malformed too: a doubly broken step.
BROKEN_READERS = (
    {"op": "core/column-rename", "oldColumnName": "gone ø", "newColumnName": 7},
    {"op": "core/column-reorder", "columnNames": ["gone ø", 7]},
)
# The package's MAX_SPLIT_PARTS is 1000; its import path differs between
# versions, and this script compares versions.
PAST_SPLIT_CAP = 1001
OWN_KEYS = ("columnName", "baseColumnName", "oldColumnName")

ROW_OP = {"op": "core/row-removal", "engineConfig": {"facets": [], "mode": "row-based"}}
UNKNOWN_OP = {"op": "vendor/mystery-op", "description": "unknown to the catalog"}


# A broken value that drops its key.
ABSENT = object()


def _set(entry: dict, key: str, value) -> None:
    if value is ABSENT:
        del entry[key]
    else:
        entry[key] = value


def malform(rng: random.Random, entries: list[dict]) -> None:
    """Break one or two parameters, so that runs reach the decoder's checks."""
    for _ in range(rng.randint(1, 2)):
        entry = rng.choice(entries)
        own = [key for key in OWN_KEYS if key in entry]
        if entry["op"] == "core/column-split" and rng.random() < 0.5:
            entry["maxColumns"] = PAST_SPLIT_CAP
        elif "newColumnName" in entry and rng.random() < 0.5:
            _set(entry, "newColumnName", rng.choice([7, ABSENT]))
        elif own:
            _set(entry, own[0], rng.choice([None, 7, ABSENT]))
        else:
            reorder = {"op": "core/column-reorder", "columnNames": rng.choice(LABELS)}
            entries.insert(rng.randrange(len(entries) + 1), reorder)


def generated_recipe(rng: random.Random, k: int) -> list[dict]:
    entries = random_recipe_entries(rng, rng.randint(5, 15), list(LABELS[: rng.randint(3, 5)]))
    for entry in entries:
        if "expression" in entry and entry["expression"] != "value" and rng.random() < 0.2:
            entry["expression"] = rng.choice(OPAQUE_EXPRESSIONS)
    if k % 4 == 0:
        entries.insert(rng.randrange(len(entries) + 1), ROW_OP)
    elif k % 4 == 1:
        entries.insert(rng.randrange(len(entries) + 1), UNKNOWN_OP)
    if k % 5 == 4:  # removes an assumed column, then reads it: unresolved-column
        entries.append({"op": "core/column-removal", "columnName": "gone ø"})
        entries.append({"op": "core/fill-down", "columnName": "gone ø"})
    return entries


def inputs(count: int, seed: int) -> list[tuple[str, str]]:
    """(name, recipe JSON text): both fixtures, then ``count`` generated recipes."""
    named = [
        ("menus", (FIXTURES / "menus_recipe.json").read_text(encoding="utf-8")),
        ("mass_edit", (FIXTURES / "mass_edit_run.json").read_text(encoding="utf-8")),
    ]
    rng = random.Random(seed)
    for k in range(count):
        entries = generated_recipe(rng, k)
        if k % 5 == 4 and rng.random() < 0.5:
            entries[-1] = dict(rng.choice(BROKEN_READERS))
        if k % 3 == 2:
            malform(rng, entries)
        text = json.dumps(entries, ensure_ascii=False, indent=1)
        named.append((f"gen{k:04d}", text))
    return named


def cases(text: str) -> list[tuple[str, dict]]:
    """(case key, RunConfig fields other than the paths) for one input."""
    found = []
    for model_kind in MODEL_KINDS:
        for view in VIEWS:
            for fmt in FORMATS:
                fields = {"model_kind": model_kind, "view": view, "format": fmt}
                found.append((f"{model_kind}-{view}-{fmt}-file", fields))
                found.append((f"{model_kind}-{view}-{fmt}-stdout", {**fields, "to_stdout": True}))
    for view in VIEWS:
        for fmt in FORMATS:
            fields = {"model_kind": "collapsed", "view": view, "format": fmt, "collapse_threshold": 2}
            found.append((f"collapsed2-{view}-{fmt}-file", fields))
    first = json.loads(text)[0]
    label = first.get("columnName") or first.get("baseColumnName") or "step_0"
    # A query names its node by text; a malformed (integer) label is queried as text.
    label = str(label)
    for direction in ("upstream", "downstream"):
        for name, node in (("label", label), ("step", "step_0")):
            fields = {"model_kind": PARALLEL, "view": "combined", "format": "dot",
                      "query": (direction, node)}
            found.append((f"{direction}-{name}", fields))
    return found


def _field(digest, data: bytes) -> None:
    digest.update(len(data).to_bytes(8, "big"))
    digest.update(data)


def run_case(input_path: Path, out_dir: Path, fields: dict) -> str:
    """sha256 of one ``cli.run``: exit code, stdout, stderr, files written."""
    fields = dict(fields)
    to_stdout = fields.pop("to_stdout", False)
    output = "-" if to_stdout else str(out_dir / f"out.{fields['format']}")
    config = RunConfig(input_path=str(input_path), output_path=output, **fields)
    stdout_bytes = io.BytesIO()
    stdout = io.TextIOWrapper(stdout_bytes, encoding="utf-8", newline="\n")
    stderr = io.StringIO()
    saved, sys.stdout = sys.stdout, stdout
    try:
        status = cli.run(config, stderr=stderr)
        stdout.flush()
    finally:
        sys.stdout = saved
    digest = hashlib.sha256()
    _field(digest, str(status).encode())
    _field(digest, stdout_bytes.getvalue())
    _field(digest, stderr.getvalue().replace(str(out_dir.parent), "<dir>").encode("utf-8"))
    for path in sorted(out_dir.iterdir()):
        _field(digest, path.name.encode("utf-8"))
        _field(digest, path.read_bytes())
        path.unlink()
    return digest.hexdigest()


def digest_lines(count: int, seed: int) -> list[str]:
    lines = []
    with tempfile.TemporaryDirectory() as temp:
        out_dir = Path(temp) / "out"
        out_dir.mkdir()
        for name, text in inputs(count, seed):
            input_path = Path(temp) / f"{name}.json"
            input_path.write_text(text, encoding="utf-8")
            for key, fields in cases(text):
                lines.append(f"{name}/{key} {run_case(input_path, out_dir, fields)}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--recipes", type=int, default=300, help="generated recipes (default 300)")
    parser.add_argument("--seed", type=int, default=1, help="generator seed (default 1)")
    args = parser.parse_args(argv)
    for line in digest_lines(args.recipes, args.seed):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
