"""Command-line front end: recipe file in, DOT or YW annotation text out.

Exit status: 0 on success, 1 on recipe errors (diagnostics on stderr,
one line each: ``severity code step message``), 2 on usage errors and on
an input it cannot read or an output it cannot write. Warnings never
change the exit status. All output files are written to temporary files,
then renamed into place, the main file last: a failed write leaves no
partial or temporary file, and the previous main output in place.

A conversion is parse → validate → build → query → emit. The model
builder runs the trace, so a step the trace refuses is reported from the
build, with the same diagnostic whatever the model kind. The input text
lives only until it is parsed, and the recipe only until the models are
built. Each output text is emitted only when its file is written, and
written in slices, so one text and no encoded copy of it is alive at a
time. So a conversion's peak memory is that of its largest stage; on a
long recipe the build and the emission peak about alike.

A collapsed model also gets one detail file per summary node it writes
(after a query, the summaries the query kept): the linear model of the
folded run, named ``<stem>.detail.<summary id><ext>``. Standard output
carries the main text only, as the same UTF-8 bytes a file would hold;
detail models are then not built, and a ``details-skipped`` warning gives
their count.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import threading
from collections.abc import Mapping
from typing import NamedTuple

from . import model
from .emit import VIEWS, emit_dot, emit_yw, identifier_map
from .errors import RefineflowError
from .model import DATA_KINDS, WorkflowModel
from .recipe import EMPTY_MAPPING, Diagnostic, Recipe, check_split_arity, parse_recipe, validate_recipe

FORMATS = ("dot", "yw")
QUERY_DIRECTIONS = ("upstream", "downstream")

_UNREADABLE = "unreadable-input"  # exits 2, as an unwritable output does


class RunConfig(NamedTuple):
    input_path: str
    output_path: str = "-"
    model_kind: str = model.PARALLEL
    view: str = "combined"
    format: str = "dot"
    collapse_threshold: int = model.DEFAULT_COLLAPSE_THRESHOLD
    split_arity_overrides: Mapping[str, int] = EMPTY_MAPPING
    query: tuple[str, str] | None = None  # (direction, node id)


def _write_diagnostics(diags: list[Diagnostic], stream) -> None:
    """One line each, in one ``write``: a line-buffered stream makes a
    system call per write, and a real export has an info per step."""
    lines = []
    for diag in diags:
        step = "-" if diag.step_index is None else str(diag.step_index)
        lines.append(f"{diag.severity} {diag.code} {step} {diag.message}\n")
    if lines:
        stream.write("".join(lines))


class _CollectorPause:
    """Pauses the cyclic garbage collector while any conversion runs: the
    first conversion in saves the process-wide state and pauses it, the
    last one out restores it, each under the lock."""

    def __init__(self):
        self._lock = threading.Lock()
        self._running = 0
        self._was_enabled = False

    def __enter__(self) -> None:
        with self._lock:
            if self._running == 0:
                self._was_enabled = gc.isenabled()
                gc.disable()
            self._running += 1

    def __exit__(self, *exc_info) -> None:
        with self._lock:
            self._running -= 1
            if self._running == 0 and self._was_enabled:
                gc.enable()


_COLLECTOR_PAUSE = _CollectorPause()


def _resolve_query_node(workflow: WorkflowModel, node_id: str, idents: dict[str, str]) -> str:
    """Exact node id, else the last-born data node with that label, else
    the node the output names by that identifier (``idents``, keyed by
    every node id).

    Data nodes are appended as their versions are born, so when a label was
    freed and taken again, the last match is the column that holds it last.
    """
    if node_id in idents:
        return node_id
    for node in reversed(workflow.nodes):
        if node.kind in DATA_KINDS and node.label == node_id:
            return node.id
    for found, identifier in idents.items():
        if identifier == node_id:
            return found
    raise RefineflowError("unknown-node", f"no node with id, label or identifier {node_id!r}")


# Characters per write: no encoded copy of a whole text is ever made.
_SLICE = 8192


def _write_sliced(write, text: str) -> None:
    """Pass ``text`` to ``write`` in slices of ``_SLICE`` characters."""
    for start in range(0, len(text), _SLICE):
        write(text[start : start + _SLICE])


def _write_temp(path: str, text: str) -> str:
    """Write ``text`` to a new file beside ``path``; returns its name. The
    file's mode follows the umask, as with ``open``; a random name already
    taken is skipped, so an existing file is never opened or followed."""
    directory = os.path.dirname(os.path.abspath(path))
    while True:
        temp_path = os.path.join(directory, f".refineflow-{os.urandom(6).hex()}.tmp")
        try:
            handle = os.open(temp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(handle, "w", encoding="utf-8", newline="") as stream:
            _write_sliced(stream.write, text)
    except BaseException:
        os.unlink(temp_path)
        raise
    return temp_path


def _write_stdout(text: str) -> None:
    """Write the UTF-8 bytes an output file would hold, whatever encoding
    standard output declares; a stream without a byte layer gets text."""
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:
        _write_sliced(sys.stdout.write, text)
        return
    sys.stdout.flush()
    _write_sliced(lambda piece: buffer.write(piece.encode("utf-8")), text)
    buffer.flush()


def _detail_path(output_path: str, summary_id: str) -> str:
    stem, ext = os.path.splitext(output_path)
    return f"{stem}.detail.{summary_id}{ext}"


def _emit(workflow: WorkflowModel, config: RunConfig, name: str, idents=None) -> str:
    if config.format == "dot":
        return emit_dot(workflow, config.view, idents=idents)
    return emit_yw(workflow, config.view, name=name, idents=idents)


def run(config: RunConfig, stderr=None) -> int:
    """Execute one conversion; returns the process exit status.

    A field outside its choices, a query that is not a (direction, str
    node id) pair, or a threshold or part count that the model or the
    recipe refuses, raises ``ValueError`` before any read.
    The cyclic garbage collector is paused for the conversion and the
    caller's state restored on every exit, an escaping exception included:
    a conversion makes no reference cycle, so a collection would walk its
    growing heap and free nothing. Threads may convert at once.
    """
    query = config.query
    if query is not None and not (isinstance(query, tuple) and len(query) == 2 and isinstance(query[1], str)):
        raise ValueError(f"query must be None or a (direction, node id) pair, got {query!r}")
    direction = query and query[0]
    for field, value, choices in (
        ("model_kind", config.model_kind, model.MODEL_KINDS), ("view", config.view, VIEWS),
        ("format", config.format, FORMATS), ("query", direction, (None, *QUERY_DIRECTIONS)),
    ):
        if value not in choices:
            raise ValueError(f"{field} must be one of {choices}, got {value!r}")
    model.check_collapse_threshold(config.collapse_threshold)
    check_split_arity(config.split_arity_overrides)
    with _COLLECTOR_PAUSE:
        return _convert(config, stderr if stderr is not None else sys.stderr)


def _read_recipe(config: RunConfig) -> Recipe:
    """The input file's recipe. The text lives only while it is parsed."""
    try:
        with open(config.input_path, encoding="utf-8") as stream:
            text = stream.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = (
            exc.strerror if isinstance(exc, OSError)
            else f"not UTF-8 text (byte {exc.start}: {exc.reason})"
        )
        raise RefineflowError(_UNREADABLE, f"{config.input_path}: {reason}") from None
    return parse_recipe(text, config.split_arity_overrides)


def _models(config: RunConfig, stderr) -> tuple[WorkflowModel, dict[str, str] | None, list]:
    """Parse, validate, build and query: the main model, the identifiers
    that name it, and the (summary id, detail model) pairs to write. The
    recipe lives only until they are built."""
    recipe = _read_recipe(config)
    _write_diagnostics(validate_recipe(recipe), stderr)
    # The DOT process view draws steps only. YW's process view prints
    # each step's data ports, and a query may name a data label.
    dataflow = (config.view, config.format) != ("process", "dot") or config.query is not None
    if config.model_kind == model.LINEAR:
        workflow = model.build_linear(recipe)
    elif config.model_kind == model.PARALLEL:
        workflow = model.build_parallel(recipe, dataflow)
    else:
        workflow = model.build_collapsed(recipe, config.collapse_threshold, dataflow)

    idents = None
    if config.query is not None:
        # The subgraph keeps the identifiers of the whole model.
        idents = identifier_map(workflow)
        direction, raw_node = config.query
        node_id = _resolve_query_node(workflow, raw_node, idents)
        if direction == "upstream":
            workflow = model.upstream_lineage(workflow, node_id)
        else:
            workflow = model.downstream_impact(workflow, node_id)
    details = [] if config.output_path == "-" else [
        (node.id, model.detail_model(recipe, node))
        for node in workflow.nodes if node.kind == "summary"
    ]
    return workflow, idents, details


def _convert(config: RunConfig, stderr) -> int:
    try:
        workflow, idents, details = _models(config, stderr)
    except RefineflowError as exc:
        _write_diagnostics([Diagnostic("error", exc.code, exc.message, exc.step_index)], stderr)
        return 2 if exc.code == _UNREADABLE else 1

    name = os.path.splitext(os.path.basename(config.input_path))[0]
    if config.output_path == "-":
        try:
            _write_stdout(_emit(workflow, config, name, idents))
        except OSError as exc:
            message = f"<stdout>: {exc.strerror or exc}"
            _write_diagnostics([Diagnostic("error", "unwritable-output", message)], stderr)
            return 2
        summaries = sum(node.kind == "summary" for node in workflow.nodes)
        if summaries:
            message = (
                f"{summaries} collapsed-run detail file(s) "
                "require a file output path; none were written"
            )
            _write_diagnostics([Diagnostic("warning", "details-skipped", message)], stderr)
        return 0

    outputs = [(config.output_path, workflow, name, idents)] + [
        (_detail_path(config.output_path, summary_id), detail, summary_id, None)
        for summary_id, detail in details
    ]
    pending: list[tuple[str, str]] = []  # (temporary file, final path)
    try:
        for path, output, output_name, output_idents in outputs:
            # Each text is emitted as its file is written, and freed then:
            # one output text is alive at a time.
            text = _emit(output, config, output_name, output_idents)
            pending.append((_write_temp(path, text), path))
            del text
        # Renamed in reverse, so the main file goes last: a failed run
        # leaves the previous main output in place.
        while pending:
            temp_path, path = pending[-1]
            os.replace(temp_path, path)
            pending.pop()
    except OSError as exc:
        message = f"{path}: {exc.strerror or exc}"
        _write_diagnostics([Diagnostic("error", "unwritable-output", message)], stderr)
        return 2
    finally:
        for temp_path, _ in pending:
            os.unlink(temp_path)
    return 0


def _parse_split_arity(values: list[str]) -> dict[str, int]:
    overrides = {}
    for item in values:
        label, sep, count = item.rpartition("=")
        if not sep or not label:
            raise argparse.ArgumentTypeError(
                f"--split-arity expects <column>=<parts>, got {item!r}"
            )
        try:
            parts = int(count)
        except ValueError:
            raise argparse.ArgumentTypeError(f"split arity {count!r} is not an integer") from None
        if parts < 1:
            raise argparse.ArgumentTypeError("split arity must be >= 1")
        overrides[label] = parts
    return overrides


def _parse_query(value: str) -> tuple[str, str]:
    direction, sep, node_id = value.partition(":")
    if not sep or direction not in QUERY_DIRECTIONS or not node_id:
        raise argparse.ArgumentTypeError(
            f"--query expects upstream:<node> or downstream:<node>, got {value!r}"
        )
    return direction, node_id


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="refineflow",
        description=(
            "Convert an exported OpenRefine operation history (JSON recipe) into a "
            "dataflow workflow model, emitted as Graphviz DOT or YesWorkflow annotations."
        ),
    )
    parser.add_argument("--input", "-i", required=True, help="path of the recipe JSON file")
    parser.add_argument(
        "--output", "-o", default="-", help="output path, or '-' for standard output"
    )
    parser.add_argument(
        "--model", "-t", choices=model.MODEL_KINDS, default=model.PARALLEL,
        help="model kind to build",
    )
    parser.add_argument("--view", "-v", choices=VIEWS, default="combined", help="diagram view")
    parser.add_argument("--format", "-f", choices=FORMATS, default="dot", help="output format")
    parser.add_argument(
        "--collapse-threshold",
        type=int,
        default=model.DEFAULT_COLLAPSE_THRESHOLD,
        metavar="N",
        help="minimum run length folded into a summary node (collapsed model only)",
    )
    parser.add_argument(
        "--split-arity",
        action="append",
        default=[],
        metavar="COLUMN=PARTS",
        help="part count for a separator split the recipe does not pin (repeatable)",
    )
    parser.add_argument(
        "--query",
        metavar="DIRECTION:NODE",
        help="restrict output to the upstream:<node> or downstream:<node> subgraph",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        overrides = _parse_split_arity(args.split_arity)
        query = _parse_query(args.query) if args.query else None
    except argparse.ArgumentTypeError as exc:
        parser.error(str(exc))  # exits with status 2
    if args.collapse_threshold < 2:
        parser.error("--collapse-threshold must be >= 2")
    config = RunConfig(
        input_path=args.input,
        output_path=args.output,
        model_kind=args.model,
        view=args.view,
        format=args.format,
        collapse_threshold=args.collapse_threshold,
        split_arity_overrides=overrides,
        query=query,
    )
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
