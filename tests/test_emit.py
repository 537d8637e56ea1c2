from __future__ import annotations

import io
import json
import random
import re
import sys
import time
from functools import partial

import pytest

from refineflow import (
    build_collapsed,
    build_linear,
    build_parallel,
    detail_model,
    emit_dot,
    emit_yw,
    parse_recipe,
)
from refineflow.cli import RunConfig, run
from refineflow.emit import STEP_FILL, VIEWS, _quote
from refineflow.errors import RefineflowError
from refineflow.model import STEP_KINDS, Edge, Node, WorkflowModel, sanitize_identifier
from conftest import GOLDEN, make_recipe
from differential import generated_recipe
from dotcheck import DotSyntaxError, parse_dot
from recipegen import acceptance_corpus, random_recipe, random_recipe_entries


def _models(recipe):
    linear = build_linear(recipe)
    parallel = build_parallel(recipe)
    collapsed = build_collapsed(recipe, threshold=3)
    details = [detail_model(recipe, n) for n in collapsed.nodes if n.kind == "summary"]
    return [linear, parallel, collapsed] + details


def check_yw_nesting(text: str) -> list[str]:
    """Independent @begin/@end balance checker; returns the block names."""
    stack: list[str] = []
    names: list[str] = []
    for line_number, line in enumerate(text.splitlines(), start=1):
        match = re.match(r"# @(begin|end|in|out|param) (\S+)$", line)
        assert match, f"line {line_number} is not a YW annotation: {line!r}"
        tag, name = match.groups()
        if tag == "begin":
            stack.append(name)
            names.append(name)
        elif tag == "end":
            assert stack and stack[-1] == name, f"unbalanced @end {name} at line {line_number}"
            stack.pop()
        else:
            assert stack, f"@{tag} outside any block at line {line_number}"
    assert not stack, f"unclosed blocks: {stack}"
    return names


# --- DOT ------------------------------------------------------------------------


def test_linear_data_view_is_a_labeled_path(menus_recipe):
    model = build_linear(menus_recipe)
    graph = parse_dot(emit_dot(model, "data"))
    assert len(graph.nodes) == 9
    assert len(graph.edges) == 8
    for i, (src, dst, attrs) in enumerate(sorted(graph.edges)):
        assert src == f"table_{i}"
        assert dst == f"table_{i + 1}"
        assert attrs.get("label")


def test_parallel_process_view_clusters(menus_recipe):
    model = build_parallel(menus_recipe)
    text = emit_dot(model, "process")
    graph = parse_dot(text)
    clusters = [name for name in graph.clusters if name.startswith("cluster_")]
    assert len(clusters) == 3
    # Split-and-merge shape in the date cluster: the split fans out to the
    # three renames, which fan back into the addition.
    edges = {(src, dst) for src, dst, _ in graph.edges}
    renames = [f"column_rename_{i}" for i in (1, 2, 3)]
    assert all(("column_split", rename) in edges for rename in renames)
    assert all((rename, "column_addition") in edges for rename in renames)


def test_empty_recipe_dot_views():
    recipe = make_recipe([])
    model = build_linear(recipe)
    for view in VIEWS:
        graph = parse_dot(emit_dot(model, view))
        if view == "process":
            assert graph.nodes == {}
        else:
            assert list(graph.nodes) == ["table_0"]
        assert graph.edges == []


def test_dot_parses_for_all_views_and_models(menus_recipe, mass_edit_recipe):
    rng = random.Random(91)
    recipes = [menus_recipe, mass_edit_recipe] + [random_recipe(rng)[0] for _ in range(6)]
    for recipe in recipes:
        for model in _models(recipe):
            for view in VIEWS:
                parse_dot(emit_dot(model, view))  # raises on bad syntax


def test_cluster_emit_is_linear_in_components():
    # One trim per column: every column is its own component, so a cluster
    # loop that rescans the view per component is quadratic here.
    columns = 4000
    recipe = make_recipe(
        [
            {"op": "core/text-transform", "columnName": f"c{i}", "expression": "value.trim()"}
            for i in range(columns)
        ]
    )
    model = _models(recipe)[1]
    assert len(model.components) == columns
    started = time.perf_counter()
    text = emit_dot(model, "combined")
    elapsed = time.perf_counter() - started
    assert elapsed < 1.5, f"emit_dot took {elapsed:.2f} s over {columns} components"
    graph = parse_dot(text)
    assert len(graph.clusters) == columns
    assert len(graph.nodes) == len(model.nodes)


def test_dot_view_membership_exactly_once(menus_recipe):
    """Each eligible node/edge appears exactly once per view."""
    model = build_parallel(menus_recipe)
    kinds = {n.id: n.kind for n in model.nodes}

    combined = parse_dot(emit_dot(model, "combined"))
    assert len(combined.nodes) == len(model.nodes)
    flow_edges = [
        e for e in model.edges
        if not (kinds[e.src] in ("step", "summary") and kinds[e.dst] in ("step", "summary"))
    ]
    assert len(combined.edges) == len(flow_edges)

    process = parse_dot(emit_dot(model, "process"))
    assert len(process.nodes) == len([k for k in kinds.values() if k in ("step", "summary")])
    dep_edges = [
        e for e in model.edges
        if kinds[e.src] in ("step", "summary") and kinds[e.dst] in ("step", "summary")
    ]
    assert len(process.edges) == len(dep_edges)

    data = parse_dot(emit_dot(model, "data"))
    assert len(data.nodes) == len([k for k in kinds.values() if k.startswith("data_")])


def test_dot_node_colors_by_kind(menus_recipe):
    model = build_parallel(menus_recipe)
    graph = parse_dot(emit_dot(model, "combined"))
    assert graph.nodes["column_split"]["fillcolor"] == "#CCFFCC"
    assert graph.nodes["date_v0"]["fillcolor"] == "#FAFAD2"
    assert graph.nodes["separator"]["fillcolor"] == "#FFFFFF"
    assert graph.nodes["date_v0"]["style"] == "rounded,filled"


def test_dot_edge_statements_sorted(menus_recipe):
    model = build_parallel(menus_recipe)
    text = emit_dot(model, "combined")
    edge_lines = [line for line in text.splitlines() if " -> " in line]
    assert edge_lines == sorted(edge_lines)


def test_process_clusters_are_the_step_members_of_combined_clusters(menus_recipe, mass_edit_recipe):
    recipes = [recipe for recipe, _ in acceptance_corpus()] + [menus_recipe, mass_edit_recipe]
    checked = 0
    for recipe in recipes:
        for model in _models(recipe)[1:3]:
            if len(model.components) < 2:
                continue
            steps = {n.id for n in model.nodes if n.kind in STEP_KINDS}
            process = parse_dot(emit_dot(model, "process")).clusters
            combined = parse_dot(emit_dot(model, "combined")).clusters
            assert process == {
                name: [member for member in members if member in steps]
                for name, members in combined.items()
            }
            checked += 1
    assert checked > 10


@pytest.mark.parametrize(
    "text",
    ["", "plain", "café 日付", 'a"b', "a\\b", "a\nb", "a\rb", '\\"\n\r', 'x\\\\"\r\n"y'],
)
def test_quote_escapes_as_before(text):
    escaped = text.replace("\\", "\\\\").replace('"', '\\"')
    assert _quote(text) == '"' + escaped.replace("\n", "\\n").replace("\r", "\\r") + '"'


def test_dot_escapes_quotes():
    recipe = make_recipe(
        [
            {
                "op": "core/mass-edit",
                "columnName": 'we"ird',
                "expression": "value",
                "edits": [],
            }
        ]
    )
    model = _models(recipe)[1]
    graph = parse_dot(emit_dot(model, "combined"))
    assert any('we"ird' == attrs.get("label") for attrs in graph.nodes.values())


def test_summary_node_rendered_with_double_border(mass_edit_recipe):
    model = build_collapsed(mass_edit_recipe, threshold=3)
    graph = parse_dot(emit_dot(model, "process"))
    (summary_name,) = list(graph.nodes)
    assert graph.nodes[summary_name]["peripheries"] == "2"
    assert graph.nodes[summary_name]["label"] == "core/mass-edit × 10"


# --- YesWorkflow -----------------------------------------------------------------


def test_yw_single_rename_block_counts():
    recipe = make_recipe(
        [{"op": "core/column-rename", "oldColumnName": "date 2", "newColumnName": "year"}]
    )
    model = _models(recipe)[0]
    text = emit_yw(model, "combined")
    names = check_yw_nesting(text)
    assert len(names) == 2  # outer workflow + one step block
    assert text.count("# @in ") == 1
    assert text.count("# @out ") == 1
    assert text.count("# @param ") == 2


def test_yw_empty_model():
    recipe = make_recipe([])
    model = build_linear(recipe)
    text = emit_yw(model, "combined")
    assert text == "# @begin workflow\n# @end workflow\n"


def test_every_text_ends_in_exactly_one_newline(menus_recipe, mass_edit_recipe):
    models = [WorkflowModel([], [], [])] + _models(menus_recipe) + _models(mass_edit_recipe)
    for model in models:
        for view in VIEWS:
            for text in (emit_dot(model, view), emit_yw(model, view)):
                assert text.endswith("\n") and not text.endswith("\n\n"), text[-40:]


def test_a_data_node_two_groups_read_is_drawn_outside_every_cluster():
    recipe = make_recipe(
        [
            {"op": "core/column-addition", "baseColumnName": "a", "newColumnName": b,
             "expression": "value"}
            for b in ("b", "c")
        ]
    )
    model = build_parallel(recipe)
    assert len(model.components) == 2
    shared = next(node.id for node in model.nodes if node.label == "a")
    for view in ("combined", "data"):
        graph = parse_dot(emit_dot(model, view))
        clusters = [members for name, members in graph.clusters.items() if name.startswith("cluster_")]
        assert len(clusters) == 2
        assert shared in graph.nodes
        assert not any(shared in members for members in clusters)
        # Each addition's new column is drawn in its own cluster.
        assert [{"b_v0", "c_v0"} & set(members) for members in clusters] == [{"b_v0"}, {"c_v0"}]


def test_yw_menus_merge_step(menus_recipe):
    model = build_parallel(menus_recipe)
    text = emit_yw(model, "combined", name="menus")
    names = check_yw_nesting(text)
    assert len(names) == 9  # outer + 8 steps
    block = re.search(
        r"# @begin column_addition\n(.*?)# @end column_addition", text, re.S
    ).group(1)
    ins = re.findall(r"# @in (\S+)", block)
    outs = re.findall(r"# @out (\S+)", block)
    assert [i.split("_v")[0] for i in ins] == ["day", "month", "year"]
    assert [o.split("_v")[0] for o in outs] == ["repaired_date"]


def test_yw_lists_ports_in_edge_order():
    # The builders add ports in node order; emit_yw keeps whatever order
    # the edges give, and the steps' order in the nodes.
    model = WorkflowModel(
        [
            Node("data_column", "a_v0", "a"),
            Node("data_column", "b_v0", "b"),
            Node("step", "later", "later", 1),
            Node("step", "earlier", "earlier", 0),
            Node("data_column", "c_v1", "c"),
        ],
        [
            Edge("b_v0", "earlier"), Edge("a_v0", "earlier"), Edge("earlier", "c_v1"),
            Edge("a_v0", "later"), Edge("earlier", "later"),
        ],
        [["earlier", "later"]],
    )
    assert emit_yw(model, "combined") == (
        "# @begin workflow\n"
        "# @begin later\n# @in a_v0\n# @end later\n"
        "# @begin earlier\n# @in b_v0\n# @in a_v0\n# @out c_v1\n# @end earlier\n"
        "# @end workflow\n"
    )


def test_yw_params_only_in_combined(menus_recipe):
    model = build_parallel(menus_recipe)
    assert "# @param" in emit_yw(model, "combined")
    assert "# @param" not in emit_yw(model, "process")
    assert "# @param" not in emit_yw(model, "data")


def test_yw_nesting_balanced_for_random_models():
    rng = random.Random(92)
    for _ in range(6):
        recipe, _ = random_recipe(rng)
        for model in _models(recipe):
            for view in VIEWS:
                check_yw_nesting(emit_yw(model, view))


def test_identifier_sanitization_collision():
    # Two labels that sanitize identically must still get distinct identifiers.
    recipe = make_recipe(
        [
            {"op": "core/fill-down", "columnName": "a b"},
            {"op": "core/fill-down", "columnName": "a_b"},
        ]
    )
    model = _models(recipe)[1]
    graph = parse_dot(emit_dot(model, "data"))
    labels = sorted(attrs["label"] for attrs in graph.nodes.values())
    assert labels == sorted(["a b", "a b", "a_b", "a_b"])
    assert len(graph.nodes) == 4  # distinct identifiers despite equal sanitization


def test_sanitize_keeps_exactly_the_word_characters():
    # sanitize_identifier returns a text without running its regex when
    # str.isalnum() accepts every character but "_": that must be the
    # regex's word characters, on every code point.
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert set(re.findall(r"\w", every)) == {char for char in every if char.isalnum()} | {"_"}
    assert sanitize_identifier("café_日付2") == "café_日付2"
    assert sanitize_identifier("a b-c") == "a_b_c"
    assert sanitize_identifier("") == ""


def test_suffixed_step_name_colliding_with_a_label_stays_unique():
    # The two "a" steps become a_0 and a_1; the step labelled "a_1" then
    # takes one more underscore.
    recipe = make_recipe([{"op": "x/a"}, {"op": "x/a"}, {"op": "x/a_1"}])
    linear, parallel = _models(recipe)[:2]
    graph = parse_dot(emit_dot(parallel, "process"))
    assert {name: attrs["label"] for name, attrs in graph.nodes.items()} == {
        "a_0": "a", "a_1": "a", "a_1_": "a_1",
    }
    assert graph.edges == [("a_0", "a_1", {}), ("a_1", "a_1_", {})]
    assert check_yw_nesting(emit_yw(linear, "process", name="w")) == ["w", "a_0", "a_1", "a_1_"]


def test_identifiers_are_word_characters_for_awkward_labels():
    rng = random.Random(93)
    awkward = ['"', "\\", "\n", "²", "é", "\u3000", "_"]
    labels = ["".join(rng.sample(awkward, len(awkward))) + str(i) for i in range(5)]
    entries = random_recipe_entries(rng, 14, labels)
    view_kinds = {
        "combined": None,
        "process": ("step", "summary"),
        "data": ("data_table", "data_column"),
    }
    # An op id with nothing after its last "/" still names its step.
    for op_id in (None, "core/", "/"):
        extra = [] if op_id is None else [{"op": op_id, "columnName": labels[0]}]
        for model in _models(make_recipe(entries + extra)):
            ids = [n.id for n in model.nodes]
            assert all(re.fullmatch(r"\w+", node_id) for node_id in ids), ids
            assert len(set(ids)) == len(ids), ids
            for view, kinds in view_kinds.items():
                graph = parse_dot(emit_dot(model, view))
                # dotcheck reads an escaped character as itself, so DOT's "\n"
                # line break reads back as "n".
                expected = {
                    n.id: n.label.replace("\n", "n")
                    for n in model.nodes
                    if kinds is None or n.kind in kinds
                }
                assert {name: attrs["label"] for name, attrs in graph.nodes.items()} == expected
                for line in emit_yw(model, view).splitlines():
                    if line.startswith(("# @begin", "# @end")):
                        assert re.fullmatch(r"# @(begin|end) \w+", line), line


def test_builders_sanitize_each_label_and_key_once(menus_recipe, mass_edit_recipe, monkeypatch):
    texts: list[str] = []

    def counting(text: str) -> str:
        texts.append(text)
        return sanitize_identifier(text)

    monkeypatch.setattr("refineflow.model.sanitize_identifier", counting)
    for recipe in (menus_recipe, mass_edit_recipe):
        collapsed = build_collapsed(recipe, threshold=3)
        builds = [
            partial(build_linear, recipe), partial(build_parallel, recipe),
            partial(build_parallel, recipe, dataflow=False), partial(build_collapsed, recipe, 3),
        ] + [partial(detail_model, recipe, n) for n in collapsed.nodes if n.kind == "summary"]
        for build in builds:
            texts.clear()
            model = build()
            named = {n.label for n in model.nodes if n.kind in STEP_KINDS or n.kind == "data_column"}
            named |= {n.payload["key"] for n in model.nodes if n.kind == "param"}
            assert sorted(texts) == sorted(named)


def test_emitters_reject_unknown_view(menus_recipe):
    model = build_linear(menus_recipe)
    for emit in (emit_dot, emit_yw):
        with pytest.raises(ValueError, match="sideways"):
            emit(model, "sideways")


def _yw_ports(text: str) -> dict[str, dict[str, set[str]]]:
    """Ports of each YW block, by block name, read back from the text."""
    ports: dict[str, dict[str, set[str]]] = {}
    block = None
    for line in text.splitlines():
        tag, name = re.fullmatch(r"# @(\w+) (\S+)", line).groups()
        if tag == "begin":
            block = ports.setdefault(name, {"in": set(), "param": set(), "out": set()})
        elif tag == "end":
            block = None
        else:
            block[tag].add(name)
    return ports


def test_views_agree_on_every_edge(menus_recipe, mass_edit_recipe):
    """Combined and process DOT split the model's edges between them, and
    each YW block's ports are the combined DOT edges at its step."""
    recipes = [menus_recipe, mass_edit_recipe] + [recipe for recipe, _ in acceptance_corpus()]
    for recipe in recipes:
        for model in _models(recipe):
            graph = parse_dot(emit_dot(model, "combined"))
            combined = [(src, dst) for src, dst, _ in graph.edges]
            process = [(src, dst) for src, dst, _ in parse_dot(emit_dot(model, "process")).edges]
            assert not set(combined) & set(process)
            assert sorted(combined + process) == sorted((edge.src, edge.dst) for edge in model.edges)
            ports = _yw_ports(emit_yw(model, "combined"))
            steps = {n.id for n in model.nodes if n.kind in STEP_KINDS}
            assert set(ports) == steps | {"workflow"}
            for step in steps:
                into = {src for src, dst in combined if dst == step}
                params = {src for src in into if graph.nodes[src]["fillcolor"] == "#FFFFFF"}
                assert ports[step]["param"] == params
                assert ports[step]["in"] == into - params
                assert ports[step]["out"] == {dst for src, dst in combined if src == step}


def test_dot_checker_rejects_malformed():
    with pytest.raises(DotSyntaxError):
        parse_dot("digraph { a -> }")
    with pytest.raises(DotSyntaxError):
        parse_dot('graph { "a"; }')
    with pytest.raises(DotSyntaxError):
        parse_dot('digraph { "a" -> "b"; }')  # endpoints lack node statements


# --- determinism and goldens ------------------------------------------------------


GOLDEN_CASES = [
    ("menus_linear_combined.dot", "linear", "combined", "dot"),
    ("menus_linear_data.dot", "linear", "data", "dot"),
    ("menus_parallel_combined.dot", "parallel", "combined", "dot"),
    ("menus_parallel_process.dot", "parallel", "process", "dot"),
    ("menus_parallel_data.dot", "parallel", "data", "dot"),
    ("menus_linear_combined.yw", "linear", "combined", "yw"),
    ("menus_parallel_combined.yw", "parallel", "combined", "yw"),
]


@pytest.mark.parametrize("golden_name,kind,view,fmt", GOLDEN_CASES)
def test_emitters_match_goldens(menus_recipe, golden_name, kind, view, fmt):
    model = (
        build_linear(menus_recipe)
        if kind == "linear"
        else build_parallel(menus_recipe)
    )
    if fmt == "dot":
        first, second = emit_dot(model, view), emit_dot(model, view)
    else:
        first, second = emit_yw(model, view, name="menus"), emit_yw(model, view, name="menus")
    assert first == second  # two runs, byte-identical
    assert first == (GOLDEN / golden_name).read_text(encoding="utf-8")


def test_step_only_process_view_equals_the_full_one(menus_recipe, mass_edit_recipe):
    # Generated recipes with row ops, unknown ops and opaque expressions.
    rng = random.Random(20261019)
    recipes = [menus_recipe, mass_edit_recipe] + [
        parse_recipe(json.dumps(generated_recipe(rng, k))) for k in range(200)
    ]
    checked = 0
    builders = (build_parallel, partial(build_collapsed, threshold=2))
    for recipe in recipes:
        try:
            pairs = [(build(recipe), build(recipe, dataflow=False)) for build in builders]
        except RefineflowError:
            continue  # a recipe that reads a column it removed
        for full, steps in pairs:
            assert emit_dot(steps, "process") == emit_dot(full, "process")
            assert all(node.kind in STEP_KINDS for node in steps.nodes)
            assert steps.nodes == [node for node in full.nodes if node.kind in STEP_KINDS]
            assert steps.components == full.components
        checked += 1
    assert checked > 150


@pytest.mark.parametrize(
    "unknown, step, other",
    [
        ("vendor/expression", "expression", "expression_"), ("vendor/a_v1", "a_v1", "a_v1_"),
        ("core/", "core_", "a_v2"),
    ],
)
def test_step_identifiers_agree_across_views(tmp_path, unknown, step, other):
    # The unknown op's short label collides with the transform's param key,
    # or with the data node of the version the transform writes, or is the
    # whole op id, which ends in "/". The YW block names are identifiers.
    recipe = tmp_path / "probe.json"
    recipe.write_text(json.dumps([
        {"op": "core/text-transform", "columnName": "a", "expression": "value.trim()"},
        {"op": unknown},
    ]), encoding="utf-8")
    texts = {}
    for view, fmt in (("process", "dot"), ("combined", "dot"), ("combined", "yw")):
        out = tmp_path / f"{view}.{fmt}"
        assert run(RunConfig(str(recipe), str(out), view=view, format=fmt), stderr=io.StringIO()) == 0
        texts[view, fmt] = out.read_text(encoding="utf-8")
    process = parse_dot(texts["process", "dot"]).nodes
    combined = parse_dot(texts["combined", "dot"])
    assert len(combined.nodes) == texts["combined", "dot"].count(" [label=")
    step_names = [name for name, attrs in combined.nodes.items() if attrs["fillcolor"] == STEP_FILL]
    assert list(process) == step_names == ["text_transform", step]
    assert check_yw_nesting(texts["combined", "yw"]) == ["probe"] + step_names
    assert other in combined.nodes


# Models whose names clash, and their combined YW text, which shows every
# step, param and data name: the text emitted before the builders named the
# nodes, kept byte for byte.
NAMING_CORNER_CASES = {
    # The unknown op's name is the transform's param key.
    "vendor_expression": (build_parallel, [
        {"op": "core/text-transform", "columnName": "a", "expression": "value.trim()"},
        {"op": "vendor/expression"},
    ], """\
# @begin text_transform
# @in a_v0
# @param columnName
# @param expression_
# @out a_v1
# @end text_transform
# @begin expression
# @in a_v1
# @out a_v2
# @end expression
"""),
    # Two "table" steps take the names of the linear model's tables.
    "x_table_twice": (build_linear, [{"op": "x/table"}, {"op": "x/table"}], """\
# @begin table_0
# @in table_0_
# @out table_1_
# @end table_0
# @begin table_1
# @in table_1_
# @out table_2
# @end table_1
"""),
    # A step takes the name of the column's first version.
    "op_named_like_a_data_node": (build_parallel, [
        {"op": "core/fill-down", "columnName": "c0"}, {"op": "x/c0_v0"},
    ], """\
# @begin fill_down
# @in c0_v0_
# @param columnName
# @out c0_v1
# @end fill_down
# @begin c0_v0
# @in c0_v1
# @out c0_v2
# @end c0_v0
"""),
    # The addition's "a" is born at the version of the renamed column's "a".
    "freed_label_taken_again": (build_parallel, [
        {"op": "core/column-rename", "oldColumnName": "a", "newColumnName": "b"},
        {"op": "core/column-addition", "baseColumnName": "b", "newColumnName": "a", "expression": "value"},
    ], """\
# @begin column_rename
# @in a_v0
# @param oldColumnName
# @param newColumnName_0
# @out b_v1
# @end column_rename
# @begin column_addition
# @in b_v1
# @param baseColumnName
# @param newColumnName_1
# @param expression
# @out a_v0_c1
# @end column_addition
"""),
    # Two labels that sanitize alike.
    "labels_sanitized_alike": (build_parallel, [
        {"op": "core/fill-down", "columnName": "a b"}, {"op": "core/fill-down", "columnName": "a-b"},
    ], """\
# @begin fill_down_0
# @in a_b_v0
# @param columnName_0
# @out a_b_v1
# @end fill_down_0
# @begin fill_down_1
# @in a_b_v0_c1
# @param columnName_1
# @out a_b_v1_c1
# @end fill_down_1
"""),
}


@pytest.mark.parametrize("case", sorted(NAMING_CORNER_CASES))
def test_naming_corner_cases_emit_as_before(case):
    build, entries, blocks = NAMING_CORNER_CASES[case]
    model = build(make_recipe(entries))
    assert emit_yw(model, "combined", name=case) == f"# @begin {case}\n{blocks}# @end {case}\n"
    assert set(parse_dot(emit_dot(model, "combined")).nodes) == {n.id for n in model.nodes}
