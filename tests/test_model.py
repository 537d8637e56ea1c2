from __future__ import annotations

import copy
import pickle
import random

import pytest

from refineflow import (
    Edge,
    EffectError,
    ModelError,
    Node,
    Recipe,
    SchemaState,
    WorkflowModel,
    build_collapsed,
    build_linear,
    build_parallel,
    commutes,
    dependency_edges,
    detail_model,
    downstream_impact,
    infer_initial_schema,
    trace_effects,
    upstream_lineage,
)
from refineflow.model import STEP_KINDS, _transitive_reduction
from refineflow.recipe import CATALOG
from conftest import make_recipe, traced_peak
from oracle import Table, execute
from recipegen import (
    CORPUS_SEED,
    acceptance_corpus,
    has_unique_topological_order,
    random_recipe,
    random_recipe_entries,
)


def _models_for(recipe):
    initial = infer_initial_schema(recipe)
    effects, schemas = trace_effects(recipe, initial)
    return effects, schemas


def _step_ids(model: WorkflowModel) -> dict[int, str]:
    """The id of each step and summary node, by its step index."""
    return {n.step_index: n.id for n in model.nodes if n.kind in STEP_KINDS}


def _order_pairs(model: WorkflowModel) -> list[tuple[int, int]]:
    """The step indices of the model's step-to-step edges, in edge order."""
    index = {node_id: i for i, node_id in _step_ids(model).items()}
    return [(index[e.src], index[e.dst]) for e in model.edges if e.src in index and e.dst in index]


def _is_acyclic(model: WorkflowModel) -> bool:
    """Independent Kahn check over the full edge list."""
    indegree = {node.id: 0 for node in model.nodes}
    successors = {node.id: [] for node in model.nodes}
    for edge in model.edges:
        indegree[edge.dst] += 1
        successors[edge.src].append(edge.dst)
    ready = [n for n, d in indegree.items() if d == 0]
    seen = 0
    while ready:
        seen += 1
        for successor in successors[ready.pop()]:
            indegree[successor] -= 1
            if indegree[successor] == 0:
                ready.append(successor)
    return seen == len(model.nodes)


def _reachable(model: WorkflowModel, start: str, reverse: bool) -> set[str]:
    """Brute-force BFS oracle over the flow edges, those with a data or
    param endpoint, independent of the library's closure code."""
    steps = {node.id for node in model.nodes if node.kind in STEP_KINDS}
    flow = [edge for edge in model.edges if not (edge.src in steps and edge.dst in steps)]
    result = {start}
    changed = True
    while changed:
        changed = False
        for edge in flow:
            src, dst = (edge.dst, edge.src) if reverse else (edge.src, edge.dst)
            if src in result and dst not in result:
                result.add(dst)
                changed = True
    return result


# --- commutativity rule -------------------------------------------------------


def test_disjoint_intra_column_ops_commute():
    recipe = make_recipe(
        [
            {"op": "core/text-transform", "columnName": "A", "expression": "value.toUppercase()"},
            {"op": "core/text-transform", "columnName": "B", "expression": "value.trim()"},
        ]
    )
    effects, _ = _models_for(recipe)
    assert commutes(effects[0], effects[1])
    assert dependency_edges(effects) == set()


def test_split_then_rename_depends(menus_recipe, menus_trace):
    effects, _ = menus_trace
    deps = dependency_edges(effects)
    assert (0, 1) in deps  # rename reads a column the split creates


def test_same_column_writes_depend():
    recipe = make_recipe(
        [
            {"op": "core/mass-edit", "columnName": "A", "expression": "value", "edits": []},
            {"op": "core/mass-edit", "columnName": "A", "expression": "value", "edits": []},
        ]
    )
    effects, _ = _models_for(recipe)
    assert not commutes(effects[0], effects[1])
    assert dependency_edges(effects) == {(0, 1)}


def test_read_write_interference():
    # Step 0 reads A to derive x; step 1 rewrites A: order matters.
    recipe = make_recipe(
        [
            {
                "op": "core/column-addition",
                "baseColumnName": "A",
                "newColumnName": "x",
                "expression": "value",
            },
            {"op": "core/text-transform", "columnName": "A", "expression": "value.toUppercase()"},
        ]
    )
    effects, _ = _models_for(recipe)
    assert not commutes(effects[0], effects[1])


@pytest.mark.parametrize(
    "entries",
    [
        [
            {"op": "core/column-removal", "columnName": "X"},
            {"op": "core/column-rename", "oldColumnName": "A", "newColumnName": "X"},
        ],
        [
            {"op": "core/column-removal", "columnName": "d 1"},
            {"op": "core/column-split", "columnName": "d", "separator": ",", "maxColumns": 2},
        ],
    ],
    ids=["removal-frees-rename-target", "removal-frees-split-part"],
)
def test_label_reuse_depends(entries):
    # Disjoint column ids, but the second step takes a label the first frees.
    recipe = make_recipe(entries)
    effects, _ = _models_for(recipe)
    assert not commutes(effects[0], effects[1])
    assert dependency_edges(effects) == {(0, 1)}


def _step_labels(recipe) -> list[frozenset[str]]:
    """The labels each step gives or frees, read from the decoded steps."""
    return [frozenset(step.gives + step.frees) for step in recipe.steps]


def _reference_conflict(a, a_labels, b, b_labels) -> bool:
    """Whether two steps conflict, stated without ``changes``: either is
    table-scoped, they give or free a common label, or one's writes,
    creates and deletes meet what the other reads, writes, creates or
    deletes. One trace never creates an id twice, but effects of two traces
    can, as in the random pool below, and then they conflict on that id."""
    if a.table_scoped or b.table_scoped or a_labels & b_labels:
        return True
    a_out = a.writes | {cid for cid, _ in a.creates} | a.deletes
    b_out = b.writes | {cid for cid, _ in b.creates} | b.deletes
    return bool(a_out & (b.reads | b_out) or b_out & a.reads)


def test_commutes_symmetry_over_random_effects():
    rng = random.Random(51)
    pool = []
    for _ in range(12):
        recipe, _ = random_recipe(rng)
        effects, _ = _models_for(recipe)
        pool.extend(zip(effects, _step_labels(recipe)))
    recipe = make_recipe([{"op": "core/row-removal"}])
    (table_scoped,), _ = _models_for(recipe)
    pool.append((table_scoped, _step_labels(recipe)[0]))
    for _ in range(400):
        (a, a_labels), (b, b_labels) = rng.choice(pool), rng.choice(pool)
        assert commutes(a, b) == commutes(b, a)
        assert commutes(a, b) != _reference_conflict(a, a_labels, b, b_labels)
    assert not any(commutes(table_scoped, effect) for effect, _ in pool)


# --- dependency sweep against the pairwise oracle -----------------------------


def _brute_force_pairs(recipe, effects) -> set[tuple[int, int]]:
    n, labels = len(effects), _step_labels(recipe)
    return {
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if _reference_conflict(effects[i], labels[i], effects[j], labels[j])
    }


def _closure(n: int, pairs) -> list[int]:
    """Steps reachable from each step, as bit masks."""
    successors: list[list[int]] = [[] for _ in range(n)]
    for i, j in pairs:
        successors[i].append(j)
    reach = [0] * n
    for i in range(n - 1, -1, -1):
        for j in successors[i]:
            reach[i] |= reach[j] | 1 << j
    return reach


def _assert_sweep_matches_oracle(recipe, effects):
    n = len(effects)
    sweep = dependency_edges(effects)
    brute = _brute_force_pairs(recipe, effects)
    assert sweep <= brute
    assert _closure(n, sweep) == _closure(n, brute)
    assert _transitive_reduction(n, sweep) == _transitive_reduction(n, brute)


def _with_table_scoped_steps(entries: list[dict], rng: random.Random, count: int) -> list[dict]:
    entries = list(entries)
    for _ in range(count):
        op = rng.choice(["vendor/unknown-step", "core/row-removal"])
        entries.insert(rng.randint(0, len(entries)), {"op": op})
    return entries


def test_sweep_matches_oracle_on_acceptance_corpus():
    for recipe, table in acceptance_corpus():
        effects, _ = trace_effects(recipe, SchemaState.from_labels(table.labels))
        _assert_sweep_matches_oracle(recipe, effects)


def test_sweep_matches_oracle_with_table_scoped_steps():
    rng = random.Random(CORPUS_SEED + 4)
    for recipe, table in acceptance_corpus():
        entries = [{"op": op.op_id, **op.params} for op in recipe.operations]
        recipe = make_recipe(_with_table_scoped_steps(entries, rng, rng.randint(1, 3)))
        effects, _ = trace_effects(recipe, SchemaState.from_labels(table.labels))
        assert any(effect.table_scoped for effect in effects)
        n = len(effects)
        chain = [(i, i + 1) for i in range(n - 1)]
        assert _closure(n, dependency_edges(effects)) == _closure(n, chain)


def test_sweep_matches_oracle_on_fixtures(menus_recipe, mass_edit_recipe):
    for recipe in (menus_recipe, mass_edit_recipe):
        effects, _ = _models_for(recipe)
        _assert_sweep_matches_oracle(recipe, effects)


def test_changes_are_the_output_ids_and_the_labels_given_or_freed(
    menus_recipe, mass_edit_recipe
):
    rng = random.Random(CORPUS_SEED + 5)
    recipes = [recipe for recipe, _ in acceptance_corpus()] + [menus_recipe, mass_edit_recipe]
    recipes += [
        make_recipe(_with_table_scoped_steps(
            [{"op": op.op_id, **op.params} for op in recipe.operations], rng, 2
        ))
        for recipe in recipes[:10]
    ]
    checked = set()
    for recipe in recipes:
        initial = infer_initial_schema(recipe)
        effects, _ = trace_effects(recipe, initial)
        for k, (effect, labels) in enumerate(zip(effects, _step_labels(recipe))):
            if effect.table_scoped:
                prefix = Recipe(recipe.operations[:k], recipe.split_arity)
                live = {cid for cid, _ in trace_effects(prefix, initial)[1][1].columns}
                assert effect.changes == live, (k, recipe)
            else:
                assert effect.changes == effect.output_ids() | labels, (k, recipe)
            checked.add(effect.table_scoped)
    assert checked == {False, True}


def test_dependency_edges_stay_linear_in_effect_size():
    # Brute force finds 18,686 conflicting pairs here, over the bound. No
    # step is table-scoped, since such a step makes the result the chain.
    rng = random.Random(97)
    labels = [f"c{k}" for k in range(6)]
    entries = random_recipe_entries(rng, 2000, labels)
    recipe = make_recipe(entries)
    effects, _ = _models_for(recipe)
    n = len(effects)
    assert n == 2000
    size = sum(len(e.reads) + len(e.changes) for e in effects)
    assert len(dependency_edges(effects)) <= 2 * size + 2 * n


def test_long_table_scoped_chain_builds_in_bounded_memory():
    # One row op serializes the model; the reduction of the resulting
    # 3,000-step chain must not hold a reachable set per step.
    entries = [{"op": "core/row-removal"}] + [
        {"op": "core/text-transform", "columnName": "ab"[k % 2], "expression": "value.trim()"}
        for k in range(2999)
    ]
    recipe = make_recipe(entries)
    assert traced_peak(build_parallel, recipe) < 50 * 2**20
    assert len(build_parallel(recipe).components) == 1


def _trims(n: int, columns: int) -> list[dict]:
    """n trims taking the columns in turn: one chain per column."""
    return [
        {"op": "core/text-transform", "columnName": f"c{k % columns}", "expression": "value.trim()"}
        for k in range(n)
    ]


def _reduction_peak(entries: list[dict]) -> int:
    effects, _ = _models_for(make_recipe(entries))
    pairs = dependency_edges(effects)
    return traced_peak(_transitive_reduction, len(effects), pairs)


@pytest.mark.parametrize("columns", [1, 50], ids=["one-column-chain", "independent-columns"])
def test_reduction_memory_grows_linearly(columns):
    # A reach mask is as long as the highest step it reaches, so keeping
    # every mask until the end grows with the square of the steps (about 9x
    # here); each mask is dropped once its lowest predecessor has read it.
    n = 1000
    small, large = _reduction_peak(_trims(n, columns)), _reduction_peak(_trims(4 * n, columns))
    assert large <= 6 * small, large / small


# --- records ------------------------------------------------------------------


def test_node_and_edge_records_are_immutable():
    node = Node("step", "step_0", "trim", 0, {"op_id": "core/text-transform"})
    edge = Edge("a_v0", "step_0")
    with pytest.raises(AttributeError):
        node.label = "other"
    with pytest.raises(AttributeError):
        edge.dst = "b_v0"
    assert Node(kind="step", id="step_0", label="trim", step_index=0, payload=node.payload) == node
    assert edge.label is None
    assert len({edge, Edge("a_v0", "step_0"), Edge("a_v0", "step_0", "x")}) == 2


def test_default_payload_is_empty_and_read_only():
    first = Node("data_table", "table_0", "table_0")
    second = Node("data_table", "table_1", "table_1")
    assert first.step_index is None
    assert dict(first.payload) == {} and first.payload.get("version", 0) == 0
    for node in (first, second):
        with pytest.raises(TypeError):
            node.payload["version"] = 1
    assert "version" not in second.payload


def test_payload_get_works_on_every_node_kind(menus_recipe, mass_edit_recipe):
    models = [
        build_linear(menus_recipe),
        build_parallel(menus_recipe),
        build_collapsed(mass_edit_recipe),
    ]
    kinds = set()
    for model in models:
        for node in model.nodes:
            assert node.payload.get("no-such-key") is None
            kinds.add(node.kind)
    assert kinds == {"step", "summary", "param", "data_table", "data_column"}


def _every_model(menus_recipe, mass_edit_recipe) -> list[WorkflowModel]:
    """Each builder's model of both fixtures, each summary's detail model,
    and an upstream and a downstream query subgraph."""
    models = []
    for recipe in (menus_recipe, mass_edit_recipe):
        for build in (build_linear, build_parallel, build_collapsed):
            model = build(recipe)
            models.append(model)
            models.extend(detail_model(recipe, n) for n in model.nodes if n.kind == "summary")
    parallel, collapsed = build_parallel(menus_recipe), build_collapsed(mass_edit_recipe)
    models.append(upstream_lineage(parallel, _data_node_by_label(parallel, "repaired_date")))
    summary = next(n for n in collapsed.nodes if n.kind == "summary")
    models.append(downstream_impact(collapsed, summary.id))
    return models


def test_no_payload_of_a_built_model_can_be_written(menus_recipe, mass_edit_recipe):
    kinds = set()
    for model in _every_model(menus_recipe, mass_edit_recipe):
        for node in model.nodes:
            with pytest.raises(TypeError):
                node.payload["last_index"] = 0
            kinds.add(node.kind)
    assert kinds == {"step", "summary", "param", "data_table", "data_column"}


def test_a_summary_payload_write_cannot_change_its_detail_or_lineage(mass_edit_recipe):
    model = build_collapsed(mass_edit_recipe)
    summary = next(n for n in model.nodes if n.kind == "summary")
    lineage = upstream_lineage(model, summary.id)
    with pytest.raises(TypeError):
        summary.payload["last_index"] = 0
    assert summary.payload["count"] == 10
    assert sum(n.kind == "step" for n in detail_model(mass_edit_recipe, summary).nodes) == 10
    assert [n for n in lineage.nodes if n.id == summary.id] == [summary]


def test_built_models_round_trip_through_pickle_and_copy(menus_recipe, mass_edit_recipe):
    for model in _every_model(menus_recipe, mass_edit_recipe):
        for copied in (pickle.loads(pickle.dumps(model)), copy.copy(model), copy.deepcopy(model)):
            assert copied == model
            assert [type(n.payload) for n in copied.nodes] == [type(n.payload) for n in model.nodes]


def test_no_param_name_can_meet_a_data_name():
    # The builders name param and data nodes against the step names alone:
    # a data name ends in digits after "_v", "_c" or "table_", which no
    # catalog key, nor a key with a step index appended, can.
    keys = {key for spec in CATALOG.values() for key in spec.params}
    assert all(key.isalpha() and key != "table" for key in keys), keys


def test_param_and_plain_step_payloads_are_shared(menus_recipe, mass_edit_recipe):
    recipes = [menus_recipe, mass_edit_recipe] + [recipe for recipe, _ in acceptance_corpus()]
    for recipe in recipes:
        for model in (build_linear(recipe), build_parallel(recipe), build_collapsed(recipe, 2)):
            payloads: dict[tuple[str, str], set[int]] = {}
            labels: dict[tuple[str, str], set[int]] = {}
            for node in model.nodes:
                if node.kind == "param":
                    payloads.setdefault(("param", node.payload["key"]), set()).add(id(node.payload))
                    labels.setdefault(("param", node.label), set()).add(id(node.label))
                elif node.kind == "step" and "pattern" not in node.payload:
                    payloads.setdefault(("step", node.payload["op_id"]), set()).add(id(node.payload))
                    labels.setdefault(("step", node.payload["op_id"]), set()).add(id(node.label))
            assert all(len(ids) == 1 for ids in payloads.values())
            assert all(len(ids) == 1 for ids in labels.values())


def _order_contract_models(recipe) -> list[WorkflowModel]:
    """The linear, parallel and threshold-2 collapsed models, with and
    without dataflow, and each summary's detail model."""
    models = [build_linear(recipe)]
    for dataflow in (True, False):
        models.append(build_parallel(recipe, dataflow=dataflow))
        collapsed = build_collapsed(recipe, 2, dataflow=dataflow)
        models.append(collapsed)
        models.extend(detail_model(recipe, n) for n in collapsed.nodes if n.kind == "summary")
    return models


def _assert_ports_in_node_order(model: WorkflowModel) -> None:
    position = {node.id: index for index, node in enumerate(model.nodes)}
    kinds = {node.id: node.kind for node in model.nodes}
    steps = [node for node in model.nodes if node.kind in STEP_KINDS]
    assert [n.step_index for n in steps] == sorted(n.step_index for n in steps)
    # Per step, the positions of its input, param and output nodes, in edge order.
    ports: dict[tuple[str, str], list[int]] = {}
    for src, dst, _ in model.edges:
        if kinds[dst] in STEP_KINDS and kinds[src] not in STEP_KINDS:
            role = "param" if kinds[src] == "param" else "in"
            ports.setdefault((dst, role), []).append(position[src])
        elif kinds[src] in STEP_KINDS and kinds[dst] not in STEP_KINDS:
            ports.setdefault((src, "out"), []).append(position[dst])
    for key, positions in ports.items():
        assert positions == sorted(positions), key


def test_each_steps_ports_come_in_node_order(menus_recipe, mass_edit_recipe):
    # The emitters read ports in edge order: the builders add each step's
    # input, param and output edges in the order of their nodes.
    recipes = [menus_recipe, mass_edit_recipe] + [recipe for recipe, _ in acceptance_corpus()]
    for recipe in recipes:
        for model in _order_contract_models(recipe):
            _assert_ports_in_node_order(model)
    parallel = build_parallel(menus_recipe)
    _assert_ports_in_node_order(upstream_lineage(parallel, _data_node_by_label(parallel, "repaired_date")))
    _assert_ports_in_node_order(downstream_impact(parallel, "date_v0"))


# --- linear model -------------------------------------------------------------


def test_linear_menus_shape(menus_recipe):
    model = build_linear(menus_recipe)
    tables = [n for n in model.nodes if n.kind == "data_table"]
    steps = [n for n in model.nodes if n.kind == "step"]
    assert len(tables) == 9
    assert len(steps) == 8
    flow = {(e.src, e.dst) for e in model.edges}
    step = _step_ids(model)
    for i in range(8):
        assert (f"table_{i}", step[i]) in flow
        assert (step[i], f"table_{i + 1}") in flow
    table_ids = {n.id for n in tables}
    table_step_edges = [e for e in model.edges if e.src in table_ids or e.dst in table_ids]
    assert len(table_step_edges) == 16
    assert model.components == [[step[i] for i in range(8)]]


def test_linear_empty_recipe():
    model = build_linear(make_recipe([]))
    assert [n.id for n in model.nodes] == ["table_0"]
    assert model.edges == []
    assert model.components == []


def test_linear_model_raises_a_faulty_steps_error():
    # No builder models a step the trace refuses: every builder runs the
    # trace and raises its error, the linear model included.
    cases = [
        (
            [{"op": "core/fill-down", "columnName": "a"}, {"op": "core/fill-down", "columnName": None}],
            ("missing-param", "step 1 (core/fill-down) lacks required parameter 'columnName'", 1),
        ),
        (
            [
                {"op": "core/column-removal", "columnName": "a"},
                {"op": "core/text-transform", "columnName": "a", "expression": "value"},
            ],
            (
                "unresolved-column",
                "step 1 (core/text-transform) references column 'a' which is not live at that point",
                1,
            ),
        ),
        (
            [
                {
                    "op": "core/column-addition", "baseColumnName": "a", "newColumnName": "b",
                    "expression": "value",
                },
                {"op": "core/column-rename", "oldColumnName": "a", "newColumnName": "b"},
            ],
            ("label-collision", "duplicate column label 'b'", 1),
        ),
    ]
    for entries, expected in cases:
        recipe = make_recipe(entries)
        with pytest.raises(EffectError) as traced:
            trace_effects(recipe, infer_initial_schema(recipe))
        assert (traced.value.code, traced.value.message, traced.value.step_index) == expected
        for build in (build_linear, build_parallel, build_collapsed):
            with pytest.raises(EffectError) as info:
                build(recipe)
            assert (info.value.code, info.value.message, info.value.step_index) == expected


def test_linear_single_rename_params():
    recipe = make_recipe(
        [{"op": "core/column-rename", "oldColumnName": "date 2", "newColumnName": "year"}]
    )
    model = build_linear(recipe)
    params = [n for n in model.nodes if n.kind == "param"]
    assert len(params) == 2
    assert {p.payload["key"] for p in params} == {"oldColumnName", "newColumnName"}
    flow = {(e.src, e.dst) for e in model.edges}
    step = _step_ids(model)[0]
    assert ("table_0", step) in flow and (step, "table_1") in flow
    assert all((p.id, step) in flow for p in params)


# --- parallel model -----------------------------------------------------------


def test_parallel_menus_components(menus_recipe):
    model = build_parallel(menus_recipe)
    assert len(model.components) == 3


def test_parallel_menus_split_and_merge(menus_recipe):
    model = build_parallel(menus_recipe)
    date_group = model.components[0]
    split_steps = [
        n for n in model.nodes
        if n.id in date_group and n.payload.get("pattern") == "split"
    ]
    merge_steps = [
        n for n in model.nodes
        if n.id in date_group and n.payload.get("pattern") == "merge"
    ]
    assert len(split_steps) == 1
    assert split_steps[0].payload["branches"] == 3
    assert len(merge_steps) == 1
    merge_outputs = [
        e.dst for e in model.edges if e.src == merge_steps[0].id and e.dst not in date_group
    ]
    labels = {n.id: n.label for n in model.nodes}
    assert [labels[out] for out in merge_outputs] == ["repaired_date"]


def test_parallel_unknown_op_serializes_everything():
    recipe = make_recipe(
        [
            {"op": "core/text-transform", "columnName": "a", "expression": "value"},
            {"op": "vendor/mystery"},
            {"op": "core/text-transform", "columnName": "b", "expression": "value"},
        ]
    )
    model = build_parallel(recipe)
    assert len(model.components) == 1
    assert set(_order_pairs(model)) == {(0, 1), (1, 2)}


def test_opaque_expression_stays_column_scoped():
    recipe = make_recipe(
        [
            {"op": "core/text-transform", "columnName": "a", "expression": "jython:return value"},
            {"op": "core/text-transform", "columnName": "b", "expression": "value.trim()"},
            {"op": "core/text-transform", "columnName": "c", "expression": "value.trim()"},
        ]
    )
    effects, _ = _models_for(recipe)
    assert not any(effect.table_scoped for effect in effects)
    assert dependency_edges(effects) == {(0, 1), (0, 2)}
    assert len(build_parallel(recipe).components) == 1


def test_parallel_all_table_scoped_degenerates_to_chain():
    # Leading fill-down keeps one live column for the row ops to flow through.
    recipe = make_recipe(
        [
            {"op": "core/fill-down", "columnName": "a"},
            {"op": "core/row-removal"},
            {"op": "core/row-flag"},
        ]
    )
    model = build_parallel(recipe)
    assert len(model.components) == 1
    assert has_unique_topological_order(3, set(_order_pairs(model)))


def test_parallel_models_are_dags_and_refine_linear_order():
    rng = random.Random(61)
    for _ in range(25):
        recipe, _ = random_recipe(rng)
        effects, _ = _models_for(recipe)
        model = build_parallel(recipe)
        assert _is_acyclic(model)
        # The recorded order satisfies every dependency pair.
        for i, j in dependency_edges(effects):
            assert i < j
        # Components partition all steps.
        step_ids = {n.id for n in model.nodes if n.kind == "step"}
        grouped = [nid for group in model.components for nid in group]
        assert sorted(grouped) == sorted(step_ids)


def _conflict_components(recipe, effects, merged=()) -> list[list[int]]:
    """Connected components of the undirected brute-force conflict graph
    (the recorded chain when a step is table-scoped), with each of the
    ``merged`` (first, last) step ranges joined; by first step, ascending."""
    n = len(effects)
    if any(effect.table_scoped for effect in effects):
        pairs = {(i, i + 1) for i in range(n - 1)}
    else:
        pairs = _brute_force_pairs(recipe, effects)
    pairs |= {(i, i + 1) for first, last in merged for i in range(first, last)}
    neighbors: dict[int, set[int]] = {i: set() for i in range(n)}
    for i, j in pairs:
        neighbors[i].add(j)
        neighbors[j].add(i)
    seen: set[int] = set()
    components = []
    for root in range(n):
        if root not in seen:
            seen.add(root)
            frontier, members = [root], []
            while frontier:
                step = frontier.pop()
                members.append(step)
                frontier.extend(neighbors[step] - seen)
                seen.update(neighbors[step])
            components.append(sorted(members))
    return components


def _component_steps(model: WorkflowModel) -> list[list[int]]:
    """Each component's steps, a summary's run expanded, in model order."""
    node_of = {node.id: node for node in model.nodes}
    components = []
    for group in model.components:
        steps = []
        for node_id in group:
            node = node_of[node_id]
            if node.kind == "summary":
                steps.extend(range(node.payload["first_index"], node.payload["last_index"] + 1))
            else:
                steps.append(node.step_index)
        components.append(steps)
    return components


def _component_test_recipes(menus_recipe, mass_edit_recipe) -> list[Recipe]:
    rng = random.Random(CORPUS_SEED + 31)
    corpus = [recipe for recipe, _ in acceptance_corpus()]
    serialized = [
        make_recipe(_with_table_scoped_steps(
            [{"op": op.op_id, **op.params} for op in recipe.operations], rng, 1
        ))
        for recipe in corpus[:10]
    ]
    generated = [
        make_recipe(random_recipe_entries(rng, rng.randint(5, 60), [f"c{k}" for k in range(8)]))
        for _ in range(20)
    ]
    return [menus_recipe, mass_edit_recipe] + corpus + serialized + generated


def test_parallel_components_are_the_conflict_graphs_branches(menus_recipe, mass_edit_recipe):
    for recipe in _component_test_recipes(menus_recipe, mass_edit_recipe):
        effects, _ = _models_for(recipe)
        model = build_parallel(recipe, dataflow=False)
        # Components by first step, members ascending.
        assert _component_steps(model) == _conflict_components(recipe, effects)


def test_collapsed_components_are_unions_of_their_runs_and_steps(menus_recipe, mass_edit_recipe):
    for recipe in _component_test_recipes(menus_recipe, mass_edit_recipe):
        effects, _ = _models_for(recipe)
        model = build_collapsed(recipe, threshold=2)
        runs = [
            (n.payload["first_index"], n.payload["last_index"])
            for n in model.nodes
            if n.kind == "summary"
        ]
        # A component lists its groups ascending, so its steps come out
        # ascending, and the components come by their first groups.
        assert _component_steps(model) == _conflict_components(recipe, effects, runs)


def test_parallel_version_chains_are_consistent(menus_recipe):
    model = build_parallel(menus_recipe)
    data_nodes = [n for n in model.nodes if n.kind == "data_column"]
    by_key = {(n.payload["column_id"], n.payload["version"]): n for n in data_nodes}
    assert len(by_key) == len(data_nodes)  # no duplicate versions
    # Every non-initial version is produced by exactly one step.
    producers: dict[str, int] = {}
    step_ids = {n.id for n in model.nodes if n.kind == "step"}
    for edge in model.edges:
        if edge.src in step_ids and edge.dst in {n.id for n in data_nodes}:
            producers[edge.dst] = producers.get(edge.dst, 0) + 1
    for node in data_nodes:
        expected = 0 if node.payload["column_id"] < 3 and node.payload["version"] == 0 else 1
        assert producers.get(node.id, 0) == expected


def test_every_read_comes_from_the_version_just_before_its_step(menus_recipe, mass_edit_recipe):
    recipes = [recipe for recipe, _ in acceptance_corpus()] + [menus_recipe, mass_edit_recipe]
    for recipe in recipes:
        effects, _ = _models_for(recipe)
        # Each column's version before each step, counted from the effects.
        before: list[dict[int, int]] = []
        version: dict[int, int] = {}
        for effect in effects:
            before.append(dict(version))
            for cid in effect.writes:
                version[cid] = version.get(cid, 0) + 1
        parallel = build_parallel(recipe)
        collapsed = build_collapsed(recipe, threshold=2)
        for model in (parallel, collapsed):
            nodes = {node.id: node for node in model.nodes}
            read: dict[str, set[int]] = {}
            for edge in model.edges:
                src, dst = nodes[edge.src], nodes[edge.dst]
                if src.kind == "data_column" and dst.kind in ("step", "summary"):
                    cid = src.payload["column_id"]
                    assert src.payload["version"] == before[dst.step_index].get(cid, 0)
                    read.setdefault(dst.id, set()).add(cid)
            for node in model.nodes:
                if node.kind == "step":
                    assert read.get(node.id, set()) == effects[node.step_index].reads
                elif node.kind == "summary":
                    first, last = node.payload["first_index"], node.payload["last_index"]
                    group = effects[first : last + 1]
                    assert read.get(node.id, set()) == set().union(*(e.reads for e in group))


# --- collapsed model ----------------------------------------------------------


def test_collapse_run_of_ten(mass_edit_recipe):
    model = build_collapsed(mass_edit_recipe, threshold=3)
    summaries = [n for n in model.nodes if n.kind == "summary"]
    assert len(summaries) == 1
    summary = summaries[0]
    assert summary.payload["count"] == 10
    assert summary.label == "core/mass-edit × 10"
    assert [n.kind for n in model.nodes if n.kind == "step"] == []
    inner_steps = [n for n in detail_model(mass_edit_recipe, summary).nodes if n.kind == "step"]
    assert [n.payload["op_id"] for n in inner_steps] == ["core/mass-edit"] * 10


def test_detail_model_raises_a_faulty_steps_error():
    # detail_model does not trace again, but it raises a folded step's
    # error as the trace does.
    fill = {"op": "core/fill-down", "columnName": "a"}
    model = build_collapsed(make_recipe([fill] * 3), threshold=3)
    (summary,) = [n for n in model.nodes if n.kind == "summary"]
    faulty = make_recipe([fill, {"op": "core/fill-down"}, fill])
    with pytest.raises(EffectError) as info:
        detail_model(faulty, summary)
    assert (info.value.code, info.value.step_index) == ("missing-param", 1)


def test_detail_model_refuses_a_node_that_is_not_a_summary(mass_edit_recipe):
    model = build_collapsed(mass_edit_recipe, threshold=3)
    for node in [n for n in model.nodes if n.kind != "summary"]:
        with pytest.raises(ModelError) as info:
            detail_model(mass_edit_recipe, node)
        assert info.value.code == "not-a-summary"


@pytest.mark.parametrize("threshold", ["3", 2.5, 3.0, True, 1, 0, -2, None])
def test_collapse_threshold_must_be_an_int_of_at_least_two(mass_edit_recipe, threshold):
    with pytest.raises(ValueError, match="collapse threshold"):
        build_collapsed(mass_edit_recipe, threshold)


def test_collapse_folds_a_rename_run():
    entries = [
        {"op": "core/column-rename", "oldColumnName": f"x{k}", "newColumnName": f"x{k + 1}"}
        for k in range(5)
    ] + [{"op": "core/text-transform", "columnName": "x5", "expression": "value.trim()"}]
    recipe = make_recipe(entries)
    model = build_collapsed(recipe, threshold=3)
    kinds = {n.id: n.kind for n in model.nodes}

    def columns(node_id: str, into: bool) -> list[str]:
        ends = [(e.src, e.dst) if into else (e.dst, e.src) for e in model.edges]
        return [other for other, end in ends if end == node_id and kinds[other] == "data_column"]

    step = _step_ids(model)
    assert columns(step[0], into=True) == ["x0_v0"]
    assert columns(step[0], into=False) == ["x5_v5"]
    assert columns(step[5], into=True) == ["x5_v5"]
    assert columns(step[5], into=False) == ["x5_v6"]
    (summary,) = [n for n in model.nodes if n.kind == "summary"]
    assert (summary.id, summary.step_index) == (step[0], 0)
    assert summary.id == "core_column_rename___5"
    inner = detail_model(recipe, summary)
    assert inner == build_linear(Recipe(recipe.operations[:5]))
    assert [n.label for n in inner.nodes if n.kind == "step"] == ["column-rename"] * 5
    assert _order_pairs(inner) == [(k, k + 1) for k in range(4)]


def test_collapse_below_threshold_keeps_steps():
    entries = [
        {
            "op": "core/mass-edit",
            "columnName": "a",
            "expression": "value",
            "edits": [{"from": ["x"], "to": "y"}],
        }
    ] * 2
    recipe = make_recipe(entries)
    model = build_collapsed(recipe, threshold=3)
    assert [n.kind for n in model.nodes if n.kind == "summary"] == []
    assert len([n for n in model.nodes if n.kind == "step"]) == 2


def test_alternating_ops_never_collapse():
    entries = []
    for _ in range(6):
        entries.append(
            {
                "op": "core/mass-edit",
                "columnName": "a",
                "expression": "value",
                "edits": [{"from": ["x"], "to": "y"}],
            }
        )
        entries.append(
            {"op": "core/text-transform", "columnName": "a", "expression": "value.trim()"}
        )
    recipe = make_recipe(entries)
    model = build_collapsed(recipe, threshold=2)
    assert all(n.kind != "summary" for n in model.nodes)


def test_collapse_same_op_different_columns_not_a_run():
    entries = [
        {
            "op": "core/mass-edit",
            "columnName": column,
            "expression": "value",
            "edits": [{"from": ["x"], "to": "y"}],
        }
        for column in ("a", "b", "a", "b")
    ]
    recipe = make_recipe(entries)
    model = build_collapsed(recipe, threshold=2)
    assert all(n.kind != "summary" for n in model.nodes)


def test_collapse_threshold_validated(mass_edit_recipe):
    with pytest.raises(ValueError):
        build_collapsed(mass_edit_recipe, threshold=1)


def test_collapse_conservation_over_random_recipes():
    rng = random.Random(71)
    for _ in range(20):
        recipe, _ = random_recipe(rng)
        threshold = rng.choice([2, 3, 5])
        model = build_collapsed(recipe, threshold)
        steps = [n for n in model.nodes if n.kind == "step"]
        summaries = [n for n in model.nodes if n.kind == "summary"]
        assert len(steps) + sum(s.payload["count"] for s in summaries) == len(recipe)
        for summary in summaries:
            first = summary.payload["first_index"]
            inner_steps = [n for n in detail_model(recipe, summary).nodes if n.kind == "step"]
            assert len(inner_steps) == summary.payload["count"]
            assert {n.payload["op_id"] for n in inner_steps} == {recipe.operations[first].op_id}
        assert _is_acyclic(model)


# --- lineage queries ----------------------------------------------------------


def _data_node_by_label(model: WorkflowModel, label: str) -> str:
    nodes = [n for n in model.nodes if n.kind == "data_column" and n.label == label]
    assert nodes, label
    return max(nodes, key=lambda n: n.payload.get("version", 0)).id


def test_upstream_of_repaired_date(menus_recipe):
    model = build_parallel(menus_recipe)
    target = _data_node_by_label(model, "repaired_date")
    lineage = upstream_lineage(model, target)
    labels = {n.label for n in lineage.nodes}
    assert {"date", "day", "month", "year", "repaired_date"} <= labels
    assert "event" not in labels
    assert "dish_count" not in labels
    kinds = {n.id: n for n in lineage.nodes}
    assert any(n.payload.get("pattern") == "split" for n in lineage.nodes)
    assert any(n.payload.get("pattern") == "merge" for n in lineage.nodes)


def test_upstream_of_source_table_is_itself(menus_recipe):
    model = build_linear(menus_recipe)
    lineage = upstream_lineage(model, "table_0")
    assert [n.id for n in lineage.nodes] == ["table_0"]
    assert lineage.edges == []


def test_lineage_matches_reverse_bfs_oracle():
    rng = random.Random(81)
    for _ in range(10):
        recipe, _ = random_recipe(rng)
        model = build_parallel(recipe)
        node = rng.choice(model.nodes)
        up = upstream_lineage(model, node.id)
        assert {n.id for n in up.nodes} == _reachable(model, node.id, reverse=True)
        down = downstream_impact(model, node.id)
        assert {n.id for n in down.nodes} == _reachable(model, node.id, reverse=False)
        # Induced edges: exactly those with both endpoints kept.
        kept = {n.id for n in up.nodes}
        expected_edges = [e for e in model.edges if e.src in kept and e.dst in kept]
        assert up.edges == expected_edges


def test_lineage_names_each_input_whose_perturbation_shows_and_no_other():
    # Over the corpus: each initial column's cells get a per-row suffix, the
    # recipe is replayed, and every final column that changes must hold that
    # input in its upstream lineage. Each lineage must be reachable from its
    # node over flow edges alone: no input is reached through an order edge.
    checked = shown = 0
    for recipe, table in acceptance_corpus():
        model = build_parallel(recipe)
        initial, final = trace_effects(recipe, infer_initial_schema(recipe))[1]
        # Each column's first and last data nodes: nodes come as versions are born.
        first, last = {}, {}
        for node in model.nodes:
            if node.kind == "data_column":
                first.setdefault(node.payload["column_id"], node.id)
                last[node.payload["column_id"]] = node.id
        lineage = {}
        for cid, label in final.columns:
            subgraph = upstream_lineage(model, last[cid])
            lineage[label] = {n.id for n in subgraph.nodes}
            assert _reachable(subgraph, last[cid], reverse=True) == lineage[label]
        expected = execute(recipe, table).by_label()
        inputs = {label: first[cid] for cid, label in initial.columns}
        for position, label in enumerate(table.labels):
            rows = [list(row) for row in table.rows]
            for r, row in enumerate(rows):
                row[position] += f"~{r}"
            perturbed = execute(recipe, Table(table.labels, rows)).by_label()
            for final_label, kept in lineage.items():
                checked += 1
                if perturbed[final_label] != expected[final_label]:
                    shown += 1
                    assert inputs.get(label) in kept, (recipe.operations, label, final_label)
    assert checked > 2500 and shown > 500


def test_unknown_node_query(menus_recipe):
    model = build_parallel(menus_recipe)
    with pytest.raises(ModelError) as info:
        upstream_lineage(model, "nope")
    assert info.value.code == "unknown-node"
