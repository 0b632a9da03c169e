from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from bpmnkit.layout import NODE_WIDTH, STEP_X, _longest_path_layers, auto_layout
from bpmnkit.model import ElementCategory, build_graph
from bpmnkit.xmlio import (
    BPMNDI_NS,
    DocumentWithoutProcess,
    local_name,
    parse,
    serialize,
    strip_di,
)

from conftest import CLEAN_FIXTURES, load_doc


def _shapes(diagrams):
    shapes = {}
    for diagram in diagrams:
        for elem in diagram.iter():
            if local_name(elem.tag) == "BPMNShape":
                bounds = elem[0]
                shapes[elem.get("bpmnElement")] = (
                    int(bounds.get("x")), int(bounds.get("y")))
    return shapes


def test_chain_lays_out_on_the_grid():
    shapes = _shapes(auto_layout(load_doc("chain3.bpmn")))
    assert shapes["start_1"] == (0, 0)
    assert shapes["task_1"] == (STEP_X, 0)
    assert shapes["end_1"] == (2 * STEP_X, 0)
    assert STEP_X == NODE_WIDTH + 60


def test_diamond_branches_share_layer_with_distinct_rows():
    shapes = _shapes(auto_layout(load_doc("diamond.bpmn")))
    approve = shapes["task_approve"]
    reject = shapes["task_reject"]
    assert approve[0] == reject[0] == 2 * STEP_X
    assert approve[1] != reject[1]
    assert shapes["gw_join"][0] == 3 * STEP_X


def test_empty_process_yields_empty_plane():
    diagrams = auto_layout(load_doc("r6_empty_process.bpmn"))
    assert len(diagrams) == 1
    plane = diagrams[0][0]
    assert local_name(plane.tag) == "BPMNPlane"
    assert len(plane) == 0


@pytest.mark.parametrize("name", CLEAN_FIXTURES)
def test_every_flow_node_gets_exactly_one_shape(name):
    doc = load_doc(name)
    stripped, _ = strip_di(doc)
    shape_refs = []
    for diagram in auto_layout(stripped):
        for elem in diagram.iter():
            if local_name(elem.tag) == "BPMNShape":
                shape_refs.append(elem.get("bpmnElement"))
    flow_nodes = [
        node.id for node in build_graph(stripped)[0].nodes
        if node.category in (ElementCategory.TASK, ElementCategory.GATEWAY, ElementCategory.EVENT)
    ]
    assert sorted(shape_refs) == sorted(flow_nodes)
    assert len(set(shape_refs)) == len(shape_refs)


def test_layout_is_deterministic():
    doc = load_doc("loan-approval.bpmn")
    stripped, _ = strip_di(doc)
    first, second = stripped.copy(), stripped.copy()
    first.root.extend(auto_layout(stripped))
    second.root.extend(auto_layout(stripped))
    assert serialize(first) == serialize(second)


def test_layout_output_parses_as_valid_di():
    doc = load_doc("boundary.bpmn")
    diagrams = auto_layout(doc)
    ids = doc.element_ids()
    assert all(e.get("bpmnElement") in ids
               for diagram in diagrams for e in diagram.iter() if e.get("bpmnElement"))
    doc.root.extend(diagrams)
    again = parse(serialize(doc))
    diagrams = [e for e in again.root.iter()
                if e.tag == f"{{{BPMNDI_NS}}}BPMNDiagram"]
    assert len(diagrams) == 1


def test_every_sequence_flow_gets_waypoints():
    edges = [e for diagram in auto_layout(load_doc("diamond.bpmn")) for e in diagram.iter()
             if local_name(e.tag) == "BPMNEdge"]
    assert len(edges) == 6
    for edge in edges:
        waypoints = [w for w in edge if local_name(w.tag) == "waypoint"]
        assert len(waypoints) in (2, 3)


def test_cyclic_model_still_lays_out():
    # loan-approval has a resubmission loop back to task_submit
    shapes = _shapes(auto_layout(load_doc("loan-approval.bpmn")))
    assert len(shapes) == 8


def test_missing_process_raises():
    doc = parse(b'<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL"/>')
    with pytest.raises(DocumentWithoutProcess):
        auto_layout(doc)


@st.composite
def digraphs(draw, acyclic):
    """Node ids and edges, with repeats, and with cycles and self-loops unless
    ``acyclic``. An acyclic graph's edges go from a lower to a higher rank, in
    a random ranking of the nodes."""
    n = draw(st.integers(1, 12))
    rank = draw(st.permutations(range(n)))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pairs, max_size=3 * n))
    if acyclic:
        edges = [(a, b) if rank[a] < rank[b] else (b, a) for a, b in edges if a != b]
    return [f"n{i}" for i in range(n)], [(f"n{a}", f"n{b}") for a, b in edges]


@given(digraphs(acyclic=True))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_layers_on_a_dag_are_longest_path_distances(graph):
    node_ids, edges = graph
    layers: dict[str, int] = {}

    def longest(nid):
        if nid not in layers:
            layers[nid] = max((longest(s) + 1 for s, t in edges if t == nid), default=0)
        return layers[nid]

    assert _longest_path_layers(node_ids, edges) == {nid: longest(nid) for nid in node_ids}


@given(digraphs(acyclic=False))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_layers_with_cycles_stay_in_range(graph):
    node_ids, edges = graph
    layers = _longest_path_layers(node_ids, edges)
    assert set(layers) == set(node_ids)
    assert all(0 <= layer < len(node_ids) for layer in layers.values())
