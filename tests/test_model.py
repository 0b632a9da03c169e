from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from bpmnkit.model import (
    BpmnEdge,
    BpmnGraph,
    BpmnNode,
    DocumentIndex,
    ElementCategory,
    UnknownNode,
    build_graph,
    context_label,
    graph_stats,
)
from bpmnkit.xmlio import BPMN_NS, DocumentWithoutProcess, parse

from conftest import load_doc


LEFT_OUT = "left out of the graph"


@pytest.mark.parametrize("tag,category", [
    ("userTask", ElementCategory.TASK),
    ("task", ElementCategory.TASK),
    ("callActivity", ElementCategory.TASK),
    ("subProcess", ElementCategory.TASK),
    ("exclusiveGateway", ElementCategory.GATEWAY),
    ("eventBasedGateway", ElementCategory.GATEWAY),
    ("startEvent", ElementCategory.EVENT),
    ("boundaryEvent", ElementCategory.EVENT),
    ("dataObjectReference", ElementCategory.DATA),
    ("dataStoreReference", ElementCategory.DATA),
    ("sequenceFlow", ElementCategory.FLOW),
    ("dataInputAssociation", ElementCategory.FLOW),
    ("textAnnotation", LEFT_OUT),
    ("lane", LEFT_OUT),
    ("participant", LEFT_OUT),
])
def test_categorize_element(tag, category):
    assert _category_in_graph(tag) is category


@given(st.from_regex(r"[A-Za-z_][A-Za-z0-9_.-]{0,29}", fullmatch=True))
def test_categorize_is_total_and_pure(tag):
    first = _category_in_graph(tag)
    assert first in (*ElementCategory, LEFT_OUT)
    assert _category_in_graph(tag) is first


def _category_in_graph(tag: str) -> ElementCategory | str:
    """What ``build_graph`` makes of a ``tag`` element with id ``x`` inside
    task ``a``, given the refs every flow kind needs: its node's category,
    FLOW when it becomes an edge, LEFT_OUT when it is left out of the graph."""
    graph, _ = build_graph(parse(
        f'<definitions xmlns="{BPMN_NS}"><process id="p"><dataObjectReference id="d"/>'
        f'<task id="a"><{tag} id="x" sourceRef="a" targetRef="d"><sourceRef>d</sourceRef>'
        f'<targetRef>d</targetRef></{tag}></task></process></definitions>'))
    nodes = [node.category for node in graph.nodes if node.id == "x"]
    if nodes:
        return nodes[0]
    edges = [edge for edge in graph.edges if edge.id == "x"]
    return ElementCategory.FLOW if edges else LEFT_OUT


def test_a_flow_is_never_a_node():
    with pytest.raises(ValueError, match="'f'"):
        BpmnGraph([BpmnNode("f", "sequenceFlow", "", ElementCategory.FLOW)], [])


def _chain(n: int) -> BpmnGraph:
    nodes = [BpmnNode(f"n{i}", "task", f"Step {i}", ElementCategory.TASK) for i in range(n)]
    edges = [BpmnEdge(f"e{i}", f"n{i}", f"n{i+1}", "sequenceFlow") for i in range(n - 1)]
    return BpmnGraph(nodes, edges)


class TestBuildGraph:
    def test_minimal_chain_counts(self):
        graph, warnings = build_graph(load_doc("chain3.bpmn"))
        assert graph.node_count == 3
        assert graph.edge_count == 2
        assert warnings == []

    def test_dangling_edge_dropped_with_warning(self):
        doc = parse(b"""<?xml version="1.0"?>
            <definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL">
              <process id="p1">
                <startEvent id="s1"/>
                <task id="t1"/>
                <endEvent id="e1"/>
                <sequenceFlow id="f1" sourceRef="s1" targetRef="t1"/>
                <sequenceFlow id="f2" sourceRef="t1" targetRef="missing"/>
              </process>
            </definitions>""")
        graph, warnings = build_graph(doc)
        assert graph.node_count == 3
        assert graph.edge_count == 1
        assert len(warnings) == 1
        assert "missing" in warnings[0]

    def test_loan_approval_counts(self):
        # 8 flow nodes + 2 data objects, 10 sequence flows + 2 data associations
        graph, warnings = build_graph(load_doc("loan-approval.bpmn"))
        assert graph.node_count == 10
        assert graph.edge_count == 12
        assert warnings == []

    def test_boundary_event_attachment_edge(self):
        graph, _ = build_graph(load_doc("boundary.bpmn"))
        attached = [e for e in graph.edges if e.tag == "boundaryAttachment"]
        assert len(attached) == 1
        assert attached[0].source == "task_pay"
        assert attached[0].target == "boundary_timeout"

    def test_flow_conditions_are_indexed(self):
        # compliance reads a flow's condition from the index, and the default
        # flow from its gateway's own ``default`` attribute
        index = DocumentIndex(load_doc("diamond.bpmn"))
        by_id = {link.id: link for link in index.links}
        assert by_id["flow_approve"].condition == "${claimValid}"
        assert by_id["flow_reject"].condition is None
        assert index.elements["gw_split"].get("default") == "flow_reject"

    def test_no_process_raises(self):
        doc = parse(b'<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL"/>')
        with pytest.raises(DocumentWithoutProcess):
            build_graph(doc)


class TestGraphStats:
    def test_three_node_chain(self):
        stats = graph_stats(_chain(3))
        assert stats.degree_sequence == (2, 1, 1)
        assert stats.density == pytest.approx(2 / 6)
        assert stats.average_degree == pytest.approx(4 / 3)

    def test_empty_graph(self):
        stats = graph_stats(BpmnGraph([], []))
        assert stats == graph_stats(BpmnGraph([], []))
        assert (stats.node_count, stats.edge_count) == (0, 0)
        assert stats.density == 0.0
        assert stats.average_degree == 0.0
        assert stats.degree_sequence == ()

    def test_single_node(self):
        graph = BpmnGraph([BpmnNode("a", "task", "A", ElementCategory.TASK)], [])
        stats = graph_stats(graph)
        assert stats.density == 0.0
        assert stats.average_degree == 0.0
        assert stats.degree_sequence == (0,)


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    nodes = [BpmnNode(f"n{i}", "task", f"N{i}", ElementCategory.TASK) for i in range(n)]
    edges = []
    if n:
        count = draw(st.integers(min_value=0, max_value=24))
        for j in range(count):
            source = draw(st.integers(0, n - 1))
            target = draw(st.integers(0, n - 1))
            edges.append(BpmnEdge(f"e{j}", f"n{source}", f"n{target}", "sequenceFlow"))
    return BpmnGraph(nodes, edges)


@given(random_graphs())
def test_handshake_lemma(graph):
    stats = graph_stats(graph)
    assert sum(stats.degree_sequence) == 2 * stats.edge_count
    assert len(stats.degree_sequence) == stats.node_count
    assert list(stats.degree_sequence) == sorted(stats.degree_sequence, reverse=True)


class TestContextLabel:
    def _graph(self, edges):
        nodes = [
            BpmnNode("a", "userTask", "Approve Order", ElementCategory.TASK),
            BpmnNode("b", "userTask", "Check Stock", ElementCategory.TASK),
            BpmnNode("c", "userTask", "Ship Goods", ElementCategory.TASK),
            BpmnNode("d", "userTask", "Archive", ElementCategory.TASK),
        ]
        return BpmnGraph(nodes, edges)

    def test_neighbors_sorted_alphabetically(self):
        graph = self._graph([
            BpmnEdge("e1", "b", "a", "sequenceFlow"),
            BpmnEdge("e2", "a", "c", "sequenceFlow"),
        ])
        assert context_label(graph, "a") == "Approve Order neighbors: Check Stock, Ship Goods"

    def test_isolated_node(self):
        graph = self._graph([])
        assert context_label(graph, "d") == "Archive neighbors: "

    def test_sort_is_forced(self):
        nodes = [
            BpmnNode("r", "userTask", "Review", ElementCategory.TASK),
            BpmnNode("x", "userTask", "b", ElementCategory.TASK),
            BpmnNode("y", "userTask", "a", ElementCategory.TASK),
        ]
        graph = BpmnGraph(nodes, [
            BpmnEdge("e1", "r", "x", "sequenceFlow"),
            BpmnEdge("e2", "r", "y", "sequenceFlow"),
        ])
        assert context_label(graph, "r") == "Review neighbors: a, b"

    def test_invariant_under_edge_insertion_order(self):
        edges = [
            BpmnEdge("e1", "b", "a", "sequenceFlow"),
            BpmnEdge("e2", "a", "c", "sequenceFlow"),
        ]
        forward = self._graph(edges)
        backward = self._graph(list(reversed(edges)))
        assert context_label(forward, "a") == context_label(backward, "a")

    def test_unlabeled_node_falls_back_to_tag(self):
        nodes = [
            BpmnNode("g", "exclusiveGateway", "", ElementCategory.GATEWAY),
            BpmnNode("t", "userTask", "Pay", ElementCategory.TASK),
        ]
        graph = BpmnGraph(nodes, [BpmnEdge("e1", "g", "t", "sequenceFlow")])
        assert context_label(graph, "g") == "exclusiveGateway neighbors: Pay"

    def test_unknown_node(self):
        with pytest.raises(UnknownNode):
            context_label(self._graph([]), "nope")
