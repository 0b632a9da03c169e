"""Graph building, compliance and layout read one document index, so they
agree on every document, including ones that repeat or omit ids."""

from __future__ import annotations

from xml.sax.saxutils import quoteattr

from hypothesis import example, given, settings, strategies as st

from bpmnkit.compliance import RuleCode, validate
from bpmnkit.layout import auto_layout
from bpmnkit.model import ElementCategory, build_graph
from bpmnkit.similarity import type_counts
from bpmnkit.xmlio import BPMNDI_NS, parse, qname

# A small id pool makes repeated ids common; None leaves the id out.
IDS = st.sampled_from(["a", "b", "c", "d", "e", "f", "g"]) | st.none()
REFS = IDS | st.just("ghost")
NODE_TAGS = ["startEvent", "endEvent", "task", "userTask", "exclusiveGateway",
             "parallelGateway", "intermediateCatchEvent", "dataObject",
             "dataObjectReference"]
FLOW_NODES = (ElementCategory.TASK, ElementCategory.GATEWAY, ElementCategory.EVENT)


def _element(tag: str, body: str = "", **attrs: str | None) -> str:
    rendered = "".join(f" {k}={quoteattr(v)}" for k, v in attrs.items() if v is not None)
    return f"<bpmn:{tag}{rendered}>{body}</bpmn:{tag}>"


@st.composite
def _contents(draw, depth: int) -> str:
    kinds = ["node", "node", "flow", "flow", "boundary", "data_task"]
    if depth < 2:
        kinds.append("subProcess")
    parts = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=7)):
        if kind == "node":
            parts.append(_element(draw(st.sampled_from(NODE_TAGS)), id=draw(IDS)))
        elif kind == "flow":
            parts.append(_element("sequenceFlow", id=draw(IDS), sourceRef=draw(REFS),
                                  targetRef=draw(REFS)))
        elif kind == "boundary":
            parts.append(_element("boundaryEvent", id=draw(IDS), attachedToRef=draw(REFS)))
        elif kind == "data_task":
            inputs = _element("dataInputAssociation", _element("sourceRef", draw(IDS) or ""),
                              id=draw(IDS))
            outputs = _element("dataOutputAssociation", _element("targetRef", draw(IDS) or ""),
                               id=draw(IDS))
            parts.append(_element("task", inputs + outputs, id=draw(IDS)))
        else:
            parts.append(_element("subProcess", draw(_contents(depth + 1)), id=draw(IDS)))
    return "".join(parts)


@st.composite
def documents(draw) -> str:
    body = "".join(_element("process", draw(_contents(0)), id=draw(IDS))
                   for _ in range(draw(st.integers(1, 2))))
    if draw(st.booleans()):
        shapes = "".join(f"<bpmndi:BPMNShape id={quoteattr(draw(IDS) or 'shape')} "
                         f"bpmnElement={quoteattr(draw(REFS) or '')}/>"
                         for _ in range(draw(st.integers(0, 3))))
        body += ("<bpmndi:BPMNDiagram><bpmndi:BPMNPlane>"
                 f"{shapes}</bpmndi:BPMNPlane></bpmndi:BPMNDiagram>")
    return _document(body)


def _document(body: str) -> str:
    return ('<bpmn:definitions xmlns:bpmn="http://www.omg.org/spec/BPMN/20100524/MODEL" '
            f'xmlns:bpmndi="{BPMNDI_NS}">{body}</bpmn:definitions>')


@given(documents())
@settings(max_examples=300, deadline=None, derandomize=True)
@example(_document('<bpmn:process id="p"><bpmn:dataObject id="X"/><bpmn:task id="X"/>'
                   '</bpmn:process>'))
@example(_document('<bpmn:process id="p1"><bpmn:startEvent id="S"/></bpmn:process>'
                   '<bpmn:process id="p2"><bpmn:startEvent id="S"/></bpmn:process>'))
def test_graph_layout_and_compliance_agree_on_flow_nodes(xml):
    doc = parse(xml)
    graph, _ = build_graph(doc)
    flow_nodes = {node.id for node in graph.nodes if node.category in FLOW_NODES}

    shapes = [shape for diagram in auto_layout(doc)
              for shape in diagram.iter(f"{{{BPMNDI_NS}}}BPMNShape")]
    assert {shape.get("bpmnElement") for shape in shapes} == flow_nodes
    shape_ids = [shape.get("id") for shape in shapes]
    assert len(shape_ids) == len(set(shape_ids))

    sequence_flows = {flow.get("id", "") for flow in doc.root.iter(qname("sequenceFlow"))}
    for diagnostic in validate(doc).diagnostics:
        if diagnostic.code is RuleCode.R4_CONNECTIVITY:
            assert diagnostic.element_id in flow_nodes | sequence_flows


@given(documents())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_the_graph_holds_only_node_categories(xml):
    graph, _ = build_graph(parse(xml))
    assert {node.category for node in graph.nodes} <= {
        ElementCategory.TASK, ElementCategory.GATEWAY, ElementCategory.EVENT,
        ElementCategory.DATA}
    assert list(type_counts(graph)) == [category.value for category in ElementCategory]
