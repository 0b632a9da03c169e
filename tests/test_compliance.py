from __future__ import annotations

import json

import pytest

from bpmnkit.compliance import (
    RuleCode,
    validate,
    validate_bytes,
)
from bpmnkit.xmlio import qname

from conftest import element_by_id, load_doc

SEEDED_DEFECTS = [
    ("r1_missing_default.bpmn", RuleCode.R1_DEFAULT_FLOW, "gw_route"),
    ("r2_missing_condition.bpmn", RuleCode.R2_CONDITION_EXPR, "flow_full"),
    ("r3_data_order.bpmn", RuleCode.R3_DATA_REF_ORDER, "ref_report"),
    ("r4_dead_end.bpmn", RuleCode.R4_CONNECTIVITY, "task_log"),
    ("r5_duplicate_id.bpmn", RuleCode.R5_WELLFORMED, "data_shared"),
    ("r6_empty_process.bpmn", RuleCode.R6_START_END, "proc_r6"),
]


@pytest.mark.parametrize("name,code,element_id", SEEDED_DEFECTS)
def test_seeded_defect_produces_exactly_one_error(name, code, element_id):
    report = validate(load_doc(name))
    assert [(d.code, d.element_id) for d in report.diagnostics] == [(code, element_id)]
    assert not report.compliant


@pytest.mark.parametrize("name", ["chain3.bpmn", "diamond.bpmn", "loan-approval.bpmn",
                                  "parallel.bpmn", "boundary.bpmn", "inclusive.bpmn"])
def test_clean_fixture_has_no_diagnostics(name):
    report = validate(load_doc(name))
    assert report.compliant
    assert report.diagnostics == []


def test_validate_is_deterministic():
    doc = load_doc("r1_missing_default.bpmn")
    assert validate(doc).to_dict() == validate(doc).to_dict()


def test_parse_failure_surfaces_as_r5():
    report = validate_bytes(b"<definitions><unclosed")
    assert not report.compliant
    assert report.diagnostics[0].code is RuleCode.R5_WELLFORMED
    assert "line" in report.diagnostics[0].message


def test_non_bpmn_document_surfaces_as_r5():
    report = validate_bytes(b'<root xmlns="http://example.com/x"/>')
    assert report.diagnostics[0].code is RuleCode.R5_WELLFORMED


def test_default_referencing_foreign_flow_is_r1():
    doc = load_doc("diamond.bpmn")
    gateway = element_by_id(doc, "gw_split")
    gateway.set("default", "flow_out")  # not one of its outgoing flows
    report = validate(doc)
    codes = [(d.code, d.element_id) for d in report.diagnostics]
    assert (RuleCode.R1_DEFAULT_FLOW, "gw_split") in codes


def test_single_exit_exclusive_gateway_is_exempt():
    # the diamond's join gateway has one outgoing flow and no default
    report = validate(load_doc("diamond.bpmn"))
    assert report.compliant


def test_parallel_gateways_need_no_conditions():
    assert validate(load_doc("parallel.bpmn")).compliant


def test_unresolved_flow_reference_is_r4():
    doc = load_doc("chain3.bpmn")
    flow = element_by_id(doc, "flow_2")
    flow.set("targetRef", "ghost")
    report = validate(doc)
    assert (RuleCode.R4_CONNECTIVITY, "flow_2") in [
        (d.code, d.element_id) for d in report.diagnostics
    ]


def test_inserting_annotation_never_changes_r1_to_r4():
    import xml.etree.ElementTree as ET

    for name in ("diamond.bpmn", "r1_missing_default.bpmn", "r4_dead_end.bpmn"):
        doc = load_doc(name)
        before = [(d.code, d.element_id) for d in validate(doc).diagnostics
                  if d.code is not RuleCode.R5_WELLFORMED
                  and d.code is not RuleCode.R6_START_END]
        ET.SubElement(doc.processes()[0], qname("textAnnotation"), {"id": "note_1"})
        after = [(d.code, d.element_id) for d in validate(doc).diagnostics
                 if d.code is not RuleCode.R5_WELLFORMED
                 and d.code is not RuleCode.R6_START_END]
        assert before == after


def test_compliant_document_really_satisfies_gateway_rules():
    # re-walk the tree independently of the validator
    from bpmnkit.xmlio import local_name

    for name in ("diamond.bpmn", "loan-approval.bpmn", "inclusive.bpmn"):
        doc = load_doc(name)
        assert validate(doc).compliant
        flows_by_source = {}
        for flow in doc.root.iter(qname("sequenceFlow")):
            flows_by_source.setdefault(flow.get("sourceRef"), []).append(flow)
        for elem in doc.root.iter():
            if local_name(elem.tag) != "exclusiveGateway":
                continue
            exits = flows_by_source.get(elem.get("id"), [])
            if len(exits) < 2:
                continue
            defaults = [f for f in exits if f.get("id") == elem.get("default")]
            assert len(defaults) == 1
            for flow in exits:
                if flow.get("id") == elem.get("default"):
                    continue
                cond = flow.find(qname("conditionExpression"))
                assert cond is not None and cond.text.strip()


def test_diagnostics_ordered_by_document_position():
    doc = load_doc("r1_missing_default.bpmn")
    gateway = element_by_id(doc, "gw_route")
    # also remove the condition from the later flow_full to add an R2
    flow = element_by_id(doc, "flow_full")
    for child in list(flow):
        flow.remove(child)
    report = validate(doc)
    codes = [d.code for d in report.diagnostics]
    assert codes == [RuleCode.R1_DEFAULT_FLOW, RuleCode.R2_CONDITION_EXPR]
    assert gateway.get("id") == report.diagnostics[0].element_id



def test_anonymous_flows_keep_gateway_kind_order():
    # unnamed flows share the position after every element, so their R2
    # findings keep the rule's order: exclusive gateways before inclusive
    # ones, whatever the document order
    xml = b"""<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL" id="defs">
  <process id="proc">
    <startEvent id="start"/>
    <sequenceFlow id="flow_in" sourceRef="start" targetRef="gw_or"/>
    <inclusiveGateway id="gw_or" default="flow_or_default"/>
    <sequenceFlow id="flow_or_default" sourceRef="gw_or" targetRef="gw_xor"/>
    <sequenceFlow sourceRef="gw_or" targetRef="gw_xor"/>
    <sequenceFlow sourceRef="gw_or" targetRef="end"/>
    <exclusiveGateway id="gw_xor"/>
    <sequenceFlow sourceRef="gw_xor" targetRef="end"/>
    <sequenceFlow sourceRef="gw_xor" targetRef="end"/>
    <endEvent id="end"/>
  </process>
</definitions>"""
    unconditioned = "non-default flow '' out of gateway {!r} has no condition expression"
    assert [(d.code, d.element_id, d.message) for d in validate_bytes(xml).diagnostics] == [
        (RuleCode.R1_DEFAULT_FLOW, "gw_xor",
         "exclusive gateway 'gw_xor' with 2 outgoing flows declares no default flow"),
        *[(RuleCode.R2_CONDITION_EXPR, "", unconditioned.format("gw_xor"))] * 2,
        *[(RuleCode.R2_CONDITION_EXPR, "", unconditioned.format("gw_or"))] * 2,
    ]

def test_report_json_shape():
    report = validate(load_doc("r1_missing_default.bpmn"))
    data = json.loads(report.to_json())
    assert data["compliant"] is False
    diag = data["diagnostics"][0]
    assert set(diag) == {"code", "element_id", "severity", "message"}
    assert diag["code"] == "R1_DEFAULT_FLOW"
    assert diag["severity"] == "Error"

