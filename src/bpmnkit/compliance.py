"""Static execution-compliance checks for BPMN documents.

Six rules cover what an execution engine needs before a model can run:
gateway default paths (R1), branch conditions (R2), data-object reference
ordering (R3), sequence-flow connectivity (R4), well-formedness and unique
ids (R5), and process start/end boundaries in a document that declares at
least one process (R6). Violations are errors; a report with zero errors is
compliant.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator

from .model import ATTACHMENT_TAG, DocumentIndex, IndexedLink
from .xmlio import BpmnDocument, MissingBpmnNamespace, XmlSyntaxError, local_name, parse


class RuleCode(str, Enum):
    R1_DEFAULT_FLOW = "R1_DEFAULT_FLOW"
    R2_CONDITION_EXPR = "R2_CONDITION_EXPR"
    R3_DATA_REF_ORDER = "R3_DATA_REF_ORDER"
    R4_CONNECTIVITY = "R4_CONNECTIVITY"
    R5_WELLFORMED = "R5_WELLFORMED"
    R6_START_END = "R6_START_END"


@dataclass(frozen=True)
class Diagnostic:
    code: RuleCode
    element_id: str | None
    message: str

    def to_dict(self) -> dict:
        return {
            "code": self.code.value,
            "element_id": self.element_id,
            "severity": "Error",
            "message": self.message,
        }


@dataclass
class ComplianceReport:
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def compliant(self) -> bool:
        return not self.diagnostics

    @property
    def error_count(self) -> int:
        return len(self.diagnostics)

    def to_dict(self) -> dict:
        return {
            "compliant": self.compliant,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def validate_bytes(data: bytes) -> ComplianceReport:
    """Validate raw file content; parse failures surface as R5 errors."""
    try:
        doc = parse(data)
    except XmlSyntaxError as exc:
        where = f" at line {exc.line}, column {exc.column}" if exc.line is not None else ""
        return ComplianceReport([
            Diagnostic(RuleCode.R5_WELLFORMED, None, f"malformed XML{where}: {exc}")
        ])
    except MissingBpmnNamespace as exc:
        return ComplianceReport([
            Diagnostic(RuleCode.R5_WELLFORMED, None, f"not a BPMN 2.0 document: {exc}")
        ])
    return validate(doc)


def validate(doc: BpmnDocument) -> ComplianceReport:
    """Run all rules and return diagnostics ordered by document position."""
    index = DocumentIndex(doc)
    findings = [*_r5_unique_ids(index), *_r1_r2_gateways(index),
                *_r3_data_references(index), *_r4_connectivity(index),
                *_r6_start_end(doc, index)]
    findings.sort(key=lambda item: (item[0], item[1].code.value))
    return ComplianceReport([diag for _, diag in findings])


def _finding(index: DocumentIndex, code: RuleCode, element_id: str | None,
             message: str) -> tuple[int, Diagnostic]:
    """At ``element_id``'s position: -1 without an id, last for an undeclared one."""
    position = -1 if element_id is None else index.positions.get(element_id, 1 << 30)
    return position, Diagnostic(code, element_id, message)


def _r5_unique_ids(index: DocumentIndex) -> Iterator[tuple[int, Diagnostic]]:
    for eid, idx in index.repeats:
        yield idx, Diagnostic(RuleCode.R5_WELLFORMED, eid,
                              f"id {eid!r} is declared more than once")


def _r1_r2_gateways(index: DocumentIndex) -> Iterator[tuple[int, Diagnostic]]:
    outgoing: dict[str, list[IndexedLink]] = {}
    for flow in index.links:
        if flow.tag == "sequenceFlow" and flow.source:
            outgoing.setdefault(flow.source, []).append(flow)

    for tag in ("exclusiveGateway", "inclusiveGateway"):
        for gateway in index.nodes:
            if gateway.tag != tag:
                continue
            gid = gateway.id or ""
            exits = outgoing.get(gid, [])
            if len(exits) < 2:
                continue  # no branching decision exists
            default = gateway.element.get("default")
            if tag == "exclusiveGateway":
                if not default:
                    yield _finding(index, RuleCode.R1_DEFAULT_FLOW, gid,
                                   f"exclusive gateway {gid!r} with {len(exits)} outgoing "
                                   "flows declares no default flow")
                elif default not in [f.element.get("id") for f in exits]:
                    yield _finding(index, RuleCode.R1_DEFAULT_FLOW, gid,
                                   f"default flow {default!r} of gateway {gid!r} is not one "
                                   "of its outgoing flows")
            for flow in exits:
                fid = flow.element.get("id", "")
                if fid != default and flow.condition is None:
                    yield _finding(index, RuleCode.R2_CONDITION_EXPR, fid,
                                   f"non-default flow {fid!r} out of gateway {gid!r} has no "
                                   "condition expression")


def _r3_data_references(index: DocumentIndex) -> Iterator[tuple[int, Diagnostic]]:
    for ref in index.nodes:
        if ref.tag != "dataObjectReference":
            continue
        rid = ref.id or ""
        target = ref.element.get("dataObjectRef")
        if not target:
            yield _finding(index, RuleCode.R3_DATA_REF_ORDER, rid,
                           f"dataObjectReference {rid!r} declares no dataObjectRef")
            continue
        declaration = index.elements.get(target)
        if declaration is None or local_name(declaration.tag) != "dataObject":
            yield _finding(index, RuleCode.R3_DATA_REF_ORDER, rid,
                           f"dataObjectReference {rid!r} targets undeclared data object "
                           f"{target!r}")
        elif rid and index.positions[target] > index.positions[rid]:
            yield _finding(index, RuleCode.R3_DATA_REF_ORDER, rid,
                           f"data object {target!r} is declared after its first reference "
                           f"{rid!r}")


def _r4_connectivity(index: DocumentIndex) -> Iterator[tuple[int, Diagnostic]]:
    flow_nodes = {node.id: node.tag for node in index.flow_nodes()}
    forward: dict[str, list[str]] = {nid: [] for nid in flow_nodes}
    backward: dict[str, list[str]] = {nid: [] for nid in flow_nodes}

    for link in index.links:
        source, target = link.source, link.target
        if link.tag == "sequenceFlow":
            unresolved = [r for r in (source, target) if not r or r not in index.elements]
            if unresolved:
                fid = link.element.get("id", "")
                yield _finding(index, RuleCode.R4_CONNECTIVITY, fid,
                               f"sequence flow {fid!r} references unknown element(s) "
                               f"{', '.join(repr(r) for r in unresolved)}")
                continue
        elif link.tag != ATTACHMENT_TAG:
            continue
        if source in flow_nodes and target in flow_nodes:
            forward[source].append(target)
            backward[target].append(source)

    starts = [nid for nid, tag in flow_nodes.items() if tag == "startEvent"]
    ends = [nid for nid, tag in flow_nodes.items() if tag == "endEvent"]
    reaches_from_start = _closure(starts, forward)
    reaches_an_end = _closure(ends, backward)

    for nid in flow_nodes:
        problems = []
        if nid not in reaches_from_start:
            problems.append("is not reachable from any start event")
        if nid not in reaches_an_end:
            problems.append("cannot reach any end event")
        if problems:
            yield _finding(index, RuleCode.R4_CONNECTIVITY, nid,
                           f"flow node {nid!r} " + " and ".join(problems))


def _r6_start_end(doc: BpmnDocument, index: DocumentIndex) -> Iterator[tuple[int, Diagnostic]]:
    processes = doc.processes()
    if not processes:
        yield _finding(index, RuleCode.R6_START_END, None, "document declares no process")
    for process in processes:
        pid = process.get("id", "")
        child_tags = {local_name(child.tag) for child in process}
        missing = []
        if "startEvent" not in child_tags:
            missing.append("start event")
        if "endEvent" not in child_tags:
            missing.append("end event")
        if missing:
            yield _finding(index, RuleCode.R6_START_END, pid,
                           f"process {pid!r} has no " + " and no ".join(missing))


def _closure(seeds: list[str], adjacency: dict[str, list[str]]) -> set[str]:
    seen = set(seeds)
    stack = list(seeds)
    while stack:
        current = stack.pop()
        for nxt in adjacency.get(current, ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen
