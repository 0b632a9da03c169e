"""Static execution-compliance checks for BPMN documents.

Six rules cover what an execution engine needs before a model can run:
gateway default paths (R1), branch conditions (R2), data-object reference
ordering (R3), sequence-flow connectivity (R4), well-formedness and unique
ids (R5), and process start/end boundaries (R6). Violations are errors;
a report with zero errors is compliant.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum

from .model import ATTACHMENT_TAG, DocumentIndex, IndexedLink
from .xmlio import BpmnDocument, MissingBpmnNamespace, XmlSyntaxError, local_name, parse


class RuleCode(str, Enum):
    R1_DEFAULT_FLOW = "R1_DEFAULT_FLOW"
    R2_CONDITION_EXPR = "R2_CONDITION_EXPR"
    R3_DATA_REF_ORDER = "R3_DATA_REF_ORDER"
    R4_CONNECTIVITY = "R4_CONNECTIVITY"
    R5_WELLFORMED = "R5_WELLFORMED"
    R6_START_END = "R6_START_END"


class Severity(str, Enum):
    ERROR = "Error"
    WARNING = "Warning"


@dataclass(frozen=True)
class Diagnostic:
    code: RuleCode
    element_id: str | None
    message: str
    severity: Severity = Severity.ERROR

    def to_dict(self) -> dict:
        return {
            "code": self.code.value,
            "element_id": self.element_id,
            "severity": self.severity.value,
            "message": self.message,
        }


@dataclass
class ComplianceReport:
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def compliant(self) -> bool:
        return not any(d.severity is Severity.ERROR for d in self.diagnostics)

    @property
    def error_count(self) -> int:
        return sum(1 for d in self.diagnostics if d.severity is Severity.ERROR)

    def to_dict(self) -> dict:
        return {
            "compliant": self.compliant,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict) -> "ComplianceReport":
        return cls([
            Diagnostic(RuleCode(d["code"]), d.get("element_id"), d.get("message", ""),
                       Severity(d.get("severity", "Error")))
            for d in data.get("diagnostics", [])
        ])


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
    checker = _Checker(doc)
    return checker.run()


class _Checker:
    def __init__(self, doc: BpmnDocument):
        self.doc = doc
        self.index = DocumentIndex(doc)
        self.findings: list[tuple[int, Diagnostic]] = []

    def run(self) -> ComplianceReport:
        self._check_unique_ids()
        self._check_gateways()
        self._check_data_references()
        self._check_connectivity()
        self._check_start_end()
        self.findings.sort(key=lambda item: (item[0], item[1].code.value))
        return ComplianceReport([diag for _, diag in self.findings])

    def _add(self, position: int, code: RuleCode, element_id: str | None, message: str) -> None:
        self.findings.append((position, Diagnostic(code, element_id, message)))

    def _position(self, element_id: str | None) -> int:
        if element_id is None:
            return -1
        return self.index.positions.get(element_id, 1 << 30)

    # R5 ------------------------------------------------------------------

    def _check_unique_ids(self) -> None:
        for eid, idx in self.index.repeats:
            self._add(idx, RuleCode.R5_WELLFORMED, eid, f"id {eid!r} is declared more than once")

    # R1 / R2 ---------------------------------------------------------------

    def _check_gateways(self) -> None:
        outgoing: dict[str, list[IndexedLink]] = {}
        for flow in self.index.links:
            if flow.tag == "sequenceFlow" and flow.source:
                outgoing.setdefault(flow.source, []).append(flow)

        for tag in ("exclusiveGateway", "inclusiveGateway"):
            for gateway in self.index.nodes:
                if gateway.tag != tag:
                    continue
                gid = gateway.id or ""
                exits = outgoing.get(gid, [])
                if len(exits) < 2:
                    continue  # no branching decision exists
                default = gateway.element.get("default")
                exit_ids = [f.element.get("id") for f in exits]
                if tag == "exclusiveGateway":
                    if not default:
                        self._add(self._position(gid), RuleCode.R1_DEFAULT_FLOW, gid,
                                  f"exclusive gateway {gid!r} with {len(exits)} outgoing flows "
                                  "declares no default flow")
                    elif default not in exit_ids:
                        self._add(self._position(gid), RuleCode.R1_DEFAULT_FLOW, gid,
                                  f"default flow {default!r} of gateway {gid!r} is not one of "
                                  "its outgoing flows")
                for flow in exits:
                    fid = flow.element.get("id", "")
                    if fid == default:
                        continue
                    if flow.condition is None:
                        self._add(self._position(fid), RuleCode.R2_CONDITION_EXPR, fid,
                                  f"non-default flow {fid!r} out of gateway {gid!r} has no "
                                  "condition expression")

    # R3 ------------------------------------------------------------------

    def _check_data_references(self) -> None:
        for ref in self.index.nodes:
            if ref.tag != "dataObjectReference":
                continue
            rid = ref.id or ""
            target = ref.element.get("dataObjectRef")
            if not target:
                self._add(self._position(rid), RuleCode.R3_DATA_REF_ORDER, rid,
                          f"dataObjectReference {rid!r} declares no dataObjectRef")
                continue
            declaration = self.index.elements.get(target)
            if declaration is None or local_name(declaration.tag) != "dataObject":
                self._add(self._position(rid), RuleCode.R3_DATA_REF_ORDER, rid,
                          f"dataObjectReference {rid!r} targets undeclared data object "
                          f"{target!r}")
            elif self.index.positions[target] > self._position(rid):
                self._add(self._position(rid), RuleCode.R3_DATA_REF_ORDER, rid,
                          f"data object {target!r} is declared after its first reference "
                          f"{rid!r}")

    # R4 ------------------------------------------------------------------

    def _check_connectivity(self) -> None:
        flow_nodes = {node.id: node.tag for node in self.index.flow_nodes()}
        forward: dict[str, list[str]] = {nid: [] for nid in flow_nodes}
        backward: dict[str, list[str]] = {nid: [] for nid in flow_nodes}

        for link in self.index.links:
            source, target = link.source, link.target
            if link.tag == "sequenceFlow":
                unresolved = [r for r in (source, target)
                              if not r or r not in self.index.elements]
                if unresolved:
                    fid = link.element.get("id", "")
                    self._add(self._position(fid), RuleCode.R4_CONNECTIVITY, fid,
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
                self._add(self._position(nid), RuleCode.R4_CONNECTIVITY, nid,
                          f"flow node {nid!r} " + " and ".join(problems))

    # R6 ------------------------------------------------------------------

    def _check_start_end(self) -> None:
        for process in self.doc.processes():
            pid = process.get("id", "")
            child_tags = {local_name(child.tag) for child in process}
            missing = []
            if "startEvent" not in child_tags:
                missing.append("start event")
            if "endEvent" not in child_tags:
                missing.append("end event")
            if missing:
                self._add(self._position(pid), RuleCode.R6_START_END, pid,
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


@dataclass
class ReportDiff:
    resolved: list[Diagnostic]
    persisting: list[Diagnostic]
    new: list[Diagnostic]


def diff_reports(before: ComplianceReport, after: ComplianceReport) -> ReportDiff:
    """Partition diagnostics by (code, element_id) identity."""
    before_keys = {(d.code, d.element_id) for d in before.diagnostics}
    after_keys = {(d.code, d.element_id) for d in after.diagnostics}
    return ReportDiff(
        resolved=[d for d in before.diagnostics if (d.code, d.element_id) not in after_keys],
        persisting=[d for d in after.diagnostics if (d.code, d.element_id) in before_keys],
        new=[d for d in after.diagnostics if (d.code, d.element_id) not in before_keys],
    )
