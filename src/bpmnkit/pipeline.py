"""LLM-driven model workflows: translation, closed-loop correction,
description generation, and staged reconstruction of BPMN XML from text.

Reconstruction runs six stages, each refining the previous stage's validated
JSON: element extraction, decision analysis, data-object cataloguing, data
modeling, activity/data mapping, and finally XML generation. Generated XML is
checked for execution compliance and routed through the correction loop when
needed; diagram interchange is added only after the model is compliant.
"""

from __future__ import annotations

import json
import logging
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from .compliance import ComplianceReport, validate
from .layout import auto_layout
from .llm import (
    complete,
    extract_json,
    parse_json_with_retry,
    parse_with_retry,
    system,
    user,
)
from .model import build_graph
from .xmlio import (
    BpmnDocument,
    DocumentWithoutProcess,
    MissingBpmnNamespace,
    XmlSyntaxError,
    extract_strings,
    parse,
    reattach_di,
    reinsert_strings,
    serialize,
    strip_di,
    unique_values,
)

logger = logging.getLogger(__name__)

MODEL_EXCERPT_LIMIT = 24000
HISTORY_EXCERPT_LIMIT = 4000

STAGE_PROCESS_ELEMENTS = "process_elements"
STAGE_DECISION_ANALYSIS = "decision_analysis"
STAGE_DATA_OBJECT_CATALOG = "data_object_catalog"
STAGE_DATA_MODEL = "data_model"
STAGE_ACTIVITY_DATA_MAP = "activity_data_map"
STAGE_BPMN_XML = "bpmn_xml"

STAGES = (
    STAGE_PROCESS_ELEMENTS,
    STAGE_DECISION_ANALYSIS,
    STAGE_DATA_OBJECT_CATALOG,
    STAGE_DATA_MODEL,
    STAGE_ACTIVITY_DATA_MAP,
    STAGE_BPMN_XML,
)

STAGE_SCHEMAS: dict[str, dict] = {
    STAGE_PROCESS_ELEMENTS: {
        "type": "object",
        "required": ["boundaries", "activities"],
        "properties": {
            "boundaries": {
                "type": "object",
                "required": ["start", "end"],
                "properties": {"start": {"type": "string"}, "end": {"type": "string"}},
            },
            "activities": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["name"],
                    "properties": {"name": {"type": "string"},
                                   "participant": {"type": "string"}},
                },
            },
            "participants": {
                "type": "array",
                "items": {"type": "object", "required": ["name"]},
            },
            "decisions": {
                "type": "array",
                "items": {"type": "object", "required": ["name"]},
            },
            "inputs": {"type": "array"},
            "outputs": {"type": "array"},
            "data_flows": {"type": "array"},
            "dependencies": {"type": "array"},
        },
    },
    STAGE_DECISION_ANALYSIS: {
        "type": "array",
        "items": {
            "type": "object",
            "required": ["decision", "outcomes"],
            "properties": {
                "decision": {"type": "string"},
                "inputs": {"type": "array"},
                "outcomes": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["label", "condition"],
                        "properties": {"label": {"type": "string"},
                                       "condition": {"type": "string"}},
                    },
                },
            },
        },
    },
    STAGE_DATA_OBJECT_CATALOG: {
        "type": "array",
        "items": {
            "type": "object",
            "required": ["name", "class"],
            "properties": {
                "name": {"type": "string"},
                "class": {"enum": ["primary", "derived", "temporary"]},
                "attributes": {"type": "array"},
                "usage": {"type": "string"},
                "relationships": {"type": "array"},
            },
        },
    },
    STAGE_DATA_MODEL: {
        "type": "object",
        "required": ["entities"],
        "properties": {
            "entities": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["name"],
                    "properties": {
                        "name": {"type": "string"},
                        "attributes": {
                            "type": "array",
                            "items": {"type": "object", "required": ["name"]},
                        },
                        "keys": {},
                    },
                },
            },
            "relationships": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["from", "to"],
                    "properties": {
                        "from": {"type": "string"},
                        "to": {"type": "string"},
                        "cardinality": {"type": "string"},
                        "kind": {"type": "string"},
                    },
                },
            },
        },
    },
    STAGE_ACTIVITY_DATA_MAP: {
        "type": "array",
        "items": {
            "type": "object",
            "required": ["activity"],
            "properties": {
                "activity": {"type": "string"},
                "inputs": {
                    "type": "array",
                    "items": {"type": "object", "required": ["object"]},
                },
                "outputs": {
                    "type": "array",
                    "items": {"type": "object", "required": ["object"]},
                },
            },
        },
    },
}

_STAGE_SYSTEM_PROMPTS = {
    STAGE_PROCESS_ELEMENTS: (
        "You are an expert process modeler. From the process documentation the user "
        "provides, extract the structured building blocks of the process:\n"
        "- boundaries: the event that triggers the process and what marks its end\n"
        "- activities: the tasks, actions or steps performed (with the responsible "
        "participant when stated)\n"
        "- participants: the roles or entities involved and what they are responsible for\n"
        "- decisions: the decision points that affect the flow, binary or multi-way\n"
        "- inputs: data or materials the process needs\n"
        "- outputs: results the activities produce\n"
        "- data_flows: how data moves between steps\n"
        "- dependencies: links to external systems or processes\n"
        "Respond with a single JSON object using exactly these keys: "
        'boundaries {"start", "end"}, activities [{"name", "participant"?}], '
        'participants [{"name", "responsibilities"}], decisions [{"name"}], '
        "inputs [], outputs [], data_flows [], dependencies []."
    ),
    STAGE_DECISION_ANALYSIS: (
        "You are an expert process modeler. Analyze every decision point of the "
        "process. For each decision determine the inputs it needs (data to check, "
        "information that must be available, states to assess, results of earlier "
        "activities), the possible outcomes, and the explicit condition that selects "
        "each outcome. Respond with a single JSON array: "
        '[{"decision", "inputs": [], "outcomes": [{"label", "condition"}]}]. '
        "Conditions must be concrete enough to configure gateway branches."
    ),
    STAGE_DATA_OBJECT_CATALOG: (
        "You are an expert in process and data modeling. Identify the data objects "
        "the process uses. Classify each one as primary (a core entity), derived "
        "(created while processing) or temporary (used transiently); give it a clear "
        "descriptive name; list its attributes; describe how it is created, updated, "
        "read or archived; and note relationships to other data objects. Respond with "
        'a single JSON array: [{"name", "class": "primary"|"derived"|"temporary", '
        '"attributes": [], "usage", "relationships": []}].'
    ),
    STAGE_DATA_MODEL: (
        "You are an expert in process modeling and data architecture. Build a "
        "structured data model from the identified data objects: the main entities "
        "with their attributes (name, type, constraints), the keys that enforce "
        "integrity, and the relationships between entities with direction, kind "
        "(reference, containment, inheritance) and cardinality. Respond with a single "
        'JSON object: {"entities": [{"name", "attributes": [{"name", "type", '
        '"constraints"}], "keys"}], "relationships": [{"from", "to", "cardinality", '
        '"kind"}]}.'
    ),
    STAGE_ACTIVITY_DATA_MAP: (
        "You are an expert process modeler. For every activity and decision in the "
        "process, determine which data it consumes and which data it produces. Use "
        "only activities and decisions that appear in the process description, and "
        "only data objects from the provided catalog and data model. Respond with a "
        'single JSON array: [{"activity", "inputs": [{"object", "attributes"}], '
        '"outputs": [{"object", "attributes"}]}].'
    ),
    STAGE_BPMN_XML: (
        "You are a BPMN 2.0 modeling expert with deep knowledge of execution engine "
        "requirements. Generate a syntactically correct BPMN 2.0 XML model from the "
        "structured input provided by the user. Requirements:\n"
        "- include every identified activity, decision and data object\n"
        "- every exclusive gateway with multiple outgoing flows declares a default flow\n"
        "- every non-default outgoing flow of an exclusive or inclusive gateway carries "
        "a condition expression\n"
        "- declare data objects before any element references them\n"
        "- connect all flow nodes with sequence flows so each is on a path from a start "
        "event to an end event\n"
        "- use dataInputAssociation / dataOutputAssociation for the activity data map\n"
        "- do NOT add BPMNDI visualization elements\n"
        "Respond with only the XML document."
    ),
}

CORRECTION_SYSTEM_PROMPT = (
    "You are a BPMN 2.0 modeling expert. You repair models so they satisfy "
    "execution-engine compliance checks: default flows on branching exclusive "
    "gateways, condition expressions on non-default branches, data objects declared "
    "before use, full sequence-flow connectivity, unique ids, and start/end events."
)

_REGENERATE_INSTRUCTION = (
    "Produce a corrected version of the complete model that resolves every "
    "diagnostic. Respond with only the full BPMN 2.0 XML document."
)

_REPAIR_INSTRUCTION = (
    "Propose minimal repairs as a JSON array of actions, applied in order. Each "
    'action is {"action": "replace"|"modify"|"augment"|"delete", "target_id": "...", '
    '"new_xml": "..."}. For replace/modify, new_xml is the full serialization of the '
    "replacement element (same id for modify). For augment, target_id is the parent "
    "element and new_xml the new child element. For delete, only target_id is needed. "
    "Respond with only the JSON array."
)

_XML_COMPLAINT = ("That response was not a parseable BPMN 2.0 XML document ({error}). "
                  "Reply again with only the corrected XML.")

TRANSLATE_SYSTEM_PROMPT = (
    "You are a professional translator for business process models. Translate every "
    "string in the JSON array the user provides into English. Keep the meaning "
    "short and businesslike; do not translate technical identifiers. Respond with a "
    "single JSON object that maps each original string to its translation."
)

DESCRIPTION_SYSTEM_PROMPT = (
    "You are a business process analyst. Write a well-organized natural language "
    "description of the BPMN model the user provides: explain the purpose of the "
    "process, identify the responsible actors, organize the activities into coherent "
    "ordered steps, and express each gateway's branching logic as natural "
    "conditional statements (if/when ... then ...). Use concise paragraphs covering "
    "the flow, the participants, and the key decision rules."
)

_TRANSLATION_SCHEMA = {"type": "object", "additionalProperties": {"type": "string"}}

_REPAIR_ACTIONS = ("replace", "modify", "augment", "delete")


def canonical_json(payload: Any) -> str:
    """The stable rendering used whenever a stage payload is embedded in a
    later prompt (and asserted on in tests)."""
    return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False)


def _truncate(text: str, limit: int) -> str:
    if len(text) <= limit:
        return text
    return text[:limit] + "\n... (truncated)"


@dataclass
class StageArtifact:
    stage: str
    payload: Any
    raw_response: str

    def to_dict(self) -> dict:
        return {"stage": self.stage, "payload": self.payload,
                "raw_response": self.raw_response}


@dataclass
class CorrectionState:
    """Progress of one correction loop run."""

    limit: int = 5
    simple_threshold: int = 10
    history_window: int = 2
    iteration: int = 0
    mode: str | None = None  # "regenerate" | "local_repair"
    history: list[tuple[str, str]] = field(default_factory=list)
    last_report: ComplianceReport | None = None

    def record(self, prompt: str, response: str) -> None:
        self.history.append((prompt, response))
        if len(self.history) > self.history_window:
            self.history = self.history[-self.history_window:]


@dataclass
class CorrectionResult:
    document: BpmnDocument
    report: ComplianceReport
    iterations: int
    log: list[dict] = field(default_factory=list)


class ReconstructionNonCompliant(RuntimeError):
    def __init__(self, report: ComplianceReport, artifacts: list[StageArtifact],
                 document: BpmnDocument):
        super().__init__(
            f"reconstructed model still has {report.error_count} compliance error(s) "
            "after the correction limit"
        )
        self.report = report
        self.artifacts = artifacts
        self.document = document


# --- translation ---------------------------------------------------------------


def translate_model(doc: BpmnDocument, client, threshold: float = 0.8,
                    attrs: Sequence[str] | None = None, retry_count: int = 0,
                    json_retries: int = 3) -> tuple[BpmnDocument, list[str]]:
    """Extract the unique translatable strings, request one JSON translation
    map, and reinsert the results with fuzzy matching. Identifiers are never
    touched. A document without translatable text is returned unchanged
    without calling the model."""
    entries = extract_strings(doc, attrs)
    uniques = unique_values(entries)
    if not uniques:
        return doc, []
    messages = [
        system(TRANSLATE_SYSTEM_PROMPT),
        user(json.dumps(uniques, ensure_ascii=False, indent=2)),
    ]
    response = complete(client, messages, retry_count=retry_count)
    mapping, _ = parse_json_with_retry(client, messages, response, _TRANSLATION_SCHEMA,
                                       max_retries=json_retries, retry_count=retry_count)
    return reinsert_strings(doc, mapping, threshold, attrs)


# --- correction loop -----------------------------------------------------------


def correct_model(doc: BpmnDocument, client, state: CorrectionState | None = None,
                  retry_count: int = 0, log_path: str | Path | None = None) -> CorrectionResult:
    """Validate-and-repair until compliance or the iteration limit.

    DI is stripped while prompting and reattached afterward. Small models
    (node count <= ``simple_threshold``) are fully regenerated; larger ones
    receive localized JSON repair actions. A repair that increases the error
    count is rolled back and the iteration counts as failed, so the returned
    document never validates worse than the input.
    """
    state = state or CorrectionState()
    working, di = strip_di(doc)
    report = validate(working)
    state.last_report = report
    log: list[dict] = []

    while not report.compliant and state.iteration < state.limit:
        graph, _ = build_graph(working) if working.processes() else (None, [])
        node_count = graph.node_count if graph is not None else 0
        state.mode = "regenerate" if node_count <= state.simple_threshold else "local_repair"

        prompt = _correction_prompt(working, report, state)
        messages = [system(CORRECTION_SYSTEM_PROMPT), user(prompt)]
        response = complete(client, messages, retry_count=retry_count)
        state.iteration += 1
        state.record(_truncate(report.to_json(), HISTORY_EXCERPT_LIMIT), response)

        entry = {"iteration": state.iteration, "mode": state.mode,
                 "errors_before": report.error_count, "accepted": False, "warnings": []}
        candidate = _apply_correction(working, response, state.mode, entry["warnings"])
        if candidate is not None:
            candidate_report = validate(candidate)
            entry["errors_after"] = candidate_report.error_count
            if candidate_report.error_count <= report.error_count:
                working, report = candidate, candidate_report
                state.last_report = report
                entry["accepted"] = True
            else:
                entry["warnings"].append("repair increased error count; rolled back")
        log.append(entry)

    result_doc, _dropped = reattach_di(working, di)
    if log_path is not None:
        path = Path(log_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a", encoding="utf-8") as handle:
            for entry in log:
                handle.write(json.dumps(entry) + "\n")
    return CorrectionResult(result_doc, report, state.iteration, log)


def _correction_prompt(doc: BpmnDocument, report: ComplianceReport,
                       state: CorrectionState) -> str:
    parts = [
        "The following BPMN model fails execution compliance checks.",
        "Diagnostics (JSON):",
        report.to_json(indent=2),
        "Model:",
        _truncate(serialize(doc).decode("utf-8"), MODEL_EXCERPT_LIMIT),
    ]
    for prompt, response in state.history[-state.history_window:]:
        parts.append("### Previous attempt")
        parts.append("Diagnostics then:")
        parts.append(_truncate(prompt, HISTORY_EXCERPT_LIMIT))
        parts.append("Your response:")
        parts.append(_truncate(response, HISTORY_EXCERPT_LIMIT))
    parts.append(_REGENERATE_INSTRUCTION if state.mode == "regenerate"
                 else _REPAIR_INSTRUCTION)
    return "\n\n".join(parts)


def _apply_correction(doc: BpmnDocument, response: str, mode: str,
                      warnings: list[str]) -> BpmnDocument | None:
    if mode == "regenerate":
        try:
            return parse(extract_xml(response))
        except (ValueError, XmlSyntaxError, MissingBpmnNamespace) as exc:
            warnings.append(f"regenerated model rejected: {exc}")
            return None
    try:
        actions = extract_json(response)
    except ValueError as exc:
        warnings.append(f"repair actions rejected: {exc}")
        return None
    if not isinstance(actions, list):
        warnings.append("repair actions rejected: expected a JSON array")
        return None
    return _apply_repair_actions(doc, actions, warnings)


def _apply_repair_actions(doc: BpmnDocument, actions: list,
                          warnings: list[str]) -> BpmnDocument:
    new_doc = doc.copy()
    for action in actions:
        if not isinstance(action, dict):
            warnings.append(f"skipped malformed action {action!r}")
            continue
        kind = action.get("action")
        target_id = action.get("target_id")
        if kind not in _REPAIR_ACTIONS or not target_id:
            warnings.append(f"skipped malformed action {action!r}")
            continue
        target, parent = _find_with_parent(new_doc, target_id)
        if target is None:
            warnings.append(f"repair target {target_id!r} not found; action skipped")
            continue
        if kind == "delete":
            if parent is None:
                warnings.append("cannot delete the document root; action skipped")
            else:
                parent.remove(target)
            continue
        fragment_xml = action.get("new_xml", "")
        fragment = _parse_fragment(fragment_xml, new_doc, warnings)
        if fragment is None:
            continue
        if kind == "augment":
            target.append(fragment)
        else:  # replace / modify
            if parent is None:
                warnings.append("cannot replace the document root; action skipped")
                continue
            index = list(parent).index(target)
            parent.remove(target)
            parent.insert(index, fragment)
    return new_doc


def _find_with_parent(doc: BpmnDocument, element_id: str):
    if doc.root.get("id") == element_id:
        return doc.root, None
    stack = [doc.root]
    while stack:
        parent = stack.pop()
        for child in parent:
            if child.get("id") == element_id:
                return child, parent
            stack.append(child)
    return None, None


def _parse_fragment(fragment_xml: str, doc: BpmnDocument, warnings: list[str]):
    if not fragment_xml.strip():
        warnings.append("action carries no new_xml; skipped")
        return None
    declarations = " ".join(
        f'xmlns:{prefix}="{uri}"' if prefix else f'xmlns="{uri}"'
        for prefix, uri in doc.nsmap.items()
    )
    wrapped = f"<_wrapper {declarations}>{fragment_xml}</_wrapper>"
    try:
        wrapper = ET.fromstring(wrapped)
    except ET.ParseError as exc:
        warnings.append(f"unparseable new_xml: {exc}")
        return None
    if len(wrapper) != 1:
        warnings.append("new_xml must contain exactly one element; skipped")
        return None
    return wrapper[0]


def extract_xml(text: str) -> str:
    """Pull a BPMN XML document out of a chat response, tolerating code
    fences and surrounding prose."""
    fenced = re.findall(r"```(?:xml)?\s*\n?(.*?)```", text, re.DOTALL)
    for block in fenced:
        if "<" in block:
            text = block
            break
    start = text.find("<?xml")
    if start == -1:
        match = re.search(r"<(?:\w+:)?definitions\b", text)
        if match is None:
            raise ValueError("response contains no XML document")
        start = match.start()
    ends = list(re.finditer(r"</\s*[\w:]*definitions\s*>", text))
    end = ends[-1].end() if ends else len(text)
    return text[start:end].strip()


# --- description ---------------------------------------------------------------


def generate_description(doc: BpmnDocument, client, retry_count: int = 0) -> str:
    """Ask the model for a prose description of the process. Visualization
    elements are stripped before prompting."""
    stripped, _di = strip_di(doc)
    xml = serialize(stripped).decode("utf-8")
    messages = [
        system(DESCRIPTION_SYSTEM_PROMPT),
        user("Describe this process model:\n\n" + _truncate(xml, MODEL_EXCERPT_LIMIT)),
    ]
    return complete(client, messages, retry_count=retry_count)


# --- six-stage reconstruction ----------------------------------------------------


def reconstruct(description: str, client, run_dir: str | Path | None = None,
                correction_limit: int = 5, simple_threshold: int = 10,
                json_retries: int = 3, retry_count: int = 0,
                ) -> tuple[BpmnDocument, list[StageArtifact]]:
    """Run the six reconstruction stages in order and return the compliant
    document plus the per-stage artifact trail.

    Stage k+1's prompt embeds stage k's validated payload. The stage-6 XML is
    parsed and validated; a non-compliant model enters the correction loop,
    and DI layout is appended only after compliance. Raises
    ReconstructionNonCompliant (artifacts attached) when correction fails.
    """
    if not description.strip():
        raise ValueError("description must be non-empty")
    run_path = Path(run_dir) if run_dir is not None else None
    if run_path is not None:
        run_path.mkdir(parents=True, exist_ok=True)

    artifacts: list[StageArtifact] = []
    payloads: dict[str, Any] = {}

    for index, stage in enumerate(STAGES[:-1], start=1):
        prompt = _stage_prompt(stage, description, payloads)
        messages = [system(_STAGE_SYSTEM_PROMPTS[stage]), user(prompt)]
        response = complete(client, messages, retry_count=retry_count)
        payload, raw = parse_json_with_retry(client, messages, response, STAGE_SCHEMAS[stage],
                                             max_retries=json_retries,
                                             retry_count=retry_count, stage=stage)
        artifact = StageArtifact(stage, payload, raw)
        artifacts.append(artifact)
        payloads[stage] = payload
        if run_path is not None:
            (run_path / f"stage{index}.json").write_text(
                json.dumps(artifact.to_dict(), indent=2, ensure_ascii=False),
                encoding="utf-8")

    xml_prompt = _stage_prompt(STAGE_BPMN_XML, description, payloads)
    messages = [system(_STAGE_SYSTEM_PROMPTS[STAGE_BPMN_XML]), user(xml_prompt)]
    response = complete(client, messages, retry_count=retry_count)
    doc, raw = parse_with_retry(client, messages, response,
                                lambda text: parse(extract_xml(text)), _XML_COMPLAINT,
                                max_retries=json_retries, retry_count=retry_count,
                                stage=STAGE_BPMN_XML)
    xml_artifact = StageArtifact(STAGE_BPMN_XML, serialize(doc).decode("utf-8"), raw)
    artifacts.append(xml_artifact)
    if run_path is not None:
        (run_path / "stage6.bpmn").write_text(xml_artifact.payload, encoding="utf-8")

    report = validate(doc)
    if not report.compliant:
        state = CorrectionState(limit=correction_limit, simple_threshold=simple_threshold)
        log_path = run_path / "correction.log.jsonl" if run_path is not None else None
        result = correct_model(doc, client, state, retry_count=retry_count,
                               log_path=log_path)
        doc, report = result.document, result.report
    if not report.compliant:
        raise ReconstructionNonCompliant(report, artifacts, doc)

    try:
        di = auto_layout(doc)
        doc, _ = reattach_di(doc, di)
    except DocumentWithoutProcess:
        logger.warning("reconstructed document has no process; skipping layout")
    return doc, artifacts


def _stage_prompt(stage: str, description: str, payloads: dict[str, Any]) -> str:
    parts = ["Process description:", "---", description.strip(), "---"]
    if stage == STAGE_BPMN_XML:
        for previous in STAGES[:-1]:
            if previous in payloads:
                parts.append(f"Validated {previous.replace('_', ' ')}:")
                parts.append(canonical_json(payloads[previous]))
    else:
        position = STAGES.index(stage)
        if position > 0:
            previous = STAGES[position - 1]
            parts.append(f"Validated {previous.replace('_', ' ')} from the previous stage:")
            parts.append(canonical_json(payloads[previous]))
    return "\n\n".join(parts)
