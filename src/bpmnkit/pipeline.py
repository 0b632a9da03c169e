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
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Any
from xml.parsers.expat import ErrorString

from .compliance import ComplianceReport, validate
from .layout import auto_layout
from .llm import (
    FENCE,
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
    extract_strings,
    parse,
    reattach_di,
    reinsert_strings,
    serialize,
    strip_di,
    unique_values,
)

MODEL_EXCERPT_LIMIT = 24000
HISTORY_EXCERPT_LIMIT = 4000
HISTORY_WINDOW = 2  # previous correction attempts quoted in each prompt

STAGE_SCHEMAS: dict[str, dict] = {
    "process_elements": {
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
    "decision_analysis": {
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
    "data_object_catalog": {
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
    "data_model": {
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
    "activity_data_map": {
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
    "process_elements": (
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
    "decision_analysis": (
        "You are an expert process modeler. Analyze every decision point of the "
        "process. For each decision determine the inputs it needs (data to check, "
        "information that must be available, states to assess, results of earlier "
        "activities), the possible outcomes, and the explicit condition that selects "
        "each outcome. Respond with a single JSON array: "
        '[{"decision", "inputs": [], "outcomes": [{"label", "condition"}]}]. '
        "Conditions must be concrete enough to configure gateway branches."
    ),
    "data_object_catalog": (
        "You are an expert in process and data modeling. Identify the data objects "
        "the process uses. Classify each one as primary (a core entity), derived "
        "(created while processing) or temporary (used transiently); give it a clear "
        "descriptive name; list its attributes; describe how it is created, updated, "
        "read or archived; and note relationships to other data objects. Respond with "
        'a single JSON array: [{"name", "class": "primary"|"derived"|"temporary", '
        '"attributes": [], "usage", "relationships": []}].'
    ),
    "data_model": (
        "You are an expert in process modeling and data architecture. Build a "
        "structured data model from the identified data objects: the main entities "
        "with their attributes (name, type, constraints), the keys that enforce "
        "integrity, and the relationships between entities with direction, kind "
        "(reference, containment, inheritance) and cardinality. Respond with a single "
        'JSON object: {"entities": [{"name", "attributes": [{"name", "type", '
        '"constraints"}], "keys"}], "relationships": [{"from", "to", "cardinality", '
        '"kind"}]}.'
    ),
    "activity_data_map": (
        "You are an expert process modeler. For every activity and decision in the "
        "process, determine which data it consumes and which data it produces. Use "
        "only activities and decisions that appear in the process description, and "
        "only data objects from the provided catalog and data model. Respond with a "
        'single JSON array: [{"activity", "inputs": [{"object", "attributes"}], '
        '"outputs": [{"object", "attributes"}]}].'
    ),
    "bpmn_xml": (
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

STAGES = tuple(_STAGE_SYSTEM_PROMPTS)  # in order; the last one writes the XML

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
class CorrectionResult:
    document: BpmnDocument
    report: ComplianceReport
    log: list[dict]

    @property
    def iterations(self) -> int:
        return len(self.log)


# --- translation ---------------------------------------------------------------


def translate_model(doc: BpmnDocument, client,
                    threshold: float = 0.8) -> tuple[BpmnDocument, list[str]]:
    """Extract the unique translatable strings, request one JSON translation
    map, and reinsert the results with fuzzy matching. Identifiers are never
    touched. A document without translatable text is returned unchanged
    without calling the model."""
    entries = extract_strings(doc)
    uniques = unique_values(entries)
    if not uniques:
        return doc, []
    messages = [
        system(TRANSLATE_SYSTEM_PROMPT),
        user(json.dumps(uniques, ensure_ascii=False, indent=2)),
    ]
    response = complete(client, messages)
    mapping, _ = parse_json_with_retry(client, messages, response, _TRANSLATION_SCHEMA,
                                       stage="translation")
    return reinsert_strings(doc, mapping, threshold)


# --- correction loop -----------------------------------------------------------


def correct_model(doc: BpmnDocument, client, limit: int = 5,
                  simple_threshold: int = 10) -> CorrectionResult:
    """Validate-and-repair until compliance or ``limit`` iterations.

    DI is stripped while prompting; only ``doc``'s own is reattached after,
    following the model's root elements.
    Small models (node count <= ``simple_threshold``) are fully regenerated;
    larger ones receive localized JSON repair actions. Each prompt quotes the
    last ``HISTORY_WINDOW`` attempts. A repair that increases the error count
    is rolled back and the iteration counts as failed, as does a reply none of
    whose repair actions applies, so the returned document never validates
    worse than the input. ``doc`` is left unchanged:
    the result is a fresh tree when a repair was accepted, else ``doc`` itself.
    """
    working, di = strip_di(doc)  # shares doc's elements until a candidate replaces it
    report = validate(working)
    history: list[tuple[str, str]] = []
    log: list[dict] = []
    state = None  # (mode, model excerpt) of the working document, once needed

    while not report.compliant and len(log) < limit:
        if state is None:
            node_count = build_graph(working)[0].node_count if working.processes() else 0
            state = ("regenerate" if node_count <= simple_threshold else "local_repair",
                     _truncate(serialize(working).decode("utf-8"), MODEL_EXCERPT_LIMIT))
        mode, model_excerpt = state

        prompt = _correction_prompt(model_excerpt, report, mode, history)
        messages = [system(CORRECTION_SYSTEM_PROMPT), user(prompt)]
        response = complete(client, messages)
        history = [*history, (report.to_json(), response)][-HISTORY_WINDOW:]

        entry = {"iteration": len(log) + 1, "mode": mode,
                 "errors_before": report.error_count, "accepted": False, "warnings": []}
        candidate = _apply_correction(working, response, mode, entry["warnings"])
        if candidate is not None:
            candidate_report = validate(candidate)
            entry["errors_after"] = candidate_report.error_count
            if candidate_report.error_count <= report.error_count:
                working, report, state = candidate, candidate_report, None
                entry["accepted"] = True
            else:
                entry["warnings"].append("repair increased error count; rolled back")
        log.append(entry)

    if any(entry["accepted"] for entry in log):  # then working is a fresh tree
        doc, _dropped = reattach_di(working, di)
    return CorrectionResult(doc, report, log)


def _correction_prompt(model_excerpt: str, report: ComplianceReport, mode: str,
                       history: list[tuple[str, str]]) -> str:
    parts = [
        "The following BPMN model fails execution compliance checks.",
        "Diagnostics (JSON):",
        report.to_json(indent=2),
        "Model:",
        model_excerpt,
    ]
    for diagnostics, response in history:
        parts.append("### Previous attempt")
        parts.append("Diagnostics then:")
        parts.append(_truncate(diagnostics, HISTORY_EXCERPT_LIMIT))
        parts.append("Your response:")
        parts.append(_truncate(response, HISTORY_EXCERPT_LIMIT))
    parts.append(_REGENERATE_INSTRUCTION if mode == "regenerate" else _REPAIR_INSTRUCTION)
    return "\n\n".join(parts)


def _apply_correction(doc: BpmnDocument, response: str, mode: str,
                      warnings: list[str]) -> BpmnDocument | None:
    try:
        if mode == "regenerate":
            return reply_model(response)
        actions = extract_json(response)
        if not isinstance(actions, list):
            raise ValueError("expected a JSON array")
    except ValueError as exc:  # XmlSyntaxError and MissingBpmnNamespace too
        rejected = "regenerated model" if mode == "regenerate" else "repair actions"
        warnings.append(f"{rejected} rejected: {exc}")
        return None
    return _apply_repair_actions(doc, actions, warnings)


def _apply_repair_actions(doc: BpmnDocument, actions: list,
                          warnings: list[str]) -> BpmnDocument | None:
    """A copy of ``doc`` with ``actions`` applied in order, or None if none applies."""
    new_doc = doc.copy()
    applied = False
    for action in actions:
        if (not isinstance(action, dict) or action.get("action") not in _REPAIR_ACTIONS
                or not action.get("target_id")):
            warnings.append(f"skipped malformed action {action!r}")
            continue
        kind, target_id = action["action"], action["target_id"]
        # the first element in document order owns an id, as in DocumentIndex
        target = next((e for e in new_doc.root.iter() if e.get("id") == target_id), None)
        if target is None:
            warnings.append(f"repair target {target_id!r} not found; action skipped")
            continue
        parent = next((e for e in new_doc.root.iter() if target in e), None)
        if parent is None and kind != "augment":
            warnings.append(f"cannot {kind} the document root; action skipped")
            continue
        if kind == "delete":
            parent.remove(target)
        elif (fragment := _parse_fragment(action.get("new_xml", ""), new_doc, warnings)) is None:
            continue
        elif kind == "augment":
            target.append(fragment)
        else:  # replace / modify
            parent[list(parent).index(target)] = fragment
        applied = True
    if not applied:
        warnings.append("no repair action applied")
        return None
    return new_doc


def _parse_fragment(fragment_xml, doc: BpmnDocument, warnings: list[str]):
    if not isinstance(fragment_xml, str) or not fragment_xml.strip():
        warnings.append("action carries no new_xml; skipped")
        return None
    declarations = " ".join(
        f'xmlns:{prefix}="{uri}"' if prefix else f'xmlns="{uri}"'
        for prefix, uri in doc.nsmap.items()
    )
    opening = f"<_wrapper {declarations}>"
    try:
        wrapper = ET.fromstring(f"{opening}{fragment_xml}</_wrapper>")
    except ET.ParseError as exc:
        line, column = exc.position  # in the wrapper, whose opening tag starts line 1
        column -= len(opening) if line == 1 else 0
        reason = ErrorString(exc.code)
        warnings.append(f"unparseable new_xml: {reason}: line {line}, column {column}")
        return None
    if len(wrapper) != 1:
        warnings.append("new_xml must contain exactly one element; skipped")
        return None
    return wrapper[0]


def extract_xml(text: str) -> str:
    """Pull a BPMN XML document out of a chat response, tolerating code
    fences and surrounding prose."""
    for block in FENCE.findall(text):
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


def reply_model(text: str) -> BpmnDocument:
    """The model in a chat response, without the response's own diagram
    interchange: DI is laid out or reattached only after compliance."""
    return strip_di(parse(extract_xml(text)))[0]


# --- description ---------------------------------------------------------------


def generate_description(doc: BpmnDocument, client) -> str:
    """Ask the model for a prose description of the process. Visualization
    elements are stripped before prompting."""
    stripped, _di = strip_di(doc)
    xml = serialize(stripped).decode("utf-8")
    messages = [
        system(DESCRIPTION_SYSTEM_PROMPT),
        user("Describe this process model:\n\n" + _truncate(xml, MODEL_EXCERPT_LIMIT)),
    ]
    return complete(client, messages)


# --- six-stage reconstruction ----------------------------------------------------


def reconstruct(description: str, client, run_dir: str | Path | None = None,
                correction_limit: int = 5, simple_threshold: int = 10,
                ) -> tuple[BpmnDocument, ComplianceReport]:
    """Run the six reconstruction stages in order and return the model and
    its compliance report, as ``correct_model`` does.

    Stage k+1's prompt embeds stage k's validated payload. The stage-6 model,
    without the reply's DI, is validated and repaired by the correction loop;
    a compliant model gets its DI layout, a non-compliant one is returned
    without DI. ``run_dir`` receives ``stage1.json``-``stage5.json``,
    ``stage6.bpmn`` and one line per correction iteration appended to
    ``correction.log.jsonl``.
    """
    if not description.strip():
        raise ValueError("description must be non-empty")
    run_path = Path(run_dir) if run_dir is not None else None
    if run_path is not None:
        run_path.mkdir(parents=True, exist_ok=True)

    rendered: dict[str, str] = {}  # stage -> its payload's canonical_json

    for index, stage in enumerate(STAGES, start=1):
        prompt = _stage_prompt(stage, description, rendered)
        messages = [system(_STAGE_SYSTEM_PROMPTS[stage]), user(prompt)]
        response = complete(client, messages)
        if stage in STAGE_SCHEMAS:
            payload, raw = parse_json_with_retry(client, messages, response,
                                                 STAGE_SCHEMAS[stage], stage=stage)
            rendered[stage] = canonical_json(payload)
            if run_path is not None:
                record = {"stage": stage, "payload": payload, "raw_response": raw}
                (run_path / f"stage{index}.json").write_text(
                    json.dumps(record, indent=2, ensure_ascii=False), encoding="utf-8")
        else:
            doc, _ = parse_with_retry(client, messages, response,
                                      reply_model, _XML_COMPLAINT, stage=stage)
            if run_path is not None:
                (run_path / f"stage{index}.bpmn").write_bytes(serialize(doc))

    result = correct_model(doc, client, correction_limit, simple_threshold)
    doc = result.document
    # written when the stage-6 model was not compliant
    if run_path is not None and (result.log or not result.report.compliant):
        with (run_path / "correction.log.jsonl").open("a", encoding="utf-8") as handle:
            handle.writelines(json.dumps(entry) + "\n" for entry in result.log)
    if result.report.compliant:
        doc.root.extend(auto_layout(doc))
    return doc, result.report


def _stage_prompt(stage: str, description: str, rendered: dict[str, str]) -> str:
    parts = ["Process description:", "---", description.strip(), "---"]
    if stage == STAGES[-1]:
        for previous in STAGES[:-1]:
            if previous in rendered:
                parts.append(f"Validated {previous.replace('_', ' ')}:")
                parts.append(rendered[previous])
    else:
        position = STAGES.index(stage)
        if position > 0:
            previous = STAGES[position - 1]
            parts.append(f"Validated {previous.replace('_', ' ')} from the previous stage:")
            parts.append(rendered[previous])
    return "\n\n".join(parts)
