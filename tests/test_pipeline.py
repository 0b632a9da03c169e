from __future__ import annotations

import json

import pytest

from bpmnkit.compliance import validate
from bpmnkit.llm import MockChatClient, SchemaFailureAfterRetries
from bpmnkit.pipeline import (
    STAGES,
    CorrectionState,
    ReconstructionNonCompliant,
    canonical_json,
    correct_model,
    extract_xml,
    generate_description,
    reconstruct,
    translate_model,
)
from bpmnkit.xmlio import documents_equal, serialize

from conftest import fixture_path, load_doc

DESCRIPTION = "Orders are registered, checked against inventory, then confirmed."


def _ids(doc) -> list[str]:
    return sorted(doc.element_ids())


class TestTranslateModel:
    def test_mock_round_trip_preserves_ids(self):
        doc = load_doc("unicode.bpmn")
        mapping = {
            "Bestellung erhalten": "Order received",
            "Prüfen": "Check",
            "Versand vorbereiten": "Prepare shipping",
            "Bestellung abgeschlossen": "Order completed",
            "Überprüfung der eingegangenen Bestellung": "Review of the incoming order",
        }
        client = MockChatClient([json.dumps(mapping, ensure_ascii=False)])
        translated, warnings = translate_model(doc, client)
        assert warnings == []
        assert _ids(translated) == _ids(doc)
        assert translated.find_by_id("task_check").get("name") == "Check"
        assert translated.find_by_id("task_ship").get("name") == "Prepare shipping"

    def test_document_without_strings_skips_llm(self):
        doc = load_doc("r6_empty_process.bpmn")
        client = MockChatClient([])
        translated, warnings = translate_model(doc, client)
        assert client.call_count == 0
        assert documents_equal(doc, translated)

    def test_whitespace_perturbed_keys_resolved_fuzzily(self):
        doc = load_doc("unicode.bpmn")
        mapping = {
            "Bestellung erhalten ": "Order received",
            " Prüfen": "Check",
            "Versand vorbereiten": "Prepare shipping",
            "Bestellung abgeschlossen": "Order completed",
            "Überprüfung der eingegangenen Bestellung": "Review of the incoming order",
        }
        client = MockChatClient([json.dumps(mapping, ensure_ascii=False)])
        translated, warnings = translate_model(doc, client, threshold=0.8)
        assert warnings == []
        assert translated.find_by_id("task_check").get("name") == "Check"
        assert translated.find_by_id("start_1").get("name") == "Order received"

    def test_prompt_carries_unique_strings_once(self):
        doc = load_doc("unicode.bpmn")
        client = MockChatClient(["{}"])
        translate_model(doc, client)
        prompt = client.calls[0][1].content
        assert prompt.count("Prüfen") == 1


def _repair_script(actions) -> list[str]:
    return [json.dumps(actions)]


class TestCorrectModel:
    def test_compliant_input_returns_unchanged(self):
        doc = load_doc("diamond.bpmn")
        client = MockChatClient([])
        result = correct_model(doc, client)
        assert result.iterations == 0
        assert result.report.compliant
        assert documents_equal(doc, result.document)
        assert client.call_count == 0

    def test_local_repair_fixes_missing_default(self):
        doc = load_doc("r1_missing_default.bpmn")
        fix = {
            "action": "modify",
            "target_id": "gw_route",
            "new_xml": '<bpmn:exclusiveGateway id="gw_route" name="Route case" '
                       'default="flow_fast"/>',
        }
        client = MockChatClient(_repair_script([fix]))
        state = CorrectionState(limit=3, simple_threshold=0)  # force local repair
        result = correct_model(doc, client, state)
        assert result.iterations == 1
        assert result.report.compliant
        assert result.document.find_by_id("gw_route").get("default") == "flow_fast"

    def test_regenerate_mode_for_small_models(self):
        doc = load_doc("r1_missing_default.bpmn")
        fixed = load_doc("r1_missing_default.bpmn")
        fixed.find_by_id("gw_route").set("default", "flow_fast")
        client = MockChatClient([serialize(fixed).decode("utf-8")])
        result = correct_model(doc, client, CorrectionState(limit=3))
        assert result.iterations == 1
        assert result.report.compliant
        assert result.log[0]["mode"] == "regenerate"

    def test_noop_repairs_exhaust_limit(self):
        doc = load_doc("r1_missing_default.bpmn")
        client = MockChatClient(_repair_script([]) * 3)
        state = CorrectionState(limit=3, simple_threshold=0)
        result = correct_model(doc, client, state)
        assert result.iterations == 3
        assert not result.report.compliant
        assert client.call_count == 3

    def test_worsening_repair_is_rolled_back(self):
        doc = load_doc("r1_missing_default.bpmn")
        before_errors = validate(doc).error_count
        sabotage = {"action": "delete", "target_id": "end_1"}
        client = MockChatClient(_repair_script([sabotage]) * 2)
        state = CorrectionState(limit=2, simple_threshold=0)
        result = correct_model(doc, client, state)
        assert result.report.error_count <= before_errors
        assert result.document.find_by_id("end_1") is not None
        assert any("rolled back" in w for e in result.log for w in e["warnings"])

    def test_unknown_repair_target_skipped_with_warning(self):
        doc = load_doc("r1_missing_default.bpmn")
        ghost = {"action": "delete", "target_id": "no_such_element"}
        client = MockChatClient(_repair_script([ghost]) * 2)
        state = CorrectionState(limit=2, simple_threshold=0)
        result = correct_model(doc, client, state)
        assert any("not found" in w for e in result.log for w in e["warnings"])

    def test_augment_appends_child(self):
        doc = load_doc("r6_empty_process.bpmn")
        actions = [
            {"action": "augment", "target_id": "proc_r6",
             "new_xml": '<bpmn:startEvent id="start_new" name="Started"/>'},
            {"action": "augment", "target_id": "proc_r6",
             "new_xml": '<bpmn:endEvent id="end_new" name="Done"/>'},
            {"action": "augment", "target_id": "proc_r6",
             "new_xml": '<bpmn:sequenceFlow id="flow_new" sourceRef="start_new" '
                        'targetRef="end_new"/>'},
        ]
        client = MockChatClient(_repair_script(actions))
        state = CorrectionState(limit=2, simple_threshold=-1)  # empty model counts 0 nodes
        result = correct_model(doc, client, state)
        assert result.report.compliant
        assert result.iterations == 1

    def test_di_is_stripped_while_prompting_and_reattached(self):
        doc = load_doc("diamond.bpmn")
        doc.find_by_id("gw_split").attrib.pop("default")
        fix = {
            "action": "modify",
            "target_id": "gw_split",
            "new_xml": '<bpmn:exclusiveGateway id="gw_split" name="Claim valid?" '
                       'default="flow_reject"/>',
        }
        client = MockChatClient(_repair_script([fix]))
        state = CorrectionState(limit=2, simple_threshold=0)
        result = correct_model(doc, client, state)
        prompt = client.calls[0][1].content
        assert "BPMNDiagram" not in prompt
        assert result.report.compliant
        shapes = [e for e in result.document.root.iter() if e.tag.endswith("BPMNShape")]
        assert shapes  # DI came back

    def test_history_window_bounds_prompt_content(self):
        doc = load_doc("r1_missing_default.bpmn")
        client = MockChatClient(_repair_script([]) * 4)
        state = CorrectionState(limit=4, simple_threshold=0, history_window=2)
        correct_model(doc, client, state)
        assert client.call_count == 4
        last_prompt = client.calls[-1][1].content
        assert last_prompt.count("### Previous attempt") == 2
        assert len(state.history) <= 2

    def test_correction_log_written(self, tmp_path):
        doc = load_doc("r1_missing_default.bpmn")
        client = MockChatClient(_repair_script([]) * 2)
        state = CorrectionState(limit=2, simple_threshold=0)
        log_path = tmp_path / "correction.log.jsonl"
        correct_model(doc, client, state, log_path=log_path)
        lines = log_path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["iteration"] == 1


class TestGenerateDescription:
    def test_scripted_description_returned_verbatim(self):
        client = MockChatClient(["A tidy description."])
        assert generate_description(load_doc("diamond.bpmn"), client) == "A tidy description."

    def test_prompt_contains_no_di(self):
        client = MockChatClient(["ok"])
        generate_description(load_doc("diamond.bpmn"), client)
        prompt = client.calls[0][1].content
        assert "BPMNDiagram" not in prompt
        assert "BPMNShape" not in prompt
        assert "task_approve" in prompt

    def test_empty_process_still_prompts(self):
        client = MockChatClient(["empty process"])
        assert generate_description(load_doc("r6_empty_process.bpmn"), client)
        assert client.call_count == 1


class TestExtractXml:
    def test_fenced_xml(self):
        text = "```xml\n<?xml version=\"1.0\"?><bpmn:definitions/>\n```"
        assert extract_xml(text).startswith("<?xml")

    def test_prose_around_definitions(self):
        text = "Here you go:\n<definitions xmlns=\"x\"><process/></definitions>\nDone."
        assert extract_xml(text) == '<definitions xmlns="x"><process/></definitions>'

    def test_no_xml_raises(self):
        with pytest.raises(ValueError):
            extract_xml("no xml at all")


class TestReconstruct:
    def test_clean_script_runs_six_calls(self, tmp_path):
        client = MockChatClient.from_json(fixture_path("mock_reconstruct_ok.json"))
        doc, artifacts = reconstruct(DESCRIPTION, client, run_dir=tmp_path)
        assert client.call_count == 6
        assert [a.stage for a in artifacts] == list(STAGES)
        assert validate(doc).compliant
        # artifacts persisted per run
        for i in range(1, 6):
            assert (tmp_path / f"stage{i}.json").exists()
        assert (tmp_path / "stage6.bpmn").exists()

    def test_layout_added_after_compliance(self):
        client = MockChatClient.from_json(fixture_path("mock_reconstruct_ok.json"))
        doc, _ = reconstruct(DESCRIPTION, client)
        shapes = [e for e in doc.root.iter() if e.tag.endswith("BPMNShape")]
        assert shapes
        assert "BPMNDI" not in client.calls[5][1].content

    def test_each_stage_prompt_embeds_previous_payload(self):
        client = MockChatClient.from_json(fixture_path("mock_reconstruct_ok.json"))
        _, artifacts = reconstruct(DESCRIPTION, client)
        for k in range(1, 6):
            prompt = client.calls[k][1].content
            assert canonical_json(artifacts[k - 1].payload) in prompt

    def test_defective_stage6_fixed_in_one_iteration(self):
        client = MockChatClient.from_json(fixture_path("mock_reconstruct_fixup.json"))
        doc, artifacts = reconstruct(DESCRIPTION, client)
        assert client.call_count == 7  # six stages + one repair
        assert validate(doc).compliant
        assert len(artifacts) == 6

    def test_invalid_stage2_retries_then_proceeds(self):
        script = json.loads(fixture_path("mock_reconstruct_ok.json").read_text())
        script = [script[0], "not json at all", '{"an": "object, not an array"}',
                  script[1]] + script[2:]
        client = MockChatClient(script)
        doc, _ = reconstruct(DESCRIPTION, client)
        assert validate(doc).compliant
        assert client.call_count == 8  # 6 stages + 2 stage-2 retries

    def test_schema_failure_is_stage_tagged(self):
        script = json.loads(fixture_path("mock_reconstruct_ok.json").read_text())
        client = MockChatClient([script[0]] + ["garbage"] * 4)
        with pytest.raises(SchemaFailureAfterRetries) as exc:
            reconstruct(DESCRIPTION, client, json_retries=3)
        assert exc.value.stage == "decision_analysis"

    def test_noop_repairs_raise_non_compliant_with_artifacts(self):
        script = json.loads(fixture_path("mock_reconstruct_fixup.json").read_text())
        defective_xml = script[5]
        script = script[:6] + [defective_xml] * 3  # repairs that change nothing
        client = MockChatClient(script)
        with pytest.raises(ReconstructionNonCompliant) as exc:
            reconstruct(DESCRIPTION, client, correction_limit=3)
        assert client.call_count == 9  # 6 stages + 3 failed corrections
        assert not exc.value.report.compliant
        assert len(exc.value.artifacts) == 6

    def test_empty_description_rejected(self):
        with pytest.raises(ValueError):
            reconstruct("   ", MockChatClient([]))

    def test_deterministic_with_fixed_script(self):
        client1 = MockChatClient.from_json(fixture_path("mock_reconstruct_ok.json"))
        client2 = MockChatClient.from_json(fixture_path("mock_reconstruct_ok.json"))
        doc1, _ = reconstruct(DESCRIPTION, client1)
        doc2, _ = reconstruct(DESCRIPTION, client2)
        assert serialize(doc1) == serialize(doc2)

    def test_unparseable_stage6_reprompts_once_then_succeeds(self):
        script = json.loads(fixture_path("mock_reconstruct_ok.json").read_text())
        client = MockChatClient(script[:5] + ["not xml at all"] + script[5:])
        doc, artifacts = reconstruct(DESCRIPTION, client)
        assert validate(doc).compliant
        assert client.call_count == 7  # six stages + one stage-6 reprompt
        reprompt = client.calls[6]
        assert reprompt[-2].role == "assistant"
        assert reprompt[-2].content == "not xml at all"
        assert reprompt[-1].role == "user"
        assert reprompt[-1].content.startswith(
            "That response was not a parseable BPMN 2.0 XML document (")
        assert reprompt[-1].content.endswith(
            "). Reply again with only the corrected XML.")
        complaints = [call for call in client.calls
                      if "not a parseable BPMN 2.0 XML document" in call[-1].content]
        assert complaints == [reprompt]
        assert artifacts[-1].raw_response == script[5]

    def test_persistent_stage6_garbage_raises_stage_tagged(self):
        script = json.loads(fixture_path("mock_reconstruct_ok.json").read_text())
        json_retries = 2
        replies = [f"garbage {i}" for i in range(json_retries + 1)]
        client = MockChatClient(script[:5] + replies)
        with pytest.raises(SchemaFailureAfterRetries) as exc:
            reconstruct(DESCRIPTION, client, json_retries=json_retries)
        assert exc.value.stage == "bpmn_xml"
        assert exc.value.attempts == json_retries + 1
        assert exc.value.raw == replies[-1]
        assert client.call_count == 5 + json_retries + 1
