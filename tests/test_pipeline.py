from __future__ import annotations

import json

import pytest

from bpmnkit import pipeline
from bpmnkit.compliance import RuleCode, validate
from bpmnkit.llm import MockChatClient, SchemaFailureAfterRetries
from bpmnkit.model import DocumentIndex
from bpmnkit.pipeline import (
    STAGES,
    _apply_repair_actions,
    canonical_json,
    correct_model,
    extract_xml,
    generate_description,
    reconstruct,
    translate_model,
)
from bpmnkit.xmlio import (BPMN_NS, BPMNDI_NS, BpmnDocument, local_name, parse, qname,
                           serialize, tree_equal)

from conftest import element_by_id, fixture_path, load_doc

DESCRIPTION = "Orders are registered, checked against inventory, then confirmed."
RUN_DIR_FILES = [*(f"stage{k}.json" for k in range(1, 6)), "stage6.bpmn"]


def _stage_records(run_dir) -> list[dict]:
    """The records of stage1.json-stage5.json in ``run_dir``."""
    return [json.loads((run_dir / f"stage{k}.json").read_text(encoding="utf-8"))
            for k in range(1, 6)]


def _has_diagram(doc) -> bool:
    return doc.root.find(f"{{{BPMNDI_NS}}}BPMNDiagram") is not None


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
        assert element_by_id(translated, "task_check").get("name") == "Check"
        assert element_by_id(translated, "task_ship").get("name") == "Prepare shipping"

    def test_document_without_strings_skips_llm(self):
        doc = load_doc("r6_empty_process.bpmn")
        client = MockChatClient([])
        translated, warnings = translate_model(doc, client)
        assert client.call_count == 0
        assert tree_equal(doc.root, translated.root)

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
        assert element_by_id(translated, "task_check").get("name") == "Check"
        assert element_by_id(translated, "start_1").get("name") == "Order received"

    def test_prompt_carries_unique_strings_once(self):
        doc = load_doc("unicode.bpmn")
        client = MockChatClient(["{}"])
        translate_model(doc, client)
        prompt = client.calls[0][1].content
        assert prompt.count("Prüfen") == 1


def _repair_script(actions) -> list[str]:
    return [json.dumps(actions)]


_FIX_R1 = {
    "action": "modify",
    "target_id": "gw_route",
    "new_xml": '<bpmn:exclusiveGateway id="gw_route" name="Route case" '
               'default="flow_fast"/>',
}


def _long_r1_model():
    """r1_missing_default with five more tasks before ``task_assess``: 11
    graph nodes, so the default ``simple_threshold`` picks local repair."""
    chain = ["start_1", *(f"task_pre{k}" for k in range(5)), "task_assess"]
    tasks = "".join(f'<bpmn:task id="{node}" name="Step {node}"/>' for node in chain[1:-1])
    flows = "".join(f'<bpmn:sequenceFlow id="flow_pre{k}" sourceRef="{a}" targetRef="{b}"/>'
                    for k, (a, b) in enumerate(zip(chain, chain[1:])))
    source = fixture_path("r1_missing_default.bpmn").read_text().replace(
        '<bpmn:sequenceFlow id="flow_1" sourceRef="start_1" targetRef="task_assess"/>',
        tasks + flows)
    return parse(source)


def _diamond_without_default():
    return parse(fixture_path("diamond.bpmn").read_text(encoding="utf-8").replace(
        ' default="flow_reject"', ""))


def _mutate(doc) -> None:
    for elem in doc.root.iter():
        elem.set("mutated", "yes")
    for process in doc.processes():
        del process[:]


class TestCorrectModel:
    def test_compliant_input_returns_unchanged(self):
        doc = load_doc("diamond.bpmn")
        client = MockChatClient([])
        result = correct_model(doc, client)
        assert result.iterations == 0
        assert result.report.compliant
        assert tree_equal(doc.root, result.document.root)
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
        result = correct_model(doc, client, limit=3,
                               simple_threshold=0)  # force local repair
        assert result.iterations == 1
        assert result.report.compliant
        assert element_by_id(result.document, "gw_route").get("default") == "flow_fast"

    def test_regenerate_mode_for_small_models(self):
        doc = load_doc("r1_missing_default.bpmn")
        fixed = load_doc("r1_missing_default.bpmn")
        element_by_id(fixed, "gw_route").set("default", "flow_fast")
        client = MockChatClient([serialize(fixed).decode("utf-8")])
        result = correct_model(doc, client, limit=3)
        assert result.iterations == 1
        assert result.report.compliant
        assert result.log[0]["mode"] == "regenerate"

    def test_noop_repairs_exhaust_limit(self):
        doc = load_doc("r1_missing_default.bpmn")
        client = MockChatClient(_repair_script([]) * 3)
        result = correct_model(doc, client, limit=3, simple_threshold=0)
        assert result.iterations == 3
        assert not result.report.compliant
        assert client.call_count == 3

    def test_worsening_repair_is_rolled_back(self):
        doc = load_doc("r1_missing_default.bpmn")
        before_errors = validate(doc).error_count
        sabotage = {"action": "delete", "target_id": "end_1"}
        client = MockChatClient(_repair_script([sabotage]) * 2)
        result = correct_model(doc, client, limit=2, simple_threshold=0)
        assert result.report.error_count <= before_errors
        assert element_by_id(result.document, "end_1") is not None
        assert any("rolled back" in w for e in result.log for w in e["warnings"])

    def test_unknown_repair_target_skipped_with_warning(self):
        doc = load_doc("r1_missing_default.bpmn")
        ghost = {"action": "delete", "target_id": "no_such_element"}
        client = MockChatClient(_repair_script([ghost]) * 2)
        result = correct_model(doc, client, limit=2, simple_threshold=0)
        assert any("not found" in w for e in result.log for w in e["warnings"])

    def test_non_string_new_xml_skipped_like_a_missing_one(self):
        doc = load_doc("r1_missing_default.bpmn")
        action = {"action": "replace", "target_id": "gw_route", "new_xml": None}
        client = MockChatClient(_repair_script([action]))
        result = correct_model(doc, client, limit=1, simple_threshold=0)
        assert not result.report.compliant
        assert element_by_id(result.document, "gw_route") is not None
        assert result.log[0]["warnings"] == ["action carries no new_xml; skipped",
                                             "no repair action applied"]

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
        result = correct_model(doc, client, limit=2,
                               simple_threshold=-1)  # empty model counts 0 nodes
        assert result.report.compliant
        assert result.iterations == 1

    def test_di_is_stripped_while_prompting_and_reattached(self):
        doc = load_doc("diamond.bpmn")
        element_by_id(doc, "gw_split").attrib.pop("default")
        fix = {
            "action": "modify",
            "target_id": "gw_split",
            "new_xml": '<bpmn:exclusiveGateway id="gw_split" name="Claim valid?" '
                       'default="flow_reject"/>',
        }
        client = MockChatClient(_repair_script([fix]))
        result = correct_model(doc, client, limit=2, simple_threshold=0)
        prompt = client.calls[0][1].content
        assert "BPMNDiagram" not in prompt
        assert result.report.compliant
        shapes = [e for e in result.document.root.iter() if e.tag.endswith("BPMNShape")]
        assert shapes  # DI came back

    def test_a_regenerated_model_keeps_none_of_the_replys_di(self):
        doc = load_doc("diamond.bpmn")
        element_by_id(doc, "gw_split").attrib.pop("default")
        reply = fixture_path("diamond.bpmn").read_text(encoding="utf-8")
        result = correct_model(doc, MockChatClient([reply]))
        assert result.log[0]["mode"] == "regenerate" and result.report.compliant
        written = parse(serialize(result.document))  # the model as correct -o writes it
        assert validate(written).to_dict() == result.report.to_dict()
        assert len(written.root.findall(f"{{{BPMNDI_NS}}}BPMNDiagram")) == 1

    @pytest.mark.parametrize("mode, reply, warning", [
        ("regenerate", "no model here",
         "regenerated model rejected: response contains no XML document"),
        ("local_repair", "no actions here",
         "repair actions rejected: response contains no parseable JSON value"),
        ("local_repair", '{"action": "delete", "target_id": "end_1"}',
         "repair actions rejected: expected a JSON array"),
    ], ids=["regenerate_without_xml", "repair_without_json", "repair_object"])
    def test_an_unusable_reply_is_rejected_with_one_warning(self, mode, reply, warning):
        doc = load_doc("r1_missing_default.bpmn")
        result = correct_model(doc, MockChatClient([reply]), limit=1,
                               simple_threshold=10 if mode == "regenerate" else 0)
        assert result.log == [{"iteration": 1, "mode": mode, "errors_before": 1,
                               "accepted": False, "warnings": [warning]}]
        assert result.document is doc

    @pytest.mark.parametrize("action, warning", [
        (5, "skipped malformed action 5"),
        ({"action": "rename", "target_id": "end_1"},
         "skipped malformed action {'action': 'rename', 'target_id': 'end_1'}"),
        ({"action": "delete"}, "skipped malformed action {'action': 'delete'}"),
        # the root is reported before the new_xml is read
        ({"action": "modify", "target_id": "defs_diamond", "new_xml": "<broken"},
         "cannot modify the document root; action skipped"),
        ({"action": "replace", "target_id": "defs_diamond", "new_xml": "<broken"},
         "cannot replace the document root; action skipped"),
        ({"action": "delete", "target_id": "defs_diamond"},
         "cannot delete the document root; action skipped"),
        ({"action": "augment", "target_id": "proc_diamond",
          "new_xml": '<bpmn:task id="a"/><bpmn:task id="b"/>'},
         "new_xml must contain exactly one element; skipped"),
        ({"action": "replace", "target_id": "end_1", "new_xml": '<bpmn:endEvent id="end_1"'},
         "unparseable new_xml: not well-formed (invalid token): line 1, column 25"),
        ({"action": "replace", "target_id": "end_1", "new_xml":
          '<bpmn:endEvent id="end_1">\n  <bpmn:incoming>f</bpmn:outgoing>\n</bpmn:endEvent>'},
         "unparseable new_xml: mismatched tag: line 2, column 20"),
    ], ids=["not_an_object", "unknown_action", "no_target_id", "modify_root",
            "replace_root", "delete_root", "augment_two_elements", "unparseable",
            "unparseable_line_2"])
    def test_an_action_that_cannot_apply_is_skipped_and_not_accepted(self, action, warning):
        doc = _diamond_without_default()
        result = correct_model(doc, MockChatClient(_repair_script([action])), limit=1,
                               simple_threshold=0)
        # a reply that changes nothing is not a repair, so nothing is validated again
        (entry,) = result.log
        assert (entry["accepted"], entry["warnings"]) == (
            False, [warning, "no repair action applied"])
        assert "errors_after" not in entry
        assert result.document is doc

    def test_long_texts_are_cut_in_the_prompt(self, monkeypatch):
        monkeypatch.setattr(pipeline, "MODEL_EXCERPT_LIMIT", 200)
        monkeypatch.setattr(pipeline, "HISTORY_EXCERPT_LIMIT", 50)
        doc = load_doc("r1_missing_default.bpmn")
        reply = json.dumps([{"action": "delete", "target_id": "no_such_element",
                             "note": "x" * 100}])
        client = MockChatClient([reply] * 2)
        correct_model(doc, client, limit=2, simple_threshold=0)
        model, diagnostics = serialize(doc).decode("utf-8"), validate(doc).to_json()
        for call in client.calls:
            assert f"Model:\n\n{model[:200]}\n... (truncated)\n\n" in call[1].content
        previous = (f"Diagnostics then:\n\n{diagnostics[:50]}\n... (truncated)\n\n"
                    f"Your response:\n\n{reply[:50]}\n... (truncated)\n\n")
        assert previous in client.calls[1][1].content

    @pytest.mark.parametrize("mode, script, order", [
        ("regenerate", [fixture_path("diamond.bpmn").read_text(encoding="utf-8").replace(
            '<bpmn:process id="proc_diamond"',
            '<bpmn:message id="msg_claim"/><bpmn:process id="proc_diamond"')],
         ["message", "process", "BPMNDiagram"]),
        ("local_repair", _repair_script([{"action": "augment", "target_id": "defs_diamond",
                                          "new_xml": '<bpmn:message id="msg_claim"/>'}]),
         ["process", "message", "BPMNDiagram"]),
    ], ids=["regenerate", "local_repair"])
    def test_the_diagram_comes_back_after_a_new_root_element(self, mode, script, order):
        doc = _diamond_without_default()
        result = correct_model(doc, MockChatClient(script), limit=1,
                               simple_threshold=10 if mode == "regenerate" else 0)
        assert [(entry["mode"], entry["accepted"]) for entry in result.log] == [(mode, True)]
        assert [local_name(child.tag) for child in result.document.root] == order
        diagram = f"{{{BPMNDI_NS}}}BPMNDiagram"
        assert tree_equal(doc.root.find(diagram), result.document.root.find(diagram))

    def test_history_window_bounds_prompt_content(self):
        doc = load_doc("r1_missing_default.bpmn")
        client = MockChatClient(_repair_script([]) * 4)
        correct_model(doc, client, limit=4, simple_threshold=0)
        assert client.call_count == 4
        last_prompt = client.calls[-1][1].content
        assert last_prompt.count("### Previous attempt") == 2

    @pytest.mark.parametrize("script, accepted", [
        (_repair_script([_FIX_R1]), [True]),
        ([], []),  # already compliant
        (_repair_script([{"action": "delete", "target_id": "end_1"}]) * 2, [False, False]),
    ], ids=["accepted", "compliant", "rolled_back"])
    def test_result_shares_nothing_with_the_input(self, script, accepted):
        """A repaired result is a fresh tree; without an accepted repair the
        result is the input itself. Either way the input is left unchanged."""
        doc = load_doc("diamond.bpmn" if not script else "r1_missing_default.bpmn")
        before = serialize(doc)
        result = correct_model(doc, MockChatClient(script), limit=2, simple_threshold=0)
        assert [entry["accepted"] for entry in result.log] == accepted
        assert serialize(doc) == before
        if any(accepted):
            _mutate(result.document)
            assert serialize(doc) == before
        else:
            assert result.document is doc

    @pytest.mark.parametrize("name, script", [
        ("diamond.bpmn", []),
        # a regenerated model with two R6 errors against the input's one R1 error
        ("r1_missing_default.bpmn", [f'<definitions xmlns="{BPMN_NS}"><process id="a"/>'
                                     '<process id="b"/></definitions>']),
    ], ids=["compliant", "rolled_back"])
    def test_an_unrepaired_input_is_returned_without_a_copy(self, monkeypatch, name, script):
        copies = []
        real_copy = BpmnDocument.copy
        monkeypatch.setattr(BpmnDocument, "copy",
                            lambda doc: copies.append(doc) or real_copy(doc))
        doc = load_doc(name)
        result = correct_model(doc, MockChatClient(script), limit=1, simple_threshold=100)
        assert [entry["accepted"] for entry in result.log] == [False] * len(script)
        assert result.document is doc
        assert copies == []

    def test_each_working_state_is_built_and_serialized_once(self, monkeypatch):
        calls = {"build_graph": [], "serialize": []}
        for name, seen in calls.items():
            def spy(doc, *args, _real=getattr(pipeline, name), _seen=seen, **kwargs):
                _seen.append(doc)
                return _real(doc, *args, **kwargs)
            monkeypatch.setattr(pipeline, name, spy)
        sabotage = {"action": "delete", "target_id": "end_1"}
        client = MockChatClient(_repair_script([sabotage]) + _repair_script([_FIX_R1]))
        result = correct_model(_long_r1_model(), client)
        assert [entry["mode"] for entry in result.log] == ["local_repair"] * 2
        assert [entry["accepted"] for entry in result.log] == [False, True]
        assert result.report.compliant
        # the rolled-back repair leaves the state as it was: same graph, same prompt model
        assert len(calls["build_graph"]) == 1
        assert len(calls["serialize"]) == 1

    @pytest.mark.parametrize("action, names", [
        ({"action": "delete"}, ["outer"]),
        ({"action": "modify", "new_xml": '<task id="a" name="renamed"/>'}, ["renamed", "outer"]),
        ({"action": "augment", "new_xml": '<documentation>note</documentation>'},
         ["inner", "outer"]),
    ])
    def test_repairs_act_on_the_first_owner_of_a_repeated_id(self, action, names):
        doc = parse(f'<definitions xmlns="{BPMN_NS}"><process id="p"><subProcess id="s">'
                    '<task id="a" name="inner"/></subProcess><task id="a" name="outer"/>'
                    '</process></definitions>')
        assert DocumentIndex(doc).elements["a"].get("name") == "inner"
        warnings: list[str] = []
        repaired = _apply_repair_actions(doc, [dict(action, target_id="a")], warnings)
        assert warnings == []
        tasks = [e for e in repaired.root.iter(qname("task")) if e.get("id") == "a"]
        assert [task.get("name") for task in tasks] == names
        notes = [len(task.findall(qname("documentation"))) for task in tasks]
        assert notes == ([1, 0] if action["action"] == "augment" else [0] * len(tasks))

    def test_modify_of_a_repeated_gateway_id_clears_its_r1_diagnostic(self):
        source = fixture_path("r1_missing_default.bpmn").read_text().replace(
            "</bpmn:process>", '</bpmn:process><bpmn:process id="proc_2">'
                               '<bpmn:task id="gw_route" name="Route case"/></bpmn:process>')
        doc = parse(source)
        before = [d.element_id for d in validate(doc).diagnostics
                  if d.code is RuleCode.R1_DEFAULT_FLOW]
        assert before == ["gw_route"]
        fix = {
            "action": "modify",
            "target_id": "gw_route",
            "new_xml": '<bpmn:exclusiveGateway id="gw_route" name="Route case" '
                       'default="flow_fast"/>',
        }
        client = MockChatClient(_repair_script([fix]))
        result = correct_model(doc, client, limit=1, simple_threshold=0)
        assert result.log[0]["accepted"]
        assert not [d for d in result.report.diagnostics if d.code is RuleCode.R1_DEFAULT_FLOW]
        assert element_by_id(result.document, "gw_route").get("default") == "flow_fast"


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

    def test_fence_with_another_info_string(self):
        text = "Model:\n```bpmn\n<definitions xmlns=\"x\"><process/></definitions>\n```\nDone."
        assert extract_xml(text) == '<definitions xmlns="x"><process/></definitions>'


class TestReconstruct:
    def test_clean_script_runs_six_calls(self, tmp_path):
        client = MockChatClient.from_json(fixture_path("mock_reconstruct_ok.json"))
        doc, report = reconstruct(DESCRIPTION, client, run_dir=tmp_path)
        assert client.call_count == 6
        assert [record["stage"] for record in _stage_records(tmp_path)] == list(STAGES[:5])
        assert sorted(path.name for path in tmp_path.iterdir()) == RUN_DIR_FILES
        assert report.compliant and validate(doc).compliant

    @pytest.mark.parametrize("label", ["Register Order", "Auftrag prüfen"])
    def test_run_dir_files_keep_their_format(self, tmp_path, label):
        script = json.loads(fixture_path("mock_reconstruct_ok.json").read_text())
        script[0] = script[0].replace("Register Order", label)  # non-ASCII is written as it is
        reconstruct(DESCRIPTION, MockChatClient(script), run_dir=tmp_path)
        record = {"stage": STAGES[0], "payload": json.loads(script[0]),
                  "raw_response": script[0]}
        assert (tmp_path / "stage1.json").read_text(encoding="utf-8") == json.dumps(
            record, indent=2, ensure_ascii=False)
        assert (tmp_path / "stage6.bpmn").read_bytes() == serialize(
            pipeline.reply_model(script[5]))

    def test_correction_log_appended_to_run_dir(self, tmp_path):
        for run in (1, 2):
            client = MockChatClient.from_json(fixture_path("mock_reconstruct_fixup.json"))
            reconstruct(DESCRIPTION, client, run_dir=tmp_path)
            lines = (tmp_path / "correction.log.jsonl").read_text().splitlines()
            assert len(lines) == run  # one JSON line per iteration, one iteration a run
            assert [json.loads(line)["iteration"] for line in lines] == [1] * run

    def test_correction_log_written_only_for_a_non_compliant_stage6(self, tmp_path):
        client = MockChatClient.from_json(fixture_path("mock_reconstruct_ok.json"))
        reconstruct(DESCRIPTION, client, run_dir=tmp_path / "clean")
        assert not (tmp_path / "clean" / "correction.log.jsonl").exists()
        client = MockChatClient.from_json(fixture_path("mock_reconstruct_fixup.json"))
        doc, report = reconstruct(DESCRIPTION, client, run_dir=tmp_path / "cut",
                                  correction_limit=0)
        assert not report.compliant
        assert report.to_dict() == validate(doc).to_dict()
        assert not _has_diagram(doc)
        assert (tmp_path / "cut" / "correction.log.jsonl").read_text() == ""

    @pytest.mark.parametrize("script, validations", [
        ("mock_reconstruct_ok.json", 1),  # the stage-6 model
        ("mock_reconstruct_fixup.json", 2),  # the stage-6 model and its one repair
    ])
    def test_stage6_model_is_validated_once(self, monkeypatch, script, validations):
        seen = []

        def spy(doc):
            seen.append(doc)
            return validate(doc)

        monkeypatch.setattr(pipeline, "validate", spy)
        reconstruct(DESCRIPTION, MockChatClient.from_json(fixture_path(script)))
        assert len(seen) == validations

    def test_each_stage_payload_is_rendered_once(self, monkeypatch, tmp_path):
        rendered = []

        def spy(payload):
            rendered.append(payload)
            return canonical_json(payload)

        monkeypatch.setattr(pipeline, "canonical_json", spy)
        client = MockChatClient.from_json(fixture_path("mock_reconstruct_ok.json"))
        reconstruct(DESCRIPTION, client, run_dir=tmp_path)
        assert rendered == [record["payload"] for record in _stage_records(tmp_path)]

    def test_layout_added_after_compliance(self):
        client = MockChatClient.from_json(fixture_path("mock_reconstruct_ok.json"))
        doc, _ = reconstruct(DESCRIPTION, client)
        shapes = [e for e in doc.root.iter() if e.tag.endswith("BPMNShape")]
        assert shapes
        assert "BPMNDI" not in client.calls[5][1].content

    def test_a_stage6_reply_with_di_gets_one_diagram(self, tmp_path):
        script = json.loads(fixture_path("mock_reconstruct_ok.json").read_text())
        diagram = (f'<bpmndi:BPMNDiagram xmlns:bpmndi="{BPMNDI_NS}" id="reply_diagram">'
                   '<bpmndi:BPMNPlane id="reply_plane" bpmnElement="proc_recon"/>'
                   '</bpmndi:BPMNDiagram></bpmn:definitions>')
        script[5] = script[5].replace("</bpmn:definitions>", diagram)
        doc, _ = reconstruct(DESCRIPTION, MockChatClient(script), run_dir=tmp_path)
        diagrams = doc.root.findall(f"{{{BPMNDI_NS}}}BPMNDiagram")
        assert [diagram.get("id") for diagram in diagrams] == ["di_diagram_proc_recon"]
        assert "reply_diagram" not in (tmp_path / "stage6.bpmn").read_text(encoding="utf-8")

    def test_each_stage_prompt_embeds_previous_payload(self, tmp_path):
        client = MockChatClient.from_json(fixture_path("mock_reconstruct_ok.json"))
        reconstruct(DESCRIPTION, client, run_dir=tmp_path)
        for k, record in enumerate(_stage_records(tmp_path), start=1):
            prompt = client.calls[k][1].content
            assert canonical_json(record["payload"]) in prompt

    def test_defective_stage6_fixed_in_one_iteration(self, tmp_path):
        client = MockChatClient.from_json(fixture_path("mock_reconstruct_fixup.json"))
        doc, report = reconstruct(DESCRIPTION, client, run_dir=tmp_path)
        assert client.call_count == 7  # six stages + one repair
        assert report.compliant and validate(doc).compliant
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "correction.log.jsonl", *RUN_DIR_FILES]

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
        with pytest.raises(SchemaFailureAfterRetries,
                           match="^decision_analysis: no schema-valid response after 4 "):
            reconstruct(DESCRIPTION, client)

    def test_noop_repairs_return_the_non_compliant_model_without_di(self, tmp_path):
        script = json.loads(fixture_path("mock_reconstruct_fixup.json").read_text())
        defective_xml = script[5]
        script = script[:6] + [defective_xml] * 3  # repairs that change nothing
        client = MockChatClient(script)
        doc, report = reconstruct(DESCRIPTION, client, run_dir=tmp_path, correction_limit=3)
        assert client.call_count == 9  # 6 stages + 3 failed corrections
        assert not report.compliant
        assert report.to_dict() == validate(doc).to_dict()
        assert not _has_diagram(doc)
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "correction.log.jsonl", *RUN_DIR_FILES]

    def test_empty_description_rejected(self):
        with pytest.raises(ValueError):
            reconstruct("   ", MockChatClient([]))

    def test_deterministic_with_fixed_script(self):
        client1 = MockChatClient.from_json(fixture_path("mock_reconstruct_ok.json"))
        client2 = MockChatClient.from_json(fixture_path("mock_reconstruct_ok.json"))
        doc1, _ = reconstruct(DESCRIPTION, client1)
        doc2, _ = reconstruct(DESCRIPTION, client2)
        assert serialize(doc1) == serialize(doc2)

    def test_unparseable_stage6_reprompts_once_then_succeeds(self, tmp_path):
        script = json.loads(fixture_path("mock_reconstruct_ok.json").read_text())
        client = MockChatClient(script[:5] + ["not xml at all"] + script[5:])
        doc, _ = reconstruct(DESCRIPTION, client, run_dir=tmp_path)
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
        assert (tmp_path / "stage6.bpmn").read_bytes() == serialize(
            pipeline.reply_model(script[5]))

    def test_persistent_stage6_garbage_raises_stage_tagged(self):
        script = json.loads(fixture_path("mock_reconstruct_ok.json").read_text())
        replies = [f"garbage {i}" for i in range(4)]  # first try + 3 reprompts
        client = MockChatClient(script[:5] + replies)
        with pytest.raises(SchemaFailureAfterRetries) as exc:
            reconstruct(DESCRIPTION, client)
        assert str(exc.value) == ("bpmn_xml: no schema-valid response after 4 attempt(s): "
                                  "response contains no XML document")
        assert client.call_count == 5 + 4  # the last failure is the last reply
