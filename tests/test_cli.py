from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bpmnkit
from bpmnkit.cli import EXIT_FAILURE, EXIT_NONCOMPLIANT, EXIT_OK, main
from bpmnkit.compliance import validate_bytes

from conftest import FIXTURES, fixture_path, flaky_chat

NO_PROCESS = '<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL" id="d"/>'
NO_PROCESS_FINDING = {"code": "R6_START_END", "element_id": None, "severity": "Error",
                      "message": "document declares no process"}


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_compliant_model_exits_zero(self, capsys):
        code, out, _ = _run(capsys, "validate", str(fixture_path("chain3.bpmn")))
        assert code == EXIT_OK
        assert json.loads(out)["compliant"] is True

    def test_seeded_defect_exits_three(self, capsys):
        code, out, _ = _run(capsys, "validate", str(fixture_path("r1_missing_default.bpmn")))
        assert code == EXIT_NONCOMPLIANT
        data = json.loads(out)
        assert data["diagnostics"][0]["code"] == "R1_DEFAULT_FLOW"

    def test_malformed_file_reports_r5_and_exits_three(self, capsys, tmp_path):
        bad = tmp_path / "bad.bpmn"
        bad.write_bytes(b"<broken")
        code, out, _ = _run(capsys, "validate", str(bad))
        assert code == EXIT_NONCOMPLIANT
        assert json.loads(out)["diagnostics"][0]["code"] == "R5_WELLFORMED"

    def test_missing_file_is_operational_failure(self, capsys, tmp_path):
        code, _, err = _run(capsys, "validate", str(tmp_path / "nope.bpmn"))
        assert code == EXIT_FAILURE
        assert "error" in err

    def test_document_without_a_process_is_not_compliant(self, capsys, tmp_path):
        model = tmp_path / "empty.bpmn"
        model.write_text(NO_PROCESS)
        code, out, _ = _run(capsys, "validate", str(model))
        assert code == EXIT_NONCOMPLIANT
        assert json.loads(out) == {"compliant": False, "diagnostics": [NO_PROCESS_FINDING]}


class TestCompare:
    def test_self_compare_overall_one(self, capsys):
        path = str(fixture_path("diamond.bpmn"))
        code, out, _ = _run(capsys, "compare", path, path, "--embed-fallback")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["overall"] == pytest.approx(1.0, abs=1e-9)
        assert set(data) == {"structural", "type_distribution", "semantic_name",
                             "semantic_type", "semantic_name_type", "overall"}

    def test_flags_accepted_after_subcommand(self, capsys):
        path = str(fixture_path("chain3.bpmn"))
        code, _, _ = _run(capsys, "compare", path, path, "--embed-fallback",
                          "--embed-model", "m")
        assert code == EXIT_OK


    def test_graph_warnings_go_to_stderr(self, capsys):
        path = str(fixture_path("r5_duplicate_id.bpmn"))
        code, out, err = _run(capsys, "compare", path, path, "--embed-fallback")
        assert code == EXIT_OK
        assert json.loads(out)["overall"] == pytest.approx(1.0, abs=1e-9)
        assert err.splitlines() == [
            f"warning: {path}: duplicate element id 'data_shared' skipped"] * 2


_LLM_OPTIONS = ("--llm-endpoint", "--llm-model", "--llm-mock-script")
_EMBED_OPTIONS = ("--embed-endpoint", "--embed-model", "--embed-fallback")
_OPTIONS_READ = {  # beyond --config, which every command reads
    "validate": (),
    **dict.fromkeys(("translate", "correct", "describe", "reconstruct"), _LLM_OPTIONS),
    "compare": _EMBED_OPTIONS,
    "batch": (*_LLM_OPTIONS, *_EMBED_OPTIONS, "--jobs"),
    "report": (),
}
_READ = [(command, option) for command, options in _OPTIONS_READ.items()
         for option in ("--config", *options)]
_SETTING_FLAGS = [*((command, option) for command, option in _READ if option != "--config"),
                  ("translate", "--threshold"), ("correct", "--limit"),
                  ("correct", "--simple-threshold"), ("reconstruct", "--limit"),
                  ("reconstruct", "--simple-threshold"), ("batch", "--threshold"),
                  ("batch", "--limit"), ("batch", "--simple-threshold")]
_TYPED = {  # a flag's argument, its config-file value, and the value both give; else "x"
    **dict.fromkeys(("--jobs", "--limit", "--simple-threshold"), ("3", "3", 3)),
    "--threshold": ("0.5", "0.5", 0.5),
    "--embed-fallback": (None, True, True),
}
_IGNORED = [(command, option) for command, options in _OPTIONS_READ.items()
            for option in (*_LLM_OPTIONS, *_EMBED_OPTIONS, "--jobs") if option not in options]


def _command_argv(command: str, tmp_path: Path) -> list[str]:
    """A command line for ``command`` that writes its output, if any, to
    ``tmp_path / "out"``."""
    model, out = str(fixture_path("chain3.bpmn")), str(tmp_path / "out")
    return {"validate": ["validate", model],
            "compare": ["compare", model, model],
            "batch": ["batch", "manifest.json", "--stage", "evaluate"],
            "report": ["report", str(tmp_path), "-o", out],
            }.get(command, [command, model, "-o", out])


def _option_argv(option: str) -> list[str]:
    return {"--embed-fallback": [option], "--jobs": [option, "2"]}.get(option, [option, "x"])


class TestUsage:
    def test_no_arguments_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize(("command", "option"), _IGNORED)
    def test_an_option_the_command_ignores_is_a_usage_error(self, capsys, tmp_path,
                                                            command, option):
        with pytest.raises(SystemExit) as exc:
            main(_command_argv(command, tmp_path) + _option_argv(option))
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(("command", "option"), _READ)
    def test_an_option_the_command_reads_parses_after_it(self, tmp_path, command, option):
        from bpmnkit.cli import build_parser

        args = build_parser().parse_args(_command_argv(command, tmp_path)
                                         + _option_argv(option))
        value = getattr(args, option[2:].replace("-", "_"))
        assert value == {"--embed-fallback": True, "--jobs": 2}.get(option, "x")

    @pytest.mark.parametrize("command", _OPTIONS_READ)
    def test_one_config_file_serves_every_command(self, tmp_path, monkeypatch, command):
        from bpmnkit.cli import build_parser, resolve_config

        config = tmp_path / "config.json"
        config.write_text(json.dumps({"llm_model": "file-model", "embed_fallback": True,
                                      "jobs": 3, "limit": 4, "threshold": 0.5}))
        for name in ("BPMNKIT_LLM_ENDPOINT", "BPMNKIT_LLM_MODEL", "BPMNKIT_EMBED_ENDPOINT"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("BPMNKIT_EMBED_MODEL", "env-model")
        settings = resolve_config(build_parser().parse_args(
            _command_argv(command, tmp_path) + ["--config", str(config)]))
        assert settings == {"llm_endpoint": None, "llm_model": "file-model",
                            "llm_mock_script": None, "llm_retry_count": 2,
                            "embed_endpoint": None, "embed_model": "env-model",
                            "embed_fallback": True, "embed_cache_dir": None, "jobs": 3,
                            "limit": 4, "simple_threshold": 10, "threshold": 0.5}

    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestTranslateCommand:
    def test_translate_with_mock_script(self, capsys, tmp_path):
        mapping = {
            "Bestellung erhalten": "Order received",
            "Prüfen": "Check",
            "Versand vorbereiten": "Prepare shipping",
            "Bestellung abgeschlossen": "Order completed",
            "Überprüfung der eingegangenen Bestellung": "Review of the incoming order",
        }
        script = tmp_path / "script.json"
        script.write_text(json.dumps([json.dumps(mapping, ensure_ascii=False)]),
                          encoding="utf-8")
        out_file = tmp_path / "translated.bpmn"
        code, _, _ = _run(capsys, "translate", str(fixture_path("unicode.bpmn")),
                          "-o", str(out_file), "--llm-mock-script", str(script))
        assert code == EXIT_OK
        assert "Check" in out_file.read_text(encoding="utf-8")

    def test_translate_without_llm_fails_cleanly(self, capsys, tmp_path):
        code, _, err = _run(capsys, "translate", str(fixture_path("unicode.bpmn")),
                            "-o", str(tmp_path / "x.bpmn"))
        assert code == EXIT_FAILURE
        assert "no LLM configured" in err


    def test_failed_translation_names_its_stage(self, capsys, tmp_path):
        script = tmp_path / "script.json"
        script.write_text(json.dumps(["not json"] * 4))
        out_file = tmp_path / "translated.bpmn"
        code, _, err = _run(capsys, "translate", str(fixture_path("unicode.bpmn")),
                            "-o", str(out_file), "--llm-mock-script", str(script))
        assert code == EXIT_FAILURE
        assert err == ("error: translation: no schema-valid response after 4 attempt(s): "
                       "response contains no parseable JSON value\n")
        assert not out_file.exists()

class TestCorrectCommand:
    def test_correct_fixes_seeded_defect(self, capsys, tmp_path):
        fixed_xml = fixture_path("r1_missing_default.bpmn").read_text(encoding="utf-8")
        fixed_xml = fixed_xml.replace('id="gw_route" name="Route case"',
                                      'id="gw_route" name="Route case" default="flow_fast"')
        script = tmp_path / "script.json"
        script.write_text(json.dumps([fixed_xml]), encoding="utf-8")
        out_file = tmp_path / "fixed.bpmn"
        code, out, _ = _run(capsys, "correct", str(fixture_path("r1_missing_default.bpmn")),
                            "-o", str(out_file), "--llm-mock-script", str(script),
                            "--limit", "2")
        assert code == EXIT_OK
        assert json.loads(out)["compliant"] is True
        assert 'default="flow_fast"' in out_file.read_text(encoding="utf-8")


class TestDescribeCommand:
    def test_describe_writes_text(self, capsys, tmp_path):
        script = tmp_path / "script.json"
        script.write_text(json.dumps(["The process settles insurance claims."]))
        out_file = tmp_path / "description.txt"
        code, _, _ = _run(capsys, "describe", str(fixture_path("diamond.bpmn")),
                          "-o", str(out_file), "--llm-mock-script", str(script))
        assert code == EXIT_OK
        assert out_file.read_text() == "The process settles insurance claims."


class TestReconstructCommand:
    def test_reconstruct_from_description(self, capsys, tmp_path):
        desc = tmp_path / "description.txt"
        desc.write_text("Orders are registered, checked, and confirmed.")
        out_file = tmp_path / "reconstructed.bpmn"
        run_dir = tmp_path / "run"
        code, out, _ = _run(capsys, "reconstruct", str(desc), "-o", str(out_file),
                            "--llm-mock-script", str(fixture_path("mock_reconstruct_ok.json")),
                            "--run-dir", str(run_dir))
        assert (code, out) == (EXIT_OK, "")
        assert b"BPMNDiagram" in out_file.read_bytes()
        assert (run_dir / "stage3.json").exists()

    def test_reconstruction_without_a_process_is_not_compliant(self, capsys, tmp_path):
        desc = tmp_path / "description.txt"
        desc.write_text("Orders are registered, checked, and confirmed.")
        replies = json.loads(fixture_path("mock_reconstruct_ok.json").read_text())
        script = tmp_path / "script.json"  # stage 6, then the one regeneration
        script.write_text(json.dumps(replies[:5] + [NO_PROCESS] * 2))
        out_file = tmp_path / "out.bpmn"
        code, out, err = _run(capsys, "reconstruct", str(desc), "-o", str(out_file),
                              "--llm-mock-script", str(script), "--limit", "1")
        assert (code, err) == (EXIT_NONCOMPLIANT, "")
        assert json.loads(out)["diagnostics"] == [NO_PROCESS_FINDING]
        written = out_file.read_bytes()
        assert b"BPMNDiagram" not in written
        assert json.loads(out) == validate_bytes(written).to_dict()


    @pytest.mark.parametrize("stage, replies_kept, complaint", [
        ("decision_analysis", 1, "response contains no parseable JSON value"),  # stage 2
        ("bpmn_xml", 5, "response contains no XML document"),  # stage 6
    ], ids=["stage2", "stage6"])
    def test_failed_stage_is_named(self, capsys, tmp_path, stage, replies_kept, complaint):
        desc = tmp_path / "description.txt"
        desc.write_text("Orders are registered, checked, and confirmed.")
        replies = json.loads(fixture_path("mock_reconstruct_ok.json").read_text())
        script = tmp_path / "script.json"
        script.write_text(json.dumps(replies[:replies_kept] + ["garbage"] * 4))
        code, _, err = _run(capsys, "reconstruct", str(desc), "-o", str(tmp_path / "out.bpmn"),
                            "--llm-mock-script", str(script))
        assert code == EXIT_FAILURE
        assert err == (f"error: {stage}: no schema-valid response after 4 attempt(s): "
                       f"{complaint}\n")

class TestBatchAndReport:
    def _manifest(self, tmp_path):
        entries = [
            {"model_path": str(fixture_path("order-v1.bpmn")),
             "status": "reconstructed",
             "reconstruction_path": str(fixture_path("order-v2.bpmn"))},
            {"model_path": str(fixture_path("chain3.bpmn")),
             "status": "reconstructed",
             "reconstruction_path": str(fixture_path("chain3.bpmn"))},
        ]
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"entries": entries}))
        return path

    def test_batch_evaluate_writes_results_and_summary(self, capsys, tmp_path):
        manifest = self._manifest(tmp_path)
        code, out, _ = _run(capsys, "batch", str(manifest), "--stage", "evaluate",
                            "--embed-fallback", "--out-dir", str(tmp_path))
        assert code == EXIT_OK
        results = tmp_path / "results"
        assert (results / "summary.csv").exists()
        assert (results / "order-v1.json").exists()
        assert "metric,average_score" in out

    def test_evaluate_counts_every_description(self, capsys, tmp_path):
        """A described entry not yet reconstructed counts as a description, so
        the per-description averages divide by 2 here, not by the 1 pair."""
        (tmp_path / "diamond.txt").write_text("A diamond.")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"entries": [
            {"model_path": str(fixture_path("chain3.bpmn")), "status": "reconstructed",
             "reconstruction_path": str(fixture_path("chain4.bpmn"))},
            {"model_path": str(fixture_path("diamond.bpmn")), "status": "described",
             "description_path": "diamond.txt"},
            {"model_path": str(tmp_path / "gone.bpmn"), "status": "described"},  # stale
        ]}))
        code, _, _ = _run(capsys, "batch", str(manifest), "--stage", "evaluate",
                          "--embed-fallback", "--out-dir", str(tmp_path))
        assert code == EXIT_OK
        summary = json.loads((tmp_path / "results" / "summary.json").read_text())
        assert summary["counts"] == {"descriptions": 2, "reconstructed": 1}
        for dim, average in summary["averages"].items():
            assert summary["averages_per_description"][dim] == average / 2

    def test_report_renders_results_dir(self, capsys, tmp_path):
        manifest = self._manifest(tmp_path)
        _run(capsys, "batch", str(manifest), "--stage", "evaluate",
             "--embed-fallback", "--out-dir", str(tmp_path))
        out_csv = tmp_path / "summary_again.csv"
        code, _, _ = _run(capsys, "report", str(tmp_path / "results"), "-o", str(out_csv))
        assert code == EXIT_OK
        assert "Overall Similarity" in out_csv.read_text()

    def test_report_to_stdout_with_literal_format(self, capsys, tmp_path):
        manifest = self._manifest(tmp_path)
        _run(capsys, "batch", str(manifest), "--stage", "evaluate",
             "--embed-fallback", "--out-dir", str(tmp_path))
        code, out, _ = _run(capsys, "report", str(tmp_path / "results"), "-o", "json")
        assert code == EXIT_OK
        assert "averages" in json.loads(out)

    def test_report_skips_malformed_records(self, capsys, tmp_path):
        breakdown = dict.fromkeys(("structural", "type_distribution", "semantic_name",
                                   "semantic_type", "semantic_name_type", "overall"), 0.5)
        records = {"good": {"model_id": "good", "breakdown": breakdown},
                   "id_not_a_string": {"model_id": 5, "breakdown": breakdown},
                   "missing_dimension": {"model_id": "m", "breakdown": {"overall": 0.5}},
                   "null_breakdown": {"model_id": "n", "breakdown": None}}
        for name, record in records.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(record))
        out = tmp_path / "report.json"
        code, _, err = _run(capsys, "report", str(tmp_path), "-o", str(out))
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert [r["model_id"] for r in report["per_model"]] == ["good"]
        assert report["averages"]["overall"] == 0.5

    def test_report_needs_an_existing_results_dir(self, capsys, tmp_path):
        a_file = tmp_path / "results.json"
        a_file.write_text("{}")
        for path in (tmp_path / "missing", a_file):
            code, out, err = _run(capsys, "report", str(path), "-o", "json")
            assert (code, out) == (EXIT_FAILURE, "")
            assert err == f"error: not a results directory: {path}\n"
        code, out, _ = _run(capsys, "report", str(tmp_path / "missing"), "-o",
                            str(tmp_path / "report.json"))
        assert code == EXIT_FAILURE
        assert not (tmp_path / "report.json").exists()
        empty = tmp_path / "empty"
        empty.mkdir()
        code, out, _ = _run(capsys, "report", str(empty), "-o", "json")
        assert code == EXIT_OK
        assert json.loads(out)["per_model"] == []

    def test_report_warnings_carry_the_prefix_once_per_run(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"model_id": 5, "breakdown": None}))
        for _ in range(2):  # the second run adds no second handler
            code, _, err = _run(capsys, "report", str(tmp_path), "-o", "json")
            assert code == EXIT_OK
            assert err == f"warning: ignoring unreadable result file {bad}\n"

    def test_batch_translate_stage_advances_manifest(self, capsys, tmp_path):
        mapping = {
            "Bestellung erhalten": "Order received",
            "Prüfen": "Check",
            "Versand vorbereiten": "Prepare shipping",
            "Bestellung abgeschlossen": "Order completed",
            "Überprüfung der eingegangenen Bestellung": "Review of the incoming order",
        }
        script = tmp_path / "script.json"
        script.write_text(json.dumps([json.dumps(mapping, ensure_ascii=False)]),
                          encoding="utf-8")
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(json.dumps({"entries": [
            {"model_path": str(fixture_path("unicode.bpmn")), "status": "raw"},
        ]}))
        code, _, _ = _run(capsys, "batch", str(manifest_path), "--stage", "translate",
                          "--llm-mock-script", str(script), "--out-dir", str(tmp_path))
        assert code == EXIT_OK
        updated = json.loads(manifest_path.read_text())
        entry = updated["entries"][0]
        assert entry["status"] == "translated"
        assert "Check" in (tmp_path / "translate" / "unicode.bpmn").read_text(
            encoding="utf-8")

    def test_batch_translate_warnings_name_their_model(self, capsys, tmp_path):
        script = tmp_path / "script.json"
        script.write_text(json.dumps([json.dumps({"Prüfen": "Check"})] * 2))
        models = [tmp_path / "one.bpmn", tmp_path / "two.bpmn"]
        for model in models:
            model.write_bytes(fixture_path("unicode.bpmn").read_bytes())
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"entries": [{"model_path": str(m)} for m in models]}))
        code, _, err = _run(capsys, "batch", str(manifest), "--stage", "translate",
                            "--llm-mock-script", str(script))
        assert code == EXIT_OK
        single = "".join(_run(capsys, "translate", str(model), "-o", str(tmp_path / "out"),
                              "--llm-mock-script", str(script))[2] for model in models)
        assert err == single
        lines = err.splitlines()
        assert len(lines) == 8
        for model, half in zip(models, (lines[:4], lines[4:])):
            assert all(line.startswith(f"warning: {model}: no translation matched ")
                       for line in half)


class TestConfigPrecedence:
    def test_env_overrides_config_file(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"llm_endpoint": "http://file.invalid",
                                      "llm_model": "file-model"}))
        monkeypatch.setenv("BPMNKIT_LLM_ENDPOINT", "http://env.invalid")
        from bpmnkit.cli import build_parser, resolve_config

        args = build_parser().parse_args(
            ["describe", "x.bpmn", "-o", "y.txt", "--config", str(config)])
        settings = resolve_config(args)
        assert settings["llm_endpoint"] == "http://env.invalid"
        assert settings["llm_model"] == "file-model"

    def test_config_values_convert_like_their_flags(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"jobs": "2", "limit": 3.0, "threshold": "0.5",
                                      "embed_fallback": True, "llm_model": None}))
        from bpmnkit.cli import build_parser, resolve_config

        settings = resolve_config(build_parser().parse_args(
            ["validate", "x.bpmn", "--config", str(config)]))
        assert (settings["jobs"], settings["limit"], settings["threshold"]) == (2, 3, 0.5)
        assert type(settings["jobs"]) is type(settings["limit"]) is int
        assert settings["embed_fallback"] is True and settings["llm_model"] is None

    @pytest.mark.parametrize(("command", "option"), _SETTING_FLAGS)
    def test_a_flag_and_its_config_key_give_the_same_value(self, tmp_path, monkeypatch,
                                                           command, option):
        from bpmnkit.cli import build_parser, resolve_config

        for name in [name for name in os.environ if name.startswith("BPMNKIT_")]:
            monkeypatch.delenv(name)
        argument, config_value, want = _TYPED.get(option, ("x", "x", "x"))
        key = option[2:].replace("-", "_")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: config_value}))
        argv = _command_argv(command, tmp_path)
        from_flag = resolve_config(build_parser().parse_args(
            argv + [option] + ([argument] if argument else [])))
        from_config = resolve_config(build_parser().parse_args(argv + ["--config", str(config)]))
        for got in (from_flag[key], from_config[key]):
            assert got == want and type(got) is type(want)

    def test_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv("BPMNKIT_LLM_ENDPOINT", "http://env.invalid")
        from bpmnkit.cli import build_parser, resolve_config

        args = build_parser().parse_args(
            ["describe", "x.bpmn", "-o", "y.txt", "--llm-endpoint", "http://flag.invalid"])
        settings = resolve_config(args)
        assert settings["llm_endpoint"] == "http://flag.invalid"

    def test_embed_flags_override_env(self, capsys, monkeypatch, loopback):
        monkeypatch.setenv("BPMNKIT_EMBED_ENDPOINT", "http://env.invalid")
        monkeypatch.setenv("BPMNKIT_EMBED_MODEL", "env-model")
        loopback.answer = lambda body: {"embeddings": np.eye(384)[:len(body["input"])].tolist()}
        model = str(fixture_path("chain3.bpmn"))
        code, _, _ = _run(capsys, "compare", model, model,
                          "--embed-endpoint", loopback.url("/flag"),
                          "--embed-model", "flag-model")
        assert code == EXIT_OK
        assert loopback.posts
        assert {(path, body["model"]) for path, _, body in loopback.posts} == {
            ("/flag", "flag-model")}

    def test_embed_env_selects_remote_unless_fallback(self, capsys, monkeypatch, loopback):
        monkeypatch.setenv("BPMNKIT_EMBED_ENDPOINT", loopback.url("/env"))
        monkeypatch.setenv("BPMNKIT_EMBED_MODEL", "env-model")
        loopback.answer = lambda body: {"embeddings": np.eye(384)[:len(body["input"])].tolist()}
        model = str(fixture_path("chain3.bpmn"))
        assert _run(capsys, "compare", model, model)[0] == EXIT_OK
        assert loopback.posts
        assert {(path, body["model"]) for path, _, body in loopback.posts} == {
            ("/env", "env-model")}
        loopback.posts.clear()
        assert _run(capsys, "compare", model, model, "--embed-fallback")[0] == EXIT_OK
        assert loopback.posts == []


class TestMalformedInputs:
    @pytest.mark.parametrize("source, complaint", [
        (NO_PROCESS, "no process definition found"),
        ("<definitions", "XML syntax error: unclosed token: line 1, column 0"),
    ], ids=["no-process", "malformed"])
    @pytest.mark.parametrize("side", [0, 1])
    def test_compare_names_the_input_that_fails_to_load(self, capsys, tmp_path, source,
                                                        complaint, side):
        bad = tmp_path / "bad.bpmn"
        bad.write_text(source)
        models = [str(fixture_path("chain3.bpmn"))] * 2
        models[side] = str(bad)
        code, out, err = _run(capsys, "compare", *models, "--embed-fallback")
        assert (code, out) == (EXIT_FAILURE, "")
        assert err == f"error: {bad}: {complaint}\n"

    def test_embedding_reply_without_embeddings_fails_cleanly(self, capsys, loopback, sleeps):
        loopback.answer = lambda body: {"data": []}
        model = str(fixture_path("chain3.bpmn"))
        code, out, err = _run(capsys, "compare", model, model,
                              "--embed-endpoint", loopback.url(), "--embed-model", "m")
        assert code == EXIT_FAILURE
        assert out == ""
        assert err == "error: embedding service failed: reply has no embeddings list\n"
        assert sleeps == [0.5, 1.0]

    def test_config_that_is_not_an_object_fails_cleanly(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("[1, 2]")
        code, _, err = _run(capsys, "validate", str(fixture_path("chain3.bpmn")),
                            "--config", str(config))
        assert code == EXIT_FAILURE
        assert err == f"error: cannot read config: {config}: expected a JSON object\n"

    @pytest.mark.parametrize("entry", [{"content_x": "hi"}, 5, {"content": 5}, {"content": None}])
    def test_mock_script_entry_without_content_fails_cleanly(self, capsys, tmp_path, entry):
        script = tmp_path / "script.json"
        script.write_text(json.dumps(["ok", entry]))
        code, _, err = _run(capsys, "describe", str(fixture_path("chain3.bpmn")),
                            "-o", str(tmp_path / "d.txt"), "--llm-mock-script", str(script))
        assert code == EXIT_FAILURE
        assert err == f"error: mock script {script}: entry 1 has no content or error\n"

    @pytest.mark.parametrize("entry", [{"status": "raw"}, "chain3.bpmn"])
    def test_manifest_entry_without_model_path_fails_cleanly(self, capsys, tmp_path, entry):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(
            {"entries": [{"model_path": str(fixture_path("chain3.bpmn"))}, entry]}))
        code, _, err = _run(capsys, "batch", str(manifest), "--stage", "evaluate",
                            "--embed-fallback")
        assert code == EXIT_FAILURE
        assert err == "error: manifest entry 1 has no model_path\n"

    @pytest.mark.parametrize("key,value", [("description_path", 5),
                                           ("reconstruction_path", ["r.bpmn"]),
                                           ("name", 5)])
    def test_manifest_path_that_is_not_a_string_fails_cleanly(self, capsys, tmp_path,
                                                              key, value):
        manifest = tmp_path / "manifest.json"
        model = str(fixture_path("chain3.bpmn"))
        manifest.write_text(json.dumps(
            {"entries": [{"model_path": model}, {"model_path": model, key: value}]}))
        code, _, err = _run(capsys, "batch", str(manifest), "--stage", "evaluate",
                            "--embed-fallback")
        assert code == EXIT_FAILURE
        assert err == f"error: manifest entry 1: {key} must be a string or null\n"

    def test_manifest_key_that_names_no_field_fails_cleanly(self, capsys, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"entries": [
            {"model_path": str(fixture_path("chain3.bpmn")),
             "reconstruction_pth": str(fixture_path("chain4.bpmn")),
             "status": "reconstructed"}]}))
        code, out, err = _run(capsys, "batch", str(manifest), "--stage", "evaluate",
                              "--embed-fallback")
        assert (code, out) == (EXIT_FAILURE, "")
        assert err == "error: manifest entry 0: unknown key 'reconstruction_pth'\n"

    @pytest.mark.parametrize("name,complaint", [("x", "duplicate name 'x'"),
                                                ("../x", "name '../x' is not a file name")])
    def test_manifest_name_held_twice_or_not_a_file_name_fails_cleanly(self, capsys, tmp_path,
                                                                        name, complaint):
        manifest = tmp_path / "manifest.json"
        entries = [{"model_path": str(fixture_path("chain3.bpmn")), "name": "x"},
                   {"model_path": str(fixture_path("diamond.bpmn")), "name": name}]
        manifest.write_text(json.dumps({"entries": entries}))
        code, _, err = _run(capsys, "batch", str(manifest), "--stage", "translate",
                            "--llm-mock-script", str(fixture_path("mock_translate_drift.json")))
        assert code == EXIT_FAILURE
        assert err == f"error: manifest entry 1: {complaint}\n"
        assert json.loads(manifest.read_text())["entries"] == entries

    @pytest.mark.parametrize("status", [5, "Raw"])
    def test_manifest_status_outside_the_five_fails_cleanly(self, capsys, tmp_path, status):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"entries": [
            {"model_path": str(fixture_path("chain3.bpmn")), "status": status}]}))
        code, _, err = _run(capsys, "batch", str(manifest), "--stage", "translate",
                            "--llm-mock-script", str(fixture_path("mock_translate_drift.json")))
        assert code == EXIT_FAILURE
        assert err == ("error: manifest entry 0: status must be one of raw, translated, "
                       f"compliant, described, reconstructed, got {status!r}\n")

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("value", ["-1", "1.5", "nan", "inf"])
    def test_threshold_outside_zero_to_one_fails_cleanly(self, capsys, tmp_path, source,
                                                         value):
        script = tmp_path / "script.json"
        script.write_text(json.dumps([json.dumps({"Prüfen": "Check"})]))
        out = tmp_path / "out.bpmn"
        argv = ["translate", str(fixture_path("unicode.bpmn")), "-o", str(out),
                "--llm-mock-script", str(script)]
        if source == "flag":
            argv += ["--threshold", value]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"threshold": float(value)}))
            argv += ["--config", str(config)]
        code, _, err = _run(capsys, *argv)
        assert code == EXIT_FAILURE
        assert err == f"error: threshold must be a number in [0, 1], got {float(value)}\n"
        assert not out.exists()

    @pytest.mark.parametrize(("command", "source"),  # only batch takes --jobs
                             [("validate", "config"), ("batch", "config"), ("batch", "flag")])
    @pytest.mark.parametrize("value", [0, -3])
    def test_jobs_below_one_fails_cleanly(self, capsys, tmp_path, source, command, value):
        if command == "validate":
            argv = ["validate", str(fixture_path("chain3.bpmn"))]
        else:  # a manifest with nothing to evaluate never reaches batch_evaluate
            manifest = tmp_path / "manifest.json"
            manifest.write_text(json.dumps({"entries": []}))
            argv = ["batch", str(manifest), "--stage", "evaluate", "--embed-fallback"]
        if source == "flag":
            argv += ["--jobs", str(value)]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"jobs": value}))
            argv += ["--config", str(config)]
        code, out, err = _run(capsys, *argv)
        assert code == EXIT_FAILURE
        assert (out, err) == ("", f"error: jobs must be >= 1, got {value}\n")

    @pytest.mark.parametrize("data", [[{"model_path": "chain3.bpmn"}], {"entries": 5}])
    def test_manifest_that_is_not_an_object_with_entries_fails_cleanly(self, capsys, tmp_path,
                                                                        data):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(data))
        code, _, err = _run(capsys, "batch", str(manifest), "--stage", "evaluate",
                            "--embed-fallback")
        assert code == EXIT_FAILURE
        assert err == f"error: manifest {manifest}: expected an object with an entries list\n"

    def test_unknown_config_key_fails_cleanly(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"job": 4, "embed_fallbak": True}))
        code, out, err = _run(capsys, "validate", str(fixture_path("chain3.bpmn")),
                              "--config", str(config))
        assert code == EXIT_FAILURE
        assert out == ""
        assert err == f"error: cannot read config: {config}: unknown key 'job'\n"

    @pytest.mark.parametrize("key,value", [
        ("limit", None), ("jobs", "x"), ("jobs", 1e400), ("threshold", [1]),
        ("embed_fallback", "no"), ("embed_cache_dir", 5), ("llm_model", ["m"]),
        ("limit", 3.7), ("jobs", 2.5),
    ])
    def test_config_value_of_the_wrong_type_fails_cleanly(self, capsys, tmp_path, key, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        code, _, err = _run(capsys, "validate", str(fixture_path("chain3.bpmn")),
                            "--config", str(config))
        assert code == EXIT_FAILURE
        assert err.startswith(f"error: cannot read config: {config}: {key}: ")


    @pytest.mark.parametrize("key", ["jobs", "limit", "simple_threshold", "llm_retry_count",
                                     "threshold"])
    def test_boolean_for_a_number_fails_cleanly(self, capsys, tmp_path, key):
        script = tmp_path / "script.json"
        script.write_text(json.dumps([json.dumps({"Prüfen": "Check"})]))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: True}))
        out = tmp_path / "out.bpmn"
        code, _, err = _run(capsys, "translate", str(fixture_path("unicode.bpmn")), "-o",
                            str(out), "--llm-mock-script", str(script), "--config", str(config))
        assert code == EXIT_FAILURE
        assert err == f"error: cannot read config: {config}: {key}: unexpected value true\n"
        assert not out.exists()


class TestLlmRetries:
    def test_http_retries_back_off(self, capsys, tmp_path, monkeypatch, loopback, sleeps):
        monkeypatch.delenv("BPMNKIT_LLM_ENDPOINT", raising=False)
        monkeypatch.delenv("BPMNKIT_LLM_MODEL", raising=False)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"llm_endpoint": loopback.url("/v1/chat"),
                                      "llm_model": "test-model", "llm_retry_count": 2}))
        flaky_chat(loopback, failures=2)
        out_file = tmp_path / "description.txt"
        code, _, _ = _run(capsys, "describe", str(fixture_path("diamond.bpmn")),
                          "-o", str(out_file), "--config", str(config))
        assert code == EXIT_OK
        assert out_file.read_text() == "recovered"
        assert len(loopback.posts) == 3
        assert sleeps == [0.5, 1.0]

    @pytest.mark.parametrize("command", ["describe", "translate", "reconstruct"])
    def test_reply_without_text_content_fails_cleanly(self, capsys, tmp_path, monkeypatch,
                                                      loopback, sleeps, command):
        monkeypatch.delenv("BPMNKIT_LLM_ENDPOINT", raising=False)
        monkeypatch.delenv("BPMNKIT_LLM_MODEL", raising=False)
        loopback.answer = lambda body: {"choices": [{"message": {"content": None}}]}
        source = fixture_path("unicode.bpmn")
        if command == "reconstruct":
            source = tmp_path / "description.txt"
            source.write_text("A clerk checks the order, then ships it.")
        out_file = tmp_path / "out"
        code, _, err = _run(capsys, command, str(source),
                            "-o", str(out_file), "--llm-endpoint", loopback.url(),
                            "--llm-model", "test-model")
        assert code == EXIT_FAILURE
        assert err == ("error: chat completion failed: "
                       "reply content is NoneType, not a string\n")
        assert len(loopback.posts) == 3
        assert sleeps == [0.5, 1.0]
        assert not out_file.exists()


class TestBatchErrorIsolation:
    MODELS = ("chain3.bpmn", "diamond.bpmn", "parallel.bpmn")

    def _describe(self, capsys, tmp_path, manifest_path, replies):
        script = tmp_path / "script.json"
        script.write_text(json.dumps(replies))
        return _run(capsys, "batch", str(manifest_path), "--stage", "describe",
                    "--llm-mock-script", str(script), "--out-dir", str(tmp_path))

    def test_failed_entry_is_recorded_and_the_rest_advance(self, capsys, tmp_path):
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(json.dumps({"entries": [
            {"model_path": str(fixture_path(name)), "status": "compliant"}
            for name in self.MODELS
        ]}))
        code, _, err = self._describe(capsys, tmp_path, manifest_path,
                                      ["desc A", {"error": "unavailable"}, "desc C"])
        assert code == EXIT_FAILURE
        assert "LlmUnavailable" in err
        entries = json.loads(manifest_path.read_text())["entries"]
        assert [e["status"] for e in entries] == ["described", "compliant", "described"]
        assert "LlmUnavailable" in entries[1]["error"]
        assert "error" not in entries[0] and "error" not in entries[2]
        assert (tmp_path / "describe" / "parallel.txt").read_text() == "desc C"

        code, _, _ = self._describe(capsys, tmp_path, manifest_path, ["desc B"])
        assert code == EXIT_OK
        entries = json.loads(manifest_path.read_text())["entries"]
        assert [e["status"] for e in entries] == ["described"] * 3
        assert all("error" not in e for e in entries)
        assert (tmp_path / "describe" / "diamond.txt").read_text() == "desc B"


class TestBatchStages:
    def _batch(self, capsys, tmp_path, entries, stage, replies, limit=5):
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(json.dumps({"entries": entries}))
        script = tmp_path / "script.json"
        script.write_text(json.dumps(replies))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"limit": limit}))
        code, _, _ = _run(capsys, "batch", str(manifest_path), "--stage", stage,
                          "--llm-mock-script", str(script), "--out-dir", str(tmp_path),
                          "--config", str(config))
        return code, json.loads(manifest_path.read_text())["entries"]

    def _correct(self, capsys, tmp_path, reply):
        entry = {"model_path": str(fixture_path("r1_missing_default.bpmn")),
                 "status": "translated"}
        return self._batch(capsys, tmp_path, [entry], "correct", [reply] * 2, limit=2)

    def _reconstruct(self, capsys, tmp_path, replies):
        desc = tmp_path / "chain3.txt"
        desc.write_text("Orders are registered, checked, and confirmed.")
        entry = {"model_path": str(fixture_path("chain3.bpmn")), "status": "described",
                 "description_path": str(desc)}
        return self._batch(capsys, tmp_path, [entry], "reconstruct", replies, limit=3)

    def test_correct_that_fixes_advances_to_compliant(self, capsys, tmp_path):
        fixed_xml = fixture_path("r1_missing_default.bpmn").read_text(encoding="utf-8")
        fixed_xml = fixed_xml.replace('id="gw_route" name="Route case"',
                                      'id="gw_route" name="Route case" default="flow_fast"')
        code, entries = self._correct(capsys, tmp_path, fixed_xml)
        assert code == EXIT_OK
        target = tmp_path / "correct" / "r1_missing_default.bpmn"
        assert entries[0]["status"] == "compliant"
        assert entries[0]["model_path"] == "correct/r1_missing_default.bpmn"
        assert entries[0]["last_report"]["compliant"] is True
        assert 'default="flow_fast"' in target.read_text(encoding="utf-8")

    def test_correct_that_does_not_fix_keeps_status(self, capsys, tmp_path):
        broken_xml = fixture_path("r1_missing_default.bpmn").read_text(encoding="utf-8")
        code, entries = self._correct(capsys, tmp_path, broken_xml)
        assert code == EXIT_OK
        assert entries[0]["status"] == "translated"
        assert entries[0]["model_path"] == "correct/r1_missing_default.bpmn"
        assert (tmp_path / "correct" / "r1_missing_default.bpmn").exists()
        assert entries[0]["last_report"]["compliant"] is False

    def test_reconstruct_advances_to_reconstructed(self, capsys, tmp_path):
        replies = json.loads(fixture_path("mock_reconstruct_ok.json").read_text())
        code, entries = self._reconstruct(capsys, tmp_path, replies)
        assert code == EXIT_OK
        target = tmp_path / "reconstruct" / "chain3.bpmn"
        assert entries[0]["status"] == "reconstructed"
        assert entries[0]["reconstruction_path"] == "reconstruct/chain3.bpmn"
        assert "last_report" not in entries[0]
        assert b"BPMNDiagram" in target.read_bytes()

    def test_failed_stage_is_named_in_the_entry_error(self, capsys, tmp_path):
        replies = json.loads(fixture_path("mock_reconstruct_ok.json").read_text())
        code, entries = self._reconstruct(capsys, tmp_path, replies[:1] + ["garbage"] * 4)
        assert code == EXIT_FAILURE
        assert entries[0]["status"] == "described"
        assert entries[0]["error"] == (
            "SchemaFailureAfterRetries: decision_analysis: no schema-valid response after "
            "4 attempt(s): response contains no parseable JSON value")

    def test_noncompliant_reconstruct_is_written_but_not_advanced(self, capsys, tmp_path):
        script = json.loads(fixture_path("mock_reconstruct_fixup.json").read_text())
        code, entries = self._reconstruct(capsys, tmp_path, script[:6] + [script[5]] * 3)
        assert code == EXIT_OK
        target = tmp_path / "reconstruct" / "chain3.bpmn"
        assert entries[0]["status"] == "described"
        assert entries[0]["last_report"]["compliant"] is False
        assert entries[0]["reconstruction_path"] == "reconstruct/chain3.bpmn"
        assert target.exists()

    def test_entry_without_its_input_field_fails_alone(self, capsys, tmp_path):
        desc = tmp_path / "process.txt"
        desc.write_text("Orders are registered, checked, and confirmed.")
        entries = [{"model_path": str(fixture_path(name)), "status": "described",
                    "description_path": str(desc)}
                   for name in ("chain3.bpmn", "diamond.bpmn", "parallel.bpmn")]
        del entries[1]["description_path"]
        replies = json.loads(fixture_path("mock_reconstruct_ok.json").read_text())
        code, entries = self._batch(capsys, tmp_path, entries, "reconstruct", replies * 2)
        assert code == EXIT_FAILURE
        assert [e["status"] for e in entries] == ["reconstructed", "described", "reconstructed"]
        assert entries[1]["error"] == "ValueError: entry has no description_path"
        assert "error" not in entries[0] and "error" not in entries[2]
        assert entries[2]["reconstruction_path"] == "reconstruct/parallel.bpmn"

    def test_models_with_the_same_file_name_get_their_own_outputs(self, capsys, tmp_path):
        entries = []
        for folder, name in (("a", "chain3.bpmn"), ("b", "diamond.bpmn")):
            model = tmp_path / folder / "x.bpmn"
            model.parent.mkdir()
            model.write_bytes(fixture_path(name).read_bytes())
            entries.append({"model_path": str(model), "status": "compliant"})
        code, entries = self._batch(capsys, tmp_path, entries, "describe",
                                    ["desc of a", "desc of b"])
        assert code == EXIT_OK
        assert [e["status"] for e in entries] == ["described"] * 2
        paths = [e["description_path"] for e in entries]
        assert paths == ["describe/x.txt", "describe/x_1.txt"]
        assert [(tmp_path / p).read_text() for p in paths] == ["desc of a", "desc of b"]


class TestManifestPaths:
    """A relative manifest path is relative to the manifest's directory,
    whatever the working directory."""

    def _corpus(self, tmp_path, entries, **models):
        corpus = tmp_path / "corpus"
        for name, fixture in models.items():
            (corpus / name).parent.mkdir(parents=True, exist_ok=True)
            (corpus / name).write_bytes(fixture_path(fixture).read_bytes())
        (corpus / "manifest.json").write_text(json.dumps({"entries": entries}))
        return corpus

    def _script(self, tmp_path, replies):
        script = tmp_path / f"script{len(replies)}.json"
        script.write_text(json.dumps(replies))
        return str(script)

    def test_evaluate_reads_the_manifests_own_files(self, capsys, tmp_path, monkeypatch):
        pair = {"model_path": "chain3.bpmn", "reconstruction_path": "chain4.bpmn",
                "status": "reconstructed"}
        corpus = self._corpus(tmp_path, [pair], **{"chain3.bpmn": "chain3.bpmn",
                                                   "chain4.bpmn": "chain4.bpmn"})
        other = tmp_path / "other"
        other.mkdir()
        (other / "chain3.bpmn").write_bytes(fixture_path("chain4.bpmn").read_bytes())
        summaries = []
        for cwd, manifest in ((corpus, "manifest.json"), (other, "../corpus/manifest.json")):
            monkeypatch.chdir(cwd)
            out_dir = tmp_path / f"from-{cwd.name}"
            code, _, _ = _run(capsys, "batch", manifest, "--stage", "evaluate",
                              "--embed-fallback", "--out-dir", str(out_dir))
            assert code == EXIT_OK
            summaries.append((out_dir / "results" / "summary.json").read_bytes())
        record = json.loads(summaries[1])["per_model"][0]
        assert record["breakdown"]["overall"] < 1
        assert record["truth"] == str(corpus / "chain3.bpmn")
        assert summaries[0] == summaries[1]

    def test_a_stage_resumes_from_the_manifests_directory(self, capsys, tmp_path, monkeypatch):
        corpus = self._corpus(tmp_path, [{"model_path": "chain3.bpmn"}],
                              **{"chain3.bpmn": "chain3.bpmn"})
        monkeypatch.chdir(tmp_path)
        code, _, _ = _run(capsys, "batch", "corpus/manifest.json", "--stage", "translate",
                          "--llm-mock-script", self._script(tmp_path, ["{}"]))
        assert code == EXIT_OK
        monkeypatch.chdir(corpus)
        code, _, err = _run(capsys, "batch", "manifest.json", "--stage", "correct",
                            "--llm-mock-script", self._script(tmp_path, []))
        assert (code, err) == (EXIT_OK, "")
        entry = json.loads((corpus / "manifest.json").read_text())["entries"][0]
        assert entry["status"] == "compliant"
        assert (entry["model_path"], entry["name"]) == ("correct/chain3.bpmn", "chain3")

    def test_an_inserted_entry_gets_its_own_output(self, capsys, tmp_path, monkeypatch):
        corpus = self._corpus(tmp_path, [{"model_path": "b/x.bpmn"}],
                              **{"a/x.bpmn": "diamond.bpmn", "b/x.bpmn": "chain3.bpmn"})
        monkeypatch.chdir(corpus)
        script = self._script(tmp_path, ["{}"])
        assert _run(capsys, "batch", "manifest.json", "--stage", "translate",
                    "--llm-mock-script", script)[0] == EXIT_OK
        translated_b = (corpus / "translate" / "x.bpmn").read_bytes()
        manifest = json.loads((corpus / "manifest.json").read_text())
        manifest["entries"].insert(0, {"model_path": "a/x.bpmn"})
        (corpus / "manifest.json").write_text(json.dumps(manifest))
        assert _run(capsys, "batch", "manifest.json", "--stage", "translate",
                    "--llm-mock-script", script)[0] == EXIT_OK
        assert (corpus / "translate" / "x.bpmn").read_bytes() == translated_b
        assert b"gw_split" in (corpus / "translate" / "x_1.bpmn").read_bytes()
        entries = json.loads((corpus / "manifest.json").read_text())["entries"]
        assert [(e["name"], e["model_path"]) for e in entries] == [
            ("x_1", "translate/x_1.bpmn"), ("x", "translate/x.bpmn")]

    def test_evaluate_resumes_from_another_directory(self, capsys, tmp_path, monkeypatch):
        pairs = [{"model_path": truth, "reconstruction_path": recon, "status": "reconstructed"}
                 for truth, recon in (("chain3.bpmn", "chain4.bpmn"),
                                      ("diamond.bpmn", "parallel.bpmn"))]
        corpus = self._corpus(tmp_path, pairs, **{name: name for name in (
            "chain3.bpmn", "chain4.bpmn", "diamond.bpmn", "parallel.bpmn")})
        monkeypatch.chdir(tmp_path)
        assert _run(capsys, "batch", "corpus/manifest.json", "--stage", "evaluate",
                    "--embed-fallback")[0] == EXIT_OK
        results = corpus / "results"
        stored = {p.name: p.read_bytes() for p in results.iterdir()}
        assert sorted(stored) == ["chain3.json", "diamond.json", "summary.csv", "summary.json"]

        def recompute(*args):
            raise AssertionError("a stored result was recomputed")

        monkeypatch.setattr("bpmnkit.batch._evaluate_pair", recompute)
        monkeypatch.chdir(corpus)
        assert _run(capsys, "batch", "manifest.json", "--stage", "evaluate",
                    "--embed-fallback")[0] == EXIT_OK
        assert {p.name: p.read_bytes() for p in results.iterdir()} == stored


_NO_NUMPY = """
import sys
from bpmnkit import cli

(chain3, script, unicode, drift_script, description, reconstruct_script, out, manifest,
 results) = sys.argv[1:]
assert cli.main(["validate", chain3]) == 0
assert cli.main(["translate", chain3, "-o", out, "--llm-mock-script", script]) == 0
assert cli.main(["translate", unicode, "-o", out, "--llm-mock-script", drift_script]) == 0
assert cli.main(["reconstruct", description, "-o", out,
                 "--llm-mock-script", reconstruct_script]) == 0
assert cli.main(["batch", manifest, "--stage", "translate", "--llm-mock-script", script]) == 0
assert cli.main(["report", results, "-o", "json"]) == 0
assert "numpy" not in sys.modules, "numpy was loaded"
import bpmnkit
from bpmnkit import HashingEmbedder, batch, compare
assert "numpy" in sys.modules
try:
    bpmnkit.nope
except AttributeError:
    pass
else:
    sys.exit("bpmnkit.nope did not raise AttributeError")
"""


def test_commands_that_embed_nothing_do_not_load_numpy(tmp_path):
    """In a fresh interpreter, validate, two mock translates (one of them
    with fuzzy matches) and a mock reconstruct, a mock batch translate and a
    report leave numpy unloaded; the package's lazy names still import."""
    script = tmp_path / "script.json"
    script.write_text(json.dumps(["{}"]))
    description = tmp_path / "description.txt"
    description.write_text("A clerk checks the order.", encoding="utf-8")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"entries": [
        {"model_path": str(fixture_path("chain3.bpmn")), "status": "raw"}]}))
    results = tmp_path / "results"
    results.mkdir()
    breakdown = dict.fromkeys(("structural", "type_distribution", "semantic_name",
                               "semantic_type", "semantic_name_type", "overall"), 0.5)
    (results / "chain3.json").write_text(json.dumps({"model_id": "chain3",
                                                     "breakdown": breakdown}))
    env = dict(os.environ, PYTHONPATH=str(Path(bpmnkit.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY, str(fixture_path("chain3.bpmn")), str(script),
         str(fixture_path("unicode.bpmn")), str(fixture_path("mock_translate_drift.json")),
         str(description), str(fixture_path("mock_reconstruct_ok.json")),
         str(tmp_path / "out.bpmn"), str(manifest), str(results)],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(manifest.read_text())["entries"][0]["status"] == "translated"
    assert '"reconstructed": 1' in done.stdout


_RUNTIME_IMPORTS = """
import sys
from pathlib import Path

sys.modules["jsonschema"] = None  # every import of it fails
from bpmnkit import cli

fixtures, perfbench, tmp = map(Path, sys.argv[1:])
description, out = str(tmp / "description.txt"), str(tmp / "out.bpmn")
assert cli.main(["reconstruct", description, "-o", out, "--llm-mock-script",
                 str(fixtures / "mock_reconstruct_fixup.json")]) == 0
assert cli.main(["translate", str(fixtures / "unicode.bpmn"), "-o", out, "--llm-mock-script",
                 str(fixtures / "mock_translate_drift.json")]) == 0
assert cli.main(["reconstruct", description, "-o", out, "--llm-mock-script",
                 str(tmp / "stage2.json")]) == 1
sys.path.insert(0, str(perfbench))
import gen  # the benchmark's input generator

_, truth, reconstruction = gen.compare_pairs(1, "full")[0]
(tmp / "truth.bpmn").write_bytes(truth)
(tmp / "reconstruction.bpmn").write_bytes(reconstruction)
for a, b in [(fixtures / "chain3.bpmn", fixtures / "diamond.bpmn"),
             (tmp / "truth.bpmn", tmp / "reconstruction.bpmn")]:
    assert cli.main(["compare", str(a), str(b), "--embed-fallback"]) == 0
for name in ("scipy", "requests"):
    assert name not in sys.modules, f"{name} was loaded"
"""


def test_the_runtime_needs_neither_scipy_nor_jsonschema(tmp_path):
    """scipy and jsonschema are dev dependencies, the oracles of the tests,
    and requests is no dependency at all. In a fresh interpreter with
    jsonschema blocked, a mock reconstruct and translate run, and a stage-2
    reply that never validates fails naming the stage and the missing
    property; compare, on fixtures and on a 150-node benchmark pair, loads
    neither scipy nor requests."""
    (tmp_path / "description.txt").write_text("A clerk checks the order.", encoding="utf-8")
    replies = json.loads(fixture_path("mock_reconstruct_ok.json").read_text())
    (tmp_path / "stage2.json").write_text(json.dumps(replies[:1] + ['[{"decision": "d"}]'] * 4))
    env = dict(os.environ, PYTHONPATH=str(Path(bpmnkit.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", _RUNTIME_IMPORTS, str(FIXTURES),
         str(Path(__file__).resolve().parents[1] / "perfbench"), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ("error: decision_analysis: no schema-valid response after 4 "
                           "attempt(s): 'outcomes' is a required property\n")


_BLAS_THREADS = """
import os, sys
from bpmnkit import cli

assert cli.main(["validate", sys.argv[1]]) == 0
print(os.environ["OPENBLAS_NUM_THREADS"], os.environ["OMP_NUM_THREADS"])
"""


@pytest.mark.parametrize("preset, printed", [(None, "1 1"), ("3", "3 1")])
def test_the_cli_runs_blas_on_one_thread_unless_told_otherwise(preset, printed):
    env = {name: value for name, value in os.environ.items()
           if name not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(bpmnkit.__file__).parents[1])
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    done = subprocess.run([sys.executable, "-c", _BLAS_THREADS, str(fixture_path("chain3.bpmn"))],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == printed
