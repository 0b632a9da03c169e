"""Command-line interface.

Subcommands: validate, translate, correct, describe, reconstruct, compare,
batch, report. Settings resolve in precedence order: built-in defaults, then
the --config JSON file, then BPMNKIT_* environment variables, then flags. A
command takes the flags of the settings it reads, and --config.
Exit codes: 0 success, 1 operational failure, 2 usage error, 3 non-compliance.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from . import pipeline
from .compliance import ComplianceReport, validate_bytes
from .llm import HttpChatClient, MockChatClient
from .model import build_graph
from .xmlio import parse, serialize

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_NONCOMPLIANT = 3

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bpmnkit",
                                     description="BPMN 2.0 validation, repair, "
                                                 "reconstruction and comparison")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="run compliance checks; exit 3 when non-compliant")
    p.add_argument("file")

    for name, text in (("translate", "translate labels to English"),
                       ("correct", "run the correction loop"),
                       ("describe", "generate a process description"),
                       ("reconstruct", "rebuild a BPMN model from a description")):
        p = sub.add_parser(name, help=text)
        p.add_argument("file", metavar="description" if name == "reconstruct" else None)
        p.add_argument("-o", "--output", required=True)
    sub.choices["reconstruct"].add_argument("--run-dir", dest="run_dir",
                                            help="directory for stage artifacts")

    p = sub.add_parser("compare", help="five-dimension similarity")
    p.add_argument("model_a")
    p.add_argument("model_b")
    p.add_argument("--no-context", action="store_true",
                   help="disable neighborhood context in name embeddings")

    p = sub.add_parser("batch", help="run a pipeline stage over a corpus")
    p.add_argument("manifest")
    p.add_argument("--stage", required=True, choices=(*_STAGES, "evaluate"))
    p.add_argument("--out-dir", dest="out_dir")

    p = sub.add_parser("report", help="aggregate evaluation results")
    p.add_argument("results_dir")
    p.add_argument("-o", "--output", required=True,
                   help="output path (.csv/.json), or literal 'csv'/'json' for stdout")

    for command, p in sub.choices.items():
        p.add_argument("--config", help="JSON config file mirroring these flags")
        for key, setting in _SETTINGS.items():
            if command not in setting.commands:
                continue
            flag = "--" + key.replace("_", "-")
            if setting.type is bool:
                p.add_argument(flag, action="store_true", default=None, help=setting.help)
            else:
                p.add_argument(flag, type=setting.type, help=setting.help)
    return parser


def resolve_config(args: argparse.Namespace) -> dict:
    settings = {key: setting.default for key, setting in _SETTINGS.items()}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            settings.update(_read_config(config_path))
        except (OSError, ValueError) as exc:
            raise ValueError(f"cannot read config: {exc}") from None
    for key, setting in _SETTINGS.items():
        if setting.env and os.environ.get(setting.env):
            settings[key] = os.environ[setting.env]
    for key in settings:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    if not 0.0 <= settings["threshold"] <= 1.0:  # also rejects nan
        raise ValueError(f"threshold must be a number in [0, 1], got {settings['threshold']}")
    if settings["jobs"] < 1:
        raise ValueError(f"jobs must be >= 1, got {settings['jobs']}")
    return settings


def _read_config(path: str) -> dict:
    file_settings = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(file_settings, dict):
        raise ValueError(f"{path}: expected a JSON object")
    settings = {}
    for key, value in file_settings.items():
        if key not in _SETTINGS:
            raise ValueError(f"{path}: unknown key {key!r}")
        try:
            settings[key] = _from_config(key, value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{path}: {key}: {exc}") from None
    return settings


def _from_config(key: str, value):
    """A config-file value, converted as its flag converts it: a JSON boolean
    is no number and 3.7 no integer, though `int` and `float` take them."""
    kind = _SETTINGS[key].type
    if kind in (int, float) and not isinstance(value, bool):
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ValueError(f"{value} is not an integer")
        return kind(value)
    if isinstance(value, bool if kind is bool else (str, type(None))):
        return value
    raise ValueError(f"unexpected value {json.dumps(value)}")


def _make_client(settings: dict):
    if settings["llm_mock_script"]:
        return MockChatClient.from_json(settings["llm_mock_script"])
    if settings["llm_endpoint"] and settings["llm_model"]:
        return HttpChatClient(settings["llm_endpoint"], settings["llm_model"],
                              settings["llm_retry_count"])
    raise RuntimeError("no LLM configured: set --llm-endpoint/--llm-model or "
                       "--llm-mock-script")


def _make_provider(settings: dict):
    from .embeddings import ProviderConfig, make_provider  # numpy, for the commands that embed

    return make_provider(ProviderConfig(
        endpoint=None if settings["embed_fallback"] else settings["embed_endpoint"],
        model_name=settings["embed_model"], cache_dir=settings["embed_cache_dir"]))


class _StderrHandler(logging.StreamHandler):
    """Writes to ``sys.stderr`` as it is when a record arrives, as ``print``
    does, so the package's warnings go where the CLI's own do."""

    def __init__(self):
        logging.Handler.__init__(self, logging.WARNING)
        self.setFormatter(logging.Formatter("warning: %(message)s"))

    @property
    def stream(self):
        return sys.stderr


_WARNINGS = _StderrHandler()


def main(argv: list[str] | None = None) -> int:
    # before numpy loads: BLAS's own threads double a compare's CPU time; a set value wins
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    logging.getLogger("bpmnkit").addHandler(_WARNINGS)  # a no-op once it is there
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings = resolve_config(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    handler = _HANDLERS[args.command]
    try:
        return handler(args, settings)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


def _cmd_validate(args, settings) -> int:
    report = validate_bytes(Path(args.file).read_bytes())
    print(report.to_json(indent=2))
    return EXIT_OK if report.compliant else EXIT_NONCOMPLIANT


def _cmd_compare(args, settings) -> int:
    from .similarity import compare

    provider = _make_provider(settings)
    graphs = []
    for path in (args.model_a, args.model_b):
        try:
            graph, warnings = build_graph(parse(Path(path).read_bytes()))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        for warning in warnings:
            print(f"warning: {path}: {warning}", file=sys.stderr)
        graphs.append(graph)
    breakdown = compare(*graphs, provider, context_augmentation=not args.no_context)
    print(json.dumps(breakdown.to_dict(), indent=2))
    return EXIT_OK


def _translate(path: Path, client, settings: dict):
    translated, warnings = pipeline.translate_model(
        parse(path.read_bytes()), client, threshold=settings["threshold"])
    for warning in warnings:
        print(f"warning: {path}: {warning}", file=sys.stderr)
    return serialize(translated), None


def _correct(path: Path, client, settings: dict):
    result = pipeline.correct_model(parse(path.read_bytes()), client, settings["limit"],
                                    settings["simple_threshold"])
    return serialize(result.document), result.report


def _describe(path: Path, client, settings: dict):
    return pipeline.generate_description(parse(path.read_bytes()), client).encode("utf-8"), None


def _reconstruct(path: Path, client, settings: dict):
    doc, report = pipeline.reconstruct(
        path.read_text(encoding="utf-8"), client, settings.get("run_dir"),
        settings["limit"], settings["simple_threshold"])
    return serialize(doc), None if report.compliant else report


class _Stage(NamedTuple):
    """An LLM stage as run by its single-file command and by `batch --stage`.
    ``run(input path, client, settings)`` gives the output bytes and the
    compliance report to print, or None when there is none: the stage does
    not validate, or its reconstructed model is compliant. The k-th
    stage runs a batch entry at status ``batch.STATUSES[k]`` on its ``reads``
    path; its ``writes`` field gets the output path, and its status becomes
    ``STATUSES[k + 1]`` unless the report is non-compliant."""

    run: Callable[[Path, object, dict], tuple[bytes, ComplianceReport | None]]
    reads: str
    writes: str
    suffix: str


_STAGES = {
    "translate": _Stage(_translate, "model_path", "model_path", ".bpmn"),
    "correct": _Stage(_correct, "model_path", "model_path", ".bpmn"),
    "describe": _Stage(_describe, "model_path", "description_path", ".txt"),
    "reconstruct": _Stage(_reconstruct, "description_path", "reconstruction_path", ".bpmn"),
}


class _Setting(NamedTuple):
    default: object
    type: type  # the flag's type and the config file's; bool: a switch
    commands: tuple[str, ...] = ()  # the commands whose flag sets it
    env: str | None = None  # the environment variable that sets it
    help: str | None = None


_SETTINGS = {
    "llm_endpoint": _Setting(None, str, (*_STAGES, "batch"), "BPMNKIT_LLM_ENDPOINT"),
    "llm_model": _Setting(None, str, (*_STAGES, "batch"), "BPMNKIT_LLM_MODEL"),
    "llm_mock_script": _Setting(None, str, (*_STAGES, "batch"),
                                help="JSON response script; enables the offline mock client"),
    "llm_retry_count": _Setting(2, int),
    "embed_endpoint": _Setting(None, str, ("compare", "batch"), "BPMNKIT_EMBED_ENDPOINT"),
    "embed_model": _Setting(None, str, ("compare", "batch"), "BPMNKIT_EMBED_MODEL"),
    "embed_fallback": _Setting(False, bool, ("compare", "batch"),
                               help="use the deterministic offline embedder"),
    "embed_cache_dir": _Setting(None, str),
    "jobs": _Setting(1, int, ("batch",)),
    "limit": _Setting(5, int, ("correct", "reconstruct", "batch")),
    "simple_threshold": _Setting(10, int, ("correct", "reconstruct", "batch")),
    "threshold": _Setting(0.8, float, ("translate", "batch")),
}


def _cmd_stage(args, settings) -> int:
    client = _make_client(settings)
    output, report = _STAGES[args.command].run(
        Path(args.file), client, dict(settings, run_dir=getattr(args, "run_dir", None)))
    Path(args.output).write_bytes(output)
    if report is None:
        return EXIT_OK
    print(report.to_json(indent=2))
    return EXIT_OK if report.compliant else EXIT_NONCOMPLIANT


def _cmd_batch(args, settings) -> int:
    from . import batch as batch_mod

    manifest = batch_mod.CorpusManifest.load(args.manifest)
    out_dir = Path(args.out_dir) if args.out_dir else manifest.directory

    if args.stage == "evaluate":
        provider = _make_provider(settings)
        pairs = [(manifest.path(e.model_path), manifest.path(e.reconstruction_path))
                 for e in manifest.entries
                 if e.status == "reconstructed" and e.reconstruction_path and not e.stale]
        if not pairs:
            print("nothing to evaluate", file=sys.stderr)
            return EXIT_OK
        descriptions = sum(e.status in ("described", "reconstructed") and not e.stale
                           for e in manifest.entries)
        report = batch_mod.batch_evaluate(pairs, provider, jobs=settings["jobs"],
                                          results_dir=out_dir / "results",
                                          descriptions=descriptions)
        sys.stdout.buffer.write(batch_mod.render_report(report, "csv"))
        return EXIT_OK

    stage = _STAGES[args.stage]
    index = list(_STAGES).index(args.stage)
    takes, gives = batch_mod.STATUSES[index:index + 2]
    client = _make_client(settings)
    stage_dir = out_dir / args.stage
    stage_dir.mkdir(parents=True, exist_ok=True)
    failed = False
    for entry in manifest.entries:
        if entry.stale or entry.status != takes:
            continue
        try:
            source = getattr(entry, stage.reads)
            if source is None:
                raise ValueError(f"entry has no {stage.reads}")
            output, report = stage.run(manifest.path(source), client, settings)
            target = stage_dir / f"{entry.name}{stage.suffix}"
            target.write_bytes(output)
            setattr(entry, stage.writes, manifest.relative(target))
            if report is not None:
                entry.last_report = report.to_dict()
            if report is None or report.compliant:
                entry.status = gives
            entry.error = None
        except (OSError, ValueError, RuntimeError) as exc:
            entry.error = f"{type(exc).__name__}: {exc}"
            print(f"error: {entry.model_path}: {entry.error}", file=sys.stderr)
            failed = True
        manifest.save(args.manifest)
    return EXIT_FAILURE if failed else EXIT_OK


def _cmd_report(args, settings) -> int:
    from . import batch as batch_mod

    report = batch_mod.load_report(args.results_dir)
    if args.output in ("csv", "json"):
        sys.stdout.buffer.write(batch_mod.render_report(report, args.output))
    else:
        fmt = "json" if args.output.endswith(".json") else "csv"
        Path(args.output).write_bytes(batch_mod.render_report(report, fmt))
    return EXIT_OK


_HANDLERS = {
    "validate": _cmd_validate,
    **dict.fromkeys(_STAGES, _cmd_stage),
    "compare": _cmd_compare,
    "batch": _cmd_batch,
    "report": _cmd_report,
}


if __name__ == "__main__":
    sys.exit(main())
