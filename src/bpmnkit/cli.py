"""Command-line interface.

Subcommands: validate, translate, correct, describe, reconstruct, compare,
batch, report. Settings resolve in precedence order: built-in defaults, then
the --config JSON file, then BPMNKIT_* environment variables, then flags.
Exit codes: 0 success, 1 operational failure, 2 usage error, 3 non-compliance.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from pathlib import Path

from . import batch as batch_mod
from . import pipeline
from .compliance import validate_bytes
from .embeddings import ProviderConfig, make_provider
from .llm import ENV_LLM_ENDPOINT, ENV_LLM_MODEL, HttpChatClient, LlmClientConfig, MockChatClient
from .model import build_graph
from .similarity import CompareOptions, compare
from .xmlio import parse, serialize

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_NONCOMPLIANT = 3

_ENV_KEYS = {
    "llm_endpoint": ENV_LLM_ENDPOINT,
    "llm_model": ENV_LLM_MODEL,
    "embed_endpoint": "BPMNKIT_EMBED_ENDPOINT",
    "embed_model": "BPMNKIT_EMBED_MODEL",
}

_DEFAULTS = {
    "llm_endpoint": None,
    "llm_model": None,
    "llm_mock_script": None,
    "llm_retry_count": 2,
    "embed_endpoint": None,
    "embed_model": None,
    "embed_fallback": False,
    "embed_cache_dir": None,
    "jobs": 1,
    "seed": None,
    "limit": 5,
    "simple_threshold": 10,
    "threshold": 0.8,
}


def _global_flags() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("global options")
    group.add_argument("--config", help="JSON config file mirroring these flags")
    group.add_argument("--llm-endpoint", dest="llm_endpoint")
    group.add_argument("--llm-model", dest="llm_model")
    group.add_argument("--llm-mock-script", dest="llm_mock_script",
                       help="JSON response script; enables the offline mock client")
    group.add_argument("--embed-endpoint", dest="embed_endpoint")
    group.add_argument("--embed-model", dest="embed_model")
    group.add_argument("--embed-fallback", action="store_true", default=None,
                       dest="embed_fallback",
                       help="use the deterministic offline embedder")
    group.add_argument("--seed", type=int, dest="seed")
    group.add_argument("--jobs", type=int, dest="jobs")
    return parent


def build_parser() -> argparse.ArgumentParser:
    parent = _global_flags()
    parser = argparse.ArgumentParser(prog="bpmnkit",
                                     description="BPMN 2.0 validation, repair, "
                                                 "reconstruction and comparison")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[parent],
                       help="run compliance checks; exit 3 when non-compliant")
    p.add_argument("file")

    p = sub.add_parser("translate", parents=[parent], help="translate labels to English")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--threshold", type=float)

    p = sub.add_parser("correct", parents=[parent], help="run the correction loop")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--limit", type=int)
    p.add_argument("--simple-threshold", type=int, dest="simple_threshold")

    p = sub.add_parser("describe", parents=[parent], help="generate a process description")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("reconstruct", parents=[parent],
                       help="rebuild a BPMN model from a description")
    p.add_argument("description")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--run-dir", dest="run_dir", help="directory for stage artifacts")
    p.add_argument("--limit", type=int)

    p = sub.add_parser("compare", parents=[parent], help="five-dimension similarity")
    p.add_argument("model_a")
    p.add_argument("model_b")
    p.add_argument("--no-context", action="store_true",
                   help="disable neighborhood context in name embeddings")

    p = sub.add_parser("batch", parents=[parent], help="run a pipeline stage over a corpus")
    p.add_argument("manifest")
    p.add_argument("--stage", required=True,
                   choices=("translate", "correct", "describe", "reconstruct", "evaluate"))
    p.add_argument("--out-dir", dest="out_dir")

    p = sub.add_parser("report", parents=[parent], help="aggregate evaluation results")
    p.add_argument("results_dir")
    p.add_argument("-o", "--output", required=True,
                   help="output path (.csv/.json), or literal 'csv'/'json' for stdout")
    p.add_argument("--format", choices=("csv", "json"))

    return parser


def resolve_config(args: argparse.Namespace) -> dict:
    settings = dict(_DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path:
        file_settings = json.loads(Path(config_path).read_text(encoding="utf-8"))
        for key, value in file_settings.items():
            if key in settings:
                settings[key] = value
    for key, env_name in _ENV_KEYS.items():
        if os.environ.get(env_name):
            settings[key] = os.environ[env_name]
    for key in settings:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    return settings


def _make_client(settings: dict):
    if settings["llm_mock_script"]:
        return MockChatClient.from_json(settings["llm_mock_script"])
    if settings["llm_endpoint"] and settings["llm_model"]:
        cfg = LlmClientConfig(endpoint=settings["llm_endpoint"], model=settings["llm_model"],
                              retry_count=int(settings["llm_retry_count"]))
        return HttpChatClient(cfg)
    raise RuntimeError("no LLM configured: set --llm-endpoint/--llm-model or "
                       "--llm-mock-script")


def _make_provider(settings: dict):
    if settings["embed_endpoint"] and not settings["embed_fallback"]:
        cfg = ProviderConfig(kind="remote-http", endpoint=settings["embed_endpoint"],
                             model_name=settings["embed_model"],
                             cache_dir=settings["embed_cache_dir"])
    else:
        cfg = ProviderConfig(kind="hashing-fallback",
                             cache_dir=settings["embed_cache_dir"])
    return make_provider(cfg)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings = resolve_config(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    if settings["seed"] is not None:
        random.seed(int(settings["seed"]))
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


def _cmd_translate(args, settings) -> int:
    doc = parse(Path(args.file).read_bytes())
    client = _make_client(settings)
    translated, warnings = pipeline.translate_model(
        doc, client, threshold=float(settings["threshold"]))
    Path(args.output).write_bytes(serialize(translated))
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return EXIT_OK


def _cmd_correct(args, settings) -> int:
    doc = parse(Path(args.file).read_bytes())
    client = _make_client(settings)
    state = pipeline.CorrectionState(limit=int(settings["limit"]),
                                     simple_threshold=int(settings["simple_threshold"]))
    result = pipeline.correct_model(doc, client, state)
    Path(args.output).write_bytes(serialize(result.document))
    print(result.report.to_json(indent=2))
    return EXIT_OK if result.report.compliant else EXIT_NONCOMPLIANT


def _cmd_describe(args, settings) -> int:
    doc = parse(Path(args.file).read_bytes())
    client = _make_client(settings)
    description = pipeline.generate_description(doc, client)
    Path(args.output).write_text(description, encoding="utf-8")
    return EXIT_OK


def _cmd_reconstruct(args, settings) -> int:
    description = Path(args.description).read_text(encoding="utf-8")
    client = _make_client(settings)
    try:
        doc, _artifacts = pipeline.reconstruct(
            description, client, run_dir=args.run_dir,
            correction_limit=int(settings["limit"]),
            simple_threshold=int(settings["simple_threshold"]))
    except pipeline.ReconstructionNonCompliant as exc:
        Path(args.output).write_bytes(serialize(exc.document))
        print(exc.report.to_json(indent=2))
        return EXIT_NONCOMPLIANT
    Path(args.output).write_bytes(serialize(doc))
    return EXIT_OK


def _cmd_compare(args, settings) -> int:
    provider = _make_provider(settings)
    g1, _ = build_graph(parse(Path(args.model_a).read_bytes()))
    g2, _ = build_graph(parse(Path(args.model_b).read_bytes()))
    options = CompareOptions(context_augmentation=not args.no_context)
    breakdown = compare(g1, g2, provider, options)
    print(json.dumps(breakdown.to_dict(), indent=2))
    return EXIT_OK


def _cmd_batch(args, settings) -> int:
    manifest_path = Path(args.manifest)
    manifest = batch_mod.CorpusManifest.load(manifest_path)
    base = manifest_path.parent
    out_dir = Path(args.out_dir) if args.out_dir else base

    def locate(rel: str) -> Path:
        p = Path(rel)
        return p if p.exists() else base / rel

    stage = args.stage
    if stage == "evaluate":
        provider = _make_provider(settings)
        pairs = [(locate(e.model_path), locate(e.reconstruction_path))
                 for e in manifest.entries
                 if e.status == "reconstructed" and e.reconstruction_path and not e.stale]
        if not pairs:
            print("nothing to evaluate", file=sys.stderr)
            return EXIT_OK
        report = batch_mod.batch_evaluate(pairs, provider, jobs=int(settings["jobs"]),
                                          results_dir=out_dir / "results")
        sys.stdout.buffer.write(batch_mod.render_report(report, "csv"))
        return EXIT_OK

    client = _make_client(settings)
    wanted = {"translate": "raw", "correct": "translated",
              "describe": "compliant", "reconstruct": "described"}[stage]
    stage_dir = out_dir / stage
    stage_dir.mkdir(parents=True, exist_ok=True)

    def advance(entry) -> None:
        model_path = locate(entry.model_path)
        stem = model_path.stem
        if stage == "translate":
            doc = parse(model_path.read_bytes())
            translated, _ = pipeline.translate_model(
                doc, client, threshold=float(settings["threshold"]))
            target = stage_dir / model_path.name
            target.write_bytes(serialize(translated))
            entry.model_path = str(target)
            entry.status = "translated"
        elif stage == "correct":
            doc = parse(model_path.read_bytes())
            state = pipeline.CorrectionState(limit=int(settings["limit"]),
                                             simple_threshold=int(settings["simple_threshold"]))
            result = pipeline.correct_model(doc, client, state)
            target = stage_dir / model_path.name
            target.write_bytes(serialize(result.document))
            entry.model_path = str(target)
            entry.last_report = result.report.to_dict()
            if result.report.compliant:
                entry.status = "compliant"
        elif stage == "describe":
            doc = parse(model_path.read_bytes())
            text = pipeline.generate_description(doc, client)
            target = stage_dir / f"{stem}.txt"
            target.write_text(text, encoding="utf-8")
            entry.description_path = str(target)
            entry.status = "described"
        elif stage == "reconstruct":
            description = locate(entry.description_path).read_text(encoding="utf-8")
            target = stage_dir / f"{stem}.bpmn"
            try:
                doc, _ = pipeline.reconstruct(
                    description, client,
                    correction_limit=int(settings["limit"]),
                    simple_threshold=int(settings["simple_threshold"]))
            except pipeline.ReconstructionNonCompliant as exc:
                entry.last_report = exc.report.to_dict()
                return
            target.write_bytes(serialize(doc))
            entry.reconstruction_path = str(target)
            entry.status = "reconstructed"

    failed = False
    for entry in manifest.entries:
        if entry.stale or entry.status != wanted:
            continue
        try:
            advance(entry)
            entry.error = None
        except (OSError, ValueError, RuntimeError) as exc:
            entry.error = f"{type(exc).__name__}: {exc}"
            print(f"error: {entry.model_path}: {entry.error}", file=sys.stderr)
            failed = True
        manifest.save(manifest_path)
    return EXIT_FAILURE if failed else EXIT_OK


def _cmd_report(args, settings) -> int:
    report = batch_mod.load_report(args.results_dir)
    fmt = args.format
    if fmt is None:
        if args.output in ("csv", "json"):
            fmt = args.output
        else:
            fmt = "json" if args.output.endswith(".json") else "csv"
    rendered = batch_mod.render_report(report, fmt)
    if args.output in ("csv", "json"):
        sys.stdout.buffer.write(rendered)
    else:
        Path(args.output).write_bytes(rendered)
    return EXIT_OK


_HANDLERS = {
    "validate": _cmd_validate,
    "translate": _cmd_translate,
    "correct": _cmd_correct,
    "describe": _cmd_describe,
    "reconstruct": _cmd_reconstruct,
    "compare": _cmd_compare,
    "batch": _cmd_batch,
    "report": _cmd_report,
}


if __name__ == "__main__":
    sys.exit(main())
