"""Corpus manifest handling, batch pair evaluation, and report rendering.

A batch run compares (ground truth, reconstruction) file pairs with the full
similarity breakdown, aggregates per-dimension averages under two
normalizations (per successfully compared pair and per description), and bins
the overall scores into a 20-bucket histogram. Per-pair results persist as
individual JSON files so interrupted runs resume by skipping finished pairs.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable

from .atomic import write_atomic
from .model import BpmnGraph, build_graph
from .xmlio import parse

if TYPE_CHECKING:
    from .embeddings import EmbeddingProvider

logger = logging.getLogger(__name__)

HISTOGRAM_BINS = 20

STATUSES = ("raw", "translated", "compliant", "described", "reconstructed")  # in stage order

DIMENSION_LABELS = {
    "structural": "Structural Similarity",
    "type_distribution": "Type Distribution Similarity",
    "semantic_name": "Name/Description Semantic Similarity",
    "semantic_type": "Type Semantic Similarity",
    "semantic_name_type": "Name-Type Semantic Similarity",
    "overall": "Overall Similarity",
}

DIMENSIONS = tuple(DIMENSION_LABELS)

@dataclass
class ManifestEntry:
    model_path: str
    status: str = "raw"
    description_path: str | None = None
    reconstruction_path: str | None = None
    last_report: dict | None = None
    error: str | None = None
    name: str | None = None  # every stage output of the entry is named after it
    stale: bool = False

    def to_dict(self) -> dict:
        return {key: value for key, value in vars(self).items()
                if key != "stale" and value not in (None, "")}


_ENTRY_KEYS = tuple(f.name for f in fields(ManifestEntry) if f.name != "stale")


@dataclass
class CorpusManifest:
    """A corpus manifest. A relative path in it is relative to ``directory``,
    whatever the working directory: ``path`` reads one, ``relative`` writes one."""

    entries: list[ManifestEntry] = field(default_factory=list)
    directory: Path = Path()

    @classmethod
    def load(cls, path: str | Path) -> "CorpusManifest":
        """The manifest at ``path``: each unnamed entry named by ``_unique_stems``
        after the names held, and the entries with missing files flagged stale."""
        path = Path(path)
        data = json.loads(path.read_text(encoding="utf-8"))
        entries = data.get("entries", []) if isinstance(data, dict) else None
        if not isinstance(entries, list):
            raise ValueError(f"manifest {path}: expected an object with an entries list")
        held: dict[str, int] = {}
        for index, e in enumerate(entries):
            if not isinstance(e, dict) or not isinstance(e.get("model_path"), str):
                raise ValueError(f"manifest entry {index} has no model_path")
            for key in e:
                if key not in _ENTRY_KEYS:
                    raise ValueError(f"manifest entry {index}: unknown key {key!r}")
            for key in ("description_path", "reconstruction_path", "name"):
                if not isinstance(e.get(key), (str, type(None))):
                    raise ValueError(f"manifest entry {index}: {key} must be a string or null")
            if e.get("status", "raw") not in STATUSES:
                raise ValueError(f"manifest entry {index}: status must be one of "
                                 f"{', '.join(STATUSES)}, got {e['status']!r}")
            name = e.get("name")
            if name and Path(name).name != name:  # a/b, ../b, /b
                raise ValueError(f"manifest entry {index}: name {name!r} is not a file name")
            if name and held.setdefault(name, index) != index:
                raise ValueError(f"manifest entry {index}: duplicate name {name!r}")
        manifest = cls([ManifestEntry(**e) for e in entries], path.parent.resolve())
        unnamed = [entry for entry in manifest.entries if not entry.name]
        for entry, name in zip(unnamed, _unique_stems([e.model_path for e in unnamed], held)):
            entry.name = name
        for entry in manifest.entries:
            paths = [entry.model_path, entry.description_path, entry.reconstruction_path]
            entry.stale = any(p is not None and not manifest.path(p).exists() for p in paths)
            if entry.stale:
                logger.warning("manifest entry %s has missing files; flagged stale",
                               entry.model_path)
        return manifest

    def path(self, path: str) -> Path:
        return self.directory / path

    def relative(self, path: Path) -> str:
        return os.path.relpath(path.resolve(), self.directory)

    def save(self, path: str | Path) -> None:
        payload = {"entries": [entry.to_dict() for entry in self.entries]}
        write_atomic(path, (json.dumps(payload, indent=2) + "\n").encode("utf-8"))


@dataclass
class EvaluationReport:
    per_model: list[dict] = field(default_factory=list)
    errors: list[dict] = field(default_factory=list)
    averages: dict[str, float] = field(default_factory=dict)
    averages_per_description: dict[str, float] = field(default_factory=dict)
    histogram: list[dict] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _empty_histogram() -> list[dict]:
    return [
        {"bin_low": i / HISTOGRAM_BINS, "bin_high": (i + 1) / HISTOGRAM_BINS, "count": 0}
        for i in range(HISTOGRAM_BINS)
    ]


def build_report(records: list[dict], descriptions: int) -> EvaluationReport:
    """Aggregate per-pair records (sorted by model_id so the result does not
    depend on completion order) into the full report."""
    ordered = sorted(records, key=lambda r: r["model_id"])
    per_model = [r for r in ordered if "breakdown" in r]
    errors = [r for r in ordered if "breakdown" not in r]

    histogram = _empty_histogram()
    averages: dict[str, float] = {}
    averages_per_description: dict[str, float] = {}
    if per_model:
        for dim in DIMENSIONS:
            total = sum(r["breakdown"][dim] for r in per_model)
            averages[dim] = total / len(per_model)
            averages_per_description[dim] = total / descriptions if descriptions else 0.0
        for record in per_model:
            overall = record["breakdown"]["overall"]
            index = min(int(overall * HISTOGRAM_BINS), HISTOGRAM_BINS - 1)
            histogram[index]["count"] += 1

    return EvaluationReport(
        per_model=per_model,
        errors=errors,
        averages=averages,
        averages_per_description=averages_per_description,
        histogram=histogram,
        counts={"descriptions": descriptions, "reconstructed": len(per_model)},
    )


def _evaluate_pair(model_id: str, truth: Path, recon_path: Path,
                   build_truth: Callable[[], tuple[BpmnGraph, list[str]]],
                   vectors: EmbeddingProvider) -> dict:
    """The pair's breakdown, with its graph-build warnings when there are
    some, or its error; either way with the two paths compared. ``build_truth``
    and ``vectors`` are shared by the pairs of one truth."""
    from .similarity import compare  # numpy, for the stage that embeds

    record = {"model_id": model_id, "truth": str(truth), "reconstruction": str(recon_path)}
    try:
        g1, w1 = build_truth()
        g2, w2 = build_graph(parse(recon_path.read_bytes()))
        record["breakdown"] = compare(g1, g2, vectors).to_dict()
        if w1 or w2:
            record["warnings"] = [f"truth: {w}" for w in w1] + [f"reconstruction: {w}" for w in w2]
    except Exception as exc:  # per-pair failures are recorded, not fatal
        record["error"] = f"{type(exc).__name__}: {exc}"
    return record


def _read_record(path: Path) -> dict | None:
    """A stored per-pair result, or None when the file is missing or holds
    no result: it does not parse (an interrupted write, say), its
    ``model_id`` is not a string, or its ``breakdown`` lacks a number in
    [0, 1] for some dimension. That pair is then not done."""
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    except (OSError, ValueError):
        record = None
    if isinstance(record, dict) and isinstance(record.get("model_id"), str):
        if "breakdown" not in record:  # an error record
            return record
        scores = record["breakdown"]
        if isinstance(scores, dict) and all(type(scores.get(dim)) in (int, float)
                                            and 0 <= scores[dim] <= 1 for dim in DIMENSIONS):
            return record
    logger.warning("ignoring unreadable result file %s", path)
    return None


def _unique_stems(paths: list[str | Path], used: Iterable[str] = ()) -> list[str]:
    """Each path's file stem; the repeats of a stem, and a stem in ``used``,
    become ``<stem>_1``, ``<stem>_2``, ..., skipping names that are some
    path's own stem or in ``used``."""
    stems = [Path(p).stem for p in paths]
    taken, used = set(stems), set(used)
    names = []
    for stem in stems:
        name, n = stem, 0
        while name in used or (n and name in taken):
            n += 1
            name = f"{stem}_{n}"
        used.add(name)
        names.append(name)
    return names


def batch_evaluate(pairs: list[tuple[str | Path, str | Path]],
                   provider: EmbeddingProvider, jobs: int = 1,
                   results_dir: str | Path | None = None,
                   descriptions: int | None = None) -> EvaluationReport:
    """Compare all (ground truth, reconstruction) pairs. The pairs of one
    truth form one task, which parses, builds and embeds the truth once;
    up to ``jobs`` tasks run at a time, on threads, except with the hashing
    embedder, whose tasks run one after another on the calling thread. With
    ``results_dir``, each pair result is written to ``<pair-id>.json``, the
    pair id being the truth's stem made unique (``summary`` is the summary's),
    and a stored breakdown is reused (resume) when it names the same truth
    and reconstruction paths; a stored error is recomputed. The report
    counts ``descriptions`` descriptions, one per pair by default."""
    from .embeddings import HashingEmbedder, MemoEmbedder  # numpy, for the stage that embeds

    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    ids = _unique_stems([truth for truth, _ in pairs], used=("summary",))
    out_dir = Path(results_dir) if results_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    records: list[dict] = []
    tasks: dict[Path, list[tuple[str, Path]]] = {}
    for model_id, (truth, recon) in zip(ids, pairs):
        truth, recon = Path(truth), Path(recon)
        record = _read_record(out_dir / f"{model_id}.json") if out_dir is not None else None
        # a pair id can name another pair in an earlier run with other pairs;
        # a stored error is computed anew, as the cause may have passed
        if record is not None and "breakdown" in record and (
                record.get("truth"), record.get("reconstruction")) == (str(truth), str(recon)):
            records.append(record)
        else:
            tasks.setdefault(truth, []).append((model_id, recon))

    def work(task: tuple[Path, list[tuple[str, Path]]]) -> list[dict]:
        truth, todo = task
        # built by the first pair that asks; a failure is not kept: each pair meets it anew
        build_truth = functools.cache(lambda: build_graph(parse(truth.read_bytes())))
        vectors = MemoEmbedder(provider)
        done = []
        for model_id, recon_path in todo:
            record = _evaluate_pair(model_id, truth, recon_path, build_truth, vectors)
            if out_dir is not None:
                write_atomic(out_dir / f"{model_id}.json",
                             (json.dumps(record, indent=2) + "\n").encode("utf-8"))
            done.append(record)
        return done

    # hashing compares are CPU-bound under the GIL: threads would only take turns
    if jobs == 1 or len(tasks) <= 1 or isinstance(provider, HashingEmbedder):
        for done in map(work, tasks.items()):
            records.extend(done)
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            for done in pool.map(work, tasks.items()):
                records.extend(done)

    report = build_report(records, len(pairs) if descriptions is None else descriptions)
    if out_dir is not None:
        write_atomic(out_dir / "summary.json", render_report(report, "json"))
        write_atomic(out_dir / "summary.csv", render_report(report, "csv"))
    return report


def load_report(results_dir: str | Path) -> EvaluationReport:
    """Rebuild a report from the per-pair JSON files in a results directory,
    which must exist (NotADirectoryError otherwise)."""
    if not Path(results_dir).is_dir():
        raise NotADirectoryError(f"not a results directory: {results_dir}")
    paths = [p for p in sorted(Path(results_dir).glob("*.json")) if p.name != "summary.json"]
    records = [record for record in map(_read_record, paths) if record is not None]
    return build_report(records, len(records))


def render_report(report: EvaluationReport, fmt: str) -> bytes:
    """Serialize a report: ``json`` is the full structure; ``csv`` is one row
    per dimension (4 decimal places) plus a histogram section."""
    if fmt == "json":
        return (json.dumps(report.to_dict(), indent=2) + "\n").encode("utf-8")
    if fmt != "csv":
        raise ValueError(f"unknown report format {fmt!r}")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["metric", "average_score"])
    for dim in DIMENSIONS:
        if dim in report.averages:
            writer.writerow([DIMENSION_LABELS[dim], f"{report.averages[dim]:.4f}"])
    writer.writerow([])
    writer.writerow(["bin_low", "bin_high", "count"])
    bins = report.histogram or _empty_histogram()
    for bucket in bins:
        writer.writerow([f"{bucket['bin_low']:.4f}", f"{bucket['bin_high']:.4f}",
                         bucket["count"]])
    return out.getvalue().encode("utf-8")
