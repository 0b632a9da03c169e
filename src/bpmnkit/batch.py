"""Corpus manifest handling, batch pair evaluation, and report rendering.

A batch run compares (ground truth, reconstruction) file pairs with the full
similarity breakdown, aggregates per-dimension averages under two
normalizations (per successfully compared pair and per description), and bins
the overall scores into a 20-bucket histogram. Per-pair results persist as
individual JSON files so interrupted runs resume by skipping finished pairs.
"""

from __future__ import annotations

import csv
import io
import json
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .atomic import write_atomic
from .embeddings import EmbeddingProvider
from .model import build_graph
from .similarity import CompareOptions, compare
from .xmlio import parse

logger = logging.getLogger(__name__)

HISTOGRAM_BINS = 20

DIMENSIONS = ("structural", "type_distribution", "semantic_name",
              "semantic_type", "semantic_name_type", "overall")

DIMENSION_LABELS = {
    "structural": "Structural Similarity",
    "type_distribution": "Type Distribution Similarity",
    "semantic_name": "Name/Description Semantic Similarity",
    "semantic_type": "Type Semantic Similarity",
    "semantic_name_type": "Name-Type Semantic Similarity",
    "overall": "Overall Similarity",
}

MANIFEST_STATUSES = ("raw", "translated", "compliant", "described", "reconstructed")


@dataclass
class ManifestEntry:
    model_path: str
    status: str = "raw"
    description_path: str | None = None
    reconstruction_path: str | None = None
    last_report: dict | None = None
    stale: bool = False

    def to_dict(self) -> dict:
        data = {"model_path": self.model_path, "status": self.status}
        if self.description_path:
            data["description_path"] = self.description_path
        if self.reconstruction_path:
            data["reconstruction_path"] = self.reconstruction_path
        if self.last_report is not None:
            data["last_report"] = self.last_report
        return data


@dataclass
class CorpusManifest:
    entries: list[ManifestEntry] = field(default_factory=list)

    @classmethod
    def load(cls, path: str | Path) -> "CorpusManifest":
        path = Path(path)
        data = json.loads(path.read_text(encoding="utf-8"))
        manifest = cls([
            ManifestEntry(
                model_path=e["model_path"],
                status=e.get("status", "raw"),
                description_path=e.get("description_path"),
                reconstruction_path=e.get("reconstruction_path"),
                last_report=e.get("last_report"),
            )
            for e in data.get("entries", [])
        ])
        manifest.flag_stale(path.parent)
        return manifest

    def flag_stale(self, base_dir: Path) -> None:
        """Entries whose referenced files are missing on disk are flagged."""
        for entry in self.entries:
            paths = [entry.model_path, entry.description_path, entry.reconstruction_path]
            entry.stale = any(
                p is not None and not (base_dir / p).exists() and not Path(p).exists()
                for p in paths
            )
            if entry.stale:
                logger.warning("manifest entry %s has missing files; flagged stale",
                               entry.model_path)

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
        return {
            "per_model": self.per_model,
            "errors": self.errors,
            "averages": self.averages,
            "averages_per_description": self.averages_per_description,
            "histogram": self.histogram,
            "counts": self.counts,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EvaluationReport":
        return cls(
            per_model=data.get("per_model", []),
            errors=data.get("errors", []),
            averages=data.get("averages", {}),
            averages_per_description=data.get("averages_per_description", {}),
            histogram=data.get("histogram", []),
            counts=data.get("counts", {}),
        )


def _empty_histogram() -> list[dict]:
    return [
        {"bin_low": i / HISTOGRAM_BINS, "bin_high": (i + 1) / HISTOGRAM_BINS, "count": 0}
        for i in range(HISTOGRAM_BINS)
    ]


def build_report(records: list[dict], total_pairs: int) -> EvaluationReport:
    """Aggregate per-pair records (sorted by model_id so the result does not
    depend on completion order) into the full report."""
    ordered = sorted(records, key=lambda r: r.get("model_id", ""))
    per_model = [r for r in ordered if "breakdown" in r]
    errors = [r for r in ordered if "breakdown" not in r]

    histogram = _empty_histogram()
    averages: dict[str, float] = {}
    averages_per_description: dict[str, float] = {}
    if per_model:
        for dim in DIMENSIONS:
            total = sum(r["breakdown"][dim] for r in per_model)
            averages[dim] = total / len(per_model)
            averages_per_description[dim] = total / total_pairs if total_pairs else 0.0
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
        counts={"descriptions": total_pairs, "reconstructed": len(per_model)},
    )


def _evaluate_pair(model_id: str, truth_path: Path, recon_path: Path,
                   provider: EmbeddingProvider, options: CompareOptions | None) -> dict:
    try:
        g1, _ = build_graph(parse(truth_path.read_bytes()))
        g2, _ = build_graph(parse(recon_path.read_bytes()))
        breakdown = compare(g1, g2, provider, options)
        return {"model_id": model_id, "breakdown": breakdown.to_dict()}
    except Exception as exc:  # per-pair failures are recorded, not fatal
        return {"model_id": model_id, "error": f"{type(exc).__name__}: {exc}"}


def _read_record(path: Path) -> dict | None:
    """A stored per-pair result, or None when the file is missing, does not
    parse (an interrupted write, say) or has no ``model_id``: that pair is
    then not done."""
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    except (OSError, ValueError):
        logger.warning("ignoring unreadable result file %s", path)
        return None
    return record if isinstance(record, dict) and "model_id" in record else None


def _pair_ids(pairs: list[tuple[str | Path, str | Path]]) -> list[str]:
    ids = []
    seen: dict[str, int] = {}
    for truth, _ in pairs:
        stem = Path(truth).stem
        count = seen.get(stem, 0)
        seen[stem] = count + 1
        ids.append(stem if count == 0 else f"{stem}_{count}")
    return ids


def batch_evaluate(pairs: list[tuple[str | Path, str | Path]],
                   provider: EmbeddingProvider, jobs: int = 1,
                   options: CompareOptions | None = None,
                   results_dir: str | Path | None = None) -> EvaluationReport:
    """Compare all (ground truth, reconstruction) pairs, up to ``jobs`` at a
    time. With ``results_dir``, each pair result is written to
    ``<pair-id>.json`` and already-present results are reused (resume)."""
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    ids = _pair_ids(pairs)
    out_dir = Path(results_dir) if results_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    records: list[dict] = []
    todo: list[tuple[str, Path, Path]] = []
    for model_id, (truth, recon) in zip(ids, pairs):
        record = _read_record(out_dir / f"{model_id}.json") if out_dir is not None else None
        if record is not None:
            records.append(record)
        else:
            todo.append((model_id, Path(truth), Path(recon)))

    def work(item: tuple[str, Path, Path]) -> dict:
        model_id, truth_path, recon_path = item
        record = _evaluate_pair(model_id, truth_path, recon_path, provider, options)
        if out_dir is not None:
            write_atomic(out_dir / f"{model_id}.json",
                         (json.dumps(record, indent=2) + "\n").encode("utf-8"))
        return record

    if jobs == 1 or len(todo) <= 1:
        records.extend(work(item) for item in todo)
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            records.extend(pool.map(work, todo))

    report = build_report(records, total_pairs=len(pairs))
    if out_dir is not None:
        write_atomic(out_dir / "summary.json", render_report(report, "json"))
        write_atomic(out_dir / "summary.csv", render_report(report, "csv"))
    return report


def load_report(results_dir: str | Path) -> EvaluationReport:
    """Rebuild a report from the per-pair JSON files in a results directory."""
    out_dir = Path(results_dir)
    records = []
    for path in sorted(out_dir.glob("*.json")):
        if path.name.startswith("summary"):
            continue
        record = _read_record(path)
        if record is not None:
            records.append(record)
    return build_report(records, total_pairs=len(records))


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
