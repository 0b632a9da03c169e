from __future__ import annotations

import json

import pytest

from bpmnkit.batch import (
    CorpusManifest,
    EvaluationReport,
    ManifestEntry,
    batch_evaluate,
    build_report,
    load_report,
    render_report,
)

from conftest import fixture_path


def _pairs(*names):
    return [(fixture_path(a), fixture_path(b)) for a, b in names]


class TestBatchEvaluate:
    def test_identical_pairs_average_to_one(self, embedder):
        pairs = _pairs(("chain3.bpmn", "chain3.bpmn"), ("diamond.bpmn", "diamond.bpmn"))
        report = batch_evaluate(pairs, embedder)
        for value in report.averages.values():
            assert value == pytest.approx(1.0, abs=1e-9)
        top_bin = report.histogram[-1]
        assert top_bin["bin_low"] == pytest.approx(0.95)
        assert top_bin["count"] == 2
        assert report.counts == {"descriptions": 2, "reconstructed": 2}

    def test_unparseable_pair_excluded_from_averages(self, embedder, tmp_path):
        broken = tmp_path / "broken.bpmn"
        broken.write_bytes(b"<boom")
        pairs = [(fixture_path("chain3.bpmn"), fixture_path("chain3.bpmn")),
                 (broken, fixture_path("chain3.bpmn"))]
        report = batch_evaluate(pairs, embedder)
        assert len(report.per_model) == 1
        assert len(report.errors) == 1
        assert report.counts == {"descriptions": 2, "reconstructed": 1}
        assert report.averages["overall"] == pytest.approx(1.0, abs=1e-9)
        # the second normalization divides by all descriptions
        assert report.averages_per_description["overall"] == pytest.approx(0.5, abs=1e-9)

    def test_histogram_counts_sum_to_pair_count(self, embedder):
        pairs = _pairs(("chain3.bpmn", "chain4.bpmn"), ("diamond.bpmn", "parallel.bpmn"),
                       ("order-v1.bpmn", "order-v2.bpmn"))
        report = batch_evaluate(pairs, embedder)
        assert sum(b["count"] for b in report.histogram) == 3
        assert len(report.histogram) == 20

    def test_jobs_do_not_change_the_report(self, embedder):
        pairs = _pairs(
            ("chain3.bpmn", "chain4.bpmn"), ("diamond.bpmn", "parallel.bpmn"),
            ("order-v1.bpmn", "order-v2.bpmn"), ("boundary.bpmn", "chain4.bpmn"),
            ("loan-approval.bpmn", "order-v1.bpmn"), ("inclusive.bpmn", "diamond.bpmn"),
        )
        serial = batch_evaluate(pairs, embedder, jobs=1)
        parallel = batch_evaluate(pairs, embedder, jobs=8)
        assert serial.to_dict() == parallel.to_dict()

    def test_results_dir_resume_skips_existing(self, embedder, tmp_path):
        pairs = _pairs(("chain3.bpmn", "chain3.bpmn"))
        batch_evaluate(pairs, embedder, results_dir=tmp_path)
        marker = tmp_path / "chain3.json"
        assert marker.exists()
        poisoned = {"model_id": "chain3", "breakdown": {
            dim: 0.25 for dim in ("structural", "type_distribution", "semantic_name",
                                  "semantic_type", "semantic_name_type", "overall")}}
        marker.write_text(json.dumps(poisoned))
        report = batch_evaluate(pairs, embedder, results_dir=tmp_path)
        # the stored result was reused, not recomputed
        assert report.averages["overall"] == pytest.approx(0.25)

    @pytest.mark.parametrize("damage", ["truncated", "no_model_id"])
    def test_resume_recomputes_a_damaged_result(self, embedder, tmp_path, damage):
        pairs = _pairs(("chain3.bpmn", "chain4.bpmn"), ("diamond.bpmn", "parallel.bpmn"))
        first = batch_evaluate(pairs, embedder, results_dir=tmp_path)
        damaged = tmp_path / "diamond.json"
        intact = tmp_path / "chain3.json"
        whole = damaged.read_text()
        if damage == "truncated":
            damaged.write_text(whole[:len(whole) // 2])
        else:
            damaged.write_text(json.dumps({"breakdown": {}}))
        intact_mtime = intact.stat().st_mtime_ns
        resumed = batch_evaluate(pairs, embedder, results_dir=tmp_path)
        assert resumed.to_dict() == first.to_dict()
        assert damaged.read_text() == whole
        assert intact.stat().st_mtime_ns == intact_mtime
        assert json.loads((tmp_path / "summary.json").read_text()) == first.to_dict()

    def test_results_dir_holds_no_temporary_files(self, embedder, tmp_path):
        pairs = _pairs(("chain3.bpmn", "chain4.bpmn"), ("diamond.bpmn", "parallel.bpmn"))
        batch_evaluate(pairs, embedder, jobs=2, results_dir=tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "chain3.json", "diamond.json", "summary.csv", "summary.json"]

    def test_duplicate_stems_get_distinct_ids(self, embedder, tmp_path):
        pairs = _pairs(("chain3.bpmn", "chain3.bpmn"), ("chain3.bpmn", "chain4.bpmn"))
        report = batch_evaluate(pairs, embedder, results_dir=tmp_path)
        ids = [r["model_id"] for r in report.per_model]
        assert len(set(ids)) == 2

    def test_invalid_jobs_rejected(self, embedder):
        with pytest.raises(ValueError):
            batch_evaluate([], embedder, jobs=0)


class TestRenderReport:
    def test_csv_has_table_shape(self, embedder):
        report = batch_evaluate(_pairs(("chain3.bpmn", "chain3.bpmn")), embedder)
        text = render_report(report, "csv").decode()
        lines = text.splitlines()
        assert lines[0] == "metric,average_score"
        assert lines[1] == "Structural Similarity,1.0000"
        assert "Overall Similarity,1.0000" in lines
        assert "bin_low,bin_high,count" in lines
        assert lines[-1] == "0.9500,1.0000,1"

    def test_csv_dimension_rows_use_four_decimals(self):
        breakdown = {"structural": 0.805012, "type_distribution": 0.9, "semantic_name": 0.5,
                     "semantic_type": 0.5, "semantic_name_type": 0.5, "overall": 0.641}
        report = build_report([{"model_id": "m", "breakdown": breakdown}], 1)
        text = render_report(report, "csv").decode()
        assert "Structural Similarity,0.8050" in text

    def test_empty_report_is_header_plus_zero_histogram(self):
        report = build_report([], 0)
        text = render_report(report, "csv").decode()
        lines = text.splitlines()
        assert lines[0] == "metric,average_score"
        zero_bins = [line for line in lines if line.endswith(",0")]
        assert len(zero_bins) == 20

    def test_json_round_trip(self, embedder):
        report = batch_evaluate(_pairs(("chain3.bpmn", "chain4.bpmn")), embedder)
        data = json.loads(render_report(report, "json"))
        assert data == report.to_dict()
        assert EvaluationReport.from_dict(data).to_dict() == report.to_dict()

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render_report(build_report([], 0), "yaml")


class TestLoadReport:
    def test_rebuilds_from_result_files(self, embedder, tmp_path):
        pairs = _pairs(("chain3.bpmn", "chain4.bpmn"), ("diamond.bpmn", "diamond.bpmn"))
        direct = batch_evaluate(pairs, embedder, results_dir=tmp_path)
        loaded = load_report(tmp_path)
        assert loaded.averages == direct.averages
        assert loaded.histogram == direct.histogram


class TestManifest:
    def test_load_save_round_trip(self, tmp_path):
        manifest = CorpusManifest([
            ManifestEntry(model_path="chain3.bpmn", status="raw"),
            ManifestEntry(model_path="diamond.bpmn", status="reconstructed",
                          reconstruction_path="diamond_recon.bpmn"),
        ])
        path = tmp_path / "manifest.json"
        manifest.save(path)
        # files are absent from tmp_path, so both entries are stale on load
        loaded = CorpusManifest.load(path)
        assert [e.model_path for e in loaded.entries] == ["chain3.bpmn", "diamond.bpmn"]
        assert all(e.stale for e in loaded.entries)

    def test_entries_with_existing_files_not_stale(self, tmp_path, fixtures_dir):
        manifest = CorpusManifest([
            ManifestEntry(model_path=str(fixtures_dir / "chain3.bpmn"), status="raw"),
        ])
        path = tmp_path / "manifest.json"
        manifest.save(path)
        loaded = CorpusManifest.load(path)
        assert not loaded.entries[0].stale
