from __future__ import annotations

import json
import logging
import threading

import pytest

from bpmnkit import batch
from bpmnkit.batch import (
    CorpusManifest,
    ManifestEntry,
    batch_evaluate,
    build_report,
    load_report,
    render_report,
)
from bpmnkit.embeddings import HashingEmbedder
from bpmnkit.xmlio import parse

from conftest import fixture_path


def _pairs(*names):
    return [(fixture_path(a), fixture_path(b)) for a, b in names]


class _Delegating:
    """A provider that is not a ``HashingEmbedder`` and embeds with one, so
    ``batch_evaluate`` runs its tasks on threads, as for a remote provider."""

    def __init__(self):
        self.inner = HashingEmbedder()
        self.dimension = self.inner.dimension
        self.cache_key = self.inner.cache_key

    def embed_batch(self, texts):
        return self.inner.embed_batch(texts)


# the tasks run one after another with the first, on threads with the second
PROVIDERS = pytest.mark.parametrize("provider", [HashingEmbedder(), _Delegating()],
                                    ids=["hashing", "delegating"])


def _damaged(whole: str, damage: str) -> str:
    """A stored result file's text, damaged; all but the first two kinds
    still name the pair's own paths, so only a check of the record itself
    keeps resume from reusing it."""
    record = json.loads(whole)
    if damage == "truncated":
        return whole[:len(whole) // 2]
    if damage == "no_model_id":
        return json.dumps({"breakdown": {}})
    if damage == "model_id_not_a_string":
        record["model_id"] = 5
    elif damage == "missing_dimension":
        del record["breakdown"]["overall"]
    else:
        record["breakdown"] = None
    return json.dumps(record)


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

    @PROVIDERS
    def test_jobs_do_not_change_the_report(self, provider):
        pairs = _pairs(
            ("chain3.bpmn", "chain4.bpmn"), ("diamond.bpmn", "parallel.bpmn"),
            ("order-v1.bpmn", "order-v2.bpmn"), ("boundary.bpmn", "chain4.bpmn"),
            ("loan-approval.bpmn", "order-v1.bpmn"), ("inclusive.bpmn", "diamond.bpmn"),
        )
        serial = batch_evaluate(pairs, provider, jobs=1)
        parallel = batch_evaluate(pairs, provider, jobs=8)
        assert serial.to_dict() == parallel.to_dict()

    def test_results_dir_resume_skips_existing(self, embedder, tmp_path):
        pairs = _pairs(("chain3.bpmn", "chain3.bpmn"))
        batch_evaluate(pairs, embedder, results_dir=tmp_path)
        marker = tmp_path / "chain3.json"
        assert marker.exists()
        paths = {"truth": str(pairs[0][0]), "reconstruction": str(pairs[0][1])}
        poisoned = {"model_id": "chain3", **paths, "breakdown": {
            dim: 0.25 for dim in ("structural", "type_distribution", "semantic_name",
                                  "semantic_type", "semantic_name_type", "overall")}}
        marker.write_text(json.dumps(poisoned))
        report = batch_evaluate(pairs, embedder, results_dir=tmp_path)
        # the stored result was reused, not recomputed
        assert report.averages["overall"] == pytest.approx(0.25)

    def test_resume_recomputes_a_result_stored_for_other_paths(self, embedder, tmp_path):
        for folder, name in (("a", "chain3.bpmn"), ("b", "diamond.bpmn")):
            (tmp_path / folder).mkdir()
            (tmp_path / folder / "x.bpmn").write_bytes(fixture_path(name).read_bytes())
        a_pair = (tmp_path / "a" / "x.bpmn", fixture_path("chain4.bpmn"))
        b_pair = (tmp_path / "b" / "x.bpmn", fixture_path("parallel.bpmn"))
        results = tmp_path / "results"
        batch_evaluate([b_pair], embedder, results_dir=results)
        # with a/x first, its id "x" names the file b/x was stored under
        resumed = batch_evaluate([a_pair, b_pair], embedder, results_dir=results)
        fresh = batch_evaluate([a_pair, b_pair], embedder)
        assert resumed.to_dict() == fresh.to_dict()
        stored = json.loads((results / "x.json").read_text())
        assert (stored["truth"], stored["reconstruction"]) == tuple(map(str, a_pair))

    @pytest.mark.parametrize("damage", ["truncated", "no_model_id", "model_id_not_a_string",
                                        "missing_dimension", "null_breakdown"])
    def test_resume_recomputes_a_damaged_result(self, embedder, tmp_path, damage, caplog):
        pairs = _pairs(("chain3.bpmn", "chain4.bpmn"), ("diamond.bpmn", "parallel.bpmn"))
        first = batch_evaluate(pairs, embedder, results_dir=tmp_path)
        damaged = tmp_path / "diamond.json"
        intact = tmp_path / "chain3.json"
        whole = damaged.read_text()
        damaged.write_text(_damaged(whole, damage))
        intact_mtime = intact.stat().st_mtime_ns
        with caplog.at_level(logging.WARNING):
            resumed = batch_evaluate(pairs, embedder, results_dir=tmp_path)
        assert f"ignoring unreadable result file {damaged}" in caplog.text
        assert resumed.to_dict() == first.to_dict()
        assert damaged.read_text() == whole
        assert intact.stat().st_mtime_ns == intact_mtime
        assert json.loads((tmp_path / "summary.json").read_text()) == first.to_dict()

    def test_resume_recomputes_a_stored_error(self, tmp_path):
        class _Flaky(_Delegating):
            """Down for its first call, as a remote service can be."""
            calls = 0

            def embed_batch(self, texts):
                self.calls += 1
                if self.calls == 1:
                    raise ConnectionError("embedding service unavailable")
                return super().embed_batch(texts)

        pairs = _pairs(("chain3.bpmn", "chain4.bpmn"))
        provider = _Flaky()
        failed = batch_evaluate(pairs, provider, results_dir=tmp_path)
        assert failed.counts["reconstructed"] == 0
        assert "unavailable" in load_report(tmp_path).errors[0]["error"]
        resumed = batch_evaluate(pairs, provider, results_dir=tmp_path)
        assert resumed.counts["reconstructed"] == 1
        assert resumed.errors == []
        assert resumed.to_dict() == batch_evaluate(pairs, HashingEmbedder()).to_dict()
        assert load_report(tmp_path).errors == []

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

    def test_pair_ids_never_collide(self, embedder, tmp_path):
        truths = [tmp_path / "a" / "x.bpmn", tmp_path / "b" / "x.bpmn", tmp_path / "x_1.bpmn"]
        for truth in truths:
            truth.parent.mkdir(exist_ok=True)
            truth.write_bytes(fixture_path("chain3.bpmn").read_bytes())
        results = tmp_path / "results"
        report = batch_evaluate([(t, fixture_path("chain3.bpmn")) for t in truths],
                                embedder, results_dir=results)
        assert [r["model_id"] for r in report.per_model] == ["x", "x_1", "x_2"]
        assert sorted(p.name for p in results.glob("x*.json")) == [
            "x.json", "x_1.json", "x_2.json"]
        assert len(load_report(results).per_model) == 3

    def test_pair_ids_never_name_the_summary(self, embedder, tmp_path, caplog):
        truths = [tmp_path / "summary.bpmn", tmp_path / "summary_of_claims.bpmn"]
        for truth in truths:
            truth.write_bytes(fixture_path("chain3.bpmn").read_bytes())
        pairs = [(truth, fixture_path("chain4.bpmn")) for truth in truths]
        results = tmp_path / "results"
        report = batch_evaluate(pairs, embedder, results_dir=results)
        assert [r["model_id"] for r in report.per_model] == ["summary_1", "summary_of_claims"]
        assert load_report(results).per_model == report.per_model
        with caplog.at_level(logging.WARNING):
            assert batch_evaluate(pairs, embedder, results_dir=results) == report
        assert caplog.records == []

    def test_graph_warnings_are_recorded_with_the_pair(self, embedder, tmp_path):
        dangling = tmp_path / "dangling.bpmn"
        dangling.write_text(fixture_path("chain3.bpmn").read_text().replace(
            "</bpmn:process>", '<bpmn:sequenceFlow id="flow_x" sourceRef="task_1" '
                               'targetRef="nowhere"/></bpmn:process>'))
        results = tmp_path / "results"
        report = batch_evaluate([(fixture_path("chain3.bpmn"), dangling)], embedder,
                                results_dir=results)
        record = json.loads((results / "chain3.json").read_text())
        assert record["warnings"] == [
            "reconstruction: sequenceFlow 'flow_x' dropped: endpoint 'nowhere' not found"]
        assert report.per_model == [record]

    def test_clean_pair_result_has_no_warnings_key(self, embedder, tmp_path):
        batch_evaluate(_pairs(("chain3.bpmn", "diamond.bpmn")), embedder, results_dir=tmp_path)
        assert set(json.loads((tmp_path / "chain3.json").read_text())) == {
            "model_id", "truth", "reconstruction", "breakdown"}

    def test_invalid_jobs_rejected(self, embedder):
        with pytest.raises(ValueError):
            batch_evaluate([], embedder, jobs=0)


# chain3 and loan-approval are the truths of several pairs each
SHARED_TRUTHS = (("chain3.bpmn", "chain4.bpmn"), ("loan-approval.bpmn", "order-v1.bpmn"),
                 ("chain3.bpmn", "diamond.bpmn"), ("boundary.bpmn", "chain4.bpmn"),
                 ("chain3.bpmn", "parallel.bpmn"), ("loan-approval.bpmn", "order-v2.bpmn"))


@pytest.fixture
def parsed(monkeypatch):
    """The file name of every document ``batch`` parses, in call order."""
    names = {fixture_path(name).read_bytes(): name
             for pair in SHARED_TRUTHS for name in pair}
    calls = []

    def recording(data):
        calls.append(names.get(data, "?"))
        return parse(data)

    monkeypatch.setattr(batch, "parse", recording)
    return calls


class TestSharedTruths:
    @pytest.mark.parametrize("jobs,provider", [(1, HashingEmbedder()), (3, HashingEmbedder()),
                                               (3, _Delegating())],
                             ids=["1", "3", "3-delegating"])
    def test_each_truth_is_parsed_once(self, provider, parsed, jobs):
        batch_evaluate(_pairs(*SHARED_TRUTHS), provider, jobs=jobs)
        assert sorted(parsed) == sorted(["chain3.bpmn", "loan-approval.bpmn", "boundary.bpmn"]
                                        + [recon for _, recon in SHARED_TRUTHS])

    def test_the_pairs_of_one_truth_embed_each_text_once(self):
        texts = []

        class _RecordingEmbedder(HashingEmbedder):
            def embed_batch(self, batch_texts):
                texts.extend(batch_texts)
                return super().embed_batch(batch_texts)

        pairs = [pair for pair in SHARED_TRUTHS if pair[0] == "chain3.bpmn"]
        batch_evaluate(_pairs(*pairs), _RecordingEmbedder())
        assert len(texts) == len(set(texts))

    @PROVIDERS
    def test_jobs_do_not_change_the_report_or_the_results(self, provider, tmp_path):
        pairs = _pairs(*SHARED_TRUTHS)
        serial = batch_evaluate(pairs, provider, jobs=1, results_dir=tmp_path / "serial")
        parallel = batch_evaluate(pairs, provider, jobs=3, results_dir=tmp_path / "parallel")
        assert serial.to_dict() == parallel.to_dict()
        assert len(serial.per_model) == len(pairs)
        for name in ("summary.json", "chain3_1.json", "loan-approval_1.json"):
            assert ((tmp_path / "serial" / name).read_bytes()
                    == (tmp_path / "parallel" / name).read_bytes())

    def test_hashing_tasks_run_on_the_calling_thread(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker thread pool was started")

        threads = []
        evaluate_pair = batch._evaluate_pair

        def recording(*args):
            threads.append(threading.get_ident())
            return evaluate_pair(*args)

        monkeypatch.setattr(batch, "ThreadPoolExecutor", no_pool)
        monkeypatch.setattr(batch, "_evaluate_pair", recording)
        report = batch_evaluate(_pairs(*SHARED_TRUTHS), HashingEmbedder(), jobs=4)
        assert threads == [threading.get_ident()] * len(SHARED_TRUTHS)
        assert len(report.per_model) == len(SHARED_TRUTHS)

    def test_other_providers_run_tasks_at_once(self):
        class _Rendezvous(_Delegating):
            """The first embedding call on each thread waits until a second
            thread makes one too; alone, it fails after 10 s."""

            def __init__(self):
                super().__init__()
                self.barrier = threading.Barrier(2, timeout=10)
                self.local = threading.local()

            def embed_batch(self, texts):
                if not getattr(self.local, "met", False):
                    self.barrier.wait()
                    self.local.met = True
                return super().embed_batch(texts)

        pairs = _pairs(("chain3.bpmn", "chain4.bpmn"), ("diamond.bpmn", "parallel.bpmn"))
        report = batch_evaluate(pairs, _Rendezvous(), jobs=2)
        assert report.errors == []
        assert len(report.per_model) == 2

    def test_resume_with_one_pair_of_a_truth_done(self, embedder, parsed, tmp_path):
        pairs = _pairs(*SHARED_TRUTHS)
        first = batch_evaluate(pairs, embedder, results_dir=tmp_path)
        (tmp_path / "chain3_1.json").unlink()
        parsed.clear()
        resumed = batch_evaluate(pairs, embedder, results_dir=tmp_path)
        assert resumed.to_dict() == first.to_dict()
        assert parsed == ["chain3.bpmn", "diamond.bpmn"]

    @pytest.mark.parametrize("content", [None, b"<boom"])
    def test_unreadable_truth_fails_each_of_its_pairs_alike(self, embedder, tmp_path,
                                                            content):
        truth = tmp_path / "truth.bpmn"
        if content is not None:
            truth.write_bytes(content)
        with pytest.raises(Exception) as caught:  # what comparing pair by pair records
            parse(truth.read_bytes())
        error = f"{caught.type.__name__}: {caught.value}"
        pairs = [(truth, fixture_path("chain3.bpmn")), (truth, fixture_path("chain4.bpmn")),
                 (fixture_path("diamond.bpmn"), fixture_path("diamond.bpmn"))]
        report = batch_evaluate(pairs, embedder, jobs=2)
        assert report.errors == [
            {"model_id": "truth", "truth": str(truth), "reconstruction": str(pairs[0][1]),
             "error": error},
            {"model_id": "truth_1", "truth": str(truth), "reconstruction": str(pairs[1][1]),
             "error": error}]
        assert [r["model_id"] for r in report.per_model] == ["diamond"]

    def test_truth_warnings_reach_every_pair(self, embedder, tmp_path):
        truth = tmp_path / "dangling.bpmn"
        truth.write_text(fixture_path("chain3.bpmn").read_text().replace(
            "</bpmn:process>", '<bpmn:sequenceFlow id="flow_x" sourceRef="task_1" '
                               'targetRef="nowhere"/></bpmn:process>'))
        pairs = [(truth, fixture_path("chain3.bpmn")), (truth, fixture_path("chain4.bpmn"))]
        report = batch_evaluate(pairs, embedder, results_dir=tmp_path / "results")
        warning = "truth: sequenceFlow 'flow_x' dropped: endpoint 'nowhere' not found"
        assert [r["warnings"] for r in report.per_model] == [[warning], [warning]]


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
