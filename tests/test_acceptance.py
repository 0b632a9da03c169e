"""Acceptance suite: the contract-level checks, grouped by criterion.

Each test prints a single `[acceptance] criterion N (...): PASS/FAIL` line
(visible with `pytest -s` or in captured output). Everything here runs fully
offline against the committed fixture corpus and the deterministic hashing
embedder; live-LLM and remote-embedding modes share these code paths but are
exercised out of CI.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from bpmnkit import cli
from bpmnkit.batch import batch_evaluate, render_report
from bpmnkit.compliance import validate
from bpmnkit.embeddings import HashingEmbedder
from bpmnkit.llm import MockChatClient
from bpmnkit.model import build_graph
from bpmnkit.pipeline import (
    correct_model,
    reconstruct,
    translate_model,
)
from bpmnkit.similarity import compare, js_divergence, max_weight_assignment
from bpmnkit.xmlio import BPMNDI_NS, parse, serialize, tree_equal

from conftest import FIXTURES, element_by_id, fixture_bytes, fixture_path, load_doc

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "perfbench"), str(REPO / "scripts")]
import gen  # noqa: E402  the benchmark's input generator
import similarity_oracle  # noqa: E402  the metric recomputed with scipy

EXPECTED = json.loads((FIXTURES / "expected_breakdowns.json").read_text())

DIMENSIONS = ("structural", "type_distribution", "semantic_name",
              "semantic_type", "semantic_name_type", "overall")


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({name}): PASS")


def test_criterion_1_self_similarity_exactness(embedder):
    with criterion(1, "self-similarity exactness"):
        fixtures = sorted(FIXTURES.glob("*.bpmn"))
        assert len(fixtures) >= 10
        started = time.perf_counter()
        for path in fixtures:
            graph, _ = build_graph(parse(path.read_bytes()))
            breakdown = compare(graph, graph, embedder)
            for dim, value in breakdown.to_dict().items():
                assert abs(value - 1.0) <= 1e-9, (path.name, dim, value)
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"self-similarity sweep took {elapsed:.2f}s"


def test_criterion_2_metric_formula_oracle(embedder):
    with criterion(2, "independent metric oracle"):
        pairs = EXPECTED["pairs"]
        assert len(pairs) == 10
        for key, expected in pairs.items():
            left, right = key.split("__")
            g1, _ = build_graph(parse(fixture_bytes(f"{left}.bpmn")))
            g2, _ = build_graph(parse(fixture_bytes(f"{right}.bpmn")))
            got = compare(g1, g2, embedder).to_dict()
            for dim in DIMENSIONS:
                assert abs(got[dim] - expected[dim]) <= 1e-9, (key, dim)


def _printed_compare(capsys, a: Path, b: Path) -> str:
    assert cli.main(["compare", str(a), str(b), "--embed-fallback"]) == 0, (a, b)
    return capsys.readouterr().out


def test_criterion_2_exact_at_benchmark_size(capsys, tmp_path):
    """The CLI's compare against the oracle on the benchmark's seed-1 inputs:
    the 3 large pairs, the 36 corpus pairs, and 18 cross pairs (truth k
    against a reconstruction of truth k + 1), unbalanced and dissimilar.
    The swapped compare of each pair prints the same JSON."""
    with criterion(2, "independent metric oracle at benchmark size"):
        corpus = gen.corpus(1, "full")
        pairs = [(truth, reco) for _, truth, reco in gen.compare_pairs(1, "full")]
        pairs += [(truth, reco) for _, truth, recos in corpus for reco in recos]
        pairs += [(truth, corpus[(k + 1) % len(corpus)][2][0])
                  for k, (_, truth, _) in enumerate(corpus)]
        assert len(pairs) == 57
        embedder = HashingEmbedder()  # the one --embed-fallback selects
        for k, (truth, reco) in enumerate(pairs):
            a, b = tmp_path / f"{k}-a.bpmn", tmp_path / f"{k}-b.bpmn"
            a.write_bytes(truth)
            b.write_bytes(reco)
            printed = _printed_compare(capsys, a, b)
            assert _printed_compare(capsys, b, a) == printed, k
            got = json.loads(printed)
            for dim, want in similarity_oracle.breakdown(a, b, embedder).items():
                assert abs(got[dim] - want) <= 1e-9, (k, dim)


def test_criterion_3_js_divergence_properties():
    with criterion(3, "JS divergence properties"):
        rng = random.Random(20240817)
        started = time.perf_counter()
        checked = 0
        for _ in range(1100):
            size = rng.randint(1, 5)
            counts_p = [rng.randint(0, 50) for _ in range(size)]
            counts_q = [rng.randint(0, 50) for _ in range(size)]
            if sum(counts_p) == 0:
                counts_p[0] = 1
            if sum(counts_q) == 0:
                counts_q[0] = 1
            p = [c / sum(counts_p) for c in counts_p]
            q = [c / sum(counts_q) for c in counts_q]
            forward = js_divergence(p, q)
            backward = js_divergence(q, p)
            assert abs(forward - backward) < 1e-12
            assert 0.0 <= forward <= 1.0
            if p == q:
                assert forward < 1e-12
            else:
                assert forward > 1e-12
            checked += 1
            # equality case must also be exercised
            assert js_divergence(p, p) < 1e-12
        elapsed = time.perf_counter() - started
        assert checked >= 1000
        assert elapsed < 10.0, f"JS property sweep took {elapsed:.2f}s"


def _exhaustive_best(matrix: np.ndarray) -> float:
    n, m = matrix.shape
    if n > m:
        return _exhaustive_best(matrix.T)
    return max(
        sum(matrix[i, j] for i, j in enumerate(perm))
        for perm in itertools.permutations(range(m), n)
    )


def test_criterion_4_assignment_oracle():
    with criterion(4, "optimal assignment vs exhaustive search"):
        rng = np.random.default_rng(20240817)
        for _ in range(220):
            rows = int(rng.integers(1, 7))
            cols = int(rng.integers(1, 7))
            matrix = rng.random((rows, cols))
            pairs = max_weight_assignment(matrix)
            score = sum(matrix[i, j] for i, j in pairs)
            assert abs(score - _exhaustive_best(matrix)) <= 1e-9


def test_criterion_5_validator_seeded_defects():
    with criterion(5, "seeded-defect validator suite"):
        expected = {
            "r1_missing_default.bpmn": ("R1_DEFAULT_FLOW", "gw_route"),
            "r2_missing_condition.bpmn": ("R2_CONDITION_EXPR", "flow_full"),
            "r3_data_order.bpmn": ("R3_DATA_REF_ORDER", "ref_report"),
            "r4_dead_end.bpmn": ("R4_CONNECTIVITY", "task_log"),
            "r5_duplicate_id.bpmn": ("R5_WELLFORMED", "data_shared"),
            "r6_empty_process.bpmn": ("R6_START_END", "proc_r6"),
        }
        for name, (code, element_id) in expected.items():
            report = validate(load_doc(name))
            errors = [(d.code.value, d.element_id) for d in report.diagnostics]
            assert errors == [(code, element_id)], name
        clean = validate(load_doc("diamond.bpmn"))
        assert clean.compliant and clean.diagnostics == []


def test_criterion_6_round_trip_and_translation_safety():
    with criterion(6, "round-trip and translation safety"):
        for path in sorted(FIXTURES.glob("*.bpmn")):
            doc = parse(path.read_bytes())
            assert tree_equal(doc.root, parse(serialize(doc)).root), path.name

        doc = load_doc("unicode.bpmn")
        mapping = {
            "Bestellung erhalten": "Order received",
            "Prüfen  ": "Check",  # whitespace-perturbed key, fuzzy-resolved at 0.8
            "Versand vorbereiten": "Prepare shipping",
            "Bestellung abgeschlossen": "Order completed",
            "Überprüfung der eingegangenen Bestellung": "Review of the incoming order",
        }
        client = MockChatClient([json.dumps(mapping, ensure_ascii=False)])
        translated, warnings = translate_model(doc, client, threshold=0.8)
        assert warnings == []
        assert element_by_id(translated, "task_check").get("name") == "Check"

        # byte-diff is scoped: restoring the configured locations restores the bytes
        reverted = translated.copy()
        originals = {
            "start_1": "Bestellung erhalten",
            "task_check": "Prüfen",
            "task_ship": "Versand vorbereiten",
            "end_1": "Bestellung abgeschlossen",
        }
        for element_id, name in originals.items():
            element_by_id(reverted, element_id).set("name", name)
        documentation = next(e for e in reverted.root.iter()
                             if e.tag.endswith("documentation"))
        documentation.text = "Überprüfung der eingegangenen Bestellung"
        assert serialize(reverted) == serialize(doc)


def test_criterion_7_mock_llm_end_to_end(tmp_path):
    with criterion(7, "mock-LLM end-to-end reconstruction"):
        description = "Orders are registered, checked against inventory, then confirmed."
        started = time.perf_counter()

        client = MockChatClient.from_json(fixture_path("mock_reconstruct_ok.json"))
        doc, report = reconstruct(description, client, run_dir=tmp_path)
        assert client.call_count == 6
        assert report.compliant and validate(doc).compliant
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            *(f"stage{k}.json" for k in range(1, 6)), "stage6.bpmn"]

        client = MockChatClient.from_json(fixture_path("mock_reconstruct_fixup.json"))
        doc, _ = reconstruct(description, client)
        assert client.call_count == 7  # one correction iteration
        assert validate(doc).compliant

        script = json.loads(fixture_path("mock_reconstruct_fixup.json").read_text())
        noop = script[:6] + [script[5]] * 3
        client = MockChatClient(noop)
        doc, report = reconstruct(description, client, correction_limit=3)
        assert not report.compliant
        assert report.to_dict() == validate(doc).to_dict()
        assert doc.root.find(f"{{{BPMNDI_NS}}}BPMNDiagram") is None
        assert client.call_count == 9

        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"mock end-to-end took {elapsed:.2f}s"


def _random_repair_script(rng: random.Random, doc, rounds: int) -> list[str]:
    ids = sorted(doc.element_ids())
    script = []
    for _ in range(rounds):
        roll = rng.random()
        if roll < 0.25:
            actions = [{"action": "delete", "target_id": rng.choice(ids)}]
        elif roll < 0.45:
            actions = [{"action": "delete", "target_id": "ghost_element"}]
        elif roll < 0.65:
            actions = [{"action": "modify", "target_id": rng.choice(ids),
                        "new_xml": "<<<not xml>>>"}]
        elif roll < 0.85:
            actions = []
        else:
            actions = [{"action": "augment", "target_id": rng.choice(ids),
                        "new_xml": f'<bpmn:textAnnotation id="note_{rng.randint(0, 9999)}"/>'}]
        script.append(json.dumps(actions))
    return script


def test_criterion_8_correction_loop_monotonicity():
    with criterion(8, "correction-loop monotonicity and history bound"):
        for seed in range(16):
            rng = random.Random(seed)
            name = rng.choice(["r1_missing_default.bpmn", "r2_missing_condition.bpmn",
                               "r4_dead_end.bpmn"])
            doc = load_doc(name)
            before_errors = validate(doc).error_count
            limit = rng.randint(1, 4)
            client = MockChatClient(_random_repair_script(rng, doc, limit))
            result = correct_model(doc, client, limit=limit, simple_threshold=0)
            assert result.report.error_count <= before_errors, (seed, name)
            for call in client.calls:
                prompt = call[1].content
                assert prompt.count("### Previous attempt") <= 2, (seed, name)


def test_criterion_9_batch_aggregates_match_oracle(embedder, tmp_path):
    # Corpus-scale result tables from live commercial models are out of desk
    # reach; the committed fixture corpus stands in, checked against the
    # independent oracle averages.
    with criterion(9, "batch evaluation reproduces oracle aggregates"):
        pairs = [
            (fixture_path(f"{left}.bpmn"), fixture_path(f"{right}.bpmn"))
            for left, right in (key.split("__") for key in EXPECTED["pairs"])
        ]
        report = batch_evaluate(pairs, embedder, jobs=1)
        for dim in DIMENSIONS:
            assert abs(report.averages[dim] - EXPECTED["averages"][dim]) <= 1e-9, dim

        assert sum(bucket["count"] for bucket in report.histogram) == len(pairs)
        assert len(report.histogram) == 20

        csv_text = render_report(report, "csv").decode()
        lines = csv_text.splitlines()
        assert lines[0] == "metric,average_score"
        assert lines[1].startswith("Structural Similarity,")
        assert any(line.startswith("Overall Similarity,") for line in lines)
        assert "bin_low,bin_high,count" in lines

        parallel = batch_evaluate(pairs, embedder, jobs=8)
        assert parallel.to_dict() == report.to_dict()

        resumed = batch_evaluate(pairs, embedder, jobs=1, results_dir=tmp_path)
        assert resumed.averages == report.averages
