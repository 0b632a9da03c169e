from __future__ import annotations

import itertools
import math
import random
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bpmnkit import similarity
from bpmnkit.embeddings import HashingEmbedder
from bpmnkit.model import BpmnEdge, BpmnGraph, BpmnNode, ElementCategory, build_graph
from bpmnkit.similarity import (
    NegativeInput,
    compare,
    degree_similarity,
    js_divergence,
    max_weight_assignment,
    ratio_similarity,
    semantic_set_similarity,
    semantic_texts,
    structural_similarity,
    type_counts,
    type_distribution_similarity,
)
from bpmnkit.xmlio import parse

from conftest import ALL_FIXTURES, CLEAN_FIXTURES, fixture_bytes, load_doc, narrow_embedder

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402  the benchmark's input generator


def _graph(name):
    graph, _ = build_graph(load_doc(name))
    return graph


class TestRatioSimilarity:
    def test_plain_ratio(self):
        assert ratio_similarity(4, 5) == pytest.approx(0.8)

    @pytest.mark.parametrize("value", [0.0, 1.0, 3.5, 1e6])
    def test_identity(self, value):
        assert ratio_similarity(value, value) == 1.0

    def test_zero_conventions(self):
        assert ratio_similarity(0, 0) == 1.0
        assert ratio_similarity(0, 7) == 0.0
        assert ratio_similarity(7, 0) == 0.0

    def test_negative_input_rejected(self):
        with pytest.raises(NegativeInput):
            ratio_similarity(-1, 2)

    @given(st.floats(min_value=0, max_value=1e9),
           st.floats(min_value=0, max_value=1e9))
    def test_symmetric_and_bounded(self, a, b):
        score = ratio_similarity(a, b)
        assert 0.0 <= score <= 1.0
        assert score == ratio_similarity(b, a)

    @given(st.floats(min_value=1e-6, max_value=1e6),
           st.floats(min_value=1e-6, max_value=1e6),
           st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_invariance(self, a, b, k):
        assert ratio_similarity(k * a, k * b) == pytest.approx(
            ratio_similarity(a, b), abs=1e-9)


class TestDegreeSimilarity:
    def test_perfect_positive_correlation(self):
        assert degree_similarity([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_descending_sort_normalizes(self):
        assert degree_similarity([3, 2, 1], [1, 2, 3]) == pytest.approx(1.0)

    def test_padding_breaks_false_constants(self):
        # [2,2,2] vs [2,2] pads to [2,2,0]: one constant, one not -> 0.0
        assert degree_similarity([2, 2, 2], [2, 2]) == 0.0

    def test_both_empty(self):
        assert degree_similarity([], []) == 1.0

    def test_equal_constants(self):
        assert degree_similarity([2, 2], [2, 2]) == 1.0

    def test_unequal_constants_fall_back_to_ratio(self):
        assert degree_similarity([2, 2], [4, 4]) == pytest.approx(0.5)

    @given(st.lists(st.integers(0, 8), max_size=10),
           st.lists(st.integers(0, 8), max_size=10))
    def test_bounded_and_symmetric(self, d1, d2):
        score = degree_similarity(d1, d2)
        assert 0.0 <= score <= 1.0
        assert degree_similarity(d2, d1) == score


class TestStructuralSimilarity:
    def test_self_similarity(self):
        graph = _graph("diamond.bpmn")
        assert structural_similarity(graph, graph) == pytest.approx(1.0, abs=1e-9)

    def test_chain3_vs_chain4_by_hand(self):
        def chain(n):
            nodes = [BpmnNode(f"n{i}", "task", "", ElementCategory.TASK) for i in range(n)]
            edges = [BpmnEdge(f"e{i}", f"n{i}", f"n{i+1}", "sequenceFlow")
                     for i in range(n - 1)]
            return BpmnGraph(nodes, edges)

        g3, g4 = chain(3), chain(4)
        rho = np.corrcoef([2.0, 1.0, 1.0, 0.0], [2.0, 2.0, 1.0, 1.0])[0, 1]
        expected = (3 / 4 + 2 / 3 + (0.25 / (1 / 3)) + ((4 / 3) / 1.5) + abs(rho)) / 5
        assert structural_similarity(g3, g4) == pytest.approx(expected, abs=1e-12)

    def test_empty_vs_empty(self):
        empty = BpmnGraph([], [])
        assert structural_similarity(empty, empty) == 1.0


class TestJsDivergence:
    def test_identical_distributions(self):
        assert js_divergence([0.25, 0.75], [0.25, 0.75]) == 0.0

    def test_disjoint_support_hits_one(self):
        assert js_divergence([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)

    def test_half_overlap_by_hand(self):
        # P={a:.5,b:.5}, Q={a:1}: JS = .5*(.5*log2(2/3)+.5*log2(2)) + .5*log2(4/3)
        expected = 0.5 * (0.5 * math.log2(0.5 / 0.75) + 0.5 * math.log2(0.5 / 0.25)) \
            + 0.5 * (1.0 * math.log2(1.0 / 0.75))
        assert js_divergence([0.5, 0.5], [1.0, 0.0]) == pytest.approx(expected, abs=1e-12)
        assert 1.0 - expected == pytest.approx(0.6887, abs=1e-4)


class TestTypeDistribution:
    def test_identical_graphs(self):
        graph = _graph("loan-approval.bpmn")
        assert type_distribution_similarity(graph, graph) == 1.0

    def test_disjoint_categories_score_zero(self):
        tasks = BpmnGraph([BpmnNode("t", "task", "", ElementCategory.TASK)], [])
        events = BpmnGraph([BpmnNode("e", "startEvent", "", ElementCategory.EVENT)], [])
        assert type_distribution_similarity(tasks, events) == pytest.approx(0.0)

    def test_partial_overlap_matches_hand_computation(self):
        both = BpmnGraph([
            BpmnNode("t", "task", "", ElementCategory.TASK),
            BpmnNode("e", "startEvent", "", ElementCategory.EVENT),
        ], [])
        tasks = BpmnGraph([BpmnNode("t", "task", "", ElementCategory.TASK)], [])
        score = type_distribution_similarity(both, tasks)
        assert score == pytest.approx(0.6887218755408672, abs=1e-9)

    def test_empty_conventions(self):
        empty = BpmnGraph([], [])
        tasks = BpmnGraph([BpmnNode("t", "task", "", ElementCategory.TASK)], [])
        assert type_distribution_similarity(empty, empty) == 1.0
        assert type_distribution_similarity(empty, tasks) == 0.0

    def test_flow_category_counted_from_edges(self):
        graph = _graph("chain3.bpmn")
        counts = type_counts(graph)
        assert counts["flow"] == 2
        assert counts["task"] == 1
        assert counts["event"] == 2


@st.composite
def count_vectors(draw):
    size = draw(st.integers(min_value=1, max_value=5))
    counts = draw(st.lists(st.integers(0, 50), min_size=size, max_size=size))
    total = sum(counts)
    if total == 0:
        counts[0] = 1
        total = 1
    return [c / total for c in counts]


@given(count_vectors(), count_vectors())
@settings(max_examples=300)
def test_js_properties(p, q):
    if len(p) != len(q):
        size = max(len(p), len(q))
        p = p + [0.0] * (size - len(p))
        q = q + [0.0] * (size - len(q))
    forward = js_divergence(p, q)
    backward = js_divergence(q, p)
    assert forward == backward
    assert 0.0 <= forward <= 1.0
    if p == q:
        assert forward < 1e-12


def _brute_force_best(matrix: np.ndarray) -> float:
    n, m = matrix.shape
    if n > m:
        return _brute_force_best(matrix.T)
    if n == 0:
        return 0.0
    return max(
        sum(matrix[i, j] for i, j in enumerate(perm))
        for perm in itertools.permutations(range(m), n)
    )


class TestAssignment:
    def test_matches_exhaustive_search_on_random_matrices(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            shape = rng.integers(1, 6, size=2)
            matrix = rng.random(shape)
            pairs = max_weight_assignment(matrix)
            score = sum(matrix[i, j] for i, j in pairs)
            assert score == pytest.approx(_brute_force_best(matrix), abs=1e-9)

    def test_rectangular_matches_both_orientations(self):
        rng = np.random.default_rng(11)
        matrix = rng.random((2, 5))
        forward = sum(matrix[i, j] for i, j in max_weight_assignment(matrix))
        backward = sum(matrix.T[i, j] for i, j in max_weight_assignment(matrix.T))
        assert forward == pytest.approx(backward, abs=1e-12)

    def test_empty_matrix(self):
        assert max_weight_assignment(np.zeros((0, 3))) == []

    def test_assignment_is_one_to_one(self):
        rng = np.random.default_rng(3)
        matrix = rng.random((4, 6))
        pairs = max_weight_assignment(matrix)
        rows = [i for i, _ in pairs]
        cols = [j for _, j in pairs]
        assert len(set(rows)) == len(rows) == 4
        assert len(set(cols)) == len(cols)


class _StubProvider:
    """Maps known texts to fixed orthogonal unit vectors."""

    dimension = 4
    cache_key = "stub"

    def __init__(self, table):
        self.table = table

    def embed_batch(self, texts):
        return np.stack([np.asarray(self.table[t], dtype=float) for t in texts])


class TestSemanticSetSimilarity:
    provider = _StubProvider({
        "a": [1, 0, 0, 0],
        "b": [0, 1, 0, 0],
        "x": [0, 0, 1, 0],
        "y": [0, 0, 0, 1],
    })

    def test_identical_lists(self, embedder):
        texts = ["approve order", "check stock"]
        assert semantic_set_similarity(texts, texts, embedder) == pytest.approx(1.0)

    def test_size_mismatch_divides_by_larger(self):
        assert semantic_set_similarity(["a"], ["a", "b"], self.provider) == pytest.approx(0.5)

    def test_orthogonal_lists_score_zero(self):
        assert semantic_set_similarity(["x"], ["y"], self.provider) == 0.0

    def test_empty_conventions(self, embedder):
        assert semantic_set_similarity([], [], embedder) == 1.0
        assert semantic_set_similarity([], ["a"], self.provider) == 0.0

    def test_negative_cosines_clamped(self):
        provider = _StubProvider({"p": [1, 0, 0, 0], "n": [-1, 0, 0, 0]})
        assert semantic_set_similarity(["p"], ["n"], provider) == 0.0


class TestCompare:
    def test_self_similarity_is_one_everywhere(self, embedder):
        graph = _graph("loan-approval.bpmn")
        breakdown = compare(graph, graph, embedder)
        for value in breakdown.to_dict().values():
            assert value == pytest.approx(1.0, abs=1e-9)

    def test_synonym_labels_only_move_name_dimensions(self, embedder):
        doc = load_doc("chain4.bpmn")
        renamed = load_doc("chain4.bpmn")
        for elem in renamed.root.iter():
            if elem.get("name"):
                elem.set("name", elem.get("name") + " differently phrased")
        g1, _ = build_graph(doc)
        g2, _ = build_graph(renamed)
        breakdown = compare(g1, g2, embedder)
        assert breakdown.structural == pytest.approx(1.0, abs=1e-9)
        assert breakdown.type_distribution == pytest.approx(1.0, abs=1e-9)
        assert breakdown.semantic_type == pytest.approx(1.0, abs=1e-9)
        assert breakdown.semantic_name < 1.0

    @pytest.mark.parametrize("left,right", itertools.combinations(ALL_FIXTURES, 2))
    def test_symmetry(self, embedder, left, right):
        """Swapping the models gives the same bits in every dimension."""
        g1 = _graph(left)
        g2 = _graph(right)
        for context in (True, False):
            assert compare(g1, g2, embedder, context) == compare(g2, g1, embedder, context)

    @pytest.mark.parametrize("left,right", [
        ("chain3.bpmn", "loan-approval.bpmn"),
        ("boundary.bpmn", "inclusive.bpmn"),
    ])
    def test_bounded(self, embedder, left, right):
        breakdown = compare(_graph(left), _graph(right), embedder)
        for value in breakdown.to_dict().values():
            assert 0.0 <= value <= 1.0

    def test_overall_is_mean_of_dimensions(self, embedder):
        breakdown = compare(_graph("chain3.bpmn"), _graph("diamond.bpmn"), embedder)
        dims = [breakdown.structural, breakdown.type_distribution,
                breakdown.semantic_name, breakdown.semantic_type,
                breakdown.semantic_name_type]
        assert breakdown.overall == pytest.approx(sum(dims) / 5, abs=1e-12)

    def test_context_toggle_changes_name_dimension(self, embedder):
        g1 = _graph("order-v1.bpmn")
        g2 = _graph("order-v2.bpmn")
        augmented = compare(g1, g2, embedder)
        plain = compare(g1, g2, embedder, context_augmentation=False)
        assert augmented.semantic_name != plain.semantic_name
        assert augmented.structural == plain.structural

    def test_breakdown_serializes_with_exact_keys(self, embedder):
        breakdown = compare(_graph("chain3.bpmn"), _graph("chain4.bpmn"), embedder)
        data = breakdown.to_dict()
        assert list(data) == ["structural", "type_distribution", "semantic_name",
                              "semantic_type", "semantic_name_type", "overall"]


@pytest.mark.parametrize("name", CLEAN_FIXTURES)
def test_every_clean_fixture_self_compares_to_one(name, embedder):
    graph = _graph(name)
    breakdown = compare(graph, graph, embedder)
    assert breakdown.overall == pytest.approx(1.0, abs=1e-9)


def _tied_matrix(rng, n, m, rows, cols, decimals=1):
    """An n x m matrix with at most `rows` distinct rows and `cols` distinct
    columns, rounded so equal scores tie exactly."""
    base = np.round(rng.random((rows, cols)), decimals)
    return base[rng.integers(0, rows, n)][:, rng.integers(0, cols, m)]


def _assignment_value(matrix, pairs):
    return sum(matrix[i, j] for i, j in pairs)


def _check_pairs(matrix, pairs):
    n, m = matrix.shape
    rows = [i for i, _ in pairs]
    cols = [j for _, j in pairs]
    assert len(pairs) == min(n, m)
    assert len(set(rows)) == len(rows) and len(set(cols)) == len(cols)
    assert all(0 <= i < n for i in rows) and all(0 <= j < m for j in cols)


class TestTiedAssignment:
    @staticmethod
    def _matrices():
        rng = np.random.default_rng(2024)
        for _ in range(300):
            n, m = (int(x) for x in rng.integers(1, 30, size=2))
            rows, cols = (int(x) for x in rng.integers(1, 5, size=2))
            matrix = _tied_matrix(rng, n, m, rows, cols, int(rng.integers(1, 3)))
            yield matrix
            yield matrix.T
        for n, m in [(1, 7), (7, 1), (1, 1), (5, 5), (4, 9), (9, 4)]:
            yield np.full((n, m), 0.5)
            yield np.zeros((n, m))
            yield _tied_matrix(rng, n, m, 2, 2)

    def test_agrees_with_scipy_on_duplicate_heavy_matrices(self):
        optimize = pytest.importorskip("scipy.optimize")
        for matrix in self._matrices():
            pairs = max_weight_assignment(matrix)
            _check_pairs(matrix, pairs)
            rows, cols = optimize.linear_sum_assignment(matrix, maximize=True)
            assert _assignment_value(matrix, pairs) == pytest.approx(
                matrix[rows, cols].sum(), abs=1e-9)

    def test_agrees_with_exhaustive_search_up_to_six(self):
        rng = np.random.default_rng(5)
        for _ in range(150):
            n, m = (int(x) for x in rng.integers(1, 7, size=2))
            if rng.random() < 0.5:
                matrix = _tied_matrix(rng, n, m, int(rng.integers(1, 4)),
                                      int(rng.integers(1, 4)))
            else:
                matrix = rng.random((n, m))
            pairs = max_weight_assignment(matrix)
            _check_pairs(matrix, pairs)
            assert _assignment_value(matrix, pairs) == pytest.approx(
                _brute_force_best(matrix), abs=1e-9)

    def test_large_tie_heavy_matrix_is_fast(self):
        # 1003 x 1003 with 6 distinct rows and columns, the shape of the type
        # texts of a 500-task model. Rows that tie fill the spare columns as
        # cheap in the start, so most need no path search of their own.
        rng = np.random.default_rng(9)
        matrix = _tied_matrix(rng, 1003, 1003, 6, 6, decimals=3)
        start = time.perf_counter()
        pairs = max_weight_assignment(matrix)
        elapsed = time.perf_counter() - start
        _check_pairs(matrix, pairs)
        assert elapsed < 2.0
        # semantic_set_similarity passes such texts as 6 x 6 scores with counts
        matrix = np.round(rng.random((6, 6)), 3)
        row_counts, col_counts = (np.bincount(rng.integers(0, 6, 1003), minlength=6).tolist()
                                  for _ in range(2))
        start = time.perf_counter()
        pairs = max_weight_assignment(matrix, row_counts=row_counts, col_counts=col_counts)
        elapsed = time.perf_counter() - start
        assert len(pairs) == 1003
        assert elapsed < 2.0
        optimize = pytest.importorskip("scipy.optimize")
        expanded = np.repeat(np.repeat(matrix, row_counts, axis=0), col_counts, axis=1)
        rows, cols = optimize.linear_sum_assignment(expanded, maximize=True)
        assert _assignment_value(matrix, pairs) == pytest.approx(
            expanded[rows, cols].sum(), abs=1e-9)


class _RecordingProvider:
    dimension = 4
    cache_key = "recording"

    def __init__(self):
        self.inner = narrow_embedder(self.dimension)
        self.calls = []

    def embed_batch(self, texts):
        self.calls.append(list(texts))
        return self.inner.embed_batch(texts)


def test_semantic_set_similarity_embeds_each_distinct_text_once():
    texts1 = ["task", "task", "startEvent", "sequenceFlow", "task", "sequenceFlow"]
    texts2 = ["task", "endEvent", "task", "sequenceFlow"]
    provider = _RecordingProvider()
    score = semantic_set_similarity(texts1, texts2, provider)
    assert provider.calls == [["sequenceFlow", "startEvent", "task"],
                              ["endEvent", "sequenceFlow", "task"]]
    vecs1 = provider.inner.embed_batch(texts1)
    vecs2 = provider.inner.embed_batch(texts2)
    scores = np.clip(vecs1 @ vecs2.T, 0.0, 1.0)
    expected = _assignment_value(scores, max_weight_assignment(scores)) / len(texts1)
    assert score == expected


def _shuffled_graph(data: bytes, rng: random.Random):
    doc = parse(data)
    for element in list(doc.root.iter()):
        children = list(element)
        rng.shuffle(children)
        element[:] = children
    return build_graph(doc)[0]


def test_sibling_order_does_not_change_a_score(embedder):
    """Every ordered pair of fixtures and the seed-1 benchmark pairs score
    bitwise the same with the children of every element shuffled. With a
    repeated id the first owner of the id changes on purpose, so
    r5_duplicate_id.bpmn is left out."""
    sources = [fixture_bytes(name) for name in ALL_FIXTURES if name != "r5_duplicate_id.bpmn"]
    pairs = [(a, b) for a in sources for b in sources]
    pairs += [(truth, reco) for _, truth, recos in gen.corpus(1, "full") for reco in recos]
    pairs += [(truth, reco) for _, truth, reco in gen.compare_pairs(1, "full")]
    rng = random.Random(5)
    moved = []
    for index, (a, b) in enumerate(pairs):
        expected = compare(build_graph(parse(a))[0], build_graph(parse(b))[0], embedder)
        for _ in range(3):
            if compare(_shuffled_graph(a, rng), _shuffled_graph(b, rng), embedder) != expected:
                moved.append(index)
    assert moved == []


PAIRS = [("chain3.bpmn", "chain4.bpmn"), ("loan-approval.bpmn", "order-v1.bpmn"),
         ("unicode.bpmn", "unicode.bpmn"), ("boundary.bpmn", "inclusive.bpmn")]


@pytest.mark.parametrize("context", [True, False])
@pytest.mark.parametrize("left,right", PAIRS)
def test_compare_embeds_the_distinct_texts_of_both_models_in_one_call(left, right, context):
    g1, g2 = _graph(left), _graph(right)
    provider = _RecordingProvider()
    compare(g1, g2, provider, context_augmentation=context)
    (texts,) = provider.calls
    assert len(texts) == len(set(texts))
    expected = {text for graph in (g1, g2)
                for texts in semantic_texts(graph, context) for text in texts}
    assert set(texts) == expected


@pytest.mark.parametrize("context", [True, False])
@pytest.mark.parametrize("left,right", PAIRS)
def test_compare_scores_each_semantic_dimension_on_the_raw_provider(left, right, context,
                                                                     embedder):
    g1, g2 = _graph(left), _graph(right)
    breakdown = compare(g1, g2, embedder, context_augmentation=context)
    expected = [semantic_set_similarity(a, b, embedder)
                for a, b in zip(semantic_texts(g1, context), semantic_texts(g2, context))]
    assert [breakdown.semantic_name, breakdown.semantic_type,
            breakdown.semantic_name_type] == expected


def test_semantic_texts_derive_name_types_from_names():
    graph = _graph("loan-approval.bpmn")
    names, types, name_types = semantic_texts(graph)
    tags = [node.tag for node in graph.nodes]
    assert name_types == [f"{name} [{tag}]" for name, tag in zip(names, tags)]
    assert len(types) == len(graph.nodes) + len(graph.edges)


@st.composite
def counted_problems(draw):
    """A small matrix of quarter steps, so scores tie, with 1-4 units per
    row and column."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = draw(st.lists(st.integers(0, 4), min_size=n * m, max_size=n * m))
    row_counts = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    col_counts = draw(st.lists(st.integers(1, 4), min_size=m, max_size=m))
    return np.array(cells, dtype=np.float64).reshape(n, m) / 4, row_counts, col_counts


@given(counted_problems())
@settings(max_examples=300, deadline=None)
def test_counted_assignment_is_optimal(problem):
    optimize = pytest.importorskip("scipy.optimize")
    matrix, row_counts, col_counts = problem
    expanded = np.repeat(np.repeat(matrix, row_counts, axis=0), col_counts, axis=1)
    rows, cols = optimize.linear_sum_assignment(expanded, maximize=True)
    pairs = max_weight_assignment(matrix, row_counts=row_counts, col_counts=col_counts)
    value = _assignment_value(matrix, pairs)
    assert value == pytest.approx(expanded[rows, cols].sum(), abs=1e-9)
    carried_rows = Counter(i for i, _ in pairs)
    carried_cols = Counter(j for _, j in pairs)
    assert all(carried_rows[i] <= count for i, count in enumerate(row_counts))
    assert all(carried_cols[j] <= count for j, count in enumerate(col_counts))
    assert len(pairs) == min(sum(row_counts), sum(col_counts))
    flipped = max_weight_assignment(matrix.T, row_counts=col_counts, col_counts=row_counts)
    assert _assignment_value(matrix.T, flipped) == pytest.approx(value, abs=1e-9)


def test_solver_gets_the_matrix_and_the_callers_counts(monkeypatch):
    calls = []
    solve = similarity._flows

    def recording(cost, supply, capacity):
        calls.append((cost.copy(), list(supply), list(capacity), cost.flags.c_contiguous))
        return solve(cost, supply, capacity)

    monkeypatch.setattr(similarity, "_flows", recording)
    rng = np.random.default_rng(9)
    matrix = np.round(rng.random((4, 3)), 1)
    matrix[2] = matrix[0]
    max_weight_assignment(matrix, row_counts=[1, 2, 1, 1], col_counts=[3, 1, 2])
    max_weight_assignment(matrix, row_counts=[2, 2, 3, 1], col_counts=[3, 1, 2])
    pairs = max_weight_assignment(rng.random((3, 3)), row_counts=[400] * 3,
                                  col_counts=[400] * 3)
    assert len(pairs) == 1200
    (rows_cost, *rows_rest), (cols_cost, *cols_rest), (counted_cost, *counted_rest) = calls
    assert np.array_equal(rows_cost, -matrix)
    assert rows_rest == [[1, 2, 1, 1], [3, 1, 2], True]
    # the rows carry 8 units and the columns 6, so the columns are the rows
    assert np.array_equal(cols_cost, -matrix.T)
    assert cols_rest == [[3, 1, 2], [2, 2, 3, 1], True]
    assert counted_cost.shape == (3, 3)
    assert counted_rest == [[400] * 3, [400] * 3, True]


class TestFlows:
    @staticmethod
    def _mid_size():
        rng = np.random.default_rng(31)
        for _ in range(40):
            n, m = (int(x) for x in rng.integers(16, 33, size=2))
            yield rng.random((n, m))
            yield np.round(rng.random((n, m)), 1)
            # about 1.6 units per row and column group
            yield _tied_matrix(rng, n, m, n, m, decimals=1)
        for k in (1, 2, 7, 25):
            yield rng.random((1, k))
            yield np.round(rng.random((1, k)), 2)

    def test_agrees_with_scipy_on_mid_size_matrices(self):
        optimize = pytest.importorskip("scipy.optimize")
        for matrix in self._mid_size():
            for oriented in (matrix, matrix.T):
                pairs = max_weight_assignment(oriented)
                _check_pairs(oriented, pairs)
                rows, cols = optimize.linear_sum_assignment(oriented, maximize=True)
                assert _assignment_value(oriented, pairs) == pytest.approx(
                    oriented[rows, cols].sum(), abs=1e-9)

    def test_agrees_with_scipy_on_large_rectangular_matrices(self):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(41)
        shapes = [(100, 400), (400, 100), (250, 180), (180, 250), (399, 400), (123, 321)]
        for n, m in shapes:
            for matrix in (rng.random((n, m)), np.round(rng.random((n, m)), 2)):
                pairs = max_weight_assignment(matrix)
                _check_pairs(matrix, pairs)
                rows, cols = optimize.linear_sum_assignment(matrix, maximize=True)
                assert _assignment_value(matrix, pairs) == pytest.approx(
                    matrix[rows, cols].sum(), abs=1e-9)

    def test_counts_equal_the_expanded_matrix(self):
        rng = np.random.default_rng(43)
        for case in range(120):
            n, m = (int(x) for x in rng.integers(1, 50, size=2))
            matrix = np.round(rng.random((n, m)), int(rng.integers(1, 4)))
            # mostly unit counts in even cases, up to 5 in odd ones
            high = 6 if case % 2 else 2
            row_counts = [int(c) for c in rng.integers(1, high, n)]
            col_counts = [int(c) for c in rng.integers(1, high, m)]
            if case % 2 == 0:
                row_counts[0] = col_counts[0] = 2
            expanded = np.repeat(np.repeat(matrix, row_counts, axis=0), col_counts, axis=1)
            pairs = max_weight_assignment(matrix, row_counts=row_counts, col_counts=col_counts)
            assert pairs == sorted(pairs)
            assert len(pairs) == min(sum(row_counts), sum(col_counts))
            rows = Counter(i for i, _ in pairs)
            cols = Counter(j for _, j in pairs)
            assert all(rows[i] <= row_counts[i] for i in rows)
            assert all(cols[j] <= col_counts[j] for j in cols)
            assert _assignment_value(matrix, pairs) == pytest.approx(
                _assignment_value(expanded, max_weight_assignment(expanded)), abs=1e-9)

    @pytest.mark.parametrize("counts", [[1, 1], [1, 0, 1], [1, 1, -2]])
    def test_counts_must_be_positive_and_one_per_row(self, counts):
        with pytest.raises(ValueError):
            max_weight_assignment(np.ones((3, 2)), row_counts=counts)

    @pytest.mark.parametrize("score", [np.nan, np.inf, -np.inf])
    def test_scores_must_be_finite(self, score):
        # A column no row can reach would leave the shortest path search
        # without an end.
        matrix = np.array([[0.5, 0.1], [0.4, 0.2]])
        matrix[:, 1] = score
        with pytest.raises(ValueError):
            max_weight_assignment(matrix)

    def test_semantic_set_similarity_scores_distinct_texts_with_counts(self):
        embedder = HashingEmbedder()
        texts1 = [f"task {i % 60}" for i in range(90)] + ["startEvent"] * 5
        texts2 = [f"task {i % 50}" for i in range(70)] + ["endEvent", "task 99"]
        vecs1 = embedder.embed_batch(texts1)
        vecs2 = embedder.embed_batch(texts2)
        full = np.clip(vecs1 @ vecs2.T, 0.0, 1.0)
        expected = _assignment_value(full, max_weight_assignment(full)) / len(texts1)
        assert semantic_set_similarity(texts1, texts2, embedder) == pytest.approx(
            expected, abs=1e-12)


def _counted_cases(seed, count):
    """Seeded (matrix, row_counts, col_counts) cases: shapes up to 40 x 60 in
    both orientations, thin ones among them, with quarter-step, 0/1,
    negative or continuous scores and 1-4 units per row and column."""
    rng = np.random.default_rng(seed)
    thin = [(1, 1), (1, 7), (7, 1), (1, 60), (60, 1), (3, 50), (50, 3), (2, 40)]
    for case in range(count):
        if case < 4 * len(thin):  # each thin shape with each kind of score
            n, m = thin[case // 4]
        else:
            n, m = int(rng.integers(1, 41)), int(rng.integers(1, 61))
            if case % 2:
                n, m = m, n
        kind = case % 4
        if kind == 0:
            matrix = rng.integers(0, 5, (n, m)) / 4
        elif kind == 1:
            matrix = rng.integers(0, 2, (n, m)).astype(np.float64)
        elif kind == 2:
            matrix = rng.integers(-4, 5, (n, m)) / 4
        else:
            matrix = rng.random((n, m)) - 0.5
        units = 1 if case % 3 == 0 else 4  # unit counts in a third of the cases
        yield (matrix, [int(c) for c in rng.integers(1, units + 1, n)],
               [int(c) for c in rng.integers(1, units + 1, m)])


def test_counted_assignment_equals_scipy_on_the_expanded_matrix():
    optimize = pytest.importorskip("scipy.optimize")
    for matrix, row_counts, col_counts in _counted_cases(seed=15, count=400):
        expanded = np.repeat(np.repeat(matrix, row_counts, axis=0), col_counts, axis=1)
        rows, cols = optimize.linear_sum_assignment(expanded, maximize=True)
        pairs = max_weight_assignment(matrix, row_counts=row_counts, col_counts=col_counts)
        assert _assignment_value(matrix, pairs) == pytest.approx(
            expanded[rows, cols].sum(), abs=1e-9)
        assert len(pairs) == min(sum(row_counts), sum(col_counts))
        carried_rows = Counter(i for i, _ in pairs)
        carried_cols = Counter(j for _, j in pairs)
        assert set(carried_rows) <= set(range(len(row_counts)))
        assert set(carried_cols) <= set(range(len(col_counts)))
        assert all(carried_rows[i] <= count for i, count in enumerate(row_counts))
        assert all(carried_cols[j] <= count for j, count in enumerate(col_counts))
