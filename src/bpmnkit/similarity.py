"""Five-dimensional similarity between BPMN models.

Dimensions: structural (graph-statistic ratios plus degree-sequence
correlation), type distribution (Jensen-Shannon), and three semantic measures
(names, element types, merged name-type strings) scored by optimal one-to-one
assignment over embedding cosines. The overall score is the arithmetic mean
of the five.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import sub

import numpy as np

from .embeddings import EmbeddingProvider
from .model import (
    BpmnGraph,
    ElementCategory,
    context_label,
    effective_label,
    graph_stats,
)

METRIC_CATEGORIES = (
    ElementCategory.TASK,
    ElementCategory.GATEWAY,
    ElementCategory.EVENT,
    ElementCategory.DATA,
    ElementCategory.FLOW,
)


class NegativeInput(ValueError):
    pass


def ratio_similarity(m1: float, m2: float) -> float:
    """min/max of two non-negative metric values. Conventions: (0, 0) -> 1.0
    (nothing to distinguish), exactly one zero -> 0.0."""
    if m1 < 0 or m2 < 0:
        raise NegativeInput(f"metric values must be non-negative, got ({m1}, {m2})")
    if m1 == m2:
        return 1.0
    if m1 == 0 or m2 == 0:
        return 0.0
    return min(m1, m2) / max(m1, m2)


def degree_similarity(d1, d2) -> float:
    """|Pearson correlation| of the two degree sequences, sorted descending
    and zero-padded to equal length.

    Pearson is undefined at zero variance, so constant sequences degrade
    gracefully: both constant and equal -> 1.0, both constant but unequal ->
    ratio of the constants, exactly one constant -> 0.0. Two empty sequences
    are fully similar.
    """
    a = sorted(d1, reverse=True)
    b = sorted(d2, reverse=True)
    size = max(len(a), len(b))
    if size == 0:
        return 1.0
    a += [0] * (size - len(a))
    b += [0] * (size - len(b))
    const_a = all(x == a[0] for x in a)
    const_b = all(x == b[0] for x in b)
    if const_a and const_b:
        return 1.0 if a[0] == b[0] else ratio_similarity(float(a[0]), float(b[0]))
    if const_a or const_b:
        return 0.0
    rho = np.corrcoef(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))[0, 1]
    return min(1.0, abs(float(rho)))


def structural_similarity(g1: BpmnGraph, g2: BpmnGraph) -> float:
    """Mean of the ratio scores for node count, edge count, density and
    average degree, plus the degree-sequence correlation score."""
    s1 = graph_stats(g1)
    s2 = graph_stats(g2)
    scores = [
        ratio_similarity(s1.node_count, s2.node_count),
        ratio_similarity(s1.edge_count, s2.edge_count),
        ratio_similarity(s1.density, s2.density),
        ratio_similarity(s1.average_degree, s2.average_degree),
        degree_similarity(s1.degree_sequence, s2.degree_sequence),
    ]
    return sum(scores) / len(scores)


def js_divergence(p, q) -> float:
    """Base-2 Jensen-Shannon divergence between two aligned probability
    vectors: JS = KL(P||M)/2 + KL(Q||M)/2 with M the even mixture. Bounded
    in [0, 1]; zero exactly when the vectors are equal."""
    total = 0.0
    for pi, qi in zip(p, q):
        m = 0.5 * (pi + qi)
        if pi > 0:
            total += 0.5 * pi * math.log2(pi / m)
        if qi > 0:
            total += 0.5 * qi * math.log2(qi / m)
    return min(1.0, max(0.0, total))


def type_counts(graph: BpmnGraph, fine_grained: bool = False) -> dict[str, int]:
    """Element-type counts: the five categories by default (flows counted
    from edges), or raw tag names in fine-grained mode."""
    counts: dict[str, int] = {}
    if fine_grained:
        for node in graph.nodes:
            if node.category is not ElementCategory.OTHER:
                counts[node.tag] = counts.get(node.tag, 0) + 1
        for edge in graph.edges:
            counts[edge.tag] = counts.get(edge.tag, 0) + 1
        return counts
    for category in METRIC_CATEGORIES:
        counts[category.value] = 0
    for node in graph.nodes:
        if node.category is not ElementCategory.OTHER:
            counts[node.category.value] += 1
    counts[ElementCategory.FLOW.value] = graph.edge_count
    return counts


def type_distribution_similarity(g1: BpmnGraph, g2: BpmnGraph,
                                 fine_grained: bool = False) -> float:
    """max(0, 1 - JS) over the normalized type distributions. Two empty
    models are fully similar; one empty model scores 0."""
    c1 = type_counts(g1, fine_grained)
    c2 = type_counts(g2, fine_grained)
    t1 = sum(c1.values())
    t2 = sum(c2.values())
    if t1 == 0 and t2 == 0:
        return 1.0
    if t1 == 0 or t2 == 0:
        return 0.0
    support = [key for key in dict.fromkeys(list(c1) + list(c2))
               if c1.get(key, 0) + c2.get(key, 0) > 0]
    p = [c1.get(key, 0) / t1 for key in support]
    q = [c2.get(key, 0) / t2 for key in support]
    return max(0.0, 1.0 - js_divergence(p, q))


# --- optimal assignment -------------------------------------------------------


def _groups(rows) -> tuple[list[tuple[float, ...]], list[list[int]]]:
    """Distinct rows in first-seen order, and the indices holding each."""
    members: dict[tuple[float, ...], list[int]] = {}
    for index, row in enumerate(rows):
        members.setdefault(tuple(row), []).append(index)
    return list(members), list(members.values())


def _shortest_path(source: int, cost: list[list[float]], u: list[float], v: list[float],
                   flows: list[dict[int, int]], capacity: list[int]):
    """Dijkstra over reduced costs from row group `source` to the sink, then
    the potential update that keeps reduced costs non-negative.

    Row p reaches every column q (reduced cost cost[p][q] - u[p] - v[q]); a
    column reaches the rows that send it flow (reduced cost 0); a column with
    spare capacity reaches the sink. Every such column keeps v = 0, the
    sink's potential: it is settled only as the last node of a path, at the
    path's length, and settled columns move by their distance minus that
    length. Returns the last column, the row that reached each column, and
    the column that reached each row."""
    inf = float("inf")
    kc = len(v)
    dist = [inf] * kc
    via = [0] * kc
    open_cols = list(range(kc))
    reached = {source: 0.0}
    back: dict[int, int] = {}
    fresh = [source]
    while True:
        for p in fresh:
            dp = reached[p] - u[p]
            row = cost[p]
            # The last row relaxed sees every open column's final distance,
            # so its pass also finds the nearest column.
            best = inf
            for q in open_cols:
                d = dp + row[q] - v[q]
                if d < dist[q]:
                    dist[q] = d
                    via[q] = p
                else:
                    d = dist[q]
                if d < best:
                    best = d
                    end = q
        if not fresh:
            end = min(open_cols, key=dist.__getitem__)
        open_cols.remove(end)
        if capacity[end]:
            break
        fresh = [p for p in flows[end] if p not in reached]
        for p in fresh:
            reached[p] = dist[end]
            back[p] = end
    total = dist[end]
    for q in range(kc):
        if dist[q] < total:
            v[q] += dist[q] - total
    for p, dp in reached.items():
        u[p] += total - dp
    return end, via, back


def max_weight_assignment(scores: np.ndarray) -> list[tuple[int, int]]:
    """Maximum-weight one-to-one assignment over a rectangular score matrix.

    Identical rows are interchangeable, and so are identical columns, so both
    are merged into groups and the small transportation problem between the
    groups is solved exactly: successive shortest paths with potentials, each
    path carrying as many units as it can (Crouse, IEEE TAES 2016, on the
    capacitated problem). With every row and column distinct this is the
    Hungarian algorithm. Every row of the smaller side is matched; returns
    sorted (row, col) pairs.
    """
    matrix = np.asarray(scores, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("score matrix must be two-dimensional")
    if matrix.size == 0:
        return []
    flipped = matrix.shape[0] > matrix.shape[1]
    if flipped:
        matrix = matrix.T
    row_keys, row_members = _groups(matrix.tolist())
    col_keys, col_members = _groups(zip(*row_keys))
    # cost[p][q] between row group p and column group q, to be minimized.
    cost = [[-x for x in row] for row in zip(*col_keys)]
    supply = [len(m) for m in row_members]
    capacity = [len(m) for m in col_members]
    # flows[q] maps row group p to the units sent from p to q (positive only).
    flows: list[dict[int, int]] = [{} for _ in col_keys]
    u = [0.0] * len(row_keys)
    v = [0.0] * len(col_keys)

    # Row groups join one at a time, each with the potential that makes its
    # cheapest arc tight.
    for source, row in enumerate(cost):
        u[source] = min(map(sub, row, v))
        while supply[source]:
            end, via, back = _shortest_path(source, cost, u, v, flows, capacity)
            units = min(supply[source], capacity[end])
            forward, reverse = [], []
            q = end
            while True:
                p = via[q]
                forward.append((p, q))
                if p == source:
                    break
                q = back[p]
                reverse.append((p, q))
                units = min(units, flows[q][p])
            for p, q in forward:
                flows[q][p] = flows[q].get(p, 0) + units
            for p, q in reverse:
                flows[q][p] -= units
                if not flows[q][p]:
                    del flows[q][p]
            supply[source] -= units
            capacity[end] -= units

    pairs = []
    for q, sent in enumerate(flows):
        for p, units in sent.items():
            for _ in range(units):
                pairs.append((row_members[p].pop(), col_members[q].pop()))
    if flipped:
        pairs = [(j, i) for i, j in pairs]
    return sorted(pairs)


def _embed_distinct(texts: list[str], provider: EmbeddingProvider) -> np.ndarray:
    """One vector per text, embedding each distinct text once."""
    index: dict[str, int] = {}
    inverse = [index.setdefault(text, len(index)) for text in texts]
    return provider.embed_batch(list(index))[inverse]


def semantic_set_similarity(texts1: list[str], texts2: list[str],
                            provider: EmbeddingProvider) -> float:
    """Embed both text lists, clamp negative cosines to zero, take the
    maximum-weight assignment, and normalize by the larger list size so
    missing or extra elements are penalized."""
    if not texts1 and not texts2:
        return 1.0
    if not texts1 or not texts2:
        return 0.0
    vecs1 = _embed_distinct(texts1, provider)
    vecs2 = _embed_distinct(texts2, provider)
    scores = np.clip(vecs1 @ vecs2.T, 0.0, 1.0)
    pairs = max_weight_assignment(scores)
    matched = float(sum(scores[i, j] for i, j in pairs))
    return matched / max(len(texts1), len(texts2))


# --- full comparison ----------------------------------------------------------


@dataclass(frozen=True)
class CompareOptions:
    context_augmentation: bool = True
    fine_grained_types: bool = False


@dataclass(frozen=True)
class SimilarityBreakdown:
    structural: float
    type_distribution: float
    semantic_name: float
    semantic_type: float
    semantic_name_type: float
    overall: float

    def to_dict(self) -> dict[str, float]:
        return {
            "structural": self.structural,
            "type_distribution": self.type_distribution,
            "semantic_name": self.semantic_name,
            "semantic_type": self.semantic_type,
            "semantic_name_type": self.semantic_name_type,
            "overall": self.overall,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimilarityBreakdown":
        return cls(
            structural=data["structural"],
            type_distribution=data["type_distribution"],
            semantic_name=data["semantic_name"],
            semantic_type=data["semantic_type"],
            semantic_name_type=data["semantic_name_type"],
            overall=data["overall"],
        )


def _semantic_nodes(graph: BpmnGraph):
    return [node for node in graph.nodes
            if node.category not in (ElementCategory.OTHER, ElementCategory.FLOW)]


def name_texts(graph: BpmnGraph, context_augmentation: bool = True) -> list[str]:
    if context_augmentation:
        return [context_label(graph, node.id) for node in _semantic_nodes(graph)]
    return [effective_label(node) for node in _semantic_nodes(graph)]


def type_texts(graph: BpmnGraph) -> list[str]:
    texts = [node.tag for node in graph.nodes if node.category is not ElementCategory.OTHER]
    texts += [edge.tag for edge in graph.edges]
    return texts


def name_type_texts(graph: BpmnGraph, context_augmentation: bool = True) -> list[str]:
    names = name_texts(graph, context_augmentation)
    return [f"{name} [{node.tag}]"
            for name, node in zip(names, _semantic_nodes(graph))]


def compare(g1: BpmnGraph, g2: BpmnGraph, provider: EmbeddingProvider,
            options: CompareOptions | None = None) -> SimilarityBreakdown:
    """Score two models on all five dimensions plus their mean."""
    opts = options or CompareOptions()
    structural = structural_similarity(g1, g2)
    type_dist = type_distribution_similarity(g1, g2, opts.fine_grained_types)
    sem_name = semantic_set_similarity(
        name_texts(g1, opts.context_augmentation),
        name_texts(g2, opts.context_augmentation), provider)
    sem_type = semantic_set_similarity(type_texts(g1), type_texts(g2), provider)
    sem_name_type = semantic_set_similarity(
        name_type_texts(g1, opts.context_augmentation),
        name_type_texts(g2, opts.context_augmentation), provider)
    dims = (structural, type_dist, sem_name, sem_type, sem_name_type)
    return SimilarityBreakdown(*dims, overall=sum(dims) / len(dims))
