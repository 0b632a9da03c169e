"""Five-dimensional similarity between BPMN models.

Dimensions: structural (graph-statistic ratios plus degree-sequence
correlation), type distribution (Jensen-Shannon), and three semantic measures
(names, element types, merged name-type strings) scored by optimal one-to-one
assignment over embedding cosines. The overall score is the arithmetic mean
of the five.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

from .embeddings import EmbeddingProvider, MemoEmbedder
from .model import (
    BpmnGraph,
    ElementCategory,
    context_label,
    effective_label,
    graph_stats,
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
    a, b = sorted((a, b))  # corrcoef rounds differently in the two orders
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
    in [0, 1]; zero exactly when the vectors are equal. The terms are summed
    exactly (fsum), so swapping the vectors gives the same bits."""
    terms = []
    for pi, qi in zip(p, q):
        m = 0.5 * (pi + qi)
        if pi > 0:
            terms.append(0.5 * pi * math.log2(pi / m))
        if qi > 0:
            terms.append(0.5 * qi * math.log2(qi / m))
    return min(1.0, max(0.0, math.fsum(terms)))


def type_counts(graph: BpmnGraph) -> dict[str, int]:
    """Element counts per category of the five (flows counted from edges)."""
    counts = {category.value: 0 for category in ElementCategory}
    for node in graph.nodes:
        counts[node.category.value] += 1
    counts[ElementCategory.FLOW.value] = graph.edge_count
    return counts


def type_distribution_similarity(g1: BpmnGraph, g2: BpmnGraph) -> float:
    """max(0, 1 - JS) over the normalized type distributions. Two empty
    models are fully similar; one empty model scores 0."""
    c1 = type_counts(g1)
    c2 = type_counts(g2)
    t1 = sum(c1.values())
    t2 = sum(c2.values())
    if t1 == 0 and t2 == 0:
        return 1.0
    if t1 == 0 or t2 == 0:
        return 0.0
    support = [key for key in c1 if c1[key] + c2[key] > 0]
    p = [c1[key] / t1 for key in support]
    q = [c2[key] / t2 for key in support]
    return max(0.0, 1.0 - js_divergence(p, q))


# --- optimal assignment -------------------------------------------------------

def _flows(cost: np.ndarray, supply: list[int],
           capacity: list[int]) -> list[dict[int, int]]:
    """Minimum-cost transportation from row groups (`supply` units each, no
    more than the columns' total) to column groups (`capacity` each) over
    their cost matrix. Returns flows[q], which maps row group p to the units
    it sends to column group q.

    Crouse's successive shortest paths (IEEE TAES 2016) on the capacitated
    problem, each path carrying as many units as it can; with unit supplies
    and capacities this is the Hungarian algorithm. It starts from Jonker and
    Volgenant's row reduction with reduction transfer (Computing 38, 1987).
    Each row's potential u is its cheapest cost, column potentials v are 0,
    and each row sends as many units as fit to its cheapest column. Then
    each column the start filled lowers v by the smallest gap between the
    second-cheapest and the cheapest cost of the rows that send to it, and
    those rows raise u by as much: their units stay on arcs of reduced cost
    0, the reduced costs stay non-negative, and a later path reroutes them
    for less. Rows left with units then fill spare columns that cost them u.

    A row reaches every column (reduced cost cost[p, q] - u[p] - v[q]), a
    full column reaches the rows that send it units (reduced cost 0), and a
    column with spare capacity ends the path. Each Dijkstra step relaxes the
    whole row of a row just reached in one vectorised update of full-width
    arrays, where settled columns read as infinitely far, and takes the
    nearest open column with one argmin. Only full columns ever lower their
    potential, in the start or once settled, so every column with spare
    capacity keeps v = 0, the largest potential, which makes the result
    optimal when capacity is left over. `cost` is modified during the start
    and restored."""
    supply = list(supply)
    capacity = list(capacity)
    inf = np.inf
    rows = np.arange(len(supply))
    cheapest = cost.argmin(axis=1)
    u = cost[rows, cheapest]
    v = np.zeros(len(capacity))
    flows: list[dict[int, int]] = [{} for _ in capacity]
    targets = cheapest.tolist()
    for p, q in enumerate(targets):
        units = min(supply[p], capacity[q])
        if units:
            flows[q][p] = units
            supply[p] -= units
            capacity[q] -= units
    if any(supply):  # so one column is full and another is not: two or more columns
        senders = np.array([p for p, q in enumerate(targets) if not capacity[q] and p in flows[q]],
                           dtype=np.intp)
        filled = cheapest[senders]
        cost[rows, cheapest] = inf  # each row's second-cheapest cost, without a copy
        gap = cost.min(axis=1)[senders] - u[senders]
        cost[rows, cheapest] = u
        transfer = np.full(len(capacity), inf)
        np.minimum.at(transfer, filled, gap)
        u[senders] += transfer[filled]
        v[filled] = -transfer[filled]
        for p in [p for p, left in enumerate(supply) if left]:
            for q in np.flatnonzero(cost[p] == u[p]).tolist():
                units = min(supply[p], capacity[q])
                if units:
                    flows[q][p] = units
                    supply[p] -= units
                    capacity[q] -= units
    via = np.empty(len(capacity), dtype=np.intp)  # the row that reached each column
    for source, left in enumerate(supply):
        while left:
            dist = np.full(len(capacity), inf)  # open columns' distances, inf once settled
            open_v = v.copy()  # v, but -inf once settled, so no row improves them
            reached = {source: 0.0}
            back: dict[int, int] = {}  # the column that reached each row
            settled, settled_dist = [], []
            fresh = [source]
            while True:
                for p in fresh:
                    reduced = cost[p] - open_v
                    reduced += reached[p] - u[p]
                    via[reduced < dist] = p
                    np.minimum(dist, reduced, out=dist)
                end = int(dist.argmin())
                total = float(dist[end])
                if capacity[end]:
                    break
                settled.append(end)
                settled_dist.append(total)
                dist[end] = inf
                open_v[end] = -inf
                fresh = []
                for p in flows[end]:
                    if p not in reached:
                        reached[p] = total
                        back[p] = end
                        fresh.append(p)
            # The path has length `total`; settled columns and the rows
            # reached move by how much nearer than that they are.
            v[settled] -= total - np.array(settled_dist)
            u[list(reached)] += total - np.fromiter(reached.values(), float, len(reached))
            units = min(left, capacity[end])
            forward, reverse = [], []
            q = end
            while True:
                p = int(via[q])
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
            left -= units
            capacity[end] -= units
    return flows


def _counts(counts, size: int) -> list[int]:
    if counts is None:
        return [1] * size
    counts = list(counts)
    if len(counts) != size or any(c < 1 for c in counts):
        raise ValueError(f"expected {size} positive counts, got {counts}")
    return counts


def max_weight_assignment(scores: np.ndarray, row_counts=None,
                          col_counts=None) -> list[tuple[int, int]]:
    """Maximum-weight assignment over a rectangular score matrix.

    Row i stands for `row_counts[i]` interchangeable units and column j for
    `col_counts[j]` (1 each by default). Every unit of the side with fewer
    units is matched to one unit of the other; returns the sorted (row, col)
    pairs, one per matched unit, so a pair repeats when it carries several.
    With unit counts this is the one-to-one assignment. Identical rows are not
    merged: pass each distinct row once, with its count.
    """
    matrix = np.asarray(scores, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("score matrix must be two-dimensional")
    if not np.isfinite(matrix).all():
        raise ValueError("scores must be finite")
    row_counts = _counts(row_counts, matrix.shape[0])
    col_counts = _counts(col_counts, matrix.shape[1])
    if matrix.size == 0:
        return []
    if flipped := sum(row_counts) > sum(col_counts):
        matrix, row_counts, col_counts = matrix.T, col_counts, row_counts
    # costs to minimize, row-major even when flipped, as _flows reads whole rows
    flows = _flows(np.negative(matrix, order="C"), row_counts, col_counts)
    return sorted((q, p) if flipped else (p, q) for q, sent in enumerate(flows)
                  for p, units in sent.items() for _ in range(units))


def semantic_set_similarity(texts1: list[str], texts2: list[str],
                            provider: EmbeddingProvider) -> float:
    """Embed both text lists, clamp negative cosines to zero, take the
    maximum-weight assignment, and normalize by the larger list size so
    missing or extra elements are penalized. Each distinct text is embedded
    and scored once, in sorted order, so the scores do not depend on the
    lists' order; its count is its number of units in the assignment."""
    if not texts1 and not texts2:
        return 1.0
    if not texts1 or not texts2:
        return 0.0
    counts1 = Counter(sorted(texts1))
    counts2 = Counter(sorted(texts2))
    scores = provider.embed_batch(list(counts1)) @ provider.embed_batch(list(counts2)).T
    np.clip(scores, 0.0, 1.0, out=scores)
    pairs = max_weight_assignment(scores, row_counts=list(counts1.values()),
                                  col_counts=list(counts2.values()))
    matched = math.fsum(scores[i, j] for i, j in pairs)  # exact, so in any order
    return matched / max(len(texts1), len(texts2))


# --- full comparison ----------------------------------------------------------


@dataclass(frozen=True)
class SimilarityBreakdown:
    structural: float
    type_distribution: float
    semantic_name: float
    semantic_type: float
    semantic_name_type: float
    overall: float

    def to_dict(self) -> dict[str, float]:
        return asdict(self)


def semantic_texts(graph: BpmnGraph, context_augmentation: bool = True
                   ) -> tuple[list[str], list[str], list[str]]:
    """The texts of the three semantic dimensions: each node's name (with its
    neighbours' names under context augmentation), each element's type, and
    each name followed by its node's ``[type]``."""
    nodes = graph.nodes
    if context_augmentation:
        names = [context_label(graph, node.id) for node in nodes]
    else:
        names = [effective_label(node) for node in nodes]
    types = [node.tag for node in nodes] + [edge.tag for edge in graph.edges]
    name_types = [f"{name} [{node.tag}]" for name, node in zip(names, nodes)]
    return names, types, name_types


def compare(g1: BpmnGraph, g2: BpmnGraph, provider: EmbeddingProvider,
            context_augmentation: bool = True) -> SimilarityBreakdown:
    """Score two models on all five dimensions plus their mean. The distinct
    texts of both models are embedded in one call to the provider."""
    structural = structural_similarity(g1, g2)
    type_dist = type_distribution_similarity(g1, g2)
    texts1 = semantic_texts(g1, context_augmentation)
    texts2 = semantic_texts(g2, context_augmentation)
    vectors = MemoEmbedder(provider)
    vectors.fill([text for texts in texts1 + texts2 for text in texts])
    semantic = [semantic_set_similarity(a, b, vectors) for a, b in zip(texts1, texts2)]
    dims = (structural, type_dist, *semantic)
    return SimilarityBreakdown(*dims, overall=sum(dims) / len(dims))
