"""Typed directed-graph view of BPMN models plus basic graph statistics.

Elements are grouped into five categories (tasks, gateways, events, data,
flows); anything unrecognized maps to ``OTHER`` and stays out of the metrics.
Tasks/gateways/events/data become nodes, flow elements become edges.
``DocumentIndex`` gathers what graph building, compliance and layout share in
one walk, so the three agree on ids, nodes, links and process membership.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple

import xml.etree.ElementTree as ET

from .xmlio import BPMN_NS, BpmnDocument, DocumentWithoutProcess, qname

ATTACHMENT_TAG = "boundaryAttachment"


class ElementCategory(Enum):
    TASK = "task"
    GATEWAY = "gateway"
    EVENT = "event"
    DATA = "data"
    FLOW = "flow"
    OTHER = "other"


_CATEGORY_BY_TAG: dict[str, ElementCategory] = {}
for _tag in ("task", "userTask", "serviceTask", "scriptTask", "manualTask", "sendTask",
             "receiveTask", "businessRuleTask", "callActivity", "subProcess"):
    _CATEGORY_BY_TAG[_tag] = ElementCategory.TASK
for _tag in ("exclusiveGateway", "parallelGateway", "inclusiveGateway",
             "eventBasedGateway", "complexGateway"):
    _CATEGORY_BY_TAG[_tag] = ElementCategory.GATEWAY
for _tag in ("startEvent", "endEvent", "intermediateCatchEvent",
             "intermediateThrowEvent", "boundaryEvent"):
    _CATEGORY_BY_TAG[_tag] = ElementCategory.EVENT
for _tag in ("dataObject", "dataObjectReference", "dataStoreReference",
             "dataInput", "dataOutput"):
    _CATEGORY_BY_TAG[_tag] = ElementCategory.DATA
for _tag in ("sequenceFlow", "messageFlow", "association",
             "dataInputAssociation", "dataOutputAssociation"):
    _CATEGORY_BY_TAG[_tag] = ElementCategory.FLOW


def categorize_element(tag: str) -> ElementCategory:
    """Total, pure mapping from a (namespace-stripped) element tag to its
    category. Unknown tags map to ``OTHER``."""
    return _CATEGORY_BY_TAG.get(tag, ElementCategory.OTHER)


class UnknownNode(KeyError):
    pass


@dataclass(frozen=True)
class BpmnNode:
    id: str
    tag: str
    label: str
    category: ElementCategory


@dataclass(frozen=True)
class BpmnEdge:
    id: str
    source: str
    target: str
    tag: str
    condition: str | None = None
    is_default: bool = False


class BpmnGraph:
    """Directed graph over BPMN nodes. Immutable after construction; all
    edge endpoints must resolve to nodes."""

    def __init__(self, nodes: Iterable[BpmnNode], edges: Iterable[BpmnEdge]):
        self._nodes: dict[str, BpmnNode] = {}
        for node in nodes:
            if node.id in self._nodes:
                raise ValueError(f"duplicate node id {node.id!r}")
            self._nodes[node.id] = node
        self._edges: tuple[BpmnEdge, ...] = tuple(edges)
        self._succ: dict[str, list[str]] = {nid: [] for nid in self._nodes}
        self._pred: dict[str, list[str]] = {nid: [] for nid in self._nodes}
        for edge in self._edges:
            if edge.source not in self._nodes or edge.target not in self._nodes:
                raise ValueError(f"edge {edge.id!r} has a dangling endpoint")
            self._succ[edge.source].append(edge.target)
            self._pred[edge.target].append(edge.source)

    @property
    def nodes(self) -> tuple[BpmnNode, ...]:
        return tuple(self._nodes.values())

    @property
    def edges(self) -> tuple[BpmnEdge, ...]:
        return self._edges

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def node(self, node_id: str) -> BpmnNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownNode(node_id) from None

    def has_node(self, node_id: str) -> bool:
        return node_id in self._nodes

    def successors(self, node_id: str) -> tuple[str, ...]:
        self.node(node_id)
        return tuple(self._succ[node_id])

    def predecessors(self, node_id: str) -> tuple[str, ...]:
        self.node(node_id)
        return tuple(self._pred[node_id])

    def neighbors(self, node_id: str) -> set[str]:
        return set(self.successors(node_id)) | set(self.predecessors(node_id))

    def degree(self, node_id: str) -> int:
        """Total degree: in-degree + out-degree."""
        self.node(node_id)
        return len(self._succ[node_id]) + len(self._pred[node_id])


def effective_label(node: BpmnNode) -> str:
    """A node's display text: its label, or its tag when unlabeled. Keeps
    usually-unnamed elements (gateways, events) usable in text measures."""
    label = node.label.strip()
    return label if label else node.tag


class IndexedNode(NamedTuple):
    element: ET.Element
    id: str | None
    tag: str
    category: ElementCategory
    process: ET.Element | None


class IndexedLink(NamedTuple):
    """A flow element or a boundary attachment. ``id`` is synthesized for
    anonymous flows and attachments; ``source``/``target`` are falsy when the
    link cannot be resolved (already reported in the index warnings)."""
    element: ET.Element
    id: str
    tag: str
    source: str | None
    target: str | None
    condition: str | None
    process: ET.Element | None


_FLOW_NODE_CATEGORIES = (ElementCategory.TASK, ElementCategory.GATEWAY, ElementCategory.EVENT)
_BPMN_PREFIX = f"{{{BPMN_NS}}}"
_CONDITION = qname("conditionExpression")
_SOURCE_REF = qname("sourceRef")
_TARGET_REF = qname("targetRef")


class DocumentIndex:
    """What graph building, compliance and layout need to know about a
    document, gathered in one walk in document order.

    The first element carrying an id owns it; later elements reusing the id
    are only recorded in ``repeats`` and are otherwise ignored (not nodes, not
    links, no attachment). Positions count ``root.iter()`` order, root at 0.
    """

    def __init__(self, doc: BpmnDocument):
        self.elements: dict[str, ET.Element] = {}  # id -> the element owning it
        self.positions: dict[str, int] = {}  # id -> position of that element
        self.repeats: list[tuple[str, int]] = []  # (id, position) of each reuse
        self.nodes: list[IndexedNode] = []  # tasks, gateways, events, data; ids optional
        self.links: list[IndexedLink] = []  # flow elements and boundary attachments
        self.defaults: set[str] = set()  # ids named by a ``default`` attribute
        self.warnings: list[str] = []  # graph-build warnings, in walk order
        elements, positions, repeats = self.elements, self.positions, self.repeats
        nodes, links, defaults, warnings = self.nodes, self.links, self.defaults, self.warnings
        cut = len(_BPMN_PREFIX)
        position = -1
        anonymous = 0

        def visit(parent: Iterable[ET.Element], process: ET.Element | None,
                  activity: str | None) -> None:
            nonlocal position, anonymous
            for elem in parent:
                position += 1
                eid = elem.get("id")
                repeat = eid in positions
                if repeat:
                    repeats.append((eid, position))
                elif eid:
                    positions[eid] = position
                    elements[eid] = elem
                tag = elem.tag
                inner_process, inner_activity = process, activity
                if isinstance(tag, str) and tag.startswith(_BPMN_PREFIX):
                    tag = tag[cut:]
                    category = _CATEGORY_BY_TAG.get(tag)
                    if category is None:
                        if tag == "process":
                            inner_process = elem
                    elif repeat:
                        warnings.append(f"duplicate element id {eid!r} skipped")
                    elif category is ElementCategory.FLOW:
                        if not eid:
                            anonymous += 1
                        links.append(_link(elem, eid or f"_anon_{tag}_{anonymous}", tag,
                                           process, activity, warnings))
                    else:
                        if not eid:
                            warnings.append(f"{tag} element without id skipped")
                        elif category is not ElementCategory.DATA:
                            inner_activity = eid
                        nodes.append(IndexedNode(elem, eid, tag, category, process))
                        default = elem.get("default")
                        if default:
                            defaults.add(default)
                        host = elem.get("attachedToRef") if tag == "boundaryEvent" else None
                        if host and eid:
                            links.append(IndexedLink(elem, f"{eid}__attached", ATTACHMENT_TAG,
                                                     host, eid, None, process))
                if len(elem):
                    visit(elem, inner_process, inner_activity)

        visit((doc.root,), None, None)

    def flow_nodes(self) -> list[IndexedNode]:
        """Tasks, gateways and events with an id, in document order."""
        return [n for n in self.nodes if n.id and n.category in _FLOW_NODE_CATEGORIES]


def _link(elem: ET.Element, link_id: str, tag: str, process: ET.Element | None,
          activity: str | None, warnings: list[str]) -> IndexedLink:
    condition = None
    if tag == "dataInputAssociation":
        ref = elem.find(_SOURCE_REF)
        source = ref.text.strip() if ref is not None and ref.text else None
        target = activity
    elif tag == "dataOutputAssociation":
        ref = elem.find(_TARGET_REF)
        source = activity
        target = ref.text.strip() if ref is not None and ref.text else None
    else:
        source, target = elem.get("sourceRef"), elem.get("targetRef")
        if tag == "sequenceFlow":
            cond = elem.find(_CONDITION)
            if cond is not None and cond.text and cond.text.strip():
                condition = cond.text.strip()
    if not source or not target:
        if tag in ("dataInputAssociation", "dataOutputAssociation"):
            warnings.append(f"{tag} {link_id!r} dropped: unresolved endpoints")
        else:
            warnings.append(f"{tag} {link_id!r} dropped: missing sourceRef/targetRef")
    return IndexedLink(elem, link_id, tag, source, target, condition, process)


def build_graph(doc: BpmnDocument) -> tuple[BpmnGraph, list[str]]:
    """Build the typed graph for a document. Sub-process contents are
    flattened in; boundary events gain an implicit attachment edge from their
    host activity. Flow elements with unresolvable endpoints are dropped and
    reported in the returned warning list.
    """
    if not doc.processes():
        raise DocumentWithoutProcess("no process definition found")

    index = DocumentIndex(doc)
    nodes = [BpmnNode(n.id, n.tag, n.element.get("name", ""), n.category)
             for n in index.nodes if n.id]
    node_ids = {node.id for node in nodes}
    warnings = list(index.warnings)
    edges = []
    for link in index.links:
        if not link.source or not link.target:
            continue
        if link.source in node_ids and link.target in node_ids:
            edges.append(BpmnEdge(link.id, link.source, link.target, link.tag, link.condition,
                                  link.id in index.defaults))
        else:
            missing = link.target if link.source in node_ids else link.source
            warnings.append(f"{link.tag} {link.id!r} dropped: endpoint {missing!r} not found")
    return BpmnGraph(nodes, edges), warnings


@dataclass(frozen=True)
class GraphStats:
    node_count: int
    edge_count: int
    density: float
    average_degree: float
    degree_sequence: tuple[int, ...]


def graph_stats(graph: BpmnGraph) -> GraphStats:
    """Node/edge counts, directed density E/(N*(N-1)), average total degree
    2E/N, and the descending degree sequence."""
    n = graph.node_count
    e = graph.edge_count
    density = e / (n * (n - 1)) if n >= 2 else 0.0
    average_degree = 2.0 * e / n if n > 0 else 0.0
    degrees = sorted((graph.degree(node.id) for node in graph.nodes), reverse=True)
    return GraphStats(n, e, density, average_degree, tuple(degrees))


def context_label(graph: BpmnGraph, node_id: str) -> str:
    """A node's label joined with its alphabetically sorted neighbor labels.

    Unlabeled nodes contribute their tag name instead, so the string is stable
    regardless of edge insertion order and never empty.
    """
    node = graph.node(node_id)
    neighbor_labels = sorted(effective_label(graph.node(m)) for m in graph.neighbors(node_id))
    return f"{effective_label(node)} neighbors: " + ", ".join(neighbor_labels)
