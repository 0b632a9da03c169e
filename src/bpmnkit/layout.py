"""Deterministic layered auto-layout emitting minimal BPMNDI.

Nodes are assigned layers by longest-path distance from the start events and
laid out left-to-right on a fixed grid (100x80 boxes, 60-unit gaps). Sequence
flows become straight or single-bend polylines. Validity for viewers is the
goal, not aesthetics.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from .model import ATTACHMENT_TAG, DocumentIndex
from .xmlio import (
    BPMNDI_NS,
    DC_NS,
    DI_NS,
    BpmnDocument,
    DiagramInterchange,
    DiEntry,
    DocumentWithoutProcess,
)

NODE_WIDTH = 100
NODE_HEIGHT = 80
GAP = 60
STEP_X = NODE_WIDTH + GAP
STEP_Y = NODE_HEIGHT + GAP


def auto_layout(doc: BpmnDocument) -> DiagramInterchange:
    """Produce one BPMNDiagram per process, with a shape for every flow node
    and an edge for every resolvable sequence flow."""
    processes = doc.processes()
    if not processes:
        raise DocumentWithoutProcess("no process definition found")

    index = DocumentIndex(doc)
    entries = []
    base_index = len(doc.root)
    for offset, process in enumerate(processes):
        diagram = _layout_process(index, process, offset)
        entries.append(DiEntry((), base_index + offset, diagram))
    return DiagramInterchange(entries)


def _layout_process(index: DocumentIndex, process: ET.Element, offset: int) -> ET.Element:
    pid = process.get("id", f"process_{offset}")
    node_ids = [node.id for node in index.flow_nodes() if node.process is process]
    members = set(node_ids)
    links = [link for link in index.links if link.process is process
             and link.source in members and link.target in members]
    flows = [link for link in links
             if link.tag == "sequenceFlow" and link.element.get("id")]
    edges = [(link.source, link.target) for link in flows]
    edges += [(link.source, link.target) for link in links if link.tag == ATTACHMENT_TAG]
    layers = _longest_path_layers(node_ids, edges)

    rows: dict[str, int] = {}
    per_layer: dict[int, int] = {}
    for nid in node_ids:
        layer = layers[nid]
        rows[nid] = per_layer.get(layer, 0)
        per_layer[layer] = rows[nid] + 1

    bounds = {
        nid: (layers[nid] * STEP_X, rows[nid] * STEP_Y)
        for nid in node_ids
    }

    diagram = ET.Element(f"{{{BPMNDI_NS}}}BPMNDiagram", {"id": f"di_diagram_{pid}"})
    plane = ET.SubElement(diagram, f"{{{BPMNDI_NS}}}BPMNPlane",
                          {"id": f"di_plane_{pid}", "bpmnElement": pid})
    for nid in node_ids:
        x, y = bounds[nid]
        shape = ET.SubElement(plane, f"{{{BPMNDI_NS}}}BPMNShape",
                              {"id": f"di_shape_{nid}", "bpmnElement": nid})
        ET.SubElement(shape, f"{{{DC_NS}}}Bounds", {
            "x": str(x), "y": str(y), "width": str(NODE_WIDTH), "height": str(NODE_HEIGHT),
        })
    for flow in flows:
        edge = ET.SubElement(plane, f"{{{BPMNDI_NS}}}BPMNEdge",
                             {"id": f"di_edge_{flow.id}", "bpmnElement": flow.id})
        for x, y in _waypoints(bounds[flow.source], bounds[flow.target]):
            ET.SubElement(edge, f"{{{DI_NS}}}waypoint", {"x": str(x), "y": str(y)})
    return diagram


def _longest_path_layers(node_ids: list[str],
                         edges: list[tuple[str, str]]) -> dict[str, int]:
    """Longest-path layering from the start events, with back edges (found by
    DFS in document order) excluded so cycles terminate."""
    successors: dict[str, list[str]] = {nid: [] for nid in node_ids}
    for source, target in edges:
        successors[source].append(target)

    acyclic: list[tuple[str, str]] = []
    state: dict[str, int] = {}  # 0 unseen / 1 on stack / 2 done
    for root in node_ids:
        if state.get(root, 0) != 0:
            continue
        stack: list[tuple[str, int]] = [(root, 0)]
        state[root] = 1
        while stack:
            nid, cursor = stack[-1]
            if cursor >= len(successors[nid]):
                state[nid] = 2
                stack.pop()
                continue
            stack[-1] = (nid, cursor + 1)
            nxt = successors[nid][cursor]
            if state.get(nxt, 0) == 0:
                acyclic.append((nid, nxt))
                state[nxt] = 1
                stack.append((nxt, 0))
            elif state[nxt] == 2:
                acyclic.append((nid, nxt))

    incoming: dict[str, int] = {nid: 0 for nid in node_ids}
    forward: dict[str, list[str]] = {nid: [] for nid in node_ids}
    for source, target in acyclic:
        forward[source].append(target)
        incoming[target] += 1

    layers = {nid: 0 for nid in node_ids}
    remaining = dict(incoming)
    ready = [nid for nid in node_ids if remaining[nid] == 0]
    topo: list[str] = []
    while ready:
        current = ready.pop(0)
        topo.append(current)
        for nxt in forward[current]:
            remaining[nxt] -= 1
            if remaining[nxt] == 0:
                ready.append(nxt)
    for nid in topo:
        for nxt in forward[nid]:
            layers[nxt] = max(layers[nxt], layers[nid] + 1)
    return layers


def _waypoints(source_xy: tuple[int, int], target_xy: tuple[int, int]) -> list[tuple[int, int]]:
    sx, sy = source_xy
    tx, ty = target_xy
    start = (sx + NODE_WIDTH, sy + NODE_HEIGHT // 2)
    if sy == ty:
        return [start, (tx, ty + NODE_HEIGHT // 2)]
    bend = (tx + NODE_WIDTH // 2, sy + NODE_HEIGHT // 2)
    entry_y = ty if ty > sy else ty + NODE_HEIGHT
    return [start, bend, (tx + NODE_WIDTH // 2, entry_y)]
