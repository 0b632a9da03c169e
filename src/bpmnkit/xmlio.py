"""BPMN 2.0 XML handling: parsing, deterministic serialization, diagram
interchange (DI) detach/reattach, and translatable-string extraction.

The contract is tree-level fidelity: ``serialize(parse(b))`` parsed again is
tree-equal to ``parse(b)``, and serializing the same tree twice is
byte-identical. Byte-identity with arbitrary third-party input is not a goal.
"""

from __future__ import annotations

import io
import logging
import re
import unicodedata
import xml.etree.ElementTree as ET
from copy import deepcopy
from dataclasses import dataclass, field
from typing import Iterable, Sequence

logger = logging.getLogger(__name__)

BPMN_NS = "http://www.omg.org/spec/BPMN/20100524/MODEL"
BPMNDI_NS = "http://www.omg.org/spec/BPMN/20100524/DI"
DC_NS = "http://www.omg.org/spec/DD/20100524/DC"
DI_NS = "http://www.omg.org/spec/DD/20100524/DI"
XML_NS = "http://www.w3.org/XML/1998/namespace"

# Preferred prefixes for namespaces that appear in generated content but were
# not declared in the source document.
_WELL_KNOWN_PREFIXES = {
    BPMN_NS: "bpmn",
    BPMNDI_NS: "bpmndi",
    DC_NS: "dc",
    DI_NS: "di",
}

DEFAULT_TRANSLATABLE_ATTRS = ("name",)


class XmlSyntaxError(ValueError):
    """Malformed XML. Carries the parser's line/column when available."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.line = line
        self.column = column


class MissingBpmnNamespace(ValueError):
    """The document root is not a BPMN 2.0 ``definitions`` element."""


class DocumentWithoutProcess(ValueError):
    """The document contains no ``process`` definition."""


def local_name(tag: str) -> str:
    """Strip the ``{namespace}`` qualifier from an element tag."""
    return tag.rsplit("}", 1)[-1]


def qname(local: str) -> str:
    """Qualify a local name with the BPMN model namespace."""
    return f"{{{BPMN_NS}}}{local}"


@dataclass
class BpmnDocument:
    """A parsed BPMN file: element tree plus the source prefix declarations."""

    root: ET.Element
    nsmap: dict[str, str] = field(default_factory=dict)
    encoding: str = "utf-8"

    def copy(self) -> "BpmnDocument":
        return BpmnDocument(deepcopy(self.root), dict(self.nsmap), self.encoding)

    def find_by_id(self, element_id: str) -> ET.Element | None:
        for elem in self.root.iter():
            if elem.get("id") == element_id:
                return elem
        return None

    def element_ids(self) -> set[str]:
        return {e.get("id") for e in self.root.iter() if e.get("id")}

    def processes(self) -> list[ET.Element]:
        return [e for e in self.root.iter(qname("process"))]


def _sniff_encoding(data: bytes) -> str:
    m = re.search(rb'encoding=["\']([A-Za-z0-9._-]+)["\']', data[:200])
    return m.group(1).decode("ascii") if m else "utf-8"


def parse(data: bytes | str) -> BpmnDocument:
    """Parse BPMN 2.0 XML bytes (or text) into a document.

    Raises XmlSyntaxError on malformed input and MissingBpmnNamespace when the
    root is not a ``definitions`` element in the BPMN model namespace.
    """
    raw = data.encode("utf-8") if isinstance(data, str) else bytes(data)
    try:
        root = ET.fromstring(raw)
    except ET.ParseError as exc:
        line, column = exc.position if exc.position else (None, None)
        raise XmlSyntaxError(f"XML syntax error: {exc}", line, column) from exc

    nsmap: dict[str, str] = {}
    try:
        for _event, (prefix, uri) in ET.iterparse(io.BytesIO(raw), events=("start-ns",)):
            nsmap.setdefault(prefix, uri)
    except ET.ParseError:  # pragma: no cover - already validated above
        pass

    if root.tag != qname("definitions"):
        raise MissingBpmnNamespace(
            f"root element is {root.tag!r}, expected {qname('definitions')!r}"
        )
    return BpmnDocument(root, nsmap, _sniff_encoding(raw))


# --- serialization -----------------------------------------------------------


def _escape_text(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace("\r", "&#13;")
    )


def _escape_attr(value: str) -> str:
    return (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
        .replace("\n", "&#10;")
        .replace("\t", "&#9;")
        .replace("\r", "&#13;")
    )


def _collect_uris(elem: ET.Element, tag_uris: list[str], attr_uris: list[str]) -> None:
    if isinstance(elem.tag, str) and elem.tag.startswith("{"):
        uri = elem.tag[1:].split("}", 1)[0]
        if uri not in tag_uris:
            tag_uris.append(uri)
    for name in elem.attrib:
        if name.startswith("{"):
            uri = name[1:].split("}", 1)[0]
            if uri not in attr_uris:
                attr_uris.append(uri)
    for child in elem:
        _collect_uris(child, tag_uris, attr_uris)


def _prefix_assignment(doc: BpmnDocument) -> tuple[dict[str, str], list[tuple[str, str]]]:
    """Choose one prefix per namespace URI and the declarations to emit.

    Returns (uri -> prefix, ordered (prefix, uri) declarations). Attribute
    namespaces always get a non-empty prefix.
    """
    tag_uris: list[str] = []
    attr_uris: list[str] = []
    _collect_uris(doc.root, tag_uris, attr_uris)

    declarations: list[tuple[str, str]] = [(p, u) for p, u in doc.nsmap.items()]
    uri_to_prefix: dict[str, str] = {}
    for prefix, uri in declarations:
        if uri not in uri_to_prefix:
            uri_to_prefix[uri] = prefix
        elif uri_to_prefix[uri] == "" and prefix and uri in attr_uris:
            # attributes cannot use the default namespace
            uri_to_prefix[uri] = prefix

    taken = {p for p, _ in declarations}
    counter = 0
    for uri in tag_uris + attr_uris:
        if uri == XML_NS:
            continue
        needs_nonempty = uri in attr_uris
        current = uri_to_prefix.get(uri)
        if current is not None and not (needs_nonempty and current == ""):
            continue
        candidate = _WELL_KNOWN_PREFIXES.get(uri)
        while not candidate or candidate in taken:
            candidate = f"ns{counter}"
            counter += 1
        taken.add(candidate)
        uri_to_prefix[uri] = candidate
        declarations.append((candidate, uri))

    uri_to_prefix[XML_NS] = "xml"
    return uri_to_prefix, declarations


def _qualified(name: str, uri_to_prefix: dict[str, str]) -> str:
    if not name.startswith("{"):
        return name
    uri, local = name[1:].split("}", 1)
    prefix = uri_to_prefix[uri]
    return f"{prefix}:{local}" if prefix else local


def _write_element(out: io.StringIO, elem: ET.Element, uri_to_prefix: dict[str, str],
                   declarations: list[tuple[str, str]] | None) -> None:
    tag = _qualified(elem.tag, uri_to_prefix)
    out.write(f"<{tag}")
    if declarations:
        for prefix, uri in declarations:
            name = f"xmlns:{prefix}" if prefix else "xmlns"
            out.write(f' {name}="{_escape_attr(uri)}"')
    for name, value in elem.attrib.items():
        out.write(f' {_qualified(name, uri_to_prefix)}="{_escape_attr(value)}"')
    if elem.text is None and len(elem) == 0:
        out.write("/>")
    else:
        out.write(">")
        if elem.text:
            out.write(_escape_text(elem.text))
        for child in elem:
            _write_element(out, child, uri_to_prefix, None)
        out.write(f"</{tag}>")
    if elem.tail:
        out.write(_escape_text(elem.tail))


def serialize(doc: BpmnDocument) -> bytes:
    """Serialize a document to UTF-8 bytes. Deterministic for a given tree."""
    uri_to_prefix, declarations = _prefix_assignment(doc)
    out = io.StringIO()
    out.write('<?xml version="1.0" encoding="UTF-8"?>\n')
    _write_element(out, doc.root, uri_to_prefix, declarations)
    text = out.getvalue()
    if not text.endswith("\n"):
        text += "\n"
    return text.encode("utf-8")


def tree_equal(a: ET.Element, b: ET.Element) -> bool:
    """Structural equality: tag, attributes, text, tail, children (recursive)."""
    if a.tag != b.tag or a.attrib != b.attrib:
        return False
    if (a.text or "") != (b.text or "") or (a.tail or "") != (b.tail or ""):
        return False
    if len(a) != len(b):
        return False
    return all(tree_equal(ca, cb) for ca, cb in zip(a, b))


def documents_equal(a: BpmnDocument, b: BpmnDocument) -> bool:
    return tree_equal(a.root, b.root)


# --- diagram interchange ------------------------------------------------------


@dataclass
class DiEntry:
    parent_path: tuple[int, ...]
    index: int
    element: ET.Element


@dataclass
class DiagramInterchange:
    """Detached BPMNDI subtrees, with enough context to reinsert them."""

    entries: list[DiEntry] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        return not self.entries

    def references(self) -> list[tuple[str, str]]:
        """(DI element id, referenced semantic element id) for shapes/edges."""
        refs = []
        for entry in self.entries:
            for elem in entry.element.iter():
                if local_name(elem.tag) in ("BPMNShape", "BPMNEdge"):
                    refs.append((elem.get("id", ""), elem.get("bpmnElement", "")))
        return refs


def _resolve_path(root: ET.Element, path: tuple[int, ...]) -> ET.Element | None:
    elem = root
    for idx in path:
        if idx >= len(elem):
            return None
        elem = elem[idx]
    return elem


def _is_di_diagram(elem: ET.Element) -> bool:
    return elem.tag == f"{{{BPMNDI_NS}}}BPMNDiagram"


def strip_di(doc: BpmnDocument) -> tuple[BpmnDocument, DiagramInterchange]:
    """Detach all BPMNDI diagrams. The input document is not modified."""
    new_doc = doc.copy()
    entries: list[DiEntry] = []

    def collect(parent: ET.Element, path: tuple[int, ...]) -> None:
        for idx, child in enumerate(list(parent)):
            if _is_di_diagram(child):
                entries.append(DiEntry(path, idx, child))
            else:
                collect(child, path + (idx,))

    collect(new_doc.root, ())
    for entry in entries:
        parent = _resolve_path(new_doc.root, entry.parent_path)
        assert parent is not None
        parent.remove(entry.element)
    return new_doc, DiagramInterchange(entries)


def reattach_di(doc: BpmnDocument, di: DiagramInterchange) -> tuple[BpmnDocument, int]:
    """Reinsert detached DI. Shapes/edges whose referenced semantic element no
    longer exists are dropped; returns the document and the drop count.
    """
    new_doc = doc.copy()
    ids = new_doc.element_ids()
    dropped = 0
    for entry in di.entries:
        diagram = deepcopy(entry.element)
        for parent in list(diagram.iter()):
            for child in list(parent):
                if local_name(child.tag) in ("BPMNShape", "BPMNEdge"):
                    ref = child.get("bpmnElement")
                    if ref and ref not in ids:
                        parent.remove(child)
                        dropped += 1
        target = _resolve_path(new_doc.root, entry.parent_path)
        if target is None:
            target = new_doc.root
        target.insert(min(entry.index, len(target)), diagram)
    if dropped:
        logger.info("reattach_di dropped %d stale DI shape(s)/edge(s)", dropped)
    return new_doc, dropped


# --- translatable strings -----------------------------------------------------


@dataclass(frozen=True)
class TranslatableString:
    """One occurrence of translatable text: element path plus attribute name,
    or attribute=None for ``documentation`` text content."""

    path: str
    attribute: str | None
    value: str


def _effective_attrs(attrs: Sequence[str] | None) -> tuple[str, ...]:
    if attrs is None:
        return DEFAULT_TRANSLATABLE_ATTRS
    cleaned = []
    for attr in attrs:
        if attr == "default":
            # `default` on a gateway is an ID reference; translating it breaks
            # the model.
            logger.warning("refusing to treat ID-reference attribute 'default' as translatable")
            continue
        cleaned.append(attr)
    return tuple(cleaned)


def _walk_translatable(doc: BpmnDocument, attrs: tuple[str, ...],
                       include_documentation: bool):
    """Yield (element, path, attribute-or-None) in document order."""

    def walk(elem: ET.Element, path: str):
        for attr in attrs:
            if elem.get(attr):
                yield elem, path, attr
        if include_documentation and local_name(elem.tag) == "documentation" \
                and elem.text and elem.text.strip():
            yield elem, path, None
        for idx, child in enumerate(elem):
            yield from walk(child, f"{path}/{local_name(child.tag)}[{idx}]")

    yield from walk(doc.root, f"/{local_name(doc.root.tag)}")


def extract_strings(doc: BpmnDocument, attrs: Sequence[str] | None = None,
                    include_documentation: bool = True) -> list[TranslatableString]:
    """Collect translatable text occurrences (``name`` attributes by default,
    plus ``documentation`` text). Identifiers are never extracted."""
    effective = _effective_attrs(attrs)
    found = []
    for elem, path, attr in _walk_translatable(doc, effective, include_documentation):
        value = elem.get(attr) if attr is not None else elem.text
        found.append(TranslatableString(path, attr, value))
    return found


def unique_values(entries: Iterable[TranslatableString]) -> list[str]:
    """Distinct extracted values in first-seen order (the translation payload)."""
    seen: dict[str, None] = {}
    for entry in entries:
        seen.setdefault(entry.value, None)
    return list(seen)


def levenshtein(a: str, b: str) -> int:
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ch_a in enumerate(a, start=1):
        curr = [i]
        for j, ch_b in enumerate(b, start=1):
            cost = 0 if ch_a == ch_b else 1
            curr.append(min(curr[j - 1] + 1, prev[j] + 1, prev[j - 1] + cost))
        prev = curr
    return prev[-1]


def normalized_similarity(a: str, b: str) -> float:
    """1 - normalized edit distance, after NFC normalization and trimming.
    Two empty strings are fully similar."""
    na = unicodedata.normalize("NFC", a).strip()
    nb = unicodedata.normalize("NFC", b).strip()
    if na == nb:
        return 1.0
    if not na or not nb:
        return 0.0
    return 1.0 - levenshtein(na, nb) / max(len(na), len(nb))


def reinsert_strings(doc: BpmnDocument, mapping: dict[str, str], threshold: float = 0.8,
                     attrs: Sequence[str] | None = None,
                     include_documentation: bool = True) -> tuple[BpmnDocument, list[str]]:
    """Apply a {original: translated} mapping to the extracted locations.

    Exact key hits are applied directly; otherwise the highest-similarity key
    (``normalized_similarity``) is used when it clears ``threshold``. Locations
    without an acceptable match are left unchanged and reported as warnings.
    Content outside the configured locations is never touched.
    """
    effective = _effective_attrs(attrs)
    new_doc = doc.copy()
    warnings: list[str] = []
    usable = {k: v for k, v in mapping.items() if v}
    for k in mapping:
        if not mapping[k]:
            warnings.append(f"empty translation for {k!r} ignored")

    for elem, path, attr in _walk_translatable(new_doc, effective, include_documentation):
        value = elem.get(attr) if attr is not None else elem.text
        replacement = usable.get(value)
        if replacement is None and usable:
            best_key = None
            best_sim = 0.0
            for key in usable:
                sim = normalized_similarity(value, key)
                if sim > best_sim:
                    best_key, best_sim = key, sim
            if best_key is not None and best_sim >= threshold:
                replacement = usable[best_key]
        if replacement is None:
            warnings.append(f"no translation matched {value!r} at {path}")
            continue
        if attr is not None:
            elem.set(attr, replacement)
        else:
            elem.text = replacement
    return new_doc, warnings
