"""BPMN 2.0 XML handling: parsing, deterministic serialization, diagram
interchange (DI) detach/reattach, and translatable-string extraction.

The contract is tree-level fidelity: ``serialize(parse(b))`` parsed again is
tree-equal to ``parse(b)``, and serializing the same tree twice is
byte-identical. Byte-identity with arbitrary third-party input is not a goal.
"""

from __future__ import annotations

import io
import logging
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

    def copy(self) -> "BpmnDocument":
        return BpmnDocument(deepcopy(self.root), dict(self.nsmap))

    def element_ids(self) -> set[str]:
        return {e.get("id") for e in self.root.iter() if e.get("id")}

    def processes(self) -> list[ET.Element]:
        return [e for e in self.root.iter(qname("process"))]


def parse(data: bytes | str) -> BpmnDocument:
    """Parse BPMN 2.0 XML bytes (or text) into a document.

    Raises XmlSyntaxError on malformed input and MissingBpmnNamespace when the
    root is not a ``definitions`` element in the BPMN model namespace.
    """
    raw = data.encode("utf-8") if isinstance(data, str) else bytes(data)
    root = None
    nsmap: dict[str, str] = {}
    try:
        for event, item in ET.iterparse(io.BytesIO(raw), events=("start-ns", "start")):
            if event == "start-ns":
                nsmap.setdefault(*item)
            elif root is None:
                root = item
    except ET.ParseError as exc:
        line, column = exc.position if exc.position else (None, None)
        raise XmlSyntaxError(f"XML syntax error: {exc}", line, column) from exc

    if root.tag != qname("definitions"):
        raise MissingBpmnNamespace(
            f"root element is {root.tag!r}, expected {qname('definitions')!r}"
        )
    return BpmnDocument(root, nsmap)


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


# --- diagram interchange ------------------------------------------------------


def strip_di(doc: BpmnDocument) -> tuple[BpmnDocument, list[tuple[int, ET.Element]]]:
    """Detach the BPMNDiagram children of ``definitions``, the only place
    BPMN 2.0 allows them, as (position among those children, diagram) pairs.
    The input document is not modified."""
    new_doc = doc.copy()
    diagrams = [(index, child) for index, child in enumerate(new_doc.root)
                if child.tag == f"{{{BPMNDI_NS}}}BPMNDiagram"]
    for _, diagram in diagrams:
        new_doc.root.remove(diagram)
    return new_doc, diagrams


def reattach_di(doc: BpmnDocument,
                diagrams: list[tuple[int, ET.Element]]) -> tuple[BpmnDocument, int]:
    """Reinsert the (position, diagram) pairs of ``strip_di``, dropping shapes
    and edges whose semantic element no longer exists; returns the document
    and the drop count."""
    new_doc = doc.copy()
    ids = new_doc.element_ids()
    dropped = 0
    for index, detached in diagrams:
        diagram = deepcopy(detached)
        for parent in list(diagram.iter()):
            for child in list(parent):
                if local_name(child.tag) in ("BPMNShape", "BPMNEdge"):
                    ref = child.get("bpmnElement")
                    if ref and ref not in ids:
                        parent.remove(child)
                        dropped += 1
        new_doc.root.insert(index, diagram)
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


def levenshtein(a: str, b: str, cutoff: int | None = None) -> int:
    """Edit distance between ``a`` and ``b``.

    With ``cutoff`` only the diagonal band ``|i - j| <= cutoff`` is computed
    and the scan stops once a whole row exceeds it (Ukkonen, Information and
    Control 64, 1985): a distance of at most ``cutoff`` is exact, a larger one
    is reported as ``cutoff + 1``."""
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if cutoff is None:
        cutoff = max(la, lb)
    over = cutoff + 1
    if abs(la - lb) > cutoff:
        return over
    # Cells outside the band hold ``over``, a lower bound for their true
    # distance, so every computed cell is exact up to ``cutoff``.
    prev = [min(j, over) for j in range(lb + 1)]
    for i in range(1, la + 1):
        ch = a[i - 1]
        lo, hi = max(1, i - cutoff), min(lb, i + cutoff)
        curr = [over] * (lb + 1)
        curr[0] = min(i, over)
        for j in range(lo, hi + 1):
            # min(substitute, delete, insert), unrolled
            best = prev[j - 1] if ch == b[j - 1] else prev[j - 1] + 1
            if prev[j] < best:
                best = prev[j] + 1
            if curr[j - 1] < best:
                best = curr[j - 1] + 1
            curr[j] = best
        if min(curr[lo - 1:hi + 1]) > cutoff:
            return over
        prev = curr
    return min(prev[lb], over)


def _nfc_strip(text: str) -> str:
    return unicodedata.normalize("NFC", text).strip()


def normalized_similarity(a: str, b: str) -> float:
    """1 - normalized edit distance, after NFC normalization and trimming.
    Two empty strings are fully similar."""
    na, nb = _nfc_strip(a), _nfc_strip(b)
    if na == nb:
        return 1.0
    if not na or not nb:
        return 0.0
    return 1.0 - levenshtein(na, nb) / max(len(na), len(nb))


def _closest(target: str, candidates: Sequence[tuple[str, str]],
             threshold: float) -> str | None:
    """The translation of the first (normalized key, translation) candidate
    with the highest ``normalized_similarity`` to the normalized ``target``,
    or None unless that similarity is above 0 and at least ``threshold``.

    A similarity never exceeds ``1 - |la - lb| / max(la, lb)``, so a key
    whose bound cannot win is skipped, and the other distances are cut off
    at the largest one that could still win."""
    best, best_sim = None, 0.0
    for key, translation in candidates:
        if key == target:  # similarity 1.0, which no later key can beat
            return translation if threshold <= 1.0 else None
        if not key or not target:
            continue
        longest = max(len(key), len(target))
        bound = 1.0 - abs(len(key) - len(target)) / longest
        if not threshold <= bound > best_sim:  # also skips all for a NaN threshold
            continue
        cutoff = _winning_distance(longest, best_sim, threshold)
        distance = levenshtein(target, key, cutoff)
        if distance <= cutoff:
            best, best_sim = translation, 1.0 - distance / longest
    return best


def _winning_distance(longest: int, best_sim: float, threshold: float) -> int:
    """The largest distance d whose similarity ``1 - d / longest`` is above
    ``best_sim`` and at least ``threshold`` in float arithmetic, given that
    some d wins. The first guess can be one off: ``(1 - 0.8) * 5 < 1``."""
    def wins(distance: int) -> bool:
        sim = 1.0 - distance / longest
        return sim > best_sim and sim >= threshold

    distance = int((1.0 - max(best_sim, threshold)) * longest)
    while wins(distance + 1):
        distance += 1
    while not wins(distance):
        distance -= 1
    return distance


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
    candidates = [(_nfc_strip(key), translation) for key, translation in usable.items()]

    for elem, path, attr in _walk_translatable(new_doc, effective, include_documentation):
        value = elem.get(attr) if attr is not None else elem.text
        replacement = usable.get(value)
        if replacement is None:
            replacement = _closest(_nfc_strip(value), candidates, threshold)
        if replacement is None:
            warnings.append(f"no translation matched {value!r} at {path}")
            continue
        if attr is not None:
            elem.set(attr, replacement)
        else:
            elem.text = replacement
    return new_doc, warnings
