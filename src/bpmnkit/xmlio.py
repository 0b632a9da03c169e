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
from collections import Counter
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
    if not ("&" in text or "<" in text or ">" in text or "\r" in text):
        return text
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace("\r", "&#13;")
    )


def _escape_attr(value: str) -> str:
    if not ("&" in value or "<" in value or ">" in value or '"' in value
            or "\n" in value or "\t" in value or "\r" in value):
        return value
    return (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
        .replace("\n", "&#10;")
        .replace("\t", "&#9;")
        .replace("\r", "&#13;")
    )


def _uris(names: Iterable[str]) -> list[str]:
    """The namespace URIs of qualified names, in first-seen order."""
    return list(dict.fromkeys(name[1:].split("}", 1)[0] for name in names
                              if isinstance(name, str) and name.startswith("{")))


def _prefix_assignment(doc: BpmnDocument) -> tuple[dict[str, str], list[tuple[str, str]]]:
    """Choose one prefix per namespace URI and the declarations to emit.

    Returns (``{uri}local`` -> ``prefix:local`` for every tag and attribute
    name in the tree, ordered (prefix, uri) declarations). Attribute
    namespaces always get a non-empty prefix.
    """
    tags: dict[str, None] = {}
    attrs: dict[str, str] = {}  # only the keys matter: names in first-seen order
    for elem in doc.root.iter():
        tags[elem.tag] = None
        attrs.update(elem.attrib)
    tag_uris, attr_uris = _uris(tags), _uris(attrs)

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
    names = {}
    for name in [*tags, *attrs]:
        if isinstance(name, str) and name.startswith("{"):
            uri, local = name[1:].split("}", 1)
            prefix = uri_to_prefix[uri]
            names[name] = f"{prefix}:{local}" if prefix else local
        else:
            names[name] = name
    return names, declarations


def _write_element(out: list[str], elem: ET.Element, names: dict[str, str],
                   declarations: list[tuple[str, str]] | None) -> None:
    tag = names[elem.tag]
    out.append(f"<{tag}")
    if declarations:
        for prefix, uri in declarations:
            name = f"xmlns:{prefix}" if prefix else "xmlns"
            out.append(f' {name}="{_escape_attr(uri)}"')
    for name, value in elem.attrib.items():
        out.append(f' {names[name]}="{_escape_attr(value)}"')
    if elem.text is None and len(elem) == 0:
        out.append("/>")
    else:
        out.append(">")
        if elem.text:
            out.append(_escape_text(elem.text))
        for child in elem:
            _write_element(out, child, names, None)
        out.append(f"</{tag}>")
    if elem.tail:
        out.append(_escape_text(elem.tail))


def serialize(doc: BpmnDocument) -> bytes:
    """Serialize a document to UTF-8 bytes. Deterministic for a given tree."""
    names, declarations = _prefix_assignment(doc)
    out = ['<?xml version="1.0" encoding="UTF-8"?>\n']
    _write_element(out, doc.root, names, declarations)
    text = "".join(out)
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


def strip_di(doc: BpmnDocument) -> tuple[BpmnDocument, list[ET.Element]]:
    """Detach the BPMNDiagram children of ``definitions``, the only place
    BPMN 2.0 allows them.

    Nothing is copied: the result's root is a new ``definitions`` element
    that holds the very same non-DI child elements as ``doc.root``, and the
    list holds ``doc``'s own diagrams. ``doc.root`` keeps all its children,
    so an edit below the result's root is an edit of ``doc``; copy the
    result before changing it in place."""
    root = doc.root.makeelement(doc.root.tag, doc.root.attrib)
    root.text, root.tail = doc.root.text, doc.root.tail
    diagrams = []
    for child in doc.root:
        if child.tag == f"{{{BPMNDI_NS}}}BPMNDiagram":
            diagrams.append(child)
        else:
            root.append(child)
    return BpmnDocument(root, dict(doc.nsmap)), diagrams


def reattach_di(doc: BpmnDocument, diagrams: list[ET.Element]) -> tuple[BpmnDocument, int]:
    """Append a copy of each diagram of ``strip_di`` to ``doc`` itself, after
    its root elements as BPMN 2.0 orders them, dropping shapes and edges
    whose semantic element no longer exists; returns ``doc`` and the drop
    count. The given diagrams are left as they were."""
    ids = doc.element_ids()
    dropped = 0
    for detached in diagrams:
        diagram = deepcopy(detached)
        for parent in list(diagram.iter()):
            for child in list(parent):
                if local_name(child.tag) in ("BPMNShape", "BPMNEdge"):
                    ref = child.get("bpmnElement")
                    if ref and ref not in ids:
                        parent.remove(child)
                        dropped += 1
        doc.root.append(diagram)
    if dropped:
        logger.info("reattach_di dropped %d stale DI shape(s)/edge(s)", dropped)
    return doc, dropped


# --- translatable strings -----------------------------------------------------


@dataclass(frozen=True)
class TranslatableString:
    """One occurrence of translatable text: the attribute it sits in, or
    None for ``documentation`` text content."""

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
    """Yield (element, attribute-or-None, text) in document order."""
    for elem in doc.root.iter():
        for attr in attrs:
            if value := elem.get(attr):
                yield elem, attr, value
        if include_documentation and elem.text and elem.text.strip() \
                and local_name(elem.tag) == "documentation":
            yield elem, None, elem.text


def _element_path(elem: ET.Element, parents: dict[ET.Element, ET.Element]) -> str:
    """``/definitions/process[0]/task[2]``: the local names from the root
    down, each below it with its position among its parent's children."""
    steps = []
    while elem in parents:
        parent = parents[elem]
        steps.append(f"/{local_name(elem.tag)}[{list(parent).index(elem)}]")
        elem = parent
    return f"/{local_name(elem.tag)}" + "".join(reversed(steps))


def extract_strings(doc: BpmnDocument, attrs: Sequence[str] | None = None,
                    include_documentation: bool = True) -> list[TranslatableString]:
    """Collect translatable text occurrences (``name`` attributes by default,
    plus ``documentation`` text). Identifiers are never extracted."""
    effective = _effective_attrs(attrs)
    return [TranslatableString(attr, value)
            for _, attr, value in _walk_translatable(doc, effective, include_documentation)]


def unique_values(entries: Iterable[TranslatableString]) -> list[str]:
    """Distinct extracted values in first-seen order (the translation payload)."""
    seen: dict[str, None] = {}
    for entry in entries:
        seen.setdefault(entry.value, None)
    return list(seen)


def levenshtein(a: str, b: str, cutoff: int) -> int:
    """Edit distance between ``a`` and ``b``, up to ``cutoff``.

    Only the diagonal band ``|i - j| <= cutoff`` is computed and the scan
    stops once a whole row exceeds it (Ukkonen, Information and Control 64,
    1985): a distance of at most ``cutoff`` is exact, a larger one is
    reported as ``cutoff + 1``."""
    if a == b:
        return 0
    la, lb = len(a), len(b)
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


def _closest(target: str, candidates: Sequence[tuple[str, Counter, str]],
             threshold: float) -> str | None:
    """The translation of the first (normalized key, key's character counts,
    translation) candidate with the highest similarity ``1 - distance /
    longer length`` to the normalized ``target``, or None unless that
    similarity is above 0 and at least ``threshold``.

    A similarity never exceeds ``1 - |la - lb| / max(la, lb)``, so a key
    whose bound cannot win is skipped, and the other distances are cut off
    at ``int((1 - max(best, threshold)) * longer length) + 1``: no larger
    distance wins, and the ``+ 1`` keeps a winning distance that float
    rounding puts past the product, as in ``(1 - 0.8) * 5 < 1``. The bag
    distance, the longer length minus the characters the two strings share
    as multisets, is a lower bound on the edit distance (Bartolini, Ciaccia
    and Patella, SPIRE 2002), so a key whose bag distance exceeds that
    cutoff is skipped too."""
    best, best_sim = None, 0.0
    target_counts = Counter(target)
    for key, key_counts, translation in candidates:
        if not key or not target:
            continue
        longest = max(len(key), len(target))
        bound = 1.0 - abs(len(key) - len(target)) / longest
        if not threshold <= bound > best_sim:  # also skips all for a NaN threshold
            continue
        cutoff = int((1.0 - max(best_sim, threshold)) * longest) + 1
        shared = sum(n if n < (m := key_counts.get(ch, 0)) else m  # min(n, m), inlined
                     for ch, n in target_counts.items())
        if longest - shared > cutoff:  # the bag distance
            continue
        sim = 1.0 - levenshtein(target, key, cutoff) / longest
        if sim > best_sim and sim >= threshold:
            best, best_sim = translation, sim
    return best


def reinsert_strings(doc: BpmnDocument, mapping: dict[str, str], threshold: float = 0.8,
                     attrs: Sequence[str] | None = None,
                     include_documentation: bool = True) -> tuple[BpmnDocument, list[str]]:
    """Apply a {original: translated} mapping to the extracted locations.

    Exact key hits are applied directly, and a value that is a key with an
    empty translation keeps its text; otherwise the highest-similarity key
    (1 - normalized edit distance, after NFC normalization and trimming) is
    used when it clears ``threshold``. Locations
    without an acceptable match are left unchanged and reported as warnings,
    one per location. Each distinct value is matched once per call. Content
    outside the configured locations is never touched.
    """
    effective = _effective_attrs(attrs)
    new_doc = doc.copy()
    usable = {k: v for k, v in mapping.items() if v}
    warnings = [f"empty translation for {k!r} ignored" for k, v in mapping.items() if not v]
    keys = [(_nfc_strip(key), translation) for key, translation in usable.items()]
    candidates = [(key, Counter(key), translation) for key, translation in keys]
    first = dict(reversed(keys))  # normalized key -> the translation of its first key
    # value -> replacement; None: no match. An empty translation keeps the key.
    matches: dict[str, str | None] = {k: v or k for k, v in mapping.items()}
    parents: dict[ET.Element, ET.Element] = {}  # child -> parent, built for the first warning

    for elem, attr, value in _walk_translatable(new_doc, effective, include_documentation):
        if value not in matches:
            target = _nfc_strip(value)
            if target in first:  # similarity 1.0, which no other key can beat
                matches[value] = first[target] if threshold <= 1.0 else None
            else:
                matches[value] = _closest(target, candidates, threshold)
        replacement = matches[value]
        if replacement is None:
            parents = parents or {child: parent for parent in new_doc.root.iter()
                                  for child in parent}
            warnings.append(f"no translation matched {value!r} at {_element_path(elem, parents)}")
            continue
        if attr is not None:
            elem.set(attr, replacement)
        else:
            elem.text = replacement
    return new_doc, warnings
