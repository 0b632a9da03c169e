from __future__ import annotations

import logging
import unicodedata
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings, strategies as st

from bpmnkit import xmlio
from bpmnkit.xmlio import (
    BPMN_NS,
    BPMNDI_NS,
    MissingBpmnNamespace,
    XmlSyntaxError,
    extract_strings,
    levenshtein,
    parse,
    reattach_di,
    reinsert_strings,
    serialize,
    strip_di,
    tree_equal,
    unique_values,
)

from conftest import ALL_FIXTURES, element_by_id, fixture_bytes, load_doc

MINIMAL = b"""<?xml version="1.0" encoding="UTF-8"?>
<bpmn:definitions xmlns:bpmn="http://www.omg.org/spec/BPMN/20100524/MODEL" id="d1">
  <bpmn:process id="p1"/>
</bpmn:definitions>"""


class TestParse:
    def test_minimal_document(self):
        doc = parse(MINIMAL)
        assert len(doc.processes()) == 1
        assert doc.nsmap["bpmn"].endswith("BPMN/20100524/MODEL")

    def test_truncated_input_reports_position(self):
        for data in (MINIMAL[:40], MINIMAL.replace(b'id="p1"', b"id=p1")):
            with pytest.raises(XmlSyntaxError) as exc:
                parse(data)
            assert exc.value.line is not None
            assert exc.value.column is not None
        assert (exc.value.line, exc.value.column) == (3, 19)

    def test_nsmap_keeps_first_uri_and_collects_nested_prefixes(self):
        doc = parse(b"""<bpmn:definitions xmlns:bpmn="http://www.omg.org/spec/BPMN/20100524/MODEL"
            xmlns:x="urn:first">
          <bpmn:process id="p" xmlns:x="urn:second" xmlns:y="urn:y"><x:a/><y:b/></bpmn:process>
        </bpmn:definitions>""")
        assert doc.nsmap == {"bpmn": BPMN_NS, "x": "urn:first", "y": "urn:y"}

    def test_wrong_namespace_rejected(self):
        with pytest.raises(MissingBpmnNamespace):
            parse(b'<definitions xmlns="http://example.com/not-bpmn"><process id="p"/></definitions>')

    def test_di_section_is_retained(self):
        doc = load_doc("diamond.bpmn")
        di_elements = [e for e in doc.root.iter() if e.tag.startswith(f"{{{BPMNDI_NS}}}")]
        assert di_elements


class TestSerialize:
    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_round_trip_tree_equality(self, name):
        doc = parse(fixture_bytes(name))
        again = parse(serialize(doc))
        assert tree_equal(doc.root, again.root)

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_serialize_is_deterministic(self, name):
        doc = parse(fixture_bytes(name))
        assert serialize(doc) == serialize(doc)

    def test_double_round_trip_is_stable(self):
        doc = parse(fixture_bytes("loan-approval.bpmn"))
        once = serialize(doc)
        twice = serialize(parse(once))
        assert once == twice

    def test_non_ascii_labels_survive(self):
        doc = parse(fixture_bytes("unicode.bpmn"))
        out = serialize(doc).decode("utf-8")
        assert "Prüfen" in out
        assert "Überprüfung der eingegangenen Bestellung" in out

    def test_escaping_round_trips(self):
        raw = (b'<bpmn:definitions xmlns:bpmn="http://www.omg.org/spec/BPMN/20100524/MODEL">'
               b'<bpmn:process id="p1"><bpmn:task id="t1" name="a &lt; b &amp; &quot;c&quot;"/>'
               b'</bpmn:process></bpmn:definitions>')
        doc = parse(raw)
        again = parse(serialize(doc))
        task = next(e for e in again.root.iter() if e.get("id") == "t1")
        assert task.get("name") == 'a < b & "c"'

    @pytest.mark.parametrize("char, escaped", [
        ("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"), ('"', "&quot;"),
        ("\n", "&#10;"), ("\t", "&#9;"), ("\r", "&#13;"),
    ])
    def test_every_escaped_character_is_written_escaped_and_read_back(self, char, escaped):
        in_text = char in "&<>\r"  # text and tails escape these only
        doc = parse(MINIMAL)
        task = ET.SubElement(doc.processes()[0], f"{{{BPMN_NS}}}task", id="t1",
                             name=f"a{char}b")
        note = ET.SubElement(task, f"{{{BPMN_NS}}}documentation")
        note.text, note.tail = f"c{char}d", f"e{char}f"
        out = serialize(doc).decode("utf-8")
        assert f'name="a{escaped}b"' in out
        written = escaped if in_text else char
        assert f">c{written}d</bpmn:documentation>e{written}f<" in out
        again = element_by_id(parse(out), "t1")
        assert again.get("name") == f"a{char}b"
        assert (again[0].text, again[0].tail) == (f"c{char}d", f"e{char}f")


class TestDiagramInterchange:
    def test_strip_removes_all_di(self):
        doc = load_doc("diamond.bpmn")
        stripped, di = strip_di(doc)
        assert not [e for e in stripped.root.iter()
                    if e.tag == f"{{{BPMNDI_NS}}}BPMNDiagram"]
        assert di
        assert any(e.get("id") == "shape_start_1" and e.get("bpmnElement") == "start_1"
                   for diagram in di for e in diagram.iter())

    def test_strip_without_di_is_identity(self):
        doc = load_doc("chain3.bpmn")
        stripped, di = strip_di(doc)
        assert di == []
        assert tree_equal(doc.root, stripped.root)

    def test_strip_then_reattach_restores_tree(self):
        doc = load_doc("diamond.bpmn")
        stripped, di = strip_di(doc)
        restored, dropped = reattach_di(stripped, di)
        assert dropped == 0
        assert tree_equal(doc.root, restored.root)

    def test_strip_shares_the_semantic_children_and_leaves_the_input(self):
        doc = load_doc("diamond.bpmn")
        children, before = list(doc.root), serialize(doc)
        stripped, di = strip_di(doc)
        assert di
        assert list(doc.root) == children  # elements compare by identity
        assert serialize(doc) == before
        kept = [child for child in children if child.tag != f"{{{BPMNDI_NS}}}BPMNDiagram"]
        assert list(stripped.root) == kept
        assert stripped.root is not doc.root
        assert stripped.root.attrib == doc.root.attrib

    def test_reattach_returns_the_document_it_was_given(self):
        doc = load_doc("diamond.bpmn")
        stripped, di = strip_di(doc.copy())
        restored, _ = reattach_di(stripped, di)
        assert restored is stripped
        assert tree_equal(doc.root, restored.root)
        # the detached diagrams are copied in, not moved
        assert all(diagram is not child for diagram in di for child in restored.root)

    def test_diagrams_come_back_after_the_root_elements(self):
        doc = parse(f"""<definitions xmlns="{BPMN_NS}" xmlns:di="{BPMNDI_NS}">
          <di:BPMNDiagram id="d0"/><process id="p1"/><message id="m"/>
          <di:BPMNDiagram id="d1"/><process id="p2"/></definitions>""")
        stripped, di = strip_di(doc)
        assert [child.get("id") for child in stripped.root] == ["p1", "m", "p2"]
        assert [diagram.get("id") for diagram in di] == ["d0", "d1"]
        restored, dropped = reattach_di(stripped, di)
        assert dropped == 0
        assert [child.get("id") for child in restored.root] == ["p1", "m", "p2", "d0", "d1"]

    def test_diagram_below_a_process_is_left_in_place(self):
        doc = parse(f"""<definitions xmlns="{BPMN_NS}" xmlns:di="{BPMNDI_NS}">
          <process id="p"><di:BPMNDiagram id="nested"/></process>
          <di:BPMNDiagram id="top"/></definitions>""")
        stripped, di = strip_di(doc)
        assert [diagram.get("id") for diagram in di] == ["top"]
        assert element_by_id(stripped, "nested") is not None

    def test_stale_shape_is_dropped_and_counted(self):
        doc = load_doc("diamond.bpmn")
        stripped, di = strip_di(doc.copy())
        process = stripped.processes()[0]
        victim = next(e for e in process if e.get("id") == "task_approve")
        process.remove(victim)
        restored, dropped = reattach_di(stripped, di)
        assert dropped == 1
        refs = {e.get("bpmnElement") for e in restored.root.iter()
                if e.tag.endswith("BPMNShape")}
        assert "task_approve" not in refs

    def test_new_semantic_element_needs_no_di(self):
        import xml.etree.ElementTree as ET
        from bpmnkit.xmlio import qname

        doc = load_doc("diamond.bpmn")
        stripped, di = strip_di(doc.copy())
        process = stripped.processes()[0]
        ET.SubElement(process, qname("userTask"), {"id": "task_new", "name": "Extra"})
        restored, dropped = reattach_di(stripped, di)
        assert dropped == 0
        assert element_by_id(restored, "task_new") is not None


class TestExtractStrings:
    def test_duplicate_values_collapse_in_unique_view(self):
        doc = parse(b"""<?xml version="1.0"?>
            <bpmn:definitions xmlns:bpmn="http://www.omg.org/spec/BPMN/20100524/MODEL">
              <bpmn:process id="p1" name="Pr\xc3\xbcfen">
                <bpmn:task id="t1" name="Pr\xc3\xbcfen"/>
              </bpmn:process>
            </bpmn:definitions>""")
        entries = extract_strings(doc)
        assert len(entries) == 2
        assert unique_values(entries) == ["Prüfen"]

    def test_no_names_yields_empty(self):
        doc = parse(MINIMAL)
        assert extract_strings(doc) == []

    def test_dedup_preserves_first_seen_order(self):
        doc = parse(b"""<?xml version="1.0"?>
            <bpmn:definitions xmlns:bpmn="http://www.omg.org/spec/BPMN/20100524/MODEL">
              <bpmn:process id="p1">
                <bpmn:task id="t1" name="A"/>
                <bpmn:task id="t2" name="B"/>
                <bpmn:task id="t3" name="A"/>
              </bpmn:process>
            </bpmn:definitions>""")
        assert unique_values(extract_strings(doc)) == ["A", "B"]

    def test_documentation_text_is_extracted(self):
        entries = extract_strings(load_doc("unicode.bpmn"))
        values = [e.value for e in entries]
        assert "Überprüfung der eingegangenen Bestellung" in values

    def test_ids_never_extracted(self):
        entries = extract_strings(load_doc("loan-approval.bpmn"))
        assert all(e.attribute != "id" for e in entries)

    def test_default_attribute_rejected_with_warning(self, caplog):
        doc = load_doc("diamond.bpmn")
        with caplog.at_level(logging.WARNING):
            entries = extract_strings(doc, attrs=("name", "default"))
        assert "default" in caplog.text
        assert all(e.attribute != "default" for e in entries)


class TestReinsertStrings:
    def test_paths_are_built_only_for_warnings(self, monkeypatch):
        doc = parse(f'<definitions xmlns="{BPMN_NS}"><process id="p"><startEvent id="s" '
                    'name="Start"/><task id="t" name="Pack"/></process></definitions>')
        calls = []
        monkeypatch.setattr(xmlio, "local_name", lambda tag: calls.append(tag) or
                            tag.rsplit("}", 1)[-1])
        translated, warnings = reinsert_strings(doc, {"Start": "Begin", "Pack": "Check"})
        assert warnings == [] and calls == []
        assert element_by_id(translated, "t").get("name") == "Check"
        translated, warnings = reinsert_strings(doc, {"Start": "Begin"})
        assert warnings == [
            "no translation matched 'Pack' at /definitions/process[0]/task[1]"]
        assert element_by_id(translated, "s").get("name") == "Begin"

    def test_exact_replacement(self):
        doc = load_doc("unicode.bpmn")
        translated, warnings = reinsert_strings(doc, {"Prüfen": "Check"})
        task = element_by_id(translated, "task_check")
        assert task.get("name") == "Check"

    def test_fuzzy_match_over_threshold(self):
        doc = load_doc("unicode.bpmn")
        translated, _ = reinsert_strings(doc, {"Prüfen ": "Check"})
        assert element_by_id(translated, "task_check").get("name") == "Check"

    def test_low_similarity_left_untouched(self):
        doc = load_doc("unicode.bpmn")
        translated, warnings = reinsert_strings(doc, {"zzzz": "nope"})
        assert element_by_id(translated, "task_check").get("name") == "Prüfen"
        assert warnings

    def test_untargeted_content_is_byte_identical(self):
        doc = load_doc("unicode.bpmn")
        translated, _ = reinsert_strings(doc, {"Prüfen": "Check"})
        # revert the one change; everything else must serialize identically
        element_by_id(translated, "task_check").set("name", "Prüfen")
        assert serialize(translated) == serialize(doc)

    def test_a_key_with_an_empty_translation_keeps_its_label(self):
        doc = parse(f'<definitions xmlns="{BPMN_NS}"><process id="p"><task id="a" '
                    'name="Pruefe Antrag A"/><task id="b" name="Pruefe Antrag B"/>'
                    '</process></definitions>')
        translated, warnings = reinsert_strings(
            doc, {"Pruefe Antrag A": "", "Pruefe Antrag B": "Check application B"})
        assert element_by_id(translated, "a").get("name") == "Pruefe Antrag A"
        assert element_by_id(translated, "b").get("name") == "Check application B"
        assert warnings == ["empty translation for 'Pruefe Antrag A' ignored"]

    def test_original_document_not_mutated(self):
        doc = load_doc("unicode.bpmn")
        reinsert_strings(doc, {"Prüfen": "Check"})
        assert element_by_id(doc, "task_check").get("name") == "Prüfen"


def _reinserted_name(label: str, mapping: dict[str, str], threshold: float) -> str:
    """The name a task labelled ``label`` gets from ``reinsert_strings``."""
    doc = parse(MINIMAL)
    ET.SubElement(doc.processes()[0], f"{{{BPMN_NS}}}task", id="t", name=label)
    return element_by_id(reinsert_strings(doc, mapping, threshold)[0], "t").get("name")


class TestFuzzySimilarity:
    @pytest.mark.parametrize("a,b,expected", [
        ("kitten", "sitting", 3),
        ("", "abc", 3),
        ("same", "same", 0),
    ])
    def test_levenshtein(self, a, b, expected):
        assert levenshtein(a, b, max(len(a), len(b))) == expected

    def test_trimming_and_nfc(self):
        assert _reinserted_name("Pr\u00fcfen", {"Pr\u00fcfen  ": "Check"}, 1.0) == "Check"
        # NFC vs NFD spelling of u-umlaut
        assert _reinserted_name("Pr\u00fcfen", {"Pru\u0308fen": "Check"}, 1.0) == "Check"

    def test_both_empty_fully_similar(self):
        assert _reinserted_name("  ", {"": "Blank"}, 1.0) == "Blank"

    def test_distance_scales(self):
        # one edit in four characters: similarity 0.75
        assert _reinserted_name("abcd", {"abxd": "T"}, 0.75) == "T"
        assert _reinserted_name("abcd", {"abxd": "T"}, 0.76) == "abcd"


def _full_distance(a: str, b: str) -> int:
    """Textbook Levenshtein over the whole matrix."""
    prev = list(range(len(b) + 1))
    for i, ch_a in enumerate(a, start=1):
        curr = [i]
        for j, ch_b in enumerate(b, start=1):
            curr.append(min(curr[j - 1] + 1, prev[j] + 1, prev[j - 1] + (ch_a != ch_b)))
        prev = curr
    return prev[-1]


def _reference_reinsert(doc, mapping, threshold):
    """Brute-force ``reinsert_strings``: every usable key is scored in full and
    the first one with the strictly greatest similarity wins."""
    def similarity(a, b):
        na, nb = (unicodedata.normalize("NFC", text).strip() for text in (a, b))
        if na == nb:
            return 1.0
        if not na or not nb:
            return 0.0
        return 1.0 - _full_distance(na, nb) / max(len(na), len(nb))

    new_doc = doc.copy()
    usable = {k: v for k, v in mapping.items() if v}
    warnings = [f"empty translation for {k!r} ignored" for k, v in mapping.items() if not v]
    locations = []

    def visit(elem, path):
        if elem.get("name"):
            locations.append((elem, "name", path))
        if elem.tag == f"{{{BPMN_NS}}}documentation" and elem.text and elem.text.strip():
            locations.append((elem, None, path))
        for index, child in enumerate(elem):
            visit(child, f"{path}/{child.tag.rsplit('}', 1)[-1]}[{index}]")

    visit(new_doc.root, "/definitions")
    for elem, attr, path in locations:
        value = elem.get(attr) if attr else elem.text
        replacement = (mapping[value] or value) if value in mapping else None
        if replacement is None:
            best_key, best_sim = None, 0.0
            for key in usable:
                sim = similarity(value, key)
                if sim > best_sim:
                    best_key, best_sim = key, sim
            if best_key is not None and best_sim >= threshold:
                replacement = usable[best_key]
        if replacement is None:
            warnings.append(f"no translation matched {value!r} at {path}")
        elif attr:
            elem.set(attr, replacement)
        else:
            elem.text = replacement
    return new_doc, warnings


# A small alphabet with a decomposable letter, so keys collide, tie and
# drift by NFC/NFD spelling.
_LABELS = st.text(alphabet="abcü ", min_size=1, max_size=9)


@st.composite
def _drifted_key(draw, labels):
    label = draw(st.sampled_from(labels))
    kind = draw(st.sampled_from(["same", "nfd", "padded", "dropped", "changed", "other"]))
    if kind == "nfd":
        return unicodedata.normalize("NFD", label)
    if kind == "padded":
        return draw(st.sampled_from([" ", "  "])) + label + draw(st.sampled_from(["", " "]))
    if kind in ("dropped", "changed") and label:
        at = draw(st.integers(0, len(label) - 1))
        letter = "" if kind == "dropped" else draw(st.sampled_from("abcd"))
        return label[:at] + letter + label[at + 1:]
    if kind == "other":
        return draw(_LABELS)
    return label


@st.composite
def _translation_case(draw):
    labels = draw(st.lists(_LABELS, min_size=1, max_size=6))
    documented = draw(st.lists(st.booleans(), min_size=len(labels), max_size=len(labels)))
    keys = draw(st.lists(_drifted_key(labels), max_size=8))
    values = draw(st.lists(st.sampled_from(["T1", "T2", "T3", ""]),
                           min_size=len(keys), max_size=len(keys)))
    threshold = draw(st.sampled_from([0.0, 1.0, 0.8, 0.5]) | st.floats(0.0, 1.0))
    return labels, documented, dict(zip(keys, values)), threshold


@given(_translation_case())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_pruned_reinsertion_matches_brute_force(case):
    labels, documented, mapping, threshold = case
    doc = parse(MINIMAL)
    process = doc.processes()[0]
    for index, (label, has_doc) in enumerate(zip(labels, documented)):
        task = ET.SubElement(process, f"{{{BPMN_NS}}}task", id=f"t{index}", name=label)
        if has_doc:
            ET.SubElement(task, f"{{{BPMN_NS}}}documentation").text = label[::-1]
    got, got_warnings = reinsert_strings(doc, mapping, threshold)
    want, want_warnings = _reference_reinsert(doc, mapping, threshold)
    assert serialize(got) == serialize(want)
    assert got_warnings == want_warnings


@given(st.text(alphabet="abcü", max_size=12), st.text(alphabet="abcü", max_size=12),
       st.integers(0, 13))
@settings(max_examples=500, deadline=None, derandomize=True)
def test_cutoff_levenshtein_is_exact_up_to_the_cutoff(a, b, cutoff):
    distance = _full_distance(a, b)
    assert levenshtein(a, b, max(len(a), len(b))) == distance
    if distance <= cutoff:
        assert levenshtein(a, b, cutoff) == distance
    else:
        assert levenshtein(a, b, cutoff) > cutoff


def test_tree_equal_detects_attribute_change():
    a = parse(MINIMAL)
    b = parse(MINIMAL)
    assert tree_equal(a.root, b.root)
    b.processes()[0].set("name", "changed")
    assert not tree_equal(a.root, b.root)
