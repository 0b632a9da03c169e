"""Seeded synthetic BPMN inputs for the benchmark.

Everything here is pure Python and independent of bpmnkit, so the inputs and
the expected pipeline outputs do not come from the code under test. The same
seed always yields byte-identical inputs; `write_inputs` records a sha256 per
generated file so runs can prove they used identical inputs.

Model sizes and block mixes are fixed per workload and scale; the seed picks
labels, task types, block order, perturbations and drift. That keeps the cost
of a run comparable across seeds.
"""

from __future__ import annotations

import hashlib
import json
import random
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path
from xml.sax.saxutils import escape, quoteattr

BPMN_NS = "http://www.omg.org/spec/BPMN/20100524/MODEL"
BPMNDI_NS = "http://www.omg.org/spec/BPMN/20100524/DI"
DC_NS = "http://www.omg.org/spec/DD/20100524/DC"
DI_NS = "http://www.omg.org/spec/DD/20100524/DI"

# Models at or under this many graph nodes are regenerated, not repaired
# (bpmnkit's default CorrectionState.simple_threshold).
SIMPLE_THRESHOLD = 10
TRANSLATE_THRESHOLD = 0.8

# --- vocabulary: (English, German, Russian, Greek, Chinese) -------------------

VERBS = [
    ("Check", "prüfen", "Проверить", "Έλεγχος", "检查"),
    ("Approve", "genehmigen", "Утвердить", "Έγκριση", "批准"),
    ("Review", "überprüfen", "Рассмотреть", "Αξιολόγηση", "审核"),
    ("Register", "registrieren", "Зарегистрировать", "Καταχώριση", "登记"),
    ("Verify", "verifizieren", "Подтвердить", "Επαλήθευση", "核实"),
    ("Prepare", "vorbereiten", "Подготовить", "Προετοιμασία", "准备"),
    ("Send", "senden", "Отправить", "Αποστολή", "发送"),
    ("Archive", "archivieren", "Архивировать", "Αρχειοθέτηση", "归档"),
    ("Calculate", "berechnen", "Рассчитать", "Υπολογισμός", "计算"),
    ("Assess", "bewerten", "Оценить", "Εκτίμηση", "评估"),
    ("Confirm", "bestätigen", "Согласовать", "Επιβεβαίωση", "确认"),
    ("Update", "aktualisieren", "Обновить", "Ενημέρωση", "更新"),
    ("Notify", "benachrichtigen", "Уведомить", "Ειδοποίηση", "通知"),
    ("Record", "erfassen", "Записать", "Καταγραφή", "记录"),
    ("Validate", "validieren", "Валидировать", "Επικύρωση", "验证"),
    ("Schedule", "planen", "Запланировать", "Προγραμματισμός", "安排"),
]

NOUNS = [
    ("invoice", "Rechnung", "счёт", "τιμολογίου", "发票"),
    ("order", "Bestellung", "заказ", "παραγγελίας", "订单"),
    ("payment", "Zahlung", "платёж", "πληρωμής", "付款"),
    ("contract", "Vertrag", "договор", "σύμβασης", "合同"),
    ("shipment", "Sendung", "отправку", "αποστολής", "货运"),
    ("claim", "Schadensmeldung", "претензию", "αξίωσης", "索赔"),
    ("application", "Antrag", "заявку", "αίτησης", "申请"),
    ("report", "Bericht", "отчёт", "αναφοράς", "报告"),
    ("customer file", "Kundenakte", "дело клиента", "φακέλου πελάτη", "客户档案"),
    ("delivery note", "Lieferschein", "накладную", "δελτίου παράδοσης", "送货单"),
    ("credit limit", "Kreditlimit", "кредитный лимит", "πιστωτικού ορίου", "信用额度"),
    ("purchase request", "Bestellanforderung", "запрос на закупку", "αιτήματος αγοράς", "采购申请"),
    ("account", "Konto", "счёт клиента", "λογαριασμού", "账户"),
    ("complaint", "Beschwerde", "жалобу", "παραπόνου", "投诉"),
    ("budget", "Budget", "бюджет", "προϋπολογισμού", "预算"),
    ("tax return", "Steuererklärung", "налоговую декларацию", "φορολογικής δήλωσης", "纳税申报"),
]

TASK_TAGS = ("userTask", "userTask", "userTask", "serviceTask", "serviceTask", "serviceTask",
             "task", "task", "scriptTask", "manualTask", "sendTask", "receiveTask",
             "businessRuleTask")


def task_label(verb: int, noun: int, lang: str) -> str:
    v, n = VERBS[verb], NOUNS[noun]
    if lang == "en":
        return f"{v[0]} {n[0]}"
    if lang == "de":
        return f"{n[1]} {v[1]}"
    if lang == "ru":
        return f"{v[2]} {n[2]}"
    if lang == "el":
        return f"{v[3]} {n[3]}"
    return f"{v[4]}{n[4]}"


def gateway_label(noun: int, lang: str) -> str:
    return {"en": f"{NOUNS[noun][0].capitalize()} in order?",
            "de": f"{NOUNS[noun][1]} in Ordnung?"}[lang]


def event_label(noun: int, kind: str, lang: str) -> str:
    en, de = NOUNS[noun][0].capitalize(), NOUNS[noun][1]
    return {
        ("start", "en"): f"{en} received", ("start", "de"): f"{de} eingegangen",
        ("end", "en"): f"{en} completed", ("end", "de"): f"{de} abgeschlossen",
        ("timer", "en"): f"{en} deadline exceeded",
        ("timer", "de"): f"{de} Frist überschritten",
        ("cancel", "en"): f"{en} cancelled", ("cancel", "de"): f"{de} storniert",
    }[(kind, lang)]


def data_label(noun: int, lang: str, index: int) -> str:
    return {"en": f"{NOUNS[noun][0].capitalize()} record {index}",
            "de": f"{NOUNS[noun][1]} Datensatz {index}"}[lang]


# --- abstract model -----------------------------------------------------------


@dataclass
class Node:
    id: str
    tag: str
    text: dict  # language -> label
    attached_to: str | None = None


@dataclass
class Flow:
    id: str
    source: str
    target: str
    condition: str | None = None


@dataclass
class Model:
    pid: str
    nodes: list[Node] = field(default_factory=list)
    flows: list[Flow] = field(default_factory=list)
    defaults: dict[str, str] = field(default_factory=dict)
    data_objects: list[tuple[str, dict]] = field(default_factory=list)
    data_refs: list[tuple[str, dict, str]] = field(default_factory=list)
    # (task id, "in" | "out", association id, reference id)
    associations: list[tuple[str, str, str, str]] = field(default_factory=list)
    late_objects: set[str] = field(default_factory=set)  # seeded R3 defects

    def node(self, node_id: str) -> Node:
        return next(n for n in self.nodes if n.id == node_id)

    def flow(self, flow_id: str) -> Flow:
        return next(f for f in self.flows if f.id == flow_id)

    def graph_node_count(self) -> int:
        return len(self.nodes) + len(self.data_objects) + len(self.data_refs)

    def copy(self) -> "Model":
        return Model(
            self.pid,
            [Node(n.id, n.tag, dict(n.text), n.attached_to) for n in self.nodes],
            [Flow(f.id, f.source, f.target, f.condition) for f in self.flows],
            dict(self.defaults),
            [(i, dict(t)) for i, t in self.data_objects],
            [(i, dict(t), o) for i, t, o in self.data_refs],
            list(self.associations),
            set(self.late_objects),
        )


class _Labeler:
    """Draws labels: mostly distinct verb-noun pairs in the requested
    languages. `mix` is a list of (language, weight) for task labels;
    gateways, events and data fall back to English or German."""

    def __init__(self, rng: random.Random, mix: list[tuple[str, float]], base: str):
        self.rng = rng
        self.mix = mix
        self.base = base
        self.pairs = [(v, n) for v in range(len(VERBS)) for n in range(len(NOUNS))]
        rng.shuffle(self.pairs)
        self.cursor = 0

    def _lang(self) -> str:
        langs, weights = zip(*self.mix)
        return self.rng.choices(langs, weights)[0]

    def task(self) -> dict:
        verb, noun = self.pairs[self.cursor % len(self.pairs)]
        self.cursor += 1
        lang = self._lang()
        return {"en": task_label(verb, noun, "en"), "src": task_label(verb, noun, lang)}

    def noun(self) -> int:
        return self.rng.randrange(len(NOUNS))

    def gateway(self) -> dict:
        noun = self.noun()
        return {"en": gateway_label(noun, "en"), "src": gateway_label(noun, self.base)}

    def event(self, kind: str) -> dict:
        noun = self.noun()
        return {"en": event_label(noun, kind, "en"), "src": event_label(noun, kind, self.base)}

    def data(self, index: int) -> dict:
        noun = self.noun()
        return {"en": data_label(noun, "en", index), "src": data_label(noun, self.base, index)}


def build_model(rng: random.Random, n: int, labeler: _Labeler, prefix: str) -> Model:
    """A clean, compliant process with exactly `n` flow nodes: chains,
    exclusive and parallel diamonds, boundary events with their own end
    event, and data objects linked by input/output associations."""
    if n < 8:
        raise ValueError("models need at least 8 flow nodes")
    model = Model(f"{prefix}_proc")
    counter = iter(range(1, 1 << 30))

    def new_id(kind: str) -> str:
        return f"{prefix}_{kind}{next(counter)}"

    def add_node(tag: str, text: dict, attached_to: str | None = None) -> str:
        node = Node(new_id(tag[:2].lower() if tag != "task" else "t"), tag, text, attached_to)
        model.nodes.append(node)
        return node.id

    def add_flow(source: str, target: str, condition: str | None = None) -> str:
        flow = Flow(new_id("f"), source, target, condition)
        model.flows.append(flow)
        return flow.id

    n_xor = max(1, n // 14)
    n_par = n // 18
    n_bnd = n // 24
    n_tasks = n - 2 - 4 * (n_xor + n_par + n_bnd)
    items = ["xor"] * n_xor + ["par"] * n_par + ["bnd"] * n_bnd + ["task"] * n_tasks
    rng.shuffle(items)

    task_index = iter(range(1 << 30))

    def task() -> str:
        # tags cycle in creation order, so every seed has the same type mix
        return add_node(TASK_TAGS[next(task_index) % len(TASK_TAGS)], labeler.task())

    start = add_node("startEvent", labeler.event("start"))
    plain_tasks: list[str] = []
    cursor = start
    for item in items:
        if item == "task":
            tid = task()
            plain_tasks.append(tid)
            add_flow(cursor, tid)
            cursor = tid
        elif item in ("xor", "par"):
            tag = "exclusiveGateway" if item == "xor" else "parallelGateway"
            split = add_node(tag, labeler.gateway() if item == "xor" else {})
            add_flow(cursor, split)
            branches = [task(), task()]
            join = add_node(tag, {})
            for index, branch in enumerate(branches):
                condition = None
                if item == "xor" and index > 0:
                    condition = f"${{route == {index}}}"
                fid = add_flow(split, branch, condition)
                if item == "xor" and index == 0:
                    model.defaults[split] = fid
                add_flow(branch, join)
            plain_tasks.extend(branches)
            cursor = join
        else:  # a task with a boundary event that leads to its own end
            host = task()
            plain_tasks.append(host)
            add_flow(cursor, host)
            boundary = add_node("boundaryEvent", labeler.event("timer"), attached_to=host)
            handler = task()
            add_flow(boundary, handler)
            cancel_end = add_node("endEvent", labeler.event("cancel"))
            add_flow(handler, cancel_end)
            cursor = host
    end = add_node("endEvent", labeler.event("end"))
    add_flow(cursor, end)

    n_data = max(1, n // 12)
    order = {tid: i for i, tid in enumerate(plain_tasks)}
    for index in range(1, n_data + 1):
        do_id, ref_id = f"{prefix}_do{index}", f"{prefix}_dor{index}"
        text = labeler.data(index)
        model.data_objects.append((do_id, text))
        model.data_refs.append((ref_id, dict(text), do_id))
        producer = rng.choice(plain_tasks)
        model.associations.append((producer, "out", f"{prefix}_dout{index}", ref_id))
        later = [t for t in plain_tasks if order[t] > order[producer]]
        if later:
            consumer = rng.choice(later)
            model.associations.append((consumer, "in", f"{prefix}_din{index}", ref_id))
    return model


# --- rendering ----------------------------------------------------------------


def _label(text: dict, lang: str) -> str:
    return text.get(lang, "")


def render(model: Model, lang: str = "src", with_di: bool = False) -> bytes:
    """Serialize to BPMN 2.0 XML with the ``bpmn:`` prefix."""
    out = ['<?xml version="1.0" encoding="UTF-8"?>\n']
    ns = f'xmlns:bpmn="{BPMN_NS}"'
    if with_di:
        ns += f' xmlns:bpmndi="{BPMNDI_NS}" xmlns:dc="{DC_NS}" xmlns:di="{DI_NS}"'
    out.append(f'<bpmn:definitions {ns} id="{model.pid}_defs" '
               'targetNamespace="http://bpmnkit.example/bench">\n')
    out.append(f'  <bpmn:process id="{model.pid}" isExecutable="true">\n')

    def named(text: dict) -> str:
        label = _label(text, lang)
        return f" name={quoteattr(label)}" if label else ""

    for do_id, text in model.data_objects:
        if do_id not in model.late_objects:
            out.append(f'    <bpmn:dataObject id="{do_id}"{named(text)}/>\n')
    for ref_id, text, do_id in model.data_refs:
        out.append(f'    <bpmn:dataObjectReference id="{ref_id}"{named(text)} '
                   f'dataObjectRef="{do_id}"/>\n')
    for do_id, text in model.data_objects:
        if do_id in model.late_objects:
            out.append(f'    <bpmn:dataObject id="{do_id}"{named(text)}/>\n')
    assoc_by_task: dict[str, list] = {}
    for task_id, direction, assoc_id, ref_id in model.associations:
        assoc_by_task.setdefault(task_id, []).append((direction, assoc_id, ref_id))
    for node in model.nodes:
        out.append(node_xml(model, node, lang, assoc_by_task.get(node.id, []), "    "))
    for flow in model.flows:
        out.append("    " + flow_xml(flow) + "\n")
    out.append("  </bpmn:process>\n")
    if with_di:
        out.append(_di_xml(model))
    out.append("</bpmn:definitions>\n")
    return "".join(out).encode("utf-8")


def node_xml(model: Model, node: Node, lang: str, assocs=(), indent: str = "") -> str:
    attrs = f'id="{node.id}"'
    label = _label(node.text, lang)
    if label:
        attrs += f" name={quoteattr(label)}"
    if node.id in model.defaults:
        attrs += f' default="{model.defaults[node.id]}"'
    if node.attached_to:
        attrs += f' attachedToRef="{node.attached_to}"'
    if not assocs:
        return f"{indent}<bpmn:{node.tag} {attrs}/>\n"
    body = [f"{indent}<bpmn:{node.tag} {attrs}>\n"]
    for direction, assoc_id, ref_id in assocs:
        if direction == "in":
            body.append(f'{indent}  <bpmn:dataInputAssociation id="{assoc_id}">'
                        f"<bpmn:sourceRef>{ref_id}</bpmn:sourceRef>"
                        "</bpmn:dataInputAssociation>\n")
        else:
            body.append(f'{indent}  <bpmn:dataOutputAssociation id="{assoc_id}">'
                        f"<bpmn:targetRef>{ref_id}</bpmn:targetRef>"
                        "</bpmn:dataOutputAssociation>\n")
    body.append(f"{indent}</bpmn:{node.tag}>\n")
    return "".join(body)


def flow_xml(flow: Flow) -> str:
    attrs = f'id="{flow.id}" sourceRef="{flow.source}" targetRef="{flow.target}"'
    if flow.condition is None:
        return f"<bpmn:sequenceFlow {attrs}/>"
    return (f"<bpmn:sequenceFlow {attrs}><bpmn:conditionExpression>"
            f"{escape(flow.condition)}</bpmn:conditionExpression></bpmn:sequenceFlow>")


def _di_xml(model: Model) -> str:
    pos = {node.id: (i % 12 * 160, i // 12 * 140) for i, node in enumerate(model.nodes)}
    out = [f'  <bpmndi:BPMNDiagram id="{model.pid}_diagram">\n',
           f'    <bpmndi:BPMNPlane id="{model.pid}_plane" bpmnElement="{model.pid}">\n']
    for node in model.nodes:
        x, y = pos[node.id]
        out.append(f'      <bpmndi:BPMNShape id="{node.id}_shape" bpmnElement="{node.id}">'
                   f'<dc:Bounds x="{x}" y="{y}" width="100" height="80"/></bpmndi:BPMNShape>\n')
    for flow in model.flows:
        (sx, sy), (tx, ty) = pos[flow.source], pos[flow.target]
        out.append(f'      <bpmndi:BPMNEdge id="{flow.id}_edge" bpmnElement="{flow.id}">'
                   f'<di:waypoint x="{sx + 100}" y="{sy + 40}"/>'
                   f'<di:waypoint x="{tx}" y="{ty + 40}"/></bpmndi:BPMNEdge>\n')
    out.append("    </bpmndi:BPMNPlane>\n  </bpmndi:BPMNDiagram>\n")
    return "".join(out)


# --- perturbed reconstructions ------------------------------------------------


def perturb(model: Model, rng: random.Random, labeler: _Labeler, tag: str) -> Model:
    """A plausible imperfect reconstruction: relabelled nodes, added and
    dropped tasks, and swapped task and gateway types. Not necessarily
    compliant; only compared."""
    m = model.copy()
    size = len(m.nodes)
    budget = max(1, size // 10)
    counter = iter(range(1, 1 << 30))

    def is_task(node: Node) -> bool:
        return node.tag in TASK_TAGS

    # relabel
    tasks = [node for node in m.nodes if is_task(node)]
    for node in rng.sample(tasks, k=min(len(tasks), budget * 2)):
        node.text = labeler.task()

    # drop tasks that sit in a plain chain and carry no data or boundary
    attached = {n.attached_to for n in m.nodes if n.attached_to}
    with_data = {a[0] for a in m.associations}
    for _ in range(budget):
        candidates = []
        for node in m.nodes:
            ins = [f for f in m.flows if f.target == node.id]
            outs = [f for f in m.flows if f.source == node.id]
            if (is_task(node) and len(ins) == 1 and len(outs) == 1
                    and node.id not in attached and node.id not in with_data
                    and ins[0].source not in m.defaults and ins[0].condition is None):
                candidates.append((node, ins[0], outs[0]))
        if not candidates:
            break
        node, incoming, outgoing = rng.choice(candidates)
        m.nodes.remove(node)
        m.flows.remove(outgoing)
        incoming.target = outgoing.target

    # add tasks on random plain flows
    for index in range(budget):
        flow = rng.choice([f for f in m.flows if f.condition is None])
        new = Node(f"{m.pid}_{tag}add{next(counter)}", TASK_TAGS[index % len(TASK_TAGS)],
                   labeler.task())
        m.nodes.insert(m.nodes.index(m.node(flow.source)) + 1, new)
        m.flows.append(Flow(f"{m.pid}_{tag}addf{next(counter)}", new.id, flow.target))
        flow.target = new.id

    # swap types: two tasks exchange their types; one gateway turns inclusive
    tasks = [node for node in m.nodes if is_task(node)]
    for _ in range(budget):
        a, b = rng.sample(tasks, k=2)
        a.tag, b.tag = b.tag, a.tag
    rng.choice([n for n in m.nodes if n.tag == "exclusiveGateway"]).tag = "inclusiveGateway"
    return m


# --- translation drift and defect seeding -------------------------------------


def _norm(text: str) -> str:
    return unicodedata.normalize("NFC", text).strip()


def _levenshtein(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(cur[j - 1] + 1, prev[j] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def _similarity(a: str, b: str) -> float:
    na, nb = _norm(a), _norm(b)
    if na == nb:
        return 1.0
    if not na or not nb:
        return 0.0
    return 1.0 - _levenshtein(na, nb) / max(len(na), len(nb))


def _within_one_edit(a: str, b: str) -> bool:
    if abs(len(a) - len(b)) > 1:
        return False
    if len(a) > len(b):
        a, b = b, a
    i = 0
    while i < len(a) and a[i] == b[i]:
        i += 1
    if len(a) == len(b):
        return a[i + 1:] == b[i + 1:]
    return a[i:] == b[i + 1:]


def drift_keys(rng: random.Random, labels: list[str], share: float) -> dict[str, str]:
    """Choose `share` of the labels and give each a drifted translation-map
    key: surrounding whitespace, NFD normalization, or one dropped letter.
    A dropped letter is kept only where no other key or label lies within
    one edit of the label or of its drifted key, so re-insertion has exactly
    one best match."""
    want = round(len(labels) * share)
    drifted: dict[str, str] = {}
    for count, index in enumerate(rng.sample(range(len(labels)), k=want)):
        label = labels[index]
        kind = count % 3
        if kind == 1 and unicodedata.normalize("NFD", label) != label:
            drifted[label] = unicodedata.normalize("NFD", label)
        elif kind == 2 and len(label) >= 10:
            cut = len(label) // 2
            drifted[label] = label[:cut] + label[cut + 1:]
        else:
            drifted[label] = f" {label} " if count % 2 else f"{label}  "
    norm = [_norm(label) for label in labels]
    changed = True
    while changed:
        changed = False
        keys = [_norm(drifted.get(label, label)) for label in labels]
        for index, label in enumerate(labels):
            key = drifted.get(label)
            if key is None or _norm(key) == norm[index]:
                continue
            clash = any(j != index and (_within_one_edit(norm[index], keys[j])
                                        or _within_one_edit(keys[index], norm[j]))
                        for j in range(len(labels)))
            if clash:
                drifted[label] = f"{label}  "
                changed = True
    return drifted


@dataclass
class PipelineCase:
    """One pipeline-mock op: its source model, the mock LLM script, and what
    the outputs must look like."""

    name: str
    source: bytes
    script: list[str]
    expected: dict


def _repairs(model: Model, fixed: Model, lang: str) -> list[dict]:
    """Repair actions that turn the defective model back into `fixed`."""
    actions = []
    for gid, fid in fixed.defaults.items():
        if gid not in model.defaults:
            actions.append({"action": "modify", "target_id": gid,
                            "new_xml": node_xml(fixed, fixed.node(gid), lang).strip()})
    for flow in fixed.flows:
        if flow.condition is not None and model.flow(flow.id).condition is None:
            actions.append({"action": "modify", "target_id": flow.id,
                            "new_xml": flow_xml(flow)})
    for ref_id, text, do_id in fixed.data_refs:
        if do_id in model.late_objects:
            actions.append({"action": "delete", "target_id": ref_id})
            ref_xml = (f'<bpmn:dataObjectReference id="{ref_id}" name={quoteattr(text[lang])} '
                       f'dataObjectRef="{do_id}"/>')
            actions.append({"action": "augment", "target_id": fixed.pid, "new_xml": ref_xml})
    return actions


def seed_defects(model: Model, rng: random.Random) -> Model:
    """Copy with one R1 (missing default), one R2 (missing condition) and
    one R3 (data object declared after its reference) defect."""
    bad = model.copy()
    gateways = sorted(bad.defaults)
    r1 = rng.choice(gateways)
    del bad.defaults[r1]
    rest = [g for g in gateways if g != r1] or [r1]
    r2 = rng.choice(rest)
    conditioned = [f for f in bad.flows if f.source == r2 and f.condition is not None]
    rng.choice(conditioned).condition = None
    bad.late_objects.add(rng.choice(bad.data_objects)[0])
    return bad


def _translated(model: Model, mapping_en: dict[str, str]) -> Model:
    """Copy whose labels are the expected translation results: translated
    where the map has the label, unchanged otherwise."""
    out = model.copy()

    def tr(text: dict) -> dict:
        if "src" not in text:
            return dict(text)
        return {"src": mapping_en.get(text["src"], text["src"])}

    for node in out.nodes:
        node.text = tr(node.text)
    out.data_objects = [(i, tr(t)) for i, t in out.data_objects]
    out.data_refs = [(i, tr(t), o) for i, t, o in out.data_refs]
    return out


def _element_ids(model: Model) -> list[str]:
    return ([f"{model.pid}_defs", model.pid] + [n.id for n in model.nodes]
            + [f.id for f in model.flows] + [i for i, _ in model.data_objects]
            + [i for i, _, _ in model.data_refs] + [a[2] for a in model.associations])


def _labels_in_order(model: Model) -> list[str]:
    texts = [t for _, t in model.data_objects] + [t for _, t, _ in model.data_refs]
    texts += [n.text for n in model.nodes]
    return [t["src"] for t in texts if t.get("src")]


def _description(model: Model) -> str:
    tasks = [n.text["src"] for n in model.nodes if n.tag in TASK_TAGS]
    gateways = [n.text["src"] for n in model.nodes
                if n.tag == "exclusiveGateway" and n.text.get("src")]
    lines = [f"The process handles {len(tasks)} activities in order."]
    lines += [f"Step {i}: {t}." for i, t in enumerate(tasks, 1)]
    lines += [f"When {g.rstrip('?').lower()}, the main path continues; otherwise an "
              "alternative branch runs." for g in gateways]
    return "\n".join(lines)


def _stage_payloads(model: Model) -> list:
    tasks = [n.text["src"] for n in model.nodes if n.tag in TASK_TAGS]
    starts = [n.text["src"] for n in model.nodes if n.tag == "startEvent"]
    ends = [n.text["src"] for n in model.nodes if n.tag == "endEvent"]
    decisions = [n for n in model.nodes if n.tag == "exclusiveGateway" and n.text.get("src")]
    data = [t["src"] for _, t in model.data_objects]
    elements = {
        "boundaries": {"start": starts[0], "end": ends[-1]},
        "activities": [{"name": t, "participant": "Clerk"} for t in tasks],
        "participants": [{"name": "Clerk", "responsibilities": "Runs the process"}],
        "decisions": [{"name": d.text["src"]} for d in decisions],
        "inputs": data[:1], "outputs": data[1:], "data_flows": [], "dependencies": [],
    }
    analysis = [
        {"decision": d.text["src"], "inputs": [],
         "outcomes": [{"label": f.id, "condition": f.condition or "otherwise"}
                      for f in model.flows if f.source == d.id]}
        for d in decisions
    ]
    catalog = [{"name": name, "class": "primary", "attributes": ["id", "status"],
                "usage": "created and read during the process", "relationships": []}
               for name in data]
    data_model = {
        "entities": [{"name": name, "attributes": [{"name": "id", "type": "string",
                                                    "constraints": "unique"}],
                      "keys": ["id"]} for name in data],
        "relationships": [],
    }
    producers = {a[0] for a in model.associations}
    activity_map = [{"activity": model.node(tid).text["src"], "inputs": [],
                     "outputs": [{"object": data[0], "attributes": ["id"]}]}
                    for tid in sorted(producers)]
    return [elements, analysis, catalog, data_model, activity_map]


def _schema_invalid(stage: int, payload) -> str:
    if stage == 0:
        return json.dumps({"activities": payload["activities"]}, ensure_ascii=False)
    bad = [dict(entry, **{"class": "core"}) for entry in payload] or [{"name": "x"}]
    return json.dumps(bad, ensure_ascii=False)


def pipeline_case(rng: random.Random, n: int, name: str) -> PipelineCase:
    labeler = _Labeler(rng, [("de", 0.7), ("ru", 0.1), ("el", 0.1), ("zh", 0.1)], "de")
    clean = build_model(rng, n, labeler, name)
    # a document code the translator leaves alone; it must stay as is
    code = f"DOK-{rng.randrange(1000, 9999)}/{rng.randrange(10, 99)}"
    (do_id, _), (ref_id, _, _) = clean.data_objects[0], clean.data_refs[0]
    clean.data_objects[0] = (do_id, {"src": code})
    clean.data_refs[0] = (ref_id, {"src": code}, do_id)
    texts = [node.text for node in clean.nodes] + [t for _, t in clean.data_objects]
    english = {t["src"]: t["en"] for t in texts if "en" in t}

    defective = seed_defects(clean, rng)
    uniques = list(dict.fromkeys(_labels_in_order(defective)))
    translatable = [u for u in uniques if u != code]
    drifted = drift_keys(rng, translatable, DRIFT_SHARE)
    for other in translatable:
        if _similarity(code, drifted.get(other, other)) >= TRANSLATE_THRESHOLD:
            raise AssertionError("untranslated code collides with a key")
    mapping = {drifted.get(u, u): english[u] for u in translatable}

    translated = _translated(defective, {u: english[u] for u in translatable})
    fixed = _translated(clean, {u: english[u] for u in translatable})

    script: list[str] = [json.dumps(mapping, ensure_ascii=False, indent=2)]
    small = defective.graph_node_count() <= SIMPLE_THRESHOLD
    if small:
        correction = ["Here is the corrected model:\n\n" + render(fixed, "src").decode()]
        accepted = [True]
    else:
        first_flow = next(f for f in fixed.flows if f.source == fixed.nodes[0].id)
        correction = [
            json.dumps([{"action": "delete", "target_id": first_flow.id}]),
            "```json\n" + json.dumps(_repairs(translated, fixed, "src"), ensure_ascii=False,
                                     indent=2) + "\n```",
        ]
        accepted = [False, True]
    description = _description(fixed)
    script += correction
    script.append(description)
    payloads = _stage_payloads(fixed)
    reprompts = 0
    for stage, payload in enumerate(payloads):
        if stage in (0, 2):
            script.append(_schema_invalid(stage, payload))
            reprompts += 1
        script.append(json.dumps(payload, ensure_ascii=False, indent=2))
    script.append("```xml\n" + render(translated, "src").decode() + "```")
    script += correction

    labels = {node.id: node.text.get("src", "") for node in fixed.nodes}
    labels.update({i: t["src"] for i, t in fixed.data_objects})
    labels.update({i: t["src"] for i, t, _ in fixed.data_refs})
    source_labels = _labels_in_order(defective)
    expected = {
        "labels": labels,
        "untranslated": [code],
        "untranslated_locations": source_labels.count(code),
        "fuzzy_lookups": sum(1 for label in source_labels
                             if label == code or label in drifted),
        "drifted_keys": len(drifted),
        "flow_nodes": [node.id for node in fixed.nodes],
        "semantic_ids": sorted(_element_ids(fixed)),
        "iterations": len(correction),
        "accepted": accepted,
        "mode": "regenerate" if small else "local_repair",
        "description": description,
        "schema_reprompts": reprompts,
        "script_length": len(script),
    }
    return PipelineCase(name, render(defective, "src", with_di=True), script, expected)


# --- workloads ----------------------------------------------------------------

# Flow-node counts per workload and scale. "toy" is for the self-test.
CORPUS_SIZES = {"full": [10, 10, 11, 12, 13, 14, 16, 18, 20, 22, 25, 28, 32, 37, 44, 55, 75, 150],
                "toy": [10, 14]}
RECONSTRUCTIONS_PER_TRUTH = 2
COMPARE_SIZES = {"full": [150, 160, 170], "toy": [20]}
# Five models share the middle size, so the median op does not sit on a gap
# between two sizes.
PIPELINE_SIZES = {"full": [8, 8, 12, 16, 22, 30, 30, 30, 30, 30, 42, 60, 95, 150],
                  "toy": [8, 16]}
DRIFT_SHARE = 1 / 3  # of translation-map keys

CORPUS_MIX = [("en", 0.76), ("de", 0.06), ("ru", 0.06), ("el", 0.06), ("zh", 0.06)]


def corpus(seed: int, scale: str) -> list[tuple[str, bytes, list[bytes]]]:
    """(name, truth, reconstructions) per truth model."""
    rng = random.Random(f"corpus:{seed}")
    out = []
    for index, n in enumerate(CORPUS_SIZES[scale]):
        labeler = _Labeler(rng, CORPUS_MIX, "en")
        name = f"m{index:02d}"
        truth = build_model(rng, n, labeler, name)
        _english_only(truth)
        recos = []
        for k in range(RECONSTRUCTIONS_PER_TRUTH):
            reco = perturb(truth, rng, labeler, f"r{k}")
            _english_only(reco)
            recos.append(render(reco))
        out.append((name, render(truth), recos))
    return out


def compare_pairs(seed: int, scale: str) -> list[tuple[str, bytes, bytes]]:
    rng = random.Random(f"compare:{seed}")
    out = []
    for index, n in enumerate(COMPARE_SIZES[scale]):
        labeler = _Labeler(rng, CORPUS_MIX, "en")
        name = f"c{index:02d}"
        truth = build_model(rng, n, labeler, name)
        reco = perturb(truth, rng, labeler, "r")
        _english_only(truth)
        _english_only(reco)
        out.append((name, render(truth), render(reco)))
    return out


def _english_only(model: Model) -> None:
    """Corpus models carry the source-language label as their only label."""
    for node in model.nodes:
        if node.text:
            node.text = {"src": node.text["src"]}
    model.data_objects = [(i, {"src": t["src"]}) for i, t in model.data_objects]
    model.data_refs = [(i, {"src": t["src"]}, o) for i, t, o in model.data_refs]


def pipeline_cases(seed: int, scale: str) -> list[PipelineCase]:
    rng = random.Random(f"pipeline:{seed}")
    return [pipeline_case(rng, n, f"p{index:02d}") for index, n in enumerate(PIPELINE_SIZES[scale])]


def write_inputs(workload: str, seed: int, scale: str, out_dir: Path) -> dict:
    """Write the workload's inputs under `out_dir` and return a manifest with
    the file list and one sha256 per file."""
    out_dir.mkdir(parents=True, exist_ok=True)
    files: dict[str, bytes] = {}
    manifest: dict = {"workload": workload, "seed": seed, "scale": scale}
    if workload == "corpus-evaluate":
        pairs = []
        for name, truth, recos in corpus(seed, scale):
            files[f"{name}.bpmn"] = truth
            for k, reco in enumerate(recos):
                files[f"{name}_r{k}.bpmn"] = reco
                pairs.append([f"{name}.bpmn", f"{name}_r{k}.bpmn"])
        manifest["pairs"] = pairs
    elif workload == "compare-large":
        pairs = []
        for name, a, b in compare_pairs(seed, scale):
            files[f"{name}_a.bpmn"] = a
            files[f"{name}_b.bpmn"] = b
            pairs.append([f"{name}_a.bpmn", f"{name}_b.bpmn"])
        manifest["pairs"] = pairs
    elif workload == "pipeline-mock":
        cases = []
        for case in pipeline_cases(seed, scale):
            files[f"{case.name}.bpmn"] = case.source
            files[f"{case.name}.script.json"] = json.dumps(
                case.script, ensure_ascii=False, indent=1).encode("utf-8")
            files[f"{case.name}.expected.json"] = json.dumps(
                case.expected, ensure_ascii=False, indent=1).encode("utf-8")
            cases.append(case.name)
        manifest["cases"] = cases
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for name, data in files.items():
        (out_dir / name).write_bytes(data)
    manifest["sha256"] = {name: hashlib.sha256(data).hexdigest()
                          for name, data in sorted(files.items())}
    return manifest
