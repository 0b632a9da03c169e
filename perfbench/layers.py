"""The traced layers: which bpmnkit functions get a span, and how spans
become the per-layer metrics.

Every per-op metric is computed over the spans under one op's root span and
then summarised as the median over the traced ops. `<x>_ms` is the time
inside the outermost calls of `x` (recursion and nesting counted once);
`<x>_self_ms` is span time minus the part its child spans cover.
"""

from __future__ import annotations

import inspect
import statistics

import numpy as np

from tracer import SpanTree, Tracer

# (module, attribute, span name); "Class.method" patches a method.
TARGETS = [
    ("xmlio", "parse", "xmlio.parse"),
    ("xmlio", "serialize", "xmlio.serialize"),
    ("xmlio", "strip_di", "xmlio.strip_di"),
    ("xmlio", "reattach_di", "xmlio.reattach_di"),
    ("xmlio", "extract_strings", "xmlio.extract_strings"),
    ("xmlio", "reinsert_strings", "xmlio.reinsert_strings"),
    ("model", "build_graph", "model.build_graph"),
    ("compliance", "validate", "compliance.validate"),
    ("layout", "auto_layout", "layout.auto_layout"),
    ("embeddings", "HashingEmbedder.embed_batch", "embeddings.embed_batch"),
    ("similarity", "compare", "similarity.compare"),
    ("similarity", "structural_similarity", "similarity.structural_similarity"),
    ("similarity", "type_distribution_similarity", "similarity.type_distribution_similarity"),
    ("similarity", "semantic_set_similarity", "similarity.semantic_set_similarity"),
    ("similarity", "max_weight_assignment", "similarity.max_weight_assignment"),
    ("llm", "complete", "llm.complete"),
    ("llm", "parse_json_with_retry", "llm.parse_json_with_retry"),
    ("pipeline", "translate_model", "pipeline.translate_model"),
    ("pipeline", "correct_model", "pipeline.correct_model"),
    ("pipeline", "generate_description", "pipeline.generate_description"),
    ("pipeline", "reconstruct", "pipeline.reconstruct"),
    ("batch", "batch_evaluate", "batch.batch_evaluate"),
    ("cli", "main", "cli.main"),
]

# The per-pair worker of batch_evaluate is the op boundary of corpus-evaluate
# (an op is one pair); it is timed in the untraced runs as well, and traced
# with the targets above.
PAIR_TARGET = ("batch", "_evaluate_pair", "batch.pair")

# Spans that must fire on each workload's traced run.
EXPECTED = {
    "corpus-evaluate": ["batch.batch_evaluate", "batch.pair", "xmlio.parse",
                        "model.build_graph", "similarity.compare",
                        "similarity.structural_similarity",
                        "similarity.semantic_set_similarity",
                        "similarity.max_weight_assignment", "embeddings.embed_batch"],
    "compare-large": ["cli.main", "xmlio.parse", "model.build_graph", "similarity.compare",
                      "similarity.structural_similarity",
                      "similarity.semantic_set_similarity",
                      "similarity.max_weight_assignment", "embeddings.embed_batch"],
    "pipeline-mock": ["pipeline.translate_model", "xmlio.extract_strings",
                      "xmlio.reinsert_strings", "pipeline.correct_model",
                      "compliance.validate", "xmlio.strip_di", "xmlio.reattach_di",
                      "xmlio.serialize", "model.build_graph",
                      "pipeline.generate_description", "pipeline.reconstruct",
                      "layout.auto_layout", "llm.complete", "llm.parse_json_with_retry",
                      "xmlio.parse"],
}

# name -> unit, in report order. Per op unless noted in README.md.
METRICS = {
    "similarity.assignment_ms": "ms",
    "similarity.assignment_share": "ratio",
    "similarity.assignment_cells": "count",
    "similarity.assignment_distinct_ratio": "ratio",
    "similarity.semantic_name_ms": "ms",
    "similarity.semantic_type_ms": "ms",
    "similarity.semantic_name_type_ms": "ms",
    "similarity.structural_ms": "ms",
    "embeddings.embed_ms": "ms",
    "embeddings.texts": "count",
    "embeddings.unique_text_ratio": "ratio",
    "batch.parallelism": "ratio",
    "batch.evaluate_self_ms": "ms",
    "xmlio.parse_ms": "ms",
    "model.build_graph_ms": "ms",
    "model.build_graph_warnings": "count",
    "xmlio.reinsert_ms": "ms",
    "xmlio.reinsert_fuzzy_lookups": "count",
    "pipeline.translate_ms": "ms",
    "compliance.validate_ms": "ms",
    "compliance.validate_calls": "count",
    "xmlio.serialize_ms": "ms",
    "xmlio.di_ms": "ms",
    "layout.auto_layout_ms": "ms",
    "pipeline.correct_ms": "ms",
    "pipeline.correct_iterations": "count",
    "pipeline.correct_accept_ratio": "ratio",
    "pipeline.reconstruct_ms": "ms",
    "pipeline.describe_ms": "ms",
    "llm.complete_calls": "count",
    "llm.schema_reprompts": "count",
    "llm.parse_json_ms": "ms",
    "cli.compare_self_ms": "ms",
    "trace.op_ms": "ms",
    "trace.spans_per_op": "count",
    "trace.overhead_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

SEMANTIC_DIMENSIONS = ("similarity.semantic_name_ms", "similarity.semantic_type_ms",
                       "similarity.semantic_name_type_ms")

_INCLUSIVE = {
    "similarity.max_weight_assignment": "similarity.assignment_ms",
    "similarity.structural_similarity": "similarity.structural_ms",
    "embeddings.embed_batch": "embeddings.embed_ms",
    "xmlio.parse": "xmlio.parse_ms",
    "model.build_graph": "model.build_graph_ms",
    "xmlio.reinsert_strings": "xmlio.reinsert_ms",
    "pipeline.translate_model": "pipeline.translate_ms",
    "compliance.validate": "compliance.validate_ms",
    "xmlio.serialize": "xmlio.serialize_ms",
    "xmlio.strip_di": "xmlio.di_ms",
    "xmlio.reattach_di": "xmlio.di_ms",
    "layout.auto_layout": "layout.auto_layout_ms",
    "pipeline.correct_model": "pipeline.correct_ms",
    "pipeline.reconstruct": "pipeline.reconstruct_ms",
    "pipeline.generate_description": "pipeline.describe_ms",
}


def _unwrapped(fn):
    return getattr(fn, "__wrapped__", fn)


def install(tracer: Tracer, modules: dict) -> None:
    """Wrap every target; `modules` maps short names to bpmnkit modules."""
    xmlio = modules["xmlio"]
    reinsert_signature = inspect.signature(_unwrapped(xmlio.reinsert_strings))

    def assignment_before(attrs, scores, *args, **kwargs):
        matrix = np.asarray(scores)
        if matrix.ndim == 2 and matrix.size:
            attrs["cells"] = matrix.size
            attrs["distinct"] = (len(np.unique(matrix, axis=0))
                                 * len(np.unique(matrix, axis=1)))

    def embed_before(attrs, _self, texts, *args, **kwargs):
        attrs["texts"] = len(texts)
        attrs["_texts"] = list(texts)

    def graph_after(attrs, result):
        attrs["warnings"] = len(result[1])

    def reinsert_before(attrs, *args, **kwargs):
        bound = reinsert_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        usable = {k for k, v in bound.arguments["mapping"].items() if v}
        entries = _unwrapped(xmlio.extract_strings)(
            bound.arguments["doc"], bound.arguments["attrs"],
            bound.arguments["include_documentation"])
        attrs["fuzzy_lookups"] = sum(1 for e in entries if e.value not in usable) if usable else 0

    def correct_after(attrs, result):
        attrs["iterations"] = result.iterations
        attrs["accepted"] = sum(1 for entry in result.log if entry.get("accepted"))

    hooks = {
        "similarity.max_weight_assignment": {"before": assignment_before},
        "embeddings.embed_batch": {"before": embed_before},
        "model.build_graph": {"after": graph_after},
        "xmlio.reinsert_strings": {"before": reinsert_before},
        "pipeline.correct_model": {"after": correct_after},
        "batch.batch_evaluate": {"adopt_orphans": True},
    }
    for module_name, attr, span in TARGETS + [PAIR_TARGET]:
        module = modules[module_name]
        if "." in attr:
            cls_name, method = attr.split(".")
            tracer.install_method(getattr(module, cls_name), method, span,
                                  **hooks.get(span, {}))
        else:
            tracer.install_function(module, attr, span, **hooks.get(span, {}))


def op_metrics(tree: SpanTree, root) -> dict[str, float]:
    """Per-layer values for the op under `root`, in METRICS units."""
    out = {name: 0.0 for name in METRICS}
    cells = distinct = texts = 0
    seen_texts: set[str] = set()
    iterations = accepted = 0
    spans = 0
    for span, outermost in tree.walk(root):
        spans += 1
        name = span.name
        if outermost and name in _INCLUSIVE:
            out[_INCLUSIVE[name]] += span.duration * 1000
        if name == "similarity.max_weight_assignment" and outermost:
            cells += span.attrs.get("cells", 0)
            distinct += span.attrs.get("distinct", 0)
        elif name == "similarity.compare":
            semantic = [k for k in tree.children.get(span.id, [])
                        if k.name == "similarity.semantic_set_similarity"]
            if len(semantic) != len(SEMANTIC_DIMENSIONS):
                raise RuntimeError(f"compare made {len(semantic)} semantic calls, expected "
                                   f"{len(SEMANTIC_DIMENSIONS)}")
            for metric, kid in zip(SEMANTIC_DIMENSIONS, semantic):
                out[metric] += kid.duration * 1000
        elif name == "embeddings.embed_batch":
            texts += span.attrs["texts"]
            seen_texts.update(span.attrs["_texts"])
        elif name == "model.build_graph":
            out["model.build_graph_warnings"] += span.attrs.get("warnings", 0)
        elif name == "xmlio.reinsert_strings":
            out["xmlio.reinsert_fuzzy_lookups"] += span.attrs.get("fuzzy_lookups", 0)
        elif name == "compliance.validate":
            out["compliance.validate_calls"] += 1
        elif name == "pipeline.correct_model" and outermost:
            iterations += span.attrs.get("iterations", 0)
            accepted += span.attrs.get("accepted", 0)
        elif name == "llm.complete":
            out["llm.complete_calls"] += 1
            parent = tree.by_id.get(span.parent)
            if parent is not None and parent.name == "llm.parse_json_with_retry":
                out["llm.schema_reprompts"] += 1
        elif name == "llm.parse_json_with_retry":
            out["llm.parse_json_ms"] += tree.self_time(span) * 1000
        elif name == "cli.main":
            out["cli.compare_self_ms"] += tree.self_time(span) * 1000
    out["similarity.assignment_cells"] = cells
    out["similarity.assignment_distinct_ratio"] = distinct / cells if cells else 0.0
    out["embeddings.texts"] = texts
    out["embeddings.unique_text_ratio"] = len(seen_texts) / texts if texts else 0.0
    out["pipeline.correct_iterations"] = iterations
    out["pipeline.correct_accept_ratio"] = accepted / iterations if iterations else 0.0
    out["trace.op_ms"] = root.duration * 1000
    out["trace.spans_per_op"] = spans
    out["similarity.assignment_share"] = (out["similarity.assignment_ms"]
                                          / out["trace.op_ms"])
    return out


def batch_metrics(tree: SpanTree, batch_span) -> dict[str, float]:
    """Per batch_evaluate call: its self time, and the thread CPU time of
    the compares it ran divided by its wall time (about 1 when the pool is
    serialised, up to `jobs` when compares overlap)."""
    compare_cpu = sum(span.cpu for span, outermost in tree.walk(batch_span)
                      if span.name == "similarity.compare" and outermost)
    return {"batch.evaluate_self_ms": tree.self_time(batch_span) * 1000,
            "batch.parallelism": compare_cpu / batch_span.duration}


def summarize(per_op: list[dict], per_batch: list[dict]) -> dict[str, float]:
    """Median over ops (and over batch calls for the batch.* metrics)."""
    out = {name: 0.0 for name in METRICS}
    for name in METRICS:
        if name.startswith("batch."):
            values = [m[name] for m in per_batch]
        else:
            values = [m[name] for m in per_op]
        if values:
            out[name] = float(statistics.median(values))
    return out


def self_time_table(tree: SpanTree, roots: list) -> dict[str, tuple[float, float]]:
    """Span name -> (calls per op, self ms per op), averaged over `roots`."""
    calls: dict[str, int] = {}
    self_ms: dict[str, float] = {}
    for root in roots:
        for span, _ in tree.walk(root):
            calls[span.name] = calls.get(span.name, 0) + 1
            self_ms[span.name] = self_ms.get(span.name, 0.0) + tree.self_time(span) * 1000
    count = max(1, len(roots))
    return {name: (calls[name] / count, self_ms[name] / count)
            for name in sorted(self_ms, key=self_ms.get, reverse=True)}
