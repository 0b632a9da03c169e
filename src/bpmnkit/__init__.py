"""bpmnkit: validate, repair, reconstruct, and compare BPMN 2.0 models."""

from .compliance import ComplianceReport, Diagnostic, RuleCode, validate, validate_bytes
from .embeddings import HashingEmbedder, ProviderConfig, cosine, make_provider
from .layout import auto_layout
from .model import (
    BpmnEdge,
    BpmnGraph,
    BpmnNode,
    ElementCategory,
    GraphStats,
    build_graph,
    categorize_element,
    context_label,
    graph_stats,
)
from .pipeline import (
    ReconstructionNonCompliant,
    StageArtifact,
    correct_model,
    generate_description,
    reconstruct,
    translate_model,
)
from .similarity import (
    SimilarityBreakdown,
    compare,
    degree_similarity,
    js_divergence,
    max_weight_assignment,
    ratio_similarity,
    semantic_set_similarity,
    structural_similarity,
    type_distribution_similarity,
)
from .xmlio import (
    BpmnDocument,
    DiagramInterchange,
    extract_strings,
    parse,
    reattach_di,
    reinsert_strings,
    serialize,
    strip_di,
)

__version__ = "0.1.0"
